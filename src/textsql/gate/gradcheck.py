"""Finite-difference validation of the analytic gradients.

Central differences around every coordinate of the chosen parameters,
compared against one backward pass. The relative-error denominator is
floored so coordinates where both estimates are essentially zero do not
blow up the ratio.

No ``gate.*`` parameter reaches the encoder or decoder states, so the
perturbed losses of a gate coordinate run only the gate-and-loss head on
states computed once per check. Any other parameter reruns the full
forward. The head repeats the forward's operations on the same arrays, so
every loss, and so every result, is bit-identical to a full forward's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .model import GateConfig, GateModel

REL_FLOOR = 1e-6


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    per_param: dict[str, float]


def grad_check(
    model: GateModel,
    src_ids,
    tgt_ids,
    epsilon: float = 1e-5,
    param_names: list[str] | None = None,
) -> GradCheckResult:
    """Compare analytic and numeric gradients coordinate by coordinate.

    The encoder and decoder states are computed once, after the backward
    pass and with the parameters as given, and reused by the perturbed
    losses of every ``gate.*`` coordinate; other parameters rerun the full
    forward per perturbation.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if param_names is None:
        param_names = model.gate_param_names()
    unknown = [n for n in param_names if n not in model.params]
    if unknown:
        raise ValueError(f"unknown parameters: {unknown}")
    _, grads = model.loss_and_grads(src_ids, tgt_ids)
    src, tgt = model._check_pair(src_ids, tgt_ids)
    with no_grad():
        h_enc, h_dec = model._states(src, tgt)

    def head_loss() -> float:
        return float(model._head(h_enc, h_dec, src, tgt)[2].data)

    def full_loss() -> float:
        return model.forward(src_ids, tgt_ids).loss

    per_param: dict[str, float] = {}
    for name in param_names:
        loss = head_loss if name.startswith("gate.") else full_loss
        data = model.params[name].data
        flat = data.reshape(-1)
        analytic = grads[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            kept = flat[i]
            with no_grad():
                flat[i] = kept + epsilon
                up = loss()
                flat[i] = kept - epsilon
                down = loss()
            flat[i] = kept
            numeric = (up - down) / (2.0 * epsilon)
            rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), REL_FLOOR)
            worst = max(worst, rel)
        per_param[name] = worst
    worst_param = max(per_param, key=per_param.get)
    return GradCheckResult(
        max_rel_error=max(per_param.values()),
        worst_param=worst_param,
        per_param=per_param,
    )


def epsilon_sweep(model: GateModel, src_ids, tgt_ids, epsilons, param_names=None) -> list[tuple[float, float]]:
    """Max relative error at each step size, in the order given."""
    return [
        (float(eps), grad_check(model, src_ids, tgt_ids, epsilon=float(eps), param_names=param_names).max_rel_error)
        for eps in epsilons
    ]


def random_check_instance(
    seed: int,
    d_model: int = 8,
    vocab_size: int = 20,
    src_len: int = 5,
    tgt_len: int = 4,
) -> tuple[GateModel, np.ndarray, np.ndarray]:
    """A small random model and token ids for gradient checking."""
    cfg = GateConfig(
        vocab_size=vocab_size,
        d_model=d_model,
        max_src_len=src_len,
        max_tgt_len=tgt_len,
        seed=seed,
    )
    model = GateModel(cfg)
    rng = np.random.default_rng(seed + 1)
    src_ids = rng.integers(0, vocab_size, size=src_len)
    tgt_ids = rng.integers(0, vocab_size, size=tgt_len)
    return model, src_ids, tgt_ids
