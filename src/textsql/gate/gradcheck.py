"""Finite-difference validation of the analytic gradients of the gate.

Central differences around every coordinate of the chosen ``gate.*``
parameters, compared against one backward pass. The relative-error
denominator is floored so coordinates where both estimates are essentially
zero do not blow up the ratio. A coordinate whose error is not finite fails
its parameter with an error of ``inf``.

No ``gate.*`` parameter reaches the encoder or decoder states, so the
states are computed once per check and the perturbed losses come from
batched passes of the gate-and-loss head alone: the perturbed copies of a
parameter go in on a leading copy axis (row 2i is coordinate i plus
epsilon, row 2i+1 coordinate i minus epsilon), the states and ids are
repeated across that axis, and each copy's loss is the mean of its own
block of per-position losses. The copies run in chunks of ``_COORD_CHUNK``
coordinates, which bounds the memory of one pass. Every copy goes through
the same numpy operations as an unbatched pass, so every loss, and so every
result, is bit-identical to that of a full forward per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .model import GateConfig, GateModel

REL_FLOOR = 1e-6
# Coordinates, so twice as many parameter copies, per batched head pass.
_COORD_CHUNK = 64


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    per_param: dict[str, float]


def _head_losses(model: GateModel, name: str, states, src: np.ndarray, tgt: np.ndarray, epsilon: float) -> np.ndarray:
    """Perturbed losses of every coordinate of gate parameter ``name``:
    entry 2i is coordinate i plus epsilon, entry 2i+1 minus epsilon."""
    data = model.params[name].data
    flat = data.reshape(-1)
    base = model.gate_params()
    h_enc, h_dec = (h.data for h in states)
    examples = src.shape[0]
    losses = []
    for start in range(0, flat.size, _COORD_CHUNK):
        coords = np.arange(start, min(start + _COORD_CHUNK, flat.size))
        copies = 2 * coords.size
        stack = np.repeat(flat[None, :], copies, axis=0)
        pair = 2 * np.arange(coords.size)
        stack[pair, coords] += epsilon
        stack[pair + 1, coords] -= epsilon
        # One row of parameters per batch row, copy-major like the repeated
        # states and ids.
        per_row = np.repeat(stack.reshape(copies, -1, data.shape[-1]), examples, axis=0)
        params = replace(base, **{name.removeprefix("gate."): per_row})
        enc, dec, src_rows, tgt_rows = (np.concatenate([a] * copies) for a in (h_enc, h_dec, src, tgt))
        _, _, loss = model._head(params, Tensor(enc), Tensor(dec), src_rows, tgt_rows, blocks=copies)
        losses.append(loss.data)
    return np.concatenate(losses)


def grad_check(
    model: GateModel,
    src_ids,
    tgt_ids,
    epsilon: float = 1e-5,
    param_names: list[str] | None = None,
) -> GradCheckResult:
    """Compare analytic and numeric gradients coordinate by coordinate.

    ``param_names`` may name ``gate.*`` parameters only, and defaults to all
    of them. The encoder and decoder states are computed once, after the
    backward pass; each parameter gets its perturbed losses from one batched
    head pass on them per chunk of ``_COORD_CHUNK`` coordinates.
    ``epsilon`` must be positive and finite.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    gate_names = model.gate_param_names()
    if param_names is None:
        param_names = gate_names
    unknown = [n for n in param_names if n not in gate_names]
    if unknown:
        raise ValueError(f"unknown gate parameters: {unknown}; only gate.* parameters can be checked")
    _, grads = model.loss_and_grads(src_ids, tgt_ids)
    src, tgt = model._check_pair(src_ids, tgt_ids)
    per_param: dict[str, float] = {}
    with no_grad():
        states = model._states(src, tgt)
        for name in param_names:
            losses = _head_losses(model, name, states, src, tgt, epsilon)
            numeric = (losses[0::2] - losses[1::2]) / (2.0 * epsilon)
            analytic = grads[name].reshape(-1)
            rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
            # max() would skip a NaN, so a non-finite error counts as inf.
            per_param[name] = float(np.where(np.isfinite(rel), rel, np.inf).max())
    return GradCheckResult(
        max_rel_error=max(per_param.values()),
        worst_param=max(per_param, key=per_param.get),
        per_param=per_param,
    )


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
