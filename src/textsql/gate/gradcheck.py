"""Finite-difference validation of the analytic gradients of the gate.

Central differences around every coordinate of the chosen ``gate.*``
parameters, compared against one backward pass. The relative-error
denominator is floored so coordinates where both estimates are essentially
zero do not blow up the ratio. A coordinate whose error is not finite fails
its parameter with an error of ``inf``.

No ``gate.*`` parameter reaches the encoder or decoder states, so the
states are computed once per check, with no tape, and everything else runs
on them through the gate-and-loss head alone. The analytic gradients come
from one forward and backward pass of the head. The perturbed losses come
from batched head passes: the coordinates of every checked parameter are
laid end to end and cut into chunks of ``_COORD_CHUNK``, and each chunk is
one pass that may span several parameters. A parameter that owns one of
the chunk's coordinates goes in with a leading copy axis that broadcasts
against the states' batch (copy 2i is the chunk's coordinate i plus
epsilon, copy 2i+1 the same coordinate minus epsilon, every other copy
unperturbed); every other parameter is shared by all copies. The states
and ids keep their batch, so a value that no copied parameter reaches is
computed once, not once per copy, and each copy's loss is the mean of its
own per-position losses. The chunk bounds the memory of one pass. Every
copy goes through the same numpy operations as an unbatched pass, so every
loss, and so every result, is bit-identical to that of a full forward per
coordinate.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .layers import GateParams
from .model import GateConfig, GateModel

REL_FLOOR = 1e-6
# Coordinates, so twice as many parameter copies, per batched head pass.
_COORD_CHUNK = 64


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    per_param: dict[str, float]


def _head_grads(
    model: GateModel, base: GateParams, names: list[str], states, src: np.ndarray, tgt: np.ndarray
) -> np.ndarray:
    """The analytic gradients of ``names`` from one backward pass of the
    head with ``base``, the model's gate parameters, flattened and laid end
    to end. Each gate parameter's ``.grad`` is cleared before and after, as
    ``loss_and_grads`` does."""
    gate = [model.params[n] for n in model.gate_param_names()]
    for t in gate:
        t.grad = None
    _, _, loss = model._head(base, *states, src, tgt)
    loss.backward()
    # Every gate parameter reaches the loss, so each has a gradient.
    flat = np.concatenate([model.params[n].grad.reshape(-1) for n in names])
    for t in gate:
        t.grad = None
    return flat


def _perturbed_losses(
    model: GateModel, base: GateParams, names: list[str], states, src: np.ndarray, tgt: np.ndarray, epsilon: float
) -> np.ndarray:
    """Perturbed losses of every coordinate of ``names``, laid end to end:
    entry 2i is coordinate i plus epsilon, entry 2i+1 minus epsilon.

    ``base`` is validated already, and each chunk's copies have the shapes
    it checked, with a broadcast copy axis in front: they go into a shallow
    copy of it without a second check."""
    datas = [model.params[n].data for n in names]
    ends = np.cumsum([d.size for d in datas])
    total = int(ends[-1])
    losses = []
    for start in range(0, total, _COORD_CHUNK):
        stop = min(start + _COORD_CHUNK, total)
        copies = 2 * (stop - start)
        chunk = copy.copy(base)
        chunk.copy_shape = (copies, 1)
        for name, data, end in zip(names, datas, ends):
            first = end - data.size
            if end <= start or first >= stop:
                continue
            owned = np.arange(max(first, start), min(end, stop))
            stack = np.repeat(data.reshape(1, -1), copies, axis=0)
            pair = 2 * (owned - start)
            stack[pair, owned - first] += epsilon
            stack[pair + 1, owned - first] -= epsilon
            # (C, 1, r, c) for a matrix, (C, 1, 1, n) for a vector.
            setattr(chunk, name.removeprefix("gate."), Tensor(stack.reshape(copies, 1, -1, data.shape[-1])))
        _, _, loss = model._head(chunk, *states, src, tgt)
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

    ``param_names`` may name ``gate.*`` parameters only, must name at least
    one, and defaults to all of them; a repeated name is checked once. The
    encoder and decoder states are computed once, with no tape. The
    analytic gradients come from one head backward pass on them, and the
    perturbed losses from one head pass per chunk of ``_COORD_CHUNK``
    coordinates, counted across the checked parameters in order, so a chunk
    may span several of them. In that pass the perturbed parameters carry a
    copy axis that broadcasts against the states, which are not repeated.
    ``epsilon`` must be positive and finite.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    gate_names = model.gate_param_names()
    if param_names is None:
        param_names = gate_names
    if not param_names:
        raise ValueError("param_names must name at least one gate parameter")
    unknown = [n for n in param_names if n not in gate_names]
    if unknown:
        raise ValueError(f"unknown gate parameters: {unknown}; only gate.* parameters can be checked")
    names = list(dict.fromkeys(param_names))
    src, tgt = model._check_pair(src_ids, tgt_ids)
    base = model.gate_params()
    with no_grad():
        states = model._states(src, tgt)
    analytic = _head_grads(model, base, names, states, src, tgt)
    with no_grad():
        losses = _perturbed_losses(model, base, names, states, src, tgt, epsilon)
    numeric = (losses[0::2] - losses[1::2]) / (2.0 * epsilon)
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    # max() would skip a NaN, so a non-finite error counts as inf.
    rel = np.where(np.isfinite(rel), rel, np.inf)
    ends = np.cumsum([model.params[n].data.size for n in names])
    per_param = {n: float(part.max()) for n, part in zip(names, np.split(rel, ends[:-1]))}
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
