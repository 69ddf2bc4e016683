"""The gated extraction layer.

Sits after the final decoder block. A cross-attention read of the encoder
states produces a context; a sigmoid gate decides, per target position, how
much probability mass to take from a generation softmax versus from copying
source tokens directly through the attention weights.

All functions accept either ``Tensor`` nodes (differentiable path used in
training) or plain numpy arrays (coerced to constants). States are
``(positions, d)`` for one sequence or ``(batch, positions, d)`` for a
batch; every output then carries the same leading batch axis. Parameters
may carry a copy axis C (see ``GateParams``) in front of a batch of
states, so outputs are (C, B, ...): a value takes the copy axis only once
a copied parameter reaches it, so what no copied parameter reaches is
computed once for every copy. The layers that take an earlier layer's
output (``extraction_gate``, ``copy_distribution``, ``merge``) accept any
leading shapes that broadcast together, but never mix an unbatched input
with batched ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import (
    Tensor,
    _as_tensor,
    add,
    concat_last,
    layer_norm,
    linear,
    matmul,
    mul,
    relu,
    sigmoid,
    softmax,
    sub,
    transpose,
)


_MATRICES = frozenset({"w_q", "w_kv", "ff_w", "gate_w", "out_w"})


@dataclass
class GateParams:
    """Learnable parameters of the extraction layer.

    Shapes for model width d and vocabulary size v:
    w_q, w_kv, ff_w are (d, d); ff_b and the four layer-norm vectors are
    (d,); gate_w is (2d, 1) with gate_b (1,); out_w is (d, v) with out_b (v,).

    Any field may instead hold C copies of itself on a copy axis that
    broadcasts against a batch of states: a matrix as (C, 1, r, c), a
    vector as (C, 1, 1, n). Against states of any batch B, every copy runs
    on every example and the outputs are (C, B, ...). Every field that has
    the axis must agree on C, which is then ``copies`` (None without the
    axis); fields without it are shared by every copy.
    """

    w_q: Tensor
    w_kv: Tensor
    ff_w: Tensor
    ff_b: Tensor
    ln_dec_gain: Tensor
    ln_dec_bias: Tensor
    ln_ctx_gain: Tensor
    ln_ctx_bias: Tensor
    gate_w: Tensor
    gate_b: Tensor
    out_w: Tensor
    out_b: Tensor
    copies: int | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        trailing: dict[str, tuple[int, ...]] = {}
        copies: set[int] = set()
        for f in fields(self):
            if not f.init:
                continue
            value = getattr(self, f.name)
            if not isinstance(value, Tensor):
                value = _as_tensor(np.asarray(value, dtype=np.float64))
                setattr(self, f.name, value)
            rank = 2 if f.name in _MATRICES else 1
            shape = value.shape
            if len(shape) != rank:
                if len(shape) != 4 or shape[1] != 1 or rank == 1 and shape[2] != 1:
                    kind = "(C, 1, r, c)" if rank == 2 else "(C, 1, 1, n)"
                    raise ValueError(f"{f.name} must be {rank}-D or carry a copy axis as {kind}, got {shape}")
                copies.add(shape[0])
                shape = shape[4 - rank :]
            trailing[f.name] = shape
        if len(copies) > 1:
            raise ValueError(f"copy axes disagree: {sorted(copies)}")
        self.copies = copies.pop() if copies else None
        d = trailing["w_q"][0]
        if any(trailing[n] != (d, d) for n in ("w_q", "w_kv", "ff_w")):
            raise ValueError("projection matrices must be square and agree on width")
        if any(trailing[n] != (d,) for n in ("ff_b", "ln_dec_gain", "ln_dec_bias", "ln_ctx_gain", "ln_ctx_bias")):
            raise ValueError(f"feed-forward bias and layer-norm vectors must have width {d}")
        if trailing["gate_w"] != (2 * d, 1) or trailing["gate_b"] != (1,):
            raise ValueError("gate projection must map 2*d features to a scalar")
        if trailing["out_w"][0] != d or trailing["out_b"] != (trailing["out_w"][1],):
            raise ValueError("output head shapes disagree")

    @property
    def d_model(self) -> int:
        return self.w_q.shape[-1]

    @property
    def vocab_size(self) -> int:
        return self.out_w.shape[-1]


def one_hot(ids: np.ndarray, n: int) -> np.ndarray:
    """Float one-hot rows over ``n`` classes, shape ``(*ids.shape, n)``."""
    return (np.asarray(ids)[..., None] == np.arange(n)).astype(np.float64)


def _joint_lead(*leads: tuple[int, ...]) -> tuple[int, ...] | None:
    """The shape that leading (batch and copy) shapes broadcast to, or None
    when they do not broadcast or mix an unbatched shape, (), with batched
    ones."""
    if all(lead == leads[0] for lead in leads):
        return leads[0]
    if not all(leads):
        return None
    try:
        return np.broadcast_shapes(*leads)
    except ValueError:
        return None


def _check_states(h: Tensor, params: GateParams, name: str) -> tuple[int, ...]:
    """Check states against ``params``; returns the leading shape of what
    the layers compute from them: the batch, or (C, B) with C copies."""
    d = params.d_model
    if h.data.ndim not in (2, 3) or h.shape[-1] != d:
        raise ValueError(f"{name} must have shape ([batch,] positions, {d}), got {h.shape}")
    if params.copies is None:
        return h.shape[:-2]
    if h.data.ndim != 3:
        raise ValueError(f"{name} must have a batch axis of any size to run parameter copies on, got {h.shape}")
    return (params.copies, h.shape[0])


def cross_attention(h_enc, h_dec, params: GateParams) -> tuple[Tensor, Tensor, Tensor]:
    """Attend decoder states over encoder states.

    Queries come from the decoder, keys and values share one projection of
    the encoder. Scores are raw dot products (no scaling). The attention
    readout passes through a single ReLU feed-forward to form the context.
    Returns (score, attn, context) with shapes (T, S), (T, S), (T, d),
    each with a leading batch axis when the states have one, and with the
    copy axis when a copied parameter reaches it.
    """
    h_enc = _as_tensor(h_enc)
    h_dec = _as_tensor(h_dec)
    _check_states(h_enc, params, "h_enc")
    _check_states(h_dec, params, "h_dec")
    if h_enc.shape[:-2] != h_dec.shape[:-2]:
        raise ValueError(f"h_enc and h_dec must share a batch shape, got {h_enc.shape} and {h_dec.shape}")
    q = matmul(h_dec, params.w_q)
    kv = matmul(h_enc, params.w_kv)
    score = matmul(q, transpose(kv))
    attn = softmax(score)
    read = matmul(attn, kv)
    context = relu(linear(read, params.ff_w, params.ff_b))
    return score, attn, context


def extraction_gate(h_dec, context, params: GateParams) -> Tensor:
    """Per-position copy probability in (0, 1), shape ([B,] T, 1).

    Decoder state and context are layer-normalized independently, then a
    linear map of their concatenation feeds a sigmoid.
    """
    h_dec = _as_tensor(h_dec)
    context = _as_tensor(context)
    lead = _check_states(h_dec, params, "h_dec")
    if context.shape[-2:] != h_dec.shape[-2:] or _joint_lead(lead, context.shape[:-2]) is None:
        raise ValueError(f"h_dec and context must align by position, got {h_dec.shape} and {context.shape}")
    n_dec = layer_norm(h_dec, params.ln_dec_gain, params.ln_dec_bias)
    n_ctx = layer_norm(context, params.ln_ctx_gain, params.ln_ctx_bias)
    joined = concat_last(n_dec, n_ctx)
    return sigmoid(linear(joined, params.gate_w, params.gate_b))


def generation_head(h_dec, params: GateParams) -> Tensor:
    """Vocabulary softmax over decoder states, shape ([B,] T, v)."""
    h_dec = _as_tensor(h_dec)
    _check_states(h_dec, params, "h_dec")
    return softmax(linear(h_dec, params.out_w, params.out_b))


def copy_distribution(attn, src_ids, vocab_size: int) -> Tensor:
    """Scatter attention mass onto the vocabulary, shape ([B,] T, v).

    Position t assigns each source token's attention weight to that token's
    vocabulary id; repeated ids accumulate. Rows sum to 1 whenever the
    attention rows do. ``src_ids`` is (S,) for attention of shape (T, S),
    or (B, S) for attention of shape (..., B, T, S) or any leading shape
    that broadcasts against (B,).
    """
    attn = _as_tensor(attn)
    ids = np.asarray(src_ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise ValueError("src_ids must be a flat id sequence or a batch of them")
    if attn.data.ndim < 2 or attn.shape[-1] != ids.shape[-1] or _joint_lead(attn.shape[:-2], ids.shape[:-1]) is None:
        expected = (*ids.shape[:-1], "positions", ids.shape[-1])
        raise ValueError(f"attn must have shape ({', '.join(map(str, expected))}), got {attn.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError("src_ids out of vocabulary range")
    return matmul(attn, Tensor(one_hot(ids, vocab_size)))


def merge(o_gen, o_ext, p_ext) -> Tensor:
    """Blend generation and copy distributions with the gate.

    Computes (1 - p) * o_gen + p * o_ext row-wise; a convex combination, so
    rows stay valid distributions. The three leading shapes broadcast.
    """
    o_gen = _as_tensor(o_gen)
    o_ext = _as_tensor(o_ext)
    p_ext = _as_tensor(p_ext)
    lead = _joint_lead(o_gen.shape[:-2], o_ext.shape[:-2])
    if o_gen.shape[-2:] != o_ext.shape[-2:] or lead is None:
        raise ValueError("o_gen and o_ext must share a shape")
    if p_ext.shape[-2:] != (*o_gen.shape[-2:-1], 1) or _joint_lead(lead, p_ext.shape[:-2]) is None:
        expected = ", ".join(map(str, (*lead, *o_gen.shape[-2:-1], 1)))
        raise ValueError(f"p_ext must have shape ({expected}), got {p_ext.shape}")
    keep = sub(Tensor(1.0), p_ext)
    return add(mul(keep, o_gen), mul(p_ext, o_ext))


def run_gate(h_enc, h_dec, src_ids, params: GateParams, gated: bool = True) -> dict[str, Tensor]:
    """Full extraction-layer pass.

    Returns the live tensors by name (``score``, ``attn``, ``context``,
    ``p_ext``, ``o_gen``, ``o_ext``, ``o_final``), the only record of a
    pass: the graph for backprop, or constants under ``no_grad()``. Nothing
    is copied; ``GateModel.forward`` takes its snapshot from them.
    ``gated=False`` multiplies the gate by zero, disabling copying so the
    output reduces to the generation softmax; used by ablations.
    """
    score, attn, context = cross_attention(h_enc, h_dec, params)
    p_ext = extraction_gate(h_dec, context, params)
    if not gated:
        p_ext = mul(p_ext, Tensor(0.0))
    o_gen = generation_head(h_dec, params)
    o_ext = copy_distribution(attn, src_ids, params.vocab_size)
    o_final = merge(o_gen, o_ext, p_ext)
    return dict(score=score, attn=attn, context=context, p_ext=p_ext, o_gen=o_gen, o_ext=o_ext, o_final=o_final)
