"""Reverse-mode automatic differentiation over float64 numpy arrays.

A deliberately small tape: just the operations the encoder-decoder and the
extraction gate need. A node is one op's output: it records its parents and
a closure that routes its gradient to them. ``backward()`` on a scalar walks
the graph once in reverse topological order and drops each interior node's
gradient once it has been passed on, so only the leaves keep theirs. All
math is double precision so finite-difference checks resolve well below
the acceptance tolerance.

On arrays as small as the gate's, recording a node costs about as much as
the arithmetic it records, so the gate's composite layers are fused into
single nodes with hand-written backward passes: ``block`` (a transformer
block: self-attention and a feed-forward layer, each with its residual),
``linear`` (``x @ w + b``), ``layer_norm`` and ``nll`` (the negative log
likelihood of target ids). Each fused forward evaluates the same numpy
expressions, in the same order, as the elementary ops it stands for, so its
values are bit-identical to theirs. ``block_forward`` is ``block``'s forward
on plain arrays; with the keys and values of earlier rows it computes new
rows alone, which is how greedy decoding steps the causal decoder.

Ops work on a leading batch axis: ``matmul``, ``linear`` and ``transpose``
act on the last two axes of ``(..., T, d)`` arrays, ``take_rows`` gathers
with id arrays of any shape, and broadcasting a parameter over the batch
sums its gradient back down. One tape therefore covers a whole batch.
Inside ``no_grad()`` ops record neither parents nor closures, for
forward-only passes such as decoding and finite differences.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Run ops without recording the graph: outputs are constants."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward_fn=None):
        if type(data) is np.ndarray and data.dtype == np.float64:
            self.data = data  # what asarray would return, without its call
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        if _parents and _grad_enabled.get() and any(p.requires_grad for p in _parents):
            self.requires_grad = True
            self._parents = _parents
            self._backward_fn = _backward_fn
        else:
            self.requires_grad = requires_grad
            self._parents = ()
            self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray):
        # Never in place: ``grad`` may be shared with another node.
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self):
        """Backpropagate from a scalar root."""
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar root")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node)
                node.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(a: Tensor, b: Tensor, out_data, da_fn, db_fn) -> Tensor:
    def backward(out: Tensor):
        if a.requires_grad:
            a._accumulate(_unbroadcast(da_fn(out.grad), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(db_fn(out.grad), b.shape))

    return Tensor(out_data, _parents=(a, b), _backward_fn=backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _rhs_grad(a: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of ``b``, of shape ``shape``, in ``a @ b`` given ``g``."""
    if len(shape) == 2 and a.ndim > 2:
        # A weight shared over the batch: fold the batch into rows.
        rows = a.reshape(-1, a.shape[-1])
        return rows.T @ g.reshape(-1, g.shape[-1])
    return _unbroadcast(_swap(a) @ g, shape)


def _matmul_backward(a: Tensor, b: Tensor, g: np.ndarray):
    """Route the gradient ``g`` of ``a @ b`` to both operands."""
    if a.requires_grad:
        a._accumulate(_unbroadcast(g @ _swap(b.data), a.shape))
    if b.requires_grad:
        b._accumulate(_rhs_grad(a.data, g, b.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcast over leading ones."""

    def backward(out: Tensor):
        _matmul_backward(a, b, out.grad)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward_fn=backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x @ w + b`` as one node: ``add(matmul(x, w), b)``."""

    def backward(out: Tensor):
        g = out.grad
        _matmul_backward(x, w, g)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor(x.data @ w.data + b.data, _parents=(x, w, b), _backward_fn=backward)


def _unary(a: Tensor, out_data, da_fn) -> Tensor:
    def backward(out: Tensor):
        if a.requires_grad:
            a._accumulate(da_fn(out.grad, out.data))

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return _unary(a, _swap(a.data), lambda g, y: _swap(g))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in a new shape, in C order."""
    return _unary(a, a.data.reshape(shape), lambda g, y: g.reshape(a.shape))


def relu(a: Tensor) -> Tensor:
    return _unary(a, np.maximum(a.data, 0.0), lambda g, y: g * (a.data > 0.0))


def sigmoid(a: Tensor) -> Tensor:
    # Stable on both tails.
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _unary(a, y, lambda g, out: g * out * (1.0 - out))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Row softmax over the last axis (max-shifted for stability; the shift
    does not change the derivative)."""
    y = _softmax_rows(a.data)

    def backward(out: Tensor):
        if a.requires_grad:
            a._accumulate(_softmax_grad(y, out.grad))

    return Tensor(y, _parents=(a,), _backward_fn=backward)


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(out: Tensor):
        if not a.requires_grad:
            return
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _as_tensor(1.0 / count))


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis."""
    out_data = np.concatenate([a.data, b.data], axis=-1)
    split = a.data.shape[-1]

    def backward(out: Tensor):
        if a.requires_grad:
            a._accumulate(out.grad[..., :split])
        if b.requires_grad:
            b._accumulate(out.grad[..., split:])

    return Tensor(out_data, _parents=(a, b), _backward_fn=backward)


def take_rows(a: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2-D tensor by integer ids in ``[0, rows)``
    (embedding lookup); ids of shape ``(...)`` give an output of shape
    ``(..., a.shape[1])``.

    The backward sums each row's gradients in the order of ``ids``, as
    ``np.add.at`` would, with one ``np.bincount`` over flat positions."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = a.data[ids]

    def backward(out: Tensor):
        if a.requires_grad:
            flat = ids.reshape(-1, 1) * a.shape[1] + np.arange(a.shape[1])
            a._accumulate(np.bincount(flat.ravel(), out.grad.ravel(), a.data.size).reshape(a.shape))

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row layer normalization with learnable gain and bias, as one node.

    Forward and backward take the steps of the elementary ops it replaces
    (a mean, the centered row, the mean square plus ``eps`` to the power
    -0.5, then gain and bias), in their order: the values are theirs bit for
    bit, and the gradient is theirs up to the order in which ``x``'s
    contributions are summed."""
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    shifted_var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n) + eps
    inv = shifted_var**-0.5
    normed = centered * inv

    def backward(out: Tensor):
        g = out.grad
        if x.requires_grad:
            d_normed = g * gain.data
            # Through the variance, once per factor of centered * centered.
            d_var = (d_normed * centered).sum(axis=-1, keepdims=True) * -0.5 * shifted_var**-1.5 * (1.0 / n)
            d_centered = d_normed * inv + d_var * centered + d_var * centered
            d_x = d_centered - d_centered.sum(axis=-1, keepdims=True) * (1.0 / n)
            x._accumulate(_unbroadcast(d_x, x.shape))
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))

    return Tensor(normed * gain.data + bias.data, _parents=(x, gain, bias), _backward_fn=backward)


def nll(p: Tensor, ids: np.ndarray, floor: float) -> Tensor:
    """``-log(p[..., id] + floor)`` at each position's target id, as one node.

    ``p`` is ``(..., v)`` and ``ids`` has its leading shape. Picking the
    entry gives the same bits as summing ``p`` times a one-hot row, which
    adds only exact zeros to it."""
    ids = np.asarray(ids, dtype=np.int64)[..., None]
    shifted = np.take_along_axis(p.data, ids, axis=-1)[..., 0] + floor

    def backward(out: Tensor):
        if p.requires_grad:
            grad = np.zeros_like(p.data)
            np.put_along_axis(grad, ids, (-out.grad / shifted)[..., None], axis=-1)
            p._accumulate(grad)

    return Tensor(np.log(shifted) * -1.0, _parents=(p,), _backward_fn=backward)


def block_forward(x, wq, wk, wv, wo, w1, b1, w2, b2, mask=None, past=None):
    """The numpy forward of :func:`block`: its output, and the arrays its
    backward reads, ``(q, k, v, attn, read, h, pre, hidden)``.

    ``past`` holds the keys and values of earlier rows, which go before
    those of ``x``'s rows. So with the keys and values of a causal block's
    first rows, ``x`` as its next rows and no mask, the output is that of
    the block's next rows; ``k`` and ``v`` come back extended."""
    q = x @ wq
    k = x @ wk
    v = x @ wv
    if past is not None:
        k = np.concatenate([past[0], k], axis=-2)
        v = np.concatenate([past[1], v], axis=-2)
    score = q @ _swap(k) * x.shape[-1] ** -0.5
    if mask is not None:
        score = score + mask
    attn = _softmax_rows(score)
    read = attn @ v
    h = x + read @ wo
    pre = h @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    return h + (hidden @ w2 + b2), (q, k, v, attn, read, h, pre, hidden)


def block(x: Tensor, wq, wk, wv, wo, w1, b1, w2, b2, mask: np.ndarray | None = None) -> Tensor:
    """A transformer block as one node: self-attention with queries, keys
    and values ``x @ wq``, ``x @ wk``, ``x @ wv``, scores scaled by
    ``d ** -0.5`` plus ``mask``, output projection ``wo`` and a residual;
    then ``relu(h @ w1 + b1) @ w2 + b2`` and a second residual.

    The forward evaluates the expressions of the elementary ops, and the
    backward sums each gradient in the order the tape would, so values and
    gradients are theirs bit for bit."""
    weights = (wq, wk, wv, wo, w1, b1, w2, b2)
    out, (q, k, v, attn, read, h, pre, hidden) = block_forward(x.data, *(w.data for w in weights), mask=mask)
    scale = x.shape[-1] ** -0.5

    def backward(node: Tensor):
        g = node.grad
        d_pre = g @ _swap(w2.data) * (pre > 0.0)
        d_h = g + d_pre @ _swap(w1.data)
        d_read = d_h @ _swap(wo.data)
        d_score = _softmax_grad(attn, d_read @ _swap(v)) * scale
        d_q = d_score @ k
        d_k = _swap(_swap(q) @ d_score)
        d_v = _rhs_grad(attn, d_read, v.shape)
        if x.requires_grad:
            # The tape's order: the residual's share, then the query's, the
            # key's and the value's.
            x._accumulate(d_h + d_q @ _swap(wq.data) + d_k @ _swap(wk.data) + d_v @ _swap(wv.data))
        inputs = (x.data, x.data, x.data, read, h, None, hidden, None)  # None: a bias
        for w, a, d in zip(weights, inputs, (d_q, d_k, d_v, d_h, d_pre, d_pre, g, g)):
            if w.requires_grad:
                w._accumulate(_unbroadcast(d, w.shape) if a is None else _rhs_grad(a, d, w.shape))

    return Tensor(out, _parents=(x, *weights), _backward_fn=backward)
