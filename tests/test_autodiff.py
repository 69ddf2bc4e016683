"""Reverse-mode tape: every op's gradient against central differences,
and each fused op against the elementary ops it stands for."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from textsql.gate.autodiff import (
    Tensor,
    _softmax_rows,
    _unary,
    add,
    block,
    concat_last,
    layer_norm,
    linear,
    matmul,
    mul,
    nll,
    no_grad,
    relu,
    sigmoid,
    softmax,
    sub,
    take_rows,
    tmean,
    transpose,
    tsum,
)
from textsql.gate.layers import one_hot

EPS = 1e-6
TOL = 1e-7


def numeric_grad(f, arrays, i):
    """Central-difference gradient of scalar f(*arrays) w.r.t. arrays[i]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[i])
    it = np.nditer(base[i], flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = [a.copy() for a in base]
        minus = [a.copy() for a in base]
        plus[i][idx] += EPS
        minus[i][idx] -= EPS
        grad[idx] = (f(*plus) - f(*minus)) / (2 * EPS)
    return grad


def check_grads(graph_fn, *arrays):
    """Assert analytic grads of scalar graph_fn(tensors) match differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = graph_fn(*tensors)
    out.backward()

    def as_scalar(*arrs):
        return float(graph_fn(*[Tensor(a) for a in arrs]).data)

    for i, t in enumerate(tensors):
        expected = numeric_grad(as_scalar, list(arrays), i)
        np.testing.assert_allclose(t.grad, expected, rtol=1e-5, atol=TOL)


def rand(shape, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale + offset


class TestElementwise:
    def test_add_sub_mul(self):
        a, b = rand((3, 4), 0), rand((3, 4), 1)
        check_grads(lambda x, y: tsum(mul(add(x, y), sub(x, y))), a, b)

    def test_broadcast_row_vector(self):
        a, b = rand((3, 4), 2), rand((4,), 3)
        check_grads(lambda x, y: tsum(mul(add(x, y), y)), a, b)
        check_grads(lambda x, y: tsum(sub(x, y)), a, b)

    def test_broadcast_keepdim_column(self):
        a, b = rand((3, 4), 4), rand((3, 1), 5)
        check_grads(lambda x, y: tsum(mul(x, y)), a, b)

    def test_relu_away_from_kink(self):
        a = rand((4, 3), 6)
        a[np.abs(a) < 0.1] = 0.5
        check_grads(lambda x: tsum(relu(x)), a)

    def test_sigmoid(self):
        a = rand((3, 3), 8, scale=2.0)
        check_grads(lambda x: tsum(sigmoid(x)), a)

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(out.data))


class TestMatmul:
    def test_rectangular(self):
        a, b = rand((3, 4), 12), rand((4, 2), 13)
        check_grads(lambda x, y: tsum(matmul(x, y)), a, b)

    def test_chained(self):
        a, b, c = rand((2, 3), 14), rand((3, 3), 15), rand((3, 2), 16)
        check_grads(lambda x, y, z: tsum(matmul(matmul(x, y), z)), a, b, c)

    def test_batch_against_shared_weight(self):
        # The weight's gradient folds the batch into rows.
        a, b, w = rand((3, 2, 4), 40), rand((4, 5), 41), rand((3, 2, 5), 42)
        check_grads(lambda x, y: tsum(mul(matmul(x, y), Tensor(w))), a, b)

    def test_batch_against_batch(self):
        a, b, w = rand((2, 3, 4), 43), rand((2, 4, 3), 44), rand((2, 3, 3), 45)
        check_grads(lambda x, y: tsum(mul(matmul(x, y), Tensor(w))), a, b)

    def test_shared_left_operand(self):
        a, b, w = rand((3, 4), 46), rand((2, 4, 2), 47), rand((2, 3, 2), 48)
        check_grads(lambda x, y: tsum(mul(matmul(x, y), Tensor(w))), a, b)

    def test_batch_equals_each_matrix(self):
        a, b = rand((3, 2, 4), 49), rand((4, 5), 50)
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ b, rtol=1e-15, atol=1e-15)

    def test_transpose_swaps_last_two_axes(self):
        a, w = rand((2, 3, 4), 51), rand((2, 4, 3), 52)
        assert transpose(Tensor(a)).shape == (2, 4, 3)
        check_grads(lambda x: tsum(mul(transpose(x), Tensor(w))), a)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(Tensor(rand((5, 7), 17, scale=3.0)))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_shift_invariance(self):
        a = rand((4, 6), 18)
        np.testing.assert_allclose(
            softmax(Tensor(a)).data, softmax(Tensor(a + 100.0)).data, atol=1e-12
        )

    def test_gradient(self):
        a = rand((3, 5), 19)
        w = rand((3, 5), 20)
        check_grads(lambda x: tsum(mul(softmax(x), Tensor(w))), a)

    def test_large_logits_stay_finite(self):
        out = softmax(Tensor(np.array([[1e4, 0.0, -1e4]])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0, 0], 1.0)

    @given(
        x=arrays(
            np.float64,
            st.lists(st.integers(0, 5), min_size=0, max_size=3).flatmap(
                lambda lead: st.integers(1, 24).map(lambda k: (*lead, k))
            ),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
        ),
        view=st.sampled_from(["as is", "transposed", "strided", "reversed"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_keep_the_bits_of_the_last_axis_max(self, x, view):
        # Ties, signed zeros, infinities and NaNs, on contiguous arrays and
        # on views: the oracle is the expression with numpy's row max. A NaN
        # is compared as NaN whatever its sign: which of a row's NaNs a max
        # returns is not specified, and it is the only bit that may differ.
        if view == "transposed" and x.ndim >= 2 and x.shape[-2] > 0:
            x = np.swapaxes(x, -1, -2)
        elif view == "strided" and x.shape[-1] > 1:
            x = x[..., ::2]
        elif view == "reversed":
            x = x[..., ::-1]
        with np.errstate(all="ignore"):
            want = x - x.max(axis=-1, keepdims=True)
            want = np.exp(want) / np.exp(want).sum(axis=-1, keepdims=True)
            got = _softmax_rows(x)
        assert got.shape == want.shape
        assert np.where(np.isnan(got), np.nan, got).tobytes() == np.where(np.isnan(want), np.nan, want).tobytes()


class TestReductions:
    def test_sum_full(self):
        check_grads(lambda x: tsum(x), rand((3, 4), 21))

    def test_sum_axis_keepdims(self):
        a = rand((3, 4), 22)
        w = rand((3, 1), 23)
        check_grads(lambda x: tsum(mul(tsum(x, axis=1, keepdims=True), Tensor(w))), a)

    def test_sum_axis_dropped(self):
        a = rand((3, 4), 24)
        w = rand((4,), 25)
        check_grads(lambda x: tsum(mul(tsum(x, axis=0), Tensor(w))), a)

    def test_mean_matches_sum_over_count(self):
        a = rand((3, 4), 26)
        m = tmean(Tensor(a), axis=1)
        np.testing.assert_allclose(m.data, a.mean(axis=1))
        check_grads(lambda x: tsum(mul(tmean(x, axis=1), Tensor(rand((3,), 27)))), a)


class TestStructural:
    def test_concat_last_splits_gradient(self):
        a, b = rand((3, 2), 28), rand((3, 4), 29)
        w = rand((3, 6), 30)
        check_grads(lambda x, y: tsum(mul(concat_last(x, y), Tensor(w))), a, b)

    def test_take_rows_accumulates_repeats(self):
        emb = rand((5, 3), 31)
        ids = np.array([0, 2, 0, 0])
        w = rand((4, 3), 32)
        t = Tensor(emb, requires_grad=True)
        tsum(mul(take_rows(t, ids), Tensor(w))).backward()
        expected = np.zeros_like(emb)
        for r, row_w in zip(ids, w):
            expected[r] += row_w
        np.testing.assert_allclose(t.grad, expected)

    def test_take_rows_gradient(self):
        emb = rand((5, 3), 33)
        ids = np.array([1, 1, 4])
        w = rand((3, 3), 34)
        check_grads(lambda x: tsum(mul(take_rows(x, ids), Tensor(w))), emb)

    def test_take_rows_batched_ids(self):
        emb = rand((5, 3), 53)
        ids = np.array([[1, 1, 4], [0, 4, 4]])
        w = rand((2, 3, 3), 54)
        assert take_rows(Tensor(emb), ids).shape == (2, 3, 3)
        check_grads(lambda x: tsum(mul(take_rows(x, ids), Tensor(w))), emb)

    def test_layer_norm_standardizes_rows(self):
        x = rand((4, 8), 35, scale=3.0, offset=5.0)
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-3)

    def test_layer_norm_gradient(self):
        x = rand((3, 6), 36)
        gain = rand((6,), 37, scale=0.2, offset=1.0)
        bias = rand((6,), 38, scale=0.2)
        w = rand((3, 6), 39)
        check_grads(lambda a, g, b: tsum(mul(layer_norm(a, g, b), Tensor(w))), x, gain, bias)


class TestFusedGradients:
    def test_linear(self):
        x, w, b = rand((3, 4), 60), rand((4, 2), 61), rand((2,), 62)
        check_grads(lambda x, w, b: tsum(mul(linear(x, w, b), Tensor(rand((3, 2), 63)))), x, w, b)

    def test_linear_batch_against_shared_weight(self):
        x, w, b = rand((2, 3, 4), 64), rand((4, 5), 65), rand((5,), 66)
        check_grads(lambda x, w, b: tsum(mul(linear(x, w, b), Tensor(rand((2, 3, 5), 67)))), x, w, b)

    def test_linear_with_a_copy_axis(self):
        x, w, b = rand((2, 3, 4), 68), rand((2, 4, 5), 69), rand((2, 1, 5), 70)
        check_grads(lambda x, w, b: tsum(mul(linear(x, w, b), Tensor(rand((2, 3, 5), 71)))), x, w, b)

    def test_layer_norm_with_a_copy_axis(self):
        x = rand((2, 3, 5), 72, scale=2.0, offset=1.0)
        gain = rand((2, 1, 5), 73, scale=0.2, offset=1.0)
        bias = rand((2, 1, 5), 74, scale=0.2)
        w = rand((2, 3, 5), 75)
        check_grads(lambda a, g, b: tsum(mul(layer_norm(a, g, b), Tensor(w))), x, gain, bias)

    def test_nll(self):
        p = np.random.default_rng(76).uniform(0.2, 1.0, size=(2, 3, 6))
        ids = np.array([[0, 5, 5], [2, 3, 0]])
        check_grads(lambda p: tsum(mul(nll(p, ids, 1e-12), Tensor(rand((2, 3), 77)))), p)

    def test_nll_broadcasts_the_ids(self):
        # A leading copy axis on p alone: the ids are those of every copy.
        p = np.random.default_rng(78).uniform(0.2, 1.0, size=(4, 2, 3, 6))
        ids = np.array([[0, 5, 5], [2, 3, 0]])
        out = nll(Tensor(p), ids, 1e-12)
        assert out.shape == (4, 2, 3)
        for copy in range(4):
            assert out.data[copy].tobytes() == nll(Tensor(p[copy]), ids, 1e-12).data.tobytes()
        check_grads(lambda p: tsum(mul(nll(p, ids, 1e-12), Tensor(rand((4, 2, 3), 79)))), p)

    def test_concat_last_broadcasts_leading_axes(self):
        a, b = rand((2, 3, 2), 80), rand((4, 1, 3, 5), 81)
        out = concat_last(Tensor(a), Tensor(b))
        assert out.shape == (4, 2, 3, 7)
        want = np.concatenate([np.broadcast_to(a, (4, 2, 3, 2)), np.broadcast_to(b, (4, 2, 3, 5))], axis=-1)
        assert np.array_equal(out.data, want)
        w = rand((4, 2, 3, 7), 82)
        check_grads(lambda x, y: tsum(mul(concat_last(x, y), Tensor(w))), a, b)


# The elementary-op definitions the fused ops replaced, kept as their
# oracles; ``power`` and ``log`` have no other use, so only these keep them.


def _power(a, exponent):
    return _unary(a, a.data**exponent, lambda g, y: g * exponent * a.data ** (exponent - 1.0))


def _log(a):
    return _unary(a, np.log(a.data), lambda g, y: g / a.data)


def composite_layer_norm(x, gain, bias, eps=1e-6):
    m = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, m)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = _power(add(var, Tensor(eps)), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


def composite_linear(x, w, b):
    return add(matmul(x, w), b)


def composite_nll(p, ids, floor):
    picked = tsum(mul(p, Tensor(one_hot(ids, p.shape[-1]))), axis=-1)
    return mul(_log(add(picked, Tensor(floor))), Tensor(-1.0))


def composite_block(x, wq, wk, wv, wo, w1, b1, w2, b2, mask=None):
    q = matmul(x, wq)
    k = matmul(x, wk)
    v = matmul(x, wv)
    score = mul(matmul(q, transpose(k)), Tensor(x.shape[-1] ** -0.5))
    if mask is not None:
        score = add(score, Tensor(mask))
    attended = matmul(matmul(softmax(score), v), wo)
    h = add(x, attended)
    hidden = relu(linear(h, w1, b1))
    return add(h, linear(hidden, w2, b2))


def assert_fused_matches(fused, composite, arrays, seed, exact=False):
    """The two graphs' forwards are equal bit for bit, and each input's
    gradient is within 1e-12 of the composite's, relative to the largest
    entry of the latter (``exact``: equal bit for bit), under one random
    weighting of the output."""
    outs, grads = [], []
    for op in (fused, composite):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*tensors)
        weights = np.random.default_rng(seed).standard_normal(out.shape)
        tsum(mul(out, Tensor(weights))).backward()
        outs.append(out.data)
        grads.append([t.grad for t in tensors])
    assert np.array_equal(outs[0], outs[1])
    for got, want in zip(*grads):
        assert got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


# States are (T, d), a batch (B, T, d) with shared parameters, or a batch
# whose parameters carry gradcheck's copy axis: vectors (C, 1, d) and
# matrices (C, r, c), with C = B.
_LAYOUTS = st.sampled_from(["single", "batch", "copies"])
_SEEDS = st.integers(0, 2**32 - 1)


class TestFusedOps:
    @given(
        layout=_LAYOUTS,
        n=st.integers(1, 4),
        t=st.integers(1, 5),
        d=st.integers(1, 8),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, 5.0, -1e3]),
        flat_rows=st.booleans(),
        seed=_SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_layer_norm(self, layout, n, t, d, scale, offset, flat_rows, seed):
        rng = np.random.default_rng(seed)
        lead = () if layout == "single" else (n,)
        vector = (n, 1, d) if layout == "copies" else (d,)
        x = rng.standard_normal((*lead, t, d)) * scale + offset
        if flat_rows:  # zero variance: the epsilon alone keeps the scale finite
            x[..., 1:] = x[..., :1]
        gain = rng.standard_normal(vector) * 0.5 + 1.0
        bias = rng.standard_normal(vector)
        assert_fused_matches(layer_norm, composite_layer_norm, [x, gain, bias], seed)

    @given(
        layout=_LAYOUTS,
        n=st.integers(1, 4),
        t=st.integers(1, 5),
        r=st.integers(1, 8),
        c=st.integers(1, 8),
        seed=_SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_linear(self, layout, n, t, r, c, seed):
        rng = np.random.default_rng(seed)
        lead = () if layout == "single" else (n,)
        copies = layout == "copies"
        x = rng.standard_normal((*lead, t, r))
        w = rng.standard_normal((n, r, c) if copies else (r, c))
        b = rng.standard_normal((n, 1, c) if copies else (c,))
        assert_fused_matches(linear, composite_linear, [x, w, b], seed)

    @given(
        batched=st.booleans(),
        n=st.integers(1, 4),
        t=st.integers(1, 5),
        v=st.integers(1, 12),
        zeros=st.booleans(),
        seed=_SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_nll(self, batched, n, t, v, zeros, seed):
        rng = np.random.default_rng(seed)
        lead = (n,) if batched else ()
        logits = rng.standard_normal((*lead, t, v)) * 3.0
        p = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        ids = rng.integers(0, v, size=(*lead, t))
        if zeros:  # a target given no mass at all: the floor alone is logged
            np.put_along_axis(p, ids[..., None], 0.0, axis=-1)
        assert_fused_matches(
            lambda p: nll(p, ids, 1e-12), lambda p: composite_nll(p, ids, 1e-12), [p], seed
        )


    @given(
        rows=st.integers(1, 6),
        d=st.integers(1, 5),
        shape=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        seed=_SEEDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_take_rows(self, rows, d, shape, seed):
        # Repeated ids with gradients of mixed magnitudes, where the order
        # of the sum shows in the last bits: ``np.add.at``'s order.
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, rows, size=shape)
        w = rng.standard_normal((*shape, d)) * 10.0 ** rng.integers(-8, 9, size=(*shape, 1))
        t = Tensor(rng.standard_normal((rows, d)), requires_grad=True)
        tsum(mul(take_rows(t, ids), Tensor(w))).backward()
        expected = np.zeros((rows, d))
        np.add.at(expected, ids.reshape(-1), w.reshape(-1, d))
        assert np.array_equal(t.grad, expected)

    @given(
        batched=st.booleans(),
        b=st.integers(1, 4),
        t=st.integers(1, 8),
        d=st.one_of(st.integers(1, 8), st.sampled_from([16, 32])),
        masked=st.booleans(),
        seed=_SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_block(self, batched, b, t, d, masked, seed):
        # Every gradient bit for bit too: the model's embeddings sum the
        # input's gradient, and any other order differs in the last bits.
        rng = np.random.default_rng(seed)
        lead = (b,) if batched else ()
        shapes = [(*lead, t, d), (d, d), (d, d), (d, d), (d, d), (d, 2 * d), (2 * d,), (2 * d, d), (d,)]
        arrays = [rng.standard_normal(shape) for shape in shapes]
        mask = np.triu(np.full((t, t), -1e9), k=1) if masked else None
        assert_fused_matches(
            lambda *a: block(*a, mask=mask), lambda *a: composite_block(*a, mask=mask), arrays, seed, exact=True
        )


class TestTape:
    def test_diamond_graph_grad(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = add(mul(x, x), x)  # x^2 + x; both paths share x
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * 3.0 + 1.0)

    def test_reused_intermediate_counted_once_per_path(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        h = mul(x, x)
        z = add(h, h)  # 2x^2
        z.backward()
        np.testing.assert_allclose(x.grad, 4 * 2.0)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            add(t, t).backward()

    def test_constants_get_no_grad(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3), requires_grad=True)
        tsum(mul(a, b)).backward()
        assert a.grad is None
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_grads_accumulate_across_backward_calls(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        tsum(mul(x, Tensor(np.array([2.0])))).backward()
        first = x.grad.copy()
        tsum(mul(x, Tensor(np.array([2.0])))).backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_float64_everywhere(self):
        t = Tensor([[1, 2], [3, 4]], requires_grad=True)
        assert t.data.dtype == np.float64
        out = tsum(mul(t, t))
        out.backward()
        assert t.grad.dtype == np.float64

    def test_backward_frees_interior_gradients(self):
        x = Tensor(rand((2, 3), 55), requires_grad=True)
        h = mul(x, x)
        out = tsum(sigmoid(h))
        out.backward()
        assert h.grad is None and out.grad is None
        s = 1.0 / (1.0 + np.exp(-x.data**2))
        np.testing.assert_allclose(x.grad, 2 * x.data * s * (1.0 - s))


class TestNoGrad:
    def test_ops_record_no_graph(self):
        x = Tensor(rand((2, 3), 56), requires_grad=True)
        with no_grad():
            y = tsum(softmax(matmul(x, transpose(x))))
        assert y._parents == ()
        assert y._backward_fn is None
        assert not y.requires_grad

    def test_values_are_bit_identical(self):
        x = Tensor(rand((2, 3, 4), 57), requires_grad=True)
        w = Tensor(rand((4, 4), 58), requires_grad=True)

        def graph():
            return tmean(layer_norm(matmul(x, w), Tensor(np.ones(4)), Tensor(np.zeros(4))))

        with no_grad():
            quiet = graph()
        assert quiet.data.tobytes() == graph().data.tobytes()

    def test_nesting_restores_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not mul(x, x).requires_grad
        assert mul(x, x).requires_grad
