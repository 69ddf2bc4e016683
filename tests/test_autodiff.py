"""Reverse-mode tape: every op's gradient against central differences."""

import numpy as np
import pytest

from textsql.gate.autodiff import (
    Tensor,
    add,
    concat_last,
    exp,
    layer_norm,
    log,
    matmul,
    mul,
    no_grad,
    power,
    relu,
    sigmoid,
    softmax,
    sub,
    take_rows,
    tmean,
    transpose,
    tsum,
)

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

    def test_exp_log(self):
        a = rand((3, 3), 7, scale=0.5, offset=2.0)
        check_grads(lambda x: tsum(exp(x)), a)
        check_grads(lambda x: tsum(log(x)), a)

    def test_sigmoid(self):
        a = rand((3, 3), 8, scale=2.0)
        check_grads(lambda x: tsum(sigmoid(x)), a)

    def test_sigmoid_stable_at_extremes(self):
        out = sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(out.data))

    def test_power(self):
        a = rand((3, 3), 9, scale=0.3, offset=2.0)
        check_grads(lambda x: tsum(power(x, 2.0)), a)
        check_grads(lambda x: tsum(power(x, -0.5)), a)


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
        out = tsum(exp(h))
        out.backward()
        assert h.grad is None and out.grad is None
        np.testing.assert_allclose(x.grad, 2 * x.data * np.exp(x.data**2))


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
