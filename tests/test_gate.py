"""Extraction layer math against loop-based oracles, plus the host model."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textsql.gate import (
    GateConfig,
    GateModel,
    GateParams,
    GradCheckResult,
    ParamsFormatError,
    copy_distribution,
    cross_attention,
    extraction_gate,
    generation_head,
    grad_check,
    load_params,
    merge,
    random_check_instance,
)
from textsql.gate import gradcheck
from textsql.gate import layers
from textsql.gate import model as model_module
from textsql.gate.autodiff import Tensor, no_grad
from textsql.gate.gradcheck import REL_FLOOR
from textsql.gate.model import encode_params, sidecar_path


def gate_arrays(*args, **kwargs) -> dict[str, np.ndarray]:
    """``layers.run_gate``'s tensors as arrays, by name."""
    return {k: t.data for k, t in layers.run_gate(*args, **kwargs).items()}


def rand_params(d, vocab, seed):
    rng = np.random.default_rng(seed)
    return GateParams(
        w_q=rng.standard_normal((d, d)),
        w_kv=rng.standard_normal((d, d)),
        ff_w=rng.standard_normal((d, d)),
        ff_b=rng.standard_normal(d),
        ln_dec_gain=rng.standard_normal(d) * 0.1 + 1.0,
        ln_dec_bias=rng.standard_normal(d) * 0.1,
        ln_ctx_gain=rng.standard_normal(d) * 0.1 + 1.0,
        ln_ctx_bias=rng.standard_normal(d) * 0.1,
        gate_w=rng.standard_normal((2 * d, 1)),
        gate_b=rng.standard_normal(1),
        out_w=rng.standard_normal((d, vocab)),
        out_b=rng.standard_normal(vocab),
    )


# --- loop-based recomputation, no linear-algebra shortcuts -------------------


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _matmul(m, w):
    cols = list(zip(*w))
    return [[_dot(row, c) for c in cols] for row in m]


def _softmax_row(row):
    top = max(row)
    e = [math.exp(x - top) for x in row]
    s = sum(e)
    return [x / s for x in e]


def _ln_row(row, gain, bias, eps=1e-6):
    mu = sum(row) / len(row)
    var = sum((x - mu) ** 2 for x in row) / len(row)
    scale = (var + eps) ** -0.5
    return [(x - mu) * scale * g + b for x, g, b in zip(row, gain, bias)]


def naive_gate(h_enc, h_dec, src_ids, p: GateParams, vocab):
    g = {n: getattr(p, n).data.tolist() for n in (
        "w_q", "w_kv", "ff_w", "ff_b", "ln_dec_gain", "ln_dec_bias",
        "ln_ctx_gain", "ln_ctx_bias", "gate_w", "gate_b", "out_w", "out_b",
    )}
    q = _matmul(h_dec.tolist(), g["w_q"])
    kv = _matmul(h_enc.tolist(), g["w_kv"])
    score = [[_dot(qt, ks) for ks in kv] for qt in q]
    attn = [_softmax_row(r) for r in score]
    read = _matmul(attn, kv)
    context = [
        [max(0.0, x + b) for x, b in zip(row, g["ff_b"])] for row in _matmul(read, g["ff_w"])
    ]
    p_ext = []
    for dec_row, ctx_row in zip(h_dec.tolist(), context):
        joined = _ln_row(dec_row, g["ln_dec_gain"], g["ln_dec_bias"]) + _ln_row(
            ctx_row, g["ln_ctx_gain"], g["ln_ctx_bias"]
        )
        z = _dot(joined, [w[0] for w in g["gate_w"]]) + g["gate_b"][0]
        p_ext.append(1.0 / (1.0 + math.exp(-z)))
    o_gen = [
        _softmax_row([x + b for x, b in zip(row, g["out_b"])])
        for row in _matmul(h_dec.tolist(), g["out_w"])
    ]
    o_ext = [[0.0] * vocab for _ in attn]
    for t, row in enumerate(attn):
        for s, w in enumerate(row):
            o_ext[t][int(src_ids[s])] += w
    o_final = [
        [(1 - pt) * gv + pt * ev for gv, ev in zip(gen_row, ext_row)]
        for pt, gen_row, ext_row in zip(p_ext, o_gen, o_ext)
    ]
    return score, attn, context, p_ext, o_gen, o_ext, o_final


class TestLayerOracle:
    def test_full_pass_matches_loop_recomputation(self):
        d, vocab = 4, 9
        rng = np.random.default_rng(42)
        h_enc = rng.standard_normal((3, d))
        h_dec = rng.standard_normal((2, d))
        src_ids = rng.integers(0, vocab, size=3)
        params = rand_params(d, vocab, 1)
        snap = gate_arrays(h_enc, h_dec, src_ids, params)
        score, attn, context, p_ext, o_gen, o_ext, o_final = naive_gate(
            h_enc, h_dec, src_ids, params, vocab
        )
        np.testing.assert_allclose(snap["score"], score, atol=1e-10)
        np.testing.assert_allclose(snap["attn"], attn, atol=1e-12)
        np.testing.assert_allclose(snap["context"], context, atol=1e-10)
        np.testing.assert_allclose(snap["p_ext"][:, 0], p_ext, atol=1e-12)
        np.testing.assert_allclose(snap["o_gen"], o_gen, atol=1e-12)
        np.testing.assert_allclose(snap["o_ext"], o_ext, atol=1e-12)
        np.testing.assert_allclose(snap["o_final"], o_final, atol=1e-12)

    def test_batched_pass_stacks_per_example_passes(self):
        d, vocab, B = 4, 9, 3
        rng = np.random.default_rng(43)
        h_enc = rng.standard_normal((B, 3, d))
        h_dec = rng.standard_normal((B, 2, d))
        src_ids = rng.integers(0, vocab, size=(B, 3))
        params = rand_params(d, vocab, 1)
        batched = gate_arrays(h_enc, h_dec, src_ids, params)
        for i in range(B):
            one = gate_arrays(h_enc[i], h_dec[i], src_ids[i], params)
            for name in ("score", "attn", "context", "p_ext", "o_gen", "o_ext", "o_final"):
                np.testing.assert_allclose(batched[name][i], one[name], rtol=1e-13, atol=1e-15)

    def test_scores_are_unscaled_dot_products(self):
        # No 1/sqrt(d) factor on the extraction read.
        d = 6
        params = rand_params(d, 5, 2)
        h_enc = np.eye(d)[:2]
        h_dec = np.eye(d)[:1]
        score, _, _ = cross_attention(h_enc, h_dec, params)
        q = h_dec @ params.w_q.data
        k = h_enc @ params.w_kv.data
        np.testing.assert_allclose(score.data, q @ k.T, atol=1e-12)


class TestDistributionInvariants:
    def _snapshot(self, seed, gated=True):
        rng = np.random.default_rng(seed)
        d, vocab, S, T = 8, 12, 5, 4
        params = rand_params(d, vocab, seed)
        h_enc = rng.standard_normal((S, d)) * 2
        h_dec = rng.standard_normal((T, d)) * 2
        src_ids = rng.integers(0, vocab, size=S)
        snap = gate_arrays(h_enc, h_dec, src_ids, params, gated=gated)
        return snap

    def test_attention_rows_sum_to_one(self):
        for seed in range(10):
            snap = self._snapshot(seed)
            np.testing.assert_allclose(snap["attn"].sum(axis=-1), 1.0, atol=1e-6)

    def test_all_output_rows_are_distributions(self):
        for seed in range(10):
            snap = self._snapshot(seed)
            for dist in (snap["o_gen"], snap["o_ext"], snap["o_final"]):
                assert np.all(dist >= 0)
                np.testing.assert_allclose(dist.sum(axis=-1), 1.0, atol=1e-6)

    def test_gate_strictly_interior(self):
        for seed in range(10):
            snap = self._snapshot(seed)
            assert np.all(snap["p_ext"] > 0.0)
            assert np.all(snap["p_ext"] < 1.0)

    def test_ablation_reduces_to_generation_head(self):
        snap = self._snapshot(3, gated=False)
        np.testing.assert_array_equal(snap["o_final"], snap["o_gen"])
        np.testing.assert_array_equal(snap["p_ext"], np.zeros_like(snap["p_ext"]))


class TestMergeLimits:
    def test_exact_at_gate_zero_and_one(self):
        rng = np.random.default_rng(0)
        o_gen = rng.dirichlet(np.ones(6), size=3)
        o_ext = rng.dirichlet(np.ones(6), size=3)
        zero = merge(o_gen, o_ext, np.zeros((3, 1)))
        one = merge(o_gen, o_ext, np.ones((3, 1)))
        assert np.array_equal(zero.data, o_gen)
        assert np.array_equal(one.data, o_ext)

    def test_interior_gate_is_convex_blend(self):
        o_gen = np.array([[1.0, 0.0]])
        o_ext = np.array([[0.0, 1.0]])
        out = merge(o_gen, o_ext, np.array([[0.25]]))
        np.testing.assert_allclose(out.data, [[0.75, 0.25]])


class TestShapeValidation:
    def test_params_must_be_square(self):
        good = rand_params(4, 6, 0)
        with pytest.raises(ValueError, match="square"):
            GateParams(
                w_q=np.zeros((4, 3)),
                w_kv=good.w_kv,
                ff_w=good.ff_w,
                ff_b=good.ff_b,
                ln_dec_gain=good.ln_dec_gain,
                ln_dec_bias=good.ln_dec_bias,
                ln_ctx_gain=good.ln_ctx_gain,
                ln_ctx_bias=good.ln_ctx_bias,
                gate_w=good.gate_w,
                gate_b=good.gate_b,
                out_w=good.out_w,
                out_b=good.out_b,
            )

    def test_states_must_match_width(self):
        params = rand_params(4, 6, 0)
        with pytest.raises(ValueError, match="shape"):
            cross_attention(np.zeros((3, 5)), np.zeros((2, 4)), params)

    def test_gate_requires_aligned_positions(self):
        params = rand_params(4, 6, 0)
        with pytest.raises(ValueError, match="align"):
            extraction_gate(np.zeros((2, 4)), np.zeros((3, 4)), params)

    def test_copy_rejects_out_of_range_ids(self):
        attn = np.full((1, 2), 0.5)
        with pytest.raises(ValueError, match="range"):
            copy_distribution(attn, np.array([0, 7]), vocab_size=5)

    def test_copy_rejects_mismatched_ids(self):
        attn = np.full((1, 2), 0.5)
        with pytest.raises(ValueError, match="shape"):
            copy_distribution(attn, np.array([0, 1, 2]), vocab_size=5)

    def test_merge_rejects_bad_gate_shape(self):
        o = np.full((2, 3), 1 / 3)
        with pytest.raises(ValueError, match="p_ext"):
            merge(o, o, np.zeros((2,)))


class TestBatchedShapeValidation:
    def test_states_must_match_width(self):
        params = rand_params(4, 6, 0)
        with pytest.raises(ValueError, match="shape"):
            cross_attention(np.zeros((2, 3, 5)), np.zeros((2, 2, 4)), params)

    def test_states_must_share_a_batch(self):
        params = rand_params(4, 6, 0)
        with pytest.raises(ValueError, match="batch"):
            cross_attention(np.zeros((2, 3, 4)), np.zeros((3, 2, 4)), params)
        with pytest.raises(ValueError, match="batch"):
            cross_attention(np.zeros((3, 4)), np.zeros((2, 2, 4)), params)

    def test_states_rank_bounded(self):
        params = rand_params(4, 6, 0)
        with pytest.raises(ValueError, match="shape"):
            cross_attention(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3, 4)), params)

    def test_gate_requires_aligned_positions(self):
        params = rand_params(4, 6, 0)
        with pytest.raises(ValueError, match="align"):
            extraction_gate(np.zeros((2, 2, 4)), np.zeros((2, 3, 4)), params)
        with pytest.raises(ValueError, match="align"):
            extraction_gate(np.zeros((2, 2, 4)), np.zeros((3, 2, 4)), params)

    def test_copy_rejects_out_of_range_ids(self):
        attn = np.full((2, 1, 2), 0.5)
        with pytest.raises(ValueError, match="range"):
            copy_distribution(attn, np.array([[0, 1], [0, 7]]), vocab_size=5)

    def test_copy_rejects_mismatched_ids(self):
        attn = np.full((2, 1, 2), 0.5)
        for ids in (np.zeros((2, 3), dtype=int), np.zeros((3, 2), dtype=int), np.zeros(2, dtype=int)):
            with pytest.raises(ValueError, match="shape"):
                copy_distribution(attn, ids, vocab_size=5)

    def test_merge_rejects_bad_gate_shape(self):
        o = np.full((2, 2, 3), 1 / 3)
        with pytest.raises(ValueError, match="p_ext"):
            merge(o, o, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="p_ext"):
            merge(o, o, np.zeros((2, 1)))

    def test_model_rejects_misaligned_batches(self):
        model = GateModel(TestGateModel.CFG)
        with pytest.raises(ValueError, match="batch"):
            model.forward(np.ones((2, 3), dtype=int), np.ones((3, 2), dtype=int))
        with pytest.raises(ValueError, match="batch"):
            model.forward(np.ones((2, 3), dtype=int), np.ones(2, dtype=int))

    def test_model_id_bounds_enforced(self):
        model = GateModel(TestGateModel.CFG)
        with pytest.raises(ValueError, match="range"):
            model.forward(np.array([[1, 2], [1, 99]]), np.array([[1], [1]]))
        with pytest.raises(ValueError, match="longer"):
            model.forward(np.ones((2, 7), dtype=int), np.ones((2, 1), dtype=int))
        with pytest.raises(ValueError, match="non-empty"):
            model.decode_greedy(np.ones((2, 2, 2), dtype=int), n_steps=2)
        with pytest.raises(ValueError, match="non-empty"):
            model.forward(np.zeros((0, 3), dtype=int), np.zeros((0, 2), dtype=int))


def _batch_instance(seed: int, batch: int):
    cfg = GateConfig(vocab_size=20, d_model=8, max_src_len=5, max_tgt_len=4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    src = rng.integers(0, cfg.vocab_size, size=(batch, cfg.max_src_len))
    tgt = rng.integers(0, cfg.vocab_size, size=(batch, cfg.max_tgt_len))
    return cfg, src, tgt


class TestBatchedModel:
    @given(seed=st.integers(0, 10**6), batch=st.integers(1, 16), gated=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_loss_and_grads_are_per_example_means(self, seed, batch, gated):
        cfg, src, tgt = _batch_instance(seed, batch)
        model = GateModel(cfg, gated=gated)
        loss, grads = model.loss_and_grads(src, tgt)
        singles = [model.loss_and_grads(s, t) for s, t in zip(src, tgt)]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12, abs=1e-12)
        for name, g in grads.items():
            expected = np.mean([one[name] for _, one in singles], axis=0)
            np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_training_step_records_few_nodes(self):
        """The fused ops keep the tape short: a batched training step
        records 32 nodes (59 when each transformer block was built from
        elementary ops, 90 when layer norm, each affine map and the loss
        head were too)."""
        cfg, src, tgt = _batch_instance(0, 16)
        model = GateModel(cfg)
        passes = []
        forward = model.forward
        model.forward = lambda *ids: passes.append(forward(*ids)) or passes[-1]
        model.loss_and_grads(src, tgt)
        (fp,) = passes
        seen, stack = {}, [fp.loss_tensor]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        recorded = sum(1 for node in seen.values() if node._parents)
        assert recorded <= 32

    def test_batched_forward_stacks_single_passes(self):
        cfg, src, tgt = _batch_instance(5, 4)
        model = GateModel(cfg)
        fp = model.forward(src, tgt)
        assert fp.per_position_loss.shape == (4, cfg.max_tgt_len)
        assert fp.activations["o_final"].shape == (4, cfg.max_tgt_len, cfg.vocab_size)
        for i in range(4):
            one = model.forward(src[i], tgt[i])
            assert one.per_position_loss.shape == (cfg.max_tgt_len,)
            np.testing.assert_allclose(fp.per_position_loss[i], one.per_position_loss, rtol=1e-13)
            np.testing.assert_allclose(fp.activations["p_ext"][i], one.activations["p_ext"], rtol=1e-13)

    def test_no_grad_forward_records_nothing_and_matches(self):
        cfg, src, tgt = _batch_instance(6, 3)
        model = GateModel(cfg)
        taped = model.forward(src, tgt)
        with no_grad():
            quiet = model.forward(src, tgt)
        assert quiet.loss_tensor._parents == ()
        assert quiet.loss_tensor._backward_fn is None
        assert taped.loss_tensor._parents != ()
        assert quiet.loss == taped.loss
        assert quiet.per_position_loss.tobytes() == taped.per_position_loss.tobytes()

    @pytest.mark.parametrize("gated", [True, False])
    def test_batched_decode_matches_single_and_teacher_forced(self, gated):
        cfg, src, _ = _batch_instance(7, 6)
        model = GateModel(cfg, gated=gated)
        batched = model.decode_greedy(src, n_steps=cfg.max_tgt_len)
        assert batched == [model.decode_greedy(s, n_steps=cfg.max_tgt_len) for s in src]
        # Reference: argmax of a full teacher-forced pass over each prefix.
        for s, tokens in zip(src, batched):
            prefix: list[int] = []
            for _ in range(cfg.max_tgt_len):
                o_final = model.forward(s, np.array(prefix + [0])).activations["o_final"]
                prefix.append(int(np.argmax(o_final[-1])))
            assert tokens == prefix


def recompute_decode(model, src, n_steps):
    """Oracle: greedy decoding that reruns the causal decoder over the whole
    prefix at every step. Returns the tokens, one list per row, and each
    step's distribution at the last position, (B, v)."""
    out = np.full((src.shape[0], 1), model.cfg.start_id, dtype=np.int64)
    params = model.gate_params()
    dists = []
    with no_grad():
        h_enc = model._encode(src)
        for _ in range(n_steps):
            last = Tensor(model._decode_states(out).data[:, -1:])
            dist = layers.run_gate(h_enc, last, src, params, gated=model.gated)["o_final"].data[:, -1]
            dists.append(dist)
            out = np.concatenate([out, np.argmax(dist, axis=-1)[:, None]], axis=1)
    return out[:, 1:].tolist(), dists


class TestCachedDecoding:
    @given(
        seed=st.integers(0, 10**6),
        vocab=st.integers(2, 24),
        d_model=st.integers(1, 16),
        src_len=st.integers(1, 7),
        tgt_len=st.integers(1, 8),
        batch=st.integers(1, 12),
        gated=st.booleans(),
        trained=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_full_recompute(self, seed, vocab, d_model, src_len, tgt_len, batch, gated, trained):
        cfg = GateConfig(vocab_size=vocab, d_model=d_model, max_src_len=src_len, max_tgt_len=tgt_len, seed=seed)
        model = GateModel(cfg, gated=gated)
        rng = np.random.default_rng(seed + 1)
        src = rng.integers(0, vocab, size=(batch, src_len))
        if trained:
            tgt = rng.integers(0, vocab, size=(batch, tgt_len))
            for _ in range(3):
                model.sgd_step(model.loss_and_grads(src, tgt)[1], lr=0.5)
        expected_tokens, expected = recompute_decode(model, src, tgt_len)
        seen = []
        original = model_module.run_gate

        def recorded(*args, **kwargs):
            tensors = original(*args, **kwargs)
            seen.append(tensors["o_final"].data[:, -1])
            return tensors

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_module, "run_gate", recorded)
            tokens = model.decode_greedy(src, tgt_len)
        assert tokens == expected_tokens
        assert len(seen) == tgt_len
        for got, want in zip(seen, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestGateModel:
    CFG = GateConfig(vocab_size=11, d_model=8, max_src_len=6, max_tgt_len=5, seed=0)

    def test_construction_is_seed_deterministic(self):
        a = GateModel(self.CFG)
        b = GateModel(self.CFG)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
        c = GateModel(GateConfig(vocab_size=11, d_model=8, max_src_len=6, max_tgt_len=5, seed=1))
        assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)

    def test_forward_loss_matches_activations(self):
        model = GateModel(self.CFG)
        src = np.array([1, 2, 3, 4])
        tgt = np.array([5, 6, 7])
        fp = model.forward(src, tgt)
        expected = [-math.log(fp.activations["o_final"][t, tgt[t]] + 1e-12) for t in range(3)]
        np.testing.assert_allclose(fp.per_position_loss, expected, atol=1e-12)
        assert fp.loss == pytest.approx(sum(expected) / 3)
        assert fp.loss > 0

    def test_id_bounds_enforced(self):
        model = GateModel(self.CFG)
        with pytest.raises(ValueError):
            model.forward(np.array([1, 99]), np.array([1]))
        with pytest.raises(ValueError):
            model.forward(np.array([1] * 7), np.array([1]))

    def test_sgd_reduces_loss_on_fixed_example(self):
        model = GateModel(self.CFG)
        src = np.array([1, 2, 3])
        tgt = np.array([4, 5])
        first, grads = model.loss_and_grads(src, tgt)
        for _ in range(20):
            _, grads = model.loss_and_grads(src, tgt)
            model.sgd_step(grads, lr=0.3)
        assert model.forward(src, tgt).loss < first * 0.5

    def test_greedy_decode_shapes(self):
        model = GateModel(self.CFG)
        out = model.decode_greedy(np.array([1, 2]), n_steps=4)
        assert len(out) == 4
        assert all(isinstance(t, int) and 0 <= t < 11 for t in out)
        with pytest.raises(ValueError):
            model.decode_greedy(np.array([1]), n_steps=6)

    def test_ids_must_be_integers(self):
        model = GateModel(self.CFG)
        tgt = np.array([3, 4, 5])
        # Each ran before: 1.5 was read as id 1, booleans as ids 0 and 1, and
        # n_steps=True as one step.
        for src, tgt_ids in (([1.5, 2, 3, 4, 5], tgt), ([True, False, True], tgt), ([1, 2], [3.0, 4.0])):
            with pytest.raises(ValueError, match="integer ids"):
                model.forward(src, tgt_ids)
        with pytest.raises(ValueError, match="integer ids"):
            model.decode_greedy(np.array([1.0, 2.0]), 2)
        with pytest.raises(ValueError, match="integer ids"):
            grad_check(model, np.array([[True, False]]), np.array([[1, 2]]))
        for n_steps in (True, 2.0):
            with pytest.raises(ValueError, match="n_steps must be an integer from 1 to the target length 5"):
                model.decode_greedy(np.array([1, 2]), n_steps)
        assert len(model.decode_greedy(np.array([1, 2], dtype=np.uint8), np.int64(2))) == 2

    def test_gate_param_names_prefixed_and_sorted(self):
        model = GateModel(self.CFG)
        names = model.gate_param_names()
        assert names == sorted(names)
        assert all(n.startswith("gate.") for n in names)
        assert len(names) == 12

    def test_ungated_model_ignores_copying(self):
        model = GateModel(self.CFG, gated=False)
        fp = model.forward(np.array([1, 2]), np.array([3]))
        np.testing.assert_array_equal(fp.activations["o_final"], fp.activations["o_gen"])


class TestGradCheck:
    def test_analytic_matches_numeric(self):
        for seed in (0, 1):
            model, src, tgt = random_check_instance(seed)
            result = grad_check(model, src, tgt)
            assert result.max_rel_error <= 1e-4, (seed, result.worst_param)
            assert result.worst_param in result.per_param

    def test_param_subset(self):
        model, src, tgt = random_check_instance(2)
        result = grad_check(model, src, tgt, param_names=["gate.gate_w", "gate.gate_b"])
        assert set(result.per_param) == {"gate.gate_w", "gate.gate_b"}

    def test_unknown_param_rejected(self):
        model, src, tgt = random_check_instance(0)
        with pytest.raises(ValueError, match="unknown"):
            grad_check(model, src, tgt, param_names=["nope"])

    @pytest.mark.parametrize("name", ["emb", "pos_src", "enc.wq", "dec.ff_b2"])
    def test_non_gate_param_rejected(self, name):
        model, src, tgt = random_check_instance(0)
        with pytest.raises(ValueError, match="only gate"):
            grad_check(model, src, tgt, param_names=["gate.gate_b", name])

    def test_epsilon_must_be_positive(self):
        model, src, tgt = random_check_instance(0)
        with pytest.raises(ValueError):
            grad_check(model, src, tgt, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_epsilon_must_be_finite(self, epsilon):
        model, src, tgt = random_check_instance(0)
        with pytest.raises(ValueError, match="finite"):
            grad_check(model, src, tgt, epsilon=epsilon)

    def test_empty_param_names_rejected(self):
        model, src, tgt = random_check_instance(0)
        with pytest.raises(ValueError, match="param_names must name at least one"):
            grad_check(model, src, tgt, param_names=[])

    def test_leaves_no_grad_and_the_parameters_unchanged(self):
        model, src, tgt = random_check_instance(6)
        before = {n: t.data.tobytes() for n, t in model.params.items()}
        grad_check(model, src, tgt)
        assert all(t.grad is None for t in model.params.values())
        assert {n: t.data.tobytes() for n, t in model.params.items()} == before

    def test_stale_gate_grads_do_not_change_the_result(self):
        model, src, tgt = random_check_instance(6)
        expected = grad_check(model, src, tgt)
        for name in model.gate_param_names():
            model.params[name].grad = np.full_like(model.params[name].data, 7.0)
        result = grad_check(model, src, tgt)
        assert [v.hex() for v in result.per_param.values()] == [v.hex() for v in expected.per_param.values()]
        assert all(t.grad is None for t in model.params.values())

    def test_non_finite_errors_fail_the_check(self):
        model, src, tgt = random_check_instance(0)
        model.params["gate.out_b"].data[0] = math.nan
        result = grad_check(model, src, tgt, param_names=["gate.out_b", "gate.w_q"])
        assert result.per_param == {"gate.out_b": math.inf, "gate.w_q": math.inf}
        assert result.max_rel_error == math.inf


def full_forward_grad_check(model, src_ids, tgt_ids, epsilon, param_names) -> GradCheckResult:
    """Oracle: two full forward passes per perturbed coordinate."""
    _, grads = model.loss_and_grads(src_ids, tgt_ids)
    per_param = {}
    for name in param_names:
        flat = model.params[name].data.reshape(-1)
        analytic = grads[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            kept = flat[i]
            with no_grad():
                flat[i] = kept + epsilon
                up = model.forward(src_ids, tgt_ids).loss
                flat[i] = kept - epsilon
                down = model.forward(src_ids, tgt_ids).loss
            flat[i] = kept
            numeric = (up - down) / (2.0 * epsilon)
            rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), REL_FLOOR)
            worst = max(worst, rel)
        per_param[name] = worst
    return GradCheckResult(
        max_rel_error=max(per_param.values()),
        worst_param=max(per_param, key=per_param.get),
        per_param=per_param,
    )


_CHECK_NAMES = ["gate.gate_b", "gate.gate_w", "gate.ln_ctx_gain", "gate.out_b", "gate.w_q"]
_GATE_NAMES = random_check_instance(0)[0].gate_param_names()


class TestFullModelGradients:
    """The parameters before the gate, which ``grad_check`` does not take,
    against the full-forward oracle."""

    @pytest.mark.parametrize("gated", [True, False])
    def test_analytic_matches_numeric(self, gated):
        checked, src, tgt = random_check_instance(5)
        model = GateModel(checked.cfg, gated=gated)
        names = ["emb", "pos_src", "pos_tgt", "enc.wv", "dec.ff_w1"]
        result = full_forward_grad_check(model, src, tgt, 1e-5, names)
        assert set(result.per_param) == set(names)
        assert result.max_rel_error <= 1e-4, result.worst_param


class TestGradCheckReusesStates:
    @given(
        seed=st.integers(0, 10**6),
        d_model=st.integers(1, 4),
        src_len=st.integers(1, 4),
        tgt_len=st.integers(1, 3),
        batch=st.sampled_from([None, 1, 2]),
        gated=st.booleans(),
        names=st.lists(st.sampled_from(_CHECK_NAMES), min_size=1, max_size=4, unique=True),
        steps=st.integers(0, 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_full_forward_oracle_bit_for_bit(
        self, seed, d_model, src_len, tgt_len, batch, gated, names, steps
    ):
        cfg = GateConfig(vocab_size=6, d_model=d_model, max_src_len=src_len, max_tgt_len=tgt_len, seed=seed)
        model = GateModel(cfg, gated=gated)
        rng = np.random.default_rng(seed + 1)
        lead = () if batch is None else (batch,)
        src = rng.integers(0, cfg.vocab_size, size=lead + (src_len,))
        tgt = rng.integers(0, cfg.vocab_size, size=lead + (tgt_len,))
        # A training step between checks: states must follow the changed model.
        for _ in range(steps + 1):
            before = {n: t.data.copy() for n, t in model.params.items()}
            expected = full_forward_grad_check(model, src, tgt, 1e-5, names)
            assert grad_check(model, src, tgt, param_names=names) == expected
            assert all(before[n].tobytes() == t.data.tobytes() for n, t in model.params.items())
            _, grads = model.loss_and_grads(src, tgt)
            model.sgd_step(grads, lr=0.5)

    def test_gate_params_are_validated_once(self, monkeypatch):
        # Each chunk's copies go into the parameters without a second walk
        # over their shapes.
        model, src, tgt = random_check_instance(3)
        calls = []
        original = GateParams.__post_init__
        monkeypatch.setattr(GateParams, "__post_init__", lambda params: calls.append(1) or original(params))
        monkeypatch.setattr(gradcheck, "_COORD_CHUNK", 5)
        grad_check(model, src, tgt)
        assert len(calls) == 1

    @staticmethod
    def _count_state_calls(model, monkeypatch) -> dict[str, int]:
        counts = {"_encode": 0, "_decode_states": 0}
        for attr in counts:
            original = getattr(model, attr)

            def counted(*args, _attr=attr, _original=original):
                counts[_attr] += 1
                return _original(*args)

            monkeypatch.setattr(model, attr, counted)
        return counts

    @pytest.mark.parametrize("names", [["gate.gate_b"], None])
    def test_gate_params_compute_states_a_fixed_number_of_times(self, names, monkeypatch):
        model, src, tgt = random_check_instance(3)
        counts = self._count_state_calls(model, monkeypatch)
        grad_check(model, src, tgt, param_names=names)
        # The states are computed once; the analytic gradients and every
        # perturbed loss run on them.
        assert counts == {"_encode": 1, "_decode_states": 1}


class TestGradCheckBatchesCopies:
    @pytest.mark.parametrize("batch", [None, 2])
    def test_results_do_not_depend_on_the_chunk(self, batch, monkeypatch):
        model, src, tgt = random_check_instance(4)
        if batch is not None:
            src, tgt = np.stack([src, src[::-1]]), np.stack([tgt, tgt[::-1]])
        names = model.gate_param_names()
        results = []
        for chunk in (1, 3, 10**6):
            monkeypatch.setattr(gradcheck, "_COORD_CHUNK", chunk)
            results.append(grad_check(model, src, tgt, param_names=names))
        assert results[0] == results[1] == results[2]
        bits = [[v.hex() for v in r.per_param.values()] for r in results]
        assert bits[0] == bits[1] == bits[2]

    @given(
        seed=st.integers(0, 10**6),
        d_model=st.integers(1, 4),
        batch=st.sampled_from([None, 2]),
        gated=st.booleans(),
        names=st.lists(st.sampled_from(_GATE_NAMES), min_size=1, max_size=8),
        chunk=st.sampled_from([1, 3, 7, 64, 10**6]),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunks_spanning_parameters_match_the_oracle_bit_for_bit(self, seed, d_model, batch, gated, names, chunk):
        # Names in any order, some repeated, with chunks that straddle the
        # boundaries between parameters.
        cfg = GateConfig(vocab_size=6, d_model=d_model, max_src_len=3, max_tgt_len=2, seed=seed)
        model = GateModel(cfg, gated=gated)
        rng = np.random.default_rng(seed + 1)
        lead = () if batch is None else (batch,)
        src = rng.integers(0, cfg.vocab_size, size=lead + (3,))
        tgt = rng.integers(0, cfg.vocab_size, size=lead + (2,))
        unique = list(dict.fromkeys(names))
        expected = full_forward_grad_check(model, src, tgt, 1e-5, unique)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gradcheck, "_COORD_CHUNK", chunk)
            result = grad_check(model, src, tgt, param_names=names)
        assert list(result.per_param) == unique
        assert {n: v.hex() for n, v in result.per_param.items()} == {
            n: v.hex() for n, v in expected.per_param.items()
        }

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_one_gate_pass_per_chunk_across_parameters(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(gradcheck, "_COORD_CHUNK", chunk)
        model, src, tgt = random_check_instance(3)
        calls = []
        original = model_module.run_gate

        def counted(*args, **kwargs):
            calls.append((args[0].shape[0], args[3].copies))
            return original(*args, **kwargs)

        monkeypatch.setattr(model_module, "run_gate", counted)
        grad_check(model, src, tgt)
        size = gradcheck._COORD_CHUNK
        coords = sum(model.params[n].data.size for n in model.gate_param_names())
        # One pass for the analytic gradients, then one per chunk of the
        # coordinates of all parameters laid end to end, whose copy axis
        # holds two copies per coordinate: 1 + 7 at the default shape (429
        # coordinates), 1 + 86 in chunks of 5.
        assert len(calls) == {None: 8, 5: 87}[chunk] == 1 + -(-coords // size)
        assert calls[0] == (1, None)
        # The states keep the example batch; only the parameters are copied.
        assert {batch for batch, _ in calls} == {1}
        assert max(copies for _, copies in calls[1:]) == 2 * min(size, coords)

    def test_copies_run_like_separate_passes(self):
        d, vocab, copies, batch = 4, 9, 3, 2
        rng = np.random.default_rng(44)
        h_enc = rng.standard_normal((batch, 3, d))
        h_dec = rng.standard_normal((batch, 2, d))
        src_ids = rng.integers(0, vocab, size=(batch, 3))
        base = rand_params(d, vocab, 1)
        out_w = rng.standard_normal((copies, 1, d, vocab))
        ln_ctx_gain = rng.standard_normal((copies, 1, 1, d))
        stacked = replace(base, out_w=out_w, ln_ctx_gain=ln_ctx_gain)
        assert stacked.copies == copies and base.copies is None
        batched = gate_arrays(h_enc, h_dec, src_ids, stacked)
        for i in range(copies):
            one = replace(base, out_w=out_w[i, 0], ln_ctx_gain=ln_ctx_gain[i, 0, 0])
            for j in range(batch):
                single = gate_arrays(h_enc[j], h_dec[j], src_ids[j], one)
                for name, a in single.items():
                    # A value that no copied field reaches has no copy axis.
                    got = batched[name][i, j] if batched[name].ndim == a.ndim + 2 else batched[name][j]
                    assert got.tobytes() == a.tobytes(), name


class TestCopyAxisValidation:
    D, V, C = 4, 6, 3

    def _params(self, **fields):
        return replace(rand_params(self.D, self.V, 0), **fields)

    def test_copy_axis_must_match_the_states_batch(self):
        # The copies run against a batch of any size, and every input of a
        # layer must come from that one batch.
        params = self._params(out_w=np.zeros((self.C, 1, self.D, self.V)))
        for batch in (1, 2, self.C + 1):
            assert generation_head(np.zeros((batch, 2, self.D)), params).shape == (self.C, batch, 2, self.V)
        with pytest.raises(ValueError, match="share a batch shape"):
            cross_attention(np.zeros((2, 3, self.D)), np.zeros((self.C, 2, self.D)), params)
        for context in (np.zeros((self.C, 2, self.D)), np.zeros((self.C, self.C, 2, self.D))):
            with pytest.raises(ValueError, match="align"):
                extraction_gate(np.zeros((2, 2, self.D)), context, params)

    def test_fields_must_agree_on_the_copy_axis(self):
        with pytest.raises(ValueError, match="copy axes disagree"):
            self._params(w_q=np.zeros((2, 1, self.D, self.D)), out_b=np.zeros((3, 1, 1, self.V)))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"w_kv": np.zeros((3, 1, 4, 5))}, "square"),
            ({"ff_b": np.zeros((3, 1, 1, 5))}, "width 4"),
            ({"ln_dec_gain": np.zeros(5)}, "width 4"),
            ({"ff_b": np.zeros((3, 2, 4))}, "copy axis"),
            ({"ln_ctx_bias": np.zeros((1, 4))}, "copy axis"),
            ({"w_q": np.zeros((2, 3, 4, 4))}, "copy axis"),
            ({"gate_w": np.zeros((3, 1, 8, 2))}, "gate projection"),
            ({"gate_b": np.zeros((3, 1, 1, 2))}, "gate projection"),
            ({"out_w": np.zeros((3, 1, 4, 6)), "out_b": np.zeros((3, 1, 1, 7))}, "output head"),
            ({"out_w": np.zeros((3, 1, 5, 6))}, "output head"),
        ],
    )
    def test_trailing_shapes_are_checked(self, fields, message):
        with pytest.raises(ValueError, match=message):
            self._params(**fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"out_w": np.zeros((3, 2, 4, 6))}, "copy axis"),
            ({"ff_b": np.zeros((3, 1, 2, 4))}, "copy axis"),
            ({"ff_b": np.zeros((3, 1, 1, 5))}, "width 4"),
            ({"w_q": np.zeros((3, 1, 4, 4)), "out_b": np.zeros((2, 1, 1, 6))}, "copy axes disagree"),
        ],
    )
    def test_broadcast_copy_axis_shapes_are_checked(self, fields, message):
        with pytest.raises(ValueError, match=message):
            self._params(**fields)

    @pytest.mark.parametrize(
        "field, shape, message",
        [
            ("out_w", (3, 4, 6), "out_w must be 2-D or carry a copy axis as (C, 1, r, c), got (3, 4, 6)"),
            ("ff_b", (3, 1, 4), "ff_b must be 1-D or carry a copy axis as (C, 1, 1, n), got (3, 1, 4)"),
        ],
    )
    def test_one_row_per_copy_is_refused(self, field, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self._params(**{field: np.zeros(shape)})

    def test_broadcast_copy_axis_needs_batched_states(self):
        params = self._params(out_w=np.zeros((self.C, 1, self.D, self.V)))
        assert params.copies == self.C
        with pytest.raises(ValueError, match="batch axis of any size"):
            generation_head(np.zeros((2, self.D)), params)
        # A context whose copy axis is not the parameters' does not align.
        with pytest.raises(ValueError, match="align"):
            extraction_gate(np.zeros((2, 2, self.D)), np.zeros((self.C + 1, 2, 2, self.D)), params)


_PARAM_FIELDS = [f.name for f in fields(GateParams) if f.init]


class TestBroadcastCopyAxis:
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        vocab=st.integers(2, 6),
        src_len=st.integers(1, 4),
        tgt_len=st.integers(1, 3),
        copies=st.integers(1, 5),
        batch=st.integers(1, 3),
        copied=st.sets(st.sampled_from(_PARAM_FIELDS), min_size=1),
        gated=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_an_explicit_repetition(self, seed, d, vocab, src_len, tgt_len, copies, batch, copied, gated):
        # Copies of any subset of the fields, as (C, 1, ...), broadcast
        # against a batch of examples. Each copy's outputs, per-position
        # losses and loss are, byte for byte, those of the pass repeated for
        # it alone: the same states and ids, that copy's fields, no copy axis.
        rng = np.random.default_rng(seed)
        base = rand_params(d, vocab, seed)
        values = {}
        for name in copied:
            shape = getattr(base, name).shape
            values[name] = rng.standard_normal((copies, 1, *shape) if len(shape) == 2 else (copies, 1, 1, *shape))
        h_enc = rng.standard_normal((batch, src_len, d))
        h_dec = rng.standard_normal((batch, tgt_len, d))
        src = rng.integers(0, vocab, size=(batch, src_len))
        tgt = rng.integers(0, vocab, size=(batch, tgt_len))
        params = replace(base, **values)
        assert params.copies == copies
        cfg = GateConfig(vocab_size=vocab, d_model=d, max_src_len=src_len, max_tgt_len=tgt_len)
        model = GateModel(cfg, gated=gated)

        def arrays(head):
            tensors, losses, loss = head
            return {name: t.data for name, t in tensors.items()} | {"losses": losses.data, "loss": loss.data}

        got = arrays(model._head(params, h_enc, h_dec, src, tgt))
        for c in range(copies):
            one = replace(base, **{name: v[c].reshape(getattr(base, name).shape) for name, v in values.items()})
            for name, want in arrays(model._head(one, h_enc, h_dec, src, tgt)).items():
                # A value that no copied field reaches has no copy axis.
                mine = got[name][c] if got[name].ndim == want.ndim + 1 else got[name]
                assert mine.tobytes() == want.tobytes(), name


def write_params(model, blob):
    """``encode_params``' blob and sidecar, written where ``load_params``
    reads them; returns the sidecar's path."""
    data, text = encode_params(model)
    blob.write_bytes(data)
    sidecar = sidecar_path(blob)
    sidecar.write_text(text, encoding="utf-8")
    return sidecar


class TestPersistence:
    CFG = GateConfig(vocab_size=9, d_model=6, max_src_len=5, max_tgt_len=4, seed=3)

    def test_round_trip(self, tmp_path):
        model = GateModel(self.CFG)
        src = np.array([1, 2, 3])
        _, grads = model.loss_and_grads(src, np.array([4, 5]))
        model.sgd_step(grads, lr=0.1)
        blob = tmp_path / "model.bin"
        write_params(model, blob)
        loaded = load_params(blob)
        assert loaded.cfg == model.cfg
        assert loaded.gated == model.gated
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        assert loaded.decode_greedy(src, 4) == model.decode_greedy(src, 4)

    def test_sidecar_records_layout(self, tmp_path):
        import json

        model = GateModel(self.CFG)
        blob = tmp_path / "model.bin"
        write_params(model, blob)
        meta = json.loads((blob.parent / (blob.name + ".json")).read_text())
        assert meta["version"] == 1
        assert meta["dtype"] == "float64"
        assert {p["name"] for p in meta["params"]} == set(model.params)

    def test_truncated_blob_rejected(self, tmp_path):
        model = GateModel(self.CFG)
        blob = tmp_path / "model.bin"
        write_params(model, blob)
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ParamsFormatError):
            load_params(blob)

    def test_tampered_metadata_rejected(self, tmp_path):
        import json

        model = GateModel(self.CFG)
        blob = tmp_path / "model.bin"
        write_params(model, blob)
        sidecar = blob.parent / (blob.name + ".json")
        meta = json.loads(sidecar.read_text())
        meta["version"] = 99
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ParamsFormatError, match="version"):
            load_params(blob)

    def test_missing_sidecar_rejected(self, tmp_path):
        model = GateModel(self.CFG)
        blob = tmp_path / "model.bin"
        write_params(model, blob)
        (blob.parent / (blob.name + ".json")).unlink()
        with pytest.raises(ParamsFormatError):
            load_params(blob)

    def _tamper(self, tmp_path, edit):
        import json

        blob = tmp_path / "model.bin"
        write_params(GateModel(self.CFG), blob)
        sidecar = blob.parent / (blob.name + ".json")
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        return blob

    def test_non_utf8_sidecar_rejected(self, tmp_path):
        blob = tmp_path / "model.bin"
        sidecar = write_params(GateModel(self.CFG), blob)
        sidecar.write_bytes(sidecar.read_bytes() + b"\xff")
        with pytest.raises(ParamsFormatError, match="cannot read"):
            load_params(blob)

    def test_sidecar_list_rejected(self, tmp_path):
        blob = tmp_path / "model.bin"
        sidecar = write_params(GateModel(self.CFG), blob)
        sidecar.write_text("[1, 2]\n")
        with pytest.raises(ParamsFormatError, match="JSON object"):
            load_params(blob)

    def test_invalid_config_rejected(self, tmp_path):
        blob = self._tamper(tmp_path, lambda meta: meta["config"].update(vocab_size=1))
        with pytest.raises(ParamsFormatError, match="vocab_size"):
            load_params(blob)

    def test_non_integer_shape_rejected(self, tmp_path):
        blob = self._tamper(tmp_path, lambda meta: meta["params"][0].update(shape=["x"]))
        with pytest.raises(ParamsFormatError, match="malformed"):
            load_params(blob)

    @pytest.mark.parametrize("gated", ["false", 1])
    def test_gated_must_be_a_json_boolean(self, tmp_path, gated):
        blob = self._tamper(tmp_path, lambda meta: meta.update(gated=gated))
        with pytest.raises(ParamsFormatError, match="gated"):
            load_params(blob)

    def test_missing_gated_loads_a_gated_model(self, tmp_path):
        blob = self._tamper(tmp_path, lambda meta: meta.pop("gated"))
        assert load_params(blob).gated is True
