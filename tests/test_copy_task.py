"""Synthetic copy grammar and the gate-vs-ablation training harness."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textsql.gate import (
    CopyTaskConfig,
    CopyVocab,
    GateModel,
    TrainingDiverged,
    build_vocab,
    evaluate_copy_model,
    gate_config_for,
    make_example,
    train_copy_model,
)
from textsql.gate import copy_task
from textsql.gate.copy_task import (
    QUESTION_WORDS,
    SRC_COND_POS,
    SRC_LEN,
    SRC_SEL_POS,
    SRC_VALUE_POS,
    TARGET_WORDS,
    TGT_KEYWORD_POS,
    TGT_LEN,
    TGT_VALUE_POS,
)

FAST = CopyTaskConfig(d_model=16, steps=150, batch_size=8, eval_size=40, seed=0)


class TestVocab:
    def test_layout(self):
        vocab = build_vocab(CopyTaskConfig())
        assert vocab.tokens[0] == "<start>"
        assert len(vocab.tokens) == len(set(vocab.tokens))
        assert vocab.size == 1 + len(QUESTION_WORDS) + len(TARGET_WORDS) + 4 + 50
        assert len(vocab.col_ids) == 4
        assert len(vocab.train_value_ids) == 40
        assert len(vocab.heldout_value_ids) == 10

    def test_value_pools_disjoint(self):
        vocab = build_vocab(CopyTaskConfig())
        assert not set(vocab.train_value_ids) & set(vocab.heldout_value_ids)

    def test_id_of_round_trips(self):
        vocab = build_vocab(CopyTaskConfig())
        for tok in ("what", "select", "col0", "val49"):
            assert vocab.tokens[vocab.id_of(tok)] == tok


class TestGrammar:
    def test_fixed_positions(self):
        vocab = build_vocab(FAST)
        rng = np.random.default_rng(0)
        for heldout in (False, True):
            pool = vocab.heldout_value_ids if heldout else vocab.train_value_ids
            for _ in range(50):
                src, tgt = make_example(vocab, rng, heldout=heldout)
                assert src.shape == (SRC_LEN,) and tgt.shape == (TGT_LEN,)
                assert src[SRC_SEL_POS] in vocab.col_ids
                assert src[SRC_COND_POS] in vocab.col_ids
                assert src[SRC_VALUE_POS] in pool
                assert tgt[1] == src[SRC_SEL_POS]
                assert tgt[5] == src[SRC_COND_POS]
                assert tgt[TGT_VALUE_POS] == src[SRC_VALUE_POS]

    def test_keyword_positions_are_constant(self):
        vocab = build_vocab(FAST)
        rng = np.random.default_rng(1)
        keywords = {
            tuple(make_example(vocab, rng, heldout=False)[1][list(TGT_KEYWORD_POS)])
            for _ in range(30)
        }
        assert len(keywords) == 1

    def test_value_slot_never_holds_a_keyword(self):
        vocab = build_vocab(FAST)
        keyword_ids = {vocab.id_of(w) for w in TARGET_WORDS}
        rng = np.random.default_rng(2)
        for _ in range(30):
            _, tgt = make_example(vocab, rng, heldout=True)
            assert tgt[TGT_VALUE_POS] not in keyword_ids

    def test_gate_config_dimensions(self):
        vocab = build_vocab(FAST)
        cfg = gate_config_for(FAST, vocab)
        assert cfg.vocab_size == vocab.size
        assert cfg.max_src_len == SRC_LEN
        assert cfg.max_tgt_len == TGT_LEN
        assert cfg.start_id == 0


def one_example(vocab, rng, heldout):
    """Oracle: one (source, target) pair as ``make_example`` built it, from
    one draw each of the selected column, condition column and value."""
    what, is_, when = (vocab.id_of(w) for w in QUESTION_WORDS)
    select, from_, where, eq, tab = (vocab.id_of(w) for w in TARGET_WORDS)
    sel_col = vocab.col_ids[rng.integers(len(vocab.col_ids))]
    cond_col = vocab.col_ids[rng.integers(len(vocab.col_ids))]
    pool = vocab.heldout_value_ids if heldout else vocab.train_value_ids
    value = pool[rng.integers(len(pool))]
    src = np.array([what, is_, sel_col, when, cond_col, is_, value], dtype=np.int64)
    tgt = np.array([select, sel_col, from_, tab, where, cond_col, eq, value], dtype=np.int64)
    return src, tgt


class TestDrawBatch:
    @given(
        n_cols=st.integers(1, 6),
        n_train=st.integers(1, 30),
        n_heldout=st.integers(1, 10),
        n=st.integers(0, 40),
        heldout=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_make_example_loop(self, n_cols, n_train, n_heldout, n, heldout, seed):
        vocab = build_vocab(CopyTaskConfig(n_cols=n_cols, n_train_values=n_train, n_heldout_values=n_heldout))
        batch_rng, loop_rng, one_rng = (np.random.default_rng(seed) for _ in range(3))
        src, tgt = copy_task._draw_batch(vocab, batch_rng, n, heldout)
        pairs = [one_example(vocab, loop_rng, heldout) for _ in range(n)]
        assert src.dtype == tgt.dtype == np.int64
        assert src.shape == (n, SRC_LEN) and tgt.shape == (n, TGT_LEN)
        assert src.tolist() == [s.tolist() for s, _ in pairs]
        assert tgt.tolist() == [t.tolist() for _, t in pairs]
        # The same draws, so the streams stay in step.
        assert batch_rng.integers(2**62) == loop_rng.integers(2**62)
        for want_src, want_tgt in pairs:
            got_src, got_tgt = make_example(vocab, one_rng, heldout=heldout)
            assert got_src.tolist() == want_src.tolist() and got_tgt.tolist() == want_tgt.tolist()


class TestConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            CopyTaskConfig(steps=0)
        with pytest.raises(ValueError):
            CopyTaskConfig(n_cols=0)

    def test_lr_positive(self):
        with pytest.raises(ValueError):
            CopyTaskConfig(lr=0.0)


class TestTraining:
    def test_gated_model_copies_heldout_values(self):
        result = train_copy_model(FAST)
        assert result.metrics.value_copy_accuracy >= 0.9
        assert result.metrics.mean_p_ext_value > result.metrics.mean_p_ext_keyword

    def test_ablation_cannot_copy(self):
        result = train_copy_model(FAST, gated=False)
        assert result.metrics.value_copy_accuracy <= 0.1
        assert result.metrics.mean_p_ext_value == 0.0

    def test_history_covers_first_and_last_step(self):
        result = train_copy_model(FAST, log_every=50)
        steps = [s for s, _ in result.history]
        assert steps[0] == 0
        assert steps[-1] == FAST.steps - 1
        assert all(np.isfinite(loss) for _, loss in result.history)

    def test_deterministic_given_seed(self):
        a = train_copy_model(FAST)
        b = train_copy_model(FAST)
        assert a.metrics == b.metrics
        assert a.history == b.history

    def test_loss_decreases(self):
        result = train_copy_model(FAST)
        assert result.history[-1][1] < result.history[0][1] * 0.1

    def test_one_batched_backward_per_step(self, monkeypatch):
        """Each step stacks the batch the per-example stream would draw and
        takes one loss_and_grads call over it."""
        cfg = CopyTaskConfig(d_model=8, steps=5, batch_size=4, eval_size=3, seed=2)
        seen = []
        real = GateModel.loss_and_grads

        def counting(self, src, tgt):
            seen.append((src.copy(), tgt.copy()))
            return real(self, src, tgt)

        monkeypatch.setattr(GateModel, "loss_and_grads", counting)
        train_copy_model(cfg)
        assert len(seen) == cfg.steps
        vocab = build_vocab(cfg)
        train_seed, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        rng = np.random.default_rng(train_seed)
        for src, tgt in seen:
            assert src.shape == (cfg.batch_size, SRC_LEN) and tgt.shape == (cfg.batch_size, TGT_LEN)
            for row_src, row_tgt in zip(src, tgt):
                ref_src, ref_tgt = make_example(vocab, rng, heldout=False)
                np.testing.assert_array_equal(row_src, ref_src)
                np.testing.assert_array_equal(row_tgt, ref_tgt)

    def test_trained_batched_decode_matches_single(self):
        result = train_copy_model(FAST)
        rng = np.random.default_rng(3)
        pairs = [make_example(result.vocab, rng, heldout=bool(i % 2)) for i in range(20)]
        src = np.stack([s for s, _ in pairs])
        batched = result.model.decode_greedy(src, TGT_LEN)
        assert batched == [result.model.decode_greedy(s, TGT_LEN) for s in src]
        assert sum(row == list(t) for row, (_, t) in zip(batched, pairs)) >= 18

    def test_divergence_detected(self, monkeypatch):
        def bad_loss(self, src, tgt):
            return float("nan"), {n: np.zeros_like(p.data) for n, p in self.params.items()}

        monkeypatch.setattr(GateModel, "loss_and_grads", bad_loss)
        with pytest.raises(TrainingDiverged) as info:
            train_copy_model(FAST)
        assert info.value.step == 0


class TestEvaluate:
    def test_metrics_ranges(self):
        vocab = build_vocab(FAST)
        model = GateModel(gate_config_for(FAST, vocab))
        metrics = evaluate_copy_model(model, vocab, 10, np.random.default_rng(0))
        assert metrics.n_examples == 10
        assert 0.0 <= metrics.value_copy_accuracy <= 1.0
        assert 0.0 <= metrics.sequence_exact_match <= metrics.value_copy_accuracy
        assert 0.0 < metrics.mean_p_ext_value < 1.0

    def test_metrics_are_plain_numbers(self):
        vocab = build_vocab(FAST)
        model = GateModel(gate_config_for(FAST, vocab))
        metrics = evaluate_copy_model(model, vocab, 20, np.random.default_rng(1))
        assert type(metrics.n_examples) is int
        for f in fields(metrics):
            if f.name != "n_examples":
                assert type(getattr(metrics, f.name)) is float, f.name

    def test_chunked_evaluation_matches_per_example_reference(self):
        """Reference: the per-example loop, one decode and one forward each."""
        vocab = build_vocab(FAST)
        model = GateModel(gate_config_for(FAST, vocab))
        n = 37  # not a multiple of the chunk size
        metrics = evaluate_copy_model(model, vocab, n, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        value_hits = seq_hits = 0
        p_value, p_keyword = [], []
        for _ in range(n):
            src, tgt = make_example(vocab, rng, heldout=True)
            decoded = model.decode_greedy(src, TGT_LEN)
            value_hits += decoded[TGT_VALUE_POS] == tgt[TGT_VALUE_POS]
            seq_hits += decoded == list(tgt)
            gate = model.forward(src, tgt).activations["p_ext"][:, 0]
            p_value.append(gate[TGT_VALUE_POS])
            p_keyword.extend(gate[k] for k in TGT_KEYWORD_POS)
        assert metrics.value_copy_accuracy == value_hits / n
        assert metrics.sequence_exact_match == seq_hits / n
        assert metrics.mean_p_ext_value == pytest.approx(np.mean(p_value), rel=1e-12)
        assert metrics.mean_p_ext_keyword == pytest.approx(np.mean(p_keyword), rel=1e-12)

    def test_chunk_size_leaves_the_metrics_unchanged(self, monkeypatch):
        """Rows decode independently and the examples are drawn in one
        stream, so how many go in one pass is invisible in the metrics."""
        result = train_copy_model(FAST)
        metrics = []
        for chunk in (16, 32):
            monkeypatch.setattr(copy_task, "_EVAL_CHUNK", chunk)
            metrics.append(evaluate_copy_model(result.model, result.vocab, 70, np.random.default_rng(5)))
        assert metrics[0] == metrics[1]
