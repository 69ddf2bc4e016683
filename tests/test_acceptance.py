"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria, tolerances, and runtime targets:

1. SQL round-trip: 10,000 sampled logical forms over 50 tables,
   parse(render(compose(lf))) == compose(lf) for all, under 30 s.
2. Sampler validity: 10,000 sampled statements all execute cleanly and
   every condition alone matches at least one row, under 2 min.
3. Gate math: gradient check max relative error <= 1e-4 over 20 seeds
   (d_model=8, vocab=20, src=5, tgt=4, central differences, eps=1e-5);
   all distribution rows sum to 1 within 1e-6; the copy-gate limit cases
   p in {0, 1} reproduce the blended inputs exactly.
4. Copy task at the reference configuration: gate weight on copied-value
   positions exceeds keyword positions; gated held-out value accuracy
   >= 0.9 while the gate-disabled ablation scores <= 0.1; under 10 min.
5. Execution-guided selection: on a 100-example fixture with k broken
   top candidates and clean runners-up the accuracy delta is exactly
   k/100, a clean in-beam candidate is never passed over for an erroring
   one, and the delta is exactly 0 when every top-1 already executes.
6. Error taxonomy: 20 planted predictions spanning every class all
   classify as intended; the report partitions counts exactly (sum == n);
   a condition value absent from the question lands in Invalid/where_value.
7. Dataset-scale structural check: with real WikiSQL-format files under
   $WIKISQL_DATA_DIR, all 56,355 training records load, validate,
   compose, and execute with a failure rate below 0.5% (skipped without
   the files); the reference linearization matches its golden string
   byte for byte either way.
8. Determinism: every seeded pipeline writes byte-identical files across
   two invocations.
"""

import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from textsql import (
    CandidateList,
    Condition,
    ErrorClass,
    Kind,
    LinearizeConfig,
    LogicalForm,
    QuestionRecord,
    SamplerConfig,
    Slot,
    Table,
    TableCache,
    classify_error,
    compose,
    eg_gain,
    eg_select,
    execute,
    execution_accuracy,
    linearize_baseline,
    load_questions,
    load_tables,
    index_by_id,
    parse,
    render,
    sample_logical_form,
)
from textsql.cli import main
from textsql.evaluation import CORRECT, PARSE_FAILURE
from textsql.gate import (
    CopyTaskConfig,
    grad_check,
    merge,
    random_check_instance,
    train_copy_model,
)

from conftest import PLATES_BASELINE, PLATES_QUESTION, make_table


@pytest.fixture
def announce(capsys):
    """Print one line straight to the terminal, bypassing capture."""

    def _announce(criterion: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")

    return _announce


def _sample_corpus(seed: int, n_tables: int = 50):
    rng = random.Random(seed)
    return rng, [
        make_table(rng, n_cols=rng.randrange(2, 6), n_rows=rng.randrange(3, 9))
        for _ in range(n_tables)
    ]


class TestCriterion1RoundTrip:
    def test_parse_render_compose_identity(self, announce):
        rng, tables = _sample_corpus(seed=101)
        cache = TableCache()
        cfg = SamplerConfig()
        start = time.perf_counter()
        mismatches = 0
        n = 10_000
        for i in range(n):
            tab = tables[i % len(tables)]
            stmt = compose(sample_logical_form(tab, rng, cfg, cache), tab)
            mismatches += parse(render(stmt)) != stmt
        elapsed = time.perf_counter() - start
        cache.close()
        ok = mismatches == 0 and elapsed < 30.0
        announce(1, ok, f"{n - mismatches}/{n} round-trips exact over {len(tables)} tables "
                        f"in {elapsed:.1f}s (target < 30s)")
        assert mismatches == 0
        assert elapsed < 30.0


class TestCriterion2SamplerValidity:
    def test_statements_execute_and_conditions_match(self, announce):
        rng, tables = _sample_corpus(seed=202)
        cache = TableCache()
        cfg = SamplerConfig()
        start = time.perf_counter()
        exec_failures = 0
        cond_misses = 0
        n = 10_000
        for i in range(n):
            tab = tables[i % len(tables)]
            lf = sample_logical_form(tab, rng, cfg, cache)
            db = cache.get(tab)
            res = execute(render(compose(lf, tab)), db)
            exec_failures += res.is_error
            for cond in lf.conds:
                probe = LogicalForm(sel=cond.col, agg=0, conds=(cond,))
                cond_misses += len(execute(render(compose(probe, tab)), db).rows) < 1
        elapsed = time.perf_counter() - start
        cache.close()
        ok = exec_failures == 0 and cond_misses == 0 and elapsed < 120.0
        announce(2, ok, f"{n - exec_failures}/{n} statements executed cleanly, "
                        f"{cond_misses} conditions matched no row, in {elapsed:.1f}s "
                        f"(target < 2min)")
        assert exec_failures == 0
        assert cond_misses == 0
        assert elapsed < 120.0


class TestCriterion3GateMath:
    def test_gradients_distributions_and_limits(self, announce):
        worst = 0.0
        worst_sum_dev = 0.0
        for seed in range(20):
            model, src, tgt = random_check_instance(
                seed, d_model=8, vocab_size=20, src_len=5, tgt_len=4
            )
            result = grad_check(model, src, tgt, epsilon=1e-5)
            worst = max(worst, result.max_rel_error)
            acts = model.forward(src, tgt).activations
            for rows in (acts.attn, acts.o_gen, acts.o_ext, acts.o_final):
                worst_sum_dev = max(worst_sum_dev, float(np.abs(rows.sum(axis=-1) - 1.0).max()))
        rng = np.random.default_rng(0)
        o_gen = rng.dirichlet(np.ones(7), size=4)
        o_ext = rng.dirichlet(np.ones(7), size=4)
        limits_exact = np.array_equal(
            merge(o_gen, o_ext, np.zeros((4, 1))).data, o_gen
        ) and np.array_equal(merge(o_gen, o_ext, np.ones((4, 1))).data, o_ext)
        ok = worst <= 1e-4 and worst_sum_dev <= 1e-6 and limits_exact
        announce(3, ok, f"max gradient relative error {worst:.2e} over 20 seeds "
                        f"(tolerance 1e-4); worst row-sum deviation {worst_sum_dev:.2e} "
                        f"(tolerance 1e-6); gate limit cases exact: {limits_exact}")
        assert worst <= 1e-4
        assert worst_sum_dev <= 1e-6
        assert limits_exact


class TestCriterion4CopyTask:
    def test_gated_copies_ablation_cannot(self, announce):
        start = time.perf_counter()
        gated = train_copy_model(CopyTaskConfig()).metrics
        ablation = train_copy_model(CopyTaskConfig(), gated=False).metrics
        elapsed = time.perf_counter() - start
        gate_ordering = gated.mean_p_ext_value > gated.mean_p_ext_keyword
        ok = (
            gate_ordering
            and gated.value_copy_accuracy >= 0.9
            and ablation.value_copy_accuracy <= 0.1
            and elapsed < 600.0
        )
        announce(4, ok, f"held-out value accuracy gated {gated.value_copy_accuracy:.3f} "
                        f"(>= 0.9) vs ablation {ablation.value_copy_accuracy:.3f} (<= 0.1); "
                        f"gate weight on values {gated.mean_p_ext_value:.3f} > keywords "
                        f"{gated.mean_p_ext_keyword:.3f}; {elapsed:.0f}s (target < 10min)")
        assert gate_ordering
        assert gated.value_copy_accuracy >= 0.9
        assert ablation.value_copy_accuracy <= 0.1
        assert elapsed < 600.0


class TestCriterion5ExecutionGuidance:
    K = 13

    def _fixture(self, broken_top: int):
        rng = random.Random(505)
        pred_sets, golds, tables = [], [], []
        for i in range(100):
            tab = make_table(rng, n_rows=4, nasty=False)
            gold = LogicalForm(sel=rng.randrange(tab.n_cols), agg=0)
            good = render(compose(gold, tab))
            if i < broken_top:
                texts = [f"select [not a column] from [{tab.table_id}]", good]
            else:
                texts = [good, f"select [not a column] from [{tab.table_id}]"]
            pred_sets.append(CandidateList.from_texts(texts))
            golds.append(gold)
            tables.append(tab)
        return pred_sets, golds, tables

    def test_recovers_exactly_the_planted_fraction(self, announce):
        pred_sets, golds, tables = self._fixture(broken_top=self.K)
        cache = TableCache()
        report = eg_gain(pred_sets, [compose(g, t) for g, t in zip(golds, tables)], tables, cache)
        never_fell_back = all(
            not eg_select(cands, tab, cache).chosen_result.is_error
            for cands, tab in zip(pred_sets, tables)
        )
        clean_sets, clean_golds, clean_tabs = self._fixture(broken_top=0)
        clean = eg_gain(clean_sets, [compose(g, t) for g, t in zip(clean_golds, clean_tabs)], clean_tabs, cache)
        cache.close()
        ok = (
            report.delta == self.K / 100
            and report.correct_eg == 100
            and never_fell_back
            and clean.delta == 0.0
        )
        announce(5, ok, f"recovered delta {report.delta} == {self.K}/100 exactly; "
                        f"clean candidate always chosen: {never_fell_back}; "
                        f"all-clean fixture delta {clean.delta} == 0.0")
        assert report.delta == self.K / 100
        assert report.correct_top1 == 100 - self.K
        assert report.correct_eg == 100
        assert never_fell_back
        assert clean.delta == 0.0


CITIES = Table(
    table_id="1-500-1",
    headers=("City", "Population", "Area"),
    col_types=("text", "real", "real"),
    rows=(("Richmond", 62000, 62.5), ("Hampton", 134000, 130.0)),
)
CITIES_QUESTION = (
    "What is the population of Richmond, not Hampton, when the area is 62.5 and people number 62000 ?"
)
CITIES_GOLD = LogicalForm(sel=1, agg=0, conds=(Condition(0, 0, "Richmond"),))
_GOOD = "select [population] from [1-500-1] where [city] = 'richmond'"

# (prediction, intended label); every taxonomy class appears at least once.
PLANTED = [
    (_GOOD, CORRECT),
    ("select [population] from [1-500-1] where [city] = 'richmond'", CORRECT),
    (render(compose(CITIES_GOLD, CITIES)), CORRECT),
    ("select [population] from", PARSE_FAILURE),
    ("what is the population", PARSE_FAILURE),
    ("select [population] from [1-500-1] where", PARSE_FAILURE),
    ("select median([population]) from [1-500-1] where [city] = 'richmond'",
     ErrorClass(Kind.INVALID, Slot.AGG_FUNCTION)),
    ("select first([population]) from [1-500-1]",
     ErrorClass(Kind.INVALID, Slot.AGG_FUNCTION)),
    ("select [inhabitants] from [1-500-1] where [city] = 'richmond'",
     ErrorClass(Kind.INVALID, Slot.SELECT_COLUMN)),
    ("select [density] from [1-500-1]",
     ErrorClass(Kind.INVALID, Slot.SELECT_COLUMN)),
    ("select [population] from [1-500-1] where [mayor] = 'richmond'",
     ErrorClass(Kind.INVALID, Slot.WHERE_COLUMN)),
    ("select [population] from [1-500-1] where [city] >= 'richmond'",
     ErrorClass(Kind.INVALID, Slot.WHERE_OPER)),
    ("select [population] from [1-500-1] where [city] != 'richmond'",
     ErrorClass(Kind.INVALID, Slot.WHERE_OPER)),
    # The hallucination signature: a value the question never mentions.
    ("select [population] from [1-500-1] where [city] = 'norfolk'",
     ErrorClass(Kind.INVALID, Slot.WHERE_VALUE)),
    ("select [population] from [1-500-1] where [area] = 999",
     ErrorClass(Kind.INVALID, Slot.WHERE_VALUE)),
    ("select count([population]) from [1-500-1] where [city] = 'richmond'",
     ErrorClass(Kind.WRONG, Slot.AGG_FUNCTION)),
    ("select [area] from [1-500-1] where [city] = 'richmond'",
     ErrorClass(Kind.WRONG, Slot.SELECT_COLUMN)),
    ("select [population] from [1-500-1] where [area] = 62.5",
     ErrorClass(Kind.WRONG, Slot.WHERE_COLUMN)),
    ("select [population] from [1-500-1] where [city] > 'richmond'",
     ErrorClass(Kind.WRONG, Slot.WHERE_OPER)),
    ("select [population] from [1-500-1] where [city] = 'hampton'",
     ErrorClass(Kind.WRONG, Slot.WHERE_VALUE)),
]


class TestCriterion6Taxonomy:
    def test_planted_errors_classify_as_intended(self, announce, cache):
        assert len(PLANTED) == 20
        hits = sum(
            classify_error(pred, CITIES_GOLD, CITIES, CITIES_QUESTION) == intended
            for pred, intended in PLANTED
        )
        records = [
            QuestionRecord(phase=1, table_id=CITIES.table_id, question=CITIES_QUESTION,
                           lf=CITIES_GOLD)
        ] * len(PLANTED)
        report = execution_accuracy(
            [pred for pred, _ in PLANTED], [compose(CITIES_GOLD, CITIES)] * len(PLANTED), records,
            {CITIES.table_id: CITIES}, cache,
        )
        partition = sum(report.error_counts.values())
        halluc_case = classify_error(
            "select [population] from [1-500-1] where [city] = 'norfolk'",
            CITIES_GOLD, CITIES, CITIES_QUESTION,
        )
        halluc_ok = halluc_case == ErrorClass(Kind.INVALID, Slot.WHERE_VALUE)
        ok = hits == 20 and partition == report.n and halluc_ok
        announce(6, ok, f"{hits}/20 planted classifications intended; partition sum "
                        f"{partition} == n {report.n}; absent value lands in "
                        f"Invalid/where_value: {halluc_ok}")
        assert hits == 20
        assert partition == report.n
        assert halluc_ok


class TestCriterion7DatasetScale:
    def test_reference_linearization_golden(self, announce, plates_table):
        got = linearize_baseline(PLATES_QUESTION, plates_table, LinearizeConfig())
        ok = got == PLATES_BASELINE
        announce(7, ok, "reference linearization matches its golden string byte for byte"
                        if ok else f"golden mismatch: {got!r}")
        assert got == PLATES_BASELINE

    def test_full_training_split_when_available(self, announce):
        data_dir = os.environ.get("WIKISQL_DATA_DIR")
        if not data_dir:
            announce(7, True, "dataset half skipped: WIKISQL_DATA_DIR not set "
                              "(golden-string half verified)")
            pytest.skip("WIKISQL_DATA_DIR not set")
        questions_path = Path(data_dir) / "train.jsonl"
        tables_path = Path(data_dir) / "train.tables.jsonl"
        if not questions_path.exists() or not tables_path.exists():
            announce(7, True, f"dataset half skipped: files missing under {data_dir}")
            pytest.skip(f"train files missing under {data_dir}")
        records = load_questions(questions_path)
        tables = index_by_id(load_tables(tables_path))
        cache = TableCache()
        failures = 0
        for rec in records:
            tab = tables.get(rec.table_id)
            if tab is None:
                failures += 1
                continue
            try:
                res = execute(render(compose(rec.lf, tab)), cache.get(tab))
            except Exception:
                failures += 1
                continue
            failures += res.is_error
        cache.close()
        rate = failures / len(records)
        ok = len(records) == 56_355 and rate < 0.005
        announce(7, ok, f"{len(records)} records (expect 56355); "
                        f"failure rate {rate:.4%} (tolerance < 0.5%)")
        assert len(records) == 56_355
        assert rate < 0.005


class TestCriterion8Determinism:
    def test_seeded_pipelines_are_byte_identical(self, announce, tmp_path, plates_table):
        from textsql import dump_tables

        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([plates_table]))
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps({
            "phase": 1, "table_id": plates_table.table_id, "question": PLATES_QUESTION,
            "sql": {"sel": 5, "agg": 0, "conds": [[3, 0, "SOUTH AUSTRALIA"]]},
        }) + "\n")

        silver_args = ["silver", "--tables", str(tables), "--n", "25", "--seed", "9"]
        lin_args = ["linearize", "--questions", str(questions), "--tables", str(tables),
                    "--dropout", "--seed", "9"]
        train_args = ["gate", "train", "--steps", "30", "--d-model", "8",
                      "--batch-size", "4", "--eval-size", "10", "--seed", "9"]
        check_args = ["gate", "check", "--seeds", "2", "--d-model", "6",
                      "--vocab-size", "10", "--src-len", "3", "--tgt-len", "2"]

        stable = []
        for name, args, out_flag in [
            ("silver", silver_args, "--out"),
            ("linearize", lin_args, "--out"),
            ("gate train", train_args, "--out-metrics"),
            ("gate check", check_args, "--out"),
        ]:
            a = tmp_path / f"{name.replace(' ', '_')}_a"
            b = tmp_path / f"{name.replace(' ', '_')}_b"
            assert main(args + [out_flag, str(a)]) == 0
            assert main(args + [out_flag, str(b)]) == 0
            stable.append((name, a.read_bytes() == b.read_bytes()))
        ok = all(same for _, same in stable)
        announce(8, ok, "byte-identical reruns: " +
                        ", ".join(f"{name}={'yes' if same else 'NO'}" for name, same in stable))
        assert ok, stable
