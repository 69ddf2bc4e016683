"""Execution-guided candidate selection and its measured gain."""

import random
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textsql.eg
from textsql import (
    CandidateList,
    Condition,
    LogicalForm,
    TableCache,
    compose,
    eg_gain,
    eg_select,
    execute,
    parse,
    render,
    results_equal,
)
from textsql.eg import DEFAULT_BEAM_WIDTH, error_kind

from conftest import make_table


def good_sql(tab, sel=0, conds=()):
    return render(compose(LogicalForm(sel=sel, agg=0, conds=conds), tab))


class TestCandidateList:
    def test_from_texts_keeps_order(self):
        cands = CandidateList.from_texts(["a", "b", "c"])
        assert cands.candidates == ("a", "b", "c")
        assert cands.beam_width == DEFAULT_BEAM_WIDTH

    def test_beam_truncates(self):
        cands = CandidateList.from_texts(["a", "b", "c", "d"], beam_width=2)
        assert cands.beam() == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            CandidateList(())

    def test_width_floor(self):
        with pytest.raises(ValueError, match="beam_width"):
            CandidateList.from_texts(["a"], beam_width=0)


class TestErrorKind:
    def test_buckets(self):
        assert error_kind("no such column: bogus") == "unknown_column"
        assert error_kind("no such table: t9") == "unknown_table"
        assert error_kind('near "frm": syntax error') == "malformed"
        assert error_kind("incomplete input") == "malformed"
        assert error_kind("something else") == "other"


class TestEgSelect:
    def test_clean_top_candidate_short_circuits(self, points_table, cache):
        cands = CandidateList.from_texts(
            [good_sql(points_table), "select [bogus] from [2-777-1]"]
        )
        sel = eg_select(cands, points_table, cache)
        assert sel.chosen_index == 0
        assert not sel.all_failed
        # The runner-up is never executed.
        assert len(sel.outcomes) == 1

    def test_recovers_on_runner_up(self, points_table, cache):
        cands = CandidateList.from_texts(
            ["select [bogus] from [2-777-1]", good_sql(points_table)]
        )
        sel = eg_select(cands, points_table, cache)
        assert sel.chosen_index == 1
        assert sel.chosen_sql == good_sql(points_table)
        assert [o.ok for o in sel.outcomes] == [False, True]
        assert sel.outcomes[0].kind == "unknown_column"

    def test_or_tail_is_passed_over(self, points_table, cache):
        good = good_sql(points_table, conds=(Condition(1, 1, 0),))
        sel = eg_select(CandidateList.from_texts([good + " or 1=1", good]), points_table, cache)
        assert sel.chosen_index == 1
        assert sel.outcomes[0].kind == "malformed"

    def test_other_tables_are_never_chosen(self, points_table, plates_table, cache):
        cache.get(plates_table)  # shares the database with the points table
        cands = CandidateList.from_texts([
            "select [name] from [sqlite_master]",
            "select [sql] from [sqlite_master]",
            "select [notes] from [1-1000181-1]",
            good_sql(points_table),
        ], beam_width=4)
        sel = eg_select(cands, points_table, cache)
        assert sel.chosen_index == 3
        assert [o.kind for o in sel.outcomes[:3]] == ["unknown_table"] * 3
        sel = eg_select(CandidateList.from_texts(cands.beam()[:3]), points_table, cache)
        assert sel.all_failed

    def test_empty_result_set_is_a_win(self, points_table, cache):
        empty = good_sql(points_table, conds=(Condition(1, 1, 999),))
        cands = CandidateList.from_texts([empty, good_sql(points_table)])
        sel = eg_select(cands, points_table, cache)
        assert sel.chosen_index == 0
        assert sel.chosen_result.rows == ()

    def test_all_failed_falls_back_to_top(self, points_table, cache):
        cands = CandidateList.from_texts(
            ["select [a] from [nope]", "drop table [2-777-1]", "select ((("]
        )
        sel = eg_select(cands, points_table, cache)
        assert sel.all_failed
        assert sel.chosen_index == 0
        assert sel.chosen_sql == "select [a] from [nope]"
        assert sel.chosen_result.is_error
        assert len(sel.outcomes) == 3

    def test_beam_width_bounds_attempts(self, points_table, cache):
        cands = CandidateList.from_texts(
            ["select [x] from [t]", "select [y] from [t]", good_sql(points_table)],
            beam_width=2,
        )
        sel = eg_select(cands, points_table, cache)
        assert sel.all_failed
        assert len(sel.outcomes) == 2

    def test_shared_cache_reuses_database(self, points_table, cache):
        eg_select(CandidateList.from_texts([good_sql(points_table)]), points_table, cache)
        db = cache.get(points_table)
        assert cache.get(points_table) is db


class TestEgGain:
    def _fixture(self, n=10, n_wrong=2):
        """n examples; the first n_wrong have a broken top-1 and a gold
        runner-up, the rest are clean at top-1."""
        rng = random.Random(0)
        tables, golds, pred_sets = [], [], []
        for i in range(n):
            tab = make_table(rng, n_rows=4, nasty=False)
            gold = compose(LogicalForm(sel=0, agg=0), tab)
            good = render(gold)
            if i < n_wrong:
                texts = [f"select [missing column] from [{tab.table_id}]", good]
            else:
                texts = [good, "select [whatever] from [t]"]
            tables.append(tab)
            golds.append(gold)
            pred_sets.append(CandidateList.from_texts(texts))
        return pred_sets, golds, tables

    def test_gain_is_exactly_recovered_fraction(self, cache):
        pred_sets, golds, tables = self._fixture(n=10, n_wrong=2)
        report = eg_gain(pred_sets, golds, tables, cache)
        assert report.n == 10
        assert report.correct_top1 == 8
        assert report.correct_eg == 10
        assert report.delta == 0.2
        assert report.accuracy_eg == 1.0
        assert report.dropped_by_kind == {"unknown_column": 2}
        assert report.all_failed_count == 0

    def test_delta_zero_when_top1_already_clean(self, cache):
        pred_sets, golds, tables = self._fixture(n=6, n_wrong=0)
        report = eg_gain(pred_sets, golds, tables, cache)
        assert report.correct_top1 == report.correct_eg == 6
        assert report.delta == 0.0
        assert report.dropped_by_kind == {}

    def test_all_failed_examples_counted(self, cache):
        rng = random.Random(1)
        tab = make_table(rng, nasty=False)
        gold = compose(LogicalForm(sel=0, agg=0), tab)
        cands = CandidateList.from_texts(["select [x] from [y]", "select garbage («"])
        report = eg_gain([cands], [gold], [tab], cache)
        assert report.all_failed_count == 1
        assert report.correct_eg == 0

    def test_empty_inputs_give_zero_report(self, cache):
        report = eg_gain([], [], [], cache)
        assert report.n == 0
        assert report.delta == 0.0
        assert report.accuracy_top1 == 0.0

    def test_misaligned_lengths_rejected(self, points_table, cache):
        cands = CandidateList.from_texts(["select [player] from [2-777-1]"])
        with pytest.raises(ValueError, match="golds"):
            eg_gain([cands], [], [points_table], cache)
        with pytest.raises(ValueError, match="tables"):
            eg_gain([cands], [compose(LogicalForm(sel=0, agg=0), points_table)], [], cache)


class TestEgGainSinglePass:
    """eg_gain selects over each beam once and reads top-1 off that
    selection."""

    def _random_set(self, seed):
        rng = random.Random(seed)
        tables, golds, pred_sets = [], [], []
        for _ in range(8):
            tab = make_table(rng, n_cols=rng.randrange(1, 4), n_rows=rng.randrange(0, 5))
            gold = compose(LogicalForm(sel=rng.randrange(tab.n_cols), agg=0), tab)
            pool = [
                render(gold),
                good_sql(tab, sel=rng.randrange(tab.n_cols)),
                f"select [no such col] from [{tab.table_id}]",
                "select garbage («",
            ]
            texts = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
            tables.append(tab)
            golds.append(gold)
            pred_sets.append(CandidateList.from_texts(texts, beam_width=rng.randrange(1, 4)))
        return pred_sets, golds, tables

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_top1_and_selections_match_direct_computation(self, seed):
        pred_sets, golds, tables = self._random_set(seed)
        # One engine per example: tables of different examples may share an id.
        with closing(TableCache()) as cache:
            report = eg_gain(pred_sets, golds, tables, cache)
            expected_top1 = 0
            for cands, gold, tab, selection in zip(pred_sets, golds, tables, report.selections):
                db = cache.get(tab)
                gold_res = execute(render(gold), db)
                expected_top1 += results_equal(execute(cands.beam()[0], db), gold_res)
                assert selection == eg_select(cands, tab, cache)
        assert report.correct_top1 == expected_top1
        assert len(report.selections) == report.n

    def test_gold_and_each_tried_candidate_execute_once(self, monkeypatch, cache):
        pred_sets, golds, tables = self._random_set(3)
        calls = []
        real_execute = textsql.eg.execute

        def counting_execute(sql_text, db):
            calls.append(sql_text)
            return real_execute(sql_text, db)

        monkeypatch.setattr(textsql.eg, "execute", counting_execute)
        report = eg_gain(pred_sets, golds, tables, cache)
        # The set has runner-up recoveries and an all-failed beam.
        assert report.correct_eg > report.correct_top1 and report.all_failed_count
        # A tried candidate equal to the gold takes the gold's result.
        assert any(parse(o.sql_text) == g for g, sel in zip(golds, report.selections) for o in sel.outcomes)
        expected = []
        for gold, selection in zip(golds, report.selections):
            expected.append(gold)
            tried = (parse(o.sql_text) for o in selection.outcomes)
            expected.extend(stmt for stmt in tried if stmt != gold)
        assert calls == expected


class TestSelectionProperty:
    @given(st.integers(0, 10**6), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_never_fails_when_a_clean_candidate_is_in_beam(self, seed, slot):
        """Wherever one in-beam candidate executes, selection returns it or
        an earlier clean one, never the fallback path."""
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 4), n_rows=rng.randrange(0, 5))
        texts = [f"select [no col {i}] from [{tab.table_id}]" for i in range(5)]
        texts[slot] = good_sql(tab, sel=rng.randrange(tab.n_cols))
        with closing(TableCache()) as cache:
            sel = eg_select(CandidateList.from_texts(texts, beam_width=5), tab, cache)
        assert not sel.all_failed
        assert sel.chosen_index == slot
        assert not sel.chosen_result.is_error
