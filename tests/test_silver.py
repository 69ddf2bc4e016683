"""Silver pair sampling: validity guarantees, templates, de-duplication."""

import random
import sqlite3
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textsql import (
    Condition,
    LogicalForm,
    SamplerConfig,
    SqlStatement,
    Table,
    TableCache,
    compose,
    execute,
    generate_silver,
    materialize,
    render,
    sample_logical_form,
    template_question,
)
from textsql import engine
from textsql.engine import _PROBE_ROWS, MaterializeError
from textsql.silver import SamplerError, _cond_matches, _sample_value

from conftest import make_table


class TestTemplateQuestion:
    def test_reference_statement(self, plates_record, plates_table):
        stmt = compose(plates_record.lf, plates_table)
        q = template_question(stmt, plates_table)
        assert q == "what is the notes when current slogan is south australia"

    def test_each_aggregation_has_a_phrase(self):
        expected = {
            0: "what is the score",
            1: "what is the highest score",
            2: "what is the lowest score",
            3: "how many score",
            4: "what is the total score",
            5: "what is the average score",
        }
        for agg, phrase in expected.items():
            stmt = SqlStatement(agg=agg, sel_col="score", table_id="t")
            assert template_question(stmt, None) == phrase

    def test_operator_phrases_and_verbatim_values(self):
        stmt = SqlStatement(
            agg=0,
            sel_col="a",
            table_id="t",
            conds=(("b", ">", 10), ("c", "<", 2.5), ("d", "=", "tie")),
        )
        q = template_question(stmt, None)
        assert q == "what is the a when b is more than 10 when c is less than 2.5 when d is tie"


class TestSampleLogicalForm:
    def test_deterministic_given_seed(self, table_factory, cache):
        tab = table_factory(random.Random(5))
        cfg = SamplerConfig()
        a = sample_logical_form(tab, random.Random(11), cfg, cache)
        b = sample_logical_form(tab, random.Random(11), cfg, cache)
        assert a == b

    def test_empty_table_rejected(self, cache):
        tab = Table("t-1", ("a",), ("text",), ())
        with pytest.raises(SamplerError):
            sample_logical_form(tab, random.Random(0), SamplerConfig(), cache)

    def test_condition_count_bounds(self, table_factory, cache):
        tab = table_factory(random.Random(2))
        cfg = SamplerConfig(max_conds=2, allow_zero_conds=False)
        rng = random.Random(0)
        counts = {len(sample_logical_form(tab, rng, cfg, cache).conds) for _ in range(200)}
        assert counts == {1, 2}

    def test_zero_conditions_allowed_by_default(self, table_factory, cache):
        tab = table_factory(random.Random(2))
        rng = random.Random(0)
        counts = {len(sample_logical_form(tab, rng, SamplerConfig(), cache).conds) for _ in range(200)}
        assert counts == {0, 1, 2, 3}

    def test_text_select_never_gets_sum_or_avg(self, cache):
        tab = Table("t-1", ("name",), ("text",), (("alpha",), ("beta",)))
        rng = random.Random(0)
        aggs = {sample_logical_form(tab, rng, SamplerConfig(), cache).agg for _ in range(300)}
        assert aggs == {0, 1, 2, 3}

    def test_condition_values_are_actual_cells(self, table_factory, cache):
        tab = table_factory(random.Random(3), n_rows=5)
        rng = random.Random(1)
        for _ in range(100):
            lf = sample_logical_form(tab, rng, SamplerConfig(), cache)
            for cond in lf.conds:
                column = [row[cond.col] for row in tab.rows]
                assert cond.value in column

    def test_null_columns_are_avoided(self, cache):
        tab = Table(
            "t-1",
            ("empty", "full"),
            ("text", "text"),
            ((None, "alpha"), (None, "beta")),
        )
        cfg = SamplerConfig(max_conds=1, allow_zero_conds=False)
        rng = random.Random(0)
        for _ in range(50):
            lf = sample_logical_form(tab, rng, cfg, cache)
            assert lf.conds[0].col == 1

    def test_zero_max_conds_with_zero_disallowed_refused(self):
        with pytest.raises(ValueError, match="no condition count"):
            SamplerConfig(max_conds=0, allow_zero_conds=False)

    def test_zero_max_conds_samples_no_conditions(self, table_factory, cache):
        tab = table_factory(random.Random(2))
        rng = random.Random(0)
        counts = {len(sample_logical_form(tab, rng, SamplerConfig(max_conds=0), cache).conds) for _ in range(50)}
        assert counts == {0}

    def test_value_found_by_scan_when_every_draw_is_null(self):
        # Every draw lands on row 0, which is null, so only the scan over
        # the rows that follows the draws can find the one usable cell.
        class FirstRow(random.Random):
            def randrange(self, *args):
                return 0

        rows = tuple((None,) if i != 137 else ("only one",) for i in range(200))
        tab = Table("t-1", ("a",), ("text",), rows)
        assert _sample_value(tab, 0, FirstRow(0)) == "only one"
        assert _sample_value(Table("t-2", ("a",), ("real",), ((None,), (float("nan"),))), 0, FirstRow(0)) is None

    def test_all_null_table_rejected(self, cache):
        tab = Table("t-1", ("a",), ("text",), ((None,), (None,)))
        cfg = SamplerConfig(max_conds=1, allow_zero_conds=False)
        with pytest.raises(SamplerError, match="non-null"):
            sample_logical_form(tab, random.Random(0), cfg, cache)


class TestNonFiniteCells:
    """A NaN or infinite cell has no SQL literal, so the sampler passes over
    it like a null: whether a run succeeds must not depend on the seed."""

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_never_drawn_as_a_condition_value(self, seed, cache):
        rows = tuple((f"p{i}", float("inf") if i == 7 else float(i)) for i in range(30))
        tab = Table("1-1", ("name", "score"), ("text", "real"), rows)
        examples = list(
            generate_silver([tab], 20, template_question, random.Random(seed), SamplerConfig(), cache)
        )
        assert len(examples) == 20
        assert all(c.value != float("inf") for ex in examples for c in ex.lf.conds)

    def test_table_of_only_null_and_non_finite_cells_rejected(self, cache):
        tab = Table("t-1", ("a", "b"), ("real", "real"), ((float("nan"), None), (float("-inf"), float("inf"))))
        cfg = SamplerConfig(max_conds=1, allow_zero_conds=False)
        with pytest.raises(SamplerError, match="non-null finite"):
            sample_logical_form(tab, random.Random(0), cfg, cache)


class TestGenerateSilver:
    def _tables(self, seed=0, n=3):
        rng = random.Random(seed)
        return [make_table(rng, n_rows=5) for _ in range(n)]

    def test_yields_requested_count(self, cache):
        run = generate_silver(
            self._tables(), 25, template_question, random.Random(0), SamplerConfig(), cache
        )
        assert len(list(run)) == 25
        assert next(run, None) is None

    def test_samples_each_example_as_it_is_read(self, cache):
        args = (self._tables(), 10, template_question)
        whole = list(generate_silver(*args, random.Random(7), SamplerConfig(), cache))
        rng = random.Random(7)
        run = generate_silver(*args, rng, SamplerConfig(), cache)
        assert rng.getstate() == random.Random(7).getstate()  # nothing drawn yet
        assert list(islice(run, 3)) == whole[:3]
        assert list(run) == whole[3:]

    def test_deterministic_given_seed(self, cache):
        args = (self._tables(), 10, template_question)
        a = generate_silver(*args, random.Random(7), SamplerConfig(), cache)
        b = generate_silver(*args, random.Random(7), SamplerConfig(), cache)
        assert list(a) == list(b)  # duplicate flags included

    def test_every_example_executes_cleanly(self):
        tables = self._tables(seed=1)
        by_id = {t.table_id: t for t in tables}
        cache = TableCache()
        run = generate_silver(
            tables, 40, template_question, random.Random(2), SamplerConfig(), cache
        )
        for ex in run:
            res = execute(ex.sql_text, cache.get(by_id[ex.table_id]))
            assert not res.is_error, res.error
        cache.close()

    def test_each_condition_alone_matches_a_row(self):
        tables = self._tables(seed=4)
        by_id = {t.table_id: t for t in tables}
        cache = TableCache()
        run = generate_silver(
            tables, 40, template_question, random.Random(5), SamplerConfig(), cache
        )
        for ex in run:
            tab = by_id[ex.table_id]
            for cond in ex.lf.conds:
                probe = LogicalForm(sel=cond.col, agg=0, conds=(cond,))
                res = execute(render(compose(probe, tab)), cache.get(tab))
                assert len(res.rows) >= 1
        cache.close()

    def test_condition_values_appear_verbatim_in_question(self, cache):
        tables = self._tables(seed=6)
        by_id = {t.table_id: t for t in tables}
        run = generate_silver(
            tables, 40, template_question, random.Random(8), SamplerConfig(), cache
        )
        for ex in run:
            stmt = compose(ex.lf, by_id[ex.table_id])
            for _, _, value in stmt.conds:
                needle = value if isinstance(value, str) else str(value)
                assert needle in ex.question or repr(value) in ex.question

    def test_exhausted_statement_space_keeps_duplicates(self, cache):
        tab = Table("t-1", ("n",), ("real",), ((1.0,),))
        cfg = SamplerConfig(max_conds=0)
        run = generate_silver([tab], 20, template_question, random.Random(0), cfg, cache)
        examples = list(run)
        assert len(examples) == 20
        # Only six distinct statements exist (one per aggregation slot).
        assert len({ex.sql_text for ex in examples}) == 6
        assert sum(ex.duplicate for ex in examples) == 14
        firsts = [ex.sql_text for ex in examples if not ex.duplicate]
        assert sorted(firsts) == sorted({ex.sql_text for ex in examples})

    def test_no_tables_rejected(self, cache):
        with pytest.raises(SamplerError):
            generate_silver([], 1, template_question, random.Random(0), SamplerConfig(), cache)

    def test_empty_question_rejected(self, cache):
        run = generate_silver(self._tables(), 1, lambda stmt, tab: "", random.Random(0), SamplerConfig(), cache)
        with pytest.raises(SamplerError, match="empty question"):
            next(run)


class TestValidityProperty:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sampled_statements_always_execute(self, seed):
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(1, 6))
        db = materialize(tab)
        cache = TableCache()
        for _ in range(3):
            lf = sample_logical_form(tab, rng, SamplerConfig(), cache)
            res = execute(render(compose(lf, tab)), db)
            assert not res.is_error, res.error
        cache.close()
        db.conn.close()


def _materialized_probe(tab, col, op, value, cache):
    """The probe as it ran on the whole materialized table: the oracle."""
    stmt = compose(LogicalForm(sel=col, agg=0, conds=(Condition(col=col, op=op, value=value),)), tab)
    result = execute(stmt, cache.get(tab))
    return not result.is_error and len(result.rows) > 0


# Strings that SQLite's REAL affinity, Python's float() or both read as numbers.
_NUMERIC_LOOKING = ["3", "3.0", " 3", "1e5", "1_0", "inf"]
_EDGE_NUMBERS = [0.0, -0.0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1]


class TestProbeMatchesMaterializedTable:
    """``_cond_matches`` answers on one reloaded one-column relation exactly
    as the condition's statement answers on the whole materialized table."""

    @staticmethod
    def _tables(rng):
        tables = []
        for table_id in ("1-1-1", "t`1 ]'x"):
            tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(1, 6),
                             table_id=table_id, null_rate=0.2)
            rows = [list(row) for row in tab.rows]
            for row in rows:
                for c, col_type in enumerate(tab.col_types):
                    if col_type == "real" and rng.random() < 0.3:
                        row[c] = rng.choice(_NUMERIC_LOOKING)
            tables.append(replace(tab, rows=tuple(map(tuple, rows))))
        return tables

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_materialized_table(self, seed):
        tables = self._tables(random.Random(seed))
        cells = [v for tab in tables for row in tab.rows for v in row if v is not None]
        # One value per literal: 3 and 3.0 (or 0.0 and -0.0) print apart.
        values = list({(type(v), repr(v)): v for v in cells}.values()) + _NUMERIC_LOOKING + _EDGE_NUMBERS
        oracle_cache, cache = TableCache(), TableCache()
        for value in values:
            for op in (0, 1, 2):
                # Alternate tables and columns so the probe relation reloads.
                for col in range(max(t.n_cols for t in tables)):
                    for tab in tables:
                        if col >= tab.n_cols:
                            continue
                        expected = _materialized_probe(tab, col, op, value, oracle_cache)
                        assert _cond_matches(tab, col, op, value, cache) == expected, (tab, col, op, value)
        oracle_cache.close()
        cache.close()

    @pytest.mark.parametrize(
        "n_rows", [0, 1, _PROBE_ROWS - 1, _PROBE_ROWS, _PROBE_ROWS + 1, 2 * _PROBE_ROWS + 3]
    )
    def test_agrees_across_insert_chunk_boundaries(self, n_rows):
        # Columns: real with numbers, real with numeric-looking strings and
        # text. Every column gets nulls, and the last row holds values no
        # other row holds, so a reload that loses a chunk answers wrongly.
        def row(i, last=False):
            if last:
                return (10**6, "1e9", "Zzz Last")
            if i % 7 == 3:
                return (None, None, None)
            return (float(i % 50) - 0.5, _NUMERIC_LOOKING[i % len(_NUMERIC_LOOKING)], f"W{i % 40}")

        tables = [
            Table(f"t-{n_rows}-{k}", ("n", "s", "w"), ("real", "real", "text"),
                  tuple(row(i, last=i == n_rows - 1) for i in range(n_rows)))
            for k in range(2)
        ]
        values = [10**6, 999_999, "1e9", "9e8", "zzz last", "Zzz Last", 48.5, 3, "3", " 3", "w7", -1]
        oracle_cache, cache = TableCache(), TableCache()
        for value in values:
            for op in (0, 1, 2):
                for col in range(3):
                    for tab in tables:  # alternate tables so the relation reloads
                        expected = _materialized_probe(tab, col, op, value, oracle_cache)
                        assert _cond_matches(tab, col, op, value, cache) == expected, (n_rows, col, op, value)
                        if n_rows == 0:
                            assert expected is False
        oracle_cache.close()
        cache.close()

    def test_generate_silver_materializes_nothing(self, monkeypatch, cache):
        calls = {"materialize": 0, "probe": 0}
        real_materialize, real_probe = engine.materialize, TableCache.probe

        def counting_materialize(*args, **kwargs):
            calls["materialize"] += 1
            return real_materialize(*args, **kwargs)

        def counting_probe(self, *args):
            calls["probe"] += 1
            return real_probe(self, *args)

        monkeypatch.setattr(engine, "materialize", counting_materialize)
        monkeypatch.setattr(TableCache, "probe", counting_probe)
        rng = random.Random(3)
        tables = [make_table(rng, n_cols=4, n_rows=6) for _ in range(4)]
        run = generate_silver(tables, 60, template_question, random.Random(1), SamplerConfig(), cache)
        assert len(list(run)) == 60
        assert calls["probe"] > 0
        assert calls["materialize"] == 0

    def test_close_closes_the_probe_connection(self):
        tab = Table("t-1", ("n",), ("real",), ((1,), (5,)))
        cache = TableCache()
        assert _cond_matches(tab, 0, 1, 1, cache)
        conn = cache._probe_conn
        cache.close()
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("select 1")
        assert not _cond_matches(tab, 0, 1, 5, cache)  # reopens after close
        cache.close()

    def test_first_probe_refuses_a_bad_cell_in_another_column(self, cache):
        # The probed real column is fine; the text column cannot be stored.
        tab = Table("t-1", ("n", "s"), ("real", "text"), ((1, "ok"), (5, "\ud800")))
        with pytest.raises(MaterializeError, match="surrogates not allowed"):
            _cond_matches(tab, 0, 1, 1, cache)
