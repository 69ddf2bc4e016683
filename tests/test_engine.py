"""Materialized in-memory execution: quoting, errors, and result comparison."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from textsql import (
    Condition,
    ExecResult,
    LogicalForm,
    MaterializeError,
    Table,
    TableCache,
    compose,
    execute,
    materialize,
    render,
    results_equal,
)

from textsql.eg import error_kind

from conftest import make_table


class TestExecResult:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            ExecResult()
        with pytest.raises(ValueError):
            ExecResult(rows=(), error="boom")

    def test_from_rows_coerces_to_tuples(self):
        res = ExecResult.from_rows([["a", 1]])
        assert res.rows == (("a", 1),)
        assert not res.is_error

    def test_from_error(self):
        assert ExecResult.from_error("boom").is_error


class TestMaterialize:
    def test_text_cells_stored_lowercased(self, plates_table):
        db = materialize(plates_table)
        rows = db.execute("select `notes` from `1-1000181-1`").fetchall()
        assert ("slogan screenprinted on plate",) in rows

    def test_numeric_strings_in_real_columns_become_floats(self):
        tab = Table("t-1", ("n",), ("real",), (("21",),))
        db = materialize(tab)
        assert db.execute("select `n` from `t-1`").fetchall() == [(21.0,)]

    def test_null_cells_stay_null(self):
        tab = Table("t-1", ("a", "b"), ("text", "real"), ((None, None),))
        db = materialize(tab)
        assert db.execute("select `a`, `b` from `t-1`").fetchall() == [(None, None)]

    def test_duplicate_lowercased_headers_rejected(self):
        tab = Table("t-1", ("Score", "score"), ("real", "real"), ((1, 2),))
        with pytest.raises(MaterializeError, match="duplicate column"):
            materialize(tab)

    def test_boolean_cell_rejected(self):
        tab = Table("t-1", ("a",), ("real",), ((True,),))
        with pytest.raises(MaterializeError, match="boolean"):
            materialize(tab)

    @pytest.mark.parametrize(
        "table_id, header, message",
        [
            ("sqlite_t", "a", "reserved for internal use"),
            ("1-\x00-1", "a", "null character"),
            ("1-1-1", "a\x00b", "null character"),
        ],
        ids=["reserved_table_id", "nul_in_table_id", "nul_in_header"],
    )
    def test_table_sqlite_refuses_is_a_materialize_error(self, table_id, header, message):
        tab = Table(table_id, (header,), ("text",), (("x",),))
        with pytest.raises(MaterializeError, match=message):
            materialize(tab)


class TestExecute:
    def test_reference_lookup(self, plates_table):
        db = materialize(plates_table)
        res = execute(
            "select [notes] from [1-1000181-1] where [current slogan] = 'south australia'",
            db,
        )
        assert res.rows == (("no slogan on current series",),)

    def test_aggregates_match_hand_computation(self, points_table):
        # Points column holds 1 and 2.5.
        db = materialize(points_table)
        q = "select {}([points]) from [2-777-1]"
        assert execute(q.format("sum"), db).rows == ((3.5,),)
        assert execute(q.format("count"), db).rows == ((2,),)
        assert execute(q.format("min"), db).rows == ((1.0,),)
        assert execute(q.format("max"), db).rows == ((2.5,),)
        assert execute(q.format("avg"), db).rows == ((1.75,),)

    def test_numeric_comparison(self, points_table):
        db = materialize(points_table)
        res = execute("select [player] from [2-777-1] where [no.] > 10", db)
        assert res.rows == (("antonio lang",),)

    def test_no_matches_is_empty_not_error(self, points_table):
        db = materialize(points_table)
        res = execute("select [player] from [2-777-1] where [no.] > 100", db)
        assert res.rows == ()
        assert not res.is_error

    def test_unknown_column_is_error(self, points_table):
        db = materialize(points_table)
        res = execute("select [bogus] from [2-777-1]", db)
        assert res.is_error
        assert "bogus" in res.error

    def test_unknown_table_is_error(self, points_table):
        db = materialize(points_table)
        assert execute("select [player] from [other]", db).is_error

    def test_syntax_error_is_error(self, points_table):
        db = materialize(points_table)
        assert execute("select from where", db).is_error

    def test_non_select_rejected(self, points_table):
        db = materialize(points_table)
        res = execute("drop table [2-777-1]", db)
        assert res.is_error
        assert "select" in res.error
        assert not execute("select [player] from [2-777-1]", db).is_error

    def test_empty_statement_rejected(self, points_table):
        assert execute("", materialize(points_table)).is_error


class TestExecuteQuoting:
    """Wire-format quoting survives the trip to the engine."""

    def _run(self, header, text, cell="it's [x]"):
        tab = Table("t-1", (header, "b"), ("text", "text"), (("v", cell),))
        return execute(text, materialize(tab))

    def test_identifier(self):
        assert self._run("a", "select [a] from [t-1]").rows == (("v",),)

    def test_bracket_escape(self):
        assert self._run("a]b", "select [a]]b] from [t-1]").rows == (("v",),)

    def test_backtick_in_identifier(self):
        assert self._run("x`y", "select [x`y] from [t-1]").rows == (("v",),)

    def test_brackets_inside_literal_are_text(self):
        res = self._run("a", "select [a] from [t-1] where [b] = '[not an ident]'", cell="[not an ident]")
        assert res.rows == (("v",),)

    def test_escaped_quote_inside_literal(self):
        assert self._run("a", "select [a] from [t-1] where [b] = 'it''s [x]'").rows == (("v",),)

    @pytest.mark.parametrize(
        "text", ["select [a from t-1", "select [a] from [t-1] where [b] = 'oops"], ids=["bracket", "string"]
    )
    def test_unterminated_quote_is_rejected(self, text):
        assert error_kind(self._run("a", text).error) == "malformed"


def _cell_condition(tab, rng):
    """A condition on a random column whose value is one of its cells."""
    col = rng.randrange(tab.n_cols)
    cells = [row[col] for row in tab.rows if row[col] is not None]
    return Condition(col, rng.randrange(3), rng.choice(cells or ["it's", 3, -2.5]))


class TestDialect:
    """Execution runs only what sql.parse accepts."""

    @pytest.mark.parametrize(
        "text",
        [
            "select * from sqlite_master",
            "select [player] from [2-777-1] where [no.] = 3 or 1=1",
            "select [player] from [2-777-1] where [no.] >= 3",
            "select [player] from [2-777-1];",
            "drop table [2-777-1]",
            "select `player` from `2-777-1`",
            "select [player] from [2-777-1] where [no.] > 1e400",
        ],
    )
    def test_off_dialect_text_is_an_error(self, points_table, text):
        res = execute(text, materialize(points_table))
        assert res.is_error
        assert error_kind(res.error) == "malformed"

    def test_statement_and_its_text_agree(self, points_table):
        db = materialize(points_table)
        stmt = compose(LogicalForm(sel=0, agg=0, conds=(Condition(1, 1, 2),)), points_table)
        assert execute(stmt, db) == execute(render(stmt), db)
        assert execute(stmt, db).rows == (("antonio lang",), ("washon lenard",))

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_sqlite_reading_the_bracketed_text(self, seed):
        """SQLite reads ``[x]`` natively; only the ``]]`` escape needs
        another quoting, so on tables without ``]`` in an identifier the
        engine's result must equal SQLite's run of the wire text itself."""
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(0, 6), null_rate=0.2)
        assume(not any("]" in h for h in tab.headers))
        db = materialize(tab)
        for _ in range(3):
            conds = tuple(_cell_condition(tab, rng) for _ in range(rng.randrange(0, 3)))
            lf = LogicalForm(sel=rng.randrange(tab.n_cols), agg=rng.randrange(6), conds=conds)
            text = render(compose(lf, tab))
            assert execute(text, db) == ExecResult.from_rows(db.execute(text).fetchall()), text
        db.close()


class TestTableCache:
    def test_same_table_reuses_connection(self, points_table):
        cache = TableCache()
        assert cache.get(points_table) is cache.get(points_table)
        cache.close()

    def test_close_then_reuse_materializes_fresh(self, points_table):
        cache = TableCache()
        cache.get(points_table)
        cache.close()
        res = execute("select [player] from [2-777-1]", cache.get(points_table))
        assert not res.is_error
        cache.close()


class TestResultsEqual:
    def test_row_order_ignored(self):
        a = ExecResult.from_rows([("x",), ("y",)])
        b = ExecResult.from_rows([("y",), ("x",)])
        assert results_equal(a, b)

    def test_int_and_float_compare_numerically(self):
        assert results_equal(ExecResult.from_rows([(21,)]), ExecResult.from_rows([(21.0,)]))

    def test_text_case_and_padding_ignored(self):
        a = ExecResult.from_rows([("South Australia ",)])
        b = ExecResult.from_rows([("south australia",)])
        assert results_equal(a, b)

    def test_number_never_equals_its_string_form(self):
        assert not results_equal(ExecResult.from_rows([(21,)]), ExecResult.from_rows([("21",)]))

    def test_row_count_matters(self):
        a = ExecResult.from_rows([("x",)])
        b = ExecResult.from_rows([("x",), ("x",)])
        assert not results_equal(a, b)

    def test_none_only_equals_none(self):
        assert results_equal(ExecResult.from_rows([(None,)]), ExecResult.from_rows([(None,)]))
        assert not results_equal(ExecResult.from_rows([(None,)]), ExecResult.from_rows([("",)]))

    def test_errors_never_equal(self):
        err = ExecResult.from_error("boom")
        assert not results_equal(err, err)
        assert not results_equal(err, ExecResult.from_rows([]))


class TestComposedStatementsAlwaysExecute:
    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_never_errors_against_own_table(self, seed):
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(0, 6))
        db = materialize(tab)
        for _ in range(3):
            n_conds = rng.randrange(0, 3)
            lf = LogicalForm(
                sel=rng.randrange(tab.n_cols),
                agg=rng.randrange(6),
                conds=tuple(
                    Condition(
                        rng.randrange(tab.n_cols),
                        rng.randrange(3),
                        rng.choice(["alpha", "it's", "a]b", 3, -2.5]),
                    )
                    for _ in range(n_conds)
                ),
            )
            res = execute(render(compose(lf, tab)), db)
            assert not res.is_error, res.error
        db.close()
