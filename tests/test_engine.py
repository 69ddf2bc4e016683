"""Materialized in-memory execution: quoting, errors, and result comparison."""

import math
import random
import sqlite3
from dataclasses import replace
from unittest import mock

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
    parse,
    render,
    results_equal,
)

from textsql.eg import error_kind
from textsql.engine import (
    _TABLES_PER_DB,
    _canon_cell,
    _cells_equal,
    _quote,
    _store_cell,
    agrees_with_gold,
    column_names,
)
from textsql.sql import _render

from conftest import make_table


def _statement(lf: LogicalForm, tab: Table):
    """``compose(lf, tab)``, except that any aggregation goes on any column:
    a prediction may put sum or avg on a text column, though no gold does."""
    return replace(compose(replace(lf, agg=0), tab), agg=lf.agg)


class TestExecResult:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            ExecResult()
        with pytest.raises(ValueError):
            ExecResult(rows=(), error="boom")

    def test_is_error(self):
        assert ExecResult(error="boom").is_error
        assert not ExecResult(rows=(("a", 1),)).is_error


class TestMaterialize:
    def test_text_cells_stored_lowercased(self, plates_table):
        db = materialize(plates_table)
        rows = db.conn.execute("select `notes` from `1-1000181-1`").fetchall()
        assert ("slogan screenprinted on plate",) in rows

    def test_numeric_strings_in_real_columns_become_floats(self):
        tab = Table("t-1", ("n",), ("real",), (("21",),))
        db = materialize(tab)
        assert db.conn.execute("select `n` from `t-1`").fetchall() == [(21.0,)]

    @pytest.mark.parametrize(
        "value, op, rows",
        [
            ("N/A", 0, [("n/a",)]),
            ("12 goals", 0, [("12 goals",)]),
            ("x", 0, []),
            ("m", 1, [("n/a",)]),
            (100, 1, [("n/a",), ("12 goals",)]),  # SQLite orders text after every number
            (100, 2, [(3.0,)]),
            ("3", 0, [(3.0,)]),
        ],
    )
    def test_non_numeric_strings_in_real_columns_stay_lowercased_text(self, value, op, rows):
        tab = Table("t-1", ("n",), ("real",), (("N/A",), ("12 Goals",), ("3",)))
        db = materialize(tab)
        assert db.conn.execute("select `n` from `t-1`").fetchall() == [("n/a",), ("12 goals",), (3.0,)]
        stmt = compose(LogicalForm(0, 0, (Condition(0, op, value),)), tab)
        assert sorted(execute(stmt, db).rows) == sorted(rows)
        cache = TableCache()
        (_, op_text, literal), = stmt.conds
        assert cache.probe(tab, 0, op_text, literal) == bool(rows)
        cache.close()
        db.conn.close()

    def test_null_cells_stay_null(self):
        tab = Table("t-1", ("a", "b"), ("text", "real"), ((None, None),))
        db = materialize(tab)
        assert db.conn.execute("select `a`, `b` from `t-1`").fetchall() == [(None, None)]

    def test_duplicate_lowercased_headers_rejected(self):
        tab = Table("t-1", ("Score", "score"), ("real", "real"), ((1, 2),))
        with pytest.raises(MaterializeError, match="duplicate column"):
            materialize(tab)

    def test_boolean_cell_rejected(self):
        tab = Table("t-1", ("a",), ("real",), ((True,),))
        with pytest.raises(MaterializeError, match="boolean"):
            materialize(tab)

    def test_object_cell_rejected(self):
        # Stored as its text, the cell used to answer "{'k': 1}".
        tab = Table("t-1", ("a",), ("text",), (({"k": 1},),))
        with pytest.raises(MaterializeError, match=r"cell \{'k': 1\} is a dict, not a string, a number or null"):
            materialize(tab)

    def test_list_cell_rejected_by_probe(self):
        # Stored as the text "[1]" in a real column, it used to satisfy "> 0".
        tab = Table("t-1", ("a",), ("real",), ((1.5,), ([1],)))
        cache = TableCache()
        with pytest.raises(MaterializeError, match=r"cell \[1\] is a list"):
            cache.probe(tab, 0, ">", 0)
        cache.close()

    @pytest.mark.parametrize("op", ["!=", ">= 0 or 1 =", ""])
    def test_probe_refuses_an_operator_outside_the_dialect(self, op):
        # The operator is printed into the probe's SQL text.
        tab = Table("t-1", ("a",), ("real",), ((1.5,),))
        cache = TableCache()
        with pytest.raises(ValueError, match="unsupported operator"):
            cache.probe(tab, 0, op, 0)
        cache.close()

    @pytest.mark.parametrize(
        "value",
        [(1,), b"x", 1j, {1}, type("Text", (str,), {})("x"), type("Real", (float,), {})(1.0)],
        ids=["tuple", "bytes", "complex", "set", "str_subclass", "float_subclass"],
    )
    def test_cells_of_any_other_type_rejected(self, value):
        tab = Table("t-1", ("a", "b"), ("text", "real"), (("x", 1), (None, value)))
        with pytest.raises(MaterializeError, match=f"is a {type(value).__name__}, not a string"):
            materialize(tab)

    def test_first_refused_cell_is_reported(self):
        tab = Table("t-1", ("a", "b"), ("text", "real"), (("x", True), ("\ud800", [1])))
        with pytest.raises(MaterializeError, match="boolean"):
            materialize(tab)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**20])
    def test_integer_beyond_64_bits_rejected(self, value):
        tab = Table("t-1", ("a",), ("real",), ((value,),))
        with pytest.raises(MaterializeError, match="64-bit"):
            materialize(tab)

    def test_64_bit_extremes_stored(self):
        tab = Table("t-1", ("a",), ("real",), ((2**63 - 1,), (-(2**63),)))
        # A real column stores them with REAL affinity, as floats.
        assert execute("select [a] from [t-1]", materialize(tab)).rows == ((2.0**63,), (-(2.0**63),))

    def test_failure_leaves_nothing_in_a_shared_database(self, points_table):
        db = materialize(points_table)
        with pytest.raises(MaterializeError, match="surrogates not allowed"):
            materialize(Table("t-1", ("a",), ("text",), (("ok",), ("\ud800",))), db.conn)
        assert db.conn.execute("select [name] from [sqlite_master]").fetchall() == [("2-777-1",)]

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

    @pytest.mark.parametrize(
        "table_id, header, refused",
        [
            ("sqlite_t", "a", True),
            ("SQLite_T", "a", True),
            ("1-\x00-1", "a", True),
            ("1-1-1", "a\x00b", True),
            ("1-\ud800-1", "a", True),
            ("1-1-1", "a\udfff", True),
            ("sqlite", "a", False),
            ("x_sqlite_t", "sqlite_a", False),
            ("1-é-1", "É", False),
        ],
    )
    def test_column_names_refuses_what_sqlite_refuses(self, table_id, header, refused):
        # Oracle: whether SQLite creates the table at all.
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute(f"CREATE TABLE {_quote(table_id)} ({_quote(header.lower())} TEXT)")
            sqlite_refuses = False
        except (sqlite3.Error, UnicodeEncodeError):
            sqlite_refuses = True
        conn.close()
        assert sqlite_refuses == refused
        tab = Table(table_id, (header,), ("text",), (("x",),))
        if refused:
            with pytest.raises(MaterializeError, match="reserved for internal use|null character|surrogates"):
                column_names(tab)
        else:
            assert column_names(tab) == [header.lower()]


    @pytest.mark.parametrize("n_cols, refused", [(2000, False), (2001, True)])
    def test_column_limit_is_sqlites(self, n_cols, refused):
        headers = tuple(f"c{i}" for i in range(n_cols))
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute(f"CREATE TABLE t ({', '.join(headers)})")
            sqlite_refuses = False
        except sqlite3.Error:
            sqlite_refuses = True
        conn.close()
        assert sqlite_refuses == refused
        tab = Table("t-1", headers, ("real",) * n_cols, ((1,) * n_cols,))
        if refused:
            with pytest.raises(MaterializeError, match="2001 columns, more than 2000"):
                column_names(tab)
        else:
            assert len(materialize(tab).conn.execute("select * from `t-1`").fetchone()) == n_cols


class TestExecute:
    def test_lone_surrogate_literal_is_an_error_variant(self):
        db = materialize(Table("1-1-1", ("A",), ("text",), (("x",),)))
        res = execute("select [a] from [1-1-1] where [a] = '\ud800'", db)
        assert res.is_error
        assert "surrogates not allowed" in res.error
        assert execute("select [a] from [1-1-1]", db).rows == (("x",),)

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
            text = render(_statement(lf, tab))
            assert execute(text, db) == ExecResult(rows=tuple(db.conn.execute(text).fetchall())), text
        db.conn.close()


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


class TestBinding:
    """A handle runs statements on its own table only, though tables share
    databases: any other name is ``no such table``, as in a database that
    holds the one table."""

    @pytest.mark.parametrize("column", ["name", "sql"])
    def test_catalogue_is_no_such_table(self, points_table, column):
        cache = TableCache()
        for db in (materialize(points_table), cache.get(points_table)):
            res = execute(f"select [{column}] from [sqlite_master]", db)
            assert res.error == "no such table: sqlite_master"
            assert error_kind(res.error) == "unknown_table"
        cache.close()

    def test_other_table_in_the_same_database_is_no_such_table(self, points_table, plates_table):
        cache = TableCache()
        points, plates = cache.get(points_table), cache.get(plates_table)
        assert points.conn is plates.conn
        res = execute("select [notes] from [1-1000181-1]", points)
        assert res.error == "no such table: 1-1000181-1"
        assert error_kind(res.error) == "unknown_table"
        assert execute("select [notes] from [1-1000181-1]", plates).rows
        cache.close()

    def test_ids_equal_up_to_ascii_case_keep_their_own_rows(self):
        upper = Table("T-1", ("a",), ("text",), (("upper",),))
        lower = Table("t-1", ("a",), ("text",), (("lower",),))
        cache = TableCache()
        assert execute("select [a] from [T-1]", cache.get(upper)).rows == (("upper",),)
        assert execute("select [a] from [t-1]", cache.get(lower)).rows == (("lower",),)
        # SQLite folds ASCII case, so either spelling reaches the handle's table.
        assert execute("select [a] from [t-1]", cache.get(upper)).rows == (("upper",),)
        assert execute("select [a] from [T-1]", cache.get(lower)).rows == (("lower",),)
        cache.close()

    def test_non_ascii_case_is_not_folded(self):
        upper = Table("É-1", ("a",), ("text",), (("upper",),))
        lower = Table("é-1", ("a",), ("text",), (("lower",),))
        cache = TableCache()
        assert cache.get(upper).conn is cache.get(lower).conn  # distinct names to SQLite
        assert execute("select [a] from [É-1]", cache.get(upper)).rows == (("upper",),)
        assert execute("select [a] from [é-1]", cache.get(lower)).rows == (("lower",),)
        assert execute("select [a] from [é-1]", cache.get(upper)).error == "no such table: é-1"
        assert execute("select [a] from [É-1]", cache.get(lower)).error == "no such table: É-1"
        cache.close()

    def test_a_new_database_every_so_many_tables(self):
        tabs = [Table(f"t-{i}", ("a",), ("real",), ((i,),)) for i in range(2 * _TABLES_PER_DB + 1)]
        cache = TableCache()
        conns = [cache.get(tab).conn for tab in tabs]
        assert len({id(c) for c in conns}) == 3
        assert conns[0] is conns[_TABLES_PER_DB - 1] is not conns[_TABLES_PER_DB]
        assert execute("select [a] from [t-7]", cache.get(tabs[7])).rows == ((7,),)
        cache.close()


def _one_table_db(tab):
    """Oracle: a fresh connection holding this one table and nothing else."""
    conn = sqlite3.connect(":memory:")
    cols = ", ".join(f"{_quote(c)} {t.upper()}" for c, t in zip(column_names(tab), tab.col_types))
    conn.execute(f"CREATE TABLE {_quote(tab.table_id)} ({cols})")
    conn.executemany(
        f"INSERT INTO {_quote(tab.table_id)} VALUES ({', '.join('?' * tab.n_cols)})",
        [tuple(_store_cell(v, t) for v, t in zip(row, tab.col_types)) for row in tab.rows],
    )
    return conn


def _run_alone(conn, stmt):
    try:
        return ExecResult(rows=tuple(conn.execute(_render(stmt, _quote)).fetchall()))
    except sqlite3.Error as exc:
        return ExecResult(error=str(exc))


class TestSharedDatabases:
    @given(st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_execution_matches_a_one_table_database(self, seed):
        """Over more tables than one database holds, with ids that collide
        up to ASCII or non-ASCII case, each statement (on its own table or
        on another) gives on the cache's handle what it gives on a fresh
        connection holding only the handle's table, errors included."""
        rng = random.Random(seed)
        tabs = {}
        while len(tabs) < _TABLES_PER_DB + 44:
            table_id = f"{rng.choice('aAbBéÉ')}-{rng.randrange(400)}"
            tabs[table_id] = make_table(
                rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(0, 6), table_id=table_id, null_rate=0.2
            )
        tabs = list(tabs.values())
        cache = TableCache()
        handles = [cache.get(tab) for tab in tabs]
        alone = [_one_table_db(tab) for tab in tabs]
        for _ in range(300):
            i = rng.randrange(len(tabs))
            conds = tuple(_cell_condition(tabs[i], rng) for _ in range(rng.randrange(0, 3)))
            lf = LogicalForm(sel=rng.randrange(tabs[i].n_cols), agg=rng.randrange(6), conds=conds)
            stmt = _statement(lf, tabs[i])
            for j in {i, rng.randrange(len(tabs))}:
                assert execute(stmt, handles[j]) == _run_alone(alone[j], stmt), (stmt, tabs[j].table_id)
        twins = [
            (a, b) for a in range(len(tabs)) for b in range(len(tabs))
            if a != b and tabs[a].table_id.lower() == tabs[b].table_id.lower()
        ]
        for a, b in twins:
            stmt = compose(LogicalForm(sel=0, agg=0, conds=()), tabs[a])
            assert execute(stmt, handles[b]) == _run_alone(alone[b], stmt)
        for conn in alone:
            conn.close()
        cache.close()


def _sorted_results_equal(a: ExecResult, b: ExecResult) -> bool:
    """``results_equal`` as it compares rows of any count: both sides
    sorted by canonical cells, then compared row by row. The oracle for
    its one-row path."""
    if a.is_error or b.is_error or len(a.rows) != len(b.rows):
        return False
    key = lambda row: tuple(_canon_cell(c) for c in row)
    return all(
        len(ra) == len(rb) and all(_cells_equal(ca, cb) for ca, cb in zip(ra, rb))
        for ra, rb in zip(sorted(a.rows, key=key), sorted(b.rows, key=key))
    )


_WORDS = ["South Australia", "new south wales", "3", "it's", "café"]


@st.composite
def _cell_pair(draw):
    """Two cells that may or may not compare equal: numbers just inside or
    just outside the 1e-9 relative tolerance (or an int and its float),
    ``None`` against a falsy cell, text differing in case, surrounding
    whitespace or content, and a number against text."""
    kind = draw(st.sampled_from(["int", "float", "none", "text", "number_text"]))
    if kind in ("int", "float"):
        x = draw(st.integers(-(10**9), 10**9) if kind == "int" else st.floats(-1e9, 1e9))
        rel = draw(st.sampled_from([0.0, 5e-10, -5e-10, 9.9e-10, -9.9e-10, 1.01e-9, -1.01e-9, 1e-6]))
        return x, (x * (1 + rel) if rel else float(x))
    if kind == "none":
        return None, draw(st.sampled_from([None, "", 0, 0.0]))
    word = draw(st.sampled_from(_WORDS))
    if kind == "number_text":
        return 3, word
    return word, draw(st.sampled_from([word, word.upper(), word.title(), f"  {word}\t", f"{word}x", word[1:]]))


class TestResultsEqual:
    def test_row_order_ignored(self):
        a = ExecResult(rows=(("x",), ("y",)))
        b = ExecResult(rows=(("y",), ("x",)))
        assert results_equal(a, b)

    def test_int_and_float_compare_numerically(self):
        assert results_equal(ExecResult(rows=((21,),)), ExecResult(rows=((21.0,),)))

    def test_text_case_and_padding_ignored(self):
        a = ExecResult(rows=(("South Australia ",),))
        b = ExecResult(rows=(("south australia",),))
        assert results_equal(a, b)

    def test_number_never_equals_its_string_form(self):
        assert not results_equal(ExecResult(rows=((21,),)), ExecResult(rows=(("21",),)))

    def test_row_count_matters(self):
        a = ExecResult(rows=(("x",),))
        b = ExecResult(rows=(("x",), ("x",)))
        assert not results_equal(a, b)

    def test_none_only_equals_none(self):
        assert results_equal(ExecResult(rows=((None,),)), ExecResult(rows=((None,),)))
        assert not results_equal(ExecResult(rows=((None,),)), ExecResult(rows=(("",),)))

    def test_errors_never_equal(self):
        err = ExecResult(error="boom")
        assert not results_equal(err, err)
        assert not results_equal(err, ExecResult(rows=()))

    def test_one_row_pair_builds_no_sort_keys(self):
        with mock.patch("textsql.engine._canon_cell", side_effect=AssertionError("sorted")):
            assert results_equal(ExecResult(rows=(("X ", 2, None),)), ExecResult(rows=(("x", 2.0, None),)))
            assert not results_equal(ExecResult(rows=(("x", 2),)), ExecResult(rows=(("x", 3),)))

    @given(st.lists(_cell_pair(), max_size=4), st.sampled_from(["same", "shorter", "longer"]), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_one_row_pair_answers_as_the_sorted_comparison(self, pairs, width, swap):
        row_a = tuple(a for a, _ in pairs)
        row_b = tuple(b for _, b in pairs)
        if width == "shorter":
            row_b = row_b[:-1]
        elif width == "longer":
            row_b += (None,)
        a, b = ExecResult(rows=(row_a,)), ExecResult(rows=(row_b,))
        if swap:
            a, b = b, a
        assert results_equal(a, b) == _sorted_results_equal(a, b)


class TestResultEqualsItself:
    """Scoring takes a statement equal to its gold as correct exactly when
    the gold executes, which holds because every result the engine returns
    equals itself: SQLite returns NULL for NaN, and inf is close to inf."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_every_result_equals_itself(self, seed):
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 4), n_rows=rng.randrange(0, 6), null_rate=0.2)
        extremes = [math.inf, -math.inf, math.nan, 1e308, -0.0, 2**63 - 1]
        rows = tuple(
            tuple(rng.choice(extremes) if t == "real" and rng.random() < 0.4 else cell
                  for cell, t in zip(row, tab.col_types))
            for row in tab.rows
        )
        tab = Table(tab.table_id, tab.headers, tab.col_types, rows)
        db = materialize(tab)
        for _ in range(4):
            lf = LogicalForm(
                sel=rng.randrange(tab.n_cols),
                agg=rng.randrange(6),
                conds=tuple(
                    Condition(rng.randrange(tab.n_cols), rng.randrange(3), rng.choice([0, -0.0, 1e308, "alpha"]))
                    for _ in range(rng.randrange(0, 2))
                ),
            )
            res = execute(_statement(lf, tab), db)
            assert res.is_error or results_equal(res, res), res
        db.conn.close()

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_first_check_agrees_with_the_full_comparison(self, seed):
        """``agrees_with_gold`` takes a statement equal to its gold as its
        own gold result without running the gold; executing an equal gold
        apart and comparing in full must give the same answer."""
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 4), n_rows=rng.randrange(0, 6), null_rate=0.2)
        extremes = [math.inf, -math.inf, math.nan, 0.0, -0.0, 2**63 - 1, -(2**63), 1e308]
        numeric_text = ["3", "3.0", "-0", "-0.0", "1e5", "inf", "nan", " 7 "]
        rows = tuple(
            tuple(
                rng.choice(extremes if t == "real" and rng.random() < 0.5 else numeric_text)
                if rng.random() < 0.4 else cell
                for cell, t in zip(row, tab.col_types)
            )
            for row in tab.rows
        )
        tab = Table(tab.table_id, tab.headers, tab.col_types, rows)
        values = [c for row in rows for c in row if isinstance(c, (str, int)) or c is not None and math.isfinite(c)]
        db = materialize(tab)
        for _ in range(6):
            conds = tuple(
                Condition(rng.randrange(tab.n_cols), rng.randrange(3), rng.choice(values + [0, -0.0, 2**63 - 1, "3"]))
                for _ in range(rng.randrange(0, 3))
            )
            stmt = _statement(LogicalForm(sel=rng.randrange(tab.n_cols), agg=rng.randrange(6), conds=conds), tab)
            text = rng.choice([
                render(stmt),
                render(replace(stmt, agg=(stmt.agg + 1) % 6)),
                render(replace(stmt, sel_col="no such column")),
                render(replace(stmt, conds=tuple((c, rng.choice("=<>"), v) for c, _, v in stmt.conds))),
                "select from",
            ])
            stmt, gold = parse(text), parse(text)  # equal, built apart
            res = execute(stmt, db)
            with mock.patch("textsql.engine.execute", side_effect=AssertionError("the gold ran")):
                agrees = agrees_with_gold(stmt, res, gold, db)
            assert agrees == results_equal(res, execute(gold, db)), (text, res)
            assert agrees != res.is_error
        db.conn.close()


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
            res = execute(render(_statement(lf, tab)), db)
            assert not res.is_error, res.error
        db.conn.close()
