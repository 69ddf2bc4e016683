"""Materialize tables into in-memory SQLite and execute statements.

Execution speaks only the wire dialect that ``sql.parse`` defines: text is
parsed first, and SQLite only ever runs a ``SqlStatement`` rendered by
``sql.render``'s code with backtick-quoted identifiers (see ``_quote`` for
why not double quotes or the wire format's brackets). Execution never
raises for bad SQL; a parse failure or an engine rejection comes back as an
``ExecResult`` error variant. An empty result is a success, never an error.

A connection is confined to one thread of control at a time; the per-table
cache hands out one independent in-memory database per table so evaluation
can shard across workers by table id.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass

from .data import Table
from .normalize import normalize_text
from .sql import ParseFailure, SqlStatement, _render, parse

_SQL_TYPES = {"text": "TEXT", "real": "REAL"}


class MaterializeError(ValueError):
    """The table cannot be represented in the engine (e.g. duplicate column
    names after lowercasing)."""


@dataclass(frozen=True, slots=True)
class ExecResult:
    """Outcome of executing one statement: either rows or a runtime error."""

    rows: tuple[tuple, ...] | None = None
    error: str | None = None

    def __post_init__(self):
        if (self.rows is None) == (self.error is None):
            raise ValueError("exactly one of rows/error must be set")

    @classmethod
    def from_rows(cls, rows) -> "ExecResult":
        return cls(rows=tuple(tuple(r) for r in rows))

    @classmethod
    def from_error(cls, message: str) -> "ExecResult":
        return cls(error=message)

    @property
    def is_error(self) -> bool:
        return self.error is not None


def _store_cell(value, col_type: str):
    """Insertion-time normalization: strings lowercased; numeric strings in
    real columns stored as floats; None stays NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise MaterializeError("boolean cells are not supported")
    if isinstance(value, (int, float)):
        return value
    s = normalize_text(str(value))
    if col_type == "real":
        try:
            return float(s)
        except ValueError:
            return s
    return s


def column_names(tab: Table) -> list[str]:
    """The table's lowercased column names, as the engine names them.

    Raises ``MaterializeError`` when two headers collide after lowercasing:
    statements over such a table cannot name each column apart.
    """
    cols = [normalize_text(h) for h in tab.headers]
    if len(set(cols)) != len(cols):
        dupes = sorted({c for c in cols if cols.count(c) > 1})
        raise MaterializeError(
            f"table {tab.table_id!r}: duplicate column names after lowercasing: {dupes}"
        )
    return cols


def materialize(tab: Table) -> sqlite3.Connection:
    """Create a fresh in-memory database holding one relation named by the
    table id, with lowercased column names."""
    cols = column_names(tab)
    conn = sqlite3.connect(":memory:")
    col_defs = ", ".join(
        f'{_quote(c)} {_SQL_TYPES[t]}' for c, t in zip(cols, tab.col_types)
    )
    conn.execute(f'CREATE TABLE {_quote(tab.table_id)} ({col_defs})')
    placeholders = ", ".join("?" for _ in cols)
    conn.executemany(
        f'INSERT INTO {_quote(tab.table_id)} VALUES ({placeholders})',
        [
            tuple(_store_cell(v, t) for v, t in zip(row, tab.col_types))
            for row in tab.rows
        ],
    )
    conn.commit()
    return conn


def _quote(ident: str) -> str:
    # Backticks, not double quotes: the engine silently reads an unknown
    # double-quoted identifier as a string literal, which would turn a
    # nonexistent-column query into a clean (wrong) result instead of a
    # runtime error. Backticked names always resolve as identifiers, and
    # unlike SQLite's brackets they can escape every character.
    return "`" + ident.replace("`", "``") + "`"


def execute(statement: SqlStatement | str, db: sqlite3.Connection) -> ExecResult:
    """Run one statement against a materialized table.

    Text is parsed with ``sql.parse`` first; text outside the dialect (a
    second statement, ``or``, ``*``, an unknown function or operator) comes
    back as a ``syntax error`` variant without reaching the engine. Anything
    the engine rejects (unknown column or table) becomes an error variant too.
    """
    if isinstance(statement, str):
        statement = parse(statement)
        if isinstance(statement, ParseFailure):
            return ExecResult.from_error(
                f"syntax error at token {statement.token_index}: {statement.message}"
            )
    try:
        cur = db.execute(_render(statement, _quote))
        return ExecResult.from_rows(cur.fetchall())
    except (sqlite3.Error, sqlite3.Warning) as exc:
        return ExecResult.from_error(str(exc))


class TableCache:
    """On-demand, per-table databases keyed by table id."""

    def __init__(self):
        self._dbs: dict[str, sqlite3.Connection] = {}

    def get(self, tab: Table) -> sqlite3.Connection:
        db = self._dbs.get(tab.table_id)
        if db is None:
            db = materialize(tab)
            self._dbs[tab.table_id] = db
        return db

    def close(self):
        for db in self._dbs.values():
            db.close()
        self._dbs.clear()


def _canon_cell(value):
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, f"{float(value):.12g}")
    return (2, normalize_text(str(value)).strip())


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num != b_num:
        return False
    if a_num:
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
    return normalize_text(str(a)).strip() == normalize_text(str(b)).strip()


def results_equal(a: ExecResult, b: ExecResult) -> bool:
    """Multiset equality of result rows after normalization.

    Text compares lowercased and trimmed; numbers with relative tolerance
    1e-9. An error variant never equals anything, including another error.
    """
    if a.is_error or b.is_error:
        return False
    if len(a.rows) != len(b.rows):
        return False
    key = lambda row: tuple(_canon_cell(c) for c in row)
    rows_a = sorted(a.rows, key=key)
    rows_b = sorted(b.rows, key=key)
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            return False
        if not all(_cells_equal(ca, cb) for ca, cb in zip(ra, rb)):
            return False
    return True
