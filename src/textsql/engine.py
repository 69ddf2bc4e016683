"""Materialize tables into in-memory SQLite and execute statements.

Execution speaks only the wire dialect that ``sql.parse`` defines: text is
parsed first, and SQLite only ever runs a ``SqlStatement`` rendered by
``sql.render``'s code with backtick-quoted identifiers (see ``_quote`` for
why not double quotes or the wire format's brackets). Execution never
raises for bad SQL; a parse failure or an engine rejection comes back as an
``ExecResult`` error variant. An empty result is a success, never an error.

Tables live in a few shared in-memory databases (see ``TableCache``), and a
handle binds execution to its one table: a statement naming any other
relation, SQLite's catalogue included, is ``no such table``. A one-condition
probe over one column (``TableCache.probe``) runs on a one-column relation
instead, so it needs no materialized table. A connection is confined to one
thread of control at a time.
"""

from __future__ import annotations

import math
import sqlite3
import string
from dataclasses import dataclass

from .data import AGG_NONE, Table
from .normalize import normalize_text
from .sql import ParseFailure, SqlStatement, _render, parse

_SQL_TYPES = {"text": "TEXT", "real": "REAL"}

# Tables per shared database. Each CREATE TABLE scans the schema, so its cost
# grows with the tables already there, while a database per table costs about
# 30 KB of fixed memory each; a new database every 256 tables keeps both flat.
_TABLES_PER_DB = 256

# The integers a cell can hold: SQLite's INTEGER is 64-bit.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# SQLite's default SQLITE_MAX_COLUMN: CREATE TABLE refuses a wider relation.
_MAX_COLUMNS = 2000

# SQLite folds the case of names in ASCII only: `T-1` is `t-1`, `É` is not `é`.
_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


class MaterializeError(ValueError):
    """The table cannot be represented in the engine (e.g. duplicate column
    names after lowercasing, or a name SQLite refuses)."""


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
    real columns stored as floats; None stays NULL. The cell must have
    passed ``check_cells``."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return value
    s = normalize_text(value)
    if col_type == "real":
        try:
            return float(s)
        except ValueError:
            return s
    return s


def column_names(tab: Table) -> list[str]:
    """The table's lowercased column names, as the engine names them.

    Raises ``MaterializeError`` for a table SQLite would refuse by its names
    alone: a table id with the reserved ``sqlite_`` prefix (in any ASCII
    case), a NUL character or a lone surrogate in the id or a header, or two
    headers that collide after lowercasing, since statements over such a
    table cannot name each column apart.
    """
    if tab.table_id[:7].translate(_ASCII_FOLD) == "sqlite_":
        raise MaterializeError(f"table {tab.table_id!r}: object name reserved for internal use")
    for name in (tab.table_id, *tab.headers):
        if "\x00" in name:
            raise MaterializeError(f"table {tab.table_id!r}: name {name!r} contains a null character")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MaterializeError(f"table {tab.table_id!r}: name {name!r}: {exc.reason}") from exc
    cols = [normalize_text(h) for h in tab.headers]
    if len(set(cols)) != len(cols):
        dupes = sorted({c for c in cols if cols.count(c) > 1})
        raise MaterializeError(
            f"table {tab.table_id!r}: duplicate column names after lowercasing: {dupes}"
        )
    if len(cols) > _MAX_COLUMNS:
        raise MaterializeError(f"table {tab.table_id!r}: {len(cols)} columns, more than {_MAX_COLUMNS}")
    return cols


def check_cells(tab: Table) -> None:
    """Raise ``MaterializeError`` for the first cell the engine cannot store:
    anything but a string, an integer, a float or ``None`` (a boolean, a
    list, a dict, a subclass of any of those), an integer outside 64 bits,
    or a string that is not UTF-8 text (a lone surrogate). One scan by
    exact type, as the loader checks a table's JSON types; converts
    nothing."""
    for row in tab.rows:
        for value in row:
            kind = type(value)
            if kind is str:
                if not value.isascii():
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise MaterializeError(f"table {tab.table_id!r}: {exc}") from exc
            elif kind is int:
                if not _INT64_MIN <= value <= _INT64_MAX:
                    raise MaterializeError(
                        f"table {tab.table_id!r}: integer cell {value} is outside the engine's 64-bit range"
                    )
            elif kind is not float and value is not None:
                if kind is bool:
                    raise MaterializeError(f"table {tab.table_id!r}: boolean cells are not supported")
                raise MaterializeError(
                    f"table {tab.table_id!r}: cell {value!r} is a {kind.__name__}, "
                    "not a string, a number or null"
                )


@dataclass(frozen=True, slots=True)
class TableDb:
    """A materialized table: the connection holding its relation and the
    table id that ``execute`` binds statements to. The connection may hold
    other tables; only this one is reachable through the handle."""

    conn: sqlite3.Connection
    table_id: str


def materialize(tab: Table, conn: sqlite3.Connection | None = None) -> TableDb:
    """Create one relation named by the table id, with lowercased column
    names, in ``conn``, or in a fresh in-memory database when none is given.

    A table the engine cannot hold (a name ``column_names`` refuses, a cell
    ``check_cells`` refuses) raises ``MaterializeError`` and leaves nothing
    behind in ``conn``.
    """
    cols = column_names(tab)
    check_cells(tab)
    rows = [tuple(_store_cell(v, t) for v, t in zip(row, tab.col_types)) for row in tab.rows]
    col_defs = ", ".join(f"{_quote(c)} {_SQL_TYPES[t]}" for c, t in zip(cols, tab.col_types))
    placeholders = ", ".join("?" for _ in cols)
    db = conn if conn is not None else sqlite3.connect(":memory:")
    try:
        with db:  # one transaction: committed whole or rolled back
            db.execute("BEGIN")
            db.execute(f"CREATE TABLE {_quote(tab.table_id)} ({col_defs})")
            db.executemany(f"INSERT INTO {_quote(tab.table_id)} VALUES ({placeholders})", rows)
    except sqlite3.Error as exc:
        if conn is None:
            db.close()
        raise MaterializeError(f"table {tab.table_id!r}: {exc}") from exc
    return TableDb(db, tab.table_id)


def _quote(ident: str) -> str:
    # Backticks, not double quotes: the engine silently reads an unknown
    # double-quoted identifier as a string literal, which would turn a
    # nonexistent-column query into a clean (wrong) result instead of a
    # runtime error. Backticked names always resolve as identifiers, and
    # unlike SQLite's brackets they can escape every character.
    return "`" + ident.replace("`", "``") + "`"


def execute(statement: SqlStatement | ParseFailure | str, db: TableDb) -> ExecResult:
    """Run one statement against a materialized table.

    Text is parsed with ``sql.parse`` first; text outside the dialect (a
    second statement, ``or``, ``*``, an unknown function or operator) comes
    back as a ``syntax error`` variant without reaching the engine, and so
    does a ``ParseFailure`` passed in by a caller that parsed the text. A
    statement naming any table but ``db``'s (compared with SQLite's ASCII-only
    case folding) is ``no such table: <id>``, worded as SQLite words it,
    though other tables share the database. Anything the engine rejects
    (unknown column, text it cannot encode) becomes an error variant too.
    """
    if isinstance(statement, str):
        statement = parse(statement)
    if isinstance(statement, ParseFailure):
        return ExecResult.from_error(
            f"syntax error at token {statement.token_index}: {statement.message}"
        )
    if statement.table_id != db.table_id and (
        statement.table_id.translate(_ASCII_FOLD) != db.table_id.translate(_ASCII_FOLD)
    ):
        return ExecResult.from_error(f"no such table: {statement.table_id}")
    try:
        cur = db.conn.execute(_render(statement, _quote))
        return ExecResult.from_rows(cur.fetchall())
    except (sqlite3.Error, sqlite3.Warning, UnicodeEncodeError) as exc:
        # A lone surrogate in a literal cannot be encoded for the engine.
        return ExecResult.from_error(str(exc))


class TableCache:
    """Materializes each table once, on demand, keyed by table id, and
    answers one-column probes without materializing (see ``probe``).

    Tables share in-memory databases, a new one every ``_TABLES_PER_DB``
    tables. Ids that SQLite would read as one name (equal up to ASCII case)
    go to different databases, so each resolves to its own relation.
    """

    def __init__(self):
        self._tables: dict[str, TableDb] = {}
        self._conns: list[sqlite3.Connection] = []
        self._names: set[str] = set()  # folded ids in the newest database
        self._checked: set[str] = set()  # ids of tables ``check`` passed
        self._probe_conn: sqlite3.Connection | None = None
        # Column type -> the (table id, column) its probe relation holds.
        self._probe_loaded: dict[str, tuple[str, int]] = {}

    def check(self, tab: Table) -> None:
        """Raise ``MaterializeError`` unless the engine can hold ``tab``, by
        its names and by its cells, as ``materialize`` would. Each table id
        is checked once."""
        if tab.table_id not in self._checked:
            column_names(tab)
            check_cells(tab)
            self._checked.add(tab.table_id)

    def probe(self, tab: Table, col: int, op: str, value) -> bool:
        """Whether ``select c from t where c <op> value`` returns a row, for
        column ``col`` of ``tab``; ``value`` is a condition value as
        ``compose`` makes it. An execution error counts as no row.

        The answer depends on the column's stored cells and declared type
        alone, so it comes from a one-column relation per column type,
        declared and filled as ``materialize`` would declare and fill that
        column and reloaded only when the probed (table id, column) changes.
        The WHERE clause is printed by ``_render``, as ``execute`` prints
        it, so SQLite applies the same affinity to the same literal text.
        The table is checked first (``check``), so a table ``materialize``
        would refuse is refused here too.
        """
        self.check(tab)
        col_type = tab.col_types[col]
        conn = self._probe_conn
        if conn is None:
            conn = self._probe_conn = sqlite3.connect(":memory:")
            for name, sql_type in _SQL_TYPES.items():
                conn.execute(f"CREATE TABLE {_quote(name)} (c {sql_type})")
        key = (tab.table_id, col)
        if self._probe_loaded.get(col_type) != key:
            with conn:  # one transaction
                conn.execute(f"DELETE FROM {_quote(col_type)}")
                conn.executemany(
                    f"INSERT INTO {_quote(col_type)} VALUES (?)",
                    [(_store_cell(row[col], col_type),) for row in tab.rows],
                )
            self._probe_loaded[col_type] = key
        stmt = SqlStatement(agg=AGG_NONE, sel_col="c", table_id=col_type, conds=(("c", op, value),))
        try:
            return conn.execute(_render(stmt, _quote)).fetchone() is not None
        except (sqlite3.Error, sqlite3.Warning, UnicodeEncodeError):
            return False

    def get(self, tab: Table) -> TableDb:
        db = self._tables.get(tab.table_id)
        if db is None:
            name = tab.table_id.translate(_ASCII_FOLD)
            if not self._conns or len(self._names) == _TABLES_PER_DB or name in self._names:
                self._conns.append(sqlite3.connect(":memory:"))
                self._names = set()
            db = materialize(tab, self._conns[-1])
            self._names.add(name)
            self._tables[tab.table_id] = db
        return db

    def close(self):
        for conn in self._conns:
            conn.close()
        if self._probe_conn is not None:
            self._probe_conn.close()
        self._conns.clear()
        self._tables.clear()
        self._names = set()
        self._checked.clear()
        self._probe_conn = None
        self._probe_loaded.clear()


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
    1e-9. An error variant never equals anything, itself included. This is
    the one gold rule of ``eval`` and ``eg``: a result compared with itself
    (a statement equal to its gold reuses the gold's result) is equal
    exactly when it is not an error. SQLite never returns NaN, so that
    check skips the rows without changing the answer.
    """
    if a is b:
        return not a.is_error
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
