"""Ingestion of WikiSQL-format question and table files.

Both inputs are newline-delimited JSON. The tables file carries one object
per line with keys ``id``, ``header``, ``types``, ``rows``; the questions
file carries ``phase``, ``table_id``, ``question``, and ``sql`` (an object
with ``sel``, ``agg``, ``conds``). Loading checks the JSON type of every
field; whether a gold logical form fits its table is ``sql.compose``'s
rule, the only one.

Loading is single-threaded per file. Loaded objects are frozen, slotted (no
per-instance dict) and may be shared freely across threads afterward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

COLUMN_TYPES = ("text", "real")

# Canonical WikiSQL aggregation and operator tables. Index 0 renders no
# aggregation; operator index 3 ("OP") is accepted at load time but rejected
# by the composer because it never appears in valid annotations.
AGG_NAMES = ("", "max", "min", "count", "sum", "avg")
AGG_NONE, AGG_MAX, AGG_MIN, AGG_COUNT, AGG_SUM, AGG_AVG = range(6)
OP_NAMES = ("=", ">", "<", "OP")
OP_EQ, OP_GT, OP_LT, OP_OTHER = range(4)

Cell = str | int | float | None


class DataError(ValueError):
    """Unusable input: the base class of every library error that bad data
    raises, and what the CLI reports as a data error (exit code 2)."""


class DataFormatError(DataError):
    """A malformed input file; carries the path and 1-based line number."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        # Without a path, the line number is not named either.
        at = "" if line is None else f":{line}"
        super().__init__(message if self.path is None else f"{message} ({self.path}{at})")


@dataclass(frozen=True, slots=True)
class Table:
    """A single source table: id, column names, column types, and row data."""

    table_id: str
    headers: tuple[str, ...]
    col_types: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        if not self.table_id:
            raise ValueError("table_id must be non-empty")
        if not all(isinstance(h, str) and h for h in self.headers):
            raise ValueError("headers must be non-empty strings")
        if len(self.headers) != len(self.col_types):
            raise ValueError(
                f"table {self.table_id!r}: {len(self.headers)} headers but "
                f"{len(self.col_types)} column types"
            )
        bad = [t for t in self.col_types if t not in COLUMN_TYPES]
        if bad:
            raise ValueError(f"table {self.table_id!r}: unknown column types {bad}")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.headers):
                raise ValueError(
                    f"table {self.table_id!r}: row {i} has {len(row)} cells, "
                    f"expected {len(self.headers)}"
                )

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, slots=True)
class Condition:
    """One where-clause triple: column index, operator index, literal value."""

    col: int
    op: int
    value: str | int | float


@dataclass(frozen=True, slots=True)
class LogicalForm:
    """WikiSQL annotation: select column, aggregation, and conditions."""

    sel: int
    agg: int
    conds: tuple[Condition, ...] = ()


@dataclass(frozen=True, slots=True)
class QuestionRecord:
    phase: int
    table_id: str
    question: str
    lf: LogicalForm

    def __post_init__(self):
        if not self.question:
            raise ValueError("question must be non-empty")


def iter_jsonl(path: str | Path) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also too many digits or too deep
                    msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                    raise DataFormatError(f"invalid JSON: {msg}", path, lineno) from exc
                if not isinstance(obj, dict):
                    raise DataFormatError("line is not a JSON object", path, lineno)
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text ({exc.reason})", path, _undecodable_line(path)) from exc


def _undecodable_line(path: str | Path) -> int | None:
    """The first line, numbered as text-mode reading numbers it, holding
    bytes that are not UTF-8. Text mode decodes a chunk at a time, so the
    error itself cannot tell."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None


# The JSON types of the loaded fields, checked in one place: the loaders read
# every field through ``_require``, every condition through ``_condition`` and
# every table's rows through ``_rows``, so a wrongly typed field is a
# DataFormatError naming its line rather than a crash downstream or a silent
# coercion.
_JSON_TYPE_NAMES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
    list: "a list",
    dict: "an object",
}
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _require(obj: dict, key: str, path: str | Path, lineno: int, kind: type | None = None):
    """``obj[key]``, which must be present and, when ``kind`` is given, of
    exactly that JSON type, so that JSON ``true`` is not the index 1."""
    if key not in obj:
        raise DataFormatError(f"missing key {key!r}", path, lineno)
    value = obj[key]
    if kind is not None and type(value) is not kind:
        got = _JSON_TYPE_NAMES[type(value)]
        raise DataFormatError(f"{key!r} is not {_JSON_TYPE_NAMES[kind]}: got {got}", path, lineno)
    return value


def _condition(cond, i: int, path: str | Path, lineno: int) -> Condition:
    """One ``[column, operator, value]`` triple; both indices are integers.
    The indices' ranges and the value's type are the composer's concern."""
    if type(cond) is not list or len(cond) != 3:
        got = f"{len(cond)} elements" if type(cond) is list else _JSON_TYPE_NAMES[type(cond)]
        raise DataFormatError(
            f"condition {i} is not a [column, operator, value] list: got {got}", path, lineno
        )
    col, op, value = cond
    if type(col) is not int or type(op) is not int:
        name, index = ("column", col) if type(col) is not int else ("operator", op)
        got = _JSON_TYPE_NAMES[type(index)]
        raise DataFormatError(f"condition {i} {name} is not an integer: got {got}", path, lineno)
    return Condition(col, op, value)


def _rows(rows: list, path: str | Path, lineno: int) -> tuple[tuple[Cell, ...], ...]:
    """A table's rows: each a list whose cells are strings, numbers,
    booleans or null. Which of those the engine can store is
    ``check_cells``'s concern. The types are checked a table at a time,
    and the first offender looked for only when one is there."""
    lists = {list}.issuperset(map(type, rows))
    if not (lists and _SCALAR_TYPES.issuperset(map(type, chain.from_iterable(rows)))):
        for i, row in enumerate(rows):
            if type(row) is not list:
                got = _JSON_TYPE_NAMES[type(row)]
                raise DataFormatError(f"row {i} is not a list: got {got}", path, lineno)
            for j, cell in enumerate(row):
                if type(cell) not in _SCALAR_TYPES:
                    got = _JSON_TYPE_NAMES[type(cell)]
                    raise DataFormatError(f"row {i} cell {j} is not a scalar: got {got}", path, lineno)
    return tuple(map(tuple, rows))


def load_tables(path: str | Path) -> list[Table]:
    """Load a WikiSQL tables file; raises DataFormatError on malformed lines
    or duplicate table ids."""
    tables: list[Table] = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        table_id = _require(obj, "id", path, lineno, str)
        header = _require(obj, "header", path, lineno, list)
        types = _require(obj, "types", path, lineno, list)
        rows = _rows(_require(obj, "rows", path, lineno, list), path, lineno)
        try:
            table = Table(table_id=table_id, headers=tuple(header), col_types=tuple(types), rows=rows)
        except ValueError as exc:
            raise DataFormatError(str(exc), path, lineno) from exc
        if table.table_id in seen:
            raise DataFormatError(f"duplicate table_id {table.table_id!r}", path, lineno)
        seen.add(table.table_id)
        tables.append(table)
    return tables


def index_by_id(tables: Iterable[Table]) -> dict[str, Table]:
    index: dict[str, Table] = {}
    for t in tables:
        if t.table_id in index:
            raise ValueError(f"duplicate table_id {t.table_id!r}")
        index[t.table_id] = t
    return index


def load_questions(path: str | Path) -> list[QuestionRecord]:
    """Load a WikiSQL questions file, preserving file order."""
    records: list[QuestionRecord] = []
    for lineno, obj in iter_jsonl(path):
        phase = _require(obj, "phase", path, lineno)
        table_id = _require(obj, "table_id", path, lineno, str)
        question = _require(obj, "question", path, lineno, str)
        sql = _require(obj, "sql", path, lineno, dict)
        sel = _require(sql, "sel", path, lineno, int)
        agg = _require(sql, "agg", path, lineno, int)
        conds_raw = _require(sql, "conds", path, lineno, list)
        conds = tuple([_condition(c, i, path, lineno) for i, c in enumerate(conds_raw)])
        try:
            record = QuestionRecord(
                phase=phase,
                table_id=table_id,
                question=question,
                lf=LogicalForm(sel=sel, agg=agg, conds=conds),
            )
        except ValueError as exc:
            raise DataFormatError(str(exc), path, lineno) from exc
        records.append(record)
    return records


def dump_tables(tables: Iterable[Table]) -> str:
    """Re-serialize tables to the input JSONL shape (debug round-trip)."""
    lines = []
    for t in tables:
        lines.append(
            json.dumps(
                {
                    "id": t.table_id,
                    "header": list(t.headers),
                    "types": list(t.col_types),
                    "rows": [list(r) for r in t.rows],
                },
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
