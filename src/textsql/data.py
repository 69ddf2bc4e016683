"""Ingestion of WikiSQL-format question and table files.

Both inputs are newline-delimited JSON. The tables file carries one object
per line with keys ``id``, ``header``, ``types``, ``rows``; the questions
file carries ``phase``, ``table_id``, ``question``, and ``sql`` (an object
with ``sel``, ``agg``, ``conds``). Loading checks the JSON type of every
field; whether a gold logical form fits its table is ``sql.compose``'s
rule, the only one. Each question line gets one shape check, which builds
its record; only a line that fails it is walked field by field, and the
walk names the line's first bad field.

Loading is single-threaded per file. Loaded objects are frozen, slotted (no
per-instance dict) and may be shared freely across threads afterward.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

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


# Decodes the lines that hold one object with JSON whitespace after it, as
# ``json.loads`` would decode them.
_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"


def iter_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, each with its line end, split as text
    mode splits them: only a line feed, a carriage return or the two
    together end one, and each is read as a line feed. A byte-order mark at
    the start of the file and bytes that are not UTF-8 raise
    ``DataFormatError`` naming the line; a U+FEFF anywhere else is part of
    its line. An unreadable file raises ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            first = fh.readline()  # read, not sought back to: the file may be a pipe
            if first.startswith("\ufeff"):
                raise DataFormatError("byte-order mark at the start of the file", path, 1)
            if first:
                yield first
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text ({exc.reason})", path, _undecodable_line(path)) from exc


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """The objects of a JSONL file, read by ``iter_lines``, each with its
    1-based line number; blank lines are skipped. A line is decoded as
    ``json.loads`` decodes it, and a line that is not one JSON object
    raises ``DataFormatError`` naming the line."""
    for lineno, line in enumerate(iter_lines(path), start=1):
        try:
            obj, end = _DECODER.raw_decode(line)
        except (ValueError, RecursionError):
            obj = None
        if type(obj) is not dict or line[end:].strip(_JSON_SPACE):
            # Anything but an object at the line's start with only JSON
            # whitespace after it: ``json.loads`` decides, so each error
            # keeps its own message.
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


def _undecodable_line(path: str | Path) -> int | None:
    """The first line, numbered as text-mode reading numbers it, holding
    bytes that are not UTF-8. Text mode decodes a chunk at a time, so the
    error itself cannot tell, and the file is read again from its start.
    Only a regular file is: a pipe cannot be read twice, and opening a
    drained one again waits for a writer that may never come. Anything else,
    or a file no longer holding such a line, gives None."""
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None


# The JSON types of the loaded fields, named in one place: a bad field is
# found by ``_walk``, a bad condition by ``_condition`` and bad rows by
# ``_rows``, so a wrongly typed field is a DataFormatError naming its line
# rather than a crash downstream or a silent coercion.
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
# Each object's fields in reading order, with the JSON type each must have
# (None: any).
_TABLE_FIELDS = (("id", str), ("header", list), ("types", list), ("rows", list))
_QUESTION_FIELDS = (("phase", None), ("table_id", str), ("question", str), ("sql", dict))
_SQL_FIELDS = (("sel", int), ("agg", int), ("conds", list))


def _walk(obj: dict, spec: tuple, path: str | Path, lineno: int) -> list:
    """The values of ``spec``'s keys in ``obj``, in order. Each must be
    present and, when a type is given, of exactly that JSON type, so that
    JSON ``true`` is not the index 1; the first that is not raises."""
    for key, kind in spec:
        if key not in obj:
            raise DataFormatError(f"missing key {key!r}", path, lineno)
        if kind is not None and type(obj[key]) is not kind:
            got = _JSON_TYPE_NAMES[type(obj[key])]
            raise DataFormatError(f"{key!r} is not {_JSON_TYPE_NAMES[kind]}: got {got}", path, lineno)
    return [obj[key] for key, _ in spec]


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
        table_id, header, types, rows = _walk(obj, _TABLE_FIELDS, path, lineno)
        rows = _rows(rows, path, lineno)
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


def iter_questions(path: str | Path) -> Iterator[tuple[int, QuestionRecord]]:
    """The records of a WikiSQL questions file, each with its 1-based line
    number, in file order. A line is read only when its record is asked
    for, so a malformed line raises then."""
    for lineno, obj in iter_jsonl(path):
        yield lineno, _question_record(obj) or _walk_question(obj, path, lineno)


def _question_record(obj: dict) -> QuestionRecord | None:
    """The record of a well-formed question line after one shape check, or
    None for a line that ``_walk_question`` must explain."""
    try:
        phase, table_id, question, sql = obj["phase"], obj["table_id"], obj["question"], obj["sql"]
        sel, agg, conds_raw = sql["sel"], sql["agg"], sql["conds"]
    except (KeyError, TypeError):  # a missing key, or ``sql`` not an object
        return None
    if not (
        type(table_id) is str and type(question) is str and question
        and type(sql) is dict and type(sel) is int and type(agg) is int and type(conds_raw) is list
    ):
        return None
    conds = []
    for cond in conds_raw:
        if type(cond) is not list or len(cond) != 3:
            return None
        col, op, value = cond
        if type(col) is not int or type(op) is not int:
            return None
        conds.append(Condition(col, op, value))
    return QuestionRecord(phase, table_id, question, LogicalForm(sel, agg, tuple(conds)))


def _walk_question(obj: dict, path: str | Path, lineno: int) -> QuestionRecord:
    """A question line read field by field, in the order a reader sees
    them: the first bad field raises ``DataFormatError`` naming the line."""
    phase, table_id, question, sql = _walk(obj, _QUESTION_FIELDS, path, lineno)
    sel, agg, conds_raw = _walk(sql, _SQL_FIELDS, path, lineno)
    conds = tuple([_condition(c, i, path, lineno) for i, c in enumerate(conds_raw)])
    try:
        return QuestionRecord(
            phase=phase,
            table_id=table_id,
            question=question,
            lf=LogicalForm(sel=sel, agg=agg, conds=conds),
        )
    except ValueError as exc:
        raise DataFormatError(str(exc), path, lineno) from exc


def load_questions(path: str | Path) -> list[QuestionRecord]:
    """Load a WikiSQL questions file, preserving file order."""
    return [rec for _, rec in iter_questions(path)]


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
