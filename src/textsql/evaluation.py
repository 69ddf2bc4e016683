"""Execution-accuracy scoring and the error taxonomy.

Mistakes split into two families. Invalid: a predicted token cannot exist,
either a column absent from the schema or a condition value that does not
appear in the question, which is the hallucination signature. Wrong: every
token is legitimate but some slot disagrees with the gold query. One label
per example; when several slots misbehave the first in a fixed order wins
(aggregation, select column, where column, where operator, where value), so
counts are mutually exclusive and reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .data import LogicalForm, QuestionRecord, Table
from .engine import TableCache, agrees_with_gold, execute
from .normalize import format_number, normalize_question, normalize_text, round12
from .sql import AGG_TOKEN_INDEX, ParseFailure, RawStatement, SqlStatement, compose, parse_raw, resolve


class Kind(str, Enum):
    CORRECT = "Correct"
    PARSE_FAILURE = "ParseFailure"
    INVALID = "Invalid"
    WRONG = "Wrong"


class Slot(str, Enum):
    NONE = "none"
    AGG_FUNCTION = "agg_function"
    SELECT_COLUMN = "select_column"
    WHERE_COLUMN = "where_column"
    WHERE_OPER = "where_oper"
    WHERE_VALUE = "where_value"


# Tie-break order when several slots misbehave at once.
SLOT_ORDER = (
    Slot.AGG_FUNCTION,
    Slot.SELECT_COLUMN,
    Slot.WHERE_COLUMN,
    Slot.WHERE_OPER,
    Slot.WHERE_VALUE,
)

# Invalid where_value means hallucinated content rather than a schema slip.
_HALLUCINATION_SLOTS = frozenset({Slot.SELECT_COLUMN, Slot.WHERE_COLUMN, Slot.WHERE_VALUE})


@dataclass(frozen=True)
class ErrorClass:
    """One (kind, slot) label; slotless kinds carry Slot.NONE."""

    kind: Kind
    slot: Slot = Slot.NONE

    def __post_init__(self):
        slotless = self.kind in (Kind.CORRECT, Kind.PARSE_FAILURE)
        if slotless != (self.slot is Slot.NONE):
            raise ValueError(f"kind {self.kind.value} incompatible with slot {self.slot.value}")

    @property
    def label(self) -> str:
        if self.slot is Slot.NONE:
            return self.kind.value
        return f"{self.kind.value}/{self.slot.value}"


CORRECT = ErrorClass(Kind.CORRECT)
PARSE_FAILURE = ErrorClass(Kind.PARSE_FAILURE)
# The Invalid and Wrong labels, by slot.
_INVALID = {slot: ErrorClass(Kind.INVALID, slot) for slot in SLOT_ORDER}
_WRONG = {slot: ErrorClass(Kind.WRONG, slot) for slot in SLOT_ORDER}


def _value_forms(value) -> tuple[str, ...]:
    """Spellings under which a condition value counts as present in text."""
    if isinstance(value, str):
        return (normalize_question(value),)
    text = format_number(value)
    if isinstance(value, float) and value.is_integer():
        return (text, str(int(value)))
    return (text,)


def _header_set(tab: Table) -> frozenset[str]:
    """The table's lowercased column names, as ``TableDb.headers`` holds them."""
    return frozenset(map(normalize_text, tab.headers))


def _first_invalid(
    raw: RawStatement, stmt: SqlStatement | ParseFailure, headers: frozenset[str], question: str
) -> Slot | None:
    """First Invalid condition that fires, in the fixed slot order.

    ``stmt`` is ``resolve(raw)``: its failure at ``AGG_TOKEN_INDEX`` marks
    an unknown function, any other failure an unknown operator. ``headers``
    is the table's header set (``_header_set``); the parse lowercased the
    column names, so they are looked up as they are.
    """
    if isinstance(stmt, ParseFailure) and stmt.token_index == AGG_TOKEN_INDEX:
        return Slot.AGG_FUNCTION
    if raw.sel_col not in headers:
        return Slot.SELECT_COLUMN
    if any(col not in headers for col, _, _ in raw.conds):
        return Slot.WHERE_COLUMN
    if isinstance(stmt, ParseFailure):
        return Slot.WHERE_OPER
    if raw.conds:
        haystack = normalize_question(question)
        for _, _, value in raw.conds:
            if not any(form in haystack for form in _value_forms(value)):
                return Slot.WHERE_VALUE
    return None


def _cond_key(col: str, op: str, value) -> tuple:
    """Multiset key for one condition; numeric and text values never
    collide, and a number is keyed by its value, so ``3`` and ``3.0`` agree."""
    if isinstance(value, str):
        return (col, op, "s", value)
    return (col, op, "n", float(value))


def _first_wrong(pred: SqlStatement, gold: SqlStatement) -> Slot | None:
    """First differing slot, or None when the statements agree. Both are
    in normal form (see ``SqlStatement``), so names and string literals
    compare as they are. Whether the whole statements are equal is
    ``agrees_with_gold``'s question, asked once per prediction; the same
    conditions in the same order are equal multisets under ``_cond_key``,
    so that case skips the counting."""
    if pred.agg != gold.agg:
        return Slot.AGG_FUNCTION
    if pred.sel_col != gold.sel_col:
        return Slot.SELECT_COLUMN
    if pred.conds == gold.conds:
        return None
    if Counter(c for c, _, _ in pred.conds) != Counter(c for c, _, _ in gold.conds):
        return Slot.WHERE_COLUMN
    if Counter((c, op) for c, op, _ in pred.conds) != Counter((c, op) for c, op, _ in gold.conds):
        return Slot.WHERE_OPER
    if Counter(_cond_key(*c) for c in pred.conds) != Counter(_cond_key(*c) for c in gold.conds):
        return Slot.WHERE_VALUE
    return None


def classify_error(pred_text: str, gold: LogicalForm, tab: Table, question: str) -> ErrorClass:
    """Label one prediction against its gold logical form.

    Cascade: unparseable shape, then Invalid conditions (checked against the
    table and question only), then Wrong slots against the composed gold.
    """
    raw = parse_raw(pred_text)
    if isinstance(raw, ParseFailure):
        return PARSE_FAILURE
    return _classify(raw, resolve(raw), compose(gold, tab), _header_set(tab), question)


def _classify(
    raw: RawStatement, stmt: SqlStatement | ParseFailure, gold: SqlStatement, headers: frozenset[str], question: str
) -> ErrorClass:
    """``classify_error`` past the parse: ``stmt`` is ``resolve(raw)``,
    ``gold`` the composed gold statement and ``headers`` the table's header
    set."""
    invalid = _first_invalid(raw, stmt, headers, question)
    if invalid is not None:
        return _INVALID[invalid]
    wrong = _first_wrong(stmt, gold)
    if wrong is not None:
        return _WRONG[wrong]
    return CORRECT


def hallucination_flag(pred_text: str, tab: Table, question: str) -> bool:
    """True when the prediction invents a column or a condition value.

    Fires exactly when the Invalid cascade lands on a column or value slot;
    unparseable predictions are not counted as hallucinations.
    """
    raw = parse_raw(pred_text)
    if isinstance(raw, ParseFailure):
        return False
    return _first_invalid(raw, resolve(raw), _header_set(tab), question) in _HALLUCINATION_SLOTS


@dataclass(frozen=True)
class EvalReport:
    """Executable-accuracy score plus the taxonomy breakdown.

    ``error_counts`` partitions the examples: Correct, ParseFailure, and the
    Invalid/Wrong slots sum to n. ``exec_correct`` is kept as an integer so
    ``exec_accuracy`` is an exact fraction of n, 0.0 when there are none.
    ``hallucination_count`` is read off the labels: the examples that
    ``hallucination_flag`` would flag.
    """

    n: int
    exec_correct: int
    error_counts: dict[ErrorClass, int]

    @property
    def exec_accuracy(self) -> float:
        return self.exec_correct / self.n if self.n else 0.0

    @property
    def hallucination_count(self) -> int:
        return sum(self.count(_INVALID[slot]) for slot in _HALLUCINATION_SLOTS)

    def count(self, cls: ErrorClass) -> int:
        return self.error_counts.get(cls, 0)


def execution_accuracy(
    preds: Sequence[str],
    golds: Iterable[SqlStatement],
    records: Sequence[QuestionRecord],
    tables: Mapping[str, Table],
    cache: TableCache,
) -> EvalReport:
    """Execute every prediction against its gold and tally the taxonomy.

    ``golds`` are the records' composed golds, in record order. They are
    read one at a time, in step with the predictions, so an iterator that
    composes each as it is asked for holds none of them. Each prediction
    is parsed once; the statement feeds both the taxonomy and the
    execution, so a prediction outside the dialect is never executed and
    scores zero. Every other prediction runs, and ``agrees_with_gold``
    scores it: its gold runs only when a prediction that executed is not
    equal to it. Each score is the one executing both statements would
    give. A missing table is a data error and raises; so does a count of
    golds other than the predictions'.
    """
    if len(preds) != len(records):
        raise ValueError(f"misaligned inputs: {len(preds)} preds, {len(records)} records")
    exec_correct = 0
    counts: Counter[ErrorClass] = Counter()
    for pred, gold_stmt, rec in zip(preds, golds, records, strict=True):
        tab = tables.get(rec.table_id)
        if tab is None:
            raise ValueError(f"no table {rec.table_id!r} for record {rec.question!r}")
        # Materialized even for a prediction that is never executed, so a
        # table the engine cannot hold is a data error whatever is predicted.
        db = cache.get(tab)
        raw = parse_raw(pred)
        if isinstance(raw, ParseFailure):
            counts[PARSE_FAILURE] += 1
            continue
        stmt = resolve(raw)
        label = _classify(raw, stmt, gold_stmt, db.headers, rec.question)
        counts[label] += 1
        if not isinstance(stmt, ParseFailure):
            exec_correct += agrees_with_gold(stmt, execute(stmt, db), gold_stmt, db)
    return EvalReport(len(preds), exec_correct, dict(counts))


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view with the Invalid/Wrong slot grid spelled out."""
    grid = {
        kind.value: {slot.value: report.count(ErrorClass(kind, slot)) for slot in SLOT_ORDER}
        for kind in (Kind.INVALID, Kind.WRONG)
    }
    return {
        "n": report.n,
        "exec_correct": report.exec_correct,
        "exec_accuracy": round12(report.exec_accuracy),
        "hallucination_count": report.hallucination_count,
        "counts": {
            "Correct": report.count(CORRECT),
            "ParseFailure": report.count(PARSE_FAILURE),
            **grid,
        },
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def render_report_table(report: EvalReport) -> str:
    """Fixed-width text table: one row per slot, Invalid and Wrong columns."""
    lines = [
        f"{'n':<16}{report.n:>10}",
        f"{'exec_accuracy':<16}{report.exec_accuracy:>10.12g}",
        f"{'correct':<16}{report.count(CORRECT):>10}",
        f"{'parse_failure':<16}{report.count(PARSE_FAILURE):>10}",
        f"{'hallucinations':<16}{report.hallucination_count:>10}",
        "",
        f"{'slot':<16}{'Invalid':>10}{'Wrong':>10}",
    ]
    for slot in SLOT_ORDER:
        inv = report.count(ErrorClass(Kind.INVALID, slot))
        wrong = report.count(ErrorClass(Kind.WRONG, slot))
        lines.append(f"{slot.value:<16}{inv:>10}{wrong:>10}")
    return "\n".join(lines) + "\n"
