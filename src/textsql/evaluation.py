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
from .engine import TableCache, execute, results_equal
from .normalize import format_number, normalize_question, normalize_text
from .sql import ParseFailure, RawStatement, SqlStatement, compose, parse_raw, resolve


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


def _value_forms(value) -> tuple[str, ...]:
    """Spellings under which a condition value counts as present in text."""
    if isinstance(value, str):
        return (normalize_question(value),)
    text = format_number(value)
    if isinstance(value, float) and value.is_integer():
        return (text, str(int(value)))
    return (text,)


def _first_invalid(
    raw: RawStatement, stmt: SqlStatement | ParseFailure, tab: Table, question: str
) -> Slot | None:
    """First Invalid condition that fires, in the fixed slot order.

    ``stmt`` is ``resolve(raw)``: its failure at the aggregation token marks
    an unknown function, any other failure an unknown operator.
    """
    headers = {normalize_text(h) for h in tab.headers}
    if isinstance(stmt, ParseFailure) and stmt.token_index == raw.agg_index:
        return Slot.AGG_FUNCTION
    if normalize_text(raw.sel_col) not in headers:
        return Slot.SELECT_COLUMN
    if any(normalize_text(col) not in headers for col, _, _ in raw.conds):
        return Slot.WHERE_COLUMN
    if isinstance(stmt, ParseFailure):
        return Slot.WHERE_OPER
    haystack = normalize_question(question)
    for _, _, value in raw.conds:
        if not any(form in haystack for form in _value_forms(value)):
            return Slot.WHERE_VALUE
    return None


def _cond_key(col: str, op: str, value) -> tuple:
    """Multiset key for one condition; numeric and text values never collide."""
    if isinstance(value, str):
        return (normalize_text(col), op, "s", normalize_text(value))
    return (normalize_text(col), op, "n", float(value))


def _first_wrong(pred: SqlStatement, gold: SqlStatement) -> Slot | None:
    """First differing slot, or None when the statements agree."""
    if pred == gold:
        return None
    if pred.agg != gold.agg:
        return Slot.AGG_FUNCTION
    if normalize_text(pred.sel_col) != normalize_text(gold.sel_col):
        return Slot.SELECT_COLUMN
    pred_conds = [(normalize_text(c), op, v) for c, op, v in pred.conds]
    gold_conds = [(normalize_text(c), op, v) for c, op, v in gold.conds]
    if Counter(c for c, _, _ in pred_conds) != Counter(c for c, _, _ in gold_conds):
        return Slot.WHERE_COLUMN
    if Counter((c, op) for c, op, _ in pred_conds) != Counter((c, op) for c, op, _ in gold_conds):
        return Slot.WHERE_OPER
    if Counter(_cond_key(*c) for c in pred_conds) != Counter(_cond_key(*c) for c in gold_conds):
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
    return _classify(raw, resolve(raw), compose(gold, tab), tab, question)


def _classify(
    raw: RawStatement, stmt: SqlStatement | ParseFailure, gold: SqlStatement, tab: Table, question: str
) -> ErrorClass:
    """``classify_error`` past the parse: ``stmt`` is ``resolve(raw)`` and
    ``gold`` the composed gold statement."""
    invalid = _first_invalid(raw, stmt, tab, question)
    if invalid is not None:
        return ErrorClass(Kind.INVALID, invalid)
    wrong = _first_wrong(stmt, gold)
    if wrong is not None:
        return ErrorClass(Kind.WRONG, wrong)
    return CORRECT


def hallucination_flag(pred_text: str, tab: Table, question: str) -> bool:
    """True when the prediction invents a column or a condition value.

    Fires exactly when the Invalid cascade lands on a column or value slot;
    unparseable predictions are not counted as hallucinations.
    """
    raw = parse_raw(pred_text)
    if isinstance(raw, ParseFailure):
        return False
    return _first_invalid(raw, resolve(raw), tab, question) in _HALLUCINATION_SLOTS


@dataclass(frozen=True)
class EvalReport:
    """Executable-accuracy score plus the taxonomy breakdown.

    ``error_counts`` partitions the examples: Correct, ParseFailure, and the
    Invalid/Wrong slots sum to n. ``exec_correct`` is kept as an integer so
    derived fractions stay exact.
    """

    n: int
    exec_correct: int
    exec_accuracy: float
    error_counts: dict[ErrorClass, int]
    hallucination_count: int

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
    scores zero. The gold is executed once per prediction in the dialect,
    and a prediction equal to its gold (the same rendered text, see
    ``SqlStatement``) takes the gold's result instead of running again;
    ``results_equal`` decides correctness. A missing table is a data error
    and raises; so does a count of golds other than the predictions'.
    """
    if len(preds) != len(records):
        raise ValueError(f"misaligned inputs: {len(preds)} preds, {len(records)} records")
    exec_correct = 0
    halluc = 0
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
        label = _classify(raw, stmt, gold_stmt, tab, rec.question)
        counts[label] += 1
        # Same as hallucination_flag, read off the label without a reparse.
        halluc += label.kind is Kind.INVALID and label.slot in _HALLUCINATION_SLOTS
        if not isinstance(stmt, ParseFailure):
            gold_res = execute(gold_stmt, db)
            exec_correct += results_equal(gold_res if stmt == gold_stmt else execute(stmt, db), gold_res)
    n = len(preds)
    return EvalReport(
        n=n,
        exec_correct=exec_correct,
        exec_accuracy=exec_correct / n if n else 0.0,
        error_counts=dict(counts),
        hallucination_count=halluc,
    )


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view with the Invalid/Wrong slot grid spelled out."""
    grid = {
        kind.value: {slot.value: report.count(ErrorClass(kind, slot)) for slot in SLOT_ORDER}
        for kind in (Kind.INVALID, Kind.WRONG)
    }
    return {
        "n": report.n,
        "exec_correct": report.exec_correct,
        "exec_accuracy": float(f"{report.exec_accuracy:.12g}"),
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
