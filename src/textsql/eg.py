"""Execution-guided candidate selection.

A generator proposes several SQL strings per question, best first. Instead
of trusting the top one, run them against the table's database and keep the
first that executes cleanly; an empty result set is a legitimate answer,
only text outside the SQL dialect and runtime errors disqualify. When every
candidate errors, fall back to the top candidate so each example still
yields a definite prediction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .data import Table
from .engine import ExecResult, TableCache, agrees_with_gold, execute
from .sql import ParseFailure, SqlStatement, parse


def error_kind(message: str) -> str:
    """Coarse bucket for an error message ``execute`` wrote, read off the
    start of the message, never from user text (a literal, a table id)
    further in. SQLite only runs statements the engine rendered, so its own
    parser messages (``incomplete input``) do not occur."""
    if message.startswith("syntax error"):
        return "malformed"
    if message.startswith("no such table: "):
        return "unknown_table"
    if message.startswith("no such column: "):
        return "unknown_column"
    return "other"


@dataclass(frozen=True, slots=True)
class CandidateOutcome:
    """Execution outcome of one tried candidate: its text, the statement
    parsed from it (a ``ParseFailure`` for text outside the dialect), the
    result of executing that statement, and ``kind``, the ``error_kind``
    of the result's error (None when it executed), bucketed once as the
    outcome is built."""

    index: int
    sql_text: str
    statement: SqlStatement | ParseFailure
    result: ExecResult
    kind: str | None = field(init=False)

    def __post_init__(self):
        error = self.result.error
        object.__setattr__(self, "kind", None if error is None else error_kind(error))

    @property
    def ok(self) -> bool:
        return self.kind is None

    @property
    def error(self) -> str | None:
        return self.result.error


@dataclass(frozen=True, slots=True)
class EgSelection:
    """The candidates tried for one beam, in order, and the one chosen: the
    last tried when it executed, else the top one."""

    chosen_index: int
    outcomes: tuple[CandidateOutcome, ...]

    @property
    def chosen_sql(self) -> str:
        return self.outcomes[self.chosen_index].sql_text

    @property
    def chosen_result(self) -> ExecResult:
        return self.outcomes[self.chosen_index].result

    @property
    def all_failed(self) -> bool:
        return not self.outcomes[-1].ok


def eg_select(beam: Sequence[str], tab: Table, cache: TableCache) -> EgSelection:
    """First candidate in ``beam`` (SQL texts, best first) that executes
    without a runtime error.

    Each tried candidate is parsed once and executed once; candidates after
    the winner are neither. On total failure the top candidate is chosen,
    with its error result. An empty beam is a ``ValueError``.
    """
    if not beam:
        raise ValueError("beam must be non-empty")
    db = cache.get(tab)
    outcomes: list[CandidateOutcome] = []
    for i, sql_text in enumerate(beam):
        stmt = parse(sql_text)
        res = execute(stmt, db)
        outcomes.append(CandidateOutcome(i, sql_text, stmt, res))
        if not res.is_error:
            return EgSelection(i, tuple(outcomes))
    return EgSelection(0, tuple(outcomes))


@dataclass(frozen=True)
class EgGainReport:
    """Top-1 versus execution-guided accuracy on one example set.

    Counts are integers so the accuracies and their delta are exact
    fractions of ``n``, 0.0 when there are no examples.
    """

    n: int
    correct_top1: int
    correct_eg: int
    dropped_by_kind: dict[str, int]
    all_failed_count: int
    selections: tuple[EgSelection, ...] = ()

    @property
    def accuracy_top1(self) -> float:
        return self.correct_top1 / self.n if self.n else 0.0

    @property
    def accuracy_eg(self) -> float:
        return self.correct_eg / self.n if self.n else 0.0

    @property
    def delta(self) -> float:
        return (self.correct_eg - self.correct_top1) / self.n if self.n else 0.0


def eg_gain(
    beams: Sequence[Sequence[str]],
    golds: Sequence[SqlStatement],
    tables: Sequence[Table],
    cache: TableCache,
) -> EgGainReport:
    """Score top-1 and execution-guided choices against gold executions.

    ``beams`` hold each example's candidate texts, best first; ``golds``
    are composed golds. All three sequences align index by index
    (one table per example; repeats are fine, the cache materializes each
    table once).
    Each beam is selected over once, and ``agrees_with_gold`` scores the
    chosen candidate: the gold runs after the selection, and only when the
    chosen candidate executed and is not equal to it, so an all-failed
    beam runs no gold. The top candidate is always tried first and is
    chosen whenever it executes, so top-1 is correct exactly when it
    executed and the selection is correct. The selections are returned in
    input order.
    """
    if len(beams) != len(golds):
        raise ValueError(f"got {len(beams)} beams for {len(golds)} golds")
    if len(tables) != len(golds):
        raise ValueError(f"got {len(tables)} tables for {len(golds)} golds")
    correct_top1 = 0
    correct_eg = 0
    dropped: Counter[str] = Counter()
    all_failed = 0
    selections = []
    for beam, gold_stmt, tab in zip(beams, golds, tables):
        selection = eg_select(beam, tab, cache)
        selections.append(selection)
        for outcome in selection.outcomes:
            if outcome.kind is not None:
                dropped[outcome.kind] += 1
        # ``outcome`` is the last tried: it executed unless every candidate failed.
        if outcome.kind is not None:
            all_failed += 1
            continue
        eg_ok = agrees_with_gold(outcome.statement, outcome.result, gold_stmt, cache.get(tab))
        correct_top1 += eg_ok and selection.chosen_index == 0
        correct_eg += eg_ok
    return EgGainReport(
        len(golds), correct_top1, correct_eg, dict(sorted(dropped.items())), all_failed, tuple(selections)
    )
