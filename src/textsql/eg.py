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
from dataclasses import dataclass
from typing import Sequence

from .data import LogicalForm, Table
from .engine import ExecResult, TableCache, execute, results_equal
from .sql import SqlStatement, compose, parse

DEFAULT_BEAM_WIDTH = 3


@dataclass(frozen=True)
class CandidateList:
    """Ranked SQL candidates for one question.

    ``candidates`` are SQL texts, best first; only the first ``beam_width``
    take part in selection.
    """

    candidates: tuple[str, ...]
    beam_width: int = DEFAULT_BEAM_WIDTH

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("candidate list must be non-empty")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")

    @classmethod
    def from_texts(cls, texts: Sequence[str], beam_width: int = DEFAULT_BEAM_WIDTH) -> "CandidateList":
        """Wrap any sequence of texts, best first."""
        return cls(tuple(texts), beam_width=beam_width)

    def beam(self) -> tuple[str, ...]:
        return self.candidates[: self.beam_width]


def error_kind(message: str) -> str:
    """Coarse bucket for an execution error message."""
    m = message.lower()
    if "no such column" in m:
        return "unknown_column"
    if "no such table" in m:
        return "unknown_table"
    if "syntax error" in m or "unrecognized token" in m or "incomplete input" in m:
        return "malformed"
    return "other"


@dataclass(frozen=True, slots=True)
class CandidateOutcome:
    """Execution outcome of one tried candidate."""

    index: int
    sql_text: str
    ok: bool
    error: str | None

    @property
    def kind(self) -> str | None:
        return None if self.ok else error_kind(self.error or "")


@dataclass(frozen=True, slots=True)
class EgSelection:
    chosen_sql: str
    chosen_index: int
    all_failed: bool
    outcomes: tuple[CandidateOutcome, ...]
    chosen_result: ExecResult


def eg_select(
    cands: CandidateList,
    tab: Table,
    cache: TableCache | None = None,
    *,
    gold: tuple[SqlStatement, ExecResult] | None = None,
) -> EgSelection:
    """First candidate in the beam that executes without a runtime error.

    Each tried candidate is parsed once. Candidates after the winner are not
    executed. ``gold`` is a statement already executed on ``tab`` with its
    result: a candidate equal to it (the same rendered text, see
    ``SqlStatement``) takes that result object instead of running again. On
    total failure the top candidate is returned with ``all_failed`` set and
    its error result.
    """
    cache = cache if cache is not None else TableCache()
    db = cache.get(tab)
    gold_stmt, gold_res = gold if gold is not None else (None, None)
    outcomes: list[CandidateOutcome] = []
    results: list[ExecResult] = []
    for i, sql_text in enumerate(cands.beam()):
        stmt = parse(sql_text)
        res = gold_res if stmt == gold_stmt else execute(stmt, db)
        results.append(res)
        outcomes.append(CandidateOutcome(index=i, sql_text=sql_text, ok=not res.is_error, error=res.error))
        if not res.is_error:
            return EgSelection(
                chosen_sql=sql_text,
                chosen_index=i,
                all_failed=False,
                outcomes=tuple(outcomes),
                chosen_result=res,
            )
    return EgSelection(
        chosen_sql=cands.candidates[0],
        chosen_index=0,
        all_failed=True,
        outcomes=tuple(outcomes),
        chosen_result=results[0],
    )


@dataclass(frozen=True)
class EgGainReport:
    """Top-1 versus execution-guided accuracy on one example set.

    Counts are integers so accuracy deltas derived from them are exact
    fractions of n rather than differences of rounded floats.
    """

    n: int
    correct_top1: int
    correct_eg: int
    accuracy_top1: float
    accuracy_eg: float
    delta: float
    dropped_by_kind: dict[str, int]
    all_failed_count: int
    selections: tuple[EgSelection, ...]


def eg_gain(
    pred_sets: Sequence[CandidateList],
    golds: Sequence[LogicalForm],
    tables: Sequence[Table],
    cache: TableCache | None = None,
) -> EgGainReport:
    """Score top-1 and execution-guided choices against gold executions.

    All three sequences align index by index (one table per example;
    repeats are fine, the cache materializes each table once).
    Each gold is executed once and each beam is selected over once, with
    the gold's result passed in, so a tried candidate equal to the gold is
    not executed; ``results_equal`` decides correctness. The top candidate
    is always tried first and is chosen whenever it executes, so top-1 is
    correct exactly when it executed and the selection is correct. The
    selections are returned in input order.
    """
    if len(pred_sets) != len(golds):
        raise ValueError(f"got {len(pred_sets)} candidate lists for {len(golds)} golds")
    if len(tables) != len(golds):
        raise ValueError(f"got {len(tables)} tables for {len(golds)} golds")
    cache = cache if cache is not None else TableCache()
    correct_top1 = 0
    correct_eg = 0
    dropped: Counter[str] = Counter()
    all_failed = 0
    selections = []
    for cands, gold, tab in zip(pred_sets, golds, tables):
        gold_stmt = compose(gold, tab)
        gold_res = execute(gold_stmt, cache.get(tab))
        selection = eg_select(cands, tab, cache, gold=(gold_stmt, gold_res))
        selections.append(selection)
        eg_ok = results_equal(selection.chosen_result, gold_res)
        correct_top1 += eg_ok and selection.outcomes[0].ok
        correct_eg += eg_ok
        all_failed += selection.all_failed
        for outcome in selection.outcomes:
            if not outcome.ok:
                dropped[outcome.kind] += 1
    n = len(golds)
    return EgGainReport(
        n=n,
        correct_top1=correct_top1,
        correct_eg=correct_eg,
        accuracy_top1=correct_top1 / n if n else 0.0,
        accuracy_eg=correct_eg / n if n else 0.0,
        delta=(correct_eg - correct_top1) / n if n else 0.0,
        dropped_by_kind=dict(sorted(dropped.items())),
        all_failed_count=all_failed,
        selections=tuple(selections),
    )
