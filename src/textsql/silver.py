"""Silver training-pair generation: random logical forms over real tables,
rendered to SQL, paired with questions from a pluggable generator.

Sampling guarantees that every statement executes cleanly on its own table
and that each condition alone matches at least one row: condition values are
drawn from actual cells that are neither null nor a NaN or infinity, and
inequality conditions are probed by the engine on the condition's column
alone (``TableCache.probe``), with bounded resampling (falling back to
equality, which always matches). A probe's literal comes from ``compose``'s
rule for condition values, and the probe builds no statement object. No
table is materialized.

The neural question generator is out of scope here; the
``QuestionGenerator`` protocol is its seam and a deterministic template
implementation stands in for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Protocol

from .data import (
    AGG_AVG,
    AGG_COUNT,
    AGG_MAX,
    AGG_MIN,
    AGG_NONE,
    AGG_SUM,
    Condition,
    DataError,
    LogicalForm,
    Table,
)
from .engine import TableCache
from .normalize import cell_text
from .sql import RENDER_OPS, SqlStatement, compose, condition_literal, render

# Inequality probes retry this many row draws before falling back to "=".
_PROBE_RETRIES = 8
# Resampling budget per silver example before a duplicate statement is kept.
_DEDUPE_RETRIES = 25


class SamplerError(DataError):
    """Nothing can be sampled: no table, no row or no usable cell, or an
    empty generated question."""


@dataclass(frozen=True)
class SamplerConfig:
    max_conds: int = 3
    allow_zero_conds: bool = True

    def __post_init__(self):
        if self.max_conds < 0:
            raise ValueError("max_conds must be >= 0")
        if self.max_conds == 0 and not self.allow_zero_conds:
            raise ValueError("max_conds 0 leaves no condition count when zero conditions are disallowed")


class QuestionGenerator(Protocol):
    """Anything that can phrase a statement as a natural-language question."""

    def question_for(self, stmt: SqlStatement, tab: Table) -> str: ...


_AGG_PHRASES = {
    AGG_NONE: "what is the {sel}",
    AGG_COUNT: "how many {sel}",
    AGG_MAX: "what is the highest {sel}",
    AGG_MIN: "what is the lowest {sel}",
    AGG_SUM: "what is the total {sel}",
    AGG_AVG: "what is the average {sel}",
}

_OP_PHRASES = {"=": "is", ">": "is more than", "<": "is less than"}


def template_question(stmt: SqlStatement, tab: Table) -> str:
    """Deterministic English question for a statement.

    Every condition value appears verbatim, so extraction-style training and
    evaluation stay well-posed. The table argument is accepted for interface
    parity with model-backed generators.
    """
    parts = [_AGG_PHRASES[stmt.agg].format(sel=stmt.sel_col)]
    for col, op, value in stmt.conds:
        parts.append(f"when {col} {_OP_PHRASES[op]} {cell_text(value)}")
    return " ".join(parts)


class TemplateQuestionGenerator:
    """Template-based stand-in for a reverse question-generation model."""

    def question_for(self, stmt: SqlStatement, tab: Table) -> str:
        return template_question(stmt, tab)


def _cond_matches(tab: Table, col: int, op_idx: int, value, cache: TableCache) -> bool:
    """True when the single condition selects at least one row, judged by the
    engine on the column's stored cells so the check shares its comparison
    semantics; an execution error counts as no match. The value becomes its
    literal by ``compose``'s rule (``condition_literal``)."""
    return cache.probe(tab, col, RENDER_OPS[op_idx], condition_literal(value))


def _usable(value) -> bool:
    """Whether a cell can be a condition value: a NaN or infinite cell has
    no SQL literal, so it counts as null."""
    return value is not None and (type(value) is not float or math.isfinite(value))


def _sample_value(tab: Table, col: int, rng: random.Random):
    """Pick a usable cell from the column, or None when the column has
    none."""
    for _ in range(_PROBE_RETRIES):
        value = tab.rows[rng.randrange(tab.n_rows)][col]
        if _usable(value):
            return value
    for row in tab.rows:
        if _usable(row[col]):
            return row[col]
    return None


def _sample_condition(tab: Table, rng: random.Random, cache: TableCache) -> Condition:
    col = rng.randrange(tab.n_cols)
    if tab.col_types[col] == "text":
        op = 0
    else:
        op = rng.randrange(3)
    value = _sample_value(tab, col, rng)
    if value is None:
        # No usable cell in the column: retry on a column that has one.
        candidates = [c for c in range(tab.n_cols) if any(_usable(r[c]) for r in tab.rows)]
        if not candidates:
            raise SamplerError(f"table {tab.table_id!r} has no non-null finite cells to sample")
        col = candidates[rng.randrange(len(candidates))]
        op = 0 if tab.col_types[col] == "text" else rng.randrange(3)
        value = _sample_value(tab, col, rng)
    if op != 0:
        for _ in range(_PROBE_RETRIES):
            if _cond_matches(tab, col, op, value, cache):
                break
            value = _sample_value(tab, col, rng)
        else:
            op = 0  # equality on an actual cell always matches
    return Condition(col=col, op=op, value=value)


def sample_logical_form(
    tab: Table,
    rng: random.Random,
    cfg: SamplerConfig,
    cache: TableCache,
) -> LogicalForm:
    """Draw one random logical form over the table.

    The select column is uniform over columns; the aggregation is uniform
    over all six slots but redrawn from the non-numeric ones when the select
    column is text, as ``compose`` refuses sum and avg on text; the
    condition count is uniform over 0..max_conds, or over 1..max_conds when
    zero is disallowed (``SamplerConfig`` then refuses a max_conds of 0).
    Deterministic given the rng state. Probes run in ``cache``.
    """
    if tab.n_rows == 0 or tab.n_cols == 0:
        raise SamplerError("cannot sample from empty table")
    sel = rng.randrange(tab.n_cols)
    agg = rng.randrange(6)
    if tab.col_types[sel] == "text" and agg in (AGG_SUM, AGG_AVG):
        agg = rng.randrange(4)
    n_conds = rng.randint(0 if cfg.allow_zero_conds else 1, cfg.max_conds)
    conds = tuple(_sample_condition(tab, rng, cache) for _ in range(n_conds))
    return LogicalForm(sel=sel, agg=agg, conds=conds)


@dataclass(frozen=True)
class SilverExample:
    question: str
    sql_text: str
    table_id: str
    lf: LogicalForm


@dataclass
class SilverRun:
    """Generated examples plus the run report."""

    examples: list[SilverExample] = field(default_factory=list)
    duplicates_kept: int = 0


def generate_silver(
    tables: list[Table],
    n: int,
    qg: QuestionGenerator,
    rng: random.Random,
    cfg: SamplerConfig,
    cache: TableCache,
) -> SilverRun:
    """Generate ``n`` silver (question, SQL, table) triples.

    Tables are chosen uniformly. Identical rendered statements are
    de-duplicated by resampling up to a retry bound, after which the
    duplicate is kept and counted in the run report. A table the engine
    cannot hold, by its names or by its cells, raises ``MaterializeError``
    before any sampling, since no statement over it could execute.
    """
    if not tables:
        raise SamplerError("no tables to sample from")
    for tab in tables:
        cache.check(tab)
    run = SilverRun()
    seen: set[str] = set()
    for _ in range(n):
        for _attempt in range(_DEDUPE_RETRIES):
            tab = tables[rng.randrange(len(tables))]
            lf = sample_logical_form(tab, rng, cfg, cache)
            stmt = compose(lf, tab)
            sql_text = render(stmt)
            if sql_text not in seen:
                break
        else:
            run.duplicates_kept += 1
        seen.add(sql_text)
        question = qg.question_for(stmt, tab)
        if not question:
            raise SamplerError("question generator returned an empty question")
        run.examples.append(
            SilverExample(question=question, sql_text=sql_text, table_id=tab.table_id, lf=lf)
        )
    return run
