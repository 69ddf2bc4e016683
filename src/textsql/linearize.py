"""Model input serialization: baseline, type-augmented, and row-sampled
regimes, plus train-time token dropout.

The baseline regime is::

    <bos>question<sep>table-id<sep>col1<sep>col2<sep>...coln<eos>

The augmented regime interleaves a type tag after each column name and, when
row sampling is on, the cell values from the first k rows of that column::

    <bos>question<sep>table-id<sep>col1<sep>type1<sep>cell[0,1]<sep>cell[1,1]<sep>col2<sep>...<eos>

The three markers are fixed class constants of ``LinearizeConfig``.
Everything except the table id is lowercased and the question's whitespace
runs collapse to one space (``normalize_question``); the table id is
emitted verbatim. All functions are pure; dropout takes an explicit seeded
random source so parallel workers can use independent streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from .data import Table
from .normalize import cell_text, normalize_question


class LinearizeError(ValueError):
    pass


@dataclass(frozen=True)
class LinearizeConfig:
    bos: ClassVar[str] = "<bos>"
    sep: ClassVar[str] = "<sep>"
    eos: ClassVar[str] = "<eos>"

    include_types: bool = False
    sample_rows: int = 0
    dropout_enabled: bool = False
    # Sample cells longer than this are hard-truncated (no ellipsis marker)
    # to keep inputs bounded.
    max_cell_len: int = 32

    def __post_init__(self):
        if self.sample_rows < 0:
            raise ValueError("sample_rows must be >= 0")
        if self.max_cell_len < 1:
            raise ValueError("max_cell_len must be >= 1")


@dataclass(frozen=True)
class LinearizedExample:
    """An (input, target) pair ready for a model; target is a rendered
    statement in the SQL wire format."""

    input: str
    target: str


def _cell(value, cfg: LinearizeConfig) -> str:
    if value is None:
        return ""
    return cell_text(value)[: cfg.max_cell_len]


def linearize_baseline(question: str, tab: Table, cfg: LinearizeConfig) -> str:
    """Question, table id, and column names only."""
    if cfg.include_types or cfg.sample_rows != 0:
        raise LinearizeError("baseline mode requires include_types=False and sample_rows=0")
    parts = [normalize_question(question), tab.table_id]
    parts.extend(h.lower() for h in tab.headers)
    return cfg.bos + cfg.sep.join(parts) + cfg.eos


def linearize_augmented(question: str, tab: Table, cfg: LinearizeConfig) -> str:
    """Column names interleaved with type tags and, per column, cell values
    from the first ``sample_rows`` rows (clamped to the row count)."""
    if not cfg.include_types:
        raise LinearizeError("augmented mode requires include_types=True")
    k = min(cfg.sample_rows, tab.n_rows)
    parts = [normalize_question(question), tab.table_id]
    for j, (header, col_type) in enumerate(zip(tab.headers, tab.col_types)):
        parts.append(header.lower())
        parts.append(col_type)
        for r in range(k):
            parts.append(_cell(tab.rows[r][j], cfg))
    return cfg.bos + cfg.sep.join(parts) + cfg.eos


def linearize(question: str, tab: Table, cfg: LinearizeConfig) -> str:
    """Dispatch on the configured regime."""
    if cfg.include_types:
        return linearize_augmented(question, tab, cfg)
    return linearize_baseline(question, tab, cfg)


def _split_fields(text: str, cfg: LinearizeConfig) -> list[str]:
    if not text.startswith(cfg.bos) or not text.endswith(cfg.eos):
        raise LinearizeError("input does not carry the bos/eos markers")
    body = text[len(cfg.bos) : len(text) - len(cfg.eos)]
    return body.split(cfg.sep)


def token_dropout(text: str, rng: random.Random, cfg: LinearizeConfig) -> str:
    """Remove exactly one droppable token, chosen uniformly.

    A droppable token is a whitespace-delimited word outside the table-id
    field; bos/sep/eos and the table id are preserved. With zero droppable
    tokens the input is returned unchanged. Deterministic given the rng
    state.
    """
    fields = _split_fields(text, cfg)
    words_per_field = [f.split() for f in fields]
    droppable = [
        (fi, wi)
        for fi, words in enumerate(words_per_field)
        if fi != 1
        for wi in range(len(words))
    ]
    if not droppable:
        return text
    fi, wi = droppable[rng.randrange(len(droppable))]
    del words_per_field[fi][wi]
    rebuilt = [
        fields[1] if fi2 == 1 else " ".join(words)
        for fi2, words in enumerate(words_per_field)
    ]
    return cfg.bos + cfg.sep.join(rebuilt) + cfg.eos


@dataclass(frozen=True)
class LinearizedFields:
    """Structured view recovered from a linearized string."""

    question: str
    table_id: str
    headers: tuple[str, ...]
    types: tuple[str, ...] = ()
    samples: tuple[tuple[str, ...], ...] = ()


def delinearize(text: str, cfg: LinearizeConfig, k: int | None = None) -> LinearizedFields:
    """Recover the structured fields from a linearized string.

    ``k`` is the per-column sample count actually emitted (the configured
    count clamped to the source row count); it defaults to
    ``cfg.sample_rows``. Recovery assumes the question contains no sep
    token; callers flag records violating that.
    """
    fields = _split_fields(text, cfg)
    if len(fields) < 2:
        raise LinearizeError("expected at least a question and a table id")
    question, table_id, rest = fields[0], fields[1], fields[2:]
    if not cfg.include_types:
        return LinearizedFields(question=question, table_id=table_id, headers=tuple(rest))
    k = cfg.sample_rows if k is None else k
    group = 2 + k
    if not rest or len(rest) % group != 0:
        raise LinearizeError(
            f"cannot split {len(rest)} fields into (name, type, {k} samples) groups"
        )
    headers, types, samples = [], [], []
    for g in range(0, len(rest), group):
        headers.append(rest[g])
        types.append(rest[g + 1])
        samples.append(tuple(rest[g + 2 : g + group]))
    return LinearizedFields(
        question=question,
        table_id=table_id,
        headers=tuple(headers),
        types=tuple(types),
        samples=tuple(samples),
    )


def build_example(
    question: str,
    tab: Table,
    target: str,
    cfg: LinearizeConfig,
    rng: random.Random | None = None,
) -> LinearizedExample:
    """Produce one input/target pair, applying dropout when enabled."""
    text = linearize(question, tab, cfg)
    if cfg.dropout_enabled:
        if rng is None:
            raise LinearizeError("dropout requires a seeded random source")
        text = token_dropout(text, rng, cfg)
    return LinearizedExample(input=text, target=target)
