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
    if cfg.include_types:
        raise LinearizeError("baseline mode requires include_types=False and sample_rows=0")
    return linearize(question, tab, cfg)


def linearize_augmented(question: str, tab: Table, cfg: LinearizeConfig) -> str:
    """Column names interleaved with type tags and, per column, cell values
    from the first ``sample_rows`` rows (clamped to the row count)."""
    if not cfg.include_types:
        raise LinearizeError("augmented mode requires include_types=True")
    return linearize(question, tab, cfg)


def linearize(question: str, tab: Table, cfg: LinearizeConfig) -> str:
    """Dispatch on the configured regime."""
    return _join(_fields(question, tab, cfg), cfg)


def _fields(question: str, tab: Table, cfg: LinearizeConfig) -> list[str]:
    """The fields ``linearize`` joins with the sep marker; field 1 is the
    table id."""
    parts = [normalize_question(question), tab.table_id]
    if not cfg.include_types:
        if cfg.sample_rows != 0:
            raise LinearizeError("baseline mode requires include_types=False and sample_rows=0")
        parts.extend(h.lower() for h in tab.headers)
        return parts
    k = min(cfg.sample_rows, tab.n_rows)
    for j, (header, col_type) in enumerate(zip(tab.headers, tab.col_types)):
        parts.append(header.lower())
        parts.append(col_type)
        for r in range(k):
            parts.append(_cell(tab.rows[r][j], cfg))
    return parts


def _join(fields: list[str], cfg: LinearizeConfig) -> str:
    return cfg.bos + cfg.sep.join(fields) + cfg.eos


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
    state. The fields are found by splitting on the sep marker, so a
    question or header that holds the marker's text shifts them;
    ``build_example`` drops from the fields before they are joined.
    """
    return _join(_drop_word(_split_fields(text, cfg), rng), cfg)


def _drop_word(fields: list[str], rng: random.Random) -> list[str]:
    """Delete one word, chosen uniformly, from any field but the table id
    (field 1); the other fields are rejoined on single spaces."""
    words_per_field = [f.split() for f in fields]
    droppable = [
        (fi, wi)
        for fi, words in enumerate(words_per_field)
        if fi != 1
        for wi in range(len(words))
    ]
    if not droppable:
        return fields
    fi, wi = droppable[rng.randrange(len(droppable))]
    del words_per_field[fi][wi]
    return [
        fields[1] if fi2 == 1 else " ".join(words)
        for fi2, words in enumerate(words_per_field)
    ]


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
    """Produce one input/target pair, applying dropout when enabled. The
    dropped word never comes from the table id, whatever the question or
    headers hold."""
    fields = _fields(question, tab, cfg)
    if cfg.dropout_enabled:
        if rng is None:
            raise LinearizeError("dropout requires a seeded random source")
        fields = _drop_word(fields, rng)
    return LinearizedExample(input=_join(fields, cfg), target=target)
