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
emitted verbatim.

Everything after the question depends only on the table and the config, so
``build_example`` builds that part once per table when given a cache and
reuses it for the table's later questions. Dropout deletes one word, drawn
by one ``randrange`` over the droppable words (the question's and the
table part's, never the table id's); the table part is kept with its
fields collapsed to single spaces and the offsets of its fields, so only
the question or the one field the word is in is split again. The functions
have no state of their own; dropout takes an explicit seeded random source
so parallel workers can use independent streams.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

from .data import DataError, Table
from .normalize import cell_text, normalize_question, normalize_text


class LinearizeError(DataError):
    """A table, a config or a model input that the serializer refuses."""


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


def linearize(question: str, tab: Table, cfg: LinearizeConfig) -> str:
    """The model input for ``question`` over ``tab``, in the regime ``cfg``
    sets: the baseline one without type tags, the augmented one with them."""
    text, _, _ = _table_text(_table_fields(tab, cfg), collapse=False)
    return cfg.bos + normalize_question(question) + text


def _table_fields(tab: Table, cfg: LinearizeConfig) -> list[str]:
    """The table id and the fields that follow it in an input. Sampled
    cells are cut to ``max_cell_len``; a null cell is an empty field."""
    fields = [tab.table_id]
    if not cfg.include_types:
        if cfg.sample_rows != 0:
            raise LinearizeError("baseline mode requires include_types=False and sample_rows=0")
        fields += [normalize_text(h) for h in tab.headers]
        return fields
    n, width = cfg.max_cell_len, tab.n_cols
    try:
        cells = ["" if v is None else cell_text(v)[:n] for row in tab.rows[: cfg.sample_rows] for v in row]
    except TypeError as exc:
        raise LinearizeError(f"table {tab.table_id!r}: {exc}") from exc
    for j, (header, col_type) in enumerate(zip(tab.headers, tab.col_types)):
        fields += (normalize_text(header), col_type, *cells[j::width])
    return fields


def _table_text(fields: list[str], collapse: bool) -> tuple[str, array, array]:
    """The part of an input after the question, ``<sep>table-id<sep>...<eos>``,
    from the table id and the fields after it.

    With ``collapse``, each field after the id is written with its whitespace
    runs collapsed to one space, as an input with a dropped word shows it.
    Then the first array holds, for the id and for each field, the offset in
    the text where it ends, and the second, for each field after the id, the
    number of words in it and the fields before it. The table id is written
    verbatim and has no droppable words.
    """
    sep = LinearizeConfig.sep
    if not collapse:
        return "".join([sep + f for f in fields]) + LinearizeConfig.eos, array("I"), array("I")
    words = list(map(str.split, fields[1:]))
    pieces = [sep + f for f in [*fields[:1], *map(" ".join, words)]]
    ends = array("I", accumulate(map(len, pieces)))
    return "".join(pieces) + LinearizeConfig.eos, ends, array("I", accumulate(map(len, words)))


def _drop_one(question: str, table_text: tuple[str, array, array], rng: random.Random) -> str | None:
    """``<bos>question`` and a collapsed table text with one word deleted,
    chosen by one ``rng.randrange`` over the question's words and the table
    text's; None, with no draw made, when neither has a word. Only the
    question or the one field the word is in is split and joined again, so
    the question's words must be separated by single spaces."""
    text, ends, counts = table_text
    n_question = question.count(" ") + 1 if question else 0
    total = n_question + (counts[-1] if counts else 0)
    if not total:
        return None
    k = rng.randrange(total)
    if k < n_question:
        words = question.split(" ")
        del words[k]
        return LinearizeConfig.bos + " ".join(words) + text
    k -= n_question
    f = bisect_right(counts, k)
    start, end = ends[f] + len(LinearizeConfig.sep), ends[f + 1]
    words = text[start:end].split(" ")
    del words[k - (counts[f - 1] if f else 0)]
    return LinearizeConfig.bos + question + text[:start] + " ".join(words) + text[end:]


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
    if not text.startswith(cfg.bos) or not text.endswith(cfg.eos):
        raise LinearizeError("input does not carry the bos/eos markers")
    fields = text[len(cfg.bos) : len(text) - len(cfg.eos)].split(cfg.sep)
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
    cache: dict | None = None,
) -> LinearizedExample:
    """Produce one input/target pair, applying dropout when enabled.

    The table's part of the input, everything after the question, is built
    once per table and kept in ``cache`` when one is given, so the later
    questions on a table reuse it; an entry is used only for the same
    ``Table`` and ``LinearizeConfig`` objects it was built from. Under
    dropout that part is kept collapsed, with the offsets and word counts of
    its fields, and one ``rng.randrange`` over the question's words and the
    table's picks the word to delete; with no word at all, no draw is made and the input
    is returned as ``linearize`` writes it. The dropped word never comes
    from the table id, whatever the question or headers hold.
    """
    question = normalize_question(question)
    hit = cache.get(tab.table_id) if cache is not None else None
    if hit is not None and hit[0] is tab and hit[1] is cfg:
        table_text = hit[2]
    else:
        table_text = _table_text(_table_fields(tab, cfg), collapse=cfg.dropout_enabled)
        if cache is not None:
            cache[tab.table_id] = (tab, cfg, table_text)
    if not cfg.dropout_enabled:
        return LinearizedExample(input=cfg.bos + question + table_text[0], target=target)
    if rng is None:
        raise LinearizeError("dropout requires a seeded random source")
    text = _drop_one(question, table_text, rng)
    if text is None:
        text = linearize(question, tab, cfg)
    return LinearizedExample(input=text, target=target)
