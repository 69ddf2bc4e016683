"""Structured SQL for the WikiSQL subset.

A statement has exactly one select column, one aggregation slot, one table,
and conjunctive equality/inequality conditions. Statements compose from
logical forms, render to a byte-stable textual wire format, and parse back
from model-generated text.

Wire format (keywords emitted lowercase, identifiers bracket-quoted with
``]`` escaped as ``]]``, string literals single-quoted with ``'`` doubled,
numeric literals unquoted and finite)::

    select [col] from [table-id]
    select agg([col]) from [table-id] where [c1] = 'v1' and [c2] > 3

All operations are pure and the types immutable, so they are safe for
concurrent use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .data import AGG_AVG, AGG_NAMES, AGG_NONE, AGG_SUM, DataError, LogicalForm, OP_OTHER, Table
from .normalize import NUMBER_RE, format_number, normalize_text

RENDER_OPS = ("=", ">", "<")

AGG_BY_NAME = {name: i for i, name in enumerate(AGG_NAMES) if name}


class ComposeError(DataError):
    """Raised when a logical form cannot be turned into a statement."""


@dataclass(frozen=True, eq=False)
class SqlStatement:
    """One WikiSQL-subset statement with resolved column names.

    ``conds`` holds ``(column_name, op, value)`` triples where ``op`` is one
    of ``=``, ``>``, ``<`` and ``value`` is a string or number. Column names
    and string values are in normal form (``normalize_text``, lowercase), as
    the engine names columns and stores cells; ``compose`` and ``parse``
    build them that way, and keep the table id as written.

    Two statements are equal exactly when they render to the same text, so
    equal statements select the same rows: ``3`` and ``3.0`` differ (on a
    text column they match the cells ``'3'`` and ``'3.0'``), as do ``0.0``
    and ``-0.0``.
    """

    agg: int
    sel_col: str
    table_id: str
    conds: tuple[tuple[str, str, str | int | float], ...] = ()

    def __post_init__(self):
        if not 0 <= self.agg < len(AGG_NAMES):
            raise ValueError(f"agg index out of range: {self.agg}")
        for c in self.conds:
            if c[1] not in RENDER_OPS:
                raise ValueError(f"unsupported operator: {c[1]!r}")

    def __eq__(self, other):
        if other.__class__ is not SqlStatement:
            return NotImplemented
        return (
            self.agg == other.agg
            and self.sel_col == other.sel_col
            and self.table_id == other.table_id
            and len(self.conds) == len(other.conds)
            and all(
                a[0] == b[0] and a[1] == b[1] and _literal_key(a[2]) == _literal_key(b[2])
                for a, b in zip(self.conds, other.conds)
            )
        )

    def __hash__(self):
        conds = tuple((col, op, _literal_key(value)) for col, op, value in self.conds)
        return hash((self.agg, self.sel_col, self.table_id, conds))


def _literal_key(value) -> tuple:
    """What of a condition value its rendered literal shows: the type, and
    for a float its repr, which tells ``-0.0`` from ``0.0``."""
    return (type(value), repr(value) if isinstance(value, float) else value)


def quote_ident(name: str) -> str:
    """Bracket-quote an identifier, escaping ``]`` as ``]]``."""
    return "[" + name.replace("]", "]]") + "]"


def format_literal(value: str | int | float) -> str:
    """Render a condition value: strings single-quoted, numbers bare."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return format_number(value)


def condition_literal(value) -> str | int | float:
    """A logical form's condition value as a statement holds it: a string
    lowercased, a number as it is. NaN and infinite values have no literal
    in the wire format, an integer too large for a double reads as infinite
    in SQLite, and nothing but a string or a number is a value; each raises
    ``ComposeError``."""
    if isinstance(value, str):
        return normalize_text(value)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ComposeError(f"unsupported value type: {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer no double holds
        raise ComposeError(f"integer condition value beyond the double range: {value.bit_length()} bits") from None
    if not finite:
        raise ComposeError(f"non-finite condition value: {value!r}")
    return value


def compose(lf: LogicalForm, tab: Table) -> SqlStatement:
    """Resolve a logical form's indices against a table: the one rule for
    a gold, so a logical form that composes is a valid gold.

    Column indices become lowercased header names; string condition values
    are lowercased. Numeric values pass through and render unquoted, while
    string-typed values stay quoted even when they look numeric; comparison
    semantics for those are the engine's concern. ``ComposeError`` is raised
    for an index out of range, operator index 3 ("OP", which never appears
    in valid annotations), sum or avg on a text column (those aggregations
    are only meaningful for numeric data), and a condition value that
    ``condition_literal`` refuses.
    """
    if not 0 <= lf.sel < tab.n_cols:
        raise ComposeError(f"sel index out of range: {lf.sel}")
    if not 0 <= lf.agg < len(AGG_NAMES):
        raise ComposeError(f"agg index out of range: {lf.agg}")
    if lf.agg in (AGG_SUM, AGG_AVG) and tab.col_types[lf.sel] == "text":
        raise ComposeError(f"aggregation/type mismatch: {AGG_NAMES[lf.agg]} on text column {lf.sel}")
    conds = []
    for cond in lf.conds:
        if not 0 <= cond.col < tab.n_cols:
            raise ComposeError(f"condition column out of range: {cond.col}")
        if cond.op == OP_OTHER:
            raise ComposeError("unsupported operator")
        if not 0 <= cond.op < len(RENDER_OPS):
            raise ComposeError(f"operator index out of range: {cond.op}")
        col = normalize_text(tab.headers[cond.col])
        conds.append((col, RENDER_OPS[cond.op], condition_literal(cond.value)))
    return SqlStatement(
        agg=lf.agg,
        sel_col=normalize_text(tab.headers[lf.sel]),
        table_id=tab.table_id,
        conds=tuple(conds),
    )


def render(stmt: SqlStatement) -> str:
    """Render to the wire format. Deterministic: equal statements render to
    byte-identical strings."""
    return _render(stmt, quote_ident)


def _render(stmt: SqlStatement, quote) -> str:
    """``render`` with ``quote`` as the identifier quoting; the engine swaps
    in its own so that SQLite runs the same text the wire format names."""
    sel = quote(stmt.sel_col)
    if stmt.agg != AGG_NONE:
        sel = f"{AGG_NAMES[stmt.agg]}({sel})"
    text = f"select {sel} from {quote(stmt.table_id)}"
    if stmt.conds:
        text += " where " + " and ".join([_render_condition(*cond, quote) for cond in stmt.conds])
    return text


def _render_condition(col: str, op: str, value, quote) -> str:
    """One condition of ``_render``; the engine's probe prints its one
    condition with it too, so SQLite reads the same literal text."""
    return f"{quote(col)} {op} {format_literal(value)}"


# --- parsing ----------------------------------------------------------------
#
# The dialect is a regular language, so a statement in it is matched by an
# anchored grammar: one head pattern, then one condition pattern per
# condition, each matched where the last match ended. The grammar is the one
# builder of a ``RawStatement``. A text it misses is tokenized and walked
# token by token, and the walk only explains the miss: ``eg``'s selection
# rows and ``engine.execute``'s error text carry its message and token index.
#
# Both read the same tokens. Each token shape below has one definition; a
# keyword folds ASCII case only and ends where a word token would end; and a
# numeric literal converts through ``_number`` on both paths. Backtracking
# cannot make the grammar accept what the tokenizer splits otherwise: a
# token shorter than the tokenizer's leaves one of its own characters (a
# ``]``, ``'``, word, number or operator character) where the grammar needs
# whitespace, a keyword, a parenthesis, a literal or the end.
#
# The layout fixes every token index: the aggregation word is token 1, the
# head is 7 tokens with an aggregation and 4 without, and each condition is
# 4 tokens with its operator third.

# A quoted token is written as a run of plain characters between doubled
# quotes (not as an alternation per character), which the regex engine
# scans several times faster.
_IDENT = r"\[[^\]]*(?:\]\][^\]]*)*\]"
_STRING = r"'[^']*(?:''[^']*)*'"
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
_OP = r"[=<>!]+"

# One match per token, leading whitespace included; the last group catches
# any character no token can start with.
_TOKEN_RE = re.compile(
    rf"""
    \s*(?:
        ({_IDENT})
      | ({_STRING})
      | ({NUMBER_RE.pattern})
      | ({_WORD})
      | ({_OP})
      | ([()])
      | (\S)
    )
    """,
    re.VERBOSE,
)


def _keyword(word: str) -> str:
    """A keyword as the tokenizer reads one: ASCII case only (a plain
    ``re.IGNORECASE`` also folds ``ſ`` to ``s``), ending where a word token
    would end, so ``selectx`` and ``select1`` are other words."""
    return rf"\s*(?ai:{word})(?![A-Za-z0-9_])"


# Groups: aggregation word and its column, or the bare column; table id.
_HEAD_RE = re.compile(
    rf"""
    {_keyword("select")}
    \s*(?:({_WORD})\s*\(\s*({_IDENT})\s*\)|({_IDENT}))
    {_keyword("from")}
    \s*({_IDENT})
    """,
    re.VERBOSE,
)


def _condition_re(keyword: str) -> re.Pattern:
    """Groups: column, operator, and the literal as a string or a number."""
    return re.compile(rf"{_keyword(keyword)}\s*({_IDENT})\s*({_OP})\s*(?:({_STRING})|({NUMBER_RE.pattern}))")


_WHERE_RE = _condition_re("where")
_AND_RE = _condition_re("and")
_SPACE_RE = re.compile(r"\s*")

# The token index of a written aggregation word.
AGG_TOKEN_INDEX = 1


@dataclass(frozen=True)
class ParseFailure:
    """Why a string is not a statement; ``token_index`` is the position of
    the first offending token (end-of-input counts as one past the last)."""

    message: str
    token_index: int

    def __bool__(self):  # allows `if not result:` checks
        return False


class RawStatement(NamedTuple):
    """Shape-level parse of a statement before slot validation: what the
    text says, with the select column, each condition column and each
    string literal in normal form (``normalize_text``) and the table id as
    written. ``agg_token`` is the raw function name (None when no
    aggregation was written) and each condition keeps its raw operator
    token, so evaluation can tell an unrecognized aggregation or operator
    apart from an unparseable string."""

    agg_token: str | None
    sel_col: str
    table_id: str
    conds: tuple[tuple[str, str, str | int | float], ...]


def _number(literal: str) -> int | float | None:
    """A numeric literal's value: an int when it is all digits, else a float;
    None when it has no finite value. That refuses what ``compose`` refuses:
    a float that overflows and an integer beyond the double range (``int()``
    also refuses more than 4,300 digits)."""
    try:
        value = int(literal) if literal.lstrip("+-").isdigit() else float(literal)
        finite = math.isfinite(value)
    except (ValueError, OverflowError):  # too many digits for int(), too large for a double
        return None
    return value if finite else None


def _tokenize(text: str) -> list[tuple[str, object]] | ParseFailure:
    tokens: list[tuple[str, object]] = []
    for ident, string, number, word, op, paren, bad in _TOKEN_RE.findall(text):
        if ident:
            tokens.append(("ident", ident[1:-1].replace("]]", "]")))
        elif string:
            tokens.append(("string", string[1:-1].replace("''", "'")))
        elif number:
            value = _number(number)
            if value is None:
                return ParseFailure(f"numeric literal out of range {number!r}", len(tokens))
            tokens.append(("number", value))
        elif word:
            tokens.append(("word", word))
        elif op:
            tokens.append(("op", op))
        elif paren:
            tokens.append(("lparen" if paren == "(" else "rparen", paren))
        else:
            return ParseFailure(f"unexpected character {bad!r}", len(tokens))
    return tokens


_END = ("end", None)


def _fail(tokens: list[tuple[str, object]], i: int, expected: str) -> ParseFailure:
    got = "end of input" if tokens[i] is _END else f"{tokens[i][1]!r}"
    return ParseFailure(f"expected {expected}, got {got}", i)


def _is_kw(tok: tuple[str, object], kw: str) -> bool:
    return tok[0] == "word" and str(tok[1]).lower() == kw


def parse_raw(text: str) -> RawStatement | ParseFailure:
    """Parse the statement shape, accepting any aggregation-function word and
    any operator token. Strict slot validation happens in ``resolve``.

    The anchored grammar builds the statement, lowercasing the column names
    and string literals as ``compose`` does; any text it misses goes to
    ``_walk``, which only explains the miss with the ``ParseFailure`` that
    ``eg``'s selection rows and ``execute``'s error text report."""
    head = _HEAD_RE.match(text)
    if head is None:
        return _walk(text)
    agg_token, agg_col, col, table_id = head.groups()
    conds: list[tuple[str, str, str | int | float]] = []
    pos = head.end()
    cond_re = _WHERE_RE
    while (cond := cond_re.match(text, pos)) is not None:
        cond_col, op, string, number = cond.groups()
        if string is None:
            value = _number(number)
            if value is None:
                return _walk(text)
        else:
            value = normalize_text(string[1:-1].replace("''", "'"))
        conds.append((normalize_text(cond_col[1:-1].replace("]]", "]")), op, value))
        pos = cond.end()
        cond_re = _AND_RE
    if _SPACE_RE.fullmatch(text, pos) is None:
        return _walk(text)
    sel_col = normalize_text((col or agg_col)[1:-1].replace("]]", "]"))
    return RawStatement(agg_token, sel_col, table_id[1:-1].replace("]]", "]"), tuple(conds))


def _walk(text: str) -> ParseFailure:
    """Why the grammar misses ``text``: the first token, walked in order,
    that does not fit the layout, or the tokenizer's own failure.

    The walk moves one index along the token list, to which it appends the
    end sentinel ``("end", None)``: every lookahead reads a real token or the
    sentinel, and a mismatch at the sentinel reports ``end of input`` at one
    past the last token. A text whose tokens all fit is one the grammar
    matches, so reaching the end raises ``AssertionError``."""
    tokens = _tokenize(text)
    if isinstance(tokens, ParseFailure):
        return tokens
    tokens.append(_END)

    if not _is_kw(tokens[0], "select"):
        return _fail(tokens, 0, "'select'")
    kind = tokens[1][0]
    if kind == "word":
        if tokens[2][0] != "lparen":
            return _fail(tokens, 2, "'('")
        if tokens[3][0] != "ident":
            return _fail(tokens, 3, "a bracket-quoted column")
        if tokens[4][0] != "rparen":
            return _fail(tokens, 4, "')'")
        i = 5
    elif kind == "ident":
        i = 2
    else:
        return _fail(tokens, 1, "a column or aggregation function")

    if not _is_kw(tokens[i], "from"):
        return _fail(tokens, i, "'from'")
    if tokens[i + 1][0] != "ident":
        return _fail(tokens, i + 1, "a bracket-quoted table id")
    i += 2

    keyword = "where"
    while tokens[i] is not _END:
        if not _is_kw(tokens[i], keyword):
            return _fail(tokens, i, f"'{keyword}' or end of statement")
        if tokens[i + 1][0] != "ident":
            return _fail(tokens, i + 1, "a bracket-quoted condition column")
        if tokens[i + 2][0] != "op":
            return _fail(tokens, i + 2, "an operator")
        if tokens[i + 3][0] not in ("string", "number"):
            return _fail(tokens, i + 3, "a literal")
        i += 4
        keyword = "and"
    raise AssertionError(f"the walk accepts a text the grammar misses: {text!r}")


def resolve(raw: RawStatement) -> SqlStatement | ParseFailure:
    """Strict slot validation of a shape-level parse: the aggregation word
    must name a known function and every operator must be renderable. The
    aggregation is checked first, so a failure at ``AGG_TOKEN_INDEX`` means
    an unknown function and any other failure an unknown operator; the
    failure's index is the token's place in the layout."""
    if raw.agg_token is None:
        agg = AGG_NONE
    else:
        agg = AGG_BY_NAME.get(raw.agg_token.lower())
        if agg is None:
            return ParseFailure(f"unknown aggregation function {raw.agg_token!r}", AGG_TOKEN_INDEX)
    for k, (_, op, _) in enumerate(raw.conds):
        if op not in RENDER_OPS:
            return ParseFailure(f"unknown operator {op!r}", (4 if raw.agg_token is None else 7) + 4 * k + 2)
    return SqlStatement(agg=agg, sel_col=raw.sel_col, table_id=raw.table_id, conds=raw.conds)


def parse(text: str) -> SqlStatement | ParseFailure:
    """Inverse of ``render`` on statements in normal form (see
    ``SqlStatement``); tolerant of surrounding whitespace and keyword case,
    and of the case of column names and string literals, which it
    lowercases. Failures are values so that evaluation can count malformed
    generations instead of crashing."""
    raw = parse_raw(text)
    if isinstance(raw, ParseFailure):
        return raw
    return resolve(raw)
