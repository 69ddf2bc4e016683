"""Compose/render/parse round trips and the statement wire format."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textsql import (
    AGG_NAMES,
    OP_NAMES,
    ComposeError,
    Condition,
    LogicalForm,
    ParseFailure,
    SqlStatement,
    Table,
    compose,
    execute,
    format_literal,
    materialize,
    parse,
    parse_raw,
    quote_ident,
    render,
)

from textsql.data import AGG_AVG, AGG_SUM
from textsql.normalize import NUMBER_RE
from textsql.sql import RawStatement, _tokenize

from conftest import PLATES_SQL, make_table


class TestQuoting:
    def test_plain_identifier(self):
        assert quote_ident("notes") == "[notes]"

    def test_closing_bracket_doubles(self):
        assert quote_ident("a]b") == "[a]]b]"

    def test_string_literal_quote_doubles(self):
        assert format_literal("it's") == "'it''s'"

    def test_numbers_render_bare(self):
        assert format_literal(10) == "10"
        assert format_literal(-3.5) == "-3.5"


class TestCompose:
    def test_reference_statement(self, plates_record, plates_table):
        stmt = compose(plates_record.lf, plates_table)
        assert stmt.sel_col == "notes"
        assert stmt.agg == 0
        assert stmt.conds == (("current slogan", "=", "south australia"),)
        assert render(stmt) == PLATES_SQL

    def test_headers_and_string_values_lowercase(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(5, 0, "No Slogan ON current series"),))
        stmt = compose(lf, plates_table)
        assert stmt.sel_col == "state/territory"
        assert stmt.conds[0][2] == "no slogan on current series"

    def test_sel_out_of_range(self, plates_table):
        with pytest.raises(ComposeError, match="sel index"):
            compose(LogicalForm(sel=6, agg=0), plates_table)

    def test_agg_out_of_range(self, plates_table):
        with pytest.raises(ComposeError, match="agg index"):
            compose(LogicalForm(sel=0, agg=-1), plates_table)

    def test_condition_column_out_of_range(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(6, 0, "x"),))
        with pytest.raises(ComposeError, match="condition column"):
            compose(lf, plates_table)

    def test_op_three_rejected(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(0, 3, "x"),))
        with pytest.raises(ComposeError, match="unsupported operator"):
            compose(lf, plates_table)

    @pytest.mark.parametrize("op", [-1, 4])
    def test_op_index_out_of_range_rejected(self, plates_table, op):
        # Unchecked, -1 would index RENDER_OPS from the end and print "<".
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(0, op, "x"),))
        with pytest.raises(ComposeError, match=f"operator index out of range: {op}"):
            compose(lf, plates_table)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, plates_table, value):
        # No wire literal spells these: rendered, they read as column names.
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(1, 1, value),))
        with pytest.raises(ComposeError, match="non-finite"):
            compose(lf, plates_table)

    def test_boolean_value_rejected(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(0, 0, True),))
        with pytest.raises(ComposeError, match="value type"):
            compose(lf, plates_table)

    def test_finite_float_value_accepted(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(1, 1, 1e308),))
        assert compose(lf, plates_table).conds[0][2] == 1e308

    def test_integer_beyond_the_double_range_rejected(self, points_table):
        # SQLite reads such a literal as infinity; converting it to a float
        # to test it would overflow.
        big = LogicalForm(sel=0, agg=0, conds=(Condition(2, 0, 10**400),))
        with pytest.raises(ComposeError, match="beyond the double range: 1329 bits"):
            compose(big, points_table)
        edge = LogicalForm(sel=0, agg=0, conds=(Condition(2, 0, 2**1023),))
        assert compose(edge, points_table).conds[0][2] == 2**1023

    @pytest.mark.parametrize("agg", [AGG_SUM, AGG_AVG])
    def test_sum_and_avg_on_a_text_column_rejected(self, plates_table, agg):
        with pytest.raises(ComposeError, match=f"aggregation/type mismatch: {AGG_NAMES[agg]} on text column 0"):
            compose(LogicalForm(sel=0, agg=agg), plates_table)

    @pytest.mark.parametrize("agg", [AGG_SUM, AGG_AVG])
    def test_sum_and_avg_on_a_real_column_accepted(self, points_table, agg):
        assert render(compose(LogicalForm(sel=2, agg=agg), points_table)) == (
            f"select {AGG_NAMES[agg]}([points]) from [2-777-1]"
        )


# Condition values of every kind a questions file can hold (a JSON string,
# number, boolean, null or list), with NaN, the infinities and integers on
# either side of the largest double.
_ANY_VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.sampled_from([10**400, -(10**400), int(sys.float_info.max), 2**1024]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


def _composes(lf: LogicalForm, tab: Table) -> bool:
    """The gold rule, stated independently of ``compose``."""
    if not (0 <= lf.sel < tab.n_cols and 0 <= lf.agg < len(AGG_NAMES)):
        return False
    if lf.agg in (AGG_SUM, AGG_AVG) and tab.col_types[lf.sel] == "text":
        return False
    for cond in lf.conds:
        value = cond.value
        if not (0 <= cond.col < tab.n_cols and cond.op in (0, 1, 2)):
            return False
        if type(value) is not str and not (type(value) in (int, float) and _is_finite_double(value)):
            return False
    return True


def _is_finite_double(number) -> bool:
    try:
        return math.isfinite(float(number))
    except OverflowError:
        return False


class TestComposeIsTheGoldRule:
    """``compose`` returns a statement exactly when a logical form is a
    valid gold for its table, and otherwise raises ``ComposeError`` and no
    other exception."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_composes_exactly_when_valid(self, data):
        tab = make_table(random.Random(data.draw(st.integers(0, 10**6))), n_cols=data.draw(st.integers(1, 4)))

        def index(n):  # one past each end of 0..n-1; for operators, 3 included
            return data.draw(st.integers(-1, n))

        conds = tuple(
            Condition(index(tab.n_cols), index(len(OP_NAMES)), data.draw(_ANY_VALUES))
            for _ in range(data.draw(st.integers(0, 3)))
        )
        lf = LogicalForm(sel=index(tab.n_cols), agg=index(len(AGG_NAMES)), conds=conds)
        if _composes(lf, tab):
            assert isinstance(compose(lf, tab), SqlStatement)
        else:
            with pytest.raises(ComposeError):
                compose(lf, tab)


class TestRender:
    def test_no_conditions(self):
        stmt = SqlStatement(agg=0, sel_col="a", table_id="t-1")
        assert render(stmt) == "select [a] from [t-1]"

    def test_aggregation_wraps_column(self):
        stmt = SqlStatement(agg=3, sel_col="a", table_id="t-1")
        assert render(stmt) == "select count([a]) from [t-1]"

    def test_conditions_join_with_and(self):
        stmt = SqlStatement(
            agg=0,
            sel_col="a",
            table_id="t-1",
            conds=(("b", "=", "x"), ("c", ">", 3)),
        )
        assert render(stmt) == "select [a] from [t-1] where [b] = 'x' and [c] > 3"

    def test_string_typed_number_stays_quoted(self, points_table):
        # A value annotated as text renders quoted even when it looks
        # numeric; dropping the quotes would change comparison semantics.
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(0, 0, "10"),))
        assert render(compose(lf, points_table)).endswith("where [player] = '10'")

    def test_statement_rejects_foreign_operator(self):
        with pytest.raises(ValueError, match="unsupported operator"):
            SqlStatement(agg=0, sel_col="a", table_id="t", conds=(("b", "!=", 1),))


class TestParse:
    def test_inverse_of_render_on_reference(self, plates_record, plates_table):
        stmt = compose(plates_record.lf, plates_table)
        assert parse(render(stmt)) == stmt

    def test_tolerates_case_and_whitespace(self):
        parsed = parse("  SELECT  Count( [a] )  FROM [t-1]  ")
        assert parsed == SqlStatement(agg=3, sel_col="a", table_id="t-1")

    def test_truncated_statement_fails_one_past_last_token(self):
        failure = parse("select [a] from")
        assert isinstance(failure, ParseFailure)
        assert failure.token_index == 3

    def test_failure_is_falsy(self):
        assert not parse("select [a] from")
        assert parse("select [a] from [t]")

    def test_unknown_aggregation_function(self):
        failure = parse("select median([a]) from [t]")
        assert isinstance(failure, ParseFailure)
        assert failure.token_index == 1
        assert "median" in failure.message

    def test_unknown_operator(self):
        failure = parse("select [a] from [t] where [b] != 'x'")
        assert isinstance(failure, ParseFailure)
        assert failure.token_index == 6
        assert "!=" in failure.message

    def test_trailing_garbage(self):
        failure = parse("select [a] from [t] extra")
        assert isinstance(failure, ParseFailure)
        assert "where" in failure.message

    def test_unexpected_character(self):
        failure = parse("select [a] from [t] where [b] = $")
        assert isinstance(failure, ParseFailure)

    def test_missing_literal(self):
        failure = parse("select [a] from [t] where [b] =")
        assert isinstance(failure, ParseFailure)
        assert "literal" in failure.message

    def test_escaped_identifier_and_literal_round_trip(self):
        text = "select [a]]b] from [t] where [c] = 'it''s'"
        parsed = parse(text)
        assert parsed.sel_col == "a]b"
        assert parsed.conds == (("c", "=", "it's"),)
        assert render(parsed) == text

    @pytest.mark.parametrize(
        "literal", ["1e400", "-1e400", pytest.param("9" * 5000, id="5000_digits")]
    )
    def test_literal_without_finite_value_fails_at_its_token(self, literal):
        result = parse(f"select [a] from [t] where [b] > {literal}")
        assert isinstance(result, ParseFailure)
        assert result.token_index == 7
        assert "out of range" in result.message

    def test_underflowing_literal_is_zero(self):
        assert parse("select [a] from [t] where [b] > 1e-400").conds == (("b", ">", 0.0),)

    def test_raw_parse_accepts_unknown_slots(self):
        raw = parse_raw("select median([a]) from [t] where [b] >= 'x'")
        assert raw.agg_token == "median"
        assert raw.conds == (("b", ">=", "x"),)


# --- property tests ----------------------------------------------------------

_VALUES = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(
        alphabet=st.characters(blacklist_categories=["Cs"], blacklist_characters="\x00"),
        min_size=0,
        max_size=25,
    ),
)


@st.composite
def statements(draw):
    """A random table plus a logical form valid against it."""
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    n_cols = draw(st.integers(1, 5))
    headers = []
    for i in range(n_cols):
        name = draw(st.text(alphabet="abcxyz]'`\" é", min_size=1, max_size=8))
        while name.lower() in [h.lower() for h in headers] or not name.strip():
            name = name + chr(ord("a") + i)
        headers.append(name)
    tab = Table(
        table_id=f"{rng.randrange(1,3)}-{seed}-1",
        headers=tuple(headers),
        col_types=tuple(draw(st.sampled_from(["text", "real"])) for _ in range(n_cols)),
        rows=(),
    )
    n_conds = draw(st.integers(0, 3))
    sel = draw(st.integers(0, n_cols - 1))
    lf = LogicalForm(
        sel=sel,
        # sum and avg only on a real column.
        agg=draw(st.integers(0, 5 if tab.col_types[sel] == "real" else 3)),
        conds=tuple(
            Condition(draw(st.integers(0, n_cols - 1)), draw(st.integers(0, 2)), draw(_VALUES))
            for _ in range(n_conds)
        ),
    )
    return lf, tab


_IDENT_TEXTS = st.text(alphabet="ab]'` é\n[", max_size=6)
_NUMBER_TEXTS = st.one_of(
    st.from_regex(NUMBER_RE, fullmatch=True),
    st.sampled_from(["1e400", "-1e400", "1e-400", "+007", ".5", "1.", "1e16"]),
)
_WS = st.sampled_from([" ", "  ", "\t", "\n "])


@st.composite
def near_statements(draw):
    """Wire-format text with free spacing, keyword case, identifier and
    literal spellings, and optionally one token dropped, doubled or replaced
    by stray text, so that both parses and failures occur."""

    def word(w):
        return draw(st.sampled_from([w, w.upper(), w.title()]))

    def ident():
        return "[" + draw(_IDENT_TEXTS).replace("]", "]]") + "]"

    def literal():
        if draw(st.booleans()):
            return draw(_NUMBER_TEXTS)
        return "'" + draw(st.text(alphabet="x'] é", max_size=5)).replace("'", "''") + "'"

    toks = [word("select")]
    agg = draw(st.sampled_from(["", "max", "min", "count", "sum", "avg", "median"]))
    toks += [word(agg), "(", ident(), ")"] if agg else [ident()]
    toks += [word("from"), ident()]
    for i in range(draw(st.integers(0, 3))):
        toks += [word("where" if i == 0 else "and"), ident()]
        toks += [draw(st.sampled_from(["=", ">", "<", ">=", "!="])), literal()]
    edit = draw(st.sampled_from(["none", "none", "drop", "double", "stray"]))
    if edit != "none":
        i = draw(st.integers(0, len(toks) - 1))
        if edit == "drop":
            del toks[i]
        elif edit == "double":
            toks.insert(i, toks[i])
        else:
            toks[i] = draw(st.sampled_from([";", "*", "or", "1=1", "`x`", "inf", "nan"]))
    return "".join(t + draw(_WS) for t in toks)


class TestRoundTripProperty:
    @given(statements())
    @settings(max_examples=300, deadline=None)
    def test_parse_render_compose_identity(self, case):
        lf, tab = case
        stmt = compose(lf, tab)
        assert parse(render(stmt)) == stmt

    @given(near_statements())
    @settings(max_examples=500, deadline=None)
    def test_render_inverts_parse(self, text):
        stmt = parse(text)
        if isinstance(stmt, SqlStatement):
            assert parse(render(stmt)) == stmt

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_parse_never_raises(self, text):
        result = parse(text)
        assert isinstance(result, (SqlStatement, ParseFailure))


class TestEqualityMatchesRender:
    """Equal statements render to the same text, and so select the same
    rows; scoring reuses the gold's execution on equality."""

    def test_int_and_float_twins_differ_on_a_text_column(self):
        tab = Table(table_id="1-3-1", headers=("A",), col_types=("text",), rows=(("3",), ("3.0",)))
        as_int = parse("select [a] from [1-3-1] where [a] = 3")
        as_float = parse("select [a] from [1-3-1] where [a] = 3.0")
        db = materialize(tab)
        assert execute(as_int, db).rows == (("3",),)
        assert execute(as_float, db).rows == (("3.0",),)
        assert as_int != as_float
        db.conn.close()

    def test_signed_zeros_differ(self):
        pos = SqlStatement(agg=0, sel_col="a", table_id="t", conds=(("a", "=", 0.0),))
        assert pos != SqlStatement(agg=0, sel_col="a", table_id="t", conds=(("a", "=", -0.0),))
        assert pos == SqlStatement(agg=0, sel_col="a", table_id="t", conds=(("a", "=", 0.0),))

    def test_other_types_never_equal(self):
        stmt = SqlStatement(agg=0, sel_col="a", table_id="t")
        assert stmt != render(stmt)
        assert stmt != parse("select from")

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_exactly_when_rendered_alike(self, data):
        """Pairs whose literals are drawn from the same twin family at each
        position, so that equal and unequal pairs both come up often."""
        families = data.draw(st.lists(st.sampled_from(_TWIN_FAMILIES), max_size=3))
        a, b = (
            SqlStatement(
                agg=data.draw(st.sampled_from([0, 3])),
                sel_col="a",
                table_id="t",
                conds=tuple(("c", "=", data.draw(st.sampled_from(f))) for f in families),
            )
            for _ in range(2)
        )
        assert (a == b) == (render(a) == render(b))
        if a == b:
            assert hash(a) == hash(b)


_TWIN_FAMILIES = ((3, 3.0, "3"), (0, 0.0, -0.0, "0"), (-3, -3.0), (1e16, 10**16))


# --- differential test against the closure walker -----------------------------

# The closure-based walk that ``parse_raw`` replaced, kept verbatim as the
# reference: the index walk must return the same statement, or the same
# failure message at the same token index.
def closure_parse_raw(text: str) -> RawStatement | ParseFailure:
    """Parse the statement shape, accepting any aggregation-function word and
    any operator token. Strict slot validation happens in ``resolve``."""
    tokens = _tokenize(text)
    if isinstance(tokens, ParseFailure):
        return tokens

    i = 0

    def peek() -> tuple[str, object] | None:
        return tokens[i] if i < len(tokens) else None

    def fail(expected: str) -> ParseFailure:
        got = f"{tokens[i][1]!r}" if i < len(tokens) else "end of input"
        return ParseFailure(f"expected {expected}, got {got}", i)

    def is_keyword(tok, kw: str) -> bool:
        return tok is not None and tok[0] == "word" and str(tok[1]).lower() == kw

    if not is_keyword(peek(), "select"):
        return fail("'select'")
    i += 1

    agg_token: str | None = None
    agg_index = -1
    tok = peek()
    if tok is not None and tok[0] == "word":
        agg_token = str(tok[1])
        agg_index = i
        i += 1
        if peek() is None or peek()[0] != "lparen":
            return fail("'('")
        i += 1
        if peek() is None or peek()[0] != "ident":
            return fail("a bracket-quoted column")
        sel_col = str(peek()[1])
        i += 1
        if peek() is None or peek()[0] != "rparen":
            return fail("')'")
        i += 1
    elif tok is not None and tok[0] == "ident":
        sel_col = str(tok[1])
        i += 1
    else:
        return fail("a column or aggregation function")

    if not is_keyword(peek(), "from"):
        return fail("'from'")
    i += 1
    if peek() is None or peek()[0] != "ident":
        return fail("a bracket-quoted table id")
    table_id = str(peek()[1])
    i += 1

    conds: list[tuple[str, str, str | int | float]] = []
    op_indices: list[int] = []
    if peek() is not None:
        if not is_keyword(peek(), "where"):
            return fail("'where' or end of statement")
        i += 1
        while True:
            if peek() is None or peek()[0] != "ident":
                return fail("a bracket-quoted condition column")
            col = str(peek()[1])
            i += 1
            if peek() is None or peek()[0] != "op":
                return fail("an operator")
            op_indices.append(i)
            op = str(peek()[1])
            i += 1
            tok = peek()
            if tok is None or tok[0] not in ("string", "number"):
                return fail("a literal")
            conds.append((col, op, tok[1]))
            i += 1
            if peek() is None:
                break
            if not is_keyword(peek(), "and"):
                return fail("'and' or end of statement")
            i += 1

    return RawStatement(
        agg_token=agg_token,
        agg_index=agg_index,
        sel_col=sel_col,
        table_id=table_id,
        conds=tuple(conds),
        op_indices=tuple(op_indices),
    )


_DIALECT_PIECES = st.sampled_from(
    ["select", "SELECT", "Select", "from", "FROM", "where", "Where", "and", "AND",
     "max", "COUNT", "avg", "median", "(", ")", "[a]", "[t]]1]", "[]", "'v'", "''''",
     "3", "-2.5", "+007", "1e400", "-1e400", "9" * 400, "=", ">", "<", ">=", "!=",
     "*", "or", ";"]
)


@st.composite
def dialect_texts(draw):
    """Near-dialect text: a mutated statement or a free run of dialect
    pieces, cut short at a piece boundary or inside a piece half the time."""
    if draw(st.booleans()):
        text = draw(near_statements())
    else:
        text = " ".join(draw(st.lists(_DIALECT_PIECES, max_size=16)))
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestIndexWalkMatchesClosureWalk:
    @given(dialect_texts())
    @settings(max_examples=600, deadline=None)
    def test_same_statement_or_same_failure(self, text):
        assert parse_raw(text) == closure_parse_raw(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "select",
            "select [a] from",
            "select max(",
            "select max([a]",
            "select [a] from [t] where [b] =",
            "select [a] from [t] where [b] = 1 and",
            "select [a] from [t] [b] = 1",
            "select [a] from [t] where [b] = 1 or [c] = 2",
            "select * from [t]",
            "select [a] from [t];",
            "SELECT Max([a]) FROM [t] WHERE [b] > 1e400",
        ],
    )
    def test_edge_texts(self, text):
        assert parse_raw(text) == closure_parse_raw(text)
