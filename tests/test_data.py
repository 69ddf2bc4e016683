"""Loading, validation, and round-trip of the JSONL question/table files."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textsql.data
from textsql import (
    AGG_NAMES,
    ComposeError,
    Condition,
    DataFormatError,
    LogicalForm,
    OP_NAMES,
    QuestionRecord,
    Table,
    compose,
    dump_tables,
    index_by_id,
    load_questions,
    load_tables,
)
from textsql.data import _undecodable_line, iter_jsonl, iter_questions

from conftest import PLATES_ID, PLATES_QUESTION


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestConstants:
    def test_aggregation_table(self):
        assert AGG_NAMES == ("", "max", "min", "count", "sum", "avg")

    def test_operator_table(self):
        assert OP_NAMES == ("=", ">", "<", "OP")


class TestTableType:
    def test_header_type_arity_must_agree(self):
        with pytest.raises(ValueError, match="column types"):
            Table("t-1", ("a", "b"), ("text",), ())

    def test_row_arity_must_agree(self):
        with pytest.raises(ValueError, match="row 0"):
            Table("t-1", ("a",), ("text",), (("x", "y"),))

    def test_unknown_column_type_rejected(self):
        with pytest.raises(ValueError, match="unknown column types"):
            Table("t-1", ("a",), ("integer",), ())

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError, match="headers"):
            Table("t-1", ("",), ("text",), ())

    def test_empty_table_id_rejected(self):
        with pytest.raises(ValueError):
            Table("", ("a",), ("text",), ())


class TestLoadTables:
    def test_loads_reference_table(self, tmp_path, plates_table):
        path = write(tmp_path / "tables.jsonl", dump_tables([plates_table]))
        loaded = load_tables(path)
        assert loaded == [plates_table]

    def test_duplicate_id_rejected_with_line(self, tmp_path, plates_table):
        path = write(tmp_path / "tables.jsonl", dump_tables([plates_table] * 2))
        with pytest.raises(DataFormatError, match=r"duplicate table_id .*:2"):
            load_tables(path)

    def test_invalid_json_carries_line_number(self, tmp_path):
        good = '{"id": "t-1", "header": ["a"], "types": ["text"], "rows": [["x"]]}'
        path = write(tmp_path / "tables.jsonl", good + "\nnot json\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_tables(path)

    def test_missing_key_rejected(self, tmp_path):
        path = write(tmp_path / "tables.jsonl", json.dumps({"id": "t-1", "header": ["a"]}) + "\n")
        with pytest.raises(DataFormatError, match="missing key 'types'"):
            load_tables(path)

    def test_blank_lines_skipped(self, tmp_path, plates_table):
        path = write(tmp_path / "tables.jsonl", "\n" + dump_tables([plates_table]) + "\n\n")
        assert len(load_tables(path)) == 1

    def test_dump_load_round_trip_preserves_cells(self, tmp_path, table_factory):
        import random

        drawn = [table_factory(random.Random(i), null_rate=0.2) for i in range(20)]
        tables = list({t.table_id: t for t in drawn}.values())
        path = write(tmp_path / "tables.jsonl", dump_tables(tables))
        assert load_tables(path) == tables


class TestLoadQuestions:
    def test_loads_reference_record(self, tmp_path, plates_record):
        line = json.dumps(
            {
                "phase": 1,
                "table_id": PLATES_ID,
                "question": PLATES_QUESTION,
                "sql": {"sel": 5, "conds": [[3, 0, "SOUTH AUSTRALIA"]], "agg": 0},
            }
        )
        records = load_questions(write(tmp_path / "q.jsonl", line + "\n"))
        assert records == [plates_record]

    def test_preserves_file_order(self, tmp_path):
        lines = [
            json.dumps({"phase": 1, "table_id": f"t-{i}", "question": f"q{i}", "sql": {"sel": 0, "agg": 0, "conds": []}})
            for i in range(5)
        ]
        records = load_questions(write(tmp_path / "q.jsonl", "\n".join(lines) + "\n"))
        assert [r.table_id for r in records] == [f"t-{i}" for i in range(5)]

    def test_malformed_cond_triple_rejected(self, tmp_path):
        line = json.dumps({"phase": 1, "table_id": "t", "question": "q", "sql": {"sel": 0, "agg": 0, "conds": [[1]]}})
        with pytest.raises(DataFormatError):
            load_questions(write(tmp_path / "q.jsonl", line + "\n"))

    def test_sql_must_be_object(self, tmp_path):
        line = json.dumps({"phase": 1, "table_id": "t", "question": "q", "sql": []})
        with pytest.raises(DataFormatError, match="not an object"):
            load_questions(write(tmp_path / "q.jsonl", line + "\n"))

    def test_empty_question_rejected_with_line(self, tmp_path):
        good = json.dumps({"phase": 1, "table_id": "t", "question": "q", "sql": {"sel": 0, "agg": 0, "conds": []}})
        empty = json.dumps({"phase": 1, "table_id": "t", "question": "", "sql": {"sel": 0, "agg": 0, "conds": []}})
        path = write(tmp_path / "q.jsonl", good + "\n" + empty + "\n")
        with pytest.raises(DataFormatError, match="question must be non-empty") as info:
            load_questions(path)
        assert (info.value.path, info.value.line) == (str(path), 2)
        assert str(info.value).endswith(f"({path}:2)")


_MISSING = object()  # a key to delete
_SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats(allow_nan=False) | st.text(max_size=4)


@st.composite
def _question_object(draw):
    """A well-formed question line's object: any JSON ``phase``, string
    ``table_id``, non-empty ``question``, integer indices and conditions
    with any value; now and then with keys the reader ignores."""
    conds = draw(st.lists(st.tuples(st.integers(-3, 2**64), st.integers(-3, 9), _SCALARS | st.lists(_SCALARS, max_size=2)),
                          max_size=4))
    sql = {"sel": draw(st.integers(-3, 2**64)), "agg": draw(st.integers(-3, 9)), "conds": [list(c) for c in conds]}
    obj = {"phase": draw(_SCALARS | st.lists(_SCALARS, max_size=2)), "table_id": draw(st.text(max_size=6)),
           "question": draw(st.text(min_size=1, max_size=8)), "sql": sql}
    if draw(st.booleans()):
        obj["extra"] = draw(_SCALARS)
        sql["extra"] = draw(_SCALARS)
    return obj


def _walk_fields(obj) -> QuestionRecord:
    """The record a well-formed question line holds, read field by field:
    the oracle for the loader's one shape check."""
    sql = obj["sql"]
    conds = tuple(Condition(col, op, value) for col, op, value in sql["conds"])
    lf = LogicalForm(sel=sql["sel"], agg=sql["agg"], conds=conds)
    return QuestionRecord(phase=obj["phase"], table_id=obj["table_id"], question=obj["question"], lf=lf)


class TestIterQuestions:
    """``iter_questions`` is the one questions reader; ``load_questions`` is
    its records in a list."""

    GOOD = [
        {"phase": 1, "table_id": PLATES_ID, "question": PLATES_QUESTION,
         "sql": {"sel": 5, "agg": 0, "conds": [[3, 0, "SOUTH AUSTRALIA"]]}},
        {"phase": 2, "table_id": "t-2", "question": "q2", "sql": {"sel": 1, "agg": 3, "conds": [[0, 1, 2.5], [1, 2, 7]]}},
        {"phase": 3, "table_id": "t-3", "question": "q3", "sql": {"sel": 0, "agg": 0, "conds": []}},
    ]

    def test_same_records_as_load_questions_with_their_lines(self, tmp_path):
        lines = [json.dumps(self.GOOD[0]), "", "  ", json.dumps(self.GOOD[1]), json.dumps(self.GOOD[2])]
        path = write(tmp_path / "q.jsonl", "\n".join(lines) + "\n")
        pairs = list(iter_questions(path))
        assert [rec for _, rec in pairs] == load_questions(path)
        assert [line for line, _ in pairs] == [1, 4, 5]  # blank lines are skipped, not renumbered

    @pytest.mark.parametrize(
        "bad",
        ["{not json", "[1]", json.dumps({"phase": 1, "table_id": "t", "question": "q"}),
         json.dumps({"phase": 1, "table_id": "t", "question": "", "sql": {"sel": 0, "agg": 0, "conds": []}}),
         json.dumps({"phase": 1, "table_id": "t", "question": "q", "sql": {"sel": 0, "agg": 0, "conds": [[0, True, 1]]}})],
        ids=["invalid-json", "not-object", "missing-sql", "empty-question", "bool-operator"],
    )
    def test_malformed_line_named_alike_by_both(self, tmp_path, bad):
        path = write(tmp_path / "q.jsonl", "".join(json.dumps(r) + "\n" for r in self.GOOD) + bad + "\n")
        with pytest.raises(DataFormatError) as loaded:
            load_questions(path)
        records = iter_questions(path)
        assert len([rec for _, rec in zip(range(3), records)]) == 3  # the good lines come first
        with pytest.raises(DataFormatError) as streamed:
            next(records)
        assert str(streamed.value) == str(loaded.value)
        assert (streamed.value.path, streamed.value.line) == (loaded.value.path, loaded.value.line) == (str(path), 4)


    # Each malformed shape, as a change to a good line, with the message
    # that names its first bad field.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            *[(f, _MISSING, f"missing key {f[-1]!r}") for f in
              [("phase",), ("table_id",), ("question",), ("sql",), ("sql", "sel"), ("sql", "agg"), ("sql", "conds")]],
            (("table_id",), 5, "'table_id' is not a string: got an integer"),
            (("table_id",), None, "'table_id' is not a string: got null"),
            (("question",), ["q"], "'question' is not a string: got a list"),
            (("sql",), [], "'sql' is not an object: got a list"),
            (("sql",), "x", "'sql' is not an object: got a string"),
            (("sql",), None, "'sql' is not an object: got null"),
            (("sql", "sel"), 1.0, "'sel' is not an integer: got a number"),
            (("sql", "sel"), "0", "'sel' is not an integer: got a string"),
            (("sql", "agg"), None, "'agg' is not an integer: got null"),
            (("sql", "conds"), {}, "'conds' is not a list: got an object"),
            (("sql", "conds"), "abc", "'conds' is not a list: got a string"),
            (("sql", "sel"), True, "'sel' is not an integer: got a boolean"),
            (("sql", "agg"), False, "'agg' is not an integer: got a boolean"),
            (("sql", "conds"), [[True, 0, "x"]], "condition 0 column is not an integer: got a boolean"),
            (("sql", "conds"), [[0, True, "x"]], "condition 0 operator is not an integer: got a boolean"),
            (("sql", "conds"), [[0.0, 0, "x"]], "condition 0 column is not an integer: got a number"),
            (("sql", "conds"), [[0, 0, "x"], "abc"], "condition 1 is not a [column, operator, value] list: got a string"),
            (("sql", "conds"), [[0, 0]], "condition 0 is not a [column, operator, value] list: got 2 elements"),
            (("sql", "conds"), [[0, 0, "x", 1]], "condition 0 is not a [column, operator, value] list: got 4 elements"),
            (("sql", "conds"), [{"a": 1, "b": 2, "c": 3}],
             "condition 0 is not a [column, operator, value] list: got an object"),
            (("question",), "", "question must be non-empty"),
        ],
    )
    def test_malformed_shape_names_its_first_bad_field(self, tmp_path, field, value, message):
        """A missing key, a wrong JSON type, ``true`` as an index, a
        condition that is not a three-element list and an empty question
        each raise their own message, naming the line."""
        obj = json.loads(json.dumps(self.GOOD[1]))
        *parents, key = field
        owner = obj
        for name in parents:
            owner = owner[name]
        if value is _MISSING:
            del owner[key]
        else:
            owner[key] = value
        path = write(tmp_path / "q.jsonl", json.dumps(self.GOOD[0]) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(DataFormatError) as info:
            list(iter_questions(path))
        assert str(info.value) == f"{message} ({path}:2)"
        assert (info.value.path, info.value.line) == (str(path), 2)

    def test_well_formed_lines_are_not_walked(self, tmp_path, monkeypatch):
        """Each well-formed line gets one shape check; the field walk runs
        only for a line that fails it."""
        walked = []
        real_walk = textsql.data._walk_question
        monkeypatch.setattr(textsql.data, "_walk_question", lambda *a: walked.append(a[2]) or real_walk(*a))
        bad = dict(self.GOOD[2], question="")
        path = write(tmp_path / "q.jsonl", "".join(json.dumps(r) + "\n" for r in [*self.GOOD, bad]))
        with pytest.raises(DataFormatError, match="question must be non-empty"):
            list(iter_questions(path))
        assert walked == [4]

    @given(st.lists(_question_object(), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_well_formed_lines_load_as_the_field_walk_reads_them(self, tmp_path_factory, objs):
        path = tmp_path_factory.getbasetemp() / "questions-property.jsonl"
        write(path, "".join(json.dumps(obj) + "\n" for obj in objs))
        assert list(iter_questions(path)) == [(i, _walk_fields(obj)) for i, obj in enumerate(objs, start=1)]


def _json_loads_reader(path):
    """The JSONL reader that decodes every line with ``json.loads``, kept as
    the reference for ``iter_jsonl``'s messages and line numbers."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if lineno == 1 and line.startswith("\ufeff"):
                    raise DataFormatError("byte-order mark at the start of the file", path, 1)
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # also too many digits or too deep
                    msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                    raise DataFormatError(f"invalid JSON: {msg}", path, lineno) from exc
                if not isinstance(obj, dict):
                    raise DataFormatError("line is not a JSON object", path, lineno)
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text ({exc.reason})", path, _undecodable_line(path)) from exc


# Strings that may hold a lone surrogate, which ``json.dumps`` writes raw
# (not valid UTF-8 once written) or escaped (valid, decoding to the surrogate).
_KEYS = st.text(st.one_of(st.characters(), st.sampled_from(["\ud800", "\udfff"])), max_size=3)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | _KEYS
    | st.sampled_from([math.nan, math.inf, -math.inf]),  # NaN, Infinity and -Infinity
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
_SPACE = st.just("") | st.text(st.sampled_from(" \t\r\x0b\xa0"), max_size=3)


def _rarely(draw) -> bool:
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def _jsonl_line(draw):
    """One line's text: an object or, rarely, any JSON value, rarely
    truncated, with JSON or other whitespace around it, rarely a BOM and
    rarely data after it."""
    value = draw(_VALUES if _rarely(draw) else st.dictionaries(_KEYS, _VALUES, max_size=3))
    text = json.dumps(value, ensure_ascii=not _rarely(draw))
    if _rarely(draw):
        text = text[: draw(st.integers(0, len(text)))]
    text = draw(_SPACE) + text + draw(_SPACE)
    if _rarely(draw):
        text = "\ufeff" + text
    if _rarely(draw):
        text += draw(st.sampled_from(["{}", " {}", "[]", " 1", "x", "}", "\ufeff"]))
    return text


def _read_all(reader, path):
    """What ``reader`` yields, as text so that NaN compares equal to
    itself, or the message and line number of its ``DataFormatError``."""
    try:
        return repr(list(reader(path)))
    except DataFormatError as exc:
        return (str(exc), exc.line)


class TestIterJsonl:
    @given(lines=st.lists(_jsonl_line(), min_size=1, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_decodes_and_fails_as_json_loads_does(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "jsonl-property.jsonl"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        assert _read_all(iter_jsonl, path) == _read_all(_json_loads_reader, path)


class TestIndexById:
    def test_keys_by_table_id(self, plates_table, points_table):
        index = index_by_id([plates_table, points_table])
        assert index[plates_table.table_id] is plates_table
        assert index[points_table.table_id] is points_table

    def test_duplicate_rejected(self, plates_table):
        with pytest.raises(ValueError, match="duplicate"):
            index_by_id([plates_table, plates_table])


class TestValidateRecord:
    """A record loaded from a questions file is a valid gold when its logical
    form composes against its table: ``compose`` is the one rule."""

    def rec(self, tmp_path, sel, agg, conds=()):
        line = json.dumps(
            {"phase": 1, "table_id": PLATES_ID, "question": "q", "sql": {"sel": sel, "agg": agg, "conds": list(conds)}}
        )
        (record,) = load_questions(write(tmp_path / "q.jsonl", line + "\n"))
        return record

    def test_reference_record_validates(self, tmp_path, plates_table):
        record = self.rec(tmp_path, 5, 0, [[3, 0, "SOUTH AUSTRALIA"]])
        assert compose(record.lf, plates_table).sel_col == "notes"

    def test_sel_out_of_range(self, tmp_path, plates_table):
        with pytest.raises(ComposeError, match="sel index out of range: 6"):
            compose(self.rec(tmp_path, 6, 0).lf, plates_table)

    def test_agg_out_of_range(self, tmp_path, plates_table):
        with pytest.raises(ComposeError, match="agg index out of range: 6"):
            compose(self.rec(tmp_path, 0, 6).lf, plates_table)

    def test_cond_column_out_of_range(self, tmp_path, plates_table):
        record = self.rec(tmp_path, 0, 0, [[99, 0, "x"]])
        with pytest.raises(ComposeError, match="condition column out of range: 99"):
            compose(record.lf, plates_table)

    def test_cond_op_out_of_range(self, tmp_path, plates_table):
        record = self.rec(tmp_path, 0, 0, [[0, 4, "x"]])
        with pytest.raises(ComposeError, match="operator index out of range: 4"):
            compose(record.lf, plates_table)

    def test_op_three_is_legal_at_validation(self, tmp_path, plates_table):
        # "OP" survives loading; only the composer refuses it.
        record = self.rec(tmp_path, 0, 0, [[0, 3, "x"]])
        assert record.lf.conds[0].op == 3
        with pytest.raises(ComposeError, match="unsupported operator"):
            compose(record.lf, plates_table)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cond_value_flagged(self, tmp_path, plates_table, value):
        record = self.rec(tmp_path, 0, 0, [[1, 1, value]])
        with pytest.raises(ComposeError) as info:
            compose(record.lf, plates_table)
        assert str(info.value) == f"non-finite condition value: {value!r}"
