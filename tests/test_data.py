"""Loading, validation, and round-trip of the JSONL question/table files."""

import json

import pytest

from textsql import (
    AGG_NAMES,
    Condition,
    DataFormatError,
    LogicalForm,
    OP_NAMES,
    QuestionRecord,
    Table,
    dump_tables,
    index_by_id,
    load_questions,
    load_tables,
    validate_record,
)

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


class TestIndexById:
    def test_keys_by_table_id(self, plates_table, points_table):
        index = index_by_id([plates_table, points_table])
        assert index[plates_table.table_id] is plates_table
        assert index[points_table.table_id] is points_table

    def test_duplicate_rejected(self, plates_table):
        with pytest.raises(ValueError, match="duplicate"):
            index_by_id([plates_table, plates_table])


class TestValidateRecord:
    def rec(self, lf, table_id=PLATES_ID):
        return QuestionRecord(phase=1, table_id=table_id, question="q", lf=lf)

    def test_reference_record_validates(self, plates_record, plates_table):
        assert validate_record(plates_record, plates_table).ok

    def test_sel_out_of_range(self, plates_table):
        report = validate_record(self.rec(LogicalForm(sel=6, agg=0)), plates_table)
        assert any("sel out of range" in v for v in report.violations)

    def test_agg_out_of_range(self, plates_table):
        report = validate_record(self.rec(LogicalForm(sel=0, agg=6)), plates_table)
        assert any("agg out of range" in v for v in report.violations)

    def test_cond_column_out_of_range(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(99, 0, "x"),))
        report = validate_record(self.rec(lf), plates_table)
        assert any("column out of range" in v for v in report.violations)

    def test_cond_op_out_of_range(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(0, 4, "x"),))
        report = validate_record(self.rec(lf), plates_table)
        assert any("op out of range" in v for v in report.violations)

    def test_op_three_is_legal_at_validation(self, plates_table):
        # "OP" survives loading; only the composer refuses it.
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(0, 3, "x"),))
        assert validate_record(self.rec(lf), plates_table).ok

    def test_sum_on_text_column_flagged(self, plates_table):
        report = validate_record(self.rec(LogicalForm(sel=0, agg=4)), plates_table)
        assert any("aggregation/type mismatch" in v for v in report.violations)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cond_value_flagged(self, plates_table, value):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(1, 1, value),))
        report = validate_record(self.rec(lf), plates_table)
        assert report.violations == [f"cond 0: non-finite value: {value!r}"]

    def test_finite_float_cond_value_ok(self, plates_table):
        lf = LogicalForm(sel=0, agg=0, conds=(Condition(1, 1, 1e308),))
        assert validate_record(self.rec(lf), plates_table).ok

    def test_avg_on_real_column_ok(self, points_table):
        rec = self.rec(LogicalForm(sel=2, agg=5), table_id=points_table.table_id)
        assert validate_record(rec, points_table).ok

    def test_table_mismatch_raises(self, plates_record, points_table):
        with pytest.raises(ValueError, match="record table"):
            validate_record(plates_record, points_table)
