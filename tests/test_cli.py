"""File-to-file pipelines behind the textsql command."""

import contextlib
import copy
import errno
import gc
import hashlib
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textsql
import textsql.cli
import textsql.sql
from textsql import (
    Condition,
    ErrorClass,
    Kind,
    LogicalForm,
    Slot,
    Table,
    TableCache,
    compose,
    dump_tables,
    render,
    score_prediction,
)
from textsql.cli import _BLOCK_LINES, build_parser, main
from textsql.data import index_by_id, load_questions, load_tables
from textsql.eg import eg_gain
from textsql.gate import load_params
from textsql.gate.model import encode_params, sidecar_path

from conftest import PLATES_BASELINE, PLATES_ID, PLATES_QUESTION, PLATES_SQL, make_table
from test_sql import glued_texts


@pytest.fixture
def corpus(tmp_path, plates_table, plates_record):
    """Questions and tables files holding the reference example."""
    tables = tmp_path / "tables.jsonl"
    tables.write_text(dump_tables([plates_table]))
    questions = tmp_path / "questions.jsonl"
    rec = {
        "phase": 1,
        "table_id": PLATES_ID,
        "question": PLATES_QUESTION,
        "sql": {"sel": 5, "agg": 0, "conds": [[3, 0, "SOUTH AUSTRALIA"]]},
    }
    questions.write_text(json.dumps(rec) + "\n")
    return questions, tables


# Every label the taxonomy gives.
_LABELS = [ErrorClass(Kind.CORRECT), ErrorClass(Kind.PARSE_FAILURE)] + [
    ErrorClass(kind, slot) for kind in (Kind.INVALID, Kind.WRONG) for slot in Slot if slot is not Slot.NONE
]


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestLinearize:
    def test_reference_line(self, corpus, tmp_path):
        questions, tables = corpus
        out = tmp_path / "out.jsonl"
        code = main([
            "linearize", "--questions", str(questions), "--tables", str(tables),
            "--out", str(out),
        ])
        assert code == 0
        assert read_jsonl(out) == [{"input": PLATES_BASELINE, "target": PLATES_SQL}]

    def test_augmented_mode_emits_types(self, corpus, tmp_path):
        questions, tables = corpus
        out = tmp_path / "out.jsonl"
        code = main([
            "linearize", "--questions", str(questions), "--tables", str(tables),
            "--out", str(out), "--mode", "augmented", "--samples", "1",
        ])
        assert code == 0
        line = read_jsonl(out)[0]["input"]
        assert "<sep>notes<sep>text<sep>" in line

    def test_samples_needs_augmented_mode(self, corpus, tmp_path):
        questions, tables = corpus
        code = main([
            "linearize", "--questions", str(questions), "--tables", str(tables),
            "--out", str(tmp_path / "o"), "--samples", "2",
        ])
        assert code == 1

    def test_dropout_rerun_is_byte_identical(self, corpus, tmp_path):
        questions, tables = corpus
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        base = ["linearize", "--questions", str(questions), "--tables", str(tables), "--dropout"]
        assert main(base + ["--out", str(a), "--seed", "4"]) == 0
        assert main(base + ["--out", str(b), "--seed", "4"]) == 0
        assert main(base + ["--out", str(c), "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_bad_record_fails_unless_skipped(self, corpus, tmp_path):
        questions, tables = corpus
        bad = {
            "phase": 1,
            "table_id": PLATES_ID,
            "question": "q",
            "sql": {"sel": 99, "agg": 0, "conds": []},
        }
        questions.write_text(questions.read_text() + json.dumps(bad) + "\n")
        out = tmp_path / "out.jsonl"
        args = ["linearize", "--questions", str(questions), "--tables", str(tables), "--out", str(out)]
        assert main(args) == 2
        assert main(args + ["--skip-bad"]) == 0
        assert len(read_jsonl(out)) == 1

    def test_gold_that_does_not_compose_is_skipped_or_named(self, corpus, tmp_path, capsys):
        # Operator index 3 loads; the composer refuses it.
        questions, tables = corpus
        bad = {"phase": 1, "table_id": PLATES_ID, "question": "q", "sql": {"sel": 0, "agg": 0, "conds": [[1, 3, 1.0]]}}
        questions.write_text(questions.read_text() + json.dumps(bad) + "\n")
        out = tmp_path / "out.jsonl"
        argv = ["linearize", "--questions", str(questions), "--tables", str(tables), "--out", str(out)]
        assert main(argv + ["--skip-bad"]) == 0
        assert "(skipped 1)" in capsys.readouterr().err
        assert len(read_jsonl(out)) == 1
        out.unlink()
        assert main(argv) == 2
        assert "record 1: gold does not compose: unsupported operator" in capsys.readouterr().err
        assert not out.exists()

    # A list cell is refused when the tables file loads
    # (TestWronglyTypedField::test_cell_that_is_a_list_or_object).
    @pytest.mark.parametrize("cell, message", [(True, "boolean cells are not supported")])
    def test_sampled_cell_of_unsupported_type_is_skipped_or_named(self, tmp_path, capsys, cell, message):
        # Found by TestLinearizeFuzz: such a cell was an internal error.
        tables = tmp_path / "tables.jsonl"
        tables.write_text(json.dumps({"id": "t-1", "header": ["a", "b"], "types": ["text", "real"],
                                      "rows": [["x", cell]]}) + "\n")
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps({"phase": 1, "table_id": "t-1", "question": "q",
                                         "sql": {"sel": 0, "agg": 0, "conds": []}}) + "\n")
        out = tmp_path / "out.jsonl"
        argv = ["linearize", "--questions", str(questions), "--tables", str(tables), "--out", str(out)]
        assert main(argv) == 0
        assert main(argv + ["--mode", "augmented", "--samples", "1", "--skip-bad"]) == 0
        assert out.read_text() == ""
        capsys.readouterr()
        assert main(argv + ["--mode", "augmented", "--samples", "1"]) == 2
        assert f"record 0: table 't-1': {message}" in capsys.readouterr().err

    def test_unknown_table_is_a_data_error(self, corpus, tmp_path):
        questions, tables = corpus
        questions.write_text(
            json.dumps({"phase": 1, "table_id": "9-9-9", "question": "q",
                        "sql": {"sel": 0, "agg": 0, "conds": []}}) + "\n"
        )
        code = main([
            "linearize", "--questions", str(questions), "--tables", str(tables),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2


_AWKWARD_TABLES = [
    {
        "id": "2-ws\t 7",
        "header": ["Name\tof  Player", "Pts\xa0Total", "Note\u2003x", "a<sep>b", "Plain"],
        "types": ["text", "real", "text", "text", "real"],
        "rows": [
            ["Antonio\t\tLang", -0.0, "", "x <sep> y", 1],
            [None, 1e16, "  lead  ", "   ", 2.5],
            # The default --max-cell-len of 32 cuts this cell inside its whitespace.
            ["x" * 30 + " \t tail", 3, "\xa0\u3000", None, -7],
            ["Four", 4, "last row", "z", 0],
        ],
    },
    {"id": "3-blank", "header": ["  ", "\t"], "types": ["text", "text"], "rows": [["  ", "\u2003"], [None, ""]]},
    {"id": "4-empty", "header": ["Only Col"], "types": ["real"], "rows": []},
]

_AWKWARD_RECORDS = [
    ("2-ws\t 7", "What is the   Name\tof player?", 0, 0, [[4, 1, 1]]),
    ("2-ws\t 7", "Which Pts\xa0total <sep> is biggest", 1, 1, []),
    ("2-ws\t 7", "  \t ", 2, 0, []),
    ("3-blank", "  \t ", 0, 0, []),
    ("3-blank", "Blank?", 1, 3, [[0, 0, "  "]]),
    ("4-empty", "how many only col", 0, 3, [[0, 0, "X  y"]]),
    ("2-ws\t 7", "Tell me  <SEP> more\u2003please", 3, 0, [[3, 0, "z"]]),
    ("2-ws\t 7", "what about the plain one", 4, 0, [[4, 2, 0.5]]),
    ("3-blank", "\xa0", 1, 0, []),
]


class TestLinearizeGoldenBytes:
    """The output bytes of ``linearize`` on a corpus of awkward tables, pinned
    so that a rewrite of the serializer or of dropout cannot change them."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "d8a7b528b8ec588563fbb4cb81b0a85010305a097ae3db18c7a32ecfc8a358ac"),
            (["--dropout", "--seed", "3"], "9445997c0c5592ab1383d2b003afc81a1c1be0470a794ae23f2188f47c81d627"),
            (
                ["--mode", "augmented", "--samples", "2"],
                "8eaaea09fc21d07551d4ff527341bbd3a2bc5c89d349139cad9620d07b294ef7",
            ),
            (
                ["--mode", "augmented", "--samples", "3", "--dropout", "--seed", "7"],
                "544f62def2c9f1a9339613e60ed69c492aaf46c26ffc4c1cb9e6d3f9c49caf14",
            ),
        ],
        ids=["baseline", "baseline-dropout", "augmented", "augmented-dropout"],
    )
    def test_output_digest(self, tmp_path, flags, digest):
        tables = tmp_path / "tables.jsonl"
        tables.write_text("".join(json.dumps(t) + "\n" for t in _AWKWARD_TABLES))
        questions = tmp_path / "questions.jsonl"
        questions.write_text("".join(
            json.dumps({"phase": 1, "table_id": tid, "question": q, "sql": {"sel": sel, "agg": agg, "conds": conds}})
            + "\n"
            for tid, q, sel, agg, conds in _AWKWARD_RECORDS
        ))
        out = tmp_path / "out.jsonl"
        argv = ["linearize", "--questions", str(questions), "--tables", str(tables), "--out", str(out)]
        assert main(argv + flags) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_AWKWARD_SILVER_TABLES = [
    {
        "id": "1-]x'`y",
        "header": ["Na]me", "it's", "back`tick", "Score", "Notes"],
        "types": ["text", "real", "text", "real", "text"],
        "rows": [
            ["Ann", "3", "3", -0.0, "x"],
            ["Bo]b", " 3", " 3", 2**63 - 1, None],
            [None, "1e5", "1e5", -(2**63), "O'Neil"],
            ["Cy`d", "1_0", "1_0", 0, "`q`"],
            ["Dee", "inf", "inf", 2.5, "]]"],
            ["Eve", "nan", "nan", None, "3.0"],
            ["Fay", 3, "-0.0", 1e16, ""],
            ["Gus", None, None, -7, "  Mixed Case "],
        ],
    },
    {
        "id": "2-`'",
        "header": ["]", "'", "`"],
        "types": ["real", "real", "text"],
        "rows": [[-0.0, 0.0, "a"], [0, "0", "b'"], [1, "-1", None], [None, " 3", "c]"]],
    },
    {"id": "3-text", "header": ["Only ]Text"], "types": ["text"], "rows": [["One"], ["one"], [None], ["1e5"]]},
    {"id": "4-one", "header": ["v"], "types": ["real"], "rows": [[2**63 - 1]]},
]


class TestSilverGoldenBytes:
    """The output bytes of ``silver`` on awkward tables (quoting characters in
    names, numeric-looking strings in real columns, ``-0.0``, 64-bit edge
    integers, nulls), pinned so that a rewrite of the sampler or of the
    probe cannot change them."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "634f61702db05ea2eeb5901a9a9d355d38c717a658bd5900643ba6e774c2a892"),
            (
                ["--seed", "5", "--max-conds", "1", "--no-zero-conds"],
                "ca662fef03f30a0eea97d9ed8be04d19a8b021e1f00fafc49ad600aaaafc41d9",
            ),
            (["--seed", "11", "--max-conds", "4"], "93d7823f7cefe2eb9d7786b86ac643140dd7086051a08f440fe4018d95627ce6"),
            (["--seed", "2", "--max-conds", "0"], "6f5b2b4eca2e793075d85136cada1c80f3879872024de1b552a391d2cd597a9a"),
        ],
        ids=["default", "one-cond", "four-conds", "no-conds"],
    )
    def test_output_digest(self, tmp_path, flags, digest):
        tables = tmp_path / "tables.jsonl"
        tables.write_text("".join(json.dumps(t) + "\n" for t in _AWKWARD_SILVER_TABLES))
        out = tmp_path / "out.jsonl"
        assert main(["silver", "--tables", str(tables), "--n", "60", "--out", str(out)] + flags) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_SCORE_TABLES = [
    {
        "id": "5-gold",
        "header": ["City", "Pop", "Area", "Note"],
        "types": ["text", "real", "real", "text"],
        "rows": [["Richmond", 3, -0.0, "x"], ["Hampton", 3.0, 2.5, ""], ["Oak  Park", 7, 0.0, None]],
    },
    {"id": "6-empty", "header": ["Only Col"], "types": ["real"], "rows": []},
]

_SCORE_RECORDS = [
    ("5-gold", "What is the pop of Richmond?", 1, 0, [[0, 0, "Richmond"]]),
    ("5-gold", "What is the pop of Hampton, not Richmond, with area 2.5?", 1, 0, [[0, 0, "Hampton"]]),
    ("5-gold", "How many cities have a pop of 3 ?", 0, 3, [[1, 0, 3]]),
    ("5-gold", "Which city has an area of -0.0 or 0 ?", 0, 0, [[2, 0, -0.0]]),
    ("6-empty", "how many only col values", 0, 3, []),
    ("5-gold", "which note for the city nowhere", 3, 0, [[0, 0, "Nowhere"]]),
]

# The gold of record 0, rendered.
_GOLD0 = "select [pop] from [5-gold] where [city] = 'richmond'"

# (record, prediction): every taxonomy class, a prediction equal to its gold,
# empty results, 3 against 3.0, -0.0 against 0 and an unknown table.
_EVAL_PAIRS = [
    (0, _GOLD0),
    (0, "select [pop] from"),
    (0, "complete nonsense"),
    (0, "select median([pop]) from [5-gold] where [city] = 'richmond'"),
    (0, "select [mayor] from [5-gold] where [city] = 'richmond'"),
    (0, "select [pop] from [5-gold] where [mayor] = 'richmond'"),
    (0, "select [pop] from [5-gold] where [city] >= 'richmond'"),
    (0, "select [pop] from [5-gold] where [city] = 'norfolk'"),
    (0, "select count([pop]) from [5-gold] where [city] = 'richmond'"),
    (0, "select [area] from [5-gold] where [city] = 'richmond'"),
    (0, "select [pop] from [nope] where [city] = 'richmond'"),
    (1, "select [pop] from [5-gold] where [area] = 2.5"),
    (1, "select [pop] from [5-gold] where [city] = 'richmond'"),
    (2, "select count([city]) from [5-gold] where [pop] > 3"),
    (2, "select count([city]) from [5-gold] where [pop] = 3.0"),
    (3, "select [city] from [5-gold] where [area] = 0"),
    (3, "select [city] from [5-gold] where [area] = -0.0"),
    (4, "select [only col] from [6-empty]"),
    (4, "select count([only col]) from [6-empty]"),
    (5, "select [note] from [5-gold] where [city] = 'nowhere'"),
    (5, "select [note] from [5-gold] where [city] = 'richmond'"),
]

# (qid, candidates best first): every error kind, an all-failed beam, and
# beams longer than two whose third candidate is the first to execute.
_EG_LINES = [
    (0, [_GOLD0]),
    (0, ["select [mayor] from [5-gold]", _GOLD0]),
    (0, ["select [area] from [5-gold] where [city] = 'richmond'", _GOLD0]),
    (0, ["select [pop] from [5-gold] where [city] = '\ud800'", _GOLD0]),
    (1, ["select [pop] from [nope]", "select [pop] from", "select [pop] from [5-gold] where [area] = 2.5"]),
    (1, ["select [pop] from [5-gold] where [city] = 'richmond'", "select [bogus] from [5-gold]"]),
    (2, ["select count([city]) from [5-gold] where [pop] = 3.0", "select count([city]) from [5-gold]"]),
    (3, ["select [city] from [5-gold] where [area] = 0"]),
    (4, ["select [x] from [6-empty]", "select garbage («", "select [only col] from [5-gold]"]),
    (4, ["select [only col] from [6-empty]", "select count([only col]) from [6-empty]"]),
    (5, ["select [note] from [5-gold] where [city] = 'nowhere'", "select [note] from [5-gold]"]),
    (5, ["select max([note]) from [5-gold]", "select [x] from [5-gold]", "select [note] from [5-gold]", _GOLD0]),
]


def _write_score_inputs(tmp_path, records):
    tables = tmp_path / "tables.jsonl"
    tables.write_text("".join(json.dumps(t) + "\n" for t in _SCORE_TABLES))
    questions = tmp_path / "questions.jsonl"
    questions.write_text("".join(
        json.dumps({"phase": 1, "table_id": tid, "question": q, "sql": {"sel": sel, "agg": agg, "conds": conds}})
        + "\n"
        for tid, q, sel, agg, conds in records
    ))
    return questions, tables


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestEvalGoldenBytes:
    """The report bytes of ``eval`` on predictions that hit every taxonomy
    class, pinned so that a rewrite of the scorer or its report cannot
    change them."""

    def test_output_digests(self, tmp_path):
        questions, tables = _write_score_inputs(tmp_path, [_SCORE_RECORDS[r] for r, _ in _EVAL_PAIRS])
        preds = tmp_path / "preds.txt"
        preds.write_text("".join(p + "\n" for _, p in _EVAL_PAIRS))
        out_json, out_table = tmp_path / "eval.json", tmp_path / "eval.txt"
        assert main([
            "eval", "--preds", str(preds), "--questions", str(questions), "--tables", str(tables),
            "--out-json", str(out_json), "--out-table", str(out_table),
        ]) == 0
        assert (_sha256(out_json), _sha256(out_table)) == (
            "9c792dd30729c5e2437b4cf94893f517f3dd8ff15728b2f007694c2c1a382273",
            "0acb9dd1bcdeac96efacdaa4a99bac149e7ff12240b7bf0fc1738c3af93e24a4",
        )


class TestEgGoldenBytes:
    """The selection and report bytes of ``eg`` on beams that hit every
    error kind, pinned so that a rewrite of the selection or of its report
    cannot change them."""

    @pytest.mark.parametrize(
        "flags, digests",
        [
            (
                [],
                (
                    "73159bf74f2b566239fc67abb623d14538c74877f3f46e2bf6f2090e551a75db",
                    "272737612902e6a0be0ce1830923c66b3ebc03a253f9f4f9a7d72dc25f81ef0f",
                ),
            ),
            (
                ["--beam-width", "2"],
                (
                    "8d0e73c4a14da69e419f5c1ca8e40388f2ee19c97a04c6d19faff4c3db935f2d",
                    "b6e5cbcd9fb66c5b122c15550a0547ad698b9db673207f8f337c1a74d4caf7f6",
                ),
            ),
        ],
        ids=["default-width", "width-2"],
    )
    def test_output_digests(self, tmp_path, flags, digests):
        questions, tables = _write_score_inputs(tmp_path, _SCORE_RECORDS)
        cands = tmp_path / "cands.jsonl"
        cands.write_text("".join(json.dumps({"qid": q, "candidates": c}) + "\n" for q, c in _EG_LINES))
        sel, rep = tmp_path / "eg_selections.jsonl", tmp_path / "eg.json"
        assert main([
            "eg", "--candidates", str(cands), "--questions", str(questions), "--tables", str(tables),
            "--out-selections", str(sel), "--out-report", str(rep), *flags,
        ]) == 0
        assert (_sha256(sel), _sha256(rep)) == digests


_FUZZ_BASE = {
    "table": {
        "id": "1-2-3",
        "header": ["Name", "Pts"],
        "types": ["text", "real"],
        "rows": [["Ann  Lee", 3], [None, 2.5]],
    },
    "record": {
        "phase": 1,
        "table_id": "1-2-3",
        "question": "who has 3 pts",
        "sql": {"sel": 0, "agg": 0, "conds": [[1, 0, 3]]},
    },
}

# Stands for an integer of 5,000 digits, which json.dumps cannot write; the
# fuzz tests write the digits in its place.
_HUGE_INT = "9" * 5000

_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(),
        st.sampled_from(["", " \t", "<sep>", "1-2-3", "\ud800", "Name", "text", "real"]),
        # An integer beyond Python's digit limit, a row given as a string
        # (in place of a row) and an object cell (in place of a cell).
        st.just(_HUGE_INT), st.just("ab"), st.fixed_dictionaries({"k": st.just(1)}),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["id", "sel", "a"]), inner, max_size=2),
    max_leaves=4,
)


def _json_paths(obj, path=()):
    """Every path into ``obj``, its children and below, each with whether it
    leads to a scalar."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield path + (key,), not isinstance(value, (dict, list))
        yield from _json_paths(value, path + (key,))


@st.composite
def _mutated_inputs(draw):
    """The one-table, one-record input with one or two of its JSON values
    changed: mostly a scalar replaced, so that the input stays well-formed
    enough to reach the serializer, and sometimes a value deleted or a list
    or object (a row, say) replaced."""
    doc = copy.deepcopy(_FUZZ_BASE)
    for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
        action = draw(st.sampled_from(["replace leaf", "replace leaf", "replace any", "delete"]))
        delete = action == "delete"
        paths = [path for path, leaf in _json_paths(doc) if leaf or action != "replace leaf"]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return doc


def _write_fuzz_inputs(work, doc):
    """The table and record files of a mutated input, one line each (none
    for a deleted one); returns their paths."""
    work.mkdir(exist_ok=True)
    paths = {}
    for name in ("table", "record"):
        paths[name] = work / f"{name}.jsonl"
        line = json.dumps(doc[name]).replace(json.dumps(_HUGE_INT), _HUGE_INT) + "\n" if name in doc else ""
        paths[name].write_text(line)
    return paths


def _assert_success_or_data_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue()


class TestLinearizeFuzz:
    """Whatever the input holds, ``linearize``, ``silver``, ``eval`` and
    ``eg`` end with success or a data error, never an internal error."""

    @given(doc=_mutated_inputs(), mode=st.sampled_from([[], ["--mode", "augmented", "--samples", "2"]]),
           dropout=st.booleans(), skip_bad=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_exit_is_success_or_data_error(self, tmp_path_factory, doc, mode, dropout, skip_bad):
        work = tmp_path_factory.getbasetemp() / "linearize-fuzz"
        paths = _write_fuzz_inputs(work, doc)
        argv = ["linearize", "--questions", str(paths["record"]), "--tables", str(paths["table"]),
                "--out", str(work / "out.jsonl"), *mode]
        argv += ["--dropout"] * dropout + ["--skip-bad"] * skip_bad
        _assert_success_or_data_error(argv)

    @given(doc=_mutated_inputs(), command=st.sampled_from(["silver", "eval", "eg"]))
    @settings(max_examples=150, deadline=None)
    def test_silver_eval_and_eg_exit_with_success_or_data_error(self, tmp_path_factory, doc, command):
        work = tmp_path_factory.getbasetemp() / "scoring-fuzz"
        paths = _write_fuzz_inputs(work, doc)
        inputs = ["--questions", str(paths["record"]), "--tables", str(paths["table"])]
        pred = "select [name] from [1-2-3] where [pts] = 3"
        if command == "silver":
            argv = ["silver", "--tables", str(paths["table"]), "--n", "2", "--out", str(work / "out.jsonl")]
        elif command == "eval":
            (work / "preds.txt").write_text(pred + "\n")
            argv = ["eval", "--preds", str(work / "preds.txt"), *inputs, "--out-json", str(work / "r.json")]
        else:
            (work / "cands.jsonl").write_text(json.dumps({"qid": 0, "candidates": ["select from", pred]}) + "\n")
            argv = ["eg", "--candidates", str(work / "cands.jsonl"), *inputs,
                    "--out-selections", str(work / "s.jsonl"), "--out-report", str(work / "r.json")]
        _assert_success_or_data_error(argv)


# The fuzz record's gold, and predictions that execute on its table without
# being equal to it, so that both execution orders are taken.
_FUZZ_GOLD = "select [name] from [1-2-3] where [pts] = 3"
_FUZZ_RUNNABLE = [_FUZZ_GOLD, "select [name] from [1-2-3]", "select count([pts]) from [1-2-3] where [pts] > 2",
                  "select [rowid] from [1-2-3]", "select [name] from [1-2-3] where [pts] = 3.0"]


class TestPredictionFuzz:
    """Whatever a prediction or candidate says, ``eval`` and ``eg`` score
    it and succeed: a prediction is never a data or an internal error."""

    @given(texts=st.lists(glued_texts() | st.sampled_from(_FUZZ_RUNNABLE), min_size=1, max_size=4),
           command=st.sampled_from(["eval", "eg"]))
    @settings(max_examples=150, deadline=None)
    def test_eval_and_eg_succeed(self, tmp_path_factory, texts, command):
        work = tmp_path_factory.getbasetemp() / "prediction-fuzz"
        work.mkdir(exist_ok=True)
        tables, questions = work / "tables.jsonl", work / "questions.jsonl"
        tables.write_text(json.dumps(_FUZZ_BASE["table"]) + "\n")
        inputs = ["--questions", str(questions), "--tables", str(tables)]
        if command == "eval":
            questions.write_text((json.dumps(_FUZZ_BASE["record"]) + "\n") * len(texts))
            (work / "preds.txt").write_text("".join(text + "\n" for text in texts))
            argv = ["eval", "--preds", str(work / "preds.txt"), *inputs, "--out-json", str(work / "r.json")]
        else:
            questions.write_text(json.dumps(_FUZZ_BASE["record"]) + "\n")
            (work / "cands.jsonl").write_text(json.dumps({"qid": 0, "candidates": texts}) + "\n")
            argv = ["eg", "--candidates", str(work / "cands.jsonl"), *inputs,
                    "--out-selections", str(work / "s.jsonl"), "--out-report", str(work / "r.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 0, err.getvalue()


class TestSilver:
    def test_output_shape_and_determinism(self, corpus, tmp_path):
        _, tables = corpus
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["silver", "--tables", str(tables), "--n", "5", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_jsonl(a)
        assert len(rows) == 5
        for row in rows:
            assert row["phase"] == 99
            assert set(row["sql"]) == {"sel", "agg", "conds"}
            assert row["sql_text"].startswith("select ")

    def test_zero_examples_writes_empty_file(self, corpus, tmp_path):
        _, tables = corpus
        out = tmp_path / "out.jsonl"
        assert main(["silver", "--tables", str(tables), "--out", str(out), "--n", "0"]) == 0
        assert out.read_text() == ""

    def test_n_is_required(self, corpus, tmp_path):
        _, tables = corpus
        assert main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o")]) == 1

    def test_zero_max_conds_with_no_zero_conds_is_usage_error(self, corpus, tmp_path, capsys):
        _, tables = corpus
        out = tmp_path / "out.jsonl"
        argv = ["silver", "--tables", str(tables), "--out", str(out), "--n", "3"]
        assert main(argv + ["--max-conds", "0", "--no-zero-conds"]) == 1
        assert "usage error: max_conds 0 leaves no condition count" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_conds": 0, "no_zero_conds": True}))
        assert main(argv + ["--config", str(cfg)]) == 1
        assert not out.exists()
        assert main(argv + ["--config", str(cfg), "--max-conds", "1"]) == 0  # the flag wins

    def test_memory_grows_only_with_the_held_examples(self, tmp_path):
        rng = random.Random(4)
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([make_table(rng, n_cols=5, n_rows=20, null_rate=0.05) for _ in range(40)]))

        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                code = main(["silver", "--tables", str(tables), "--n", str(n), "--out", str(tmp_path / f"{n}.jsonl")])
                _, high = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            return high

        per_example = (peak(2000) - peak(200)) / 1800
        # What grows per example is its statement in the de-duplication
        # set, about 300 B here. Holding every example until the run ended
        # made it about 620 B, and building every output row before writing
        # the first about 1,140 B.
        assert per_example < 400

    def test_silver_output_feeds_linearize(self, corpus, tmp_path):
        _, tables = corpus
        silver = tmp_path / "silver.jsonl"
        out = tmp_path / "lin.jsonl"
        assert main(["silver", "--tables", str(tables), "--out", str(silver), "--n", "4"]) == 0
        code = main([
            "linearize", "--questions", str(silver), "--tables", str(tables), "--out", str(out),
        ])
        assert code == 0
        assert len(read_jsonl(out)) == 4


class TestEval:
    def _run(self, corpus, tmp_path, preds):
        questions, tables = corpus
        questions.write_text(questions.read_text() * len(preds))
        preds_file = tmp_path / "preds.txt"
        preds_file.write_text("".join(p + "\n" for p in preds))
        out = tmp_path / "report.json"
        table_out = tmp_path / "report.txt"
        code = main([
            "eval", "--preds", str(preds_file), "--questions", str(questions),
            "--tables", str(tables), "--out-json", str(out), "--out-table", str(table_out),
        ])
        return code, out, table_out

    def test_taxonomy_counts(self, corpus, tmp_path):
        code, out, table_out = self._run(
            corpus, tmp_path,
            [PLATES_SQL, PLATES_SQL,
             "select [notes] from [1-1000181-1] where [current slogan] = 'tasmania'",
             "select [notes] from"],
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n"] == 4
        assert report["exec_correct"] == 2
        assert report["exec_accuracy"] == 0.5
        assert report["counts"]["Correct"] == 2
        assert report["counts"]["ParseFailure"] == 1
        assert report["counts"]["Invalid"]["where_value"] == 1
        assert report["hallucination_count"] == 1
        assert "where_value" in table_out.read_text()

    def test_planted_error_mix(self, corpus, tmp_path):
        # 7 exact, 2 with nonexistent tokens, 1 with the wrong aggregation.
        preds = [PLATES_SQL] * 7 + [
            "select [notes] from [1-1000181-1] where [current slogan] = 'tasmania'",
            "select [postcode] from [1-1000181-1]",
            "select count([notes]) from [1-1000181-1] where [current slogan] = 'south australia'",
        ]
        code, out, _ = self._run(corpus, tmp_path, preds)
        assert code == 0
        counts = json.loads(out.read_text())["counts"]
        assert counts["Correct"] == 7
        assert sum(counts["Invalid"].values()) == 2
        assert sum(counts["Wrong"].values()) == 1

    def test_misaligned_preds_rejected(self, corpus, tmp_path):
        code, _, _ = self._run(corpus, tmp_path, [PLATES_SQL])
        assert code == 0
        questions, tables = corpus
        preds_file = tmp_path / "short.txt"
        preds_file.write_text("")
        code = main([
            "eval", "--preds", str(preds_file), "--questions", str(questions),
            "--tables", str(tables), "--out-json", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_unicode_line_breaks_stay_inside_a_prediction(self, tmp_path, plates_table):
        # Only \n, \r and \r\n end a prediction; str.splitlines would also
        # split at U+2028 and U+0085.
        slogan = "LINE\u2028BREAK\x85END"
        rows = list(plates_table.rows)
        rows[0] = rows[0][:3] + (slogan,) + rows[0][4:]
        table = replace(plates_table, rows=tuple(rows))
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([table]), encoding="utf-8")
        records = [
            {"phase": 1, "table_id": PLATES_ID, "question": PLATES_QUESTION,
             "sql": {"sel": 5, "agg": 0, "conds": [[3, 0, value]]}}
            for value in ("SOUTH AUSTRALIA", slogan)
        ]
        questions = tmp_path / "questions.jsonl"
        questions.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        pred = render(compose(LogicalForm(sel=5, agg=0, conds=(Condition(3, 0, slogan),)), table))
        assert "\u2028" in pred
        preds = tmp_path / "preds.txt"
        preds.write_text(PLATES_SQL + "\n" + pred + "\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert (report["n"], report["exec_correct"]) == (2, 2)


    def test_byte_order_mark_before_the_first_prediction_is_refused(self, corpus, tmp_path, capsys):
        """A UTF-8 byte-order mark at the start of ``--preds`` is bad data,
        as it is in the JSONL inputs: exit 2 naming line 1, and the reports
        of an earlier run are left as they were. Without it the same lines
        score with no ParseFailure; a U+FEFF further in is prediction text."""
        code, out, table_out = self._run(corpus, tmp_path, [PLATES_SQL] * 3)
        assert code == 0
        assert json.loads(out.read_text())["counts"]["ParseFailure"] == 0
        earlier = out.read_bytes(), table_out.read_bytes()
        questions, tables = corpus
        preds = tmp_path / "preds.txt"
        argv = ["eval", "--preds", str(preds), "--questions", str(questions), "--tables", str(tables),
                "--out-json", str(out), "--out-table", str(table_out)]
        preds.write_bytes(b"\xef\xbb\xbf" + preds.read_bytes())
        assert main(argv) == 2
        assert f"byte-order mark at the start of the file ({preds}:1)" in capsys.readouterr().err
        assert (out.read_bytes(), table_out.read_bytes()) == earlier
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        preds.write_text(PLATES_SQL + "\n\ufeff" + PLATES_SQL + "\n" + PLATES_SQL + "\n", encoding="utf-8")
        assert main(argv) == 0
        assert json.loads(out.read_text())["counts"]["ParseFailure"] == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_predictions_read_from_a_pipe(self, corpus, tmp_path):
        """The start of ``--preds`` is read, never sought back to."""
        questions, tables = corpus
        fifo = tmp_path / "preds.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(PLATES_SQL + "\n",), daemon=True)
        writer.start()
        out = tmp_path / "report.json"
        code = main(["eval", "--preds", str(fifo), "--questions", str(questions), "--tables", str(tables),
                     "--out-json", str(out)])
        writer.join(timeout=10)
        assert code == 0
        assert json.loads(out.read_text())["exec_correct"] == 1

    def test_integer_literal_beyond_the_double_range_is_a_parse_failure(self, tmp_path):
        # No double holds the literal, so scoring it as a number would overflow.
        digits = "9" * 400
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([Table("t", ("a", "b"), ("text", "real"), (("x", 5.0),))]))
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps(
            {"phase": 1, "table_id": "t", "question": f"a when b is {digits}",
             "sql": {"sel": 0, "agg": 0, "conds": [[1, 0, 5.0]]}}
        ) + "\n")
        preds = tmp_path / "preds.txt"
        preds.write_text(f"select [a] from [t] where [b] = {digits}\n")
        out = tmp_path / "report.json"
        code = main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["counts"]["ParseFailure"] == 1

class TestEg:
    def test_selection_and_report(self, corpus, tmp_path):
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({
            "qid": 0,
            "candidates": ["select [bogus] from [1-1000181-1]", PLATES_SQL],
        }) + "\n")
        sel_out, rep_out = tmp_path / "sel.jsonl", tmp_path / "rep.json"
        code = main([
            "eg", "--candidates", str(cands), "--questions", str(questions),
            "--tables", str(tables), "--out-selections", str(sel_out),
            "--out-report", str(rep_out),
        ])
        assert code == 0
        sel = read_jsonl(sel_out)[0]
        assert sel["qid"] == 0
        assert sel["chosen"] == PLATES_SQL
        assert sel["chosen_index"] == 1
        assert not sel["all_failed"]
        assert sel["outcomes"][0]["kind"] == "unknown_column"
        report = json.loads(rep_out.read_text())
        assert report["n"] == 1
        assert report["correct_top1"] == 0
        assert report["correct_eg"] == 1
        assert report["delta"] == 1.0
        assert report["dropped_by_kind"] == {"unknown_column": 1}

    def test_beam_width_never_tries_past_the_width(self, corpus, tmp_path):
        # The first two fail; the third would execute, but a beam of two
        # falls back to the top candidate without trying it.
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({
            "qid": 0,
            "candidates": ["select [bogus] from [1-1000181-1]", "select [notes] from", PLATES_SQL],
        }) + "\n")
        sel_out, rep_out = tmp_path / "sel.jsonl", tmp_path / "rep.json"
        code = main([
            "eg", "--candidates", str(cands), "--questions", str(questions),
            "--tables", str(tables), "--out-selections", str(sel_out),
            "--out-report", str(rep_out), "--beam-width", "2",
        ])
        assert code == 0
        sel = read_jsonl(sel_out)[0]
        assert (sel["chosen_index"], sel["chosen"], sel["all_failed"]) == (0, "select [bogus] from [1-1000181-1]", True)
        assert [o["index"] for o in sel["outcomes"]] == [0, 1]
        assert json.loads(rep_out.read_text())["correct_eg"] == 0

    @pytest.mark.parametrize("qid", [5, True, False])
    def test_bad_qid_rejected(self, corpus, tmp_path, qid):
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": qid, "candidates": ["select [a] from [b]"]}) + "\n")
        code = main([
            "eg", "--candidates", str(cands), "--questions", str(questions),
            "--tables", str(tables), "--out-selections", str(tmp_path / "s"),
            "--out-report", str(tmp_path / "r"),
        ])
        assert code == 2

    def test_malformed_candidates_line_rejected(self, corpus, tmp_path):
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": []}) + "\n")
        code = main([
            "eg", "--candidates", str(cands), "--questions", str(questions),
            "--tables", str(tables), "--out-selections", str(tmp_path / "s"),
            "--out-report", str(tmp_path / "r"),
        ])
        assert code == 2


    def _run_eg(self, corpus, tmp_path, lines):
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text("".join(line + "\n" for line in lines))
        return main([
            "eg", "--candidates", str(cands), "--questions", str(questions),
            "--tables", str(tables), "--out-selections", str(tmp_path / "s"),
            "--out-report", str(tmp_path / "r"),
        ])

    def test_error_names_the_file_line_after_a_blank_line(self, corpus, tmp_path, capsys):
        good = json.dumps({"qid": 0, "candidates": [PLATES_SQL]})
        code = self._run_eg(corpus, tmp_path, [good, "", json.dumps({"qid": 0})])
        assert code == 2
        assert "candidates line 3:" in capsys.readouterr().err

    def test_non_object_line_rejected(self, corpus, tmp_path):
        assert self._run_eg(corpus, tmp_path, [json.dumps([0, [PLATES_SQL]])]) == 2

    def test_gold_that_does_not_validate_rejected(self, corpus, tmp_path, capsys):
        questions, _ = corpus
        # sum over the text column "notes": eval refuses this gold, and so must eg.
        questions.write_text(json.dumps({"phase": 1, "table_id": PLATES_ID, "question": "q",
                                         "sql": {"sel": 5, "agg": 4, "conds": []}}) + "\n")
        code = self._run_eg(corpus, tmp_path, [json.dumps({"qid": 0, "candidates": [PLATES_SQL]})])
        assert code == 2
        assert "candidates line 1: gold does not compose: aggregation/type mismatch: sum on text column 5" in (
            capsys.readouterr().err
        )


class TestEgBlocks:
    """``eg`` scores its candidates file a block of lines at a time, but its
    outputs are those of one ``eg_gain`` call over the whole file."""

    B = _BLOCK_LINES
    # Per question: the beam candidates a line draws from, clean and failing.
    POOLS = [
        [PLATES_SQL, "select [format] from [1-1000181-1]", "select [bogus] from [1-1000181-1]",
         "select [notes] from [9-9-9]", "select notes from"],
        ["select sum([points]) from [2-777-1]", "select max([points]) from [2-777-1]",
         "select [points] from [2-777-1] where [no.] > 'x", "select [bogus] from [2-777-1]"],
        ["select [player] from [2-777-1] where [points] > 2", "select [player] from [2-777-1]",
         "select avg([player]) from [2-777-2]", "select [player] from [2-777-1] or 1=1"],
        ["select count([state/territory]) from [1-1000181-1]", "select [notes] from [1-1000181-1]",
         "select count([bogus]) from [1-1000181-1]"],
    ]

    @pytest.fixture
    def eg_corpus(self, tmp_path, plates_table, points_table):
        tables = tmp_path / "tables.jsonl"
        collision = Table("1-2-3", ("A", "a"), ("text", "text"), (("x", "y"),))
        tables.write_text(dump_tables([plates_table, points_table, collision]))
        sqls = [
            (PLATES_ID, 5, 0, [[3, 0, "SOUTH AUSTRALIA"]]),
            ("2-777-1", 2, 4, []),
            ("2-777-1", 0, 0, [[2, 1, 2]]),
            (PLATES_ID, 0, 3, []),
            ("1-2-3", 0, 0, []),  # headers collide: the engine refuses the table
        ]
        questions = tmp_path / "questions.jsonl"
        questions.write_text("".join(
            json.dumps({"phase": 1, "table_id": t, "question": "q", "sql": {"sel": s, "agg": a, "conds": c}}) + "\n"
            for t, s, a, c in sqls
        ))
        return questions, tables

    def _lines(self, n, seed=0):
        """``n`` candidates lines with repeated qids and mixed beams."""
        rng = random.Random(seed)
        lines = []
        for _ in range(n):
            qid = rng.randrange(len(self.POOLS))
            beam = rng.sample(self.POOLS[qid], rng.randint(1, 3))
            lines.append(json.dumps({"qid": qid, "candidates": beam}))
        return lines

    def _run(self, corpus, work, lines):
        questions, tables = corpus
        work.mkdir()
        cands, sel, rep = work / "cands.jsonl", work / "sel.jsonl", work / "rep.json"
        cands.write_text("".join(line + "\n" for line in lines))
        code = main(["eg", "--candidates", str(cands), "--questions", str(questions), "--tables", str(tables),
                     "--out-selections", str(sel), "--out-report", str(rep)])
        return code, sel, rep

    @pytest.mark.parametrize("n", [0, B - 1, B, B + 1, 3 * B + 7], ids=["0", "B-1", "B", "B+1", "3B+7"])
    def test_outputs_are_one_eg_gain_over_the_file(self, eg_corpus, tmp_path, monkeypatch, cache, n):
        lines = self._lines(n)
        code, sel, rep = self._run(eg_corpus, tmp_path / "blocks", lines)
        assert code == 0
        # The same run with the whole file as one block: one eg_gain call.
        monkeypatch.setattr(textsql.cli, "_BLOCK_LINES", n + 1)
        code, sel_whole, rep_whole = self._run(eg_corpus, tmp_path / "whole", lines)
        assert code == 0
        assert sel.read_bytes() == sel_whole.read_bytes()
        assert rep.read_bytes() == rep_whole.read_bytes()

        questions, tables = eg_corpus
        records, by_id = load_questions(questions), index_by_id(load_tables(tables))
        entries = [json.loads(line) for line in lines]
        tabs = [by_id[records[e["qid"]].table_id] for e in entries]
        gain = eg_gain(
            [e["candidates"] for e in entries],
            [compose(records[e["qid"]].lf, tab) for e, tab in zip(entries, tabs)],
            tabs,
            cache,
        )
        report = json.loads(rep.read_text())
        assert report == {
            "n": n,
            "correct_top1": gain.correct_top1,
            "correct_eg": gain.correct_eg,
            "accuracy_top1": pytest.approx(gain.accuracy_top1, rel=1e-11),
            "accuracy_eg": pytest.approx(gain.accuracy_eg, rel=1e-11),
            "delta": pytest.approx(gain.delta, rel=1e-11),
            "dropped_by_kind": gain.dropped_by_kind,
            "all_failed_count": gain.all_failed_count,
        }
        rows = read_jsonl(sel)
        assert [r["qid"] for r in rows] == [e["qid"] for e in entries]
        assert [(r["chosen"], r["chosen_index"], r["all_failed"]) for r in rows] == [
            (s.chosen_sql, s.chosen_index, s.all_failed) for s in gain.selections
        ]
        if n > self.B:  # the file mixes every outcome
            assert 0 < gain.correct_top1 < gain.correct_eg < n
            assert 0 < gain.all_failed_count and set(gain.dropped_by_kind) > {"malformed", "unknown_column"}

    def test_bad_line_in_second_block_leaves_no_output(self, eg_corpus, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(textsql.cli, "eg_gain", lambda *a: calls.append(len(a[0])) or eg_gain(*a))
        lines = self._lines(3 * self.B + 7)
        lines[self.B + 5] = json.dumps({"qid": 0, "candidates": []})
        code, sel, rep = self._run(eg_corpus, tmp_path / "w", lines)
        assert code == 2
        assert f"candidates line {self.B + 6}: 'candidates' must be a non-empty list" in capsys.readouterr().err
        assert not sel.exists() and not rep.exists()
        assert calls == [self.B]  # the first block ran before the bad line was read

    def test_engine_refusal_in_an_earlier_block_wins(self, eg_corpus, tmp_path, capsys):
        lines = self._lines(3 * self.B + 7)
        lines[3] = json.dumps({"qid": 4, "candidates": ["select [a] from [1-2-3]"]})
        lines[self.B + 5] = json.dumps({"qid": 99, "candidates": [PLATES_SQL]})
        code, sel, rep = self._run(eg_corpus, tmp_path / "w", lines)
        assert code == 2
        err = capsys.readouterr().err
        assert "duplicate column names" in err and "candidates line" not in err
        assert not sel.exists() and not rep.exists()

    def test_memory_does_not_grow_with_the_candidate_lists(self, eg_corpus, tmp_path):
        def peak(n):
            lines = self._lines(n)
            gc.collect()
            tracemalloc.start()
            try:
                code, _, _ = self._run(eg_corpus, tmp_path / str(n), lines)
                _, high = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            return high

        n = 2 * self.B  # two blocks and more, so both runs hold two blocks at once
        per_line = (peak(10 * n) - peak(n)) / (9 * n)
        # What grows per line is its held output line, about 310 B here.
        # Holding every candidate list and selection until the end made it
        # about 840 B.
        assert per_line < 500


class TestStreamingBlocks:
    """``linearize``, ``silver`` and ``eval`` stream their records a block at
    a time, as ``eg`` does: their outputs are those of one block holding the
    whole file, their memory does not grow with the records, and the error
    reported is the first in the order the ``cli`` module docstring states."""

    B = _BLOCK_LINES
    # (table id, sel, agg, conds) per gold, and the predictions a line of
    # that gold draws from, clean and failing.
    GOLDS = [
        (PLATES_ID, 5, 0, [[3, 0, "SOUTH AUSTRALIA"]]),
        ("2-777-1", 2, 4, []),
        ("2-777-1", 0, 0, [[2, 1, 2]]),
        (PLATES_ID, 0, 3, []),
    ]
    POOLS = TestEgBlocks.POOLS

    @pytest.fixture
    def tables(self, tmp_path, plates_table, points_table):
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([plates_table, points_table]))
        return tables

    @staticmethod
    def _record(table_id, sel, agg, conds):
        return json.dumps({"phase": 1, "table_id": table_id, "question": "q south australia 2",
                           "sql": {"sel": sel, "agg": agg, "conds": conds}})

    def _inputs(self, n, seed=0):
        """``n`` question lines and ``n`` prediction lines, aligned."""
        rng = random.Random(seed)
        kinds = [rng.randrange(len(self.GOLDS)) for _ in range(n)]
        return [self._record(*self.GOLDS[k]) for k in kinds], [rng.choice(self.POOLS[k]) for k in kinds]

    @staticmethod
    def _write(work, questions, preds=()):
        """The questions and predictions files, one line per item, in
        ``work``."""
        work.mkdir(exist_ok=True)
        (work / "questions.jsonl").write_text("".join(line + "\n" for line in questions))
        (work / "preds.txt").write_bytes(
            b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n" for line in preds)
        )

    @staticmethod
    def _linearize(tables, work, *flags):
        out = work / "lin.jsonl"
        code = main(["linearize", "--questions", str(work / "questions.jsonl"), "--tables", str(tables),
                     "--out", str(out), *flags])
        return code, out

    @staticmethod
    def _eval(tables, work):
        out_json, out_table = work / "r.json", work / "r.txt"
        code = main(["eval", "--preds", str(work / "preds.txt"), "--questions", str(work / "questions.jsonl"),
                     "--tables", str(tables), "--out-json", str(out_json), "--out-table", str(out_table)])
        return code, out_json, out_table

    @staticmethod
    def _no_outputs(work, *outputs):
        assert not any(path.exists() for path in outputs)
        assert not [p for p in work.rglob("*") if p.name.endswith(".tmp")]

    @staticmethod
    def _peak(run):
        gc.collect()
        tracemalloc.start()
        try:
            code = run()
            _, high = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return high

    @pytest.mark.parametrize("n", [0, B - 1, B, B + 1, 3 * B + 7], ids=["0", "B-1", "B", "B+1", "3B+7"])
    def test_outputs_are_those_of_one_block(self, tables, tmp_path, monkeypatch, n):
        self._write(tmp_path, *self._inputs(n))
        flags = ["--mode", "augmented", "--samples", "1", "--dropout"]
        code, lin = self._linearize(tables, tmp_path, *flags)
        assert code == 0
        code, out_json, out_table = self._eval(tables, tmp_path)
        assert code == 0
        outputs = lin.read_bytes(), out_json.read_bytes(), out_table.read_bytes()
        monkeypatch.setattr(textsql.cli, "_BLOCK_LINES", n + 1)
        assert self._linearize(tables, tmp_path, *flags)[0] == 0
        assert self._eval(tables, tmp_path)[0] == 0
        assert (lin.read_bytes(), out_json.read_bytes(), out_table.read_bytes()) == outputs
        assert len(read_jsonl(lin)) == n
        report = json.loads(out_json.read_text())
        assert report["n"] == n
        if n > self.B:  # the predictions mix outcomes
            assert 0 < report["exec_correct"] < n and report["counts"]["ParseFailure"] > 0
        # Blocks or not, the report is the fold of one score per record.
        tabs = index_by_id(load_tables(tables))
        preds = (tmp_path / "preds.txt").read_text().splitlines()
        counts, exec_correct = Counter(), 0
        with contextlib.closing(TableCache()) as cache:
            for pred, rec in zip(preds, load_questions(tmp_path / "questions.jsonl"), strict=True):
                tab = tabs[rec.table_id]
                label, correct = score_prediction(pred, compose(rec.lf, tab), cache.get(tab), rec.question)
                counts[label] += 1
                exec_correct += correct
        assert report["exec_correct"] == exec_correct
        grid = {label: report["counts"][label] for label in ("Correct", "ParseFailure")}
        grid.update((f"{kind}/{slot}", k) for kind in ("Invalid", "Wrong") for slot, k in report["counts"][kind].items())
        assert grid == {cls.label: counts[cls] for cls in _LABELS}

    def test_linearize_memory_does_not_grow_with_the_records(self, tables, tmp_path):
        def peak(n):
            work = tmp_path / str(n)
            self._write(work, self._inputs(n)[0])
            return self._peak(lambda: self._linearize(tables, work)[0])

        n = 2 * self.B  # two blocks and more, so both runs hold a whole block
        per_line = (peak(10 * n) - peak(n)) / (9 * n)
        # Measured: about 3 B. Loading every record before writing the
        # first line made it about 320 B.
        assert per_line < 100

    def test_eval_memory_does_not_grow_with_the_records(self, tables, tmp_path):
        def peak(n):
            work = tmp_path / str(n)
            self._write(work, *self._inputs(n))
            return self._peak(lambda: self._eval(tables, work)[0])

        n = 2 * self.B
        per_line = (peak(10 * n) - peak(n)) / (9 * n)
        # Measured: about 35 B, the interpreter's free lists filling, which
        # falls to about 10 B past 5,000 lines. Reading every prediction and
        # record before scoring the first made it about 440 B.
        assert per_line < 100

    def test_linearize_bad_record_in_an_earlier_block_wins(self, tables, tmp_path, capsys):
        questions, _ = self._inputs(3 * self.B + 7)
        questions[3] = self._record(PLATES_ID, 99, 0, [])
        questions[self.B + 5] = "{not json"
        self._write(tmp_path, questions)
        code, out = self._linearize(tables, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "record 3: gold does not compose: sel index out of range: 99" in err and "JSON" not in err
        self._no_outputs(tmp_path, out)

    def test_linearize_malformed_line_beats_a_bad_record_earlier_in_its_block(self, tables, tmp_path, capsys):
        questions, _ = self._inputs(3 * self.B + 7)
        questions[self.B + 3] = self._record(PLATES_ID, 99, 0, [])
        questions[self.B + 5] = "{not json"
        self._write(tmp_path, questions)
        code, out = self._linearize(tables, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid JSON" in err and f"questions.jsonl:{self.B + 6})" in err and "record" not in err
        self._no_outputs(tmp_path, out)

    def test_eval_bad_gold_in_an_earlier_block_beats_a_misalignment(self, tables, tmp_path, capsys):
        questions, preds = self._inputs(3 * self.B + 7)
        questions[3] = self._record("9-9-9", 0, 0, [])
        self._write(tmp_path, questions, preds + [PLATES_SQL])
        code, out_json, out_table = self._eval(tables, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "record 3: unknown table '9-9-9'" in err and "predictions for" not in err
        self._no_outputs(tmp_path, out_json, out_table)

    @pytest.mark.parametrize(
        "n_preds, n_records", [(3 * B + 7, B + 2), (B + 2, 3 * B + 7), (2 * B, 2 * B + 1), (2 * B + 1, 2 * B), (0, 1)]
    )
    def test_eval_misalignment_counts_both_files(self, tables, tmp_path, capsys, n_preds, n_records):
        questions, preds = self._inputs(max(n_preds, n_records))
        self._write(tmp_path, questions[:n_records], preds[:n_preds])
        code, out_json, out_table = self._eval(tables, tmp_path)
        assert code == 2
        assert f"data error: {n_preds} predictions for {n_records} records" in capsys.readouterr().err
        self._no_outputs(tmp_path, out_json, out_table)

    def test_eval_malformed_line_in_the_rest_beats_a_misalignment(self, tables, tmp_path, capsys):
        questions, preds = self._inputs(3 * self.B + 7)
        questions[3 * self.B] = json.dumps({"phase": 1, "table_id": PLATES_ID, "question": "q"})
        self._write(tmp_path, questions, preds[: self.B + 1])
        code, out_json, out_table = self._eval(tables, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert f"missing key 'sql'" in err and f"questions.jsonl:{3 * self.B + 1})" in err
        self._no_outputs(tmp_path, out_json, out_table)

    def test_eval_bad_gold_in_an_earlier_block_beats_bytes_that_are_not_utf8(self, tables, tmp_path, capsys):
        questions, preds = self._inputs(4 * self.B)
        questions[3] = self._record(PLATES_ID, 0, 0, [[0, 3, "x"]])
        # Text is decoded a chunk ahead of the lines read; this line is
        # far enough past the first block for that not to matter.
        preds[3 * self.B + 5] = b"select \xff"
        self._write(tmp_path, questions, preds)
        code, out_json, out_table = self._eval(tables, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "record 3: gold does not compose: unsupported operator" in err and "UTF-8" not in err
        self._no_outputs(tmp_path, out_json, out_table)

    def test_eval_bytes_that_are_not_utf8_in_a_later_block(self, tables, tmp_path, capsys):
        questions, preds = self._inputs(4 * self.B)
        preds[3 * self.B + 5] = b"select \xff"
        self._write(tmp_path, questions, preds)
        code, out_json, out_table = self._eval(tables, tmp_path)
        assert code == 2
        preds = tmp_path / "preds.txt"
        assert f"not UTF-8 text (invalid start byte) ({preds}:{3 * self.B + 6})" in capsys.readouterr().err
        self._no_outputs(tmp_path, out_json, out_table)

    def test_eval_unreadable_predictions_file(self, tables, tmp_path, capsys):
        questions, _ = self._inputs(3)
        work = tmp_path / "w"
        work.mkdir()
        (work / "preds.txt").mkdir()
        code = main(["eval", "--preds", str(work / "preds.txt"), "--questions", str(tables), "--tables", str(tables),
                     "--out-json", str(work / "r.json")])
        assert code == 2
        assert f"data error: [Errno 21] Is a directory: '{work / 'preds.txt'}'" in capsys.readouterr().err
        self._no_outputs(work, work / "r.json")

    def test_silver_engine_refusal_beats_any_sampling_error(self, tmp_path, capsys):
        # Every table is checked before any example is sampled: the empty
        # table would stop the first draw, but the colliding headers are
        # the error reported.
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([Table("1-1-1", ("a",), ("text",), ()),
                                       Table("1-2-3", ("A", "a"), ("text", "text"), (("x", "y"),))]))
        out = tmp_path / "s.jsonl"
        assert main(["silver", "--tables", str(tables), "--n", str(3 * self.B), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "table '1-2-3'" in err and "empty table" not in err
        self._no_outputs(tmp_path, out)

    def test_silver_stops_at_the_first_bad_example(self, tables, tmp_path, monkeypatch, capsys):
        # Examples are sampled as they are read: a bad one in the second
        # block ends the run before any later one is sampled.
        calls = []
        b = self.B
        template_question = textsql.cli.template_question

        def question_for(stmt, tab):
            calls.append(stmt)
            if len(calls) == 2 * b + 1:
                raise AssertionError("sampled past the first bad example")
            return "" if len(calls) == b + 5 else template_question(stmt, tab)

        monkeypatch.setattr(textsql.cli, "template_question", question_for)
        out = tmp_path / "s.jsonl"
        out.write_bytes(b"earlier run\n")
        assert main(["silver", "--tables", str(tables), "--n", str(3 * self.B), "--out", str(out)]) == 2
        assert "data error: question generator returned an empty question" in capsys.readouterr().err
        assert len(calls) == self.B + 5
        assert out.read_bytes() == b"earlier run\n"
        self._no_outputs(tmp_path)


class TestEgLoneSurrogate:
    def test_candidate_is_dropped(self, tmp_path):
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([Table("1-1-1", ("A",), ("text",), (("x",),))]))
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps({"phase": 1, "table_id": "1-1-1", "question": "q",
                                         "sql": {"sel": 0, "agg": 0, "conds": []}}) + "\n")
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": [
            "select [a] from [1-1-1] where [a] = '\ud800'", "select [a] from [1-1-1]",
        ]}) + "\n")
        sel_out, rep_out = tmp_path / "sel.jsonl", tmp_path / "rep.json"
        code = main([
            "eg", "--candidates", str(cands), "--questions", str(questions),
            "--tables", str(tables), "--out-selections", str(sel_out),
            "--out-report", str(rep_out),
        ])
        assert code == 0
        sel = read_jsonl(sel_out)[0]
        assert sel["chosen_index"] == 1
        assert sel["outcomes"][0]["kind"] == "other"
        assert "surrogates not allowed" in sel["outcomes"][0]["error"]
        assert json.loads(rep_out.read_text())["correct_eg"] == 1


class TestHeaderCollision:
    """Headers equal after lowercasing cannot be materialized: bad data, not
    an internal error."""

    @pytest.fixture
    def collision_corpus(self, tmp_path):
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([
            Table(table_id="1-2-3", headers=("A", "a"), col_types=("text", "text"), rows=(("x", "y"),))
        ]))
        questions = tmp_path / "questions.jsonl"
        rec = {"phase": 1, "table_id": "1-2-3", "question": "what is a", "sql": {"sel": 0, "agg": 0, "conds": []}}
        questions.write_text(json.dumps(rec) + "\n")
        return questions, tables

    def test_eval_exits_with_data_error(self, collision_corpus, tmp_path, capsys):
        questions, tables = collision_corpus
        preds = tmp_path / "preds.txt"
        preds.write_text("select [a] from [1-2-3]\n")
        code = main([
            "eval", "--preds", str(preds), "--questions", str(questions),
            "--tables", str(tables), "--out-json", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "duplicate column names" in capsys.readouterr().err

    def test_eg_exits_with_data_error(self, collision_corpus, tmp_path):
        questions, tables = collision_corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": ["select [a] from [1-2-3]"]}) + "\n")
        code = main([
            "eg", "--candidates", str(cands), "--questions", str(questions),
            "--tables", str(tables), "--out-selections", str(tmp_path / "s"),
            "--out-report", str(tmp_path / "r"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "col_types, row",
        [(("text", "text"), ("x", "y")), (("real", "real"), (1.0, 2.0))],
        ids=["text_only", "real"],
    )
    def test_silver_exits_with_data_error(self, tmp_path, capsys, col_types, row):
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([Table(table_id="1-2-3", headers=("A", "a"), col_types=col_types, rows=(row,))]))
        out = tmp_path / "silver.jsonl"
        code = main(["silver", "--tables", str(tables), "--n", "20", "--no-zero-conds", "--out", str(out)])
        assert code == 2
        assert "duplicate column names" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteConditionValue:
    """JSON NaN/Infinity load as floats but have no wire literal: bad data."""

    @pytest.fixture(params=["NaN", "Infinity", "-Infinity"])
    def nan_corpus(self, request, corpus):
        questions, tables = corpus
        questions.write_text(
            '{"phase": 1, "table_id": "%s", "question": "q", "sql": {"sel": 5, "agg": 0, '
            '"conds": [[3, 1, %s]]}}\n' % (PLATES_ID, request.param)
        )
        return questions, tables

    @pytest.mark.parametrize("command", ["eval", "eg", "linearize"])
    def test_exits_with_data_error(self, nan_corpus, tmp_path, capsys, command):
        questions, tables = nan_corpus
        inputs = ["--questions", str(questions), "--tables", str(tables)]
        if command == "eval":
            preds = tmp_path / "preds.txt"
            preds.write_text(PLATES_SQL + "\n")
            argv = ["eval", "--preds", str(preds), "--out-json", str(tmp_path / "r.json")]
        elif command == "eg":
            cands = tmp_path / "cands.jsonl"
            cands.write_text(json.dumps({"qid": 0, "candidates": [PLATES_SQL]}) + "\n")
            argv = ["eg", "--candidates", str(cands), "--out-selections", str(tmp_path / "s"),
                    "--out-report", str(tmp_path / "r")]
        else:
            argv = ["linearize", "--out", str(tmp_path / "l.jsonl")]
        assert main(argv + inputs) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_linearize_skip_bad_skips_the_record(self, nan_corpus, tmp_path):
        questions, tables = nan_corpus
        out = tmp_path / "l.jsonl"
        code = main(["linearize", "--questions", str(questions), "--tables", str(tables),
                     "--out", str(out), "--skip-bad"])
        assert code == 0
        assert out.read_text() == ""

    def test_eval_names_the_record(self, nan_corpus, tmp_path, capsys):
        questions, tables = nan_corpus
        preds = tmp_path / "preds.txt"
        preds.write_text(PLATES_SQL + "\n")
        code = main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(tmp_path / "r.json")])
        assert code == 2
        assert "record 0: gold does not compose: non-finite condition value" in capsys.readouterr().err


class TestUnsupportedConditionValue:
    """A condition value that is neither a string nor a number fails
    validation, so --skip-bad skips its record and otherwise the error names
    the record."""

    @pytest.mark.parametrize("value", [True, None, [1], {"a": 1}], ids=["bool", "null", "list", "object"])
    def test_linearize_skips_or_names_the_record(self, corpus, tmp_path, capsys, value):
        questions, tables = corpus
        rec = {"phase": 1, "table_id": PLATES_ID, "question": "q",
               "sql": {"sel": 5, "agg": 0, "conds": [[3, 0, value]]}}
        questions.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "l.jsonl"
        argv = ["linearize", "--questions", str(questions), "--tables", str(tables), "--out", str(out)]
        assert main(argv + ["--skip-bad"]) == 0
        assert out.read_text() == ""
        capsys.readouterr()
        assert main(argv) == 2
        kind = type(value).__name__
        assert f"record 0: gold does not compose: unsupported value type: {kind}" in capsys.readouterr().err


class TestGoldThatDoesNotCompose:
    """A gold is valid exactly when it composes; one that does not is a data
    error naming its record, or its candidates line in ``eg``."""

    OP_THREE = {"phase": 1, "table_id": PLATES_ID, "question": "q", "sql": {"sel": 0, "agg": 0, "conds": [[1, 3, 1.0]]}}

    def _eval(self, questions, tables, tmp_path, n_preds=1):
        preds = tmp_path / "preds.txt"
        preds.write_text((PLATES_SQL + "\n") * n_preds)
        return main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(tmp_path / "r.json")])

    def test_eval_names_the_record(self, corpus, tmp_path, capsys):
        questions, tables = corpus
        questions.write_text(json.dumps(self.OP_THREE) + "\n")
        assert self._eval(questions, tables, tmp_path) == 2
        assert "data error: record 0: gold does not compose: unsupported operator" in capsys.readouterr().err

    def test_eg_names_the_candidates_line(self, corpus, tmp_path, capsys):
        questions, tables = corpus
        questions.write_text(json.dumps(self.OP_THREE) + "\n")
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": [PLATES_SQL]}) + "\n")
        code = main(["eg", "--candidates", str(cands), "--questions", str(questions), "--tables", str(tables),
                     "--out-selections", str(tmp_path / "s"), "--out-report", str(tmp_path / "r")])
        assert code == 2
        assert "data error: candidates line 1: gold does not compose: unsupported operator" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("bad_table_first", [True, False], ids=["table_first", "gold_first"])
    def test_eval_reports_the_first_bad_record_in_file_order(self, tmp_path, capsys, bad_table_first):
        # Table 1-2-3's headers collide, so the engine cannot hold it.
        tables = tmp_path / "tables.jsonl"
        collision = Table("1-2-3", ("A", "a"), ("text", "text"), (("x", "y"),))
        tables.write_text(dump_tables([collision, Table("1-1-1", ("b",), ("text",), (("x",),))]))
        bad_table = {"phase": 1, "table_id": "1-2-3", "question": "q", "sql": {"sel": 0, "agg": 0, "conds": []}}
        bad_gold = {"phase": 1, "table_id": "1-1-1", "question": "q", "sql": {"sel": 0, "agg": 4, "conds": []}}
        records = [bad_table, bad_gold] if bad_table_first else [bad_gold, bad_table]
        questions = tmp_path / "questions.jsonl"
        questions.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert self._eval(questions, tables, tmp_path, n_preds=2) == 2
        err = capsys.readouterr().err
        if bad_table_first:
            assert "duplicate column names" in err and "gold" not in err
        else:
            assert "record 0: gold does not compose: aggregation/type mismatch: sum on text column 0" in err

    @pytest.mark.parametrize("command", ["linearize", "eval"])
    def test_integer_beyond_the_double_range_is_a_data_error(self, corpus, tmp_path, capsys, command):
        # It used to reach a float conversion and exit 3.
        questions, tables = corpus
        questions.write_text(
            '{"phase": 1, "table_id": "%s", "question": "q", "sql": {"sel": 5, "agg": 0, '
            '"conds": [[3, 1, %s]]}}\n' % (PLATES_ID, "9" * 400)
        )
        if command == "eval":
            code = self._eval(questions, tables, tmp_path)
        else:
            argv = ["linearize", "--questions", str(questions), "--tables", str(tables), "--out", str(tmp_path / "l")]
            assert main(argv + ["--skip-bad"]) == 0
            code = main(argv)
        assert code == 2
        assert "record 0: gold does not compose: integer condition value beyond the double range" in (
            capsys.readouterr().err
        )


class TestEachGoldComposedOnce:
    """``linearize``, ``eval`` and ``eg`` compose each record's gold exactly
    once, wherever in the library a compose might happen."""

    N = 7

    @pytest.fixture
    def compose_calls(self, monkeypatch):
        calls = []
        real = textsql.sql.compose

        def counting_compose(lf, tab):
            calls.append(lf)
            return real(lf, tab)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "textsql" and getattr(module, "compose", None) is real:
                monkeypatch.setattr(module, "compose", counting_compose)
        return calls

    @pytest.fixture
    def golds(self, tmp_path, points_table):
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([points_table]))
        lfs = [{"sel": i % 3, "agg": (0, 3, 5)[i % 3], "conds": [[2, i % 3, i]]} for i in range(self.N)]
        questions = tmp_path / "questions.jsonl"
        questions.write_text("".join(
            json.dumps({"phase": 1, "table_id": points_table.table_id, "question": f"q {i}", "sql": lf}) + "\n"
            for i, lf in enumerate(lfs)
        ))
        return questions, tables, [LogicalForm(lf["sel"], lf["agg"], (Condition(*lf["conds"][0]),)) for lf in lfs]

    @pytest.mark.parametrize("command", ["linearize", "eval", "eg"])
    def test_one_compose_per_gold(self, golds, compose_calls, tmp_path, command):
        questions, tables, lfs = golds
        inputs = ["--questions", str(questions), "--tables", str(tables)]
        if command == "linearize":
            argv = ["linearize", "--out", str(tmp_path / "l.jsonl"), "--mode", "augmented", "--samples", "1"]
        elif command == "eval":
            preds = tmp_path / "preds.txt"
            preds.write_text("select [player] from [2-777-1]\n" * self.N)
            argv = ["eval", "--preds", str(preds), "--out-json", str(tmp_path / "r.json")]
        else:
            cands = tmp_path / "cands.jsonl"
            beam = ["select [bogus] from [2-777-1]", "select [player] from [2-777-1]"]
            cands.write_text("".join(json.dumps({"qid": i, "candidates": beam}) + "\n" for i in range(self.N)))
            argv = ["eg", "--candidates", str(cands), "--out-selections", str(tmp_path / "s"),
                    "--out-report", str(tmp_path / "r")]
        assert main(argv + inputs) == 0
        assert compose_calls == lfs


class TestTableSqliteRefuses:
    """A table SQLite will not create is bad data, not an internal error."""

    @pytest.fixture(
        params=[("sqlite_t", "A"), ("1-\x00-1", "A"), ("1-1-1", "A\x00B")],
        ids=["reserved_table_id", "nul_in_table_id", "nul_in_header"],
    )
    def refused_corpus(self, request, tmp_path):
        table_id, header = request.param
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([Table(table_id, (header,), ("real",), ((1.0,),))]))
        tables.with_name("text_tables.jsonl").write_text(
            dump_tables([Table(table_id, (header,), ("text",), (("x",),))])
        )
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps({"phase": 1, "table_id": table_id, "question": "q",
                                         "sql": {"sel": 0, "agg": 0, "conds": []}}) + "\n")
        return questions, tables

    def test_silver_exits_with_data_error(self, refused_corpus, tmp_path):
        _, tables = refused_corpus
        assert main(["silver", "--tables", str(tables), "--n", "3", "--out", str(tmp_path / "o")]) == 2

    def test_silver_on_text_only_table_exits_with_data_error(self, refused_corpus, tmp_path, capsys):
        # No inequality probe materializes a text-only table; the name rule
        # must refuse it anyway.
        tables = refused_corpus[1].with_name("text_tables.jsonl")
        out = tmp_path / "o"
        assert main(["silver", "--tables", str(tables), "--n", "3", "--out", str(out)]) == 2
        assert "data error: table" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_exits_with_data_error(self, refused_corpus, tmp_path):
        questions, tables = refused_corpus
        preds = tmp_path / "preds.txt"
        preds.write_text("select [a] from [1-1-1]\n")
        code = main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(tmp_path / "r.json")])
        assert code == 2


class TestCellEngineCannotStore:
    """A cell SQLite cannot store is bad data, not an internal error."""

    WIDE_INT = ('"real"', "100000000000000000000", "64-bit")

    def _corpus(self, tmp_path, col_type, cell):
        tables = tmp_path / "tables.jsonl"
        tables.write_text('{"id": "1-1-1", "header": ["A"], "types": [%s], "rows": [[%s]]}\n' % (col_type, cell))
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps({"phase": 1, "table_id": "1-1-1", "question": "q",
                                         "sql": {"sel": 0, "agg": 0, "conds": []}}) + "\n")
        return questions, tables

    def test_silver_exits_with_data_error(self, tmp_path, capsys):
        col_type, cell, message = self.WIDE_INT
        _, tables = self._corpus(tmp_path, col_type, cell)
        assert main(["silver", "--tables", str(tables), "--n", "2", "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, message",
        [("100000000000000000000", "64-bit"), ('"\\ud800"', "surrogates not allowed"),
         ("true", "boolean cells")],
        ids=["integer_beyond_64_bits", "lone_surrogate", "boolean"],
    )
    def test_silver_refuses_text_only_table(self, tmp_path, capsys, cell, message):
        # Text columns are never probed, so only the up-front check sees the cell.
        _, tables = self._corpus(tmp_path, '"text"', cell)
        out = tmp_path / "o"
        assert main(["silver", "--tables", str(tables), "--n", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error: table '1-1-1'" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "col_type, cell, message",
        [WIDE_INT, ('"text"', '"\\ud800"', "surrogates not allowed")],
        ids=["integer_beyond_64_bits", "lone_surrogate"],
    )
    def test_eval_exits_with_data_error(self, tmp_path, capsys, col_type, cell, message):
        questions, tables = self._corpus(tmp_path, col_type, cell)
        preds = tmp_path / "preds.txt"
        preds.write_text("select [a] from [1-1-1]\n")
        code = main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(tmp_path / "r.json")])
        assert code == 2
        assert message in capsys.readouterr().err


class TestWronglyTypedField:
    """A field of the wrong JSON type is bad data naming its file line, not
    an internal error or a value silently read as another."""

    RECORD = {"phase": 1, "table_id": PLATES_ID, "question": PLATES_QUESTION,
              "sql": {"sel": 5, "agg": 0, "conds": [[3, 0, "SOUTH AUSTRALIA"]]}}

    def _eval(self, questions, tables, tmp_path):
        preds = tmp_path / "preds.txt"
        preds.write_text(PLATES_SQL + "\n")
        return main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(tmp_path / "r.json")])

    def _question_field(self, corpus, tmp_path, capsys, mutate):
        questions, tables = corpus
        rec = json.loads(json.dumps(self.RECORD))
        mutate(rec)
        questions.write_text("\n" + json.dumps(rec) + "\n")
        assert self._eval(questions, tables, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"({questions}:2)" in err and "internal error" not in err
        return err

    def test_question_that_is_a_number(self, corpus, tmp_path, capsys):
        err = self._question_field(corpus, tmp_path, capsys, lambda r: r.update(question=1.5))
        assert "'question' is not a string: got a number" in err

    def test_condition_that_is_an_object(self, corpus, tmp_path, capsys):
        err = self._question_field(corpus, tmp_path, capsys, lambda r: r["sql"].update(conds=[{"a": 1}]))
        assert "condition 0 is not a [column, operator, value] list: got an object" in err

    def test_select_column_that_is_not_an_integer(self, corpus, tmp_path, capsys):
        err = self._question_field(corpus, tmp_path, capsys, lambda r: r["sql"].update(sel="x"))
        assert "'sel' is not an integer: got a string" in err

    def test_condition_column_that_is_not_an_integer(self, corpus, tmp_path, capsys):
        err = self._question_field(corpus, tmp_path, capsys, lambda r: r["sql"]["conds"][0].__setitem__(0, "x"))
        assert "condition 0 column is not an integer: got a string" in err

    def test_aggregation_that_is_a_boolean(self, corpus, tmp_path, capsys):
        err = self._question_field(corpus, tmp_path, capsys, lambda r: r["sql"].update(agg=True))
        assert "'agg' is not an integer: got a boolean" in err

    @pytest.mark.parametrize("command", ["silver", "eval"])
    def test_table_id_that_is_not_a_string(self, corpus, tmp_path, capsys, command):
        questions, tables = corpus
        table = json.loads(tables.read_text())
        tables.write_text(json.dumps({**table, "id": 6}) + "\n")
        if command == "silver":
            code = main(["silver", "--tables", str(tables), "--n", "2", "--out", str(tmp_path / "o")])
        else:
            code = self._eval(questions, tables, tmp_path)
        assert code == 2
        assert f"'id' is not a string: got an integer ({tables}:1)" in capsys.readouterr().err

    def _table_with_rows(self, tmp_path, rows):
        """Questions and tables files for one table, on the tables file's
        second line, whose rows are ``rows``."""
        tables = tmp_path / "tables.jsonl"
        table = {"id": "t-1", "header": ["a", "b"], "types": ["text", "real"], "rows": rows}
        tables.write_text("\n" + json.dumps(table) + "\n")
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps({"phase": 1, "table_id": "t-1", "question": "q",
                                         "sql": {"sel": 0, "agg": 0, "conds": []}}) + "\n")
        return questions, tables

    def test_row_that_is_not_a_list(self, tmp_path, capsys):
        questions, tables = self._table_with_rows(tmp_path, ["ab", {"x": 1, "y": 2}])
        code = main(["linearize", "--questions", str(questions), "--tables", str(tables),
                     "--out", str(tmp_path / "o"), "--mode", "augmented", "--samples", "2"])
        assert code == 2
        assert f"row 0 is not a list: got a string ({tables}:2)" in capsys.readouterr().err

    def test_cell_that_is_a_list_or_object(self, tmp_path, capsys):
        questions, tables = self._table_with_rows(tmp_path, [["x", 1], [{"k": 1}, [1, 2]]])
        assert self._eval(questions, tables, tmp_path) == 2
        assert f"row 1 cell 0 is not a scalar: got an object ({tables}:2)" in capsys.readouterr().err


# JSON values that ``json.loads`` refuses with a plain ValueError or a
# RecursionError rather than a JSONDecodeError.
_UNDECODABLE = [
    pytest.param("9" * 5000, "Exceeds the limit (4300 digits)", id="integer_beyond_digit_limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded", id="nested_too_deep"),
]


class TestJsonBeyondDecoderLimits:
    """A value the JSON decoder cannot hold is bad data naming its line, not
    an internal error."""

    @pytest.mark.parametrize("value, message", _UNDECODABLE)
    @pytest.mark.parametrize("name", ["questions", "tables"])
    def test_jsonl_input_names_the_line(self, corpus, tmp_path, capsys, name, value, message):
        questions, tables = corpus
        bad = {"questions": questions, "tables": tables}[name]
        line = {"questions": '{"phase": %s}', "tables": '{"id": "t-1", "rows": [[%s]]}'}[name] % value
        bad.write_text(bad.read_text() + line + "\n")
        code = main(["linearize", "--questions", str(questions), "--tables", str(tables),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"invalid JSON: {message}" in err and f"({bad}:2)" in err

    @pytest.mark.parametrize("value, message", _UNDECODABLE)
    def test_config(self, corpus, tmp_path, capsys, value, message):
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": %s}' % value)
        code = main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 2
        assert f"config {cfg} is not valid JSON: {message}" in capsys.readouterr().err


class TestGateCheck:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "check.json"
        code = main(["gate", "check", "--out", str(out), "--seeds", "2",
                     "--d-model", "6", "--vocab-size", "12", "--src-len", "4",
                     "--tgt-len", "3"])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["per_seed"]) == 2
        assert report["max_rel_error"] <= 1e-4
        assert report["max_rel_error"] == max(s["max_rel_error"] for s in report["per_seed"])

    def test_report_matches_the_full_forward_oracle(self, tmp_path):
        from test_gate import full_forward_grad_check

        from textsql.normalize import round12
        from textsql.gate import random_check_instance

        out = tmp_path / "check.json"
        assert main(["gate", "check", "--seeds", "2", "--out", str(out)]) == 0
        dims = {"d_model": 8, "vocab_size": 20, "src_len": 5, "tgt_len": 4}
        per_seed = []
        for seed in range(2):
            model, src, tgt = random_check_instance(seed, **dims)
            result = full_forward_grad_check(model, src, tgt, 1e-5, model.gate_param_names())
            per_seed.append(
                {"seed": seed, "max_rel_error": round12(result.max_rel_error), "worst_param": result.worst_param}
            )
        overall = max(s["max_rel_error"] for s in per_seed)
        expected = {"epsilon": round12(1e-5), **dims, "per_seed": per_seed, "max_rel_error": overall}
        assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_zero_seeds_is_usage_error(self, tmp_path, capsys):
        # No instance checked would report a max relative error of 0.0.
        out = tmp_path / "check.json"
        assert main(["gate", "check", "--out", str(out), "--seeds", "0"]) == 1
        assert "usage error: argument --seeds: must be >= 1, got 0" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": 0}))
        assert main(["gate", "check", "--out", str(out), "--config", str(cfg)]) == 1
        assert "must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestGateTrain:
    ARGS = ["--steps", "40", "--d-model", "8", "--batch-size", "4",
            "--eval-size", "10", "--log-every", "20", "--seed", "1"]

    def test_metrics_file_shape(self, tmp_path):
        out = tmp_path / "metrics.jsonl"
        assert main(["gate", "train", "--out-metrics", str(out)] + self.ARGS) == 0
        rows = read_jsonl(out)
        assert [r["step"] for r in rows[:-1]] == [0, 20, 39]
        final = rows[-1]
        assert final["final"] is True
        assert final["gated"] is True
        assert 0.0 <= final["value_copy_accuracy"] <= 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gate", "train", "--out-metrics", str(a)] + self.ARGS) == 0
        assert main(["gate", "train", "--out-metrics", str(b)] + self.ARGS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ablation_flag_recorded(self, tmp_path):
        out = tmp_path / "metrics.jsonl"
        code = main(["gate", "train", "--out-metrics", str(out), "--ablation"] + self.ARGS)
        assert code == 0
        assert read_jsonl(out)[-1]["gated"] is False

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_a_data_error(self, tmp_path, capsys):
        out, params = tmp_path / "m.jsonl", tmp_path / "model.bin"
        code = main(["gate", "train", "--steps", "2", "--lr", "1e300",
                     "--out-metrics", str(out), "--out-params", str(params)])
        assert code == 2
        assert "data error: gate train diverged: loss became nan at step 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_params_round_trip(self, tmp_path):
        out = tmp_path / "metrics.jsonl"
        params = tmp_path / "model.bin"
        code = main(["gate", "train", "--out-metrics", str(out),
                     "--out-params", str(params)] + self.ARGS)
        assert code == 0
        model = load_params(params)
        assert model.cfg.d_model == 8
        # The bytes the library itself encodes, through the command's writer.
        blob, text = encode_params(model)
        assert params.read_bytes() == blob
        assert sidecar_path(params) == tmp_path / "model.bin.json"
        assert sidecar_path(params).read_bytes() == text.encode("utf-8")


class TestConfigFile:
    def test_flag_beats_config_beats_default(self, corpus, tmp_path):
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "n": 3}))
        by_config, by_flag, overridden = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["silver", "--tables", str(tables), "--out", str(by_config),
                     "--config", str(cfg)]) == 0
        assert main(["silver", "--tables", str(tables), "--out", str(by_flag),
                     "--n", "3", "--seed", "5"]) == 0
        assert main(["silver", "--tables", str(tables), "--out", str(overridden),
                     "--config", str(cfg), "--seed", "6"]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        assert overridden.read_bytes() != by_config.read_bytes()

    def test_byte_order_mark_is_data_error(self, corpus, tmp_path, capsys):
        # Read by the line reader every input goes through, not by the JSON decoder.
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"n": 1}')
        code = main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: byte-order mark at the start of the file ({cfg}:1)" in err
        assert "JSON" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_file_is_data_error(self, corpus, tmp_path, capsys):
        _, tables = corpus
        cfg = tmp_path / "absent.json"
        code = main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: [Errno 2] No such file or directory") and str(cfg) in err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_is_usage_error(self, corpus, tmp_path):
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o"),
                     "--n", "1", "--config", str(cfg)])
        assert code == 1

    def test_removed_any_agg_switch_is_usage_error(self, corpus, tmp_path):
        # Its sum/avg on a text column is refused by linearize, eval and eg.
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"any_agg": True}))
        argv = ["silver", "--tables", str(tables), "--out", str(tmp_path / "o"), "--n", "1"]
        assert main(argv + ["--config", str(cfg)]) == 1
        assert main(argv + ["--any-agg"]) == 1

    def test_non_object_config_rejected(self, corpus, tmp_path):
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o"),
                     "--n", "1", "--config", str(cfg)])
        assert code == 1


    @pytest.mark.parametrize("entries", [{"n": "abc"}, {"n": 2.5}, {"no_zero_conds": "yes"}],
                             ids=["n_not_a_number", "n_not_an_int", "switch_not_a_bool"])
    def test_value_checked_like_its_flag(self, corpus, tmp_path, entries):
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, **entries}))
        code = main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 1

    def test_out_of_range_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"log_every": 0}))
        assert main(["gate", "train", "--out-metrics", str(tmp_path / "m"), "--config", str(cfg)]) == 1

    def test_values_reach_the_run_with_their_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.001, "seeds": "1", "d_model": 4,
                                   "vocab_size": 6, "src_len": 3, "tgt_len": 2}))
        out = tmp_path / "check.json"
        assert main(["gate", "check", "--out", str(out), "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert report["epsilon"] == 0.001
        assert (report["d_model"], report["vocab_size"], report["src_len"], report["tgt_len"]) == (4, 6, 3, 2)
        assert len(report["per_seed"]) == 1


class TestRangeChecks:
    """A flag value outside its range is a usage error, caught where the
    flag is declared rather than deep inside the library. (The config-file
    probes are in TestConfigFile.)"""

    @pytest.mark.parametrize(
        "argv",
        [
            ["silver", "--tables", "t", "--out", "o", "--n", "1", "--max-conds", "-1"],
            ["gate", "train", "--out-metrics", "m", "--log-every", "0"],
            ["gate", "train", "--out-metrics", "m", "--lr", "0"],
            ["gate", "check", "--out", "o", "--epsilon", "0"],
            ["gate", "check", "--out", "o", "--d-model", "0"],
            ["eg", "--candidates", "c", "--questions", "q", "--tables", "t",
             "--out-selections", "s", "--out-report", "r", "--beam-width", "0"],
            ["linearize", "--questions", "q", "--tables", "t", "--out", "o", "--max-cell-len", "0"],
            ["linearize", "--questions", "q", "--tables", "t", "--out", "o", "--mode", "augmented",
             "--samples", "-1"],
        ],
        ids=["max_conds", "log_every", "lr", "epsilon", "d_model", "beam_width", "max_cell_len", "samples"],
    )
    def test_out_of_range_flag_exits_1(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "usage error: argument --" in capsys.readouterr().err


# The defaults table the command line had when each flag was declared twice,
# kept as the oracle that declaring each flag once changed no default.
REFERENCE_DEFAULTS = {
    "linearize": {
        "questions": None,
        "tables": None,
        "out": None,
        "mode": "baseline",
        "samples": 0,
        "dropout": False,
        "seed": 0,
        "max_cell_len": 32,
        "skip_bad": False,
    },
    "silver": {
        "tables": None,
        "out": None,
        "n": None,
        "seed": 0,
        "max_conds": 3,
        "no_zero_conds": False,
    },
    "eval": {
        "preds": None,
        "questions": None,
        "tables": None,
        "out_json": None,
        "out_table": None,
    },
    "eg": {
        "candidates": None,
        "questions": None,
        "tables": None,
        "out_selections": None,
        "out_report": None,
        "beam_width": 3,
    },
    "gate check": {
        "out": None,
        "seeds": 20,
        "epsilon": 1e-5,
        "d_model": 8,
        "vocab_size": 20,
        "src_len": 5,
        "tgt_len": 4,
    },
    "gate train": {
        "out_metrics": None,
        "out_params": None,
        "steps": 600,
        "batch_size": 16,
        "lr": 0.5,
        "d_model": 32,
        "eval_size": 200,
        "seed": 0,
        "log_every": 25,
        "ablation": False,
    },
}


@pytest.mark.parametrize("command", sorted(REFERENCE_DEFAULTS))
def test_parsed_defaults_match_reference(command):
    args = vars(build_parser().parse_args(command.split()))
    assert args.pop("config") is None
    del args["handler"], args["parser"]
    typed = lambda d: {k: (type(v), v) for k, v in d.items()}  # noqa: E731 - False == 0, so compare types too
    assert typed(args) == typed(REFERENCE_DEFAULTS[command])


class TestNotUtf8:
    """Input bytes that are not UTF-8 are bad data (exit 2), not an internal error."""

    def test_eval_preds(self, corpus, tmp_path, capsys):
        questions, tables = corpus
        preds = tmp_path / "preds.txt"
        preds.write_bytes(PLATES_SQL.encode() + b"\n\xff")
        code = main(["eval", "--preds", str(preds), "--questions", str(questions),
                     "--tables", str(tables), "--out-json", str(tmp_path / "r.json")])
        assert code == 2
        assert f"not UTF-8 text (invalid start byte) ({preds}:2)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tables", "--questions", "--candidates"])
    def test_jsonl_input_names_the_line(self, corpus, tmp_path, capsys, flag):
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": [PLATES_SQL]}) + "\n")
        bad = {"--tables": tables, "--questions": questions, "--candidates": cands}[flag]
        bad.write_bytes(bad.read_bytes() + b"\n" + b'{"id": "\xff"}\n')
        code = main(["eg", "--candidates", str(cands), "--questions", str(questions),
                     "--tables", str(tables), "--out-selections", str(tmp_path / "s"),
                     "--out-report", str(tmp_path / "r")])
        assert code == 2
        assert f"not UTF-8 text (invalid start byte) ({bad}:3)" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["byte-order mark", "line 2"])
    @pytest.mark.parametrize("flag", ["--tables", "--questions", "--candidates", "--preds"])
    def test_one_message_per_fault_whatever_the_input(self, corpus, tmp_path, capsys, flag, fault):
        """Every input file is read by one reader, so a fault is reported
        in the same words whichever file holds it."""
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": [PLATES_SQL]}) + "\n")
        preds = tmp_path / "preds.txt"
        preds.write_text(PLATES_SQL + "\n")
        bad = {"--tables": tables, "--questions": questions, "--candidates": cands, "--preds": preds}[flag]
        if fault == "byte-order mark":
            bad.write_bytes(b"\xef\xbb\xbf" + bad.read_bytes())
            expected = f"byte-order mark at the start of the file ({bad}:1)"
        else:
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
            expected = f"not UTF-8 text (invalid start byte) ({bad}:2)"
        inputs = ["--questions", str(questions), "--tables", str(tables)]
        if flag == "--preds":
            argv = ["eval", "--preds", str(preds), *inputs, "--out-json", str(tmp_path / "r.json")]
        else:
            argv = ["eg", "--candidates", str(cands), *inputs, "--out-selections", str(tmp_path / "s"),
                    "--out-report", str(tmp_path / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {expected}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("flag", ["--preds", "--candidates"])
    def test_pipe_exits_without_reading_it_again(self, corpus, tmp_path, flag):
        """A drained pipe cannot be read again to find the bad line: opening
        it a second time would wait for a writer that has gone."""
        questions, tables = corpus
        fifo = tmp_path / "input.fifo"
        os.mkfifo(fifo)
        if flag == "--preds":
            argv = ["eval", "--preds", str(fifo), "--out-json", str(tmp_path / "r.json")]
            data = PLATES_SQL.encode() + b"\n\xff\n"
        else:
            argv = ["eg", "--candidates", str(fifo), "--out-selections", str(tmp_path / "s"),
                    "--out-report", str(tmp_path / "r")]
            data = json.dumps({"qid": 0, "candidates": [PLATES_SQL]}).encode() + b'\n{"qid": "\xff"}\n'
        src = str(Path(textsql.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "textsql.cli", *argv, "--questions", str(questions), "--tables", str(tables)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            deadline = time.monotonic() + 30
            while True:  # a non-blocking open, so a child that never reads cannot hang the test
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                    break
                except OSError as exc:
                    if exc.errno != errno.ENXIO or proc.poll() is not None or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            os.set_blocking(fd, True)
            with open(fd, "wb") as writer:
                writer.write(data)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 2
        assert f"not UTF-8 text (invalid start byte) ({fifo})" in err
        assert "None" not in err

    def test_config(self, corpus, tmp_path, capsys):
        _, tables = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"n": "\xff"}')
        code = main(["silver", "--tables", str(tables), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 2
        assert f"data error: not UTF-8 text (invalid start byte) ({cfg}:1)" in capsys.readouterr().err


class TestOutputs:
    """Every command writes its outputs through one writer: a failed command
    leaves no output file, whole or partial, and no temporary, and a file
    already at an output path keeps its bytes."""

    GATE_TRAIN = ["--steps", "2", "--d-model", "8", "--batch-size", "2", "--eval-size", "2", "--log-every", "1"]

    @staticmethod
    def _no_temporaries(root):
        assert not [p for p in root.rglob("*") if p.name.endswith(".tmp")]

    def _eval(self, corpus, tmp_path, out_json, out_table=None):
        questions, tables = corpus
        preds = tmp_path / "preds.txt"
        preds.write_text(PLATES_SQL + "\n")
        argv = ["eval", "--preds", str(preds), "--questions", str(questions), "--tables", str(tables),
                "--out-json", str(out_json)]
        return main(argv + (["--out-table", str(out_table)] if out_table is not None else []))

    def _eg(self, corpus, tmp_path, sel, rep, line):
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": [PLATES_SQL]}) + "\n" + line + "\n")
        return main(["eg", "--candidates", str(cands), "--questions", str(questions), "--tables", str(tables),
                     "--out-selections", str(sel), "--out-report", str(rep)])

    def test_eval_with_a_directory_as_second_output_writes_neither(self, corpus, tmp_path, capsys):
        out_json, out_dir = tmp_path / "eval.json", tmp_path / "table_dir"
        out_dir.mkdir()
        assert self._eval(corpus, tmp_path, out_json, out_dir) == 2
        assert f"Is a directory: '{out_dir}'" in capsys.readouterr().err
        assert not out_json.exists()
        self._no_temporaries(tmp_path)

    def test_eg_with_a_directory_as_report_writes_no_selections(self, corpus, tmp_path):
        sel, rep = tmp_path / "sel.jsonl", tmp_path / "rep_dir"
        rep.mkdir()
        line = json.dumps({"qid": 0, "candidates": [PLATES_SQL]})
        assert self._eg(corpus, tmp_path, sel, rep, line) == 2
        assert not sel.exists()
        self._no_temporaries(tmp_path)

    def test_gate_train_with_an_unwritable_params_path_writes_no_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        params = tmp_path / "nodir" / "p.bin"
        argv = ["gate", "train", "--out-metrics", str(metrics), "--out-params", str(params)]
        assert main(argv + self.GATE_TRAIN) == 2
        assert f"No such file or directory: '{params}'" in capsys.readouterr().err
        assert not metrics.exists()
        self._no_temporaries(tmp_path)

    def test_gate_train_with_a_directory_at_the_sidecar_path_writes_no_blob(self, tmp_path, capsys):
        # The blob and its sidecar go through the writer with the metrics
        # file: a sidecar that cannot be written leaves no orphan blob.
        metrics, params = tmp_path / "metrics.jsonl", tmp_path / "p.bin"
        (tmp_path / "p.bin.json").mkdir()
        argv = ["gate", "train", "--out-metrics", str(metrics), "--out-params", str(params)]
        assert main(argv + self.GATE_TRAIN) == 2
        assert f"Is a directory: '{tmp_path / 'p.bin.json'}'" in capsys.readouterr().err
        assert not params.exists() and not metrics.exists()
        self._no_temporaries(tmp_path)

    def test_error_names_the_output_path_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gate", "check", "--out", "nodir/report.json", "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "No such file or directory: 'nodir/report.json'" in err
        assert ".tmp" not in err and str(tmp_path) not in err

    def test_file_at_output_path_unchanged_after_bad_data(self, corpus, tmp_path, capsys):
        questions, tables = corpus
        questions.write_text(questions.read_text() + json.dumps(
            {"phase": 1, "table_id": PLATES_ID, "question": "q", "sql": {"sel": 99, "agg": 0, "conds": []}}) + "\n")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"earlier run\n")
        assert main(["linearize", "--questions", str(questions), "--tables", str(tables), "--out", str(out)]) == 2
        assert "record 1: gold does not compose: sel index out of range: 99" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier run\n"
        self._no_temporaries(tmp_path)

    def test_files_at_eg_output_paths_unchanged_after_a_bad_line(self, corpus, tmp_path, monkeypatch):
        # One line per block: the first line's selection is written before
        # the second, bad line is read.
        monkeypatch.setattr(textsql.cli, "_BLOCK_LINES", 1)
        sel, rep = tmp_path / "sel.jsonl", tmp_path / "rep.json"
        sel.write_bytes(b"old selections\n")
        rep.write_bytes(b"old report\n")
        assert self._eg(corpus, tmp_path, sel, rep, json.dumps({"qid": 5, "candidates": [PLATES_SQL]})) == 2
        assert sel.read_bytes() == b"old selections\n" and rep.read_bytes() == b"old report\n"
        self._no_temporaries(tmp_path)

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_device_output_is_written_in_place(self, corpus, tmp_path):
        out_table = tmp_path / "eval.txt"
        assert self._eval(corpus, tmp_path, "/dev/null", out_table) == 0
        assert not stat.S_ISREG(os.stat("/dev/null").st_mode)
        assert "exec_accuracy" in out_table.read_text()
        self._no_temporaries(tmp_path)

    def test_two_outputs_at_one_path_end_as_the_last_written(self, corpus, tmp_path):
        out = tmp_path / "report"
        assert self._eval(corpus, tmp_path, out, out) == 0
        assert out.read_text().startswith("n ")  # the text table, written second
        self._no_temporaries(tmp_path)

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    def test_symbolic_link_is_written_through(self, corpus, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        assert self._eval(corpus, tmp_path, link) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["n"] == 1
        self._no_temporaries(tmp_path)


class TestEnginesAreClosed:
    """Each command that executes SQL closes the one engine it makes."""

    @pytest.fixture
    def caches(self, monkeypatch):
        made = []

        class RecordingCache(textsql.cli.TableCache):
            def __init__(self):
                super().__init__()
                self.closed = 0
                made.append(self)

            def close(self):
                self.closed += 1
                super().close()

        monkeypatch.setattr(textsql.cli, "TableCache", RecordingCache)
        return made

    def test_eval(self, corpus, tmp_path, caches):
        questions, tables = corpus
        preds = tmp_path / "preds.txt"
        preds.write_text(PLATES_SQL + "\n")
        assert main(["eval", "--preds", str(preds), "--questions", str(questions), "--tables", str(tables),
                     "--out-json", str(tmp_path / "eval.json")]) == 0
        assert [c.closed for c in caches] == [1]

    def test_silver(self, corpus, tmp_path, caches):
        _, tables = corpus
        assert main(["silver", "--tables", str(tables), "--n", "3", "--out", str(tmp_path / "s.jsonl")]) == 0
        assert [c.closed for c in caches] == [1]

    def test_silver_closes_it_on_a_data_error(self, tmp_path, caches):
        tables = tmp_path / "tables.jsonl"
        tables.write_text(dump_tables([Table("1-2-3", ("A", "a"), ("text", "text"), (("x", "y"),))]))
        assert main(["silver", "--tables", str(tables), "--n", "3", "--out", str(tmp_path / "s.jsonl")]) == 2
        assert [c.closed for c in caches] == [1]

    def test_eg(self, corpus, tmp_path, caches):
        questions, tables = corpus
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": 0, "candidates": [PLATES_SQL]}) + "\n")
        assert main(["eg", "--candidates", str(cands), "--questions", str(questions), "--tables", str(tables),
                     "--out-selections", str(tmp_path / "sel.jsonl"), "--out-report", str(tmp_path / "rep.json")]) == 0
        assert [c.closed for c in caches] == [1]


class TestExitCodes:
    def test_unknown_command_is_usage(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage(self):
        assert main(["linearize"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = main(["silver", "--tables", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o"), "--n", "1"])
        assert code == 2

    def test_empty_tables_file_is_data_error(self, tmp_path, capsys):
        tables = tmp_path / "empty.jsonl"
        tables.write_text("")
        out = tmp_path / "o"
        assert main(["silver", "--tables", str(tables), "--n", "1", "--out", str(out)]) == 2
        assert "no tables to sample from" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_console_script_runs(self, corpus, tmp_path):
        questions, tables = corpus
        out = tmp_path / "out.jsonl"
        # The child imports textsql from the same place this test did.
        src = str(Path(textsql.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "textsql.cli", "linearize",
             "--questions", str(questions), "--tables", str(tables), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "wrote 1 examples" in proc.stderr
        assert out.exists()
