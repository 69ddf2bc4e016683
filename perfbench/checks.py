"""Output checks, one function per workload.

Each takes the input directory, its shape and the output directory of one
run, and returns ``{stage: [problem, ...]}`` (an empty list means the stage's
output passed) plus facts read from the outputs that the benchmark reports.
The library is used here only to read outputs back, never inside a timed
stage.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_score(inputs: Path, shape: dict, out: Path) -> tuple[dict, dict]:
    n = shape["questions"]
    problems = {"eval": [], "eg": []}

    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    counts = report["counts"]
    labels = {"Correct": counts["Correct"], "ParseFailure": counts["ParseFailure"]}
    for kind in ("Invalid", "Wrong"):
        for slot, k in counts[kind].items():
            labels[f"{kind}/{slot}"] = k
    if report["n"] != n or sum(labels.values()) != n:
        problems["eval"].append(f"report does not partition n={n}: {labels}")
    expected = shape["expected_labels"]
    for label in sorted(set(labels) | set(expected)):
        if labels.get(label, 0) != expected.get(label, 0):
            problems["eval"].append(f"{label}: {labels.get(label, 0)} counted, {expected.get(label, 0)} planted")

    gain = json.loads((out / "eg.json").read_text(encoding="utf-8"))
    if gain["n"] != n:
        problems["eg"].append(f"eg report n={gain['n']}, expected {n}")
    if gain["correct_eg"] < gain["correct_top1"]:
        problems["eg"].append(f"correct_eg {gain['correct_eg']} < correct_top1 {gain['correct_top1']}")
    qids = [row["qid"] for row in _jsonl(out / "eg_selections.jsonl")]
    if qids != list(range(n)):
        problems["eg"].append(f"{len(qids)} selections, expected one per question in order")
    facts = {
        "exec_correct": report["exec_correct"],
        "correct_top1": gain["correct_top1"],
        "correct_eg": gain["correct_eg"],
    }
    return problems, facts


def check_generate(inputs: Path, shape: dict, out: Path) -> tuple[dict, dict]:
    from textsql import TableCache, execute, index_by_id, load_tables, parse, render

    n = shape["silver_n"]
    problems = {"silver": [], "linearize": []}
    tables = index_by_id(load_tables(inputs / "tables.jsonl"))
    silver = _jsonl(out / "silver.jsonl")
    if len(silver) != n:
        problems["silver"].append(f"{len(silver)} silver rows, expected {n}")
    cache = TableCache()
    real_conds = real_eq = 0
    try:
        for i, row in enumerate(silver):
            text = row["sql_text"]
            stmt = parse(text)
            if not stmt or render(stmt) != text:
                problems["silver"].append(f"row {i}: does not round-trip: {text!r}")
            tab = tables[row["table_id"]]
            res = execute(text, cache.get(tab))
            if res.is_error:
                problems["silver"].append(f"row {i}: does not execute: {res.error}: {text!r}")
            for col, op, _ in row["sql"]["conds"]:
                if tab.col_types[col] == "real":
                    real_conds += 1
                    real_eq += op == 0
    finally:
        cache.close()
    lin = _jsonl(out / "linearize.jsonl")
    if len(lin) != n:
        problems["linearize"].append(f"{len(lin)} linearized rows, expected {n}")
    mismatched = sum(a["target"] != b["sql_text"] for a, b in zip(lin, silver))
    if mismatched:
        problems["linearize"].append(f"{mismatched} targets differ from the silver sql_text")
    for stage in problems:
        del problems[stage][10:]
    return problems, {"eq_share_real": real_eq / real_conds if real_conds else 0.0}


def check_gate(inputs: Path, shape: dict, out: Path) -> tuple[dict, dict]:
    problems = {"gate_train": [], "gate_check": []}
    rows = _jsonl(out / "gate_train.jsonl")
    losses = [r["loss"] for r in rows if "loss" in r]
    final = [r for r in rows if r.get("final")]
    if not losses or not all(math.isfinite(x) for x in losses):
        problems["gate_train"].append(f"non-finite or missing losses: {losses[:5]}")
    elif not losses[-1] < losses[0]:
        problems["gate_train"].append(f"final logged loss {losses[-1]} not below the first {losses[0]}")
    if len(final) != 1 or "value_copy_accuracy" not in final[0]:
        problems["gate_train"].append("no final row with value_copy_accuracy")
    check = json.loads((out / "gate_check.json").read_text(encoding="utf-8"))
    if not check["max_rel_error"] <= 1e-4:
        problems["gate_check"].append(f"max relative error {check['max_rel_error']} > 1e-4")
    facts = {
        "value_copy_accuracy": final[0]["value_copy_accuracy"] if final else None,
        "first_loss": losses[0] if losses else None,
        "last_loss": losses[-1] if losses else None,
        "max_rel_error": check["max_rel_error"],
    }
    return problems, facts


CHECKS = {"score": check_score, "generate": check_generate, "gate": check_gate}
