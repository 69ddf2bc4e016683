"""textsql benchmark: seeded batch workloads driven through the real CLI.

Usage:
    python3 perfbench/run.py --workload score|generate|gate|all --seed N \
        --seconds S --trace 0|1

Run from the repository root. Each measured repetition is a fresh
interpreter (``child.py``) that imports ``textsql.cli``, loads the
workload's inputs and then calls ``textsql.cli.main`` once per stage, in
order. Repetitions continue while the next one would end within
``--seconds`` (at least MIN_REPS of them). ``--workload all``
alternates the workloads round-robin and prints a table for each. Times are
host-normalized by the child's host clock and reported as medians over the
repetitions, beside the plain wall-clock figures.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
repetition between untraced ones and prints the per-layer metrics and the
tracing overhead. Every repetition's outputs are checked and hashed; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Inputs, outputs and results go
under ``.perfbench/`` in the repository root. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("score", "generate", "gate")
MIN_REPS = 3
# A repetition still running this long after the run started is killed, so
# a run ends inside three minutes even when the code under test hangs.
CHILD_DEADLINE_S = 160.0

# Stage name -> the end-to-end throughput metric it reports, and its unit.
STAGE_METRIC = {
    "eval": "eval.examples_per_s",
    "eg": "eg.examples_per_s",
    "silver": "silver.examples_per_s",
    "linearize": "linearize.examples_per_s",
    "gate_train": "gate_train.examples_per_s",
    "gate_check": "gate_check.coords_per_s",
}


def plan(workload: str, inputs: Path, shape: dict, out: Path, seed: int) -> dict:
    """The set-up files and the stages (name, argv) of one repetition
    writing into ``out``."""
    if workload == "score":
        common = ["--questions", str(inputs / "questions.jsonl"), "--tables", str(inputs / "tables.jsonl")]
        stages = [
            ("eval", ["eval", "--preds", str(inputs / "preds.txt"), *common,
                      "--out-json", str(out / "eval.json"), "--out-table", str(out / "eval.txt")]),
            ("eg", ["eg", "--candidates", str(inputs / "beams.jsonl"), *common,
                    "--out-selections", str(out / "eg_selections.jsonl"), "--out-report", str(out / "eg.json"),
                    "--beam-width", str(shape["beam"])]),
        ]
        setup = (inputs / "tables.jsonl", inputs / "questions.jsonl")
    elif workload == "generate":
        n = shape["silver_n"]
        stages = [
            ("silver", ["silver", "--tables", str(inputs / "tables.jsonl"), "--n", str(n), "--seed", str(seed),
                        "--out", str(out / "silver.jsonl")]),
            ("linearize", ["linearize", "--questions", str(out / "silver.jsonl"),
                           "--tables", str(inputs / "tables.jsonl"), "--out", str(out / "linearize.jsonl"),
                           "--mode", "augmented", "--samples", str(shape["samples"]), "--dropout",
                           "--seed", str(seed)]),
        ]
        setup = (inputs / "tables.jsonl", None)
    else:
        stages = [
            ("gate_train", ["gate", "train", "--steps", str(shape["train_steps"]),
                            "--batch-size", str(shape["batch_size"]), "--seed", str(seed),
                            "--out-metrics", str(out / "gate_train.jsonl"), "--out-params", str(out / "gate_train_params.bin")]),
            ("gate_check", ["gate", "check", "--seeds", str(shape["check_seeds"]), "--out", str(out / "gate_check.json")]),
        ]
        setup = (None, None)
    return {"stages": stages, "setup": setup}


def stage_items(workload: str, shape: dict) -> dict:
    """Work items each stage does: questions, examples or coordinates."""
    if workload == "score":
        return {"eval": shape["questions"], "eg": shape["questions"]}
    if workload == "generate":
        return {"silver": shape["silver_n"], "linearize": shape["silver_n"]}
    from textsql.gate import random_check_instance

    coords = 0
    for seed in range(shape["check_seeds"]):
        model, _, _ = random_check_instance(seed)
        coords += sum(model.params[name].data.size for name in model.gate_param_names())
    return {"gate_train": shape["train_steps"] * shape["batch_size"], "gate_check": coords}


def run_rep(workload: str, ctx: dict, rep: int, traced: bool, run_dir: Path, deadline: float) -> dict:
    out = run_dir / f"{workload}-rep{rep}"
    out.mkdir(parents=True)
    p = plan(workload, ctx["inputs"], ctx["shape"], out, ctx["seed"])
    spec = {
        "src": str(SRC),
        "trace": traced,
        "setup_tables": str(p["setup"][0]) if p["setup"][0] else None,
        "setup_questions": str(p["setup"][1]) if p["setup"][1] else None,
        "stages": p["stages"],
        "spans_out": str(STATE / "results" / f"{workload}-s{ctx['seed']}.spans.tsv"),
    }
    spec_path, result_path = out / "spec.json", out / "result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(10.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{workload} repetition {rep} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    result["out"] = out
    result["digests"] = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.name not in ("spec.json", "result.json")
    }
    return result


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def summarize(workload: str, ctx: dict, reps: list[dict]) -> dict:
    """Medians, checks and digests for one workload's repetitions."""
    plain = [r for r in reps if not r["traced"]]
    first = reps[0]
    stage_names = [s["name"] for s in first["stages"]]
    problems, facts = checks.CHECKS[workload](ctx["inputs"], ctx["shape"], first["out"])
    stored = _stored_digests(workload, ctx["seed"], first["digests"])
    for r in reps:
        for name, digest in r["digests"].items():
            if stored.get(name) != digest:
                stage = next(n for n in stage_names if name.startswith(n))
                problems[stage].append(f"{name} differs from another repetition or an earlier run")
    attempted = failed = 0
    for r in reps:
        for s in r["stages"]:
            attempted += 1
            failed += bool(s["rc"] != 0 or problems.get(s["name"]))
    # Times are scaled to a host of nominal speed by the host clock (see
    # child.HostClock and NOTES.md, "Noise"); every metric is the median over
    # the run's repetitions. The plain wall-clock figures are kept beside them.
    e2e = {
        "setup_s": ("s", [r["setup_norm_s"] for r in plain]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in plain]),
    }
    wall = {"setup_s": ("s", [r["setup_s"] for r in plain])}
    for i, name in enumerate(stage_names):
        e2e[STAGE_METRIC[name]] = ("1/s", [ctx["items"][name] / r["stages"][i]["norm_s"] for r in plain])
        wall[STAGE_METRIC[name]] = ("1/s", [ctx["items"][name] / r["stages"][i]["seconds"] for r in plain])
    e2e["failed_frac"] = ("ratio", [failed / attempted])
    readings = [r["setup_reading_s"] for r in plain] + [s["reading_s"] for r in plain for s in r["stages"]]

    def stats(metrics: dict) -> dict:
        return {
            k: {"value": statistics.median(v), "unit": unit, **quartiles(v), "values": v}
            for k, (unit, v) in metrics.items()
        }

    summary = {
        "workload": workload,
        "stages": stage_names,
        "items": ctx["items"],
        "attempted": attempted,
        "failed": failed,
        "problems": {k: v for k, v in problems.items() if v},
        "facts": facts,
        "digests": first["digests"],
        "end_to_end": stats(e2e),
        "wall": stats(wall),
        "clock_reading_s": quartiles(readings),
        "stage_seconds": {
            name: quartiles([r["stages"][i]["seconds"] for r in plain]) for i, name in enumerate(stage_names)
        },
        "reps": [
            {k: r[k] for k in ("traced", "setup_s", "setup_norm_s", "setup_reading_s", "stages", "peak_rss_mb")}
            for r in reps
        ],
    }
    traced = [r for r in reps if r["traced"]]
    if traced:
        t = traced[0]
        overhead = [
            t["stages"][i]["seconds"] - summary["stage_seconds"][name]["median"] for i, name in enumerate(stage_names)
        ]
        summary["per_layer"] = layer_metrics(t["trace"], ctx["items"], facts, overhead)
        summary["trace_missing_targets"] = t["trace"]["missing"]
    return summary


def _stored_digests(workload: str, seed: int, digests: dict) -> dict:
    """Digests an earlier run of the same source and seed recorded, or
    these ones when there was none. Output files are named after the stage
    that writes them."""
    code = _tree_digest(SRC, HERE)[:16]
    path = STATE / "digests" / f"{workload}-s{seed}-{code}.json"
    if path.exists():
        return json.loads(path.read_text())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, sort_keys=True))
    return digests


# --- per-layer metrics from the traced repetition ---------------------------


def layer_metrics(tr: dict, items: dict, facts: dict, overhead: list[float]) -> dict:
    """Named per-layer metrics with units. Times are self times unless the
    metric says otherwise (see NOTES.md); ratios state their base there."""
    spans, pairs, counters = tr["spans"], tr["pairs"], tr["counters"]
    work = [s for s in spans if s != "setup"]

    def field(name, k, stages=None):
        return sum(spans[s].get(name, [0, 0.0, 0.0])[k] for s in (work if stages is None else stages) if s in spans)

    def calls(name, stages=None):
        return field(name, 0, stages)

    def incl(name, stages=None):
        return field(name, 1, stages)

    def self_s(*names, stages=None):
        return sum(field(n, 2, stages) for n in names)

    def counter(key, stages=None):
        return sum(counters.get(s, {}).get(key, 0) for s in (work if stages is None else stages))

    def pair(key, stage, k=0):
        return pairs.get(stage, {}).get(key, [0, 0.0])[k]

    def ratio(a, b):
        return a / b if b else 0.0

    everywhere = list(spans)
    m = {
        "data.load_s": ("s", self_s("data.load_tables", "data.load_questions", "data.index_by_id", stages=everywhere)),
        "data.records": ("count", counter("data.records", everywhere)),
        "sql.parse_calls": ("count", calls("sql.parse_raw")),
        "sql.parse_s": ("s", self_s("sql.parse_raw")),
        "sql.parses_per_pred": ("ratio", ratio(calls("sql.parse_raw", ["eval"]), items.get("eval"))),
        "sql.compose_s": ("s", self_s("sql.compose")),
        "sql.render_s": ("s", self_s("sql.render")),
        "engine.materialize_calls": ("count", calls("engine.materialize")),
        "engine.materialize_s": ("s", self_s("engine.materialize")),
        "engine.materialize_per_table": (
            "ratio",
            ratio(calls("engine.materialize"), sum(tr["distinct_tables"].get(s, 0) for s in work)),
        ),
        "engine.execute_calls": ("count", calls("engine.execute")),
        "engine.execute_s": ("s", self_s("engine.execute")),
        "engine.rewrite_s": ("s", self_s("engine.rewrite_brackets")),
        "engine.results_equal_s": ("s", self_s("engine.results_equal")),
    }
    for kind in ("unknown_column", "unknown_table", "malformed", "not_select", "other"):
        m[f"engine.exec_errors.{kind}"] = ("count", counter(f"engine.exec_errors.{kind}"))
    m.update(
        {
            "evaluation.classify_s": ("s", self_s("evaluation.classify_error")),
            "evaluation.hallucination_s": ("s", self_s("evaluation.hallucination_flag")),
            "evaluation.gold_executions_per_example": (
                "ratio",
                ratio(counter("engine.execute_of_render", ["eval"]), items.get("eval")),
            ),
            "eg.select_calls_per_example": ("ratio", ratio(calls("eg.eg_select", ["eg"]), items.get("eg"))),
            "eg.executions_per_example": ("ratio", ratio(calls("engine.execute", ["eg"]), items.get("eg"))),
            "eg.select_s": ("s", self_s("eg.eg_select")),
            "eg.gain_s": ("s", self_s("eg.eg_gain")),
            "silver.sample_s": ("s", self_s("silver.sample_logical_form")),
            "silver.attempts_per_example": (
                "ratio",
                ratio(calls("silver.sample_logical_form", ["silver"]), items.get("silver")),
            ),
            "silver.probes_per_example": ("ratio", ratio(calls("engine.execute", ["silver"]), items.get("silver"))),
            "silver.probe_s": ("s", incl("engine.execute", ["silver"])),
            "silver.eq_share_real": ("ratio", facts.get("eq_share_real", 0.0)),
            "linearize.build_s": ("s", self_s("linearize.build_example")),
            "linearize.chars_per_example": (
                "ratio",
                ratio(counter("linearize.chars", ["linearize"]), items.get("linearize")),
            ),
            "gate.forward_s": ("s", pair("gate.forward<gate.loss_and_grads", "gate_train", 1)),
            "gate.backward_s": ("s", self_s("gate.loss_and_grads", stages=["gate_train"])),
            "gate.sgd_s": ("s", incl("gate.sgd_step")),
            "gate.forwards_per_step": (
                "ratio",
                ratio(pair("gate.forward<gate.loss_and_grads", "gate_train"), calls("gate.sgd_step", ["gate_train"])),
            ),
            "gate.blocks_s": ("s", self_s("gate.forward", "gate.decode_greedy")),
            "gate.gate_layer_s": ("s", self_s("gate.run_gate")),
            "gate.cross_attention_s": ("s", self_s("gate.cross_attention")),
            "gate.extraction_gate_s": ("s", self_s("gate.extraction_gate")),
            "gate.heads_s": ("s", self_s("gate.generation_head", "gate.copy_distribution", "gate.merge")),
            "gate.tape_ops_per_forward": (
                "ratio",
                ratio(sum(tr["tape_ops"].get(s, {}).get("gate.forward", 0) for s in work), calls("gate.forward")),
            ),
            "gate.decode_s": ("s", incl("gate.decode_greedy")),
            "gate.graphs_per_decode": (
                "ratio",
                ratio(
                    sum(pair("gate.run_gate<gate.decode_greedy", s) for s in work),
                    calls("gate.decode_greedy"),
                ),
            ),
            "gate.check_forwards_per_coord": (
                "ratio",
                ratio(pair("gate.forward<gate.grad_check", "gate_check"), items.get("gate_check")),
            ),
            "trace.stage1_overhead_s": ("s", overhead[0]),
            "trace.stage2_overhead_s": ("s", overhead[1]),
            "trace.spans": ("count", tr["span_count"]),
        }
    )
    return {k: {"value": v if unit == "count" else float(v), "unit": unit} for k, (unit, v) in m.items()}


# --- provenance --------------------------------------------------------------


def _tree_digest(*roots: Path) -> str:
    """sha256 over the Python files under ``roots``, names and contents."""
    h = hashlib.sha256()
    for root in roots:
        for f in sorted(root.rglob("*.py")):
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _git_sha() -> str | None:
    """HEAD's commit when the root is a git checkout, read without git so
    nothing outside the root is consulted."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int, shapes: dict) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "seed": seed,
        "shapes": shapes,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "machine": platform.machine(),
    }


# --- measuring -------------------------------------------------------------


def measure(workloads: list[str], seed: int, seconds: float, trace: bool) -> dict:
    """Round-robin repetitions over ``workloads`` for about ``seconds`` each.
    With ``trace`` the second round is traced."""
    ctxs = {}
    for w in workloads:
        inputs, shape = gen.ensure_inputs(STATE / "inputs", w, seed)
        ctxs[w] = {"inputs": inputs, "shape": shape, "seed": seed, "items": stage_items(w, shape)}
    run_dir = STATE / "work" / f"{'-'.join(workloads)}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reps = {w: [] for w in workloads}
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    end = start + seconds * len(workloads)
    deadline = start + CHILD_DEADLINE_S * len(workloads)
    try:
        rnd = 0
        while True:
            round_start = time.monotonic()
            for w in workloads:
                reps[w].append(run_rep(w, ctxs[w], rnd, trace and rnd == 1, run_dir, deadline))
            rnd += 1
            now = time.monotonic()
            # Start no round that would end past the measuring time.
            if rnd >= MIN_REPS and now + (now - round_start) > end:
                break
        summaries = {w: summarize(w, ctxs[w], reps[w]) for w in workloads}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"provenance": provenance(seed, {w: ctxs[w]["shape"] for w in workloads}), "workloads": summaries}


def _fmt(stat: dict) -> str:
    return f"{stat['value']:.6g} {stat['unit']}  (median of {stat['n']}; q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if not (SRC / "textsql" / "cli.py").is_file():
        print(f"error: no textsql sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = measure(workloads, args.seed, args.seconds, bool(args.trace))

    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (STATE / "results" / name).write_text(json.dumps(result, indent=2, sort_keys=True, default=str) + "\n")

    correct, attempted, failed = True, 0, 0
    for w, s in result["workloads"].items():
        attempted += s["attempted"]
        failed += s["failed"]
        correct = correct and not s["problems"]
        for stage, msgs in s["problems"].items():
            for msg in msgs:
                print(f"{w}  CHECK FAILED  {stage}: {msg}")
        for k, stat in s["end_to_end"].items():
            print(f"{w:<9} {k:<28} {_fmt(stat)}")
        for k, stat in s["wall"].items():
            print(f"{w:<9} {'wall.' + k:<28} {_fmt(stat)}")
        print(f"{w:<9} {'clock_reading_s':<28} median {s['clock_reading_s']['median']:.6g} s")
        for target in s.get("trace_missing_targets", []):
            print(f"{w}  TRACE TARGET MISSING  {target}")
        for k, v in s.get("per_layer", {}).items():
            print(f"{w:<9} {k:<40} {v['value']:.6g} {v['unit']}")
    print(f"results in {STATE / 'results' / name}")

    metrics = {}
    for w, s in result["workloads"].items():
        prefix = "" if len(workloads) == 1 else f"{w}."
        if args.trace:
            metrics.update({prefix + k: v for k, v in s["per_layer"].items()})
            continue
        named = {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
        named.update({f"stage{i}.items_per_s": STAGE_METRIC[n] for i, n in enumerate(s["stages"], start=1)})
        for key, metric in named.items():
            stat = s["end_to_end"][metric]
            metrics[prefix + key] = {"value": stat["value"], "unit": stat["unit"]}
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
