"""Command-line entry point.

Five subcommands wire the library into file-to-file pipelines: ``linearize``
(question/table pairs to model inputs), ``silver`` (sampled training data),
``eval`` (execution accuracy and the error taxonomy), ``eg`` (execution-
guided candidate selection), and ``gate check``/``gate train`` (gradient
verification and the synthetic copy task).

Conventions shared by every subcommand: results go to files, never only to
the console; every randomized step takes an explicit seed and reruns are
byte-identical; floats in text outputs are rounded to 12 significant
digits. Flags may also be supplied via ``--config FILE`` (a flat JSON
object keyed by flag name with dashes as underscores); explicit flags win.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .data import (
    DataFormatError,
    index_by_id,
    iter_jsonl,
    load_questions,
    load_tables,
    validate_record,
)
from .eg import CandidateList, eg_gain
from .engine import MaterializeError
from .evaluation import execution_accuracy, render_report_table, report_to_json
from .gate import (
    CopyTaskConfig,
    grad_check,
    random_check_instance,
    save_params,
    train_copy_model,
)
from .linearize import LinearizeConfig, build_example
from .silver import SamplerConfig, TemplateQuestionGenerator, generate_silver
from .sql import ComposeError, compose, render


class UsageError(Exception):
    """Bad flags or flag combinations; exit code 1."""


class DataError(Exception):
    """Unusable input files; exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; route them through
    # UsageError so usage maps to exit code 1 and 2 stays for data errors.
    def error(self, message):
        raise UsageError(message)


def _round12(x) -> float:
    return float(f"{float(x):.12g}")


def _write_text(path: str, text: str):
    Path(path).write_text(text, encoding="utf-8")


def _write_jsonl(path: str, objs) -> int:
    """Write one sorted-key JSON object per line, streaming from ``objs``."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for o in objs:
            fh.write(json.dumps(o, sort_keys=True, ensure_ascii=True) + "\n")
            n += 1
    return n


def _log(msg: str):
    print(msg, file=sys.stderr)


# ----------------------------------------------------------------------
# Flag/config merging. Every flag defaults to None at parse time; the
# effective value is flag, else config-file entry, else the default here.

_DEFAULTS: dict[str, dict] = {
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
        "any_agg": False,
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


def _merge_config(args: argparse.Namespace, command: str) -> dict:
    defaults = _DEFAULTS[command]
    file_cfg = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise UsageError(f"config keys not recognized for '{command}': {', '.join(unknown)}")
    merged = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, default)
        merged[key] = value
    return merged


def _require_path(cfg: dict, key: str) -> str:
    if cfg[key] is None:
        raise UsageError(f"--{key.replace('_', '-')} is required")
    return cfg[key]


def _load_inputs(cfg: dict):
    tables = index_by_id(load_tables(_require_path(cfg, "tables")))
    records = load_questions(_require_path(cfg, "questions"))
    return records, tables


# ----------------------------------------------------------------------
# Subcommands


def _cmd_linearize(cfg: dict) -> int:
    out = _require_path(cfg, "out")
    if cfg["mode"] not in ("baseline", "augmented"):
        raise UsageError(f"--mode must be baseline or augmented, got {cfg['mode']!r}")
    if cfg["mode"] == "baseline" and cfg["samples"]:
        raise UsageError("--samples requires --mode augmented")
    records, tables = _load_inputs(cfg)
    lin_cfg = LinearizeConfig(
        include_types=cfg["mode"] == "augmented",
        sample_rows=int(cfg["samples"]),
        dropout_enabled=bool(cfg["dropout"]),
        max_cell_len=int(cfg["max_cell_len"]),
    )
    rng = random.Random(int(cfg["seed"]))
    rows = []
    skipped = 0
    for i, rec in enumerate(records):
        tab = tables.get(rec.table_id)
        problem = None
        if tab is None:
            problem = f"unknown table {rec.table_id!r}"
        else:
            report = validate_record(rec, tab)
            if not report.ok:
                problem = "; ".join(report.violations)
        if problem is not None:
            if cfg["skip_bad"]:
                skipped += 1
                continue
            raise DataError(f"record {i}: {problem}")
        target = render(compose(rec.lf, tab))
        ex = build_example(rec.question, tab, target, lin_cfg, rng=rng)
        rows.append({"input": ex.input, "target": ex.target})
    written = _write_jsonl(out, rows)
    _log(f"linearize: wrote {written} examples to {out}" + (f" (skipped {skipped})" if skipped else ""))
    return 0


def _cmd_silver(cfg: dict) -> int:
    out = _require_path(cfg, "out")
    if cfg["n"] is None:
        raise UsageError("--n is required")
    tables = load_tables(_require_path(cfg, "tables"))
    sampler_cfg = SamplerConfig(
        max_conds=int(cfg["max_conds"]),
        allow_zero_conds=not cfg["no_zero_conds"],
        numeric_agg_only=not cfg["any_agg"],
    )
    rng = random.Random(int(cfg["seed"]))
    run = generate_silver(tables, int(cfg["n"]), TemplateQuestionGenerator(), rng, sampler_cfg)
    rows = [
        {
            "phase": 99,
            "table_id": ex.table_id,
            "question": ex.question,
            "sql": {
                "sel": ex.lf.sel,
                "agg": ex.lf.agg,
                "conds": [[c.col, c.op, c.value] for c in ex.lf.conds],
            },
            "sql_text": ex.sql_text,
        }
        for ex in run.examples
    ]
    written = _write_jsonl(out, rows)
    _log(f"silver: wrote {written} examples to {out} ({run.duplicates_kept} duplicates kept)")
    return 0


def _cmd_eval(cfg: dict) -> int:
    out_json = _require_path(cfg, "out_json")
    preds_path = _require_path(cfg, "preds")
    try:
        preds = Path(preds_path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {preds_path}: {exc}") from exc
    records, tables = _load_inputs(cfg)
    if len(preds) != len(records):
        raise DataError(f"{len(preds)} predictions for {len(records)} records")
    for i, rec in enumerate(records):
        tab = tables.get(rec.table_id)
        if tab is None:
            raise DataError(f"record {i}: unknown table {rec.table_id!r}")
        report = validate_record(rec, tab)
        if not report.ok:
            raise DataError(f"record {i}: gold does not validate: {'; '.join(report.violations)}")
    golds = [rec.lf for rec in records]
    report = execution_accuracy(preds, golds, records, tables)
    _write_text(out_json, report_to_json(report))
    if cfg["out_table"] is not None:
        _write_text(cfg["out_table"], render_report_table(report))
    _log(f"eval: {report.exec_correct}/{report.n} execution-correct; report at {out_json}")
    return 0


def _cmd_eg(cfg: dict) -> int:
    out_selections = _require_path(cfg, "out_selections")
    out_report = _require_path(cfg, "out_report")
    candidates = _require_path(cfg, "candidates")
    records, tables = _load_inputs(cfg)
    beam_width = int(cfg["beam_width"])
    pred_sets, golds, tabs, qids = [], [], [], []
    for lineno, entry in iter_jsonl(candidates):
        if "qid" not in entry or "candidates" not in entry:
            raise DataError(f"candidates line {lineno}: need keys 'qid' and 'candidates'")
        qid = entry["qid"]
        texts = entry["candidates"]
        if not isinstance(qid, int) or not 0 <= qid < len(records):
            raise DataError(f"candidates line {lineno}: qid {qid!r} does not index the questions file")
        if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
            raise DataError(f"candidates line {lineno}: 'candidates' must be a non-empty list of strings")
        rec = records[qid]
        tab = tables.get(rec.table_id)
        if tab is None:
            raise DataError(f"candidates line {lineno}: unknown table {rec.table_id!r}")
        pred_sets.append(CandidateList.from_texts(texts, beam_width=beam_width))
        golds.append(rec.lf)
        tabs.append(tab)
        qids.append(qid)
    gain = eg_gain(pred_sets, golds, tabs)
    _write_jsonl(
        out_selections,
        (
            {
                "qid": qid,
                "chosen": sel.chosen_sql,
                "chosen_index": sel.chosen_index,
                "all_failed": sel.all_failed,
                "outcomes": [
                    {"index": o.index, "ok": o.ok, "error": o.error, "kind": o.kind} for o in sel.outcomes
                ],
            }
            for qid, sel in zip(qids, gain.selections)
        ),
    )
    report = {
        "n": gain.n,
        "correct_top1": gain.correct_top1,
        "correct_eg": gain.correct_eg,
        "accuracy_top1": _round12(gain.accuracy_top1),
        "accuracy_eg": _round12(gain.accuracy_eg),
        "delta": _round12(gain.delta),
        "dropped_by_kind": gain.dropped_by_kind,
        "all_failed_count": gain.all_failed_count,
    }
    _write_text(out_report, json.dumps(report, indent=2, sort_keys=True) + "\n")
    _log(f"eg: {gain.correct_top1}->{gain.correct_eg} correct of {gain.n}; report at {out_report}")
    return 0


def _cmd_gate_check(cfg: dict) -> int:
    out = _require_path(cfg, "out")
    per_seed = []
    overall = 0.0
    for seed in range(int(cfg["seeds"])):
        model, src, tgt = random_check_instance(
            seed,
            d_model=int(cfg["d_model"]),
            vocab_size=int(cfg["vocab_size"]),
            src_len=int(cfg["src_len"]),
            tgt_len=int(cfg["tgt_len"]),
        )
        result = grad_check(model, src, tgt, epsilon=float(cfg["epsilon"]))
        overall = max(overall, result.max_rel_error)
        per_seed.append(
            {
                "seed": seed,
                "max_rel_error": _round12(result.max_rel_error),
                "worst_param": result.worst_param,
            }
        )
    payload = {
        "epsilon": _round12(cfg["epsilon"]),
        "d_model": int(cfg["d_model"]),
        "vocab_size": int(cfg["vocab_size"]),
        "src_len": int(cfg["src_len"]),
        "tgt_len": int(cfg["tgt_len"]),
        "per_seed": per_seed,
        "max_rel_error": _round12(overall),
    }
    _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _log(f"gate check: max relative error {overall:.3e} over {cfg['seeds']} seeds; report at {out}")
    return 0


def _cmd_gate_train(cfg: dict) -> int:
    out_metrics = _require_path(cfg, "out_metrics")
    task_cfg = CopyTaskConfig(
        d_model=int(cfg["d_model"]),
        steps=int(cfg["steps"]),
        batch_size=int(cfg["batch_size"]),
        lr=float(cfg["lr"]),
        eval_size=int(cfg["eval_size"]),
        seed=int(cfg["seed"]),
    )
    result = train_copy_model(task_cfg, gated=not cfg["ablation"], log_every=int(cfg["log_every"]))
    rows: list[dict] = [{"step": step, "loss": _round12(loss)} for step, loss in result.history]
    m = result.metrics
    rows.append(
        {
            "final": True,
            "gated": not cfg["ablation"],
            "n_examples": m.n_examples,
            "value_copy_accuracy": _round12(m.value_copy_accuracy),
            "sequence_exact_match": _round12(m.sequence_exact_match),
            "mean_p_ext_value": _round12(m.mean_p_ext_value),
            "mean_p_ext_keyword": _round12(m.mean_p_ext_keyword),
        }
    )
    _write_jsonl(out_metrics, rows)
    if cfg["out_params"] is not None:
        save_params(result.model, cfg["out_params"])
        _log(f"gate train: params at {cfg['out_params']}")
    _log(
        f"gate train: value copy accuracy {m.value_copy_accuracy:.3f} "
        f"(gated={not cfg['ablation']}); metrics at {out_metrics}"
    )
    return 0


# ----------------------------------------------------------------------
# Parser assembly and dispatch


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file of flag defaults; explicit flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="textsql", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linearize", help="serialize question/table pairs into model inputs")
    _add_common(p)
    p.add_argument("--questions", help="WikiSQL-style questions JSONL")
    p.add_argument("--tables", help="WikiSQL-style tables JSONL")
    p.add_argument("--out", help="output JSONL of {input, target}")
    p.add_argument("--mode", choices=["baseline", "augmented"])
    p.add_argument("--samples", type=int, help="rows of cell samples per column (augmented mode)")
    p.add_argument("--dropout", action="store_true", default=None, help="drop one random input word per example (table id kept)")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-cell-len", type=int, dest="max_cell_len")
    p.add_argument("--skip-bad", action="store_true", default=None, dest="skip_bad", help="skip records that fail validation")

    p = sub.add_parser("silver", help="sample silver question/SQL training pairs")
    _add_common(p)
    p.add_argument("--tables", help="WikiSQL-style tables JSONL")
    p.add_argument("--out", help="output JSONL in the questions format (phase 99)")
    p.add_argument("--n", type=int, help="number of examples")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-conds", type=int, dest="max_conds")
    p.add_argument("--no-zero-conds", action="store_true", default=None, dest="no_zero_conds", help="require at least one condition")
    p.add_argument("--any-agg", action="store_true", default=None, dest="any_agg", help="allow sum/avg on text columns")

    p = sub.add_parser("eval", help="score predictions and break down the errors")
    _add_common(p)
    p.add_argument("--preds", help="one predicted SQL text per line, aligned with --questions")
    p.add_argument("--questions", help="gold questions JSONL")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--out-json", dest="out_json", help="report as JSON")
    p.add_argument("--out-table", dest="out_table", help="report as a fixed-width text table")

    p = sub.add_parser("eg", help="execution-guided candidate selection")
    _add_common(p)
    p.add_argument("--candidates", help="JSONL of {qid, candidates: [sql, ...]} best first")
    p.add_argument("--questions", help="gold questions JSONL")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--out-selections", dest="out_selections", help="chosen candidate per question, JSONL")
    p.add_argument("--out-report", dest="out_report", help="top-1 vs execution-guided accuracy, JSON")
    p.add_argument("--beam-width", type=int, dest="beam_width")

    p = sub.add_parser("gate", help="extraction-gate verification and training")
    gate_sub = p.add_subparsers(dest="gate_command", required=True)

    p = gate_sub.add_parser("check", help="finite-difference gradient check")
    _add_common(p)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--seeds", type=int, help="number of random instances")
    p.add_argument("--epsilon", type=float, help="finite-difference step")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--vocab-size", type=int, dest="vocab_size")
    p.add_argument("--src-len", type=int, dest="src_len")
    p.add_argument("--tgt-len", type=int, dest="tgt_len")

    p = gate_sub.add_parser("train", help="train on the synthetic copy task")
    _add_common(p)
    p.add_argument("--out-metrics", dest="out_metrics", help="JSONL of step losses plus final metrics")
    p.add_argument("--out-params", dest="out_params", help="parameter blob path (sidecar written next to it)")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--eval-size", type=int, dest="eval_size")
    p.add_argument("--seed", type=int)
    p.add_argument("--log-every", type=int, dest="log_every")
    p.add_argument("--ablation", action="store_true", default=None, help="train with the copy gate forced to zero")

    return parser


_HANDLERS = {
    "linearize": _cmd_linearize,
    "silver": _cmd_silver,
    "eval": _cmd_eval,
    "eg": _cmd_eg,
    "gate check": _cmd_gate_check,
    "gate train": _cmd_gate_train,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = args.command
        if command == "gate":
            command = f"gate {args.gate_command}"
        cfg = _merge_config(args, command)
        return _HANDLERS[command](cfg)
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return 1
    except (DataError, DataFormatError, ComposeError, MaterializeError, OSError) as exc:
        _log(f"data error: {exc}")
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 3
        _log(f"internal error: {type(exc).__name__}: {exc}")
        return 3


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
