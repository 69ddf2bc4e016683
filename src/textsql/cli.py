"""Command-line entry point.

Five subcommands wire the library into file-to-file pipelines: ``linearize``
(question/table pairs to model inputs), ``silver`` (sampled training data),
``eval`` (execution accuracy and the error taxonomy), ``eg`` (execution-
guided candidate selection), and ``gate check``/``gate train`` (gradient
verification and the synthetic copy task).

Conventions shared by every subcommand: results go to files, never only to
the console; every randomized step takes an explicit seed and reruns are
byte-identical; figures a command computes (accuracies, the ``eg`` delta,
losses, gradient errors) are rounded to 12 significant digits, while values
read from the data (cells, condition values) are written as read. A
command that fails writes no output file, whole or partial, and
leaves any file already at an output path as it was: outputs are written
beside their paths and put in place only once the command has succeeded.

Each flag is declared once, with its type, its range and its default. A
value outside its flag's range (``--beam-width 0``, ``--lr 0``) is a usage
error. Flags may also be supplied via ``--config FILE``, a flat JSON object
keyed by flag name with dashes as underscores. Its entries become the
subcommand's defaults, so an explicit flag wins, and each value is checked
like the flag it stands for: a switch takes only JSON ``true``/``false``,
and any other flag a string or a number of its type and range.

A gold is valid exactly when it composes (``sql.compose``). ``linearize``,
``eval`` and ``eg`` compose each gold once, and name the record or the
candidates line of one that does not. ``eval`` composes record *i*'s gold
as it scores prediction *i*, so the first bad record in file order is the
error reported, whatever its kind: an unknown table, a gold that does not
compose, or a table the engine cannot hold.

``linearize``, ``silver``, ``eval`` and ``eg`` stream their records in
blocks of one size: each reads a block (``silver`` samples one), handles it
and writes its output lines before it reads the next. So memory grows with
the tables, not with the records, except for what a command must keep:
``eg`` holds the questions, which it looks up by qid, and ``silver`` the
statements it has rendered, to de-duplicate them. The error reported is the
first in block order, and within a block, reading comes before handling.
A block is read whole (a malformed line) before any of its records is
handled (an unknown table, a gold that does not compose, a table the engine
cannot hold, in record order). So a bad record in an earlier block wins
over a malformed line in a later one, and a malformed line wins over a bad
record earlier in its own block. Every input file, ``--config`` too, is
read by one reader (``data.iter_lines``): a byte-order mark at the start
of the file, or bytes that are not UTF-8, is a data error naming its
line. Bytes that are not UTF-8 are found as text is decoded, up to one
8 KiB chunk ahead of the line being read, so they can be reported a block
early. An input that cannot be read is a data error too. ``silver``
checks every table before it samples any example. ``eval`` reads a block
of predictions, then a block of questions; when one file ends before the
other, that block is not scored, and the rest of the longer file is read to
count it for the error ``N predictions for M records`` (so a malformed line
there wins).

Exit codes: 0 success, 1 usage error, 2 data error (or a ``gate train``
whose loss diverged), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from collections import Counter
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import asdict
from itertools import islice, zip_longest
from typing import Iterable, Iterator

from .data import (
    DataError,
    QuestionRecord,
    Table,
    index_by_id,
    iter_jsonl,
    iter_lines,
    iter_questions,
    load_questions,
    load_tables,
)
from .eg import EgGainReport, eg_gain
from .engine import TableCache
from .evaluation import EvalReport, execution_accuracy, render_report_table, report_to_dict
from .gate import (
    CopyTaskConfig,
    TrainingDiverged,
    grad_check,
    random_check_instance,
    train_copy_model,
)
from .gate.model import encode_params, sidecar_path
from .linearize import LinearizeConfig, build_example
from .normalize import round12
from .silver import SamplerConfig, generate_silver, template_question
from .sql import ComposeError, SqlStatement, compose, render


class UsageError(Exception):
    """Bad flags or flag combinations; exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; route them through
    # UsageError so usage maps to exit code 1 and 2 stays for data errors.
    def error(self, message):
        raise UsageError(message)


# One encoder for every JSONL row; json.dumps would build one per call.
_encode_sorted = json.JSONEncoder(sort_keys=True, ensure_ascii=True).encode


def _json_line(obj) -> str:
    """One sorted-key JSON object and its newline."""
    return _encode_sorted(obj) + "\n"


def _json_doc(obj) -> str:
    """One indented, sorted-key JSON document and its newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _open_output(stack: ExitStack, path: str | None, i: int, temps: list[tuple[str, str]]):
    """Output ``i`` opened for writing in ``stack``, or ``None`` for a path
    not given.

    A path that exists but is not a regular file (such as ``/dev/null``) is
    opened in place. Any other is written through a temporary sibling of the
    file it names (a symbolic link is followed), recorded in ``temps`` with
    that file. Errors name ``path`` as given.
    """
    if path is None:
        return None
    real = written = os.path.realpath(path)
    if not os.path.exists(real) or os.path.isfile(real):
        written = f"{real}.{os.getpid()}.{i}.tmp"
        temps.append((written, real))
    try:
        return stack.enter_context(open(written, "w", encoding="utf-8"))
    except OSError as exc:
        exc.filename = path
        raise


@contextmanager
def _outputs(*paths: str | None):
    """One text file per output path, ``None`` for a path not given, put in
    place together when the block ends.

    The temporaries are named by the pid and the output's index, so two
    outputs given one path end as the last one written. When the block
    ends, the files are closed and each temporary replaces its file, in
    order; every temporary still there after that, or after the block
    raised, is removed. So a failed command leaves each output path as it
    was.
    """
    temps: list[tuple[str, str]] = []  # (temporary, file it replaces)
    try:
        with ExitStack() as stack:
            yield [_open_output(stack, path, i, temps) for i, path in enumerate(paths)]
        for written, real in temps:
            os.replace(written, real)
    finally:
        for written, _ in temps:
            with suppress(FileNotFoundError):
                os.remove(written)


def _log(msg: str):
    print(msg, file=sys.stderr)


# Records per block for every command that streams its records (see the
# module docstring). Memory holds one block of records and output lines, not
# the file's; a block this size costs no throughput against the whole file
# at once, where one record at a time does.
_BLOCK_LINES = 256


def _blocks(items: Iterable) -> Iterator[list]:
    """Lists of up to ``_BLOCK_LINES`` consecutive items, in order; each is
    read only when the one before it has been handled."""
    it = iter(items)
    while block := list(islice(it, _BLOCK_LINES)):
        yield block


# ----------------------------------------------------------------------
# Flag types and the config file


def _number(cast, low, *, strict: bool = False):
    """A flag ``type``: the text cast to a finite number of at least ``low``,
    or above ``low`` when ``strict``."""

    def parse(text: str):
        value = cast(text)
        if not low <= value < math.inf or (strict and value == low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value: ..."
    return parse


def _mode(text: str) -> str:
    if text not in ("baseline", "augmented"):
        raise argparse.ArgumentTypeError(f"must be baseline or augmented, got {text!r}")
    return text


def _config_defaults(args: argparse.Namespace) -> dict:
    """The entries of the ``--config`` file, as defaults for the subcommand.

    A switch takes only JSON ``true``/``false``. Any other value must be a
    string or a number and is passed on as a string, which argparse runs
    through the flag's ``type`` when ``main`` parses again.
    """
    # Read before decoding: the reader's faults are ValueErrors too, and
    # keep their own wording.
    text = "".join(iter_lines(args.config))
    try:
        entries = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise DataError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(entries, dict):
        raise UsageError(f"config {args.config} must hold a JSON object")
    # Every flag of the subcommand is in the namespace; switches hold bools.
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "handler", "parser")}
    unknown = sorted(set(entries) - set(flags))
    if unknown:
        raise UsageError(f"config keys not recognized for '{args.parser.prog}': {', '.join(unknown)}")
    defaults = {}
    for key, value in entries.items():
        if isinstance(flags[key], bool):
            if type(value) is not bool:
                raise UsageError(f"config {key}: a switch takes true or false, got {value!r}")
            defaults[key] = value
        elif type(value) in (str, int, float):
            defaults[key] = str(value)
        else:
            raise UsageError(f"config {key}: expected a string or a number, got {value!r}")
    return defaults


def _require(args: argparse.Namespace, *names: str):
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"the following flags are required: {', '.join(missing)}")


def _resolve(rec: QuestionRecord, tables: dict[str, Table], where: str = "") -> tuple[Table, SqlStatement]:
    """The table of ``rec`` and its gold composed against it. A gold that
    does not compose is a ``DataError`` whose message, like an unknown
    table's, starts with ``where`` and gives ``compose``'s reason."""
    tab = tables.get(rec.table_id)
    if tab is None:
        raise DataError(f"{where}unknown table {rec.table_id!r}")
    try:
        return tab, compose(rec.lf, tab)
    except ComposeError as exc:
        raise DataError(f"{where}gold does not compose: {exc}") from exc


# ----------------------------------------------------------------------
# Subcommands


def _cmd_linearize(args: argparse.Namespace) -> int:
    _require(args, "questions", "tables", "out")
    if args.mode == "baseline" and args.samples:
        raise UsageError("--samples requires --mode augmented")
    tables = index_by_id(load_tables(args.tables))
    lin_cfg = LinearizeConfig(
        include_types=args.mode == "augmented",
        sample_rows=args.samples,
        dropout_enabled=args.dropout,
        max_cell_len=args.max_cell_len,
    )
    rng = random.Random(args.seed)
    # Each table's part of the input, built on its first record.
    cache: dict = {}
    i = skipped = 0  # records read, records skipped
    with closing(iter_questions(args.questions)) as records, _outputs(args.out) as (out,):
        for block in _blocks(records):
            lines = []
            for _, rec in block:
                try:
                    tab, gold = _resolve(rec, tables)
                    ex = build_example(rec.question, tab, render(gold), lin_cfg, rng=rng, cache=cache)
                except DataError as exc:
                    if not args.skip_bad:
                        raise DataError(f"record {i}: {exc}") from exc
                    skipped += 1
                else:
                    lines.append(_json_line({"input": ex.input, "target": ex.target}))
                i += 1
            out.writelines(lines)
    written = i - skipped
    _log(f"linearize: wrote {written} examples to {args.out}" + (f" (skipped {skipped})" if skipped else ""))
    return 0


def _cmd_silver(args: argparse.Namespace) -> int:
    _require(args, "tables", "out", "n")
    try:
        sampler_cfg = SamplerConfig(max_conds=args.max_conds, allow_zero_conds=not args.no_zero_conds)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    tables = load_tables(args.tables)
    rng = random.Random(args.seed)
    duplicates = 0
    with closing(TableCache()) as cache, _outputs(args.out) as (out,):
        examples = generate_silver(tables, args.n, template_question, rng, sampler_cfg, cache)
        for block in _blocks(examples):
            duplicates += sum(ex.duplicate for ex in block)
            out.writelines(
                _json_line(
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
                )
                for ex in block
            )
    _log(f"silver: wrote {args.n} examples to {args.out} ({duplicates} duplicates kept)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _require(args, "preds", "questions", "tables", "out_json")
    tables = index_by_id(load_tables(args.tables))
    n = exec_correct = 0
    counts: Counter = Counter()
    with (
        closing(TableCache()) as cache,
        closing(line.removesuffix("\n") for line in iter_lines(args.preds)) as preds,
        closing(iter_questions(args.questions)) as entries,
    ):
        for texts, block in zip_longest(_blocks(preds), _blocks(entries), fillvalue=[]):
            if len(texts) != len(block):
                n_preds = n + len(texts) + sum(1 for _ in preds)
                raise DataError(f"{n_preds} predictions for {n + len(block) + sum(1 for _ in entries)} records")
            records = [rec for _, rec in block]
            # Each gold is composed as it is scored, so none is held.
            golds = (_resolve(rec, tables, f"record {i}: ")[1] for i, rec in enumerate(records, start=n))
            part = execution_accuracy(texts, golds, records, tables, cache)
            n += part.n
            exec_correct += part.exec_correct
            counts.update(part.error_counts)
    report = EvalReport(n, exec_correct, dict(counts))
    with _outputs(args.out_json, args.out_table) as (out_json, out_table):
        out_json.write(_json_doc(report_to_dict(report)))
        if out_table is not None:
            out_table.write(render_report_table(report))
    _log(f"eval: {report.exec_correct}/{report.n} execution-correct; report at {args.out_json}")
    return 0


def _cmd_eg(args: argparse.Namespace) -> int:
    _require(args, "candidates", "questions", "tables", "out_selections", "out_report")
    tables = index_by_id(load_tables(args.tables))
    records = load_questions(args.questions)
    n = correct_top1 = correct_eg = all_failed = 0
    dropped: Counter[str] = Counter()
    with (
        closing(TableCache()) as cache,
        closing(iter_jsonl(args.candidates)) as entries,
        _outputs(args.out_selections, args.out_report) as (out_selections, out_report),
    ):
        for block in _blocks(entries):
            beams, golds, tabs = [], [], []
            for lineno, entry in block:
                if "qid" not in entry or "candidates" not in entry:
                    raise DataError(f"candidates line {lineno}: need keys 'qid' and 'candidates'")
                qid = entry["qid"]
                texts = entry["candidates"]
                if not isinstance(qid, int) or isinstance(qid, bool) or not 0 <= qid < len(records):
                    raise DataError(f"candidates line {lineno}: qid {qid!r} does not index the questions file")
                if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
                    raise DataError(f"candidates line {lineno}: 'candidates' must be a non-empty list of strings")
                tab, gold = _resolve(records[qid], tables, f"candidates line {lineno}: ")
                tabs.append(tab)
                beams.append(texts[: args.beam_width])
                golds.append(gold)
            part = eg_gain(beams, golds, tabs, cache)
            out_selections.writelines(
                _json_line(
                    {
                        "qid": entry["qid"],
                        "chosen": sel.chosen_sql,
                        "chosen_index": sel.chosen_index,
                        "all_failed": sel.all_failed,
                        "outcomes": [
                            {"index": o.index, "ok": o.ok, "error": o.error, "kind": o.kind}
                            for o in sel.outcomes
                        ],
                    }
                )
                for (_, entry), sel in zip(block, part.selections)
            )
            n += part.n
            correct_top1 += part.correct_top1
            correct_eg += part.correct_eg
            all_failed += part.all_failed_count
            dropped.update(part.dropped_by_kind)
        gain = EgGainReport(n, correct_top1, correct_eg, dict(dropped), all_failed)
        report = {
            "n": gain.n,
            "correct_top1": gain.correct_top1,
            "correct_eg": gain.correct_eg,
            "accuracy_top1": round12(gain.accuracy_top1),
            "accuracy_eg": round12(gain.accuracy_eg),
            "delta": round12(gain.delta),
            "dropped_by_kind": gain.dropped_by_kind,
            "all_failed_count": gain.all_failed_count,
        }
        out_report.write(_json_doc(report))
    _log(f"eg: {gain.correct_top1}->{gain.correct_eg} correct of {gain.n}; report at {args.out_report}")
    return 0


def _cmd_gate_check(args: argparse.Namespace) -> int:
    _require(args, "out")
    dims = {name: getattr(args, name) for name in ("d_model", "vocab_size", "src_len", "tgt_len")}
    per_seed = []
    overall = 0.0
    for seed in range(args.seeds):
        result = grad_check(*random_check_instance(seed, **dims), epsilon=args.epsilon)
        overall = max(overall, result.max_rel_error)
        per_seed.append(
            {"seed": seed, "max_rel_error": round12(result.max_rel_error), "worst_param": result.worst_param}
        )
    payload = {"epsilon": round12(args.epsilon), **dims, "per_seed": per_seed, "max_rel_error": round12(overall)}
    with _outputs(args.out) as (out,):
        out.write(_json_doc(payload))
    _log(f"gate check: max relative error {overall:.3e} over {args.seeds} seeds; report at {args.out}")
    return 0


def _cmd_gate_train(args: argparse.Namespace) -> int:
    _require(args, "out_metrics")
    task_cfg = CopyTaskConfig(
        d_model=args.d_model,
        steps=args.steps,
        batch_size=args.batch_size,
        lr=args.lr,
        eval_size=args.eval_size,
        seed=args.seed,
    )
    try:
        result = train_copy_model(task_cfg, gated=not args.ablation, log_every=args.log_every)
    except TrainingDiverged as exc:
        raise DataError(f"gate train diverged: {exc}; try a smaller --lr") from exc
    rows: list[dict] = [{"step": step, "loss": round12(loss)} for step, loss in result.history]
    metrics = {k: round12(v) if type(v) is float else v for k, v in asdict(result.metrics).items()}
    rows.append({"final": True, "gated": not args.ablation, **metrics})
    sidecar = None if args.out_params is None else str(sidecar_path(args.out_params))
    with _outputs(args.out_metrics, args.out_params, sidecar) as (out, blob_out, sidecar_out):
        out.writelines(map(_json_line, rows))
        if blob_out is not None:
            blob, sidecar_text = encode_params(result.model)
            blob_out.flush()  # the blob's bytes bypass the text layer
            blob_out.buffer.write(blob)
            sidecar_out.write(sidecar_text)
    if args.out_params is not None:
        _log(f"gate train: params at {args.out_params}")
    _log(
        f"gate train: value copy accuracy {result.metrics.value_copy_accuracy:.3f} "
        f"(gated={not args.ablation}); metrics at {args.out_metrics}"
    )
    return 0


# ----------------------------------------------------------------------
# Parser assembly and dispatch


def _command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="JSON file of flag defaults; explicit flags override")
    p.set_defaults(handler=handler, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="textsql", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(metavar="COMMAND", required=True)

    p = _command(sub, "linearize", _cmd_linearize, "serialize question/table pairs into model inputs")
    p.add_argument("--questions", help="WikiSQL-style questions JSONL")
    p.add_argument("--tables", help="WikiSQL-style tables JSONL")
    p.add_argument("--out", help="output JSONL of {input, target}")
    p.add_argument("--mode", type=_mode, default="baseline", help="baseline or augmented")
    p.add_argument("--samples", type=_number(int, 0), default=0, help="rows of cell samples per column (augmented mode)")
    p.add_argument("--dropout", action="store_true", help="drop one random input word per example (table id kept)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cell-len", type=_number(int, 1), default=32)
    p.add_argument("--skip-bad", action="store_true", help="skip bad records, such as one whose gold does not compose")

    p = _command(sub, "silver", _cmd_silver, "sample silver question/SQL training pairs")
    p.add_argument("--tables", help="WikiSQL-style tables JSONL")
    p.add_argument("--out", help="output JSONL in the questions format (phase 99)")
    p.add_argument("--n", type=_number(int, 0), help="number of examples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-conds", type=_number(int, 0), default=3)
    p.add_argument("--no-zero-conds", action="store_true", help="require at least one condition")

    p = _command(sub, "eval", _cmd_eval, "score predictions and break down the errors")
    p.add_argument("--preds", help="one predicted SQL text per line, aligned with --questions")
    p.add_argument("--questions", help="gold questions JSONL")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--out-json", help="report as JSON")
    p.add_argument("--out-table", help="report as a fixed-width text table")

    p = _command(sub, "eg", _cmd_eg, "execution-guided candidate selection")
    p.add_argument("--candidates", help="JSONL of {qid, candidates: [sql, ...]} best first")
    p.add_argument("--questions", help="gold questions JSONL")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--out-selections", help="chosen candidate per question, JSONL")
    p.add_argument("--out-report", help="top-1 vs execution-guided accuracy, JSON")
    p.add_argument("--beam-width", type=_number(int, 1), default=3)

    p = sub.add_parser("gate", help="extraction-gate verification and training")
    gate_sub = p.add_subparsers(metavar="COMMAND", required=True)

    p = _command(gate_sub, "check", _cmd_gate_check, "finite-difference gradient check")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--seeds", type=_number(int, 1), default=20, help="number of random instances")
    p.add_argument("--epsilon", type=_number(float, 0, strict=True), default=1e-5, help="finite-difference step")
    p.add_argument("--d-model", type=_number(int, 1), default=8)
    p.add_argument("--vocab-size", type=_number(int, 2), default=20)
    p.add_argument("--src-len", type=_number(int, 1), default=5)
    p.add_argument("--tgt-len", type=_number(int, 1), default=4)

    p = _command(gate_sub, "train", _cmd_gate_train, "train on the synthetic copy task")
    p.add_argument("--out-metrics", help="JSONL of step losses plus final metrics")
    p.add_argument("--out-params", help="parameter blob path (sidecar written next to it)")
    p.add_argument("--steps", type=_number(int, 1), default=600)
    p.add_argument("--batch-size", type=_number(int, 1), default=16)
    p.add_argument("--lr", type=_number(float, 0, strict=True), default=0.5)
    p.add_argument("--d-model", type=_number(int, 1), default=32)
    p.add_argument("--eval-size", type=_number(int, 1), default=200)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--log-every", type=_number(int, 1), default=25)
    p.add_argument("--ablation", action="store_true", help="train with the copy gate forced to zero")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Parse again with the file's entries as the subcommand's
            # defaults: each passes its flag's type, and explicit flags win.
            args.parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return 1
    except (DataError, OSError) as exc:
        _log(f"data error: {exc}")
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 3
        _log(f"internal error: {type(exc).__name__}: {exc}")
        return 3


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
