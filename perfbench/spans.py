"""Span recorder for the traced run.

The recorder wraps the library's public functions from the outside: every
module attribute under ``textsql`` that is bound to a target function is
replaced by a wrapper, so each import site (``textsql.eg.execute``,
``textsql.evaluation.execute``, ...) records through the same span name and
no library file changes. Spans (name, start, end, parent) are kept in
compact arrays in memory and written out when the run ends; self times and
the per-context counts the benchmark's ratios need are computed from them.

Tape operations of the gate's autodiff are too many to record as spans;
their wrappers only count calls against the innermost open span.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (span name, module that defines the target, attribute path)
TARGETS = (
    ("data.load_tables", "textsql.data", "load_tables"),
    ("data.load_questions", "textsql.data", "load_questions"),
    ("data.index_by_id", "textsql.data", "index_by_id"),
    ("sql.parse_raw", "textsql.sql", "parse_raw"),
    ("sql.compose", "textsql.sql", "compose"),
    ("sql.render", "textsql.sql", "render"),
    ("engine.materialize", "textsql.engine", "materialize"),
    ("engine.execute", "textsql.engine", "execute"),
    ("engine.rewrite_brackets", "textsql.engine", "rewrite_brackets"),
    ("engine.results_equal", "textsql.engine", "results_equal"),
    ("evaluation.execution_accuracy", "textsql.evaluation", "execution_accuracy"),
    ("evaluation.classify_error", "textsql.evaluation", "classify_error"),
    ("evaluation.hallucination_flag", "textsql.evaluation", "hallucination_flag"),
    ("eg.eg_select", "textsql.eg", "eg_select"),
    ("eg.eg_gain", "textsql.eg", "eg_gain"),
    ("silver.generate_silver", "textsql.silver", "generate_silver"),
    ("silver.sample_logical_form", "textsql.silver", "sample_logical_form"),
    ("linearize.build_example", "textsql.linearize", "build_example"),
    ("gate.train_copy_model", "textsql.gate.copy_task", "train_copy_model"),
    ("gate.evaluate_copy_model", "textsql.gate.copy_task", "evaluate_copy_model"),
    ("gate.grad_check", "textsql.gate.gradcheck", "grad_check"),
    ("gate.forward", "textsql.gate.model", "GateModel.forward"),
    ("gate.loss_and_grads", "textsql.gate.model", "GateModel.loss_and_grads"),
    ("gate.sgd_step", "textsql.gate.model", "GateModel.sgd_step"),
    ("gate.decode_greedy", "textsql.gate.model", "GateModel.decode_greedy"),
    ("gate.run_gate", "textsql.gate.layers", "run_gate"),
    ("gate.cross_attention", "textsql.gate.layers", "cross_attention"),
    ("gate.extraction_gate", "textsql.gate.layers", "extraction_gate"),
    ("gate.generation_head", "textsql.gate.layers", "generation_head"),
    ("gate.copy_distribution", "textsql.gate.layers", "copy_distribution"),
    ("gate.merge", "textsql.gate.layers", "merge"),
)

# Public autodiff operations, counted per call.
TAPE_OPS = (
    "add", "sub", "mul", "matmul", "relu", "exp", "log", "sigmoid", "power",
    "softmax", "tsum", "tmean", "concat_last", "take_rows", "layer_norm",
)

# Spans that give context to the spans and tape operations below them: a
# count "A<B" is a span A whose nearest enclosing context span is B.
CONTEXTS = frozenset(
    {
        "gate.forward",
        "gate.loss_and_grads",
        "gate.decode_greedy",
        "gate.grad_check",
        "gate.evaluate_copy_model",
        "gate.train_copy_model",
    }
)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops = array("i")
        self.stack = [-1]
        self.stage = "setup"
        # Per-stage counters filled by result hooks.
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.tables: dict[str, set] = defaultdict(set)
        self.last_render = None
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.ops.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, hook=None):
        nid = self._id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_op(self, fn):
        ops, stack = self.ops, self.stack

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0:
                ops[top] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- hooks: counts that need the arguments or the result ---------------

    def _hooks(self) -> dict:
        from textsql.eg import error_kind

        def bump(key, k=1):
            self.counters[self.stage][key] += k

        def on_loaded(args, result):
            bump("data.records", len(result))

        def on_render(args, result):
            self.last_render = result

        def on_execute(args, result):
            if args and args[0] is self.last_render:
                bump("engine.execute_of_render")
            if result.is_error:
                bump("engine.exec_errors." + error_kind(result.error or ""))

        def on_materialize(args, result):
            self.tables[self.stage].add(args[0].table_id)

        def on_build(args, result):
            bump("linearize.chars", len(result.input))

        return {
            "data.load_tables": on_loaded,
            "data.load_questions": on_loaded,
            "sql.render": on_render,
            "engine.execute": on_execute,
            "engine.materialize": on_materialize,
            "linearize.build_example": on_build,
        }

    def install(self):
        """Wrap every target at every place a ``textsql`` module binds it.
        Targets the library no longer has are listed in ``missing``."""
        hooks = self._hooks()
        for name, module, attr in TARGETS:
            owner = _resolve_owner(module, attr)
            leaf = attr.rsplit(".", 1)[-1]
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(name)
                continue
            original = getattr(owner, leaf)
            wrapped = self.wrap(original, name, hooks.get(name))
            if isinstance(owner, type):
                setattr(owner, leaf, wrapped)
            else:
                _rebind(original, wrapped)
        autodiff = sys.modules.get("textsql.gate.autodiff")
        for op in TAPE_OPS:
            original = getattr(autodiff, op, None)
            if original is None:
                self.missing.append("autodiff." + op)
                continue
            _rebind(original, self.count_op(original))

    # --- reduction ----------------------------------------------------------

    def summarize(self) -> dict:
        """Per stage: calls, inclusive and self seconds per span name; counts
        of spans by their nearest context span; tape ops by the context they
        ran in; and the hook counters."""
        n = len(self.name)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        stage_of = [""] * n
        ctx_self = [-1] * n  # nearest context span, the span itself included
        spans: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        pairs: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        ops: dict = defaultdict(lambda: defaultdict(int))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                stage_of[i] = stage_of[p]
            else:
                stage_of[i] = names[self.name[i]].removeprefix("stage.")
            enclosing = ctx_self[p] if p >= 0 else -1
            ctx_self[i] = i if names[self.name[i]] in CONTEXTS else enclosing
            if enclosing >= 0:
                pair = pairs[stage_of[i]][f"{names[self.name[i]]}<{names[self.name[enclosing]]}"]
                pair[0] += 1
                pair[1] += dur[i]
        for i in range(n):
            rec = spans[stage_of[i]][names[self.name[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
            if self.ops[i] and ctx_self[i] >= 0:
                ops[stage_of[i]][names[self.name[ctx_self[i]]]] += self.ops[i]
        stages = set(spans) | set(self.counters) | set(self.tables)
        return {
            "spans": {s: {k: list(v) for k, v in spans[s].items()} for s in sorted(stages)},
            "pairs": {s: {k: list(v) for k, v in pairs[s].items()} for s in sorted(stages)},
            "tape_ops": {s: dict(ops[s]) for s in sorted(stages)},
            "counters": {s: dict(self.counters[s]) for s in sorted(stages)},
            "distinct_tables": {s: len(self.tables[s]) for s in sorted(stages)},
            "span_count": n,
            "missing": self.missing,
        }

    def dump(self, path) -> None:
        """Write every span as ``name<TAB>parent<TAB>start<TAB>end``, with
        the span index as the line number (from 0)."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(f"{names[self.name[i]]}\t{self.parent[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n")


def _resolve_owner(module: str, attr: str):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in attr.split(".")[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _rebind(original, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "textsql" or mod_name.startswith("textsql.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
