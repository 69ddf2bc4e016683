"""Seeded input generator for the benchmark workloads.

Everything here is stdlib only and independent of the library under test:
the table factory is modelled on the test suite's ``make_table`` (nasty
identifiers, mixed text and real columns, some null cells) and gold
statements are rendered by a local copy of the wire format, so the inputs do
not move when the library changes. The same seed always gives byte-identical
files.

Workload shapes (see NOTES.md for why):

- ``score``: a hot set of SCORE_TABLES tables with SCORE_Q_PER_TABLE questions
  each, one planted prediction per question and a beam of EG_BEAM candidates.
- ``generate``: a wide set of GEN_TABLES small tables for ``silver`` and
  ``linearize``.
- ``gate``: no input files; the stages take their shape from flags.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from collections import Counter
from pathlib import Path

# Part of the input cache key: bump it whenever the generated inputs change.
GEN_VERSION = 1

SCORE_TABLES = 100
SCORE_ROWS = 30
SCORE_Q_PER_TABLE = 100
EG_BEAM = 5

GEN_TABLES = 3000
GEN_ROWS = 20
SILVER_N = 12000
LINEARIZE_SAMPLES = 3

GATE_TRAIN_STEPS = 60
GATE_BATCH = 16
GATE_CHECK_SEEDS = 4

AGG_NAMES = ("", "max", "min", "count", "sum", "avg")
OPS = ("=", ">", "<")

_HEADER_WORDS = ["size", "rank", "label", "score", "year", "city", "notes", "state", "année", "größe", "città"]
_HEADER_TAILS = [" (km)", "/area", "]x", "'s", "`q", " ñ"]
_NASTY = ["it's", "a]b", "x`y", 'say "hi"', "café au lait", "semi;colon", "100% sure", "[brackets]"]
_PLAIN = ["alpha", "beta", "gamma", "delta", "north east", "south-west", "tie", "open"]
NULL_RATE = 0.05


def make_table(rng: random.Random, table_id: str, n_cols: int, n_rows: int) -> dict:
    """One table in the tables-file shape. Headers are unique after
    lowercasing; every column has at least one non-null cell."""
    types = [rng.choice(["text", "real"]) for _ in range(n_cols)]
    headers, used = [], set()
    for _ in range(n_cols):
        base = rng.choice(_HEADER_WORDS)
        if rng.random() < 0.35:
            base += rng.choice(_HEADER_TAILS)
        name, k = base, 2
        while name.lower() in used:
            name, k = f"{base} {k}", k + 1
        used.add(name.lower())
        headers.append(name if rng.random() < 0.5 else name.title())
    pool = _PLAIN + _NASTY
    rows = []
    for r in range(n_rows):
        row = []
        for t in types:
            if r > 0 and rng.random() < NULL_RATE:
                row.append(None)
            elif t == "real":
                row.append(rng.choice([rng.randrange(-50, 200), round(rng.uniform(-4, 9), 2)]))
            else:
                row.append(rng.choice(pool))
        rows.append(row)
    return {"id": table_id, "header": headers, "types": types, "rows": rows}


def make_tables(rng: random.Random, n_tables: int, n_rows: int) -> list[dict]:
    return [
        make_table(rng, f"{1 + i % 2}-{i:07d}-{rng.randrange(1, 30)}", rng.randint(3, 7), n_rows)
        for i in range(n_tables)
    ]


# --- the wire format, rendered locally ---------------------------------------


def _ident(name: str) -> str:
    return "[" + name.replace("]", "]]") + "]"


def _number(x) -> str:
    return str(x) if isinstance(x, int) else repr(x)


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.lower().replace("'", "''") + "'"
    return _number(value)


def _value_text(value) -> str:
    return value.lower() if isinstance(value, str) else _number(value)


def render(tab: dict, sel: int, agg: int, conds: list, sel_name: str | None = None, agg_name: str | None = None) -> str:
    """Render a logical form against ``tab`` the way the library composes
    and renders it; ``sel_name``/``agg_name`` override the slots verbatim."""
    col = _ident(sel_name if sel_name is not None else tab["header"][sel].lower())
    fn = agg_name if agg_name is not None else AGG_NAMES[agg]
    text = f"select {fn}({col})" if fn else f"select {col}"
    text += f" from {_ident(tab['id'])}"
    if conds:
        text += " where " + " and ".join(
            f"{_ident(tab['header'][c].lower())} {OPS[op]} {_literal(v)}" for c, op, v in conds
        )
    return text


# --- score workload ----------------------------------------------------------

# Planted prediction classes, their share of the predictions file and the
# taxonomy label ``eval`` must give them.
PLANT_MIX = (
    ("exact", 0.30, "Correct"),
    ("variant", 0.10, "Correct"),
    ("wrong_agg", 0.10, "Wrong/agg_function"),
    ("wrong_col", 0.10, "Wrong/select_column"),
    ("wrong_value", 0.10, "Invalid/where_value"),
    ("fabricated_col", 0.10, "Invalid/select_column"),
    ("truncated", 0.07, "ParseFailure"),
    ("unknown_fn", 0.08, "Invalid/agg_function"),
    ("or_tail", 0.05, "ParseFailure"),
)
EXPECTED_LABEL = {name: label for name, _, label in PLANT_MIX}


def _gold(rng: random.Random, tab: dict) -> tuple[int, int, list]:
    n_cols = len(tab["header"])
    sel = rng.randrange(n_cols)
    agg = rng.randrange(6)
    if tab["types"][sel] == "text" and agg in (4, 5):
        agg = rng.randrange(4)
    conds = []
    for _ in range(rng.randint(0, 3)):
        c = rng.randrange(n_cols)
        values = [row[c] for row in tab["rows"] if row[c] is not None]
        op = 0 if tab["types"][c] == "text" else rng.randrange(3)
        conds.append((c, op, rng.choice(values)))
    return sel, agg, conds


def _question(tab: dict, sel: int, conds: list) -> str:
    parts = [f"Tell me the {tab['header'][sel]}"]
    for c, op, v in conds:
        parts.append(f"when {tab['header'][c]} {('is', 'is over', 'is under')[op]} {_value_text(v)}")
    return " ".join(parts) + "?"


def _plant(kind: str, rng: random.Random, tab: dict, sel: int, agg: int, conds: list) -> str:
    """One prediction of the given class, derived from the gold slots."""
    exact = render(tab, sel, agg, conds)
    if kind == "exact":
        return exact
    if kind == "variant":
        text = render(tab, sel, agg, conds, agg_name=AGG_NAMES[agg].upper())
        text = text.replace("select ", "SELECT  ", 1).replace(" from ", "\tFrom ", 1)
        return text.replace(" where ", "  WHERE ", 1).replace(" and ", " AND ")
    if kind == "wrong_agg":
        return render(tab, sel, rng.choice([a for a in range(6) if a != agg]), conds)
    if kind == "wrong_col":
        return render(tab, rng.choice([c for c in range(len(tab["header"])) if c != sel]), agg, conds)
    if kind == "wrong_value":
        i = rng.randrange(len(conds))
        c, op, v = conds[i]
        wrong = f"zzv{rng.randrange(10**6)}" if isinstance(v, str) else 900000 + rng.randrange(10**5)
        return render(tab, sel, agg, conds[:i] + [(c, op, wrong)] + conds[i + 1 :])
    if kind == "fabricated_col":
        return render(tab, sel, agg, conds, sel_name=f"ghost {rng.randrange(100)}")
    if kind == "truncated":
        # Cut right after the last operator, or before the table id: never a
        # complete statement.
        if conds:
            return exact[: exact.rindex(f" {OPS[conds[-1][1]]} ") + 2]
        return exact[: exact.rindex(" from ") + 5]
    if kind == "unknown_fn":
        return render(tab, sel, agg, conds, agg_name="median")
    if kind == "or_tail":
        return exact + " or 1=1"
    raise ValueError(kind)


def _draw_kind(rng: random.Random, has_conds: bool) -> str:
    x = rng.random()
    for name, share, _ in PLANT_MIX:
        x -= share
        if x < 0:
            break
    if name == "wrong_value" and not has_conds:
        name = "wrong_agg"
    return name


def write_score(rng: random.Random, out: Path) -> dict:
    tables = make_tables(rng, SCORE_TABLES, SCORE_ROWS)
    questions, preds, beams, kinds = [], [], [], []
    for qid in range(SCORE_TABLES * SCORE_Q_PER_TABLE):
        tab = tables[qid % SCORE_TABLES]
        sel, agg, conds = _gold(rng, tab)
        questions.append(
            {
                "phase": 1,
                "table_id": tab["id"],
                "question": _question(tab, sel, conds),
                "sql": {"sel": sel, "agg": agg, "conds": [[c, op, v] for c, op, v in conds]},
            }
        )
        kind = _draw_kind(rng, bool(conds))
        kinds.append(kind)
        pred = _plant(kind, rng, tab, sel, agg, conds)
        preds.append(pred)
        # Beam: the planted top-1, then runners-up that mix failing and clean
        # candidates, so execution-guided selection has work to do.
        runners = [k for k, _, _ in PLANT_MIX if k != "wrong_value" or conds]
        rng.shuffle(runners)
        beam = [pred] + [_plant(k, rng, tab, sel, agg, conds) for k in runners[: EG_BEAM - 1]]
        beams.append({"qid": qid, "candidates": beam})
    _write_jsonl(out / "tables.jsonl", tables)
    _write_jsonl(out / "questions.jsonl", questions)
    (out / "preds.txt").write_text("".join(p + "\n" for p in preds), encoding="utf-8")
    _write_jsonl(out / "beams.jsonl", beams)
    expected = Counter(EXPECTED_LABEL[k] for k in kinds)
    return {
        "tables": SCORE_TABLES,
        "rows_per_table": SCORE_ROWS,
        "questions": len(questions),
        "beam": EG_BEAM,
        "plants": dict(sorted(Counter(kinds).items())),
        "expected_labels": dict(sorted(expected.items())),
    }


def write_generate(rng: random.Random, out: Path) -> dict:
    tables = make_tables(rng, GEN_TABLES, GEN_ROWS)
    _write_jsonl(out / "tables.jsonl", tables)
    return {"tables": GEN_TABLES, "rows_per_table": GEN_ROWS, "silver_n": SILVER_N, "samples": LINEARIZE_SAMPLES}


def write_gate(rng: random.Random, out: Path) -> dict:
    return {"train_steps": GATE_TRAIN_STEPS, "batch_size": GATE_BATCH, "check_seeds": GATE_CHECK_SEEDS}


WRITERS = {"score": write_score, "generate": write_generate, "gate": write_gate}


def _write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for o in objs:
            fh.write(json.dumps(o, ensure_ascii=False) + "\n")


def ensure_inputs(cache_root: Path, workload: str, seed: int) -> tuple[Path, dict]:
    """Inputs for (workload, seed), generated once and cached; returns the
    directory and its shape description."""
    final = cache_root / f"{workload}-s{seed}-v{GEN_VERSION}"
    shape_file = final / "shape.json"
    if not shape_file.exists():
        tmp = cache_root / f".tmp-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        # Mix the workload name into the seed so workloads draw independent
        # streams for the same --seed.
        rng = random.Random(f"{workload}:{seed}")
        shape = WRITERS[workload](rng, tmp)
        (tmp / "shape.json").write_text(json.dumps(shape, sort_keys=True) + "\n")
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    return final, json.loads(shape_file.read_text())
