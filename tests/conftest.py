"""Shared fixtures: small tables with known contents, a random-table factory
and an engine that is closed after the test.

The license-plate table is the reference fixture used across modules: six
text columns, three rows, and a question whose answer lives in the last
column. The points table provides a text/real mix with numbers chosen so
aggregate results can be computed by hand.
"""

import random

import pytest

from textsql import Condition, LogicalForm, QuestionRecord, Table, TableCache

PLATES_ID = "1-1000181-1"
PLATES_QUESTION = "Tell me what the notes are for South Australia "
PLATES_SQL = "select [notes] from [1-1000181-1] where [current slogan] = 'south australia'"
PLATES_BASELINE = (
    "<bos>tell me what the notes are for south australia"
    "<sep>1-1000181-1"
    "<sep>state/territory<sep>text/background color<sep>format"
    "<sep>current slogan<sep>current series<sep>notes<eos>"
)


@pytest.fixture
def plates_table() -> Table:
    return Table(
        table_id=PLATES_ID,
        headers=(
            "State/territory",
            "Text/background color",
            "Format",
            "Current slogan",
            "Current series",
            "Notes",
        ),
        col_types=("text", "text", "text", "text", "text", "text"),
        rows=(
            (
                "Australian Capital Territory",
                "blue/white",
                "Yaa-nna",
                "ACT - CELEBRATION OF A CENTURY",
                "IIL-00A",
                "Slogan screenprinted on plate",
            ),
            (
                "New South Wales",
                "black/yellow",
                "aa-nn-aa",
                "NEW SOUTH WALES",
                "BX-99-HI",
                "No slogan on current series",
            ),
            (
                "South Australia",
                "black/white",
                "Snnn-aaa",
                "SOUTH AUSTRALIA",
                "S000-AZD",
                "No slogan on current series",
            ),
        ),
    )


@pytest.fixture
def plates_record() -> QuestionRecord:
    return QuestionRecord(
        phase=1,
        table_id=PLATES_ID,
        question=PLATES_QUESTION,
        lf=LogicalForm(sel=5, agg=0, conds=(Condition(3, 0, "SOUTH AUSTRALIA"),)),
    )


@pytest.fixture
def points_table() -> Table:
    # Sum of points is 1 + 2.5 = 3.5 exactly; every aggregate over these
    # numbers is hand-checkable.
    return Table(
        table_id="2-777-1",
        headers=("Player", "No.", "Points"),
        col_types=("text", "real", "real"),
        rows=(
            ("Antonio Lang", 21, 1),
            ("Washon Lenard", 3, 2.5),
        ),
    )


_HEADER_WORDS = ["size", "rank", "label", "score", "year", "city", "notes", "state"]
_NASTY = ["it's", "a]b", "x`y", 'say "hi"', "café au lait", "semi;colon", "100% sure"]
_PLAIN = ["alpha", "beta", "gamma", "delta", "north east", "south-west", "tie", "open"]


def make_table(
    rng: random.Random,
    n_cols: int = 3,
    n_rows: int = 4,
    table_id: str | None = None,
    nasty: bool = True,
    null_rate: float = 0.0,
) -> Table:
    """Build a random table; nasty=True mixes in quotes, brackets, unicode."""
    if table_id is None:
        table_id = f"{rng.randrange(1, 3)}-{rng.randrange(10**7):07d}-{rng.randrange(1, 30)}"
    col_types = tuple(rng.choice(["text", "real"]) for _ in range(n_cols))
    headers = []
    used = set()
    for i in range(n_cols):
        base = rng.choice(_HEADER_WORDS)
        if nasty and rng.random() < 0.3:
            base = base + rng.choice([" (km)", "/area", "]x", "'s"])
        name = base
        k = 2
        while name.lower() in used:
            name = f"{base} {k}"
            k += 1
        used.add(name.lower())
        headers.append(name if rng.random() < 0.5 else name.title())
    pool = _PLAIN + (_NASTY if nasty else [])
    rows = []
    for _ in range(n_rows):
        row = []
        for t in col_types:
            if null_rate and rng.random() < null_rate:
                row.append(None)
            elif t == "real":
                row.append(rng.choice([rng.randrange(-50, 200), round(rng.uniform(-4, 9), 2)]))
            else:
                row.append(rng.choice(pool))
        rows.append(tuple(row))
    return Table(table_id=table_id, headers=tuple(headers), col_types=col_types, rows=tuple(rows))


@pytest.fixture
def table_factory():
    return make_table


@pytest.fixture
def cache():
    """An engine for library calls, closed when the test ends."""
    engine = TableCache()
    yield engine
    engine.close()
