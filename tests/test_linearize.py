"""Input serialization regimes, token dropout, and field recovery."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textsql import (
    LinearizeConfig,
    Table,
    build_example,
    delinearize,
    linearize,
)
from textsql.linearize import LinearizeError
from textsql.normalize import cell_text, normalize_question

from conftest import PLATES_BASELINE, PLATES_QUESTION, PLATES_SQL, make_table

BASE = LinearizeConfig()
AUG = LinearizeConfig(include_types=True, sample_rows=2)


# The serializer and dropout as they were before each table's text was built
# once: every field of the input is built per call, and dropout splits every
# field into words to draw one. Kept as the oracle of the differential tests.
def _fields(question: str, tab: Table, cfg: LinearizeConfig) -> list[str]:
    parts = [normalize_question(question), tab.table_id]
    if not cfg.include_types:
        if cfg.sample_rows != 0:
            raise LinearizeError("baseline mode requires include_types=False and sample_rows=0")
        parts.extend(h.lower() for h in tab.headers)
        return parts
    k = min(cfg.sample_rows, tab.n_rows)
    for j, (header, col_type) in enumerate(zip(tab.headers, tab.col_types)):
        parts.append(header.lower())
        parts.append(col_type)
        for r in range(k):
            value = tab.rows[r][j]
            parts.append("" if value is None else cell_text(value)[: cfg.max_cell_len])
    return parts


def _drop_word(fields: list[str], rng: random.Random) -> list[str]:
    words_per_field = [f.split() for f in fields]
    droppable = [(fi, wi) for fi, words in enumerate(words_per_field) if fi != 1 for wi in range(len(words))]
    if not droppable:
        return fields
    fi, wi = droppable[rng.randrange(len(droppable))]
    del words_per_field[fi][wi]
    return [fields[1] if fi2 == 1 else " ".join(words) for fi2, words in enumerate(words_per_field)]


def _join(fields: list[str], cfg: LinearizeConfig) -> str:
    return cfg.bos + cfg.sep.join(fields) + cfg.eos


def _oracle_input(question: str, tab: Table, cfg: LinearizeConfig, rng: random.Random) -> str:
    fields = _fields(question, tab, cfg)
    return _join(_drop_word(fields, rng) if cfg.dropout_enabled else fields, cfg)


# Text that exercises whitespace handling: runs, tabs, no-break and wide
# spaces, the sep marker's text, and case.
_AWKWARD = st.lists(
    st.sampled_from(["a", "B", "7", " ", "\t", "\xa0", "\u2003", "\u3000", "<sep>", "."]), max_size=8
).map("".join)
_CELLS = st.one_of(
    st.none(),
    _AWKWARD,
    st.sampled_from([-0.0, 0.0, 1e16, 2.5, -7, 0, 10**20, float("inf")]),
)


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 3))
    headers = draw(st.lists(_AWKWARD.filter(bool), min_size=n_cols, max_size=n_cols))
    col_types = draw(st.lists(st.sampled_from(["text", "real"]), min_size=n_cols, max_size=n_cols))
    rows = draw(st.lists(st.tuples(*[_CELLS] * n_cols), min_size=n_rows, max_size=n_rows))
    table_id = draw(st.sampled_from(["1-2-3", "t 9\t", "a<sep>b"]))
    return Table(table_id, tuple(headers), tuple(col_types), tuple(rows))


@st.composite
def _configs(draw, tab: Table):
    augmented = draw(st.booleans())
    return LinearizeConfig(
        include_types=augmented,
        sample_rows=draw(st.integers(0, tab.n_rows + 2)) if augmented else 0,
        dropout_enabled=draw(st.booleans()),
        max_cell_len=draw(st.sampled_from([1, 2, 3, 5, 32])),
    )


class TestConfig:
    def test_negative_sample_rows_rejected(self):
        with pytest.raises(ValueError):
            LinearizeConfig(sample_rows=-1)

    def test_max_cell_len_floor(self):
        with pytest.raises(ValueError):
            LinearizeConfig(max_cell_len=0)


class TestBaseline:
    def test_reference_serialization(self, plates_table):
        assert linearize(PLATES_QUESTION, plates_table, BASE) == PLATES_BASELINE

    def test_table_id_kept_verbatim(self, plates_table):
        out = linearize("q", plates_table, BASE)
        assert "<sep>1-1000181-1<sep>" in out

    def test_separator_count_is_field_count_minus_one(self, plates_table):
        # question + id + one field per column
        out = linearize("q", plates_table, BASE)
        assert out.count("<sep>") == 1 + plates_table.n_cols


class TestAugmented:
    def test_type_tag_follows_each_header(self, points_table):
        cfg = LinearizeConfig(include_types=True)
        out = linearize("q", points_table, cfg)
        body = out[len(cfg.bos) : -len(cfg.eos)].split(cfg.sep)
        assert body[2:] == ["player", "text", "no.", "real", "points", "real"]

    def test_sampled_cells_follow_type(self, points_table):
        out = linearize("q", points_table, AUG)
        body = out[len(AUG.bos) : -len(AUG.eos)].split(AUG.sep)
        assert body[2:6] == ["player", "text", "antonio lang", "washon lenard"]
        assert body[10:14] == ["points", "real", "1", "2.5"]

    def test_separator_count_formula(self, table_factory):
        # 2 fixed fields plus (name, type, k cells) per column.
        rng = random.Random(0)
        for k in (0, 1, 2, 5):
            cfg = LinearizeConfig(include_types=True, sample_rows=k)
            tab = table_factory(rng, n_cols=2, n_rows=4)
            k_eff = min(k, tab.n_rows)
            out = linearize("what is it", tab, cfg)
            assert out.count("<sep>") == 1 + tab.n_cols * (2 + k_eff)

    def test_sample_rows_clamped_to_table(self, points_table):
        cfg = LinearizeConfig(include_types=True, sample_rows=99)
        out = linearize("q", points_table, cfg)
        assert out.count("<sep>") == 1 + 3 * (2 + points_table.n_rows)

    def test_long_cells_truncated(self):
        tab = Table("t-1", ("a",), ("text",), (("x" * 50,),))
        cfg = LinearizeConfig(include_types=True, sample_rows=1, max_cell_len=32)
        out = linearize("q", tab, cfg)
        assert "x" * 32 + "<eos>" in out
        assert "x" * 33 not in out

    def test_null_cell_becomes_empty_field(self):
        tab = Table("t-1", ("a",), ("text",), ((None,),))
        out = linearize("q", tab, LinearizeConfig(include_types=True, sample_rows=1))
        assert out.endswith("<sep>a<sep>text<sep><eos>")

    def test_dispatch_follows_config(self, points_table):
        assert linearize("q", points_table, BASE) == "<bos>q<sep>2-777-1<sep>player<sep>no.<sep>points<eos>"
        assert linearize("q", points_table, AUG).startswith("<bos>q<sep>2-777-1<sep>player<sep>text<sep>")


class TestTokenDropout:
    """Dropout as ``build_example`` applies it."""

    TAB = Table("1-22-3", ("height m", "tie"), ("real", "text"), ())
    DROP = LinearizeConfig(dropout_enabled=True)

    def _drop(self, seed, question="what is the tallest", tab=TAB):
        return build_example(question, tab, "x", self.DROP, random.Random(seed)).input

    def test_deterministic_given_seed(self):
        assert self._drop(9) == self._drop(9)

    def test_exactly_one_word_removed(self):
        n_words = lambda t: sum(len(f.split()) for f in t[5:-5].split("<sep>"))
        assert n_words(self._drop(1)) == n_words(linearize("what is the tallest", self.TAB, BASE)) - 1

    def test_table_id_and_markers_survive(self):
        for seed in range(30):
            out = self._drop(seed)
            assert out.startswith("<bos>") and out.endswith("<eos>")
            assert out.split("<sep>")[1] == "1-22-3"

    def test_choice_is_uniform_over_droppable_words(self):
        # 4 question words + 3 header words = 7 droppable tokens.
        counts = Counter(self._drop(s) for s in range(14000))
        assert len(counts) == 7
        assert all(abs(c - 2000) < 180 for c in counts.values())

    def test_no_droppable_words_is_identity(self):
        tab = Table("1-22-3", ("  ",), ("text",), ())
        assert self._drop(0, " ", tab) == linearize(" ", tab, BASE) == "<bos><sep>1-22-3<sep>  <eos>"

    def test_sep_text_in_question_leaves_table_id_whole(self):
        tab = Table("t 9", ("height",), ("real",), ())
        cfg = LinearizeConfig(dropout_enabled=True)
        outs = {
            build_example("what <sep> is", tab, "x", cfg, random.Random(seed)).input
            for seed in range(40)
        }
        assert outs == {
            "<bos><sep> is<sep>t 9<sep>height<eos>",
            "<bos>what is<sep>t 9<sep>height<eos>",
            "<bos>what <sep><sep>t 9<sep>height<eos>",
            "<bos>what <sep> is<sep>t 9<sep><eos>",
        }


class TestAgainstPerCallOracle:
    """``build_example`` with one cache over several questions, and the
    one-off serializers, against the per-call oracle above: same input bytes
    and the same random state after each call."""

    @given(data=st.data(), questions=st.lists(_AWKWARD, min_size=1, max_size=4), seed=st.integers(0, 10**6))
    @settings(max_examples=250, deadline=None)
    def test_build_example_matches(self, data, questions, seed):
        tab = data.draw(_tables())
        cfg = data.draw(_configs(tab))
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        cache = {}
        for question in questions:
            ex = build_example(question, tab, "x", cfg, rng, cache)
            assert ex.input == _oracle_input(question, tab, cfg, oracle_rng)
            assert rng.getstate() == oracle_rng.getstate()
            assert linearize(question, tab, cfg) == _join(_fields(question, tab, cfg), cfg)

    @given(
        question=_AWKWARD.filter(lambda t: "<sep>" not in t.lower()),
        headers=st.lists(_AWKWARD.filter(lambda t: t and "<sep>" not in t.lower()), min_size=1, max_size=5),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_token_dropout_matches(self, question, headers, seed):
        tab = Table("1-2 3", tuple(headers), ("text",) * len(headers), ())
        cfg = LinearizeConfig(dropout_enabled=True)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got = build_example(question, tab, "x", cfg, rng).input
        assert got == _join(_drop_word(_fields(question, tab, cfg), oracle_rng), cfg)
        assert rng.getstate() == oracle_rng.getstate()


class TestTableTextCache:
    def test_entry_not_reused_for_another_table_with_the_same_id(self):
        cfg = LinearizeConfig(include_types=True, sample_rows=1)
        cache = {}
        old = Table("t-1", ("a",), ("text",), (("old",),))
        new = Table("t-1", ("a",), ("text",), (("new",),))
        assert build_example("q", old, "x", cfg, cache=cache).input.endswith("<sep>old<eos>")
        assert build_example("q", new, "x", cfg, cache=cache).input.endswith("<sep>new<eos>")

    def test_entry_not_reused_under_another_config(self):
        tab = Table("t-1", ("a",), ("text",), (("long  cell",),))
        cache = {}
        for cfg in (
            LinearizeConfig(include_types=True, sample_rows=1),
            LinearizeConfig(include_types=True, sample_rows=1, max_cell_len=4),
            LinearizeConfig(include_types=True, sample_rows=0),
        ):
            assert build_example("q", tab, "x", cfg, cache=cache).input == linearize("q", tab, cfg)

    def test_one_entry_per_table(self, plates_table, points_table):
        cache = {}
        for tab in (plates_table, points_table, plates_table):
            build_example("q", tab, "x", AUG, cache=cache)
        assert sorted(cache) == sorted([plates_table.table_id, points_table.table_id])


class TestDelinearize:
    def test_baseline_round_trip(self, plates_table):
        fields = delinearize(PLATES_BASELINE, BASE)
        assert fields.question == "tell me what the notes are for south australia"
        assert fields.table_id == plates_table.table_id
        assert fields.headers == tuple(h.lower() for h in plates_table.headers)
        assert fields.types == ()

    def test_augmented_round_trip(self, points_table):
        out = linearize("q", points_table, AUG)
        fields = delinearize(out, AUG)
        assert fields.headers == ("player", "no.", "points")
        assert fields.types == ("text", "real", "real")
        assert fields.samples[0] == ("antonio lang", "washon lenard")

    def test_clamped_sample_count_needs_explicit_k(self, points_table):
        cfg = LinearizeConfig(include_types=True, sample_rows=99)
        out = linearize("q", points_table, cfg)
        fields = delinearize(out, cfg, k=points_table.n_rows)
        assert fields.headers == ("player", "no.", "points")

    def test_bad_group_count_rejected(self):
        with pytest.raises(LinearizeError, match="groups"):
            delinearize("<bos>q<sep>t<sep>lonely<eos>", AUG)

    def test_unmarked_text_rejected(self):
        with pytest.raises(LinearizeError, match="markers"):
            delinearize("plain text", BASE)

    def test_too_few_fields_rejected(self):
        with pytest.raises(LinearizeError):
            delinearize("<bos>only-question<eos>", BASE)


class TestBuildExample:
    def test_carries_target_through(self, plates_table):
        ex = build_example(PLATES_QUESTION, plates_table, PLATES_SQL, BASE)
        assert ex.input == PLATES_BASELINE
        assert ex.target == PLATES_SQL

    def test_dropout_requires_random_source(self, plates_table):
        cfg = LinearizeConfig(dropout_enabled=True)
        with pytest.raises(LinearizeError, match="random"):
            build_example("q", plates_table, "t", cfg)

    def test_dropout_applies_when_enabled(self, plates_table):
        cfg = LinearizeConfig(dropout_enabled=True)
        ex = build_example(PLATES_QUESTION, plates_table, PLATES_SQL, cfg, random.Random(3))
        assert ex.input != PLATES_BASELINE
        assert ex.input.split("<sep>")[1] == plates_table.table_id


class TestQuestionNormalization:
    @pytest.mark.parametrize("cfg", [BASE, AUG], ids=["baseline", "augmented"])
    def test_whitespace_runs_collapse(self, plates_table, cfg):
        spaced = linearize("Tell\tme  what the\n notes are ", plates_table, cfg)
        assert spaced == linearize("tell me what the notes are", plates_table, cfg)


class TestRoundTripProperty:
    @given(st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_fields_recoverable_for_any_table(self, seed, k):
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(0, 5))
        cfg = LinearizeConfig(include_types=True, sample_rows=k)
        question = "what is the value"
        out = linearize(question, tab, cfg)
        fields = delinearize(out, cfg, k=min(k, tab.n_rows))
        assert fields.table_id == tab.table_id
        assert fields.headers == tuple(h.lower() for h in tab.headers)
        assert fields.types == tab.col_types
