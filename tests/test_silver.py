"""Silver pair sampling: validity guarantees, templates, de-duplication."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textsql import (
    Condition,
    LogicalForm,
    SamplerConfig,
    SqlStatement,
    Table,
    TableCache,
    TemplateQuestionGenerator,
    compose,
    execute,
    generate_silver,
    materialize,
    render,
    sample_logical_form,
    template_question,
)
from textsql.silver import SamplerError

from conftest import make_table


class TestTemplateQuestion:
    def test_reference_statement(self, plates_record, plates_table):
        stmt = compose(plates_record.lf, plates_table)
        q = template_question(stmt, plates_table)
        assert q == "what is the notes when current slogan is south australia"

    def test_each_aggregation_has_a_phrase(self):
        expected = {
            0: "what is the score",
            1: "what is the highest score",
            2: "what is the lowest score",
            3: "how many score",
            4: "what is the total score",
            5: "what is the average score",
        }
        for agg, phrase in expected.items():
            stmt = SqlStatement(agg=agg, sel_col="score", table_id="t")
            assert template_question(stmt, None) == phrase

    def test_operator_phrases_and_verbatim_values(self):
        stmt = SqlStatement(
            agg=0,
            sel_col="a",
            table_id="t",
            conds=(("b", ">", 10), ("c", "<", 2.5), ("d", "=", "tie")),
        )
        q = template_question(stmt, None)
        assert q == "what is the a when b is more than 10 when c is less than 2.5 when d is tie"

    def test_generator_wraps_template(self, plates_record, plates_table):
        stmt = compose(plates_record.lf, plates_table)
        qg = TemplateQuestionGenerator()
        assert qg.question_for(stmt, plates_table) == template_question(stmt, plates_table)


class TestSampleLogicalForm:
    def test_deterministic_given_seed(self, table_factory):
        tab = table_factory(random.Random(5))
        cfg = SamplerConfig()
        a = sample_logical_form(tab, random.Random(11), cfg)
        b = sample_logical_form(tab, random.Random(11), cfg)
        assert a == b

    def test_empty_table_rejected(self):
        tab = Table("t-1", ("a",), ("text",), ())
        with pytest.raises(SamplerError):
            sample_logical_form(tab, random.Random(0), SamplerConfig())

    def test_condition_count_bounds(self, table_factory):
        tab = table_factory(random.Random(2))
        cfg = SamplerConfig(max_conds=2, allow_zero_conds=False)
        rng = random.Random(0)
        counts = {len(sample_logical_form(tab, rng, cfg).conds) for _ in range(200)}
        assert counts == {1, 2}

    def test_zero_conditions_allowed_by_default(self, table_factory):
        tab = table_factory(random.Random(2))
        rng = random.Random(0)
        counts = {len(sample_logical_form(tab, rng, SamplerConfig()).conds) for _ in range(200)}
        assert counts == {0, 1, 2, 3}

    def test_text_select_never_gets_sum_or_avg(self):
        tab = Table("t-1", ("name",), ("text",), (("alpha",), ("beta",)))
        rng = random.Random(0)
        aggs = {sample_logical_form(tab, rng, SamplerConfig()).agg for _ in range(300)}
        assert aggs == {0, 1, 2, 3}

    def test_numeric_agg_guard_can_be_disabled(self):
        tab = Table("t-1", ("name",), ("text",), (("alpha",), ("beta",)))
        cfg = SamplerConfig(numeric_agg_only=False)
        rng = random.Random(0)
        aggs = {sample_logical_form(tab, rng, cfg).agg for _ in range(300)}
        assert aggs == {0, 1, 2, 3, 4, 5}

    def test_condition_values_are_actual_cells(self, table_factory):
        tab = table_factory(random.Random(3), n_rows=5)
        rng = random.Random(1)
        for _ in range(100):
            lf = sample_logical_form(tab, rng, SamplerConfig())
            for cond in lf.conds:
                column = [row[cond.col] for row in tab.rows]
                assert cond.value in column

    def test_null_columns_are_avoided(self):
        tab = Table(
            "t-1",
            ("empty", "full"),
            ("text", "text"),
            ((None, "alpha"), (None, "beta")),
        )
        cfg = SamplerConfig(max_conds=1, allow_zero_conds=False)
        rng = random.Random(0)
        for _ in range(50):
            lf = sample_logical_form(tab, rng, cfg)
            assert lf.conds[0].col == 1

    def test_all_null_table_rejected(self):
        tab = Table("t-1", ("a",), ("text",), ((None,), (None,)))
        cfg = SamplerConfig(max_conds=1, allow_zero_conds=False)
        with pytest.raises(SamplerError, match="non-null"):
            sample_logical_form(tab, random.Random(0), cfg)


class TestGenerateSilver:
    def _tables(self, seed=0, n=3):
        rng = random.Random(seed)
        return [make_table(rng, n_rows=5) for _ in range(n)]

    def test_yields_requested_count(self):
        run = generate_silver(
            self._tables(), 25, TemplateQuestionGenerator(), random.Random(0), SamplerConfig()
        )
        assert len(run.examples) == 25

    def test_deterministic_given_seed(self):
        args = (self._tables(), 10, TemplateQuestionGenerator())
        a = generate_silver(*args, random.Random(7), SamplerConfig())
        b = generate_silver(*args, random.Random(7), SamplerConfig())
        assert a.examples == b.examples
        assert a.duplicates_kept == b.duplicates_kept

    def test_every_example_executes_cleanly(self):
        tables = self._tables(seed=1)
        by_id = {t.table_id: t for t in tables}
        cache = TableCache()
        run = generate_silver(
            tables, 40, TemplateQuestionGenerator(), random.Random(2), SamplerConfig(), cache
        )
        for ex in run.examples:
            res = execute(ex.sql_text, cache.get(by_id[ex.table_id]))
            assert not res.is_error, res.error
        cache.close()

    def test_each_condition_alone_matches_a_row(self):
        tables = self._tables(seed=4)
        by_id = {t.table_id: t for t in tables}
        cache = TableCache()
        run = generate_silver(
            tables, 40, TemplateQuestionGenerator(), random.Random(5), SamplerConfig(), cache
        )
        for ex in run.examples:
            tab = by_id[ex.table_id]
            for cond in ex.lf.conds:
                probe = LogicalForm(sel=cond.col, agg=0, conds=(cond,))
                res = execute(render(compose(probe, tab)), cache.get(tab))
                assert len(res.rows) >= 1
        cache.close()

    def test_condition_values_appear_verbatim_in_question(self):
        tables = self._tables(seed=6)
        by_id = {t.table_id: t for t in tables}
        run = generate_silver(
            tables, 40, TemplateQuestionGenerator(), random.Random(8), SamplerConfig()
        )
        for ex in run.examples:
            stmt = compose(ex.lf, by_id[ex.table_id])
            for _, _, value in stmt.conds:
                needle = value if isinstance(value, str) else str(value)
                assert needle in ex.question or repr(value) in ex.question

    def test_exhausted_statement_space_keeps_duplicates(self):
        tab = Table("t-1", ("n",), ("real",), ((1.0,),))
        cfg = SamplerConfig(max_conds=0)
        run = generate_silver([tab], 20, TemplateQuestionGenerator(), random.Random(0), cfg)
        assert len(run.examples) == 20
        # Only six distinct statements exist (one per aggregation slot).
        assert len({ex.sql_text for ex in run.examples}) == 6
        assert run.duplicates_kept == 14

    def test_no_tables_rejected(self):
        with pytest.raises(SamplerError):
            generate_silver([], 1, TemplateQuestionGenerator(), random.Random(0), SamplerConfig())

    def test_empty_question_rejected(self):
        class SilentGenerator:
            def question_for(self, stmt, tab):
                return ""

        with pytest.raises(SamplerError, match="empty question"):
            generate_silver(
                self._tables(), 1, SilentGenerator(), random.Random(0), SamplerConfig()
            )


class TestValidityProperty:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sampled_statements_always_execute(self, seed):
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(1, 6))
        db = materialize(tab)
        cache = TableCache()
        for _ in range(3):
            lf = sample_logical_form(tab, rng, SamplerConfig(), cache)
            res = execute(render(compose(lf, tab)), db)
            assert not res.is_error, res.error
        cache.close()
        db.conn.close()
