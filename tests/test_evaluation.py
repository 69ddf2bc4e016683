"""Execution accuracy and the Invalid/Wrong error taxonomy."""

import json
import random
from collections import Counter
from contextlib import closing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textsql import (
    CandidateList,
    Condition,
    ErrorClass,
    EvalReport,
    Kind,
    LogicalForm,
    ParseFailure,
    QuestionRecord,
    Slot,
    Table,
    TableCache,
    classify_error,
    compose,
    eg_gain,
    execute,
    execution_accuracy,
    hallucination_flag,
    parse,
    parse_raw,
    render,
    render_report_table,
    report_to_dict,
    report_to_json,
    sample_logical_form,
    template_question,
)
from textsql.eg import CandidateOutcome, EgGainReport, EgSelection
from textsql.engine import results_equal
from textsql.evaluation import CORRECT, PARSE_FAILURE, SLOT_ORDER, _HALLUCINATION_SLOTS, _classify
from textsql.silver import SamplerConfig
from textsql.sql import quote_ident, resolve

from conftest import make_table

CITIES = Table(
    table_id="1-500-1",
    headers=("City", "Population", "Area"),
    col_types=("text", "real", "real"),
    rows=(("Richmond", 62000, 62.5), ("Hampton", 134000, 130.0)),
)
QUESTION = "What is the population of Richmond, not Hampton, when the area is 62.5 and people number 62000 ?"
GOLD = LogicalForm(sel=1, agg=0, conds=(Condition(0, 0, "Richmond"),))
GOOD = "select [population] from [1-500-1] where [city] = 'richmond'"


def classify(pred: str) -> ErrorClass:
    return classify_error(pred, GOLD, CITIES, QUESTION)


class TestErrorClass:
    def test_labels(self):
        assert CORRECT.label == "Correct"
        assert PARSE_FAILURE.label == "ParseFailure"
        assert ErrorClass(Kind.INVALID, Slot.WHERE_VALUE).label == "Invalid/where_value"
        assert ErrorClass(Kind.WRONG, Slot.AGG_FUNCTION).label == "Wrong/agg_function"

    def test_slotless_kinds_reject_slots(self):
        with pytest.raises(ValueError):
            ErrorClass(Kind.CORRECT, Slot.WHERE_VALUE)
        with pytest.raises(ValueError):
            ErrorClass(Kind.INVALID)

    def test_slot_order_covers_every_slot(self):
        assert set(SLOT_ORDER) == set(Slot) - {Slot.NONE}


class TestClassify:
    def test_exact_match_is_correct(self):
        assert classify(GOOD) == CORRECT
        assert classify(render(compose(GOLD, CITIES))) == CORRECT

    def test_unparseable_prediction(self):
        assert classify("select [population] from") == PARSE_FAILURE
        assert classify("complete nonsense") == PARSE_FAILURE

    def test_unknown_aggregation_is_invalid(self):
        pred = "select median([population]) from [1-500-1] where [city] = 'richmond'"
        assert classify(pred) == ErrorClass(Kind.INVALID, Slot.AGG_FUNCTION)

    def test_fabricated_select_column_is_invalid(self):
        pred = "select [inhabitants] from [1-500-1] where [city] = 'richmond'"
        assert classify(pred) == ErrorClass(Kind.INVALID, Slot.SELECT_COLUMN)

    def test_fabricated_where_column_is_invalid(self):
        pred = "select [population] from [1-500-1] where [mayor] = 'richmond'"
        assert classify(pred) == ErrorClass(Kind.INVALID, Slot.WHERE_COLUMN)

    def test_unknown_operator_is_invalid(self):
        pred = "select [population] from [1-500-1] where [city] >= 'richmond'"
        assert classify(pred) == ErrorClass(Kind.INVALID, Slot.WHERE_OPER)

    def test_value_absent_from_question_is_invalid(self):
        # The hallucination signature: a value the question never mentions.
        pred = "select [population] from [1-500-1] where [city] = 'norfolk'"
        assert classify(pred) == ErrorClass(Kind.INVALID, Slot.WHERE_VALUE)

    def test_paraphrased_value_is_invalid(self):
        pred = "select [population] from [1-500-1] where [city] = 'richmond city'"
        assert classify(pred) == ErrorClass(Kind.INVALID, Slot.WHERE_VALUE)

    def test_wrong_aggregation(self):
        pred = "select count([population]) from [1-500-1] where [city] = 'richmond'"
        assert classify(pred) == ErrorClass(Kind.WRONG, Slot.AGG_FUNCTION)

    def test_wrong_select_column(self):
        pred = "select [area] from [1-500-1] where [city] = 'richmond'"
        assert classify(pred) == ErrorClass(Kind.WRONG, Slot.SELECT_COLUMN)

    def test_wrong_where_column(self):
        pred = "select [population] from [1-500-1] where [area] = 62.5"
        assert classify(pred) == ErrorClass(Kind.WRONG, Slot.WHERE_COLUMN)

    def test_missing_condition_is_wrong_where_column(self):
        assert classify("select [population] from [1-500-1]") == ErrorClass(
            Kind.WRONG, Slot.WHERE_COLUMN
        )

    def test_duplicated_condition_is_wrong_where_column(self):
        pred = GOOD + " and [city] = 'richmond'"
        assert classify(pred) == ErrorClass(Kind.WRONG, Slot.WHERE_COLUMN)

    def test_wrong_operator(self):
        pred = "select [population] from [1-500-1] where [city] > 'richmond'"
        assert classify(pred) == ErrorClass(Kind.WRONG, Slot.WHERE_OPER)

    def test_wrong_value(self):
        pred = "select [population] from [1-500-1] where [city] = 'hampton'"
        assert classify(pred) == ErrorClass(Kind.WRONG, Slot.WHERE_VALUE)

    def test_number_never_matches_its_quoted_form(self):
        gold = LogicalForm(sel=0, agg=0, conds=(Condition(1, 0, 62000),))
        pred = "select [city] from [1-500-1] where [population] = '62000'"
        assert classify_error(pred, gold, CITIES, QUESTION) == ErrorClass(
            Kind.WRONG, Slot.WHERE_VALUE
        )

    def test_integral_float_value_matches_bare_integer_text(self):
        gold = LogicalForm(sel=0, agg=0, conds=(Condition(1, 0, 62000.0),))
        pred = "select [city] from [1-500-1] where [population] = 62000.0"
        assert classify_error(pred, gold, CITIES, QUESTION) == CORRECT

    def test_condition_order_is_ignored(self):
        gold = LogicalForm(
            sel=1, agg=0, conds=(Condition(0, 0, "Richmond"), Condition(2, 0, 62.5))
        )
        pred = "select [population] from [1-500-1] where [area] = 62.5 and [city] = 'richmond'"
        assert classify_error(pred, gold, CITIES, QUESTION) == CORRECT

    def test_aggregation_tiebreak_wins_over_value(self):
        # Two slips at once; the fixed order reports the aggregation.
        pred = "select count([population]) from [1-500-1] where [city] = 'hampton'"
        assert classify(pred) == ErrorClass(Kind.WRONG, Slot.AGG_FUNCTION)

    def test_invalid_checked_before_wrong(self):
        # Fabricated select column and a wrong value; Invalid wins.
        pred = "select [inhabitants] from [1-500-1] where [city] = 'hampton'"
        assert classify(pred) == ErrorClass(Kind.INVALID, Slot.SELECT_COLUMN)

    def test_table_id_is_not_a_taxonomy_slot(self):
        pred = "select [population] from [9-999-9] where [city] = 'richmond'"
        assert classify(pred) == CORRECT


class TestHallucinationFlag:
    def flag(self, pred):
        return hallucination_flag(pred, CITIES, QUESTION)

    def test_fires_on_invented_columns_and_values(self):
        assert self.flag("select [inhabitants] from [1-500-1]")
        assert self.flag("select [population] from [1-500-1] where [mayor] = 'richmond'")
        assert self.flag("select [population] from [1-500-1] where [city] = 'norfolk'")

    def test_silent_on_non_content_slots(self):
        assert not self.flag(GOOD)
        assert not self.flag("select median([population]) from [1-500-1]")
        assert not self.flag("select [population] from [1-500-1] where [city] >= 'richmond'")
        assert not self.flag("select [population] from")

    def test_agrees_with_classifier(self):
        preds = [
            GOOD,
            "select [inhabitants] from [1-500-1]",
            "select [population] from [1-500-1] where [city] = 'norfolk'",
            "select [population] from [1-500-1] where [mayor] = 'x'",
            "select median([a]) from [1-500-1]",
            "junk",
            "select [area] from [1-500-1] where [city] = 'richmond'",
        ]
        content = {Slot.SELECT_COLUMN, Slot.WHERE_COLUMN, Slot.WHERE_VALUE}
        for pred in preds:
            cls = classify(pred)
            expected = cls.kind is Kind.INVALID and cls.slot in content
            assert self.flag(pred) == expected, pred


class TestExecutionAccuracy:
    def _batch(self):
        """10 predictions: 7 exact, 1 unparseable, 1 hallucinated value,
        1 wrong aggregation."""
        preds = [GOOD] * 7 + [
            "select [population] from",
            "select [population] from [1-500-1] where [city] = 'norfolk'",
            "select count([population]) from [1-500-1] where [city] = 'richmond'",
        ]
        golds = [compose(GOLD, CITIES)] * 10
        records = [
            QuestionRecord(phase=1, table_id=CITIES.table_id, question=QUESTION, lf=GOLD)
        ] * 10
        return preds, golds, records

    def test_counts_and_partition(self, cache):
        preds, golds, records = self._batch()
        report = execution_accuracy(preds, golds, records, {CITIES.table_id: CITIES}, cache)
        assert report.n == 10
        assert report.exec_correct == 7
        assert report.exec_accuracy == 0.7
        assert report.count(CORRECT) == 7
        assert report.count(PARSE_FAILURE) == 1
        assert report.count(ErrorClass(Kind.INVALID, Slot.WHERE_VALUE)) == 1
        assert report.count(ErrorClass(Kind.WRONG, Slot.AGG_FUNCTION)) == 1
        assert sum(report.error_counts.values()) == report.n
        assert report.hallucination_count == 1

    def test_execution_match_is_independent_of_sql_shape(self, cache):
        # Different statement, same result rows: scores as executable-correct
        # while the taxonomy still reports the slot disagreement.
        pred = "select [population] from [1-500-1] where [area] = 62.5"
        records = [QuestionRecord(phase=1, table_id=CITIES.table_id, question=QUESTION, lf=GOLD)]
        report = execution_accuracy([pred], [compose(GOLD, CITIES)], records, {CITIES.table_id: CITIES}, cache)
        assert report.exec_correct == 1
        assert report.count(CORRECT) == 0
        assert report.count(ErrorClass(Kind.WRONG, Slot.WHERE_COLUMN)) == 1

    def test_or_tail_is_never_execution_correct(self, cache):
        # Both rows have area > 0, so the engine would return gold's rows.
        gold = LogicalForm(sel=1, agg=0, conds=(Condition(2, 1, 0),))
        pred = "select [population] from [1-500-1] where [area] > 0 or 1=1"
        records = [QuestionRecord(phase=1, table_id=CITIES.table_id, question=QUESTION, lf=gold)]
        report = execution_accuracy([pred], [compose(gold, CITIES)], records, {CITIES.table_id: CITIES}, cache)
        assert report.exec_correct == 0
        assert report.count(PARSE_FAILURE) == 1

    def test_empty_inputs(self, cache):
        report = execution_accuracy([], [], [], {}, cache)
        assert report.n == 0
        assert report.exec_accuracy == 0.0
        assert report.error_counts == {}

    def test_misaligned_inputs_rejected(self, cache):
        with pytest.raises(ValueError, match="misaligned"):
            execution_accuracy([GOOD], [], [], {}, cache)

    @pytest.mark.parametrize("n_golds", [0, 2])
    def test_golds_misaligned_with_the_predictions_rejected(self, cache, n_golds):
        preds, golds, records = self._batch()
        with pytest.raises(ValueError, match="zip"):
            execution_accuracy(preds[:1], golds[:n_golds], records[:1], {CITIES.table_id: CITIES}, cache)

    def test_golds_are_read_in_step_with_the_predictions(self, cache):
        """An iterator of golds is asked for gold i only once prediction
        i - 1 is scored, so a gold that cannot be had stops the run there."""
        preds, golds, records = self._batch()
        asked = []

        def lazy_golds():
            for i, gold in enumerate(golds):
                asked.append(i)
                if i == 3:
                    raise ValueError("gold 3 is bad")
                yield gold

        with pytest.raises(ValueError, match="gold 3 is bad"):
            execution_accuracy(preds, lazy_golds(), records, {CITIES.table_id: CITIES}, cache)
        assert asked == [0, 1, 2, 3]

    def test_missing_table_raises(self, cache):
        records = [QuestionRecord(phase=1, table_id="9-9-9", question=QUESTION, lf=GOLD)]
        with pytest.raises(ValueError, match="9-9-9"):
            execution_accuracy([GOOD], [compose(GOLD, CITIES)], records, {}, cache)


class TestReportEmitters:
    def _report(self, cache):
        preds = [
            GOOD,
            "select [population] from [1-500-1] where [city] = 'norfolk'",
            "junk",
        ]
        records = [
            QuestionRecord(phase=1, table_id=CITIES.table_id, question=QUESTION, lf=GOLD)
        ] * 3
        return execution_accuracy(preds, [compose(GOLD, CITIES)] * 3, records, {CITIES.table_id: CITIES}, cache)

    def test_dict_spells_out_the_slot_grid(self, cache):
        d = report_to_dict(self._report(cache))
        assert d["n"] == 3
        assert d["counts"]["Correct"] == 1
        assert d["counts"]["ParseFailure"] == 1
        assert set(d["counts"]["Invalid"]) == {s.value for s in SLOT_ORDER}
        assert d["counts"]["Invalid"]["where_value"] == 1
        assert d["counts"]["Wrong"]["agg_function"] == 0
        total = (
            d["counts"]["Correct"]
            + d["counts"]["ParseFailure"]
            + sum(d["counts"]["Invalid"].values())
            + sum(d["counts"]["Wrong"].values())
        )
        assert total == d["n"]

    def test_json_round_trips(self, cache):
        text = report_to_json(self._report(cache))
        assert text.endswith("\n")
        assert json.loads(text) == report_to_dict(self._report(cache))

    def test_table_lists_every_slot(self, cache):
        text = render_report_table(self._report(cache))
        for slot in SLOT_ORDER:
            assert slot.value in text
        lines = text.splitlines()
        assert lines[0].split() == ["n", "3"]
        row = next(l for l in lines if l.startswith("where_value"))
        assert row.split() == ["where_value", "1", "0"]


class TestClassifierProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_gold_render_classifies_correct(self, seed):
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(1, 6))
        with closing(TableCache()) as cache:
            gold = sample_logical_form(tab, rng, SamplerConfig(), cache)
        stmt = compose(gold, tab)
        question = template_question(stmt, tab)
        assert classify_error(render(stmt), gold, tab, question) == CORRECT
        assert not hallucination_flag(render(stmt), tab, question)


def _planted_pred(stmt, rng):
    """A prediction from a random taxonomy family, built from a gold
    statement."""
    sel, tid = quote_ident(stmt.sel_col), quote_ident(stmt.table_id)
    preds = [
        render(stmt),
        render(replace(stmt, agg=(stmt.agg + 1) % 6)),
        render(replace(stmt, sel_col="no such column")),
        f"select median({sel}) from {tid}",
        f"select {sel} from {tid} where {sel} >= 1",
        "select from",
    ]
    if stmt.conds:
        (col, op, value), rest = stmt.conds[0], stmt.conds[1:]
        preds.append(render(replace(stmt, conds=((col, op, "value not in question"),) + rest)))
        preds.append(render(replace(stmt, conds=(("ghost column", op, value),) + rest)))
    return rng.choice(preds)


def _planted_batch(seed: int, n: int = 12):
    """One random table plus ``n`` planted predictions with their gold
    logical forms."""
    rng = random.Random(seed)
    tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(1, 6))
    preds, golds, records = [], [], []
    with closing(TableCache()) as cache:
        for _ in range(n):
            gold = sample_logical_form(tab, rng, SamplerConfig(), cache)
            stmt = compose(gold, tab)
            question = template_question(stmt, tab)
            preds.append(_planted_pred(stmt, rng))
            golds.append(gold)
            records.append(QuestionRecord(phase=1, table_id=tab.table_id, question=question, lf=gold))
    return tab, preds, golds, records


class TestSinglePassScoring:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_hallucination_count_matches_the_flag(self, seed):
        """execution_accuracy reads the flag off the classifier's label; the
        standalone flag stays the reference."""
        tab, preds, golds, records = _planted_batch(seed)
        with closing(TableCache()) as cache:
            report = execution_accuracy(preds, [compose(g, tab) for g in golds], records, {tab.table_id: tab}, cache)
        expected = sum(hallucination_flag(p, tab, r.question) for p, r in zip(preds, records))
        assert report.hallucination_count == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_gold_composed_once_per_example(self, seed, monkeypatch, cache):
        """The caller's composed gold serves both its execution and the
        Wrong-slot comparison, and execution_accuracy composes nothing; the
        labels still match classify_error's."""
        import textsql.evaluation as evaluation

        tab, preds, golds, records = _planted_batch(seed, n=20)
        expected = Counter(classify_error(p, g, tab, r.question) for p, g, r in zip(preds, golds, records))
        gold_stmts = [compose(g, tab) for g in golds]
        calls = []
        real_compose = evaluation.compose

        def counting_compose(lf, t):
            calls.append(lf)
            return real_compose(lf, t)

        monkeypatch.setattr(evaluation, "compose", counting_compose)
        report = execution_accuracy(preds, gold_stmts, records, {tab.table_id: tab}, cache)
        assert calls == []
        assert report.error_counts == dict(expected)

    @given(st.integers(0, 10**6), st.sampled_from([" or 1=1", ";", " and 1=1", " limit 50", " -- x"]))
    @settings(max_examples=80, deadline=None)
    def test_parse_failure_never_counts_as_execution_correct(self, seed, tail):
        """Text outside the dialect is never executed, even where SQLite
        would return the gold rows for it."""
        rng = random.Random(seed)
        tab = make_table(rng, n_cols=rng.randrange(1, 5), n_rows=rng.randrange(1, 6))
        with closing(TableCache()) as cache:
            gold = sample_logical_form(tab, rng, SamplerConfig(), cache)
            gold_stmt = compose(gold, tab)
            text = render(gold_stmt)
            record = QuestionRecord(phase=1, table_id=tab.table_id, question=text, lf=gold)
            for pred in (text + tail, text[: rng.randrange(len(text))]):
                report = execution_accuracy([pred], [gold_stmt], [record], {tab.table_id: tab}, cache)
                if report.count(PARSE_FAILURE):
                    assert report.exec_correct == 0, pred


# --- gold reuse against the scoring loops it replaced -------------------------

# ``execution_accuracy``, ``eg_select`` and ``eg_gain`` as they were before a
# statement equal to its gold took the gold's result, kept verbatim as the
# reference: every prediction and tried candidate is executed and compared.


def _oracle_execution_accuracy(preds, golds, records, tables, cache):
    exec_correct = 0
    halluc = 0
    counts = Counter()
    for pred, gold, rec in zip(preds, golds, records):
        tab = tables.get(rec.table_id)
        if tab is None:
            raise ValueError(f"no table {rec.table_id!r} for record {rec.question!r}")
        # Materialized even for a prediction that is never executed, so a
        # table the engine cannot hold is a data error whatever is predicted.
        db = cache.get(tab)
        gold_stmt = compose(gold, tab)
        raw = parse_raw(pred)
        if isinstance(raw, ParseFailure):
            counts[PARSE_FAILURE] += 1
            continue
        stmt = resolve(raw)
        label = _classify(raw, stmt, gold_stmt, tab, rec.question)
        counts[label] += 1
        # Same as hallucination_flag, read off the label without a reparse.
        halluc += label.kind is Kind.INVALID and label.slot in _HALLUCINATION_SLOTS
        if not isinstance(stmt, ParseFailure):
            exec_correct += results_equal(execute(stmt, db), execute(gold_stmt, db))
    n = len(preds)
    return EvalReport(
        n=n,
        exec_correct=exec_correct,
        exec_accuracy=exec_correct / n if n else 0.0,
        error_counts=dict(counts),
        hallucination_count=halluc,
    )


def _oracle_eg_select(cands, tab, cache):
    db = cache.get(tab)
    outcomes = []
    results = []
    for i, sql_text in enumerate(cands.beam()):
        res = execute(sql_text, db)
        results.append(res)
        outcomes.append(CandidateOutcome(index=i, sql_text=sql_text, ok=not res.is_error, error=res.error))
        if not res.is_error:
            return EgSelection(
                chosen_sql=sql_text,
                chosen_index=i,
                all_failed=False,
                outcomes=tuple(outcomes),
                chosen_result=res,
            )
    return EgSelection(
        chosen_sql=cands.candidates[0],
        chosen_index=0,
        all_failed=True,
        outcomes=tuple(outcomes),
        chosen_result=results[0],
    )


def _oracle_eg_gain(pred_sets, golds, tables, cache):
    correct_top1 = 0
    correct_eg = 0
    dropped = Counter()
    all_failed = 0
    selections = []
    for cands, gold, tab in zip(pred_sets, golds, tables):
        gold_res = execute(compose(gold, tab), cache.get(tab))
        selection = _oracle_eg_select(cands, tab, cache)
        selections.append(selection)
        eg_ok = results_equal(selection.chosen_result, gold_res)
        correct_top1 += eg_ok and selection.outcomes[0].ok
        correct_eg += eg_ok
        all_failed += selection.all_failed
        for outcome in selection.outcomes:
            if not outcome.ok:
                dropped[outcome.kind] += 1
    n = len(golds)
    return EgGainReport(
        n=n,
        correct_top1=correct_top1,
        correct_eg=correct_eg,
        accuracy_top1=correct_top1 / n if n else 0.0,
        accuracy_eg=correct_eg / n if n else 0.0,
        delta=(correct_eg - correct_top1) / n if n else 0.0,
        dropped_by_kind=dict(sorted(dropped.items())),
        all_failed_count=all_failed,
        selections=tuple(selections),
    )


# Literals that compare equal as numbers but render, and select, apart,
# keyed by their common value.
_TWINS = {3: (3, 3.0), 0: (0, 0.0, -0.0), -3: (-3, -3.0)}


def _twin_batch(seed: int, n: int = 12):
    """``_planted_batch`` with a text column whose cells spell numeric
    twins ('3', '3.0', ...) and golds that condition on a twin; predictions
    are planted, the gold itself, or the gold with a twin literal swapped
    in. Also returns each example's candidate beam for selection."""
    tab, preds, golds, records = _planted_batch(seed, n)
    rng = random.Random(seed)
    spelled = [str(v) for v in (3, 3.0, 0, 0.0, -0.0, -3, -3.0)]
    tab = Table(
        table_id=tab.table_id,
        headers=tab.headers + ("twin",),
        col_types=tab.col_types + ("text",),
        rows=tuple(row + (rng.choice(spelled),) for row in tab.rows),
    )
    twin_col = tab.n_cols - 1
    pred_sets = []
    for i, gold in enumerate(golds):
        if rng.random() < 0.5:
            value = rng.choice(rng.choice(list(_TWINS.values())))
            gold = replace(gold, conds=gold.conds + (Condition(twin_col, 0, value),))
            golds[i] = gold
            records[i] = replace(records[i], lf=gold)
        stmt = compose(gold, tab)
        swapped = tuple(
            (col, op, rng.choice(_TWINS[value]) if value in _TWINS else value)
            for col, op, value in stmt.conds
        )
        pool = [
            render(stmt),
            render(replace(stmt, conds=swapped)),
            _planted_pred(stmt, rng),
            f"select [no such column] from {quote_ident(tab.table_id)}",
        ]
        preds[i] = rng.choice(pool)
        texts = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        pred_sets.append(CandidateList.from_texts(texts, beam_width=rng.randrange(1, 4)))
    return tab, preds, golds, records, pred_sets


class TestGoldReuse:
    """A prediction or tried candidate equal to its gold takes the gold's
    result; scores, labels and selections stay those of executing it."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_scores_match_executing_every_statement(self, seed):
        tab, preds, golds, records, pred_sets = _twin_batch(seed)
        tables = {tab.table_id: tab}
        gold_stmts = [compose(g, tab) for g in golds]
        with closing(TableCache()) as cache:
            assert execution_accuracy(preds, gold_stmts, records, tables, cache) == _oracle_execution_accuracy(
                preds, golds, records, tables, cache
            )
            assert eg_gain(pred_sets, gold_stmts, [tab] * len(golds), cache) == _oracle_eg_gain(
                pred_sets, golds, [tab] * len(golds), cache
            )

    def test_twin_of_the_gold_is_executed(self, cache):
        """On a text column 3.0 selects '3.0', not the gold's '3'."""
        tab = Table(table_id="1-3-1", headers=("A",), col_types=("text",), rows=(("3",), ("3.0",)))
        gold = LogicalForm(sel=0, agg=0, conds=(Condition(0, 0, 3),))
        record = QuestionRecord(phase=1, table_id=tab.table_id, question="which a is 3", lf=gold)
        twin = "select [a] from [1-3-1] where [a] = 3.0"
        gold_stmt = compose(gold, tab)
        report = execution_accuracy([twin], [gold_stmt], [record], {tab.table_id: tab}, cache)
        assert report.exec_correct == 0
        assert eg_gain([CandidateList.from_texts([twin])], [gold_stmt], [tab], cache).correct_eg == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_gold_then_each_prediction_not_equal_to_it_executes(self, seed, monkeypatch, cache):
        import textsql.evaluation as evaluation

        tab, preds, golds, records, _ = _twin_batch(seed, n=20)
        calls = []
        real_execute = evaluation.execute

        def counting_execute(stmt, db):
            calls.append(stmt)
            return real_execute(stmt, db)

        monkeypatch.setattr(evaluation, "execute", counting_execute)
        execution_accuracy(preds, [compose(g, tab) for g in golds], records, {tab.table_id: tab}, cache)
        expected = []
        for pred, gold in zip(preds, golds):
            stmt = parse(pred)
            if isinstance(stmt, ParseFailure):
                continue
            gold_stmt = compose(gold, tab)
            expected.append(gold_stmt)
            if stmt != gold_stmt:
                expected.append(stmt)
        assert calls == expected
        assert len(calls) < 2 * sum(not isinstance(parse(p), ParseFailure) for p in preds)
