"""Execution-guided candidate selection and the error taxonomy.

A decoder's top guess often fails to execute while a runner-up in the beam
is fine; trying candidates in rank order and keeping the first one that
runs recovers those examples for free. The second half classifies wrong
predictions: Invalid means a token could not exist (a fabricated column, or
a condition value the question never mentions, the hallucination signature),
Wrong means every token is legitimate but a slot disagrees with gold.
"""

from textsql import (
    CandidateList,
    Condition,
    LogicalForm,
    QuestionRecord,
    Table,
    TableCache,
    classify_error,
    compose,
    eg_gain,
    eg_select,
    execution_accuracy,
    hallucination_flag,
    render_report_table,
)

CITIES = Table(
    table_id="1-demo-5",
    headers=("City", "Population", "Area"),
    col_types=("text", "real", "real"),
    rows=(("Richmond", 62000, 62.5), ("Hampton", 134000, 130.0)),
)
QUESTION = "What is the population of Richmond when the area is 62.5?"
GOLD = LogicalForm(sel=1, agg=0, conds=(Condition(0, 0, "Richmond"),))
GOOD = "select [population] from [1-demo-5] where [city] = 'richmond'"

cache = TableCache()

# The top candidate names a column that does not exist; execution guidance
# walks down the beam and picks the first candidate that runs.
beam = CandidateList.from_texts([
    "select [inhabitants] from [1-demo-5] where [city] = 'richmond'",
    GOOD,
    "select [area] from [1-demo-5]",
])
selection = eg_select(beam, CITIES, cache)
print("tried, in rank order:")
for outcome in selection.outcomes:
    status = "ok" if outcome.ok else f"failed ({outcome.error})"
    print(f"  [{outcome.index}] {status}: {outcome.sql_text}")
print("chosen:", selection.chosen_sql)

# Over a batch, the gain is exact: integer counts, not rounded floats. Golds
# arrive composed, so each is composed once however often it is scored.
gold_stmt = compose(GOLD, CITIES)
pred_sets = [beam, CandidateList.from_texts([GOOD])]
report = eg_gain(pred_sets, [gold_stmt, gold_stmt], [CITIES, CITIES], cache)
print(f"top-1 accuracy {report.accuracy_top1} -> execution-guided {report.accuracy_eg}"
      f" (delta {report.delta})")

# The taxonomy, one planted prediction per corner:
cases = [
    ("exact gold", GOOD),
    ("fabricated column", "select [inhabitants] from [1-demo-5] where [city] = 'richmond'"),
    ("value not in question", "select [population] from [1-demo-5] where [city] = 'norfolk'"),
    ("legitimate but wrong agg", "select count([population]) from [1-demo-5] where [city] = 'richmond'"),
    ("unparseable", "select [population] from"),
]
print("classifications:")
for label, pred in cases:
    cls = classify_error(pred, GOLD, CITIES, QUESTION)
    halluc = hallucination_flag(pred, CITIES, QUESTION)
    print(f"  {label:24s} -> {cls}  hallucination={halluc}")

# execution_accuracy ties it together: executable accuracy against the gold
# result plus the full taxonomy partition.
preds = [pred for _, pred in cases]
records = [QuestionRecord(phase=1, table_id=CITIES.table_id, question=QUESTION, lf=GOLD)] * len(preds)
summary = execution_accuracy(preds, [gold_stmt] * len(preds), records, {CITIES.table_id: CITIES}, cache)
print(render_report_table(summary))

cache.close()
