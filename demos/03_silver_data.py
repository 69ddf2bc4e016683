"""Synthesizing silver training data by sampling queries, then questions.

Random logical forms are drawn against a real table with an execution probe
so every sampled statement returns at least one row; a deterministic template
then phrases each statement as an English question whose condition values
appear verbatim. The result is cheap, valid, extraction-friendly data.
"""

import random
from itertools import islice

from textsql import (
    Condition,
    LogicalForm,
    SamplerConfig,
    Table,
    TableCache,
    compose,
    execute,
    generate_silver,
    render,
    sample_logical_form,
    template_question,
)

CLIMATE = Table(
    table_id="1-demo-3",
    headers=("City", "Country", "High", "Low"),
    col_types=("text", "text", "real", "real"),
    rows=(
        ("Oslo", "Norway", 22.5, -7.0),
        ("Bergen", "Norway", 19.0, -1.5),
        ("Graz", "Austria", 27.0, -3.0),
        ("Perth", "Australia", 31.5, 8.0),
    ),
)

# The template phrases aggregations and operators deterministically and
# keeps every condition value verbatim so it can be copied from the text.
stmt = compose(
    LogicalForm(sel=2, agg=5, conds=(Condition(1, 0, "Norway"), Condition(3, 1, -5))),
    CLIMATE,
)
print("statement:", render(stmt))
print("question: ", template_question(stmt, CLIMATE))

# The sampler draws condition values from actual cells and probes range
# conditions against SQLite, so every condition taken alone matches at
# least one row. The conjunction of several conditions may still filter
# everything out; what is guaranteed is clean execution and per-condition
# satisfiability.
rng = random.Random(7)
cache = TableCache()
cfg = SamplerConfig()
print("five sampled forms (each condition alone matches >= 1 row):")
for _ in range(5):
    lf = sample_logical_form(CLIMATE, rng, cfg, cache)
    text = render(compose(lf, CLIMATE))
    hits = [
        len(execute(render(compose(LogicalForm(sel=c.col, agg=0, conds=(c,)), CLIMATE)),
                    cache.get(CLIMATE)).rows)
        for c in lf.conds
    ]
    print(f"  per-condition rows {hits} <- {text}")

# generate_silver pairs each statement with a question from the generator it
# is given, any function of the statement and its table, here the template.
# It de-duplicates identical statements by resampling; once the retry budget
# runs out a duplicate is kept, flagged `duplicate`. The run is lazy: each
# example is sampled only when it is read, so a long run holds no examples.
run = generate_silver([CLIMATE], 8, template_question, random.Random(3), cfg, cache)
shown = list(islice(run, 4))  # only these four are sampled so far
for ex in shown:
    print("  Q:", ex.question)
    print("  A:", ex.sql_text)
examples = shown + list(run)
print(f"generated {len(examples)} examples, {sum(ex.duplicate for ex in examples)} duplicates kept")

cache.close()
