"""Serializing a question plus its table schema into one model input.

Shows the two linearization regimes (baseline: question, table id, headers;
augmented: type tags and sampled cells interleaved per column), the word
dropout augmentation that deletes exactly one question or header word, and
the structured-field recovery that inverts a linearized string.
"""

import random

from textsql import (
    LinearizeConfig,
    Table,
    build_example,
    delinearize,
    linearize,
)

PLAYERS = Table(
    table_id="2-demo-7",
    headers=("Player", "No.", "Points"),
    col_types=("text", "real", "real"),
    rows=(
        ("Antonio Lang", 21, 1),
        ("Washon Lenard", 3, 2.5),
        ("Vonteego Cummings", 38, 14),
    ),
)
QUESTION = "How many points did Antonio Lang score?"

# Baseline: question and column names only, joined by sentinel tokens.
# Text is lowercased but the table id is kept verbatim.
baseline = linearize(QUESTION, PLAYERS, LinearizeConfig())
print("baseline:")
print(" ", baseline)

# Augmented: each column carries its declared type and up to sample_rows
# cell values, so the model can see what the data looks like.
aug_cfg = LinearizeConfig(include_types=True, sample_rows=2)
augmented = linearize(QUESTION, PLAYERS, aug_cfg)
print("augmented (types + 2 sample cells per column):")
print(" ", augmented)

# build_example pairs the input with its target SQL text in one step.
TARGET = "select [points] from [2-demo-7] where [player] = 'antonio lang'"
example = build_example(QUESTION, PLAYERS, TARGET, LinearizeConfig())
print("training pair:")
print("  input: ", example.input)
print("  target:", example.target)

# With dropout enabled, build_example removes exactly one word per example,
# uniformly over question and header words, drawn from a seeded random
# source. Sentinels and the table id never disappear.
drop_cfg = LinearizeConfig(dropout_enabled=True)
print("dropout variants (one word gone in each):")
for seed in range(3):
    print(" ", build_example(QUESTION, PLAYERS, TARGET, drop_cfg, random.Random(seed)).input)

# delinearize recovers the structured fields, including the per-column
# samples of the augmented regime.
fields = delinearize(augmented, aug_cfg)
print("recovered question:", fields.question)
print("recovered table id:", fields.table_id)
print("recovered headers: ", fields.headers)
print("recovered types:   ", fields.types)
print("recovered samples: ", fields.samples)
