"""From raw JSONL to executed query results.

Walks the data path end to end: parse newline-delimited table and question
files, compose the logical form into a statement (composing is also how a
gold is checked against its schema), render it in the bracketed wire
format, and execute it against an in-memory SQLite copy of the table.
"""

import tempfile
from pathlib import Path

from textsql import (
    AGG_NAMES,
    OP_NAMES,
    ComposeError,
    Condition,
    LogicalForm,
    Table,
    TableCache,
    compose,
    dump_tables,
    execute,
    load_questions,
    load_tables,
    index_by_id,
    parse,
    render,
)

# A small table in the WikiSQL shape: headers, declared column types, rows.
# Mixed-case text and numeric strings are deliberate; materialization
# normalizes both.
MEDALS = Table(
    table_id="1-demo-1",
    headers=("Nation", "Gold", "Sport"),
    col_types=("text", "real", "text"),
    rows=(
        ("Norway", 16, "Skiing"),
        ("Germany", "12", "Luge"),
        ("Canada", 9, "Hockey"),
        ("Norway", 2, "Curling"),
    ),
)

workdir = Path(tempfile.mkdtemp())
tables_path = workdir / "tables.jsonl"
questions_path = workdir / "questions.jsonl"

# Tables serialize one JSON object per line and read back identically.
tables_path.write_text(dump_tables([MEDALS]))
tables = index_by_id(load_tables(tables_path))
print("loaded tables:", sorted(tables))

# Questions carry the gold logical form as {sel, agg, conds} index triples.
questions_path.write_text(
    '{"phase": 1, "table_id": "1-demo-1", "question": "How many golds for Norway?",'
    ' "sql": {"sel": 1, "agg": 4, "conds": [[0, 0, "Norway"]]}}\n'
)
record = load_questions(questions_path)[0]
print("question:", record.question)
print("logical form:", record.lf)

# compose resolves the index triples to (lowercased) names; render produces
# the bracketed wire format; parse inverts render exactly.
stmt = compose(record.lf, tables[record.table_id])
sql_text = render(stmt)
print("aggregations:", AGG_NAMES)
print("operators:   ", OP_NAMES)
print("rendered:    ", sql_text)
print("parse inverts render:", parse(sql_text) == stmt)

# compose is the one rule for a gold: a logical form that does not fit its
# table raises ComposeError (a DataError) saying why, and the CLI reports it
# with the record it came from.
for bad in (
    LogicalForm(sel=0, agg=4),  # sum over the text column "Nation"
    LogicalForm(sel=1, agg=0, conds=(Condition(0, 3, "Norway"),)),  # operator 3, "OP"
    LogicalForm(sel=7, agg=0),  # no eighth column
):
    try:
        compose(bad, MEDALS)
    except ComposeError as exc:
        print("refused:", bad, "->", exc)

# TableCache materializes each table once, into a database it shares with
# other tables, and hands back a handle bound to that one table.
cache = TableCache()
db = cache.get(MEDALS)
result = execute(sql_text, db)
print("result rows: ", result.rows)

# Norway appears twice, so SUM over the filtered rows gives 16 + 2.
print("sum matches hand computation:", result.rows == ((16 + 2,),))

# The wire format quotes identifiers with brackets, and the engine runs them
# backtick-quoted rather than double-quoted: SQLite treats an unknown
# double-quoted identifier as a string literal and silently matches nothing,
# so here a column that does not exist is a loud error instead.
print("unknown column is an error:", execute("select [silver] from [1-demo-1]", db).error)

# Execution speaks only the dialect that parse defines. Text outside it, such
# as an `or` tail or a query of SQLite's own catalogue, is rejected before it
# reaches the engine, so it can never count as a clean execution.
for off_dialect in (sql_text + " or 1=1", "select * from sqlite_master"):
    print("rejected:", off_dialect, "->", execute(off_dialect, db).error)

# An in-dialect statement runs on the handle's table only. Naming any other
# table, SQLite's own catalogue included, is an unknown table, even though
# the database behind the handle may hold other tables.
catalogue = "select [name] from [sqlite_master]"
print("bound to its table:", catalogue, "->", execute(catalogue, db).error)

cache.close()
