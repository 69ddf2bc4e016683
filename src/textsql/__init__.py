"""Desk-scale text-to-SQL toolkit for single-table aggregate queries.

The pieces, in pipeline order: WikiSQL-style data loading (`data`), logical
form to SQL composition and parsing (`sql`), execution against tables in
embedded shared databases (`engine`), question/schema linearization
(`linearize`), silver training-data sampling (`silver`), a gated extraction
layer with its own autodiff and training harness (`gate`), execution-guided
candidate selection (`eg`), and execution-accuracy scoring with an error
taxonomy (`evaluation`). The `textsql` command wires them into file pipelines.
"""

from .data import (
    AGG_NAMES,
    Condition,
    DataFormatError,
    LogicalForm,
    OP_NAMES,
    QuestionRecord,
    Table,
    dump_tables,
    index_by_id,
    load_questions,
    load_tables,
)
from .eg import eg_gain, eg_select
from .engine import (
    ExecResult,
    MaterializeError,
    TableCache,
    execute,
    materialize,
    results_equal,
)
from .evaluation import (
    ErrorClass,
    EvalReport,
    Kind,
    Slot,
    classify_error,
    execution_accuracy,
    hallucination_flag,
    render_report_table,
    report_to_dict,
    report_to_json,
)
from .linearize import (
    LinearizeConfig,
    build_example,
    delinearize,
    linearize,
)
from .normalize import cell_text, format_number, normalize_question, normalize_text
from .silver import (
    SamplerConfig,
    generate_silver,
    sample_logical_form,
    template_question,
)
from .sql import (
    ComposeError,
    ParseFailure,
    SqlStatement,
    compose,
    format_literal,
    parse,
    parse_raw,
    quote_ident,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "AGG_NAMES",
    "OP_NAMES",
    "Condition",
    "DataFormatError",
    "LogicalForm",
    "QuestionRecord",
    "Table",
    "dump_tables",
    "index_by_id",
    "load_questions",
    "load_tables",
    "eg_gain",
    "eg_select",
    "ExecResult",
    "MaterializeError",
    "TableCache",
    "execute",
    "materialize",
    "results_equal",
    "cell_text",
    "format_number",
    "normalize_question",
    "normalize_text",
    "ErrorClass",
    "EvalReport",
    "Kind",
    "Slot",
    "classify_error",
    "execution_accuracy",
    "hallucination_flag",
    "render_report_table",
    "report_to_dict",
    "report_to_json",
    "LinearizeConfig",
    "build_example",
    "delinearize",
    "linearize",
    "SamplerConfig",
    "generate_silver",
    "sample_logical_form",
    "template_question",
    "ComposeError",
    "ParseFailure",
    "SqlStatement",
    "compose",
    "format_literal",
    "parse",
    "parse_raw",
    "quote_ident",
    "render",
    "__version__",
]
