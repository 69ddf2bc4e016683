"""Shared normalization rules for text, questions, and numeric literals.

These rules are the single source of truth used by SQL composition, table
materialization, and evaluation, so that a value written by one module
compares equal when read back by another.
"""

from __future__ import annotations

import re

# Matches a complete numeric literal (integer, decimal, or scientific).
NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def normalize_text(s: str) -> str:
    """Lowercase a column name or string value."""
    return s.lower()


def normalize_question(q: str) -> str:
    """Lowercase, trim and collapse runs of whitespace; used for substring
    tests and model inputs."""
    return " ".join(q.lower().split())


def format_number(x: int | float) -> str:
    """Render a number the way SQL literals and linearized cells print it.

    Integers print without a decimal point; floats use repr so that
    float(format_number(x)) round-trips exactly.
    """
    if isinstance(x, bool):
        raise TypeError("boolean cells are not supported")
    if isinstance(x, int):
        return str(x)
    return repr(x)


def round12(x: float) -> float:
    """A figure a command computes (an accuracy, a loss, a gradient error)
    as its output writes it: rounded to 12 significant digits. Values read
    from the data are written as read."""
    return float(f"{float(x):.12g}")


def cell_text(value: object) -> str:
    """Textual form of a table cell or condition value (lowercased strings)."""
    if isinstance(value, str):
        return normalize_text(value)
    if isinstance(value, (int, float)):
        return format_number(value)
    raise TypeError(f"unsupported cell type: {type(value).__name__}")
