"""Count the code lines of Python files.

A line counts when it holds a Python token outside comments and outside
module, class and function docstrings; blank lines, comment lines and
docstring lines do not count. A token that spans lines (a multi-line
string that is not a docstring) counts every line it spans. Only the
docstring's own string tokens are skipped, so a line that holds code as
well, such as ``def f(): "doc"``, counts.

Usage: python tools/code_lines.py [PATH ...]   (default: src)

Prints one line per file, then the total. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


Position = tuple[int, int]


def _docstring_spans(tree: ast.Module, rows: list[str]) -> list[tuple[Position, Position]]:
    """Where each docstring starts and ends, as ``tokenize`` gives positions:
    (line, column in characters of ``rows``). ``ast`` counts columns in
    UTF-8 bytes."""

    def position(line: int, byte_col: int) -> Position:
        return line, len(rows[line - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                start = position(first.lineno, first.col_offset)
                spans.append((start, position(first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    source = path.read_bytes()
    tokens = list(tokenize.tokenize(io.BytesIO(source).readline))
    # Python's line ends only: str.splitlines() also splits at form feeds.
    text = source.decode(tokens[0].string).replace("\r\n", "\n").replace("\r", "\n")
    docstrings = _docstring_spans(ast.parse(source, str(path)), text.split("\n"))
    lines: set[int] = set()
    for tok in tokens:
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue  # a docstring, or one piece of an implicitly joined one
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src")]
    files = sorted(p for root in roots for p in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:>6}  {path}")
    print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
