"""Count the code lines of Python files.

A line counts when it holds a Python token outside comments and outside
module, class and function docstrings; blank lines, comment lines and
docstring lines do not count. A token that spans lines (a multi-line
string that is not a docstring) counts every line it spans.

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


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


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
