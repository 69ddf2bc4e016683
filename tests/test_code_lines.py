"""``tools/code_lines.py``: which lines of a Python file count as code."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def count(tmp_path, source: str) -> int:
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    return code_lines.code_lines(path)


@pytest.mark.parametrize(
    "source, expected",
    [
        pytest.param("", 0, id="empty"),
        pytest.param("\n\n   \n", 0, id="blank"),
        pytest.param("# a comment\n    # indented\n", 0, id="comments"),
        pytest.param("x = 1  # trailing\n", 1, id="code-with-comment"),
        pytest.param('"""Module."""\n', 0, id="module-docstring"),
        pytest.param('"""Module\n\ndocstring.\n"""\nx = 1\n', 1, id="multi-line-module-docstring"),
        pytest.param('class C:\n    """Doc\n    string."""\n    x = 1\n', 2, id="class-docstring"),
        pytest.param('def f():\n    """Doc."""\n    return 1\n', 2, id="def-docstring"),
        pytest.param('async def f():\n    """Doc."""\n    return 1\n', 2, id="async-def-docstring"),
        pytest.param(
            'def f():\n    def g():\n        """Nested\n        doc."""\n    class C:\n        """Doc."""\n',
            3,
            id="nested-docstrings",
        ),
        pytest.param('x = """a\nb\nc"""\n', 3, id="multi-line-string"),
        pytest.param('def f():\n    x = 1\n    """Not a\n    docstring."""\n', 4, id="later-string"),
        pytest.param('def f():\n    "a" \\\n    "b"\n', 1, id="joined-docstring"),
    ],
)
def test_blank_comment_and_docstring_lines_do_not_count(tmp_path, source, expected):
    assert count(tmp_path, source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        pytest.param('def f(): "doc"\n', 1, id="def"),
        pytest.param('class C: "doc"\n', 1, id="class"),
        pytest.param('"""Module."""; x = 1\n', 1, id="module"),
        pytest.param('def f(): """a\nb"""\n', 1, id="docstring-spans-lines"),
        pytest.param('class Ü: """a\nb"""\n', 1, id="non-ascii-before-docstring"),
        pytest.param('x = 1; y = """a\nb"""\n', 2, id="string-after-code"),
        pytest.param('def f(): "doc"\nclass C: "doc"\nx = 1; y = """a\nb"""\n', 4, id="all"),
    ],
)
def test_a_line_with_code_beside_a_docstring_counts(tmp_path, source, expected):
    assert count(tmp_path, source) == expected
