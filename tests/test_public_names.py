"""The package's public names: ``__all__`` against what ``__init__`` binds
and what the CLI, demos, benchmark and tests import, and what importing
the package pulls in."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import textsql
import textsql.gate

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", [textsql, textsql.gate], ids=lambda m: m.__name__)
def test_star_import_succeeds(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("module", [textsql, textsql.gate], ids=lambda m: m.__name__)
def test_all_lists_exactly_the_bound_public_names(module):
    # Submodules become attributes of their package once imported; they are
    # not names the package exports.
    bound = {
        name
        for name, value in vars(module).items()
        if not isinstance(value, ModuleType) and (not name.startswith("_") or name == "__version__")
    }
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == bound


def test_import_leaves_numpy_out():
    # Only the gate uses numpy, and the package does not import the gate.
    src = str(Path(textsql.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, textsql; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _imported_names() -> set[str]:
    """Every name imported from the package or one of its modules by
    ``from ... import`` in the CLI, the demos, the benchmark and the test
    files other than this one."""
    files = [ROOT / "src" / "textsql" / "cli.py", *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    files += [path for path in (ROOT / "tests").glob("*.py") if path.name != Path(__file__).name]
    return {
        alias.name
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "textsql")
        for alias in node.names
    }


@pytest.mark.parametrize("module", [textsql, textsql.gate], ids=lambda m: m.__name__)
def test_every_public_name_is_imported_somewhere(module):
    # ``__all__`` holds what the CLI, demos, benchmark and tests use.
    unused = set(module.__all__) - _imported_names() - {"__version__"}
    assert not unused, sorted(unused)
