"""The package's public names: ``__all__`` against what ``__init__`` binds,
and what importing the package pulls in."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import textsql
import textsql.gate


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
