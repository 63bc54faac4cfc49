"""The public names that code outside the package relies on.

The benchmark (``perfbench/``) and the demos import from ``turbobec``
and ``turbobec.harness`` but are not part of the test suite, so a
removed or renamed name would only show when they run.  This module
reads their source, never runs or changes it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import turbobec

ROOT = Path(__file__).resolve().parents[1]
CLIENTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")])


def imported_names(path):
    """(module, name) of every ``from turbobec... import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "turbobec"):
            for alias in node.names:
                yield node.module, alias.name


def test_clients_are_found():
    assert any(p.parent.name == "perfbench" for p in CLIENTS)
    assert any(p.parent.name == "demos" for p in CLIENTS)


@pytest.mark.parametrize("path", CLIENTS,
                         ids=[f"{p.parent.name}/{p.name}" for p in CLIENTS])
def test_client_imports_exist(path):
    for module, name in imported_names(path):
        assert hasattr(importlib.import_module(module), name), (
            f"{path.name} imports {name} from {module}")


def test_all_lists_exactly_the_exports():
    exported = {name for name, value in vars(turbobec).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(turbobec.__all__) == len(set(turbobec.__all__))
    assert set(turbobec.__all__) == exported
