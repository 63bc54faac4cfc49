"""The public names that code outside the package relies on.

The benchmark (``perfbench/``) and the demos import from ``turbobec``
and ``turbobec.harness`` but are not part of the test suite, so a
removed or renamed name would only show when they run.  This module
reads their source and runs the short trajectory demo; it changes
none of them.  It also parses every ``turbobec`` example in README, so
a renamed or removed flag cannot stay in the docs.
"""

import ast
import importlib
import inspect
import re
import runpy
import shlex
from pathlib import Path

import pytest

import turbobec
from turbobec import cli

ROOT = Path(__file__).resolve().parents[1]
CLIENTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")])


def readme_commands():
    """The arguments of every ``turbobec`` line in README's sh blocks,
    with backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["turbobec"]:
                yield words[1:]


README_COMMANDS = list(readme_commands())


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


def test_trajectory_demo_runs(capsys):
    # The campaign demo (demos/inefficiency_comparison.py) takes seconds,
    # so only the short trajectory demo runs here.
    runpy.run_path(str(ROOT / "demos" / "decoding_trajectory.py"),
                   run_name="__main__")
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("success after r_stop=")


def test_readme_commands_are_found():
    assert {argv[0] for argv in README_COMMANDS} == {
        "table", "encode", "decode", "trial", "simulate", "sweep"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[
    f"{i}-{argv[0]}" for i, argv in enumerate(README_COMMANDS)])
def test_readme_command_parses(argv):
    # Parsing only: nothing runs, so no file the example names is needed.
    cli.build_parser().parse_args(argv)
