"""The public names that code outside the package relies on.

The benchmark (``perfbench/``) and the demos import from ``turbobec``
and ``turbobec.harness`` but are not part of the test suite, so a
removed or renamed name would only show when they run.  This module
reads their source, runs the short trajectory demo and one traced
benchmark trial per workload; it changes none of them.  It also parses
every ``turbobec`` example in README, so a renamed or removed flag
cannot stay in the docs, and it reads the package's own imports, so
each module's dependencies stay one-way, and its names, so the rule
that ends a decode stays in ``decoder.py``, the reception checks, the
r count and the stop rule keep one copy in ``feed``, only ``decoder.py``
encodes a reception as its key, only ``run_trial`` hands a decoder a
batch, each decoder keeps one propagation loop, the turbo closure keeps
one contradiction exit, its walks test no bound and its ops name one
slot, no import outlives the code that used it, no code outside the
benchmark reads the ``.status`` alias of a decoder's bare ``Status``,
and only ``cli.py`` reads outside text, its numbers only through its
number helpers.
"""

import ast
import graphlib
import importlib
import importlib.util
import inspect
import re
import runpy
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import turbobec
from turbobec import (RscSpec, Status, build_regular_staircase, cli,
                      identity_interleaver, make_turbo_spec, run_trial)

ROOT = Path(__file__).resolve().parents[1]
CLIENTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")])
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))
PACKAGE = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted((ROOT / "src" / "turbobec").glob("*.py"))}


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


def load_perfbench(name, monkeypatch):
    """``perfbench/<name>.py``, loaded by path: perfbench is no package.
    It is registered in ``sys.modules`` for this test only, as its
    dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_trials_match_run_trial(monkeypatch):
    # The benchmark's traced mode reads what turbobec returns, not just
    # its names, so a changed return type shows here.
    tracing = load_perfbench("tracing", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        code = workload.build()
        tracer = tracing.Tracer()
        traced = tracing.traced_trial(code, workload.family, 99, 0, tracer)
        tracing.time_probes(workload, code, 0, tracer)
        assert traced.error is None, name
        assert traced.r_stop == run_trial(code, 99, 0).r_stop, name


STATUS_ALIAS_TEST = "test_outcomes_are_bare_status_members"


def status_reads(node):
    """Line numbers of the ``.status`` reads under an AST node, outside
    the alias's own test."""
    if isinstance(node, ast.FunctionDef) and node.name == STATUS_ALIAS_TEST:
        return
    if isinstance(node, ast.Attribute) and node.attr == "status" and (
            isinstance(node.ctx, ast.Load)):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from status_reads(child)


def test_outcomes_are_bare_status_members():
    # ``Status.status`` is an alias kept for the benchmark's traced trial.
    for member in Status:
        assert member.status is member
    for code in (make_turbo_spec(RscSpec(0o7, 0o5, 3), 8,
                                 identity_interleaver(8)),
                 build_regular_staircase(8, Fraction(1, 3), 1)):
        dec = code.start_decoder()
        assert dec.outcome() is Status.IN_PROGRESS
        for index in range(code.N):
            out = dec.receive(index, 0)
            assert type(out) is Status and out is dec.outcome()
            if out is not Status.IN_PROGRESS:
                break
        assert out is Status.SUCCESS


def test_status_reads_are_found():
    tree = ast.parse("a.status\nb.status = 1\ndef f(): c.status\n"
                     f"def {STATUS_ALIAS_TEST}(): d.status\n")
    assert list(status_reads(tree)) == [1, 3]


def test_no_status_read_outside_the_benchmark():
    # Decoders return the bare ``Status``; perfbench's traced trial is
    # the one reader of the ``.status`` alias left.
    assert any(p.name == "test_api.py" for p in SOURCES)
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = list(status_reads(tree))
        assert not lines, f"{path.relative_to(ROOT)} reads .status at {lines}"


def test_readme_commands_are_found():
    assert {argv[0] for argv in README_COMMANDS} == {
        "table", "encode", "decode", "trial", "simulate", "sweep"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[
    f"{i}-{argv[0]}" for i, argv in enumerate(README_COMMANDS)])
def test_readme_command_parses(argv):
    # Parsing only: nothing runs, so no file the example names is needed.
    cli.build_parser().parse_args(argv)


def package_imports(node):
    """The ``turbobec`` modules imported anywhere under an AST node, as
    file stems; ``__init__`` stands for the package itself."""
    def stem(dotted):
        return dotted.split(".")[0] if dotted else "__init__"

    for child in ast.walk(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                top, _, rest = alias.name.partition(".")
                if top == "turbobec":
                    yield stem(rest)
        elif isinstance(child, ast.ImportFrom):
            if child.level:
                module = child.module
            elif (child.module or "").split(".")[0] == "turbobec":
                module = child.module.partition(".")[2]
            else:
                continue
            if module:
                yield stem(module)
            else:
                # ``from . import x``: x is a module or a package name.
                for alias in child.names:
                    yield alias.name if alias.name in PACKAGE else "__init__"


def test_package_modules_are_found():
    assert {"__init__", "decoder", "turbo", "ldpc", "cli"} <= set(PACKAGE)


@pytest.mark.parametrize("module", sorted(PACKAGE))
def test_no_function_imports_the_package(module):
    # Imports inside a function hide a dependency, often an import cycle.
    for node in ast.walk(PACKAGE[module]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assert not list(package_imports(node)), (
                f"{module}.{node.name} imports a turbobec module")


def test_package_import_graph_has_no_cycle():
    graph = {module: set(package_imports(tree)) - {module}
             for module, tree in PACKAGE.items()}
    list(graphlib.TopologicalSorter(graph).static_order())


def test_decoder_contract_imports_no_package_module():
    # Both code families build on decoder.py, so it depends on neither.
    assert not set(package_imports(PACKAGE["decoder"]))


@pytest.mark.parametrize("module", sorted(set(PACKAGE) - {"decoder"}))
def test_only_the_decoder_contract_tests_for_in_progress(module):
    # decoder.py's ``feed`` is the one place that decides when a decode
    # is over; a loop elsewhere that stops on IN_PROGRESS is a second one.
    for node in ast.walk(PACKAGE[module]):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else "")
        assert "IN_PROGRESS" not in name, (
            f"{module}.py line {getattr(node, 'lineno', '?')} names {name}")


RECEPTION_CHECKS = ["is not an integer", "out of range 0..", "is not 0 or 1",
                    "was already received", "contradiction state"]


def functions_raising(text):
    """(module, function) of each ``raise`` under ``src/turbobec`` whose
    message contains ``text``."""
    found = []
    for module, tree in PACKAGE.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Raise) and any(
                            isinstance(piece, ast.Constant)
                            and text in str(piece.value)
                            for piece in ast.walk(node)):
                        found.append((module, func.name))
    return found


@pytest.mark.parametrize("text", RECEPTION_CHECKS)
def test_each_reception_check_has_one_copy(text):
    # Only ``_CheckedDecoder.feed`` checks a reception; a decoder with
    # its own copy of the checks could let them drift apart.
    assert functions_raising(text) == [("decoder", "feed")]


def class_methods():
    """(class name, names of its methods) of each class in the package."""
    for tree in PACKAGE.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield node.name, {item.name for item in node.body
                                  if isinstance(item, ast.FunctionDef)}


def test_only_the_decoder_contract_defines_feed():
    owners = [name for name, methods in class_methods() if "feed" in methods]
    assert owners == ["_CheckedDecoder"]


def test_each_decoder_propagates_in_one_loop():
    # ``_propagate`` is each decoder's one propagation loop; the per-
    # reception helpers it replaced stay gone.
    decoders = {name: methods for name, methods in class_methods()
                if name in ("TurboErasureDecoder", "PeelingDecoder")}
    assert len(decoders) == 2
    for name, methods in decoders.items():
        assert "_propagate" in methods, name
        assert not methods & {"_settle", "_close"}, name


def test_only_feed_counts_receptions_and_stops():
    # ``feed`` counts r and tests the stop rule.  A ``_propagate`` that
    # yields a value, or a ``_checked`` stage between the two, would be
    # a second place that does either.
    propagators = 0
    for name, methods in class_methods():
        assert "_checked" not in methods, name
    for module, tree in PACKAGE.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_propagate":
                propagators += 1
                yields = [n for n in ast.walk(node)
                          if isinstance(n, (ast.Yield, ast.YieldFrom))]
                assert yields, f"{module}.py: _propagate never yields"
                for y in yields:
                    assert isinstance(y, ast.Yield) and y.value is None, (
                        f"{module}.py line {y.lineno}: _propagate yields a value")
    assert propagators == 2


def shifts_by_one(tree):
    """(function, a side of ``|``) of each ``... << 1`` in ``tree``: a
    reception key, with its value or'ed in when it is a side of ``|``."""
    found = []

    def visit(node, func, or_sides):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift) and (
                isinstance(node.right, ast.Constant) and node.right.value == 1):
            found.append((func, node in or_sides))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            or_sides = (node.left, node.right)
        for child in ast.iter_child_nodes(node):
            visit(child, func, or_sides)

    visit(tree, None, ())
    return found


def test_only_the_decoder_contract_encodes_a_reception():
    # The key ``index << 1 | value`` belongs to the reception contract:
    # ``feed`` computes it for each pair and the batch its zero-value
    # form ``indices << 1`` for a whole array; each decoder only maps a
    # key to its op.
    assert shifts_by_one(PACKAGE["decoder"]) == [("feed", True),
                                                 ("_receive_batch", False)]
    for module in ("turbo", "ldpc"):
        keys = [func for func, ored in shifts_by_one(PACKAGE[module]) if ored]
        assert keys == [], f"{module}.py"


def attribute_readers(tree, attr):
    """The function around each read of the attribute ``attr`` in
    ``tree``, None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_run_trial_receives_a_batch():
    # A batch takes only what an untraced trial gives it, the zero word
    # at distinct positions of a fresh decoder; a second caller could
    # need more.
    trees = {**{f"src/turbobec/{module}.py": tree
                for module, tree in PACKAGE.items()},
             **{path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
                for path in CLIENTS}}
    readers = [(name, func) for name, tree in trees.items()
               for func in attribute_readers(tree, "_receive_batch")]
    assert readers == [("src/turbobec/harness.py", "run_trial")]


def test_turbo_closure_has_one_contradiction_exit():
    # Only an op's own step can empty: a walked step keeps a transition
    # into (or out of) each state the step before it still uses.  So
    # the walks need no contradiction exit of their own.
    decoder = next(node for node in ast.walk(PACKAGE["turbo"])
                   if isinstance(node, ast.ClassDef)
                   and node.name == "TurboErasureDecoder")
    propagate = next(item for item in decoder.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "_propagate")
    exits = [node.lineno for node in ast.walk(propagate)
             if isinstance(node, ast.Assign) and any(
                 isinstance(t, ast.Attribute) and t.attr == "contradiction"
                 and isinstance(t.value, ast.Name) and t.value.id == "self"
                 for t in node.targets)]
    assert len(exits) == 1, f"turbo.py lines {exits} set self.contradiction"


def closure_shape_faults(tree):
    """Where the ``TurboErasureDecoder._propagate`` in ``tree`` tests a
    ``while`` on more than a bare name (or ``True``), or pushes or pops
    a tuple that is not a (slot, mask) pair."""
    decoder = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and node.name == "TurboErasureDecoder")
    propagate = next(item for item in decoder.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "_propagate")
    faults = []
    for node in ast.walk(propagate):
        if isinstance(node, ast.While) and not (
                isinstance(node.test, ast.Name)
                or (isinstance(node.test, ast.Constant)
                    and node.test.value is True)):
            faults.append(f"line {node.lineno}: while {ast.unparse(node.test)}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "push"):
            faults += [f"line {node.lineno}: push of {len(arg.elts)}"
                       for arg in node.args
                       if isinstance(arg, ast.Tuple) and len(arg.elts) != 2]
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)
              and node.value.func.id == "pop"):
            faults += [f"line {node.lineno}: pop into {len(target.elts)}"
                       for target in node.targets
                       if not (isinstance(target, ast.Tuple)
                               and len(target.elts) == 2)]
    return faults


def test_turbo_walks_test_no_bound_and_ops_name_one_slot():
    # Every walk that leaves a chain stops unchanged on a pinned step or
    # on the sentinel slot, so no walk tests a bound; and an op names
    # one slot of the decoder's one list, not a chain and a step.
    assert closure_shape_faults(PACKAGE["turbo"]) == []


def test_decoder_subclasses_in_tests_define_no_dead_methods():
    # A test's subclass of a decoder that overrides a hook the decoder
    # no longer calls runs the decoder's own code and checks nothing
    # against the reference.  So each method such a subclass defines
    # is one its base has, or one the subclass itself calls.
    bases = {"PeelingDecoder": turbobec.PeelingDecoder,
             "TurboErasureDecoder": turbobec.TurboErasureDecoder}
    subclasses = 0
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            base = next((bases[b.id] for b in node.bases
                         if isinstance(b, ast.Name) and b.id in bases), None)
            if base is None:
                continue
            subclasses += 1
            called = {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    assert hasattr(base, item.name) or item.name in called, (
                        f"{path.name} line {item.lineno}: {node.name}."
                        f"{item.name} is neither a {base.__name__} method "
                        f"nor called")
    assert subclasses


def unused_imports(tree):
    """Names a module imports but never reads; ``from __future__`` and
    the names its ``__all__`` re-exports do not count."""
    imported = set()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_unused_import_check_finds_a_leftover():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from .a import b, c as d\n__all__ = ['b']\nnp.e\n")
    assert unused_imports(tree) == {"os", "d"}


@pytest.mark.parametrize("module", sorted(PACKAGE))
def test_no_unused_import(module):
    assert not unused_imports(PACKAGE[module]), f"{module}.py"


NUMBER_READERS = {"int", "float", "Fraction"}
NUMBER_HELPERS = {"_integer", "_fraction"}


def calls_of(node, names, exempt=frozenset()):
    """Line numbers of the calls of the bare names ``names`` under an AST
    node, outside the functions named in ``exempt``."""
    if isinstance(node, ast.FunctionDef) and node.name in exempt:
        return
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from calls_of(child, names, exempt)


def test_number_reads_are_found():
    tree = ast.parse("def _integer(t): return int(t)\n"
                     "def f(t):\n    return int(t), x.int(t)\n"
                     "def g(t): return float(t) + Fraction(t)\n")
    assert list(calls_of(tree, NUMBER_READERS, NUMBER_HELPERS)) == [3, 4, 4]


def test_a_number_read_put_back_in_the_cli_is_found():
    source = (ROOT / "src" / "turbobec" / "cli.py").read_text()
    assert source.count("_integer(ch, 16)") == 1
    tree = ast.parse(source.replace("_integer(ch, 16)", "int(ch, 16)"))
    assert len(list(calls_of(tree, NUMBER_READERS, NUMBER_HELPERS))) == 1


def test_outside_text_is_read_only_by_the_cli():
    # cli.py is the one reader of files and flags, and within it every
    # number goes through the number helpers and their one grammar.
    assert list(calls_of(PACKAGE["cli"], {"open"}))
    for module, tree in PACKAGE.items():
        if module != "cli":
            lines = list(calls_of(tree, {"open"}))
            assert not lines, f"{module}.py calls open at {lines}"
    lines = list(calls_of(PACKAGE["cli"], NUMBER_READERS, NUMBER_HELPERS))
    assert not lines, f"cli.py reads a number outside its helpers at {lines}"


def test_importing_the_package_leaves_the_cli_out():
    graph = {module: set(package_imports(tree)) - {module}
             for module, tree in PACKAGE.items()}
    reached, todo = set(), ["__init__"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += graph[module]
    assert "decoder" in reached and "cli" not in reached
