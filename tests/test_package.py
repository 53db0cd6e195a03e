"""Tests for the package surface: export lists, version, README sketch."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qring
from conftest import readme_commands
from qring.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["qring", "qring.bessel", "qring.state", "qring.observables",
           "qring.uncertainty", "qring.mwp"]
SOURCES = sorted((ROOT / "src" / "qring").glob("*.py"))


@pytest.mark.parametrize("path", [
    *SOURCES, *sorted((ROOT / "tests").glob("*.py"))],
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_parses_at_the_python_floor(path):
    # pyproject's requires-python floor: this interpreter would run syntax
    # that the floor's cannot import, such as except*
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    version = (3, int(floor.group(1)))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=version)
    ast.parse(path.read_text(), feature_version=version)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry would silently hide a function from anything
    # that walks the export lists, such as the benchmark's span tracer
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    # no linter runs on the package; deleting code tends to leave the
    # imports it needed behind
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_parameters(path):
    # a parameter that its function never reads is a knob that does
    # nothing, such as a config left behind when a function stops reading
    # it; a leading underscore marks one that a shared signature requires
    unused = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if arg is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += [f"{fn.name}({name})" for name in params
                   if name not in read and not name.startswith("_")]
    assert unused == []


def test_no_unused_private_names():
    # a private helper that nothing reads is dead code that a refactor
    # left behind; a reference is a read of the name, or of an attribute of
    # that name, anywhere in the package
    defined, read = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [target.id for target in targets
                         if isinstance(target, ast.Name)]
            else:
                names = []
            defined += [f"{path.name}:{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [name for name in defined
            if name.partition(":")[2] not in read] == []


def test_no_private_bessel_names_outside_bessel():
    # a module that reads a private name of bessel, such as its series
    # cutoff, keeps a second copy of the Bessel policy
    leaks = []
    for path in SOURCES:
        if path.name == "bessel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").rpartition(".")[2] == "bessel":
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) == "bessel"):
                names = [node.attr]
            else:
                names = []
            leaks += [f"{path.name}:{name}" for name in names
                      if name.startswith("_")]
    assert leaks == []


def test_no_unused_error_types():
    # an error type that nothing raises is a failure the package promises
    # and cannot produce; a base class is live through a raised subclass
    tree = ast.parse((ROOT / "src" / "qring" / "errors.py").read_text())
    bases = {node.name: {base.id for base in node.bases
                         if isinstance(base, ast.Name)}
             for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    live = raised.union(*(bases[name] for name in raised & bases.keys()))
    assert bases
    assert sorted(bases.keys() - live) == []


def test_only_main_maps_failures_to_exit_codes():
    # the subcommands raise; cli.main alone writes an "error: " line and
    # reads the exit codes of a failure
    tree = ast.parse((ROOT / "src" / "qring" / "cli.py").read_text())

    def sites(root):
        return [node for node in ast.walk(root)
                if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("error: "))
                or (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in ("USAGE_ERROR", "STATE_ERROR"))]

    main, = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "main"]
    inside = set(map(id, sites(main)))
    outside = [node.lineno for node in sites(tree) if id(node) not in inside]
    assert inside
    assert outside == []


def _reads(predicate):
    """(file, innermost function, node) of each node of the package that
    satisfies predicate."""
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, ast.FunctionDef)
                     else function)
            if predicate(child):
                found.append((path.name, inner, child))
            visit(child, path, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path, None)
    return found


def _identifiers(node) -> list:
    """The identifiers a node names: a variable, attribute, parameter,
    keyword, function, class or import name."""
    return [value for field in ("id", "attr", "arg", "name", "asname")
            if isinstance(value := getattr(node, field, None), str)]


def test_hbar_enters_in_one_place():
    # hbar is the CLI's unit: the library computes in units of hbar, and
    # one function of cli.py scales a printed value and names its overflow
    builds = _reads(lambda node: isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "OverflowError")
    assert {(path, fn) for path, fn, _ in builds} == {("cli.py", "_in_hbar")}
    named = _reads(lambda node: any("hbar" in name
                                    for name in _identifiers(node)))
    assert named
    assert {path for path, _, _ in named} == {"cli.py"}


def test_fast_parser_reads_only_the_declared_grammar():
    # cli._parse reads the grammar build_parser declares, not argparse
    # state that qring never sets (set_defaults, prefix_chars) or sets
    # itself (the negative-number matcher); build_parser's assignment of
    # the matcher is the one use, and TestFastParse guards the rest
    unread = {"_defaults", "prefix_chars", "_has_negative_number_optionals",
              "_negative_number_matcher"}

    def name(node):
        """The attribute an attribute node reads, or a string constant."""
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.value if isinstance(node, ast.Constant) else None

    uses = [(fn, name(node), type(getattr(node, "ctx", None)).__name__)
            for path, fn, node in _reads(lambda node: name(node) in unread)
            if path == "cli.py"]
    assert uses == [("build_parser", "_negative_number_matcher", "Store")]


def test_report_path_reads_no_numpy():
    # report's n-series is one loop in Python floats: a numpy call on a
    # length-nmax array costs more than the arithmetic it does
    guarded = {("uncertainty.py", "series_columns"), ("cli.py", "run_report")}
    defined = {(path, node.name) for path, _, node in _reads(
        lambda node: isinstance(node, ast.FunctionDef))}
    reads = {(path, fn) for path, fn, _ in _reads(
        lambda node: isinstance(node, ast.Name) and node.id == "np")}
    assert guarded <= defined
    assert ("uncertainty.py", "detect_fold_symmetry") in reads
    assert sorted(guarded & reads) == []


def test_per_n_callers_read_the_two_kernels():
    # every measured side of a bound has one home: the per-n kernels
    # observables._xy_at and _total_at, the seam kernel _seam_at, and
    # sigma_Lz in CircleState.lz_moments; a caller that reads rho_k or
    # takes the root of a cache itself holds a second copy of a formula
    callers = {("observables.py", "expect_xy"), ("observables.py", "sigma_xy"),
               ("observables.py", "mean_resultant"),
               ("observables.py", "sigma_total"),
               ("uncertainty.py", "check_ur_x"),
               ("uncertainty.py", "check_ur_y"),
               ("uncertainty.py", "check_total_ur"),
               ("uncertainty.py", "check_fujikawa"),
               ("uncertainty.py", "series_columns"),
               ("mwp.py", "verify_packet")}
    functions = [(path, node) for path, _, node in _reads(
        lambda node: isinstance(node, ast.FunctionDef))]
    reads = {(path, fn) for path, fn, _ in _reads(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ("harmonics", "item"))}
    assert callers <= {(path, fn.name) for path, fn in functions}

    def reads_cache(node, names):
        return any(getattr(sub, "attr", None) == "lz_moments"
                   or getattr(sub, "id", None) in names
                   for sub in ast.walk(node))

    # a math.sqrt whose argument reads lz_moments, directly or through a
    # name its function unpacks from it
    roots, sqrt_sites = set(), set()
    for path, fn in functions:
        names = {target.id for node in ast.walk(fn)
                 if isinstance(node, ast.Assign)
                 and reads_cache(node.value, ())
                 for target in ast.walk(node.targets[0])
                 if isinstance(target, ast.Name)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "sqrt"
                    and getattr(node.func.value, "id", None) == "math"):
                sqrt_sites.add((path, fn.name))
                if any(reads_cache(arg, names) for arg in node.args):
                    roots.add((path, fn.name))
    strays = sorted(
        [("reads rho_k", path, fn) for path, fn in reads
         if (path, fn) in callers or path in ("uncertainty.py", "mwp.py")]
        + [("root of lz_moments", path, fn) for path, fn in roots])
    assert not strays, "; ".join(" ".join(stray) for stray in strays)
    assert {("observables.py", "_xy_at"), ("observables.py", "_total_at"),
            ("observables.py", "_seam_at")} <= reads
    assert ("state.py", "lz_moments") in sqrt_sites


def test_json_writer_builds_one_encoder_per_depth():
    # JSONEncoder.encode builds a new C encoder on every call, which costs
    # more than a report's floats: cli encodes through the cached
    # encoders of _flat_encoder alone
    def named(name):
        return lambda node: (isinstance(node, ast.Call) and name in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)))

    assert [fn for path, fn, _ in _reads(named("dumps"))
            if path == "cli.py"] == []
    assert {(path, fn) for path, fn, _ in _reads(named("JSONEncoder"))} == {
        ("cli.py", "_flat_encoder")}


def _record_constructors():
    """({(file, class)} of every dataclass and NamedTuple of the package,
    [(file, class, method)] of each ``__init__`` or ``__new__`` one
    defines)."""
    def name(node):
        # dataclass, dataclass(...), dataclasses.dataclass, typing.NamedTuple
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)

    records, constructors = set(), []
    for path, _, node in _reads(lambda node: isinstance(node, ast.ClassDef)):
        if ("NamedTuple" in map(name, node.bases)
                or "dataclass" in map(name, node.decorator_list)):
            records.add((path, node.name))
            constructors += [(path, node.name, fn.name) for fn in node.body
                             if isinstance(fn, ast.FunctionDef)
                             and fn.name in ("__init__", "__new__")]
    return records, constructors


def test_records_keep_their_generated_constructor():
    # a record is its fields: a hand-written __init__ or __new__ is a
    # second constructor to keep in step with them, and every caller
    # builds the record from the fields alone
    records, constructors = _record_constructors()
    assert {("uncertainty.py", "URReport"), ("uncertainty.py", "SeriesRow"),
            ("mwp.py", "VonMisesPacket")} <= records
    assert constructors == []


def test_verdicts_decide_against_one_constant():
    # a bound is a theorem, so its verdict only asks whether the slack is
    # rounding noise: no caller passes a tolerance, and one constant of
    # uncertainty, read in _verdict alone, decides holds and saturated
    bounds = qring.uncertainty
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (bounds.check_ur_x, bounds.check_ur_y,
                         bounds.check_total_ur, bounds.check_fujikawa,
                         bounds.series_columns)}
    assert params == {"check_ur_x": ["state", "n"],
                      "check_ur_y": ["state", "n"],
                      "check_total_ur": ["state", "n"],
                      "check_fujikawa": ["state"],
                      "series_columns": ["state", "nmax"]}
    assert not hasattr(qring, "Config")
    reads = [(path, fn) for path, fn, _ in _reads(
        lambda node: isinstance(node, ast.Name) and node.id == "_VERDICT_TOL"
        and isinstance(node.ctx, ast.Load))]
    assert reads and set(reads) == {("uncertainty.py", "_verdict")}


def test_cli_writes_records_without_dataclasses():
    # the CLI writes each result as the library returns it: no field
    # walk over a dataclass converts one on the way
    tree = ast.parse((ROOT / "src" / "qring" / "cli.py").read_text())
    imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.partition(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "json" in imported
    assert "dataclasses" not in imported


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert qring.__version__ == project["version"]


def test_failing_property_test_is_reported(tmp_path):
    # a failing property test makes hypothesis import its patch writer,
    # whose import raises a third-party DeprecationWarning: under the
    # suite's warning filters the failure is reported and the run goes on
    pytest.importorskip("hypothesis")
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    # only the hypothesis plugin is loaded, which halves the run's time
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_readme_sketch_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_commands_exit_0(capsys, tmp_path, monkeypatch):
    # each `qring ...` line of the README's shell blocks, in order, in
    # process; `> file` redirects stdout to that file under tmp_path
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 10
    for argv, target in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out)
