import ast
import collections
import doctest
import importlib
import importlib.util
import itertools
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import treelabel
from treelabel import cli
from treelabel.intervals import IntervalAssignment

_ROOT = Path(__file__).resolve().parent.parent
_TRACING = _ROOT / "perfbench" / "tracing.py"
_PACKAGE = _ROOT / "src" / "treelabel"
_README = _ROOT / "README.md"


def test_public_names_resolve_once():
    names = treelabel.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(treelabel, name), name


def test_benchmark_tracer_targets_exist():
    # perfbench's tracer wraps each TRACED name and fails on a missing one;
    # perfbench/ lies outside the test paths, so check the names here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for dotted in tracing.TRACED:
        module_name, *path = dotted.split(".")
        owner = importlib.import_module(f"treelabel.{module_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        assert path[-1] in vars(owner), dotted


def _raises(path):
    """(name, line) of every ``raise X`` or ``raise X(...)`` in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.append((exc.id, node.lineno))
            elif isinstance(exc, ast.Attribute):
                found.append((exc.attr, node.lineno))
    return found


def _raised_names(path):
    """Names of the exceptions raised by ``raise X`` or ``raise X(...)`` in a file."""
    return {name for name, _ in _raises(path)}


def test_every_public_error_class_is_raised():
    # a public error class that no code raises is dead API
    raised = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name != "errors.py":
            raised |= _raised_names(path)
    errors = [
        name
        for name in treelabel.__all__
        if isinstance(getattr(treelabel, name), type)
        and issubclass(getattr(treelabel, name), treelabel.TreeLabelError)
        and name != "TreeLabelError"
    ]
    assert errors
    assert sorted(set(errors) - raised) == []


def test_docstring_examples_pass():
    attempted = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        name = "treelabel" if path.stem == "__init__" else f"treelabel.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    # at least TreeLabeler's and bottom_up_intervals' examples ran
    assert attempted >= 2


def test_readme_examples_run():
    # every python block of the README runs, so a removed or renamed name
    # cannot live on in the docs
    text = _README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(_README), "exec"), {})


def test_readme_shell_commands_parse():
    # every treelabel command in the README's sh blocks parses, so a removed
    # or renamed option cannot live on in the docs; nothing is run
    text = _README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE):
        for line in block.splitlines():
            lexer = shlex.shlex(line, posix=True, punctuation_chars="|")
            lexer.whitespace_split = True
            for is_pipe, words in itertools.groupby(lexer, "|".__eq__):
                argv = list(words)
                if not is_pipe and argv[0] == "treelabel":
                    commands.append(argv[1:])
    assert len(commands) >= 10
    for argv in commands:
        # a shell variable stands for a number, as the loop's leaf count does
        cli.build_parser().parse_args(["1" if word.startswith("$") else word for word in argv])


def _unused_imports(path):
    """Names a module imports but neither uses nor lists in ``__all__``.

    An import whose line carries ``# noqa: F401`` is kept on purpose (a
    name other code reads from the module) and is not reported. Only a
    literal ``__all__`` is read; one computed at import time (the
    package's, from its table of lazily loaded names) re-exports no import.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_import_is_used():
    # no linter runs here, so this stands in for pyflakes' F401
    unused = {
        path.name: names
        for path in sorted(_PACKAGE.glob("*.py"))
        if (names := _unused_imports(path))
    }
    assert unused == {}


def _private_definitions(tree):
    """Module-level ``_name``s a module assigns, defines or declares a class of."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _read_names(tree):
    """Names a module loads, reads as an attribute or imports from another."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_name_is_read():
    # a module-level private name that no module of the package reads is
    # dead code, such as a pattern left behind by a rewrite
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(_PACKAGE.glob("*.py"))
    }
    read = set().union(*map(_read_names, trees.values()))
    unread = {
        name: sorted(defined - read)
        for name, tree in trees.items()
        if (defined := _private_definitions(tree)) - read
    }
    assert unread == {}


def _concatenating_sums(path):
    """Line numbers of the calls in a file that sum from a tuple or list, like
    ``sum(parts, ())`` or ``sum(parts, start=[])``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            starts = node.args[1:] + [k.value for k in node.keywords if k.arg == "start"]
            if any(isinstance(s, (ast.Tuple, ast.List)) for s in starts):
                lines.append(node.lineno)
    return lines


def test_no_sum_concatenates_sequences():
    # sum(parts, ()) copies the whole result once per part, so it is
    # quadratic in the number of parts; extend one list in place instead
    found = {
        path.name: lines
        for path in sorted(_PACKAGE.glob("*.py"))
        if (lines := _concatenating_sums(path))
    }
    assert found == {}


def _statement_runs(path):
    """(text, file:line) of every run of three consecutive statements in a
    file whose ``ast.unparse`` text is longer than 40 characters."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if isinstance(body, list):
                for i in range(len(body) - 2):
                    text = "\n".join(map(ast.unparse, body[i:i + 3]))
                    if len(text) > 40:
                        found.append((text, f"{path.name}:{body[i].lineno}"))
    return found


def test_no_statement_run_is_written_twice():
    # a rule written out at two places can drift apart; a run of three
    # statements that occurs twice belongs in one helper both places call
    places = collections.defaultdict(list)
    for path in sorted(_PACKAGE.glob("*.py")):
        for text, place in _statement_runs(path):
            places[text].append(place)
    assert {text: found for text, found in places.items() if len(found) > 1} == {}


# Modules a cold start must not load: dataclasses costs several
# milliseconds, most of it its own imports (inspect and what inspect
# pulls in); json and statistics serve only `solve --format json` and
# `bench`, which import them when they run.
_NOT_AT_START = ("dataclasses", "inspect", "json", "statistics")

_ADDED_BY_IMPORT = """
import sys
bare = set(sys.modules)
import treelabel, treelabel.cli
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def test_cold_import_skips_heavy_modules():
    # a fresh interpreter, so that nothing this test run loaded counts; the
    # modules loaded before the import (site's included) are subtracted
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", _ADDED_BY_IMPORT],
        env=env, capture_output=True, text=True, check=True,
    )
    added = done.stdout.split()
    assert "treelabel.cli" in added
    assert [name for name in _NOT_AT_START if name in added] == []


def _fresh_python(code, *argv):
    """Run code in a fresh interpreter that imports treelabel from the sources."""
    env = dict(os.environ, PYTHONPATH=str(_PACKAGE.parent))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, check=False,
    )


# the package's submodules, each listed after every module it imports
_LAYERS = (
    "errors", "tree", "costs", "newick", "generate", "intervals", "dp", "oracle",
    "solve", "tuples", "estimator", "cli",
)

_LOADED_BY_MAIN = """
import contextlib, io, sys
import treelabel
print(" ".join(name for name in sys.modules if name.startswith("treelabel.")))
from treelabel.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code)
print(" ".join(name[len("treelabel."):] for name in sys.modules if name.startswith("treelabel.")))
"""

_NOT_FOR_ANY_SOLVE = {"estimator", "generate"}


@pytest.mark.parametrize(
    "text, argv, needed, unneeded",
    [
        # binary: interval; non-binary: median; neither needs a cost table
        ("((1,2),3);", [], {"intervals"}, {"dp", "oracle", "tuples"}),
        ("(1,(2,3,4),5);", [], {"intervals"}, {"dp", "oracle", "tuples"}),
        ("(1|2,(3|4,5|6,7|8));", ["--tuple"], {"tuples"}, {"dp", "oracle"}),
        # the table solvers run no interval phase
        ("(1,(2,3,4),5);", ["--cost", "power:2"], {"dp"}, {"intervals", "oracle", "tuples"}),
        ("((1,2),3);", ["--algorithm", "oracle"], {"oracle"}, {"dp", "tuples"}),
        # the intervals write their own dump
        ("(1,(2,3,4),5);", ["--dump", "<dump>"], {"intervals"}, {"dp", "oracle", "tuples"}),
        # a forced table solver on a Manhattan tree, too
        ("((1,2),3);", ["--algorithm", "dp"], {"dp"}, {"intervals", "oracle", "tuples"}),
    ],
)
def test_solve_loads_only_the_modules_it_runs(tmp_path, text, argv, needed, unneeded):
    # a fresh interpreter, so that nothing this test run loaded counts
    path = tmp_path / "t.nwk"
    path.write_text(text)
    dump = tmp_path / "dump.csv"
    argv = [dump if word == "<dump>" else word for word in argv]
    done = _fresh_python(_LOADED_BY_MAIN, "solve", path, *argv)
    at_import, code, loaded = done.stdout.split("\n")[:3]
    assert (at_import, code) == ("", "0"), done.stderr
    loaded = set(loaded.split())
    assert needed <= loaded
    assert loaded & (unneeded | _NOT_FOR_ANY_SOLVE) == set()
    assert dump.exists() == ("--dump" in argv)


_ATTRIBUTE_CONTRACT = """
import sys
import treelabel

layers = sys.argv[1:]
assert [name for name in sys.modules if name.startswith("treelabel.")] == []
# each submodule resolves as an attribute, imported by that access: the
# modules it imports come earlier in the layer order and are loaded already
for name in layers:
    assert f"treelabel.{name}" not in sys.modules, name
    assert getattr(treelabel, name) is sys.modules[f"treelabel.{name}"], name

for name in treelabel.__all__:
    value = getattr(treelabel, name)
    assert value is getattr(sys.modules[value.__module__], name), name
    assert name not in vars(treelabel), name  # read through, never cached

newick = sys.modules["treelabel.newick"]
original = newick.parse_newick
newick.parse_newick = patched = lambda text: None
assert treelabel.parse_newick is patched
newick.parse_newick = original
assert treelabel.parse_newick is original

star = {}
exec("from treelabel import *", star)
assert all(star[name] is getattr(treelabel, name) for name in treelabel.__all__)
assert set(treelabel.__all__) <= set(dir(treelabel))
assert set(layers) <= set(dir(treelabel))

try:
    treelabel.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_package_attributes_resolve_lazily():
    # a fresh interpreter: count_calls' undone patches leave real bindings
    # on the package, so in this process the result would hang on test order
    assert sorted(_LAYERS) == sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")
    done = _fresh_python(_ATTRIBUTE_CONTRACT, *_LAYERS)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


_TREE = treelabel.Tree(parents=(None, 0, 0), children=((1, 2), (), ()), order=(0, 1, 2))


# each record type with a factory of its fields, in declaration order
_RECORDS = [
    (treelabel.Tree, lambda: {
        "parents": (None, 0, 0), "children": ((1, 2), (), ()), "order": (0, 1, 2)}),
    (treelabel.CostFunction, lambda: {"kind": "power", "exponent": 2, "table": ()}),
    (treelabel.LeafLabeling, lambda: {"labels": [None, 3, 5], "g_min": 3, "g_max": 5}),
    (treelabel.Labeling, lambda: {"values": {0: 3, 1: 3, 2: 5}, "total_cost": 2}),
    (treelabel.CostTable, lambda: {
        "g_min": 3, "g_max": 5,
        "rows": ((2, 1, 2), (0, math.inf, math.inf), (math.inf, math.inf, 0))}),
    (treelabel.LabeledTreeDocument, lambda: {
        "tree": _TREE, "leaf_labels": treelabel.LeafLabeling([None, 3, 5], 3, 5)}),
    (treelabel.TupleTreeDocument, lambda: {
        "tree": _TREE, "leaf_labels": treelabel.TupleLeafLabeling(2, {1: (1, 2)})}),
    (treelabel.TupleLeafLabeling, lambda: {"k": 2, "labels": {1: (1, 2), 2: (3, 4)}}),
    (treelabel.OptimumSet, lambda: {
        "cost": 2, "labelings": [treelabel.Labeling(values={0: 3}, total_cost=2)],
        "truncated": False, "label_sets": [[3, 4, 5], [3], [5]]}),
    (IntervalAssignment, lambda: {"lo": [3, 3, 5], "hi": [5, 3, 5]}),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_record_contract(cls, fields):
    record = cls(**fields())
    for name, value in fields().items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record == cls(**fields())
    shown = ", ".join(f"{name}={value!r}" for name, value in fields().items())
    assert repr(record) == f"{cls.__name__}({shown})"


_CODE_LINES = _ROOT / "tools" / "code_lines.py"

_COUNTED = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line a code line


# a comment line
def join(x):
    """Function docstring."""

    return os.path.join(
        x,

        "y",
    )


class Holder:
    """Class docstring."""

    text = """a string, not a docstring"""
'''


def test_code_line_counter_definition():
    # code lines: non-blank, outside comments and docstrings; a call over
    # several lines counts each of its non-blank lines
    spec = importlib.util.spec_from_file_location("code_lines", _CODE_LINES)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    # import, def, return, x, "y", ), class, text
    assert code_lines.count_code_lines(_COUNTED) == 8
    assert code_lines.count_code_lines("") == 0


def test_missing_node_label_raised_in_one_place():
    # every reader of a full labeling goes through costs.node_values
    sites = [
        path.name
        for path in sorted(_PACKAGE.glob("*.py"))
        for name, _ in _raises(path)
        if name == "MissingNodeLabel"
    ]
    assert sites == ["costs.py"]


def _callers(path, called):
    """The qualified name of the function around each call of ``called`` in a file."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == called:
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_python_labels_read_in_one_place():
    # a leaf mapping and a full labeling are both read by costs.exact_labels;
    # as_int's only other caller reads a cost table
    sites = {
        caller for path in sorted(_PACKAGE.glob("*.py")) for caller in _callers(path, "as_int")
    }
    assert sites == {"costs.exact_labels", "costs._exact_tuple", "costs.CostFunction.from_table"}


def test_leaf_name_texts_checked_by_one_pattern():
    # both parsers hold a name, or a k-tuple's component, to _INT_NAME
    source = (_PACKAGE / "newick.py").read_text(encoding="utf-8")
    patterns = [
        ast.get_source_segment(source, node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"
    ]
    assert [p for p in patterns if "0-9" in p] == ['re.compile(r"[+-]?[0-9]+", re.ASCII)']


def test_solver_groups_named_in_one_place():
    # which solvers build a cost table and which build intervals is said
    # only in solve.py; every other module tells the up phase by its type
    groups = {"TABLE_ALGORITHMS", "INTERVAL_ALGORITHMS"}
    sites = [
        path.name
        for path in sorted(_PACKAGE.glob("*.py"))
        if groups & _read_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == ["solve.py"]


def _package_imports(path):
    """(module, source line) of every import of a treelabel module in a file."""
    source = path.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                modules = [node.module] if node.module else [a.name for a in node.names]
            elif node.module and node.module.startswith("treelabel."):
                modules = [node.module[len("treelabel."):]]
            elif node.module == "treelabel":
                modules = [a.name for a in node.names]
            else:
                continue
        elif isinstance(node, ast.Import):
            modules = [
                a.name[len("treelabel."):] for a in node.names if a.name.startswith("treelabel.")
            ]
        else:
            continue
        line = ast.get_source_segment(source, node).splitlines()[0]
        found += [(module.split(".")[0], line) for module in modules]
    return found


def test_data_modules_import_no_solver():
    # the tree, its labelings and costs, Newick text and random instances
    # are the problem's data: the solvers and front ends build on them,
    # never the other way round
    above = {"dp", "intervals", "oracle", "solve", "tuples", "estimator", "cli"}
    upward = [
        f"{name}: {line}"
        for name in ("tree.py", "costs.py", "newick.py", "generate.py")
        for module, line in _package_imports(_PACKAGE / name)
        if module in above
    ]
    assert upward == []
