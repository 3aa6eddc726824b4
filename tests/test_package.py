import ast
import doctest
import importlib
import importlib.util
from pathlib import Path

import treelabel

_ROOT = Path(__file__).resolve().parent.parent
_TRACING = _ROOT / "perfbench" / "tracing.py"
_PACKAGE = _ROOT / "src" / "treelabel"


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


def _raised_names(path):
    """Names of the exceptions raised by ``raise X`` or ``raise X(...)`` in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


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


def _unused_imports(path):
    """Names a module imports but neither uses nor lists in ``__all__``.

    An import whose line carries ``# noqa: F401`` is kept on purpose (a
    name other code reads from the module) and is not reported.
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
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
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
