import importlib
import importlib.util
from pathlib import Path

import treelabel

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
