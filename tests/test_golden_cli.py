"""Byte identity of the command line against the corpus in golden_cli.json.

tools/golden_cli.py defines the cases and records the corpus; see its
docstring for what the cases cover and when to record. The corpus replays
``cli.main`` in-process; a few of its cases also run through a fresh
``python -m treelabel.cli``, so that the entry point, its exit code and
the streams flushed at exit are pinned too.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_cli", _ROOT / "tools" / "golden_cli.py")
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)


def test_every_case_replays_byte_for_byte(monkeypatch, tmp_path):
    monkeypatch.setenv("TREELABEL_BUDGET", golden_cli.BUDGET)
    assert golden_cli.moved(tmp_path) == []


# one case of each way a process ends: a solve in each output, a dump, a
# tuple solve, a parse error (exit 1) and a solver precondition (exit 2)
_PROCESS_CASES = (
    "binary.0 solve manhattan auto lowest newick",
    "binary.0 solve power:2 convex lowest json",
    "binary.0 solve power:2 dp --dump",
    "triples solve --tuple manhattan auto lowest newick",
    "letters solve -",
    "binary.0 solve power:2 interval lowest newick",
)


@pytest.fixture(scope="module")
def corpus():
    """(recorded sha256s by name, (stdin, argv) of every case by name)."""
    recorded = json.loads(golden_cli.GOLDEN.read_text(encoding="utf-8"))
    return recorded, {name: (stdin, argv) for name, stdin, argv in golden_cli.cases()}


@pytest.mark.parametrize("name", _PROCESS_CASES)
def test_named_case_replays_through_a_fresh_process(corpus, tmp_path, name):
    recorded, cases = corpus
    stdin, argv = cases[name]
    dump = tmp_path / "dump.csv"
    argv = [str(dump) if word == golden_cli.DUMP else word for word in argv]
    env = dict(
        os.environ,
        PYTHONPATH=str(_ROOT / "src"),
        PYTHONIOENCODING="utf-8",
        TREELABEL_BUDGET=golden_cli.BUDGET,
    )
    done = subprocess.run(
        [sys.executable, "-m", "treelabel.cli", *argv],
        input=stdin.encode("utf-8"), capture_output=True, env=env, check=False,
    )
    out, err = done.stdout.decode("utf-8"), done.stderr.decode("utf-8")
    assert golden_cli.digest(done.returncode, out, err, dump) == recorded[name], (out, err)
