"""Self-tests of the benchmark, at tiny scale.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import Reference, check_output, sha256_text
from tracing import Tracer
from workloads import WORKLOADS

BENCHMARK = Path(run.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def tl():
    return run.import_treelabel()


def tiny_session(tl, workload, seed=7):
    small = dataclasses.replace(workload, name=f"{workload.name}-tiny", n_leaves=40)
    return run.Session(tl, run.make_instance(tl, small, seed, {}))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_library_and_cli_pass_the_output_check(tl, workload):
    session = tiny_session(tl, workload)
    metrics = run.end_to_end(session, seconds=0)
    assert session.tally.failed == 0, session.tally.reasons
    assert session.tally.attempted >= 2 * (run.MIN_ROUNDS + 1) + run.SETUP_SAMPLES
    assert set(metrics) == {m["name"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    assert all(m.value > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_traced_run_is_byte_identical_and_unwraps(tl, workload):
    originals = {
        "dp.dp_up": tl.dp.dp_up,
        "estimator.dp_up": tl.estimator.dp_up,
        "TreeLabeler.fit": vars(tl.TreeLabeler)["fit"],
        "LeafLabeling.for_tree": vars(tl.LeafLabeling)["for_tree"],
        "cli.main": tl.cli.main,
    }
    session = tiny_session(tl, workload)
    untraced_text, _ = run.lib_op(tl, session.inst)

    metrics, tracer = run.traced(session, seconds=0)

    assert session.tally.failed == 0, session.tally.reasons
    assert session.lib_text == untraced_text
    assert tl.dp.dp_up is originals["dp.dp_up"]
    assert tl.estimator.dp_up is originals["estimator.dp_up"]
    assert vars(tl.TreeLabeler)["fit"] is originals["TreeLabeler.fit"]
    assert vars(tl.LeafLabeling)["for_tree"] is originals["LeafLabeling.for_tree"]
    assert tl.cli.main is originals["cli.main"]
    tracer.assert_restored()
    assert set(metrics) == {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


def test_traced_calls_reach_every_binding(tl):
    session = tiny_session(tl, WORKLOADS[1])  # nary-power2: fit runs dp_up twice
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("lib"):
            traced_text, _ = run.lib_op(tl, session.inst)
    finally:
        tracer.uninstall()
    (kind, _, table), = tracer.per_operation()
    assert table["dp.dp_up"][1] == 2
    assert table["estimator.TreeLabeler.fit"][1] == 1
    assert traced_text == run.lib_op(tl, session.inst)[0]


def test_a_left_over_wrapper_is_detected(tl):
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="still wrapped"):
            tracer.assert_restored()
    finally:
        tracer.uninstall()
    tracer.assert_restored()


def test_corrupted_output_counts_as_failure(tl, monkeypatch):
    session = tiny_session(tl, WORKLOADS[0])
    text, cost = run.lib_op(tl, session.inst)

    def corrupted(tl_, inst):
        # the first name in the text is a leaf; an answer must keep leaf labels
        return re.sub(r"[0-9]+", lambda m: str(int(m.group()) + 1), text, count=1), cost

    monkeypatch.setattr(run, "lib_op", corrupted)
    times: list = []
    session.lib(times)
    assert (session.tally.attempted, session.tally.failed, len(times)) == (1, 1, 1)


def test_check_output_rejects_each_kind_of_wrong_answer():
    ref = Reference.from_input("((1,5),9);", 0, "manhattan")
    good = "((1,5)5,9)5;"
    assert check_output(ref, good, 8) is None
    assert check_output(ref, good, 8, golden=sha256_text(good)) is None
    assert "recorded answer" in check_output(ref, good, 8, golden=sha256_text("x"))
    assert "edge sum" in check_output(ref, good, 7)
    assert "range" in check_output(ref, "((1,5)0,9)5;", 14)
    assert "topology" in check_output(ref, "(1,5,9)5;", 8)
    assert "leaf" in check_output(ref, "((1,6)5,9)5;", 8)
    assert "unreadable" in check_output(ref, "((1,5)5,9)5", 8)
    assert "unreadable" in check_output(ref, "((1,5)5_0,9)5;", 8)
    tuples = Reference.from_input("((1|2,5|5),3|9);", 2, "manhattan")
    assert check_output(tuples, "((1|2,5|5)1|5,3|9)3|5;", 13) is None
    assert "decreases" in check_output(tuples, "((1|2,5|5)3|2,3|9)3|5;", 13)


def test_benchmark_json_lists_the_workloads():
    spec = json.loads(BENCHMARK.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nary-power2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
