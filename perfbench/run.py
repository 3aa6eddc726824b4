"""treelabel benchmark: seeded workloads timed through the library and the CLI.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, one report each
    python3 perfbench/run.py --workload nary-power2 --seed 3 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload:

  lib_s         one library operation in this (warm) interpreter, from Newick
                text in memory to labeled Newick text
  cli_s         one ``treelabel solve`` child process (``python -m
                treelabel.cli`` with PYTHONPATH=src), stdout captured: start,
                import, read, solve and print
  setup_s       ``import treelabel`` plus reading the input file, timed inside
                a fresh interpreter
  peak_rss_mib  median ru_maxrss of the CLI children
  fail_ratio    failed/attempted operations (the ``failed`` and ``attempted``
                fields of the result line)

The three times are calibrated wall times. The machines this runs on are
shared, and their speed drifts by 20% or more within a minute, so the
median of one run says as much about the neighbours as about the program.
A fixed unit of the benchmark's own work (``calibrate``) is therefore timed
between the operations, and each time is reported as
``mean(operation) / mean(calibration) * REFERENCE_S``: seconds on a machine
where that unit takes REFERENCE_S. The raw median is printed alongside.

``--trace 1`` wraps the public functions of each treelabel module (see
tracing.py) and reports ``<module>.<function>.self_s`` and ``.calls`` per
library operation (medians), ``cli.main`` from in-process CLI calls,
``trace.overhead_s`` (traced minus untraced operation, median over adjacent
pairs) and ``trace.unattributed_s`` (operation time outside every traced
call). Traced times are raw wall times.

The load is closed-loop: one client, one operation at a time, CLI children
one after another, library and CLI operations alternating. The process and
its children are pinned to one CPU, so that calibration and operations share
it. Every output is checked outside the timed interval (checks.py). An
operation that completes with a wrong answer is timed and counted as failed;
one that raises or exits non-zero gives no time. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from checks import Reference, check_output, parse_tree, sha256_text
from tracing import TRACED, Tracer
from workloads import BY_NAME, WORKLOADS, Workload, generate_newick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = Path(__file__).with_name("golden.json")

MIN_ROUNDS = 3  # timed operations of each kind per run, at the least
SETUP_SAMPLES = 15  # fresh interpreters timed for setup_s, after one warm-up
CALIBRATIONS = 3  # calibration units timed between two operations
REFERENCE_S = 0.010  # nominal seconds of one calibration unit

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import treelabel\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    fh.read()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# Parsing plus integer arithmetic, like the program's own mix of work.
_CALIBRATION_TEXT = "(" + ",".join(f"({i},{i + 7})" for i in range(3000)) + ");"


def calibrate() -> float:
    """Seconds taken by one fixed unit of the benchmark's own work."""
    start = perf_counter()
    parse_tree(_CALIBRATION_TEXT)
    acc = 0
    for i in range(60_000):
        acc += (i * 7) % 13
    return perf_counter() - start


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    samples: int
    detail: str = ""


class Clock:
    """Calibration samples taken between the operations of one phase."""

    def __init__(self) -> None:
        self.units: list = []

    def tick(self) -> float:
        for _ in range(CALIBRATIONS):
            self.units.append(calibrate())
        return 0.0  # calibration is not part of the measured seconds

    def metric(self, samples: list) -> Metric:
        if not samples:
            raise SystemExit("error: no successful operation to measure")
        unit = statistics.fmean(self.units)
        return Metric(
            statistics.fmean(samples) / unit * REFERENCE_S, "s", len(samples),
            f"raw median {statistics.median(samples):.6g} s, "
            f"calibration unit {unit:.6g} s over {len(self.units)}",
        )


# ------------------------------------------------------------------ #
# instances and operations                                            #
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class Instance:
    workload: Workload
    seed: int
    text: str
    path: Path
    ref: Reference
    golden: Optional[str]  # sha256 of the recorded answer, when this seed has one


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def make_instance(tl, workload: Workload, seed: int, golden: dict) -> Instance:
    text = generate_newick(tl, workload, seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}.nwk"
    path.write_text(text + "\n", encoding="utf-8")
    return Instance(
        workload=workload,
        seed=seed,
        text=text,
        path=path,
        ref=Reference.from_input(text, workload.k, workload.cost),
        golden=golden.get(workload.name, {}).get(str(seed)),
    )


def lib_op(tl, inst: Instance) -> tuple:
    """One library operation: (labeled Newick text, reported cost).

    Scalar workloads go through the estimator; the tuple workload through
    the k-tuple functions, since the estimator has no tuple mode. Names are
    looked up on the package at call time so that traced runs see wrappers.
    """
    w = inst.workload
    if w.tuple_mode:
        doc = tl.parse_newick_tuples(inst.text)
        result = tl.solve_ktuple(doc.tree, doc.leaf_labels, tl.CostFunction.from_spec(w.cost))
        return tl.serialize_tuple_labeled(doc, result), result.total_cost
    labeler = tl.TreeLabeler(cost=w.cost).fit(inst.text)
    return labeler.to_newick(), labeler.cost_


def cli_args(inst: Instance) -> list:
    args = ["solve", str(inst.path), "--cost", inst.workload.cost]
    return args + ["--tuple"] if inst.workload.tuple_mode else args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list) -> tuple:
    """Run one child to completion: (seconds, exit code, stdout, ru_maxrss KiB, stderr)."""
    err_path = OUT / "child.stderr"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return elapsed, proc.returncode, out, usage.ru_maxrss, err_path.read_text(errors="replace")


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, reason: Optional[str]) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return reason is None


class Checker:
    """check_output, computed once per distinct (output, cost) pair."""

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self._verdicts: dict = {}

    def __call__(self, text: str, cost) -> Optional[str]:
        if cost is None:
            return "no library cost to compare the output with"
        key = (sha256_text(text), cost)
        if key not in self._verdicts:
            self._verdicts[key] = check_output(self.inst.ref, text, cost, self.inst.golden)
        return self._verdicts[key]


def round_robin(steps: list, seconds: float, tally: Tally) -> None:
    """Run the steps in turn until ``seconds`` of timed work is done.

    Each step returns the seconds it spent in its timed interval. At least
    MIN_ROUNDS rounds run; once an operation has failed, no more than that.
    """
    measured = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or (measured < seconds and not tally.failed):
        for step in steps:
            measured += step()
        rounds += 1


class Session:
    """One workload instance with its checker, tally and timing steps."""

    def __init__(self, tl, inst: Instance) -> None:
        self.tl = tl
        self.inst = inst
        self.check = Checker(inst)
        self.tally = Tally()
        self.lib_cost = None
        self.lib_text = None

    def lib(self, times: list, tracer: Optional[Tracer] = None) -> float:
        start = perf_counter()
        try:
            with tracer.operation("lib") if tracer else contextlib.nullcontext():
                text, cost = lib_op(self.tl, self.inst)
        except Exception as exc:  # a raising operation is counted, not fatal
            self.tally.record(f"library raised {type(exc).__name__}: {exc}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        times.append(elapsed)
        reason = self.check(text, cost)
        if reason is None and self.lib_text is not None and text != self.lib_text:
            reason = "output differs from the first library output of this run"
        if self.tally.record(reason) and self.lib_text is None:
            self.lib_text, self.lib_cost = text, cost
        return elapsed

    def cli(self, times: list, rss: list) -> float:
        argv = [sys.executable, "-m", "treelabel.cli"] + cli_args(self.inst)
        elapsed, code, out, maxrss, err = run_child(argv)
        if code != 0:
            self.tally.record(f"treelabel solve exited {code}: {err.strip()[-300:]}")
            return elapsed
        times.append(elapsed)
        rss.append(maxrss / 1024)
        self.tally.record(self._check_cli_stdout(out.decode("utf-8", errors="replace")))
        return elapsed

    def cli_in_process(self, tracer: Tracer) -> float:
        buf = io.StringIO()
        start = perf_counter()
        try:
            with tracer.operation("cli"), contextlib.redirect_stdout(buf):
                code = self.tl.cli.main(cli_args(self.inst))
        except Exception as exc:  # a raising operation is counted, not fatal
            self.tally.record(f"cli.main raised {type(exc).__name__}: {exc}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        self.tally.record(
            f"cli.main returned {code}" if code != 0 else self._check_cli_stdout(buf.getvalue()))
        return elapsed

    def _check_cli_stdout(self, out: str) -> Optional[str]:
        if not out.endswith("\n") or out.count("\n") != 1:
            return "CLI output is not one newline-terminated line"
        return self.check(out[:-1], self.lib_cost)

    def setup(self, times: list) -> float:
        argv = [sys.executable, "-c", SETUP_CODE, str(self.inst.path)]
        elapsed, code, out, _, err = run_child(argv)
        if self.tally.record(None if code == 0 else f"import child exited {code}: {err.strip()[-300:]}"):
            times.append(float(out))
        return elapsed


# ------------------------------------------------------------------ #
# the two kinds of run                                                #
# ------------------------------------------------------------------ #

def end_to_end(session: Session, seconds: float) -> dict:
    """The end-to-end metrics, by name."""
    session.setup([])  # warm-up: the first child also compiles bytecode
    setup_clock, setup = Clock(), []
    for _ in range(SETUP_SAMPLES):
        setup_clock.tick()
        session.setup(setup)
    setup_clock.tick()

    session.lib([])  # warm-up, untimed: fills caches and gives the reference cost
    session.cli([], [])
    clock = Clock()
    lib_s: list = []
    cli_s: list = []
    rss: list = []
    round_robin(
        [clock.tick, lambda: session.lib(lib_s), clock.tick, lambda: session.cli(cli_s, rss)],
        seconds,
        session.tally,
    )
    clock.tick()
    return {
        "lib_s": clock.metric(lib_s),
        "cli_s": clock.metric(cli_s),
        "setup_s": setup_clock.metric(setup),
        "peak_rss_mib": Metric(statistics.median(rss), "MiB", len(rss), "median"),
    }


def traced(session: Session, seconds: float) -> tuple:
    """The per-layer metrics by name, and the tracer that measured them.

    Untraced and traced library operations alternate, so both see the same
    machine; the wrappers are removed, and checked to be gone, before every
    untraced one. In-process CLI calls follow, traced.
    """
    session.lib([])  # warm-up, untimed
    tracer = Tracer()
    overheads: list = []  # traced minus untraced time, per adjacent pair

    def pair_step() -> float:
        tracer.assert_restored()
        untraced: list = []
        spent = session.lib(untraced)
        tracer.install()
        try:
            with_trace: list = []
            spent += session.lib(with_trace, tracer)
        finally:
            tracer.uninstall()
        if untraced and with_trace:
            overheads.append(with_trace[0] - untraced[0])
        return spent

    round_robin([pair_step], seconds * 2 / 3, session.tally)
    tracer.install()
    try:
        round_robin([lambda: session.cli_in_process(tracer)], seconds / 3, session.tally)
    finally:
        tracer.uninstall()
    tracer.assert_restored()

    ops = tracer.per_operation()
    lib_ops = [table for kind, _, table in ops if kind == "lib"]
    cli_ops = [table for kind, _, table in ops if kind == "cli"]
    if not overheads or not cli_ops:
        raise SystemExit("error: no successful operation to measure")
    metrics = {}
    for name in TRACED:
        tables = cli_ops if name == "cli.main" else lib_ops
        own = [table.get(name, (0.0, 0)) for table in tables]
        metrics[f"{name}.self_s"] = Metric(statistics.median(s for s, _ in own), "s", len(own))
        metrics[f"{name}.calls"] = Metric(statistics.median_low(c for _, c in own), "count", len(own))
    metrics["trace.overhead_s"] = Metric(statistics.median(overheads), "s", len(overheads))
    metrics["trace.unattributed_s"] = Metric(
        statistics.median(table["lib"][0] for table in lib_ops), "s", len(lib_ops))
    return metrics, tracer


# ------------------------------------------------------------------ #
# reporting and entry point                                           #
# ------------------------------------------------------------------ #

def report(inst: Instance, session: Session, metrics: dict, tracer: Optional[Tracer]) -> None:
    w = inst.workload
    print(f"[{w.name} seed={inst.seed}] {len(inst.ref.tree.parents)} nodes, cost {w.cost}"
          f"{f', k={w.k}' if w.k else ''}; closed loop, one client, one operation at a time")
    for name, m in metrics.items():
        print(f"  {name:<40} {m.value:>12.6g} {m.unit:<6} n={m.samples:<4} {m.detail}")
    t = session.tally
    print(f"  {'fail_ratio':<40} {t.failed}/{t.attempted} failed/attempted")
    for reason in t.reasons:
        print(f"  failure: {reason}")
    if tracer is not None:
        shares = [table[kind][0] / duration for kind, duration, table in tracer.per_operation()]
        print(f"  unattributed time: at most {max(shares):.2%} of an operation")


def run_workload(tl, workload: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    inst = make_instance(tl, workload, seed, load_golden())
    session = Session(tl, inst)
    tracer = None
    if trace:
        metrics, tracer = traced(session, seconds)
        with open(OUT / f"spans-{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.as_records(), fh)
    else:
        metrics = end_to_end(session, seconds)
    report(inst, session, metrics, tracer)
    return session.tally, metrics


def import_treelabel():
    sys.path.insert(0, str(SRC))
    import treelabel
    import treelabel.cli  # noqa: F401  (loaded before tracing, so it is wrapped too)

    return treelabel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all"] + list(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    if not (SRC / "treelabel" / "__init__.py").is_file():
        print(f"error: no treelabel sources under {SRC}", file=sys.stderr)
        return 2
    tl = import_treelabel()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    chosen = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    attempted = failed = 0
    result_metrics = {}
    for workload in chosen:
        tally, metrics = run_workload(tl, workload, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{workload.name}." if len(chosen) > 1 else ""
        for name, m in metrics.items():
            result_metrics[prefix + name] = {"value": m.value, "unit": m.unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
