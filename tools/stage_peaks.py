"""Tracemalloc peaks of the solves of perfbench's inputs, stage by stage.

    PYTHONPATH=src python tools/stage_peaks.py [--seed N]

For each input below it runs its library operation once to warm up and
once traced. It then runs the operation's stages one by one under one
trace, each with the results of the earlier ones alive, as in the
operation. A peak counts from what was alive before the operation, and
held is what is alive after the stage; both are in MiB of Python
objects. The last column is the sha256 of the printed text.

The first three inputs are binary trees of 25,000 leaves. Their
operation is TreeLabeler().fit(text).to_newick(), the library operation
of perfbench's binary-manhattan-large workload, solved by the interval
solver; its stages are parse (parse_newick), up (bottom_up_intervals),
down (top_down_labels) and print (serialize_labeled):

  binary-manhattan-large  perfbench's input for the seed: 1,000 label values
  all-distinct            random_document(25000, 0, 10**12, random.Random(5)):
                          no two leaf labels are equal
  wide-range              the tree of random_document(25000, 0, 9,
                          random.Random(5)) with each label x made x * 10**11:
                          ten labels spread over [0, 9 * 10**11]

The next is perfbench's input of the nary-power2 workload for the seed,
about 1,600 nodes of arity 2-4 and 64 label values. Its operation is the
same library call with cost="power:2", solved by the convex solver; its
stages are parse (parse_newick), up (convex_up), down (convex_down) and
print (serialize_labeled).

The last is perfbench's input of the ktuple-nary-manhattan workload for
the seed, about 800 nodes with 8-tuple leaf labels. Its operation is
perfbench's: parse (parse_newick_tuples), solve (solve_ktuple) and print
(serialize_tuple_labeled).

perfbench/workloads.py is imported from its directory with bytecode
writing off, so nothing is written there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import random
import sys
import tracemalloc
from pathlib import Path

import treelabel as tl

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """perfbench/workloads.py, imported from its directory."""
    sys.dont_write_bytecode = True
    if str(_PERFBENCH) not in sys.path:
        sys.path.insert(0, str(_PERFBENCH))
    import workloads

    return workloads


def _benchmark_text(name: str, seed: int) -> str:
    workloads = _workloads()
    return workloads.generate_newick(tl, workloads.BY_NAME[name], seed)


def _wide_range_text() -> str:
    doc = tl.random_document(25000, 0, 9, random.Random(5))
    labels = {v: doc.leaf_labels.labels[v] * 10**11 for v in doc.tree.leaves()}
    leaf_labels = tl.LeafLabeling.for_tree(doc.tree, labels)
    return tl.document_to_newick(doc._replace(leaf_labels=leaf_labels))


def _scalar(text: str) -> tuple:
    """The operation and stages of the Manhattan solve of scalar ``text``."""
    return lambda: tl.TreeLabeler().fit(text).to_newick(), [
        ("parse", lambda: tl.parse_newick(text)),
        ("up", lambda doc: tl.bottom_up_intervals(doc.tree, doc.leaf_labels)),
        ("down", lambda doc, iv: tl.top_down_labels(doc.tree, iv)),
        ("print", lambda doc, iv, labeling: tl.serialize_labeled(doc, labeling)),
    ]


def _convex(text: str, spec: str) -> tuple:
    """The operation and stages of the convex solve of scalar ``text`` under ``spec``."""
    cost = tl.CostFunction.from_spec(spec)
    return lambda: tl.TreeLabeler(cost=spec).fit(text).to_newick(), [
        ("parse", lambda: tl.parse_newick(text)),
        ("up", lambda doc: tl.convex_up(doc.tree, doc.leaf_labels, cost)),
        ("down", lambda doc, table: tl.convex_down(doc.tree, table, cost)),
        ("print", lambda doc, table, labeling: tl.serialize_labeled(doc, labeling)),
    ]


def _ktuple(text: str, cost: tl.CostFunction) -> tuple:
    """The operation and stages of the k-tuple solve of ``text``."""

    def operation():
        doc = tl.parse_newick_tuples(text)
        return tl.serialize_tuple_labeled(doc, tl.solve_ktuple(doc.tree, doc.leaf_labels, cost))

    return operation, [
        ("parse", lambda: tl.parse_newick_tuples(text)),
        ("solve", lambda doc: tl.solve_ktuple(doc.tree, doc.leaf_labels, cost)),
        ("print", lambda doc, labeling: tl.serialize_tuple_labeled(doc, labeling)),
    ]


def inputs(seed: int) -> dict[str, tuple]:
    """The operation and the stages of each input, by name."""
    power2 = _workloads().BY_NAME["nary-power2"]
    ktuple = _workloads().BY_NAME["ktuple-nary-manhattan"]
    return {
        "binary-manhattan-large": _scalar(_benchmark_text("binary-manhattan-large", seed)),
        "all-distinct": _scalar(tl.document_to_newick(
            tl.random_document(25000, 0, 10**12, random.Random(5))
        )),
        "wide-range": _scalar(_wide_range_text()),
        power2.name: _convex(_benchmark_text(power2.name, seed), power2.cost),
        ktuple.name: _ktuple(
            _benchmark_text(ktuple.name, seed), tl.CostFunction.from_spec(ktuple.cost)
        ),
    }


def _traced(stages):
    """(name, peak, held) in bytes of each (name, thunk) run under one trace."""
    gc.collect()
    rows, results = [], []  # the results stay alive until every stage has run
    tracemalloc.start()
    try:
        for name, run in stages:
            tracemalloc.reset_peak()
            results.append(run(*results))
            held, peak = tracemalloc.get_traced_memory()
            rows.append((name, peak, held))
    finally:
        tracemalloc.stop()
    return rows, results[-1]


def measure(operation, stages) -> tuple[list, str]:
    """The rows of the operation and of its stages, and the printed text."""
    operation()  # warm-up
    rows, printed = _traced([("operation", operation)])
    stage_rows, staged = _traced(stages)
    if staged != printed:
        raise AssertionError("the stages printed another text than the operation")
    return rows + stage_rows, printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="perfbench seed (default 0)")
    args = parser.parse_args(argv)
    print("input,stage,peak_mib,held_mib,sha256")
    for name, (operation, stages) in inputs(args.seed).items():
        rows, printed = measure(operation, stages)
        digest = hashlib.sha256(printed.encode()).hexdigest()
        for stage, peak, held in rows:
            print(f"{name},{stage},{peak / 2**20:.3f},{held / 2**20:.3f},{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
