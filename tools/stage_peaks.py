"""Tracemalloc peaks of the Manhattan solve of a large tree, stage by stage.

    PYTHONPATH=src python tools/stage_peaks.py [--seed N]

For each input below it runs TreeLabeler().fit(text).to_newick(), the
library operation of perfbench's binary-manhattan-large workload, once
to warm up and once traced. It then runs the operation's four stages one
by one under one trace, each with the results of the earlier ones
alive, as in the operation: parse (parse_newick), up
(bottom_up_intervals), down (top_down_labels) and print
(serialize_labeled). A peak counts from what was alive before the
operation, and held is what is alive after the stage; both are in MiB of
Python objects. The last column is the sha256 of the printed text.

The inputs are binary trees of 25,000 leaves, solved by the interval
solver with Manhattan cost:

  binary-manhattan-large  perfbench's input for the seed: 1,000 label values
  all-distinct            random_document(25000, 0, 10**12, random.Random(5)):
                          no two leaf labels are equal
  wide-range              the tree of random_document(25000, 0, 9,
                          random.Random(5)) with each label x made x * 10**11:
                          ten labels spread over [0, 9 * 10**11]

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


def _benchmark_text(seed: int) -> str:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(_PERFBENCH))
    import workloads

    return workloads.generate_newick(tl, workloads.BY_NAME["binary-manhattan-large"], seed)


def _wide_range_text() -> str:
    doc = tl.random_document(25000, 0, 9, random.Random(5))
    labels = {v: doc.leaf_labels.labels[v] * 10**11 for v in doc.tree.leaves()}
    leaf_labels = tl.LeafLabeling.for_tree(doc.tree, labels)
    return tl.document_to_newick(doc._replace(leaf_labels=leaf_labels))


def inputs(seed: int) -> dict[str, str]:
    """The Newick text of each input, by name."""
    return {
        "binary-manhattan-large": _benchmark_text(seed),
        "all-distinct": tl.document_to_newick(
            tl.random_document(25000, 0, 10**12, random.Random(5))
        ),
        "wide-range": _wide_range_text(),
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


def measure(text: str) -> tuple[list, str]:
    """The rows of the operation and of its stages, and the printed text."""
    tl.TreeLabeler().fit(text).to_newick()  # warm-up
    rows, printed = _traced([("operation", lambda: tl.TreeLabeler().fit(text).to_newick())])
    stage_rows, staged = _traced([
        ("parse", lambda: tl.parse_newick(text)),
        ("up", lambda doc: tl.bottom_up_intervals(doc.tree, doc.leaf_labels)),
        ("down", lambda doc, iv: tl.top_down_labels(doc.tree, iv)),
        ("print", lambda doc, iv, labeling: tl.serialize_labeled(doc, labeling)),
    ])
    if staged != printed:
        raise AssertionError("the stages printed another text than the operation")
    return rows + stage_rows, printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="perfbench seed (default 0)")
    args = parser.parse_args(argv)
    print("input,stage,peak_mib,held_mib,sha256")
    for name, text in inputs(args.seed).items():
        rows, printed = measure(text)
        digest = hashlib.sha256(printed.encode()).hexdigest()
        for stage, peak, held in rows:
            print(f"{name},{stage},{peak / 2**20:.3f},{held / 2**20:.3f},{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
