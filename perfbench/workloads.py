"""The benchmark's workloads and their seeded input generator.

Each workload is one Newick instance drawn from the seed. The program under
test only ever sees that text: the generator runs at set-up time, outside
every timed interval, and the same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Workload:
    """One seeded instance shape and the reason it is in the benchmark."""

    name: str
    n_leaves: int
    arity: Union[str, int]  # "binary" or the maximum child count
    label_hi: int  # leaf labels (tuple components) drawn from [0, label_hi]
    cost: str  # the --cost spec handed to the program
    k: int  # tuple length; 0 for a scalar instance
    why: str

    @property
    def tuple_mode(self) -> bool:
        return self.k > 0


WORKLOADS = (
    # The paper's linear path: auto picks the interval solver, so the time
    # sits in newick/tree/intervals and none in dp. It shows parse and
    # tree-core changes and is the no-change check for dp-side changes.
    Workload(
        name="binary-manhattan-large",
        n_leaves=25_000,
        arity="binary",
        label_hi=999,
        cost="manhattan",
        k=0,
        why="~50k-node binary tree, manhattan: auto picks interval, time is in "
        "parse/tree/intervals and none in dp",
    ),
    # dp_up does about 95% of the work and TreeLabeler.fit runs it twice. It
    # shows up-phase and duplicate-work changes and bypasses parsing cost and
    # the Manhattan-only interval rule.
    Workload(
        name="nary-power2",
        n_leaves=1_000,
        arity=4,
        label_hi=63,
        cost="power:2",
        k=0,
        why="~1.6k-node arity 2-4 tree, power:2, m=64: auto picks dp, the up "
        "phase dominates and fit runs it twice",
    ),
    # k scalar dp solves on one shared topology with different leaf labels
    # and no estimator: repeated per-coordinate work in tree/costs/solve, and
    # the non-binary Manhattan path.
    Workload(
        name="ktuple-nary-manhattan",
        n_leaves=500,
        arity=4,
        label_hi=31,
        cost="manhattan",
        k=8,
        why="~800-node arity 2-4 tree, 8-tuples in [0,31], manhattan: dp runs "
        "once per coordinate on one topology",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def generate_newick(tl, workload: Workload, seed: int) -> str:
    """The workload's input for ``seed``, as Newick text.

    ``tl`` is the imported treelabel package; its generator and serializer
    build the instance. The seed is mixed with the workload name so that
    workloads sharing a seed still draw independent instances.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    if not workload.tuple_mode:
        doc = tl.random_document(
            workload.n_leaves, 0, workload.label_hi, rng, arity=workload.arity
        )
        return tl.document_to_newick(doc)
    tree = tl.random_topology(workload.n_leaves, rng, arity=workload.arity)
    leaves = tree.leaves()
    labels = {
        v: tuple(sorted(rng.randint(0, workload.label_hi) for _ in range(workload.k)))
        for v in leaves
    }
    # Two leaves carry the extreme tuples, so that every coordinate spans
    # [0, label_hi] and the dp work per coordinate does not vary with the seed.
    labels[leaves[0]] = (0,) * workload.k
    labels[leaves[-1]] = (workload.label_hi,) * workload.k
    doc = tl.TupleTreeDocument(
        tree=tree, leaf_labels=tl.TupleLeafLabeling.for_tree(tree, labels)
    )
    return tl.document_to_newick(doc)
