"""Exhaustive brute-force minimizer: the ground truth for everything else.

Enumerates every assignment of internal-node labels over the box
[g_min, g_max] ^ (#internal nodes), evaluates each one from scratch and
keeps the minimum. Restricting to the box is safe because every optimal
label lies in [g_min, g_max]. No pruning, no incremental tricks: this
code must stay obviously correct, it is what the real solvers are judged
against.

The search is refused up front (BudgetExceeded) when the assignment count
m ** k would exceed the evaluation budget: 10_000_000 by default,
overridable via the TREELABEL_BUDGET environment variable, the one way
to set it. A count budget, not a wall-clock one, keeps runs
reproducible.

Each assignment is one tuple over every node in postorder, drawn from a
single itertools.product: an internal node ranges over the box, a leaf
over its one observed label. Leaf positions never vary, so the order is
deterministic and lexicographic over the internal nodes in postorder,
labels ascending, and "the first optimal labeling" is a stable notion
across runs.

brute_force_min is the one enumeration loop; optimal_label_sets reads
the per-node label sets it records.
"""

from __future__ import annotations

import os
from itertools import product
from typing import NamedTuple

from .costs import CostFunction, Labeling, LeafLabeling, theta_function
from .errors import DEFAULT_BUDGET, BudgetExceeded
from .tree import Tree, postorder

DEFAULT_LABELING_CAP = 1000


def resolve_budget() -> int:
    """TREELABEL_BUDGET from the environment, else the default."""
    env = os.environ.get("TREELABEL_BUDGET", DEFAULT_BUDGET)
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"TREELABEL_BUDGET must be an integer, got {env!r}") from None


class OptimumSet(NamedTuple):
    """Everything the exhaustive scan learned about the optimum.

    labelings holds optimal labelings in enumeration order, truncated at
    the cap (truncated says whether anything was dropped); each one's
    values are a list by node id, like every solver's. label_sets[v]
    lists, ascending, every label node v takes in at least one optimal
    labeling (a leaf's entry is its observed label); it is always
    complete.
    """

    cost: int
    labelings: list[Labeling]
    truncated: bool
    label_sets: list[list[int]]


def brute_force_min(
    t: Tree, l: LeafLabeling, c: CostFunction, max_labelings: int = DEFAULT_LABELING_CAP
) -> OptimumSet:
    """Exact global optimum over the search box, by full enumeration."""
    nodes = postorder(t)
    internal_count = t.node_count - t.leaf_count
    allowed = resolve_budget()
    count = l.m ** internal_count
    if count > allowed:
        raise BudgetExceeded(
            f"{l.m}^{internal_count} = {count} assignments exceed budget {allowed}"
        )
    box = range(l.g_min, l.g_max + 1)
    choices = [box if t.children[v] else (l.labels[v],) for v in nodes]
    at = {v: i for i, v in enumerate(nodes)}
    pairs = [(at[parent], at[child]) for parent, child in t.edges()]
    th = list(map(theta_function(c), range(l.m)))

    best = None
    optima: list[tuple[int, ...]] = []
    seen: list[set[int]] = []  # per postorder position, labels seen in optima
    truncated = False

    for x in product(*choices):
        cost = 0
        for i, j in pairs:
            cost += th[abs(x[i] - x[j])]
        if best is None or cost < best:
            best = cost
            optima = []
            seen = [set() for _ in nodes]
            truncated = False
        if cost == best:
            for labels, label in zip(seen, x):
                labels.add(label)
            if len(optima) < max_labelings:
                optima.append(x)
            else:
                truncated = True

    # an optimum is a tuple in postorder: node v's label is at position at[v]
    by_id = [at[v] for v in range(t.node_count)]
    return OptimumSet(
        cost=best,
        labelings=[Labeling(values=[x[i] for i in by_id], total_cost=best) for x in optima],
        truncated=truncated,
        label_sets=[sorted(seen[i]) for i in by_id],
    )


def optimal_label_sets(t: Tree, l: LeafLabeling, c: CostFunction) -> list[list[int]]:
    """For every node, all labels it takes in at least one optimal labeling.

    Entry [v] is ascending. Leaf entries are their observed labels.
    """
    return brute_force_min(t, l, c, max_labelings=0).label_sets
