"""Exhaustive brute-force minimizer: the ground truth for everything else.

Enumerates every assignment of internal-node labels over the box
[g_min, g_max] ^ (#internal nodes), evaluates each one from scratch and
keeps the minimum. Restricting to the box is safe because every optimal
label lies in [g_min, g_max]. No pruning, no incremental tricks: this
code must stay obviously correct, it is what the real solvers are judged
against.

The search is refused up front (BudgetExceeded) when the assignment count
m ** k would exceed the evaluation budget: 10_000_000 by default,
overridable via the TREELABEL_BUDGET environment variable or the
``budget`` argument. A count budget, not a wall-clock one, keeps runs
reproducible.

Enumeration order is deterministic: lexicographic over the internal nodes
in postorder, labels ascending, so "the first optimal labeling" is a
stable notion across runs.

brute_force_min is the one enumeration loop; optimal_label_sets and
enumerate_optimal read the per-node label sets it records.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

from .costs import CostFunction, Labeling, LeafLabeling, theta
from .errors import BudgetExceeded
from .tree import Tree, postorder

DEFAULT_BUDGET = 10_000_000
DEFAULT_LABELING_CAP = 1000


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, else TREELABEL_BUDGET from the environment, else default."""
    if budget is not None:
        return budget
    env = os.environ.get("TREELABEL_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"TREELABEL_BUDGET must be an integer, got {env!r}")
    return DEFAULT_BUDGET


@dataclass
class OptimumSet:
    """Everything the exhaustive scan learned about the optimum.

    labelings holds optimal labelings in enumeration order, truncated at
    the cap (truncated says whether anything was dropped). label_sets[v]
    lists, ascending, every label node v takes in at least one optimal
    labeling (a leaf's entry is its observed label); it is always
    complete, and root_labels is label_sets[root].
    """

    cost: int
    labelings: list[Labeling]
    root_labels: list[int]
    truncated: bool
    label_sets: list[list[int]]


def brute_force_min(
    t: Tree,
    l: LeafLabeling,
    c: CostFunction,
    budget: int | None = None,
    max_labelings: int = DEFAULT_LABELING_CAP,
) -> OptimumSet:
    """Exact global optimum over the search box, by full enumeration."""
    internal = [v for v in postorder(t) if not t.is_leaf(v)]
    allowed = resolve_budget(budget)
    count = l.m ** len(internal)
    if count > allowed:
        raise BudgetExceeded(
            f"{l.m}^{len(internal)} = {count} assignments exceed budget {allowed}"
        )
    edges = list(t.edges())
    th = [theta(c, d) for d in range(l.m)]

    best = None
    best_labelings: list[dict[int, int]] = []
    seen: list[set[int]] = []  # per internal node, labels seen in optima
    truncated = False

    values = dict(l.labels)
    for assignment in product(range(l.g_min, l.g_max + 1), repeat=len(internal)):
        for v, label in zip(internal, assignment):
            values[v] = label
        cost = 0
        for parent, child in edges:
            cost += th[abs(values[parent] - values[child])]
        if best is None or cost < best:
            best = cost
            best_labelings = []
            seen = [set() for _ in internal]
            truncated = False
        if cost == best:
            for labels, label in zip(seen, assignment):
                labels.add(label)
            if len(best_labelings) < max_labelings:
                best_labelings.append(dict(values))
            else:
                truncated = True

    sets = {v: [label] for v, label in l.labels.items()}
    sets.update((v, sorted(labels)) for v, labels in zip(internal, seen))
    label_sets = [sets[v] for v in range(t.node_count)]
    return OptimumSet(
        cost=best,
        labelings=[Labeling(values=v, total_cost=best) for v in best_labelings],
        root_labels=label_sets[t.root],
        truncated=truncated,
        label_sets=label_sets,
    )


def optimal_label_sets(
    t: Tree, l: LeafLabeling, c: CostFunction, budget: int | None = None
) -> list[list[int]]:
    """For every node, all labels it takes in at least one optimal labeling.

    Entry [v] is ascending. Leaf entries are their observed labels.
    """
    return brute_force_min(t, l, c, budget=budget, max_labelings=0).label_sets


def enumerate_optimal(
    t: Tree, l: LeafLabeling, c: CostFunction, node: int, budget: int | None = None
) -> list[int]:
    """All labels of ``node`` appearing in at least one optimal labeling."""
    return optimal_label_sets(t, l, c, budget=budget)[node]
