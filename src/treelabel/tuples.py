"""Uniform k-tuple labelings, solved coordinate by coordinate.

Every node carries a nondecreasing k-tuple; an edge costs the sum of the
per-coordinate theta costs, so the total objective splits into k
independent scalar problems when the within-tuple monotonicity constraint
is ignored. The solver exploits exactly that: solve coordinate i on the
leaf labels made of every tuple's i-th component, then zip the scalar
answers back into tuples. The leaf columns come from one zip over the
leaf tuples, each answer is read into a column indexed by node id as soon
as it is solved, and the result is the zip of those columns.

The sum of the k scalar optima is always a lower bound on the constrained
tuple optimum. Whenever the zipped tuples come out nondecreasing at every
node the result is feasible, hence optimal, and the bound is tight. That
monotonicity is expected for sorted leaf tuples under the deterministic
smallest-label tie rules but is not taken on faith: every solve audits it
and raises TupleDecompositionNotMonotone with a reproducer when it fails,
rather than repairing the tuples silently. The audit compares adjacent
columns in builtins; only when some pair crosses does a node by node scan
find what is reported: the smallest node id that decreases, and there the
smallest coordinate i above coordinate i + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, le
from typing import Mapping

from .costs import CostFunction, LeafLabeling, check_leaf_coverage, theta
from .errors import (
    MissingNodeLabel,
    TupleDecompositionNotMonotone,
    TupleLengthMismatch,
    TupleNotMonotone,
)
from .solve import choose_algorithm, solve_scalar
from .tree import Tree


@dataclass(frozen=True)
class TupleLeafLabeling:
    """Nondecreasing k-tuples on the leaves, uniform k across the tree."""

    k: int
    labels: Mapping[int, tuple[int, ...]]

    @classmethod
    def for_tree(cls, t: Tree, labels: Mapping[int, tuple[int, ...]]) -> "TupleLeafLabeling":
        """Validate that ``labels`` covers exactly the leaves of ``t``.

        The entry point for mappings from outside: keys and tuple
        components are converted to int here.
        """
        check_leaf_coverage(t, labels)
        return cls._of_leaves({int(v): tuple(int(x) for x in tup) for v, tup in labels.items()})

    @classmethod
    def _of_leaves(cls, labels: dict[int, tuple[int, ...]]) -> "TupleLeafLabeling":
        """The labeling of int tuples ``labels`` known to cover exactly the leaves.

        Checks, in ascending leaf order, that every tuple has the same k >= 1
        components and is nondecreasing. ``labels`` is kept as it is, not
        copied.
        """
        k = None
        for v in sorted(labels):
            value = labels[v]
            if k is None:
                k = len(value)
                if k == 0:
                    raise ValueError("tuples must have at least one component")
            elif len(value) != k:
                raise TupleLengthMismatch(
                    f"leaf {v} has a {len(value)}-tuple; expected k={k}"
                )
            _check_monotone(value, "leaf", v)
        return cls(k=k, labels=labels)


@dataclass(frozen=True)
class TupleLabeling:
    """A k-tuple for every node, with the cached total stretch."""

    values: Mapping[int, tuple[int, ...]]
    total_cost: int


def _check_monotone(value: tuple[int, ...], kind: str, v: int) -> None:
    if not all(map(le, value, value[1:])):
        raise TupleNotMonotone(f"tuple {value} at {kind} {v} decreases")


def tuple_cost(t: Tree, c: CostFunction, full: TupleLabeling | Mapping) -> int:
    """Total stretch: sum over edges of the per-coordinate theta costs."""
    values = full.values if isinstance(full, TupleLabeling) else full
    for v, tup in values.items():
        _check_monotone(tuple(tup), "node", v)
    total = 0
    for parent, child in t.edges():
        try:
            a = values[parent]
            b = values[child]
        except KeyError as exc:
            raise MissingNodeLabel(f"no tuple for node {exc.args[0]}") from None
        if len(a) != len(b):
            raise TupleLengthMismatch(
                f"edge ({parent}, {child}) joins a {len(a)}-tuple to a {len(b)}-tuple"
            )
        for x, y in zip(a, b):
            total += theta(c, abs(x - y))
    return total


def solve_ktuple(
    t: Tree,
    l: TupleLeafLabeling,
    c: CostFunction,
    algorithm: str = "auto",
    tie: str = "lowest",
) -> TupleLabeling:
    """Minimize the total stretch by per-coordinate decomposition."""
    algorithm = choose_algorithm(algorithm, t, c)
    # one column of answers per coordinate, indexed by node id
    nodes = range(t.node_count)
    columns: list[list[int]] = []
    total = 0
    for leaf_column in zip(*l.labels.values()):
        coordinate = LeafLabeling._of_leaves(dict(zip(l.labels, leaf_column)))
        _, labeling, _ = solve_scalar(t, coordinate, c, algorithm=algorithm, tie=tie)
        columns.append(list(map(labeling.values.__getitem__, nodes)))
        total += labeling.total_cost

    if any(any(map(gt, a, b)) for a, b in zip(columns, columns[1:])):
        # report the first crossing in node order: the smallest node id,
        # and there the smallest coordinate i above coordinate i + 1
        v, i = next(
            (v, i)
            for v in nodes
            for i in range(len(columns) - 1)
            if columns[i][v] > columns[i + 1][v]
        )
        reproducer = {
            "parents": list(t.parents),
            "leaf_tuples": dict(sorted(l.labels.items())),
            "cost": c.spec(),
        }
        raise TupleDecompositionNotMonotone(
            f"coordinates {i} and {i + 1} solve to {columns[i][v]} > {columns[i + 1][v]} "
            f"at node {v}; instance: parents={reproducer['parents']}, "
            f"leaf_tuples={reproducer['leaf_tuples']}, cost={reproducer['cost']}",
            node=v,
            coordinate=i,
            reproducer=reproducer,
        )
    return TupleLabeling(values=dict(zip(nodes, zip(*columns))), total_cost=total)
