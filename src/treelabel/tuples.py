"""Uniform k-tuple labelings, solved coordinate by coordinate.

Every node carries a nondecreasing k-tuple; an edge costs the sum of the
per-coordinate theta costs, so the total objective splits into k
independent scalar problems when the within-tuple monotonicity constraint
is ignored. The solver exploits exactly that: solve coordinate i on the
leaf labels made of every tuple's i-th component, then zip the scalar
answers back into tuples.

The sum of the k scalar optima is always a lower bound on the constrained
tuple optimum. Whenever the zipped tuples come out nondecreasing at every
node the result is feasible, hence optimal, and the bound is tight. That
monotonicity is expected for sorted leaf tuples under the deterministic
smallest-label tie rules but is not taken on faith: every solve audits it
and raises TupleDecompositionNotMonotone with a reproducer when it fails,
rather than repairing the tuples silently.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Validate leaf coverage, one k for every leaf and nondecreasing tuples."""
        check_leaf_coverage(t, labels)
        k = None
        clean: dict[int, tuple[int, ...]] = {}
        for v in sorted(labels):
            value = tuple(int(x) for x in labels[v])
            if k is None:
                k = len(value)
                if k == 0:
                    raise ValueError("tuples must have at least one component")
            elif len(value) != k:
                raise TupleLengthMismatch(
                    f"leaf {v} has a {len(value)}-tuple; expected k={k}"
                )
            _check_monotone(value, f"leaf {v}")
            clean[v] = value
        return cls(k=k, labels=clean)

    def coordinate(self, t: Tree, i: int) -> LeafLabeling:
        """Scalar leaf labeling made of component i of every tuple."""
        return LeafLabeling.for_tree(t, {v: tup[i] for v, tup in self.labels.items()})


@dataclass(frozen=True)
class TupleLabeling:
    """A k-tuple for every node, with the cached total stretch."""

    values: Mapping[int, tuple[int, ...]]
    total_cost: int


def _check_monotone(value: tuple[int, ...], where: str) -> None:
    for a, b in zip(value, value[1:]):
        if a > b:
            raise TupleNotMonotone(f"tuple {value} at {where} decreases")


def tuple_cost(t: Tree, c: CostFunction, full: TupleLabeling | Mapping) -> int:
    """Total stretch: sum over edges of the per-coordinate theta costs."""
    values = full.values if isinstance(full, TupleLabeling) else full
    for v, tup in values.items():
        _check_monotone(tuple(tup), f"node {v}")
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
    coordinate_labels: list[Mapping[int, int]] = []
    total = 0
    for i in range(l.k):
        _, labeling, _ = solve_scalar(t, l.coordinate(t, i), c, algorithm=algorithm, tie=tie)
        coordinate_labels.append(labeling.values)
        total += labeling.total_cost

    values: dict[int, tuple[int, ...]] = {}
    for v in range(t.node_count):
        tup = tuple(coordinate_labels[i][v] for i in range(l.k))
        for i in range(l.k - 1):
            if tup[i] > tup[i + 1]:
                raise TupleDecompositionNotMonotone(
                    f"coordinates {i} and {i + 1} solve to {tup[i]} > {tup[i + 1]} "
                    f"at node {v}; instance: parents={list(t.parents)}, "
                    f"leaf_tuples={dict(sorted(l.labels.items()))}, cost={c.spec()}",
                    node=v,
                    coordinate=i,
                    reproducer={
                        "parents": list(t.parents),
                        "leaf_tuples": dict(sorted(l.labels.items())),
                        "cost": c.spec(),
                    },
                )
        values[v] = tup
    return TupleLabeling(values=values, total_cost=total)
