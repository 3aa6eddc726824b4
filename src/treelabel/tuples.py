"""Uniform k-tuple labelings, solved coordinate by coordinate.

Every node carries a nondecreasing k-tuple; an edge costs the sum of the
per-coordinate theta costs, so the total objective splits into k
independent scalar problems when the within-tuple monotonicity constraint
is ignored. The solver exploits exactly that: solve coordinate i on the
leaf labels made of every tuple's i-th component, then zip the scalar
answers back into tuples. The leaf columns come from one zip over the
leaf tuples, each answer's list by node id is taken as a column as soon
as it is solved, and the result is the zip of those columns, returned as
a ``Labeling`` whose values are a list of k-tuples by node id: the same
record a scalar solve gives, read by the same costs.node_values. The
problem's data, the leaf record TupleLeafLabeling and the cost sum
tuple_cost, lives in costs.py beside its scalar twins; this module holds
only the solver.

The sum of the k scalar optima is always a lower bound on the constrained
tuple optimum. Whenever the zipped tuples come out nondecreasing at every
node the result is feasible, hence optimal, and the bound is tight. That
monotonicity holds for sorted leaf tuples under a convex theta with
dp's tie rules (dp, convex and median, either tie): the "lowest" and
"highest" labelings are the least and greatest minimizers of an
L-natural-convex objective, which are monotone in the leaf data. It is
not taken on faith: every solve, under any cost and solver, audits it
and raises TupleDecompositionNotMonotone with a reproducer when it fails,
rather than repairing the tuples silently. The audit compares adjacent
columns in builtins; only when some pair crosses does a node by node scan
find what is reported: the smallest node id that decreases, and there the
smallest coordinate i above coordinate i + 1.
"""

from __future__ import annotations

from operator import gt

from .costs import CostFunction, Labeling, LeafLabeling, TupleLeafLabeling
from .errors import TupleDecompositionNotMonotone
from .solve import choose_algorithm, solve_scalar
from .tree import Tree


def solve_ktuple(
    t: Tree,
    l: TupleLeafLabeling,
    c: CostFunction,
    algorithm: str = "auto",
    tie: str = "lowest",
) -> Labeling:
    """Minimize the total stretch by per-coordinate decomposition.

    The answer is a Labeling whose values are a list of the k-tuples by
    node id and whose total_cost is the sum of the k scalar optima.
    """
    algorithm = choose_algorithm(algorithm, t, c, tie)
    # one column of answers per coordinate, indexed by node id
    columns: list[list[int]] = []
    total = 0
    for leaf_column in zip(*l.labels.values()):
        coordinate = LeafLabeling._of_leaves(t.node_count, l.labels, leaf_column)
        _, labeling, _ = solve_scalar(t, coordinate, c, algorithm=algorithm, tie=tie)
        columns.append(labeling.values)
        total += labeling.total_cost

    if any(any(map(gt, a, b)) for a, b in zip(columns, columns[1:])):
        # report the first crossing in node order: the smallest node id,
        # and there the smallest coordinate i above coordinate i + 1
        v, i = next(
            (v, i)
            for v in range(t.node_count)
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
    return Labeling(values=list(zip(*columns)), total_cost=total)
