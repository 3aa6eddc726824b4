"""Hypothesis differential test of solve_ktuple against its coordinates.

solve_ktuple must give, for every node, the tuple of the k scalar answers
that solve_scalar gives on each coordinate's leaf labels, and the sum of
their costs; where those tuples decrease somewhere it must raise
TupleDecompositionNotMonotone at the first crossing in node order. The
reference here zips and audits node by node, independently of the
solver's column-wise code. A short cost table and the interval-only
"midpoint" tie make some solves raise, and leaf tuples built past
TupleLeafLabeling's checks, some of them decreasing, make the audit fire.
hypothesis comes with the ``test`` extra; without it this module is
skipped, and the seeded k-tuple tests in test_tuples.py still run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from treelabel import (
    CostFunction,
    LeafLabeling,
    TreeLabelError,
    TupleDecompositionNotMonotone,
    TupleLeafLabeling,
    build_tree,
    solve_ktuple,
    tuple_cost,
)
from treelabel.solve import solve_scalar

COSTS = {
    "manhattan": ("auto", "dp", "convex", "interval", "median"),
    "power:2": ("auto", "dp", "convex"),
    # DifferenceOutOfRange once a coordinate spans more than 7
    "table:0,1,3,6,10,15,21,28": ("auto", "dp", "convex"),
}
TIES = ("lowest", "highest", "midpoint")


@st.composite
def _instances(draw, unchecked=True):
    """A tree of 1-16 nodes, max arity 1-5, with k-tuples, k in 1-4.

    The tuples are sorted and checked by TupleLeafLabeling.for_tree, or,
    if ``unchecked``, one time in four taken as drawn, unchecked, so that
    the k scalar answers can cross.
    """
    n_nodes = draw(st.integers(1, 16))
    max_arity = draw(st.integers(1, 5))
    parent_of = [None]
    child_count = [0]
    for v in range(1, n_nodes):
        p = draw(st.sampled_from([u for u in range(v) if child_count[u] < max_arity]))
        parent_of.append(p)
        child_count[p] += 1
        child_count.append(0)
    t = build_tree(parent_of)
    k = draw(st.integers(1, 4))
    component = st.integers(-12, 12)
    labels = {v: tuple(draw(st.lists(component, min_size=k, max_size=k))) for v in t.leaves()}
    if unchecked and draw(st.integers(0, 3)) == 0:
        return t, TupleLeafLabeling(k=k, labels=labels)
    labels = {v: tuple(sorted(tup)) for v, tup in labels.items()}
    return t, TupleLeafLabeling.for_tree(t, labels)


def _reference(t, l, c, algorithm, tie):
    """(values, cost) zipped from k scalar solves, or the exception raised."""
    answers = []
    total = 0
    try:
        for i in range(l.k):
            coordinate = LeafLabeling.for_tree(t, {v: tup[i] for v, tup in l.labels.items()})
            _, labeling, _ = solve_scalar(t, coordinate, c, algorithm=algorithm, tie=tie)
            answers.append(labeling.values)
            total += labeling.total_cost
    except TreeLabelError as exc:
        return exc
    values = []
    for v in range(t.node_count):
        tup = tuple(answer[v] for answer in answers)
        for i in range(l.k - 1):
            if tup[i] > tup[i + 1]:
                return TupleDecompositionNotMonotone("", node=v, coordinate=i)
        values.append(tup)
    return values, total


class TestKtupleAgainstCoordinates:
    @settings(derandomize=True, deadline=None, database=None, max_examples=120)
    @given(instance=_instances(), spec=st.sampled_from(sorted(COSTS)))
    def test_zipped_coordinate_answers_or_the_same_error(self, instance, spec):
        t, l = instance
        c = CostFunction.from_spec(spec)
        for algorithm in COSTS[spec]:
            for tie in TIES:
                expected = _reference(t, l, c, algorithm, tie)
                try:
                    got = solve_ktuple(t, l, c, algorithm=algorithm, tie=tie)
                except TreeLabelError as exc:
                    assert type(exc) is type(expected), (algorithm, tie, exc)
                    if isinstance(exc, TupleDecompositionNotMonotone):
                        assert (exc.node, exc.coordinate) == (
                            expected.node,
                            expected.coordinate,
                        )
                    continue
                assert not isinstance(expected, Exception), (algorithm, tie, expected)
                assert (got.values, got.total_cost) == expected, (algorithm, tie)


# convex costs, every one long enough for the components' span of 24;
# the table's increments repeat, so many labels tie
_STEPS = [1] * 4 + [2] * 4 + [5] * 8 + [9] * 8
CONVEX_COSTS = {
    "manhattan": ("dp", "convex", "median"),
    "power:2": ("dp", "convex"),
    "power:3": ("dp", "convex"),
    "table:" + ",".join(str(sum(_STEPS[:d])) for d in range(len(_STEPS) + 1)): ("dp", "convex"),
}


class TestDecompositionIsExact:
    # with sorted leaf tuples and a convex theta, dp's "lowest" ("highest")
    # labeling is the least (greatest) minimizer of an L-natural-convex
    # objective, monotone in the leaf data, so the k columns never cross
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(instance=_instances(unchecked=False), spec=st.sampled_from(sorted(CONVEX_COSTS)))
    def test_sorted_tuples_under_a_convex_cost_never_cross(self, instance, spec):
        t, l = instance
        c = CostFunction.from_spec(spec)
        assert c.is_convex
        for algorithm in CONVEX_COSTS[spec]:
            for tie in ("lowest", "highest"):
                got = solve_ktuple(t, l, c, algorithm=algorithm, tie=tie)
                assert got.total_cost == tuple_cost(t, c, got), (algorithm, tie)
