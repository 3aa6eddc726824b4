"""Hypothesis differential test of the median solver against dp's tie rules.

bottom_up_intervals / median_down must give dp_down(convex_up(...))'s
labels and cost under both of dp's tie rules, on any Manhattan tree, and
the optimal cost of the interval solver. Two metamorphic properties ride
along: reflecting the leaf labels (x -> -x) swaps the tie rules node by
node, and shifting them by a constant shifts every label by it.
hypothesis comes with the ``test`` extra; without it this module is
skipped, and the seeded median tests in test_intervals.py still run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from treelabel import (
    CostFunction,
    LeafLabeling,
    bottom_up_intervals,
    build_tree,
    convex_up,
    dp_down,
    median_down,
    solve_scalar,
)

MANHATTAN = CostFunction.manhattan()


@st.composite
def _instances(draw):
    """A tree of 1-25 nodes with signed leaf labels.

    Each node after the root attaches to an earlier node that has fewer
    than max_arity children; max_arity is 1-6, or unbounded for a plain
    random parent array. Unary nodes and chains occur at every bound.
    """
    n_nodes = draw(st.integers(1, 25))
    max_arity = draw(st.one_of(st.integers(1, 6), st.just(n_nodes)))
    parent_of = [None]
    child_count = [0]
    for v in range(1, n_nodes):
        p = draw(st.sampled_from([u for u in range(v) if child_count[u] < max_arity]))
        parent_of.append(p)
        child_count[p] += 1
        child_count.append(0)
    t = build_tree(parent_of)
    labels = {v: draw(st.integers(-40, 40)) for v in t.leaves()}
    return t, LeafLabeling.for_tree(t, labels)


class TestMedianAgainstDp:
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(instance=_instances(), shift=st.integers(-10**6, 10**6))
    def test_dp_labels_and_cost_under_both_ties(self, instance, shift):
        t, l = instance
        iv = bottom_up_intervals(t, l)
        table = convex_up(t, l, MANHATTAN)
        got = {}
        for tie in ("lowest", "highest"):
            got[tie] = median_down(t, iv, tie=tie)
            expected = dp_down(t, table, MANHATTAN, tie=tie)
            assert got[tie].values == expected.values, tie
            assert got[tie].total_cost == expected.total_cost, tie
        assert got["lowest"].total_cost == solve_scalar(t, l, MANHATTAN, "interval")[1].total_cost

        def moved(step):
            moved_leaves = LeafLabeling.for_tree(t, {v: step(p) for v, p in l.labels.items()})
            return bottom_up_intervals(t, moved_leaves)

        reflected, shifted = moved(lambda p: -p), moved(lambda p: p + shift)
        for tie, other in (("lowest", "highest"), ("highest", "lowest")):
            mirror = median_down(t, reflected, tie=tie)
            assert mirror.values == {v: -x for v, x in got[other].values.items()}, tie
            assert mirror.total_cost == got[other].total_cost, tie
            moved_labels = median_down(t, shifted, tie=tie)
            assert moved_labels.values == {v: x + shift for v, x in got[tie].values.items()}, tie
            assert moved_labels.total_cost == got[tie].total_cost, tie
