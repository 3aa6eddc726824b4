"""Hypothesis differential tests of the solvers against each other.

bottom_up_intervals / median_down must give dp_down(convex_up(...))'s
labels and cost under both of dp's tie rules, on any Manhattan tree, and
the optimal cost of the interval solver. Two metamorphic properties ride
along: reflecting the leaf labels (x -> -x) swaps the tie rules node by
node, and shifting them by a constant shifts every label by it.
On small trees, every solver that applies (dp, convex, interval, median
and the oracle, through solve_scalar) must reach the same total under
convex and non-convex costs, each total must be eval_total's, and median
must give convex's labels.
hypothesis comes with the ``test`` extra; without it this module is
skipped, and the seeded median tests in test_intervals.py still run.
"""

import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from treelabel import (
    BudgetExceeded,
    CostFunction,
    LeafLabeling,
    UnsupportedAlgorithm,
    bottom_up_intervals,
    build_tree,
    convex_up,
    dp_down,
    eval_total,
    median_down,
    solve_scalar,
)

MANHATTAN = CostFunction.manhattan()


@st.composite
def _instances(draw, max_nodes=25, arity_bound=6, span=40):
    """A tree of 1 to max_nodes nodes with leaf labels in [-span, span].

    Each node after the root attaches to an earlier node that has fewer
    than max_arity children; max_arity is 1 to arity_bound, or unbounded
    for a plain random parent array. Unary nodes and chains occur at
    every bound.
    """
    n_nodes = draw(st.integers(1, max_nodes))
    max_arity = draw(st.one_of(st.integers(1, arity_bound), st.just(n_nodes)))
    parent_of = [None]
    child_count = [0]
    for v in range(1, n_nodes):
        p = draw(st.sampled_from([u for u in range(v) if child_count[u] < max_arity]))
        parent_of.append(p)
        child_count[p] += 1
        child_count.append(0)
    t = build_tree(parent_of)
    labels = {v: draw(st.integers(-span, span)) for v in t.leaves()}
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
            assert mirror.values == [-x for x in got[other].values], tie
            assert mirror.total_cost == got[other].total_cost, tie
            moved_labels = median_down(t, shifted, tie=tie)
            assert moved_labels.values == [x + shift for x in got[tie].values], tie
            assert moved_labels.total_cost == got[tie].total_cost, tie


# convex costs, then a table whose increments 5, 1, 5, 1, 1, 1 are not convex
_COSTS = ("manhattan", "power:2", "power:3", "table:0,1,3,6,10,15,21", "table:0,5,6,11,12,13,14")


class TestEverySolverAgrees:
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(instance=_instances(max_nodes=12, arity_bound=4, span=3), spec=st.sampled_from(_COSTS))
    def test_totals_and_median_labels(self, instance, spec):
        t, l = instance
        c = CostFunction.from_spec(spec)
        labelings = {}
        # a small oracle budget keeps the run short; larger trees skip the oracle
        with mock.patch.dict(os.environ, {"TREELABEL_BUDGET": "20000"}):
            for name in ("dp", "convex", "interval", "median", "oracle"):
                try:
                    labelings[name] = solve_scalar(t, l, c, name)[1]
                except (UnsupportedAlgorithm, BudgetExceeded):
                    continue  # this solver does not apply to the instance
        totals = {name: labeling.total_cost for name, labeling in labelings.items()}
        assert "dp" in totals and len(set(totals.values())) == 1, (spec, t.parents, totals)
        for name, labeling in labelings.items():
            assert eval_total(t, c, labeling) == labeling.total_cost, (spec, name)
        if "median" in labelings:
            assert labelings["median"].values == labelings["convex"].values, (spec, t.parents)
