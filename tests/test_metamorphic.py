"""Metamorphic properties that every solver must keep.

Shifting every leaf label by a constant shifts every label by it;
negating them negates every label and swaps the "lowest" and "highest"
tie rules (the midpoint of a reflected interval may round the other
way, so "midpoint" keeps only its cost). Renumbering the nodes at random reorders every node's children: each
solver must give the same total, and under every tie rule each node must
keep its label, carried over to its new id. Re-rooting at an internal
node keeps the node set, the edges and the leaves, so the optimal cost
must stay the same, by the solver's own total and by eval_total.
Instances: 2-9 leaves, arity binary, 3 or 5, labels in [-6, 6], under
three convex costs and one that is not.
"""

import random

import pytest

from helpers import leaf_map, renumber, reroot
from treelabel import (
    CostFunction,
    LeafLabeling,
    build_tree,
    eval_total,
    random_document,
    solve_scalar,
)

SOLVERS = {
    "manhattan": ("dp", "convex", "interval", "median"),
    "power:2": ("dp", "convex"),
    "power:3": ("dp", "convex"),
    # not convex: the increments go 3, 1, 5, 1, 10, ...
    "table:0,3,4,9,10,20,21,40,41,70,71,110,111": ("dp",),
}
TIES = {
    "dp": ("lowest", "highest"),
    "convex": ("lowest", "highest"),
    "interval": ("lowest", "highest", "midpoint"),
    "median": ("lowest", "highest"),
}


def _instances(seed, count):
    rng = random.Random(seed)
    for index in range(count):
        arity = ("binary", 3, 5)[index % 3]
        yield rng, random_document(rng.randint(2, 9), -6, 6, rng, arity=arity)


@pytest.mark.parametrize("spec", sorted(SOLVERS))
def test_child_permutation_keeps_every_label(spec):
    c = CostFunction.from_spec(spec)
    for rng, doc in _instances(61, 200):
        t, l = doc.tree, doc.leaf_labels
        moved, moved_leaves, new_id = renumber(t, l, rng)
        totals = set()
        for algorithm in SOLVERS[spec]:
            for tie in TIES[algorithm]:
                got = solve_scalar(t, l, c, algorithm, tie)[1]
                again = solve_scalar(moved, moved_leaves, c, algorithm, tie)[1]
                assert again.total_cost == got.total_cost, (algorithm, tie)
                assert all(
                    again.values[new_id[v]] == got.values[v] for v in range(t.node_count)
                ), (algorithm, tie, t.parents)
                totals.add(got.total_cost)
        assert len(totals) == 1, t.parents


@pytest.mark.parametrize("spec", sorted(SOLVERS))
def test_rerooting_keeps_the_optimal_cost(spec):
    c = CostFunction.from_spec(spec)
    for _, doc in _instances(67, 200):
        t, l = doc.tree, doc.leaf_labels
        if len(t.children[t.root]) == 1:
            continue
        optimum = solve_scalar(t, l, c, "dp")[1].total_cost
        for r in range(t.node_count):
            if t.is_leaf(r) or r == t.root:
                continue
            rerooted = reroot(t, r)
            leaves = LeafLabeling.for_tree(rerooted, leaf_map(l))
            for algorithm in SOLVERS[spec]:
                got = solve_scalar(rerooted, leaves, c, algorithm)[1]
                assert got.total_cost == optimum, (algorithm, t.parents, r)
                assert eval_total(rerooted, c, got) == optimum, (algorithm, t.parents, r)


@pytest.mark.parametrize("spec", sorted(SOLVERS))
def test_translation_and_reflection(spec):
    # shifting every leaf label shifts every label; negating them negates
    # every label and swaps the tie rules
    c = CostFunction.from_spec(spec)
    swapped = {"lowest": "highest", "highest": "lowest", "midpoint": "midpoint"}
    for rng, doc in _instances(71, 100):
        t, l = doc.tree, doc.leaf_labels
        shift = rng.randint(-20, 20)
        shifted = LeafLabeling.for_tree(t, {v: x + shift for v, x in leaf_map(l).items()})
        mirrored = LeafLabeling.for_tree(t, {v: -x for v, x in leaf_map(l).items()})
        for algorithm in SOLVERS[spec]:
            for tie in TIES[algorithm]:
                got = solve_scalar(t, l, c, algorithm, tie)[1]
                moved = solve_scalar(t, shifted, c, algorithm, tie)[1]
                assert moved.total_cost == got.total_cost, (algorithm, tie)
                assert moved.values == [x + shift for x in got.values]
                mirror = solve_scalar(t, mirrored, c, algorithm, swapped[tie])[1]
                assert mirror.total_cost == got.total_cost, (algorithm, tie)
                if tie != "midpoint":
                    assert mirror.values == [-x for x in got.values]


def test_reroot_reverses_the_path_to_the_old_root():
    # 0 -> (1, 2), 1 -> (3, 4), 3 -> (5, 6); rooted at 3
    t = build_tree([None, 0, 0, 1, 1, 3, 3])
    moved = reroot(t, 3)
    assert moved.root == 3
    assert moved.parents == (1, 3, 0, None, 1, 3, 3)
    assert {frozenset(e) for e in moved.edges()} == {frozenset(e) for e in t.edges()}
    assert moved.leaves() == t.leaves()
    with pytest.raises(ValueError):
        reroot(build_tree([None, 0, 1, 1]), 1)
