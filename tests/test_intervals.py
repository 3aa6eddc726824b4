import random
import sys
import tracemalloc

import pytest

from helpers import (
    count_calls,
    extract_subtree,
    interval_of,
    leaf_map,
    random_instance,
    reference_binary_intervals,
    reference_merge_intervals,
    renumber,
)
from treelabel import (
    CostFunction,
    LeafLabeling,
    TreeLabeler,
    bottom_up_intervals,
    brute_force_min,
    convex_up,
    dp_down,
    dp_up,
    eval_total,
    median_down,
    min_total,
    optimal_label_sets,
    parse_newick,
    random_document,
    solve_scalar,
    top_down_labels,
)

MANHATTAN = CostFunction.manhattan()
TIES = ("lowest", "highest", "midpoint")


def any_arity_instances(seed, count, max_nodes, lo=-3, hi=9):
    """Seeded trees of arity 1-6, unary chains included; the first is the
    single node."""
    rng = random.Random(seed)
    for index in range(count):
        n_nodes = 1 if index == 0 else rng.randint(2, max_nodes)
        yield random_instance(rng, n_nodes, lo, hi, max_arity=6)


class TestMergeIntervals:
    # two child intervals (a, b), each the interval of a cherry, merged at
    # the root of ((a0,a1),(b0,b1)); for two children the median rule is
    # the pairwise intersection-or-gap rule
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((2, 6), (4, 9), (4, 6)),   # overlap: intersection
            ((1, 5), (9, 9), (5, 9)),   # disjoint, a below b: the gap
            ((3, 3), (3, 3), (3, 3)),   # identity
            ((7, 9), (1, 2), (2, 7)),   # disjoint, b below a: the gap
            ((1, 5), (5, 9), (5, 5)),   # touching boundaries: single point
            ((1, 9), (3, 5), (3, 5)),   # nested: the inner interval
            ((2, 6), (2, 9), (2, 6)),   # shared low
            ((1, 5), (3, 5), (3, 5)),   # shared high
        ],
    )
    def test_rule(self, a, b, expected):
        doc = parse_newick(f"(({a[0]},{a[1]}),({b[0]},{b[1]}));")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        left, right = doc.tree.children[doc.tree.root]
        assert (interval_of(iv, left), interval_of(iv, right)) == (a, b)
        assert interval_of(iv, doc.tree.root) == expected
        assert reference_merge_intervals(a, b) == expected

    def test_child_permutation_invariant_at_every_arity(self):
        # children are stored in id order, so renumbering the nodes at
        # random reorders every node's children
        rng = random.Random(31)
        for tree, leaves in any_arity_instances(30, 200, 14):
            iv = bottom_up_intervals(tree, leaves)
            moved, moved_leaves, new_id = renumber(tree, leaves, rng)
            moved_iv = bottom_up_intervals(moved, moved_leaves)
            assert all(
                interval_of(moved_iv, new_id[v]) == interval_of(iv, v)
                for v in range(tree.node_count)
            )

    def test_binary_trees_match_the_pairwise_rule(self):
        rng = random.Random(39)
        for _ in range(300):
            doc = random_document(rng.randint(1, 30), -8, 20, rng, arity="binary")
            iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
            assert list(zip(iv.lo, iv.hi)) == reference_binary_intervals(
                doc.tree, doc.leaf_labels
            )


class TestAnyArity:
    def test_interval_is_the_minimizer_span_of_the_dp_row(self):
        # every node's interval is the set of minimizers of its own
        # subtree cost row, and top_down_labels reaches the dp optimum
        arities = set()
        for tree, leaves in any_arity_instances(40, 400, 12):
            arities.update(len(kids) for kids in tree.children)
            iv = bottom_up_intervals(tree, leaves)
            table = dp_up(tree, leaves, MANHATTAN)
            for v in range(tree.node_count):
                _, minimizers = min_total(table, v)
                assert minimizers == list(range(iv.lo[v], iv.hi[v] + 1))
            optimum, _ = min_total(table, tree.root)
            for tie in TIES:
                labeling = top_down_labels(tree, iv, tie=tie)
                assert labeling.total_cost == optimum
                assert eval_total(tree, MANHATTAN, labeling) == optimum
        assert arities == set(range(7))

    def test_agrees_with_the_oracle(self):
        for tree, leaves in any_arity_instances(41, 60, 7, lo=0, hi=5):
            iv = bottom_up_intervals(tree, leaves)
            optimum = brute_force_min(tree, leaves, MANHATTAN, max_labelings=1).cost
            lo, hi = interval_of(iv, tree.root)
            assert optimal_label_sets(tree, leaves, MANHATTAN)[tree.root] == list(
                range(lo, hi + 1)
            )
            sets = optimal_label_sets(tree, leaves, MANHATTAN)
            for tie in TIES:
                labeling = top_down_labels(tree, iv, tie=tie)
                assert labeling.total_cost == optimum
                assert all(labeling.values[v] in sets[v] for v in range(tree.node_count))


class TestBottomUp:
    def test_cherry_gap(self):
        doc = parse_newick("(2,7);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, 0) == (2, 7)
        assert interval_of(iv, 1) == (2, 2)
        assert interval_of(iv, 2) == (7, 7)

    def test_five_node(self):
        doc = parse_newick("((1,5),9);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, 1) == (1, 5)  # inner
        assert interval_of(iv, 0) == (5, 9)  # root

    def test_five_node_root_interval_is_exactly_the_optimal_set(self):
        # every label in [5,9] extends to an optimum and nothing outside does
        doc = parse_newick("((1,5),9);")
        assert optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)[0] == [5, 6, 7, 8, 9]

    def test_degenerate(self):
        doc = parse_newick("(4,4);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, 0) == (4, 4)

    def test_single_node(self):
        doc = parse_newick("6;")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, 0) == (6, 6)

    def test_star_and_unary_chain(self):
        star = parse_newick("(1,2,3);")
        iv = bottom_up_intervals(star.tree, star.leaf_labels)
        assert interval_of(iv, star.tree.root) == (2, 2)
        chain = parse_newick("((5));")
        iv = bottom_up_intervals(chain.tree, chain.leaf_labels)
        assert (iv.lo, iv.hi) == ([5] * 3, [5] * 3)

    def test_intervals_inside_leaf_range(self):
        rng = random.Random(31)
        for _ in range(40):
            doc = random_document(rng.randint(2, 10), -6, 14, rng, arity="binary")
            iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
            lo, hi = doc.leaf_labels.g_min, doc.leaf_labels.g_max
            for a, b in zip(iv.lo, iv.hi):
                assert lo <= a <= b <= hi


class TestTopDown:
    def test_cherry_lowest(self):
        doc = parse_newick("(2,7);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        labeling = top_down_labels(doc.tree, iv)
        assert labeling.values[0] == 2
        assert labeling.total_cost == 5
        # any root choice in [2,7] is equally optimal
        assert optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)[0] == [2, 3, 4, 5, 6, 7]

    def test_five_node_clamp(self):
        doc = parse_newick("((1,5),9);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        labeling = top_down_labels(doc.tree, iv)
        assert labeling.values[0] == 5
        assert labeling.values[1] == 5
        assert labeling.total_cost == 8

    def test_degenerate_all_fours(self):
        doc = parse_newick("(4,4);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        labeling = top_down_labels(doc.tree, iv)
        assert set(labeling.values) == {4}
        assert labeling.total_cost == 0

    @pytest.mark.parametrize("tie,root", [("lowest", 2), ("highest", 7), ("midpoint", 4)])
    def test_tie_rules(self, tie, root):
        doc = parse_newick("(2,7);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        labeling = top_down_labels(doc.tree, iv, tie=tie)
        assert labeling.values[0] == root
        assert labeling.total_cost == 5

    def test_bad_tie(self):
        doc = parse_newick("(2,7);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        with pytest.raises(ValueError):
            top_down_labels(doc.tree, iv, tie="random")

    def test_labels_inside_own_intervals(self):
        rng = random.Random(32)
        for _ in range(40):
            doc = random_document(rng.randint(2, 10), 0, 12, rng, arity="binary")
            iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
            for tie in ("lowest", "highest", "midpoint"):
                labeling = top_down_labels(doc.tree, iv, tie=tie)
                for v in range(doc.tree.node_count):
                    lo, hi = interval_of(iv, v)
                    assert lo <= labeling.values[v] <= hi

    def test_total_cost_is_the_manhattan_sum_at_every_arity(self):
        # the clamp distances summed in the down phase are the edge costs;
        # the first instance is the single node, unary chains turn up too
        for t, l in any_arity_instances(36, 150, 24, lo=-7, hi=12):
            iv = bottom_up_intervals(t, l)
            for tie in TIES:
                labeling = top_down_labels(t, iv, tie=tie)
                assert labeling.total_cost == eval_total(t, MANHATTAN, labeling)

    def test_auto_interval_fit_never_calls_eval_total(self, monkeypatch):
        calls = count_calls(monkeypatch, eval_total)
        est = TreeLabeler().fit("((1,5),(9,(3,4)));")
        assert est.algorithm_ == "interval"
        assert calls == []
        assert est.cost_ == 10


class TestSolveInterval:
    @pytest.mark.parametrize(
        "newick,expected",
        [("((1,5),9);", 8), ("(2,7);", 5), ("(4,4);", 0), ("6;", 0)],
    )
    def test_worked_costs(self, newick, expected):
        doc = parse_newick(newick)
        labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
        assert labeling.total_cost == expected
        assert brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN).cost == expected

    def test_agrees_with_dp_and_oracle(self):
        rng = random.Random(33)
        for _ in range(60):
            n = rng.randint(2, 6)
            doc = random_document(n, 0, 10, rng, arity="binary")
            via_interval = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
            via_dp = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp")[1]
            via_oracle = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN).cost
            assert via_interval.total_cost == via_dp.total_cost == via_oracle

    def test_cached_cost_matches_recomputation(self):
        rng = random.Random(34)
        for _ in range(30):
            doc = random_document(rng.randint(2, 12), -4, 18, rng, arity="binary")
            labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
            assert labeling.total_cost == eval_total(doc.tree, MANHATTAN, labeling)

    def test_translation_and_reflection_equivariance(self):
        rng = random.Random(35)
        for _ in range(25):
            doc = random_document(rng.randint(2, 8), 0, 11, rng, arity="binary")
            base = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
            shift = rng.choice([-5, 17])
            shifted = LeafLabeling.for_tree(
                doc.tree, {v: x + shift for v, x in leaf_map(doc.leaf_labels).items()}
            )
            moved = solve_scalar(doc.tree, shifted, MANHATTAN, "interval")[1]
            assert moved.total_cost == base.total_cost
            assert all(
                moved.values[v] == base.values[v] + shift
                for v in range(doc.tree.node_count)
            )
            pivot = doc.leaf_labels.g_min + doc.leaf_labels.g_max
            reflected = LeafLabeling.for_tree(
                doc.tree, {v: pivot - x for v, x in leaf_map(doc.leaf_labels).items()}
            )
            reflected_labeling = solve_scalar(doc.tree, reflected, MANHATTAN, "interval")[1]
            assert reflected_labeling.total_cost == base.total_cost

    def test_emitted_labels_are_globally_optimal_node_by_node(self):
        rng = random.Random(36)
        for _ in range(40):
            doc = random_document(rng.randint(2, 5), 0, 5, rng, arity="binary")
            iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
            sets = optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)
            for tie in ("lowest", "highest", "midpoint"):
                emitted = top_down_labels(doc.tree, iv, tie=tie)
                for v in range(doc.tree.node_count):
                    assert emitted.values[v] in sets[v]

    def test_root_interval_is_exactly_the_optimal_root_set(self):
        rng = random.Random(37)
        for _ in range(40):
            doc = random_document(rng.randint(2, 5), 0, 5, rng, arity="binary")
            iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
            lo, hi = interval_of(iv, doc.tree.root)
            sets = optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)
            assert sets[doc.tree.root] == list(range(lo, hi + 1))

    def test_interval_is_the_optimal_root_set_of_its_own_subtree(self):
        # what the bottom-up pass really computes: node v's interval is
        # exactly the optimal root-label set of the subproblem on v's
        # subtree, not a statement about v's labels in global optima
        rng = random.Random(38)
        for _ in range(25):
            doc = random_document(rng.randint(2, 5), 0, 5, rng, arity="binary")
            iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
            for v in range(doc.tree.node_count):
                sub_tree, sub_leaves, sub_root = extract_subtree(
                    doc.tree, doc.leaf_labels, v
                )
                lo, hi = interval_of(iv, v)
                sets = optimal_label_sets(sub_tree, sub_leaves, MANHATTAN)
                assert sets[sub_root] == list(range(lo, hi + 1))

    def test_interior_interval_points_need_not_be_optimal(self):
        # pinned counterexample: it is NOT true that every interval point
        # extends to a global optimum below the root. Here the middle
        # node's interval is [0,3] but the unique optimum (cost 4:
        # root=0, middle=0, lower=3) pins it to 0; any middle label
        # x in 1..3 pays x twice on the two edges above it.
        doc = parse_newick("(0,(0,(3,4)));")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, 2) == (0, 3)
        optimum = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN)
        assert optimum.cost == 4
        sets = optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)
        assert sets[2] == [0]
        assert not set(range(0, 4)) <= set(sets[2])

    def test_global_optima_can_escape_interior_intervals(self):
        # pinned counterexample for the other direction: a global optimum
        # may label an interior node OUTSIDE its bottom-up interval.
        # Node 1's interval is the intersection [4,4], yet labeling
        # root=5, node1=5, node4=5 also costs the optimal 3.
        doc = parse_newick("((4,(3,5)),5);")
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, 1) == (4, 4)
        assert eval_total(
            doc.tree, MANHATTAN, {0: 5, 1: 5, 2: 5, 3: 4, 4: 5, 5: 3, 6: 5}
        ) == 3
        assert brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN).cost == 3
        sets = optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)
        assert sets[1] == [4, 5]


class TestMedian:
    # (1,(2,4,6),3,((7))): the unary chain above leaf 7 (nodes 4 and 8) may
    # take any label in [3, 7], so dp's lowest rule stays at the root's 3
    # and its highest rule goes to 7. Node 2's interval is [4, 4]; under
    # lowest the root's 3 lies below it, inside the stretch where node 2's
    # cost falls with slope -1 (down to 2, the 2nd smallest of its ends
    # 2,2,4,4,6,6), so node 2 keeps 3 where the interval clamp gives 4. In
    # (9,(2,4,6),9) under highest the root's 9 lies above node 2's [4, 4]
    # and node 2 takes 6, the 5th smallest end, where the clamp gives 4.
    @pytest.mark.parametrize(
        "newick,tie,pins,clamped,cost",
        [
            pytest.param(
                "(1,(2,4,6),3,((7)));", "lowest", {0: 3, 2: 3, 4: 3, 8: 3}, 4, 11,
                id="lowest-3-3",
            ),
            pytest.param(
                "(1,(2,4,6),3,((7)));", "highest", {0: 4, 2: 4, 4: 7, 8: 7}, 4, 11,
                id="highest-4-7",
            ),
            pytest.param("(9,(2,4,6),9);", "highest", {0: 9, 2: 6}, 4, 9, id="highest-9-6"),
        ],
    )
    def test_tie_rules_follow_dp(self, newick, tie, pins, clamped, cost):
        doc = parse_newick(newick)
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, 2) == (4, 4)
        labeling = median_down(doc.tree, iv, tie=tie)
        expected = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp", tie=tie)[1]
        assert labeling.values == expected.values
        assert {v: labeling.values[v] for v in pins} == pins
        assert top_down_labels(doc.tree, iv, tie=tie).values[2] == clamped
        assert labeling.total_cost == expected.total_cost == cost

    def test_midpoint_tie_rejected(self):
        doc = parse_newick("(1,2,3);")
        with pytest.raises(ValueError, match="tie"):
            median_down(doc.tree, bottom_up_intervals(doc.tree, doc.leaf_labels), tie="midpoint")

    @pytest.mark.parametrize(
        "newick,cost",
        [
            ("(0,1000000,5);", 1_000_000),
            ("(0,10000000000000000000000000000000,5);", 10**31),
        ],
    )
    def test_huge_span_star_builds_no_table(self, monkeypatch, newick, cost):
        # a cost table would hold m entries per node, so a call to either
        # table builder is refused rather than left to run out of memory
        convex_calls = count_calls(monkeypatch, convex_up, refuse=True)
        dp_calls = count_calls(monkeypatch, dp_up, refuse=True)
        doc = parse_newick(newick)
        resolved, labeling, _ = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN)
        assert resolved == "median"
        assert labeling.total_cost == cost
        assert labeling.values[doc.tree.root] == 5
        assert (convex_calls, dp_calls) == ([], [])


# a 2,001-leaf star with labels in [0, 40]: small enough a span for convex_up,
# wide enough that gathering the root's child interval ends must be linear
_STAR_LEAVES = [random.Random(2001).randint(0, 40) for _ in range(2001)]
_STAR = "(" + ",".join(map(str, _STAR_LEAVES)) + ")"


class TestWideStar:
    def test_root_interval_is_the_median_leaf_label(self):
        doc = parse_newick(_STAR + ";")
        x = sorted(_STAR_LEAVES)[1000]
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert interval_of(iv, doc.tree.root) == (x, x)

    # a cherry leaf below (above) the star puts the root's lowest (highest)
    # label below (above) the star's interval, so median reads the star
    # node's stretch ends from its 2,001 children
    @pytest.mark.parametrize("newick", [_STAR + ";", f"({_STAR},-3);", f"({_STAR},60);"])
    @pytest.mark.parametrize("tie", ["lowest", "highest"])
    def test_median_follows_dp(self, newick, tie):
        doc = parse_newick(newick)
        labeling = median_down(doc.tree, bottom_up_intervals(doc.tree, doc.leaf_labels), tie=tie)
        table = convex_up(doc.tree, doc.leaf_labels, MANHATTAN)
        expected = dp_down(doc.tree, table, MANHATTAN, tie=tie)
        assert labeling.values == expected.values
        assert labeling.total_cost == expected.total_cost


def test_up_phase_allocates_two_lists_of_ends():
    # the ends are leaf labels or children's ends, so beyond the lo and hi
    # lists by node id the up phase makes no object per node
    doc = random_document(10000, 0, 999, random.Random(5))
    bound = 3 * sys.getsizeof([0] * doc.tree.node_count)
    tracemalloc.start()
    try:
        iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.tree.node_count == len(iv.lo) == len(iv.hi) == 19999
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("down,tie", [(top_down_labels, "lowest"), (median_down, "lowest"),
                                      (median_down, "highest")])
def test_down_phase_allocates_one_list_of_labels(down, tie):
    # the labels are interval ends or parents' labels, so beyond the list
    # by node id a down phase makes no object per node
    doc = random_document(10000, 0, 999, random.Random(5))
    iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
    bound = 2 * sys.getsizeof([0] * doc.tree.node_count)
    tracemalloc.start()
    try:
        labeling = down(doc.tree, iv, tie=tie)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.tree.node_count == len(labeling.values) == 19999
    assert peak < bound, (peak, bound)


def test_interval_csv_shape():
    doc = parse_newick("((1,5),9);")
    csv = bottom_up_intervals(doc.tree, doc.leaf_labels).csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "node,lo,hi"
    assert lines[1] == "0,5,9"
    assert lines[2] == "1,1,5"
    assert len(lines) == 6
