import math
import random

import pytest

from helpers import (
    binary_dp_rows,
    random_strict_table,
    scan_dp_down,
    scan_dp_up,
    star_tree,
)
from treelabel import (
    CostFunction,
    DifferenceOutOfRange,
    LeafLabeling,
    brute_force_min,
    build_tree,
    dp_down,
    dp_up,
    eval_total,
    min_total,
    parse_newick,
    random_document,
    solve_dp,
)
from treelabel.dp import cost_table_csv

INF = math.inf
MANHATTAN = CostFunction.manhattan()
SQUARE = CostFunction.power(2)


class TestDpUp:
    def test_cherry_table(self):
        doc = parse_newick("(2,7);")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        assert (ct.g_min, ct.g_max) == (2, 7)
        assert ct.rows[1] == (0, INF, INF, INF, INF, INF)
        assert ct.rows[2] == (INF, INF, INF, INF, INF, 0)
        # S_root(i) = |i-2| + |i-7| = 5 across the whole range
        assert ct.rows[0] == (5, 5, 5, 5, 5, 5)

    def test_single_node_table(self):
        doc = parse_newick("3;")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        assert ct.rows == ((0,),)

    def test_star_row_is_sum_of_distances(self):
        t = star_tree(3)
        leaves = LeafLabeling.for_tree(t, {1: 1, 2: 3, 3: 8})
        ct = dp_up(t, leaves, MANHATTAN)
        expected = tuple(abs(i - 1) + abs(i - 3) + abs(i - 8) for i in range(1, 9))
        assert ct.rows[0] == expected
        # minimized at the median leaf label
        cost, labels = min_total(ct, t.root)
        assert (cost, labels) == (7, [3])
        optimum = brute_force_min(t, leaves, MANHATTAN)
        assert (optimum.cost, optimum.root_labels) == (7, [3])

    def test_internal_rows_finite_everywhere(self):
        rng = random.Random(11)
        for _ in range(20):
            doc = random_document(rng.randint(2, 7), 0, 9, rng, arity=rng.randint(2, 4))
            ct = dp_up(doc.tree, doc.leaf_labels, SQUARE)
            for v in range(doc.tree.node_count):
                if not doc.tree.is_leaf(v):
                    assert all(x != INF for x in ct.rows[v])

    def test_custom_table_too_short_rejected_up_front(self):
        doc = parse_newick("(0,9);")  # needs differences up to 9
        with pytest.raises(DifferenceOutOfRange):
            dp_up(doc.tree, doc.leaf_labels, CostFunction.from_table([0, 1, 2]))

    def test_matches_two_term_binary_recurrence(self):
        # the general child-sum recurrence must equal the explicit
        # two-term binary form on binary trees
        rng = random.Random(12)
        for _ in range(25):
            doc = random_document(rng.randint(2, 8), 0, 8, rng, arity="binary")
            for cost in (MANHATTAN, SQUARE, random_strict_table(rng, 9)):
                ct = dp_up(doc.tree, doc.leaf_labels, cost)
                reference = binary_dp_rows(doc.tree, doc.leaf_labels, cost)
                for v in range(doc.tree.node_count):
                    assert ct.rows[v] == reference[v]


class TestMinTotal:
    def test_cherry_full_interval_of_optima(self):
        doc = parse_newick("(2,7);")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        assert min_total(ct, doc.tree.root) == (5, [2, 3, 4, 5, 6, 7])

    def test_single_leaf(self):
        doc = parse_newick("3;")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        assert min_total(ct, doc.tree.root) == (0, [3])

    def test_root_row_minimum_is_global_optimum(self):
        rng = random.Random(13)
        for _ in range(20):
            doc = random_document(rng.randint(2, 6), 0, 6, rng, arity=rng.randint(2, 3))
            ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
            cost, _ = min_total(ct, doc.tree.root)
            assert cost == brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN).cost
            # every node's best-case subtree cost never exceeds the optimum
            for v in range(doc.tree.node_count):
                assert min(ct.rows[v]) <= cost


class TestDpDown:
    def test_cherry_smallest_tie(self):
        doc = parse_newick("(2,7);")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        labeling = dp_down(doc.tree, ct, MANHATTAN)
        assert labeling.values[0] == 2
        assert labeling.total_cost == 5

    def test_cherry_highest_tie(self):
        doc = parse_newick("(2,7);")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        assert dp_down(doc.tree, ct, MANHATTAN, tie="highest").values[0] == 7

    def test_five_node_reconstruction(self):
        doc = parse_newick("((1,5),9);")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        labeling = dp_down(doc.tree, ct, MANHATTAN)
        assert labeling.total_cost == 8
        assert labeling.values[0] == 5  # root
        assert labeling.values[1] == 5  # inner

    def test_equal_leaves_zero_cost(self):
        doc = parse_newick("(4,4);")
        ct = dp_up(doc.tree, doc.leaf_labels, SQUARE)
        labeling = dp_down(doc.tree, ct, SQUARE)
        assert labeling.total_cost == 0
        assert set(labeling.values.values()) == {4}

    def test_leaves_keep_observed_labels(self):
        rng = random.Random(14)
        for _ in range(20):
            doc = random_document(rng.randint(2, 8), 0, 9, rng, arity=rng.randint(2, 4))
            labeling = solve_dp(doc.tree, doc.leaf_labels, SQUARE)
            for leaf, p in doc.leaf_labels.labels.items():
                assert labeling.values[leaf] == p

    def test_bad_tie_rejected(self):
        doc = parse_newick("(2,7);")
        ct = dp_up(doc.tree, doc.leaf_labels, MANHATTAN)
        with pytest.raises(ValueError):
            dp_down(doc.tree, ct, MANHATTAN, tie="midpoint")


class TestSolveDp:
    @pytest.mark.parametrize(
        "newick,cost,expected",
        [
            ("((1,5),9);", MANHATTAN, 8),
            ("((1,5),9);", SQUARE, 23),
            ("(4,4);", SQUARE, 0),
            ("(4,4);", MANHATTAN, 0),
        ],
    )
    def test_worked_costs(self, newick, cost, expected):
        doc = parse_newick(newick)
        labeling = solve_dp(doc.tree, doc.leaf_labels, cost)
        assert labeling.total_cost == expected
        # cross-check against exhaustive enumeration
        assert brute_force_min(doc.tree, doc.leaf_labels, cost).cost == expected

    def test_oracle_equivalence_random(self):
        rng = random.Random(15)
        for _ in range(60):
            n = rng.randint(2, 6)
            lo = rng.randint(-4, 4)
            doc = random_document(n, lo, lo + rng.randint(0, 6), rng,
                                  arity="binary" if rng.random() < 0.6 else 3)
            for cost in (MANHATTAN, SQUARE, random_strict_table(rng, doc.leaf_labels.m)):
                labeling = solve_dp(doc.tree, doc.leaf_labels, cost)
                assert labeling.total_cost == brute_force_min(
                    doc.tree, doc.leaf_labels, cost
                ).cost

    def test_labels_stay_in_leaf_range(self):
        rng = random.Random(16)
        for _ in range(40):
            doc = random_document(rng.randint(2, 8), -3, 9, rng, arity=rng.randint(2, 4))
            labeling = solve_dp(doc.tree, doc.leaf_labels, SQUARE)
            lo, hi = doc.leaf_labels.g_min, doc.leaf_labels.g_max
            assert all(lo <= x <= hi for x in labeling.values.values())

    def test_cached_cost_matches_recomputation(self):
        rng = random.Random(17)
        for _ in range(30):
            doc = random_document(rng.randint(2, 8), 0, 12, rng, arity=rng.randint(2, 4))
            for tie in ("lowest", "highest"):
                labeling = solve_dp(doc.tree, doc.leaf_labels, MANHATTAN, tie=tie)
                assert labeling.total_cost == eval_total(doc.tree, MANHATTAN, labeling)

    def test_translation_equivariance(self):
        rng = random.Random(18)
        for _ in range(25):
            doc = random_document(rng.randint(2, 7), 0, 9, rng, arity=rng.randint(2, 4))
            shift = rng.choice([-5, 17])
            shifted_labels = {v: x + shift for v, x in doc.leaf_labels.labels.items()}
            shifted = LeafLabeling.for_tree(doc.tree, shifted_labels)
            for cost in (MANHATTAN, SQUARE):
                base = solve_dp(doc.tree, doc.leaf_labels, cost)
                moved = solve_dp(doc.tree, shifted, cost)
                assert moved.total_cost == base.total_cost
                assert all(
                    moved.values[v] == base.values[v] + shift
                    for v in range(doc.tree.node_count)
                )

    def test_manhattan_lower_bound(self):
        rng = random.Random(19)
        for _ in range(30):
            doc = random_document(rng.randint(2, 9), 0, 15, rng, arity=rng.randint(2, 4))
            labeling = solve_dp(doc.tree, doc.leaf_labels, MANHATTAN)
            assert labeling.total_cost >= doc.leaf_labels.g_max - doc.leaf_labels.g_min

    def test_huge_exact_arithmetic(self):
        doc = parse_newick("(0,(0,64));")
        cost = CostFunction.power(11)
        labeling = solve_dp(doc.tree, doc.leaf_labels, cost)
        assert labeling.total_cost == brute_force_min(doc.tree, doc.leaf_labels, cost).cost
        assert labeling.total_cost > 2 ** 53  # beyond float precision

    def test_power_one_equals_manhattan(self):
        rng = random.Random(21)
        power_one = CostFunction.power(1)
        for _ in range(25):
            doc = random_document(rng.randint(2, 7), 0, 10, rng, arity=rng.randint(2, 4))
            a = solve_dp(doc.tree, doc.leaf_labels, MANHATTAN)
            b = solve_dp(doc.tree, doc.leaf_labels, power_one)
            assert a.total_cost == b.total_cost
            assert a.values == b.values

    def test_single_node_tree(self):
        doc = parse_newick("3;")
        labeling = solve_dp(doc.tree, doc.leaf_labels, SQUARE)
        assert labeling.values == {0: 3}
        assert labeling.total_cost == 0

    def test_single_child_chain(self):
        # the child-sum recurrence handles unary internal nodes naturally
        doc = parse_newick("((1),9);")
        labeling = solve_dp(doc.tree, doc.leaf_labels, MANHATTAN)
        assert labeling.total_cost == 8
        assert labeling.total_cost == brute_force_min(
            doc.tree, doc.leaf_labels, MANHATTAN
        ).cost
        chain = parse_newick("((5));")
        assert solve_dp(chain.tree, chain.leaf_labels, SQUARE).values == {
            0: 5, 1: 5, 2: 5,
        }


def test_cost_table_csv_shape():
    doc = parse_newick("(2,7);")
    csv = cost_table_csv(dp_up(doc.tree, doc.leaf_labels, MANHATTAN))
    lines = csv.strip().split("\n")
    assert lines[0] == "node,2,3,4,5,6,7"
    assert lines[1] == "0,5,5,5,5,5,5"
    assert lines[2] == "1,0,inf,inf,inf,inf,inf"
    assert len(lines) == 4


def _random_instance(rng, n_nodes, lo, hi):
    """Random tree of arity 1-4 (unary chains included) with labels in [lo, hi].

    Nodes attach one by one to a random earlier node that has fewer than
    four children; nodes left childless are the leaves. n_nodes=1 is the
    single-node tree.
    """
    parent_of = [None]
    child_count = [0]
    for v in range(1, n_nodes):
        p = rng.choice([u for u in range(v) if child_count[u] < 4])
        parent_of.append(p)
        child_count[p] += 1
        child_count.append(0)
    t = build_tree(parent_of, [k == 0 for k in child_count])
    labels = {v: rng.randint(lo, hi) for v in t.leaves()}
    return t, LeafLabeling.for_tree(t, labels)


def _non_convex_table(m):
    """Strictly increasing, increments alternating 5, 1: not convex."""
    values = [0]
    for d in range(1, m):
        values.append(values[-1] + (5 if d % 2 else 1))
    return CostFunction.from_table(values)


class TestAgainstTripleLoop:
    """The windowed scan builds the same table and labeling as the plain loop."""

    def test_tables_and_labelings_identical(self):
        rng = random.Random(22)
        shapes = {"single": 0, "unary": 0, "wide": 0}
        for index in range(150):
            n_nodes = 1 if index == 0 else rng.randint(2, 14)
            lo = rng.randint(-5, 5)
            t, leaves = _random_instance(rng, n_nodes, lo, lo + rng.randint(0, 9))
            arities = [len(t.children[v]) for v in range(t.node_count) if not t.is_leaf(v)]
            shapes["single"] += t.node_count == 1
            shapes["unary"] += 1 in arities
            shapes["wide"] += any(a >= 3 for a in arities)
            for cost in (MANHATTAN, SQUARE, CostFunction.power(3), _non_convex_table(leaves.m)):
                table = dp_up(t, leaves, cost)
                reference = scan_dp_up(t, leaves, cost)
                assert table.rows == reference.rows
                for tie in ("lowest", "highest"):
                    got = dp_down(t, table, cost, tie=tie)
                    expected = scan_dp_down(t, reference, cost, tie=tie)
                    assert got.values == expected.values
                    assert got.total_cost == expected.total_cost
        assert all(count > 0 for count in shapes.values()), shapes


class TestBeyondFloatRange:
    """Costs above 1e308 stay exact ints: no int + inf, no OverflowError."""

    @pytest.mark.parametrize(
        "cost",
        [
            CostFunction.power(200),
            CostFunction.from_table([0] + [10 ** 309 + d for d in range(1, 65)]),
        ],
        ids=["power:200", "table-above-1e308"],
    )
    def test_matches_oracle(self, cost):
        doc = parse_newick("(0,(0,64));")
        assert cost(64) > 1e308
        labeling = solve_dp(doc.tree, doc.leaf_labels, cost)
        assert labeling.total_cost == brute_force_min(doc.tree, doc.leaf_labels, cost).cost
