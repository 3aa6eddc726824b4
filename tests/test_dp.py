import math
import os
import random
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest

from helpers import (
    binary_dp_rows,
    count_calls,
    leaf_map,
    random_instance,
    random_strict_table,
    scan_dp_down,
    scan_dp_up,
    star_tree,
)
from treelabel import (
    CostFunction,
    DifferenceOutOfRange,
    LeafLabeling,
    UnsupportedAlgorithm,
    brute_force_min,
    TreeLabeler,
    choose_algorithm,
    convex_down,
    convex_up,
    dp_down,
    dp_up,
    eval_total,
    min_total,
    parse_newick,
    random_document,
    solve_scalar,
)

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
        assert (optimum.cost, optimum.label_sets[t.root]) == (7, [3])

    def test_internal_rows_finite_everywhere(self):
        rng = random.Random(11)
        for _ in range(20):
            doc = random_document(rng.randint(2, 7), 0, 9, rng, arity=rng.randint(2, 4))
            ct = dp_up(doc.tree, doc.leaf_labels, SQUARE)
            for v in range(doc.tree.node_count):
                if not doc.tree.is_leaf(v):
                    assert all(x != INF for x in ct.rows[v])

    def test_leaves_with_one_label_share_their_row(self):
        doc = parse_newick("((4,2),(4,(2,4)));")
        for up_phase in (dp_up, convex_up):
            ct = up_phase(doc.tree, doc.leaf_labels, SQUARE)
            row_of_label = {}
            for v, label in leaf_map(doc.leaf_labels).items():
                assert ct.rows[v] is row_of_label.setdefault(label, ct.rows[v])
            assert sorted(row_of_label) == [2, 4]
            assert row_of_label[2] == (0, INF, INF)

    def test_custom_table_too_short_rejected_up_front(self):
        doc = parse_newick("(0,9);")  # needs differences up to 9
        for up_phase in (dp_up, convex_up):
            with pytest.raises(DifferenceOutOfRange):
                up_phase(doc.tree, doc.leaf_labels, CostFunction.from_table([0, 1, 2]))

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
        assert set(labeling.values) == {4}

    def test_leaves_keep_observed_labels(self):
        rng = random.Random(14)
        for _ in range(20):
            doc = random_document(rng.randint(2, 8), 0, 9, rng, arity=rng.randint(2, 4))
            labeling = solve_scalar(doc.tree, doc.leaf_labels, SQUARE, "dp")[1]
            for leaf, p in leaf_map(doc.leaf_labels).items():
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
        labeling = solve_scalar(doc.tree, doc.leaf_labels, cost, "dp")[1]
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
                labeling = solve_scalar(doc.tree, doc.leaf_labels, cost, "dp")[1]
                assert labeling.total_cost == brute_force_min(
                    doc.tree, doc.leaf_labels, cost
                ).cost

    def test_labels_stay_in_leaf_range(self):
        rng = random.Random(16)
        for _ in range(40):
            doc = random_document(rng.randint(2, 8), -3, 9, rng, arity=rng.randint(2, 4))
            labeling = solve_scalar(doc.tree, doc.leaf_labels, SQUARE, "dp")[1]
            lo, hi = doc.leaf_labels.g_min, doc.leaf_labels.g_max
            assert all(lo <= x <= hi for x in labeling.values)

    def test_cached_cost_matches_recomputation(self):
        rng = random.Random(17)
        for _ in range(30):
            doc = random_document(rng.randint(2, 8), 0, 12, rng, arity=rng.randint(2, 4))
            for tie in ("lowest", "highest"):
                labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp", tie=tie)[1]
                assert labeling.total_cost == eval_total(doc.tree, MANHATTAN, labeling)

    def test_translation_equivariance(self):
        rng = random.Random(18)
        for _ in range(25):
            doc = random_document(rng.randint(2, 7), 0, 9, rng, arity=rng.randint(2, 4))
            shift = rng.choice([-5, 17])
            shifted_labels = {v: x + shift for v, x in leaf_map(doc.leaf_labels).items()}
            shifted = LeafLabeling.for_tree(doc.tree, shifted_labels)
            for cost in (MANHATTAN, SQUARE):
                base = solve_scalar(doc.tree, doc.leaf_labels, cost, "dp")[1]
                moved = solve_scalar(doc.tree, shifted, cost, "dp")[1]
                assert moved.total_cost == base.total_cost
                assert all(
                    moved.values[v] == base.values[v] + shift
                    for v in range(doc.tree.node_count)
                )

    def test_manhattan_lower_bound(self):
        rng = random.Random(19)
        for _ in range(30):
            doc = random_document(rng.randint(2, 9), 0, 15, rng, arity=rng.randint(2, 4))
            labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp")[1]
            assert labeling.total_cost >= doc.leaf_labels.g_max - doc.leaf_labels.g_min

    def test_huge_exact_arithmetic(self):
        doc = parse_newick("(0,(0,64));")
        cost = CostFunction.power(11)
        labeling = solve_scalar(doc.tree, doc.leaf_labels, cost, "dp")[1]
        assert labeling.total_cost == brute_force_min(doc.tree, doc.leaf_labels, cost).cost
        assert labeling.total_cost > 2 ** 53  # beyond float precision

    def test_power_one_equals_manhattan(self):
        rng = random.Random(21)
        power_one = CostFunction.power(1)
        for _ in range(25):
            doc = random_document(rng.randint(2, 7), 0, 10, rng, arity=rng.randint(2, 4))
            a = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp")[1]
            b = solve_scalar(doc.tree, doc.leaf_labels, power_one, "dp")[1]
            assert a.total_cost == b.total_cost
            assert a.values == b.values

    def test_single_node_tree(self):
        doc = parse_newick("3;")
        labeling = solve_scalar(doc.tree, doc.leaf_labels, SQUARE, "dp")[1]
        assert labeling.values == [3]
        assert labeling.total_cost == 0

    def test_single_child_chain(self):
        # the child-sum recurrence handles unary internal nodes naturally
        doc = parse_newick("((1),9);")
        labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp")[1]
        assert labeling.total_cost == 8
        assert labeling.total_cost == brute_force_min(
            doc.tree, doc.leaf_labels, MANHATTAN
        ).cost
        chain = parse_newick("((5));")
        assert solve_scalar(chain.tree, chain.leaf_labels, SQUARE, "dp")[1].values == [5, 5, 5]


def test_cost_table_csv_shape():
    doc = parse_newick("(2,7);")
    csv = dp_up(doc.tree, doc.leaf_labels, MANHATTAN).csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "node,2,3,4,5,6,7"
    assert lines[1] == "0,5,5,5,5,5,5"
    assert lines[2] == "1,0,inf,inf,inf,inf,inf"
    assert len(lines) == 4


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
            t, leaves = random_instance(rng, n_nodes, lo, lo + rng.randint(0, 9))
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
        labeling = solve_scalar(doc.tree, doc.leaf_labels, cost, "dp")[1]
        assert labeling.total_cost == brute_force_min(doc.tree, doc.leaf_labels, cost).cost

    def test_convex_up_matches_dp(self):
        doc = parse_newick("((0,(0,64)),(64,(3,(7,40))));")
        cost = CostFunction.power(200)
        table = convex_up(doc.tree, doc.leaf_labels, cost)
        assert table == dp_up(doc.tree, doc.leaf_labels, cost)
        finite = [x for row in table.rows for x in row if x != INF]
        assert all(type(x) is int for x in finite)
        assert max(finite) > 1e308


# increments 1, 1, 2, 2, 2, 3, ...: nondecreasing with equal steps, so
# convex without being strictly convex; long enough for spans up to 12
CONVEX_TABLE = CostFunction.from_spec("table:0,1,2,4,6,8,11,14,17,21,25,29,34")


@pytest.mark.parametrize(
    "spec,convex",
    [
        ("manhattan", True),
        ("power:1", True),
        ("power:7", True),
        ("table:0", True),
        ("table:0,3", True),
        ("table:0,1,2,3", True),
        ("table:0,1,2,4,6,8", True),
        ("table:0,2,3", False),
        ("table:0,5,6,11", False),
        # judged on the whole table: only the last increment decreases
        ("table:0,1,2,4,6,8,9", False),
    ],
)
def test_is_convex(spec, convex):
    assert CostFunction.from_spec(spec).is_convex is convex


class TestConvexUp:
    """The slope merge builds dp_up's table, so every labeling is dp's too."""

    COSTS = (MANHATTAN, SQUARE, CostFunction.power(3), CostFunction.power(200), CONVEX_TABLE)

    def test_tables_and_labelings_identical_to_dp(self):
        rng = random.Random(23)
        shapes = {"single": 0, "unary": 0, "wide": 0, "m=1": 0}
        for index in range(120):
            n_nodes = 1 if index == 0 else rng.randint(2, 14)
            lo = rng.randint(-5, 5)
            span = 0 if index % 10 == 1 else rng.randint(0, 12)
            t, leaves = random_instance(rng, n_nodes, lo, lo + span)
            arities = [len(t.children[v]) for v in range(t.node_count) if not t.is_leaf(v)]
            shapes["single"] += t.node_count == 1
            shapes["unary"] += 1 in arities
            shapes["wide"] += any(a >= 3 for a in arities)
            shapes["m=1"] += leaves.m == 1
            for cost in self.COSTS:
                table = convex_up(t, leaves, cost)
                assert table == dp_up(t, leaves, cost)
                assert table.rows == scan_dp_up(t, leaves, cost).rows
                for tie in ("lowest", "highest"):
                    name, got, up_phase = solve_scalar(t, leaves, cost, "convex", tie)
                    _, expected, _ = solve_scalar(t, leaves, cost, "dp", tie)
                    assert (name, up_phase) == ("convex", table)
                    assert got.values == expected.values
                    assert got.total_cost == expected.total_cost
        assert all(count > 0 for count in shapes.values()), shapes

    def test_a_wide_node_fits_a_small_thread_stack(self):
        # the up phase sums a node's parts through lazy maps, each nesting one
        # C call per entry; a chain of 10,000 of them overflowed a 256 KiB
        # thread stack, so it runs in a child process, which an overflow kills
        code = (
            "import threading\n"
            "from treelabel import CostFunction, convex_up, parse_newick\n"
            "def solve():\n"
            "    doc = parse_newick('(' + ','.join(str(v % 64) for v in range(10000)) + ');')\n"
            "    row = convex_up(doc.tree, doc.leaf_labels, CostFunction.power(2)).rows[0]\n"
            "    assert row == tuple(sum((i - v % 64) ** 2 for v in range(10000)) for i in range(64))\n"
            "    print('solved')\n"
            "threading.stack_size(256 * 1024)\n"
            "thread = threading.Thread(target=solve)\n"
            "thread.start()\n"
            "thread.join()\n"
        )
        package = Path(convex_up.__code__.co_filename).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "solved\n", "")

    def test_non_convex_cost_rejected(self):
        doc = parse_newick("((0,3),(1,2,2));")
        cost = CostFunction.from_spec("table:0,5,6,11")
        with pytest.raises(UnsupportedAlgorithm):
            convex_up(doc.tree, doc.leaf_labels, cost)
        with pytest.raises(UnsupportedAlgorithm):
            choose_algorithm("convex", doc.tree, cost)
        assert choose_algorithm("auto", doc.tree, cost) == "dp"
        assert choose_algorithm("auto", doc.tree, SQUARE) == "convex"


class TestConvexDown:
    """The step search picks the labels of the direct scan, ties included."""

    def test_labels_identical_to_the_scan(self):
        rng = random.Random(29)
        shapes = {"single": 0, "unary": 0, "wide": 0, "m=1": 0}
        for index in range(120):
            n_nodes = 1 if index == 0 else rng.randint(2, 14)
            lo = rng.randint(-5, 5)
            span = 0 if index % 10 == 1 else rng.randint(0, 12)
            t, leaves = random_instance(rng, n_nodes, lo, lo + span)
            arities = [len(t.children[v]) for v in range(t.node_count) if not t.is_leaf(v)]
            shapes["single"] += t.node_count == 1
            shapes["unary"] += 1 in arities
            shapes["wide"] += any(a >= 3 for a in arities)
            shapes["m=1"] += leaves.m == 1
            for cost in TestConvexUp.COSTS:
                table = convex_up(t, leaves, cost)
                for tie in ("lowest", "highest"):
                    got = convex_down(t, table, cost, tie)
                    expected = scan_dp_down(t, table, cost, tie)
                    assert got.values == expected.values
                    assert got.total_cost == expected.total_cost
        assert all(count > 0 for count in shapes.values()), shapes

    # spans far past the random instances' 12, where each pick takes 8-13
    # probes; the table cost has convex increments of its own length
    @staticmethod
    def _long_span_costs(rng, m):
        steps = sorted(rng.randint(1, 40) for _ in range(m - 1))
        table = CostFunction.from_table([0, *accumulate(steps)])
        return (MANHATTAN, SQUARE, CostFunction.power(3), table)

    @staticmethod
    def _spanning(rng, n_nodes, lo, span, max_arity):
        """A random instance whose first and last leaves take lo and lo + span."""
        while True:
            t, leaves = random_instance(rng, n_nodes, lo, lo + span, max_arity)
            ids = t.leaves()
            if len(ids) > 1:
                labels = leaf_map(leaves)
                labels[ids[0]], labels[ids[-1]] = lo, lo + span
                return t, LeafLabeling.for_tree(t, labels)

    def _assert_scan_labels(self, t, leaves, costs):
        for cost in costs:
            table = convex_up(t, leaves, cost)
            for tie in ("lowest", "highest"):
                assert convex_down(t, table, cost, tie) == scan_dp_down(t, table, cost, tie)

    def test_spans_of_hundreds_identical_to_the_scan(self):
        rng = random.Random(31)
        arities = set()
        for _ in range(8):
            span = rng.randint(200, 1000)
            t, leaves = self._spanning(rng, rng.randint(4, 14), rng.randint(-50, 50), span, 5)
            assert leaves.m == span + 1
            arities.update(len(t.children[v]) for v in range(t.node_count) if not t.is_leaf(v))
            self._assert_scan_labels(t, leaves, self._long_span_costs(rng, leaves.m))
        assert arities == {1, 2, 3, 4, 5}

    def test_a_span_of_5000_identical_to_the_scan(self):
        rng = random.Random(37)
        for _ in range(2):
            t, leaves = self._spanning(rng, 6, 0, 5000, 3)
            self._assert_scan_labels(t, leaves, self._long_span_costs(rng, leaves.m))

    def test_costs_beyond_float_range_identical_to_dp(self):
        doc = parse_newick("((0,(0,64)),(64,(3,(7,40))));")
        cost = CostFunction.power(200)
        table = convex_up(doc.tree, doc.leaf_labels, cost)
        for tie in ("lowest", "highest"):
            assert convex_down(doc.tree, table, cost, tie) == dp_down(doc.tree, table, cost, tie)

    def test_flat_stretches_break_ties_both_ways(self):
        # the root takes 7; given that, |7 - j| + |j - 2| is 5 for every j
        # in [2, 7], so the unary node 1 may take any of them
        doc = parse_newick("((2),7,7);")
        table = convex_up(doc.tree, doc.leaf_labels, MANHATTAN)
        for tie in ("lowest", "highest"):
            got = convex_down(doc.tree, table, MANHATTAN, tie)
            assert got == dp_down(doc.tree, table, MANHATTAN, tie)
        assert convex_down(doc.tree, table, MANHATTAN).values[1] == 2
        assert convex_down(doc.tree, table, MANHATTAN, "highest").values[1] == 7

    def test_non_convex_cost_rejected_before_any_work(self):
        doc = parse_newick("((0,3),(1,2,2));")
        cost = CostFunction.from_spec("table:0,5,6,11")
        # neither the tree nor the table is read before the check
        with pytest.raises(UnsupportedAlgorithm):
            convex_down(None, None, cost)
        with pytest.raises(UnsupportedAlgorithm):
            convex_down(doc.tree, dp_up(doc.tree, doc.leaf_labels, cost), cost)

    @pytest.mark.parametrize(
        "algorithm, runs, skips",
        [("convex", convex_down, dp_down), ("dp", dp_down, convex_down)],
        ids=["convex", "dp"],
    )
    def test_each_solver_runs_its_own_down_phase(self, monkeypatch, algorithm, runs, skips):
        run_calls = count_calls(monkeypatch, runs)
        skip_calls = count_calls(monkeypatch, skips)
        est = TreeLabeler(algorithm=algorithm, cost="power:2").fit("((1,5,2),(9,(3)));")
        assert est.algorithm_ == algorithm
        assert (len(run_calls), len(skip_calls)) == (1, 0)
