import random

import pytest

import treelabel.tuples as tuples_module
from helpers import count_calls, leaf_map, tuple_brute_force_cost
from treelabel import (
    CostFunction,
    Labeling,
    MissingNodeLabel,
    TupleDecompositionNotMonotone,
    TupleLeafLabeling,
    TupleLengthMismatch,
    TupleNotMonotone,
    build_tree,
    choose_algorithm,
    eval_total,
    is_binary,
    parse_newick,
    parse_newick_tuples,
    random_document,
    solve_ktuple,
    solve_scalar,
    tuple_cost,
)
from treelabel.costs import check_leaf_coverage, columns_ordered, first_decrease

MANHATTAN = CostFunction.manhattan()
SQUARE = CostFunction.power(2)


def tuple_doc(newick):
    return parse_newick_tuples(newick)


class TestTupleLeafLabeling:
    def test_for_tree_validates_coverage(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(ValueError):
            TupleLeafLabeling.for_tree(doc.tree, {1: (1, 2)})

    def test_uniform_k_enforced(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(TupleLengthMismatch):
            TupleLeafLabeling.for_tree(doc.tree, {1: (1, 2), 2: (1,)})

    def test_empty_tuples_rejected(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(ValueError, match="at least one component"):
            TupleLeafLabeling.for_tree(doc.tree, {1: (), 2: ()})

    def test_monotone_enforced(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(TupleNotMonotone):
            TupleLeafLabeling.for_tree(doc.tree, {1: (2, 1), 2: (1, 2)})

    @pytest.mark.parametrize("tup", [(1.9, 1.2), (1, 2.0), (1, "2")])
    def test_non_integer_components_rejected(self, tup):
        # int() would turn the decreasing (1.9, 1.2) into the valid (1, 1)
        doc = parse_newick("(2,7);")
        with pytest.raises(ValueError, match="of leaf 1 must be an integer"):
            TupleLeafLabeling.for_tree(doc.tree, {1: tup, 2: (1, 2)})

    def test_leaf_coverage_checked_once_per_parse_and_solve(self, monkeypatch):
        calls = count_calls(monkeypatch, check_leaf_coverage)
        doc = parse_newick_tuples("((1|2|3,4|5|6),7|8|9);")
        result = solve_ktuple(doc.tree, doc.leaf_labels, CostFunction.manhattan())
        assert doc.leaf_labels.k == 3
        assert result.total_cost == 18
        # the parse keys the tuples by the tree's own leaves, so it has no
        # coverage to check, and the solve trusts the labeling it is given
        assert len(calls) == 0


class TestTupleCost:
    def test_k1_collapses_to_eval_total(self):
        doc = parse_newick("((1,5),9);")
        scalar = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
        as_tuples = [(x,) for x in scalar.values]
        assert tuple_cost(doc.tree, MANHATTAN, as_tuples) == eval_total(
            doc.tree, MANHATTAN, scalar
        )

    def test_cherry_worked_value(self):
        doc = tuple_doc("(1|4,3|8);")
        full = {0: (1, 4), 1: (1, 4), 2: (3, 8)}
        assert tuple_cost(doc.tree, MANHATTAN, full) == 6
        # ... and 6 is also the constrained optimum
        assert tuple_brute_force_cost(doc.tree, 2, doc.leaf_labels.labels, MANHATTAN) == 6

    def test_identical_tuples_cost_zero(self):
        doc = tuple_doc("(2|5,2|5);")
        full = {v: (2, 5) for v in range(3)}
        assert tuple_cost(doc.tree, SQUARE, full) == 0

    def test_edge_joining_tuples_of_different_lengths(self):
        doc = tuple_doc("(1|4,3|8);")
        with pytest.raises(TupleLengthMismatch, match="joins a 1-tuple to a 2-tuple"):
            tuple_cost(doc.tree, MANHATTAN, {0: (1,), 1: (1, 4), 2: (3, 8)})

    def test_missing_node(self):
        doc = tuple_doc("(1|4,3|8);")
        with pytest.raises(MissingNodeLabel):
            tuple_cost(doc.tree, MANHATTAN, {1: (1, 4), 2: (3, 8)})

    def test_missing_nodes_name_the_lowest(self):
        # root 2 over leaves 0 and 1: edge order meets node 2 first
        t = build_tree([2, 2, None])
        with pytest.raises(MissingNodeLabel, match="no label for node 0$"):
            tuple_cost(t, MANHATTAN, {1: (1, 4)})

    def test_keys_that_are_not_nodes_are_ignored(self):
        doc = tuple_doc("(1|4,3|8);")
        full = {0: (1, 4), 1: (1, 4), 2: (3, 8), 9: (5, 1)}
        assert tuple_cost(doc.tree, MANHATTAN, full) == 6

    def test_non_monotone_rejected(self):
        doc = tuple_doc("(1|4,3|8);")
        with pytest.raises(TupleNotMonotone):
            tuple_cost(doc.tree, MANHATTAN, {0: (4, 1), 1: (1, 4), 2: (3, 8)})


def _scan_decrease(rows):
    """The first (v, i) with rows[v][i] > rows[v][i + 1], tuple by tuple, or None."""
    for v, row in enumerate(rows):
        for i in range(len(row) - 1):
            if row[i] > row[i + 1]:
                return v, i
    return None


class TestFirstDecrease:
    """The one monotone rule, by columns, against a plain scan."""

    def test_matches_the_scan(self):
        rng = random.Random(4242)
        found = 0
        for _ in range(2000):
            n, k = rng.randint(0, 12), rng.randint(1, 4)
            mixed = rng.random() < 0.3
            rows = []
            for _ in range(n):
                row = sorted(rng.randint(-3, 3) for _ in range(rng.randint(0, 4) if mixed else k))
                if rng.random() < 0.1 and len(row) > 1:
                    rng.shuffle(row)
                rows.append(tuple(row))
            expected = _scan_decrease(rows)
            found += expected is not None
            assert first_decrease(rows) == expected, rows
            if not mixed:
                assert columns_ordered(list(zip(*rows))) == (expected is None), rows
        assert 100 < found < 1900

    def test_lowest_tuple_then_lowest_coordinate(self):
        assert first_decrease([(1, 2, 3), (3, 2, 1), (5, 1, 0)]) == (1, 0)
        assert first_decrease([(1, 2, 3), (1, 3, 2), (5, 1, 0)]) == (1, 1)
        assert first_decrease([(1,), (0,)]) is None
        assert first_decrease([(1, 2), (0, 1, 5, 4), (3,)]) == (1, 2)

    def test_leaves_are_checked_in_ascending_order(self):
        # the mapping's order is not the leaves' order
        t = build_tree([None, 0, 0, 0])
        with pytest.raises(TupleNotMonotone, match=r"^tuple \(2, 1\) at leaf 1 decreases$"):
            TupleLeafLabeling.for_tree(t, {3: (1, 2, 3), 2: (0, 0), 1: (2, 1)})
        with pytest.raises(TupleLengthMismatch, match="^leaf 2 has a 3-tuple; expected k=2$"):
            TupleLeafLabeling.for_tree(t, {3: (2, 1), 2: (1, 2, 3), 1: (0, 0)})

    def test_tuple_cost_checks_every_node_before_the_lengths(self):
        doc = tuple_doc("(1|4,3|8);")
        with pytest.raises(TupleNotMonotone, match=r"^tuple \(8, 3\) at node 2 decreases$"):
            tuple_cost(doc.tree, MANHATTAN, [(1, 4), (1, 4, 5), (8, 3)])
        with pytest.raises(TupleLengthMismatch, match=r"^edge \(0, 1\) joins a 2-tuple to a 3-tuple$"):
            tuple_cost(doc.tree, MANHATTAN, [(1, 4), (1, 4, 5), (3, 8)])
        with pytest.raises(TupleNotMonotone, match=r"^tuple \(5, 4\) at node 1 decreases$"):
            tuple_cost(doc.tree, MANHATTAN, [(1, 4), (5, 4), (8, 3)])


class TestSolveKtuple:
    def test_binarity_checked_once_per_solve(self, monkeypatch):
        calls = count_calls(monkeypatch, is_binary)
        doc = parse_newick_tuples("((1|2|3,4|5|6),7|8|9);")
        result = solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN)
        assert doc.leaf_labels.k == 3
        assert result.total_cost == 18
        assert len(calls) == 1

    def test_k1_bit_identical_to_scalar_interval(self):
        doc = parse_newick("((1,5),9);")
        scalar = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
        as_tuples = TupleLeafLabeling.for_tree(
            doc.tree, {v: (x,) for v, x in leaf_map(doc.leaf_labels).items()}
        )
        result = solve_ktuple(doc.tree, as_tuples, MANHATTAN)
        assert result.total_cost == scalar.total_cost == 8
        assert result.values == [(x,) for x in scalar.values]

    def test_returns_a_labeling(self):
        doc = tuple_doc("(1|4,3|8);")
        result = solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN)
        assert type(result) is Labeling
        assert result == Labeling(values=[(1, 4), (1, 4), (3, 8)], total_cost=6)
        assert tuple_cost(doc.tree, MANHATTAN, result) == 6

    def test_cherry_k2_worked_value(self):
        doc = tuple_doc("(1|4,3|8);")
        result = solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN)
        assert result.values[0] == (1, 4)
        assert result.total_cost == 6

    def test_constant_tuples(self):
        doc = tuple_doc("(2|5,2|5,2|5);")
        result = solve_ktuple(doc.tree, doc.leaf_labels, SQUARE)
        assert result.total_cost == 0
        assert set(result.values) == {(2, 5)}

    def test_k1_collapse_random(self):
        rng = random.Random(50)
        for _ in range(40):
            doc = random_document(rng.randint(2, 8), 0, 10, rng,
                                  arity="binary" if rng.random() < 0.5 else 3)
            cost = rng.choice([MANHATTAN, SQUARE])
            as_tuples = TupleLeafLabeling.for_tree(
                doc.tree, {v: (x,) for v, x in leaf_map(doc.leaf_labels).items()}
            )
            result = solve_ktuple(doc.tree, as_tuples, cost)
            _, scalar, _ = tuples_module.solve_scalar(doc.tree, doc.leaf_labels, cost)
            assert result.total_cost == scalar.total_cost
            assert result.values == [(x,) for x in scalar.values]

    def test_cached_cost_matches_recomputation(self):
        rng = random.Random(51)
        for _ in range(25):
            doc, labels = _random_tuple_instance(rng, max_leaves=6, k=2, window=8)
            result = solve_ktuple(doc.tree, labels, MANHATTAN)
            assert result.total_cost == tuple_cost(doc.tree, MANHATTAN, result)

    def test_matches_constrained_brute_force_when_audit_passes(self):
        rng = random.Random(52)
        checked = 0
        for _ in range(30):
            doc, labels = _random_tuple_instance(rng, max_leaves=4, k=2, window=5)
            result = solve_ktuple(doc.tree, labels, MANHATTAN)  # audit inside
            expected = tuple_brute_force_cost(doc.tree, 2, labels.labels, MANHATTAN)
            assert result.total_cost == expected
            checked += 1
        assert checked == 30

    def test_forced_interval_on_non_binary_solves(self):
        doc = tuple_doc("(1|2,2|3,3|4);")
        expected = tuple_brute_force_cost(doc.tree, 2, doc.leaf_labels.labels, MANHATTAN)
        forced = solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN, algorithm="interval")
        assert forced.total_cost == expected
        # auto takes median for the non-binary tree
        assert choose_algorithm("auto", doc.tree, MANHATTAN) == "median"
        assert solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN).total_cost == expected

    def test_decomposition_audit_failure_is_reported(self, monkeypatch):
        # force the per-coordinate solver to hand back crossing labels so
        # the audit path is exercised end to end
        doc = tuple_doc("(1|4,3|8);")

        def broken_solver(t, l, c, algorithm="auto", tie="lowest"):
            label = 9 if l.g_min == 1 else 0  # coordinate 0 above coordinate 1
            # a solver's labels are a list by node id
            values = [label if x is None else x for x in l.labels]
            return "dp", Labeling(values=values, total_cost=0), None

        monkeypatch.setattr(tuples_module, "solve_scalar", broken_solver)
        with pytest.raises(TupleDecompositionNotMonotone) as info:
            solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN)
        err = info.value
        assert err.node == 0
        assert err.coordinate == 0
        assert err.reproducer["cost"] == "manhattan"
        assert err.reproducer["leaf_tuples"] == {1: (1, 4), 2: (3, 8)}

    def test_decomposition_audit_reports_the_node_major_first_crossing(self, monkeypatch):
        # internal labels per coordinate: node 1 crosses only in the last
        # pair (2, 3), node 2 in pairs (0, 1) and (1, 2); the smallest node
        # comes first, whatever coordinate pair it crosses in
        doc = tuple_doc("((1|2|3|4,2|3|4|5),(3|4|5|6,4|5|6|7));")
        internal = {0: (0, 1, 2, 3), 1: (0, 1, 5, 4), 2: (9, 8, 7, 7)}
        coordinates = iter(range(4))

        def crossing_solver(t, l, c, algorithm="auto", tie="lowest"):
            i = next(coordinates)
            values = [
                internal[v][i] if v in internal else l.labels[v] for v in range(t.node_count)
            ]
            return "median", Labeling(values=values, total_cost=0), None

        monkeypatch.setattr(tuples_module, "solve_scalar", crossing_solver)
        with pytest.raises(TupleDecompositionNotMonotone) as info:
            solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN)
        err = info.value
        assert (err.node, err.coordinate) == (1, 2)
        leaf_tuples = {3: (1, 2, 3, 4), 4: (2, 3, 4, 5), 5: (3, 4, 5, 6), 6: (4, 5, 6, 7)}
        assert err.reproducer == {
            "parents": [None, 0, 0, 1, 1, 2, 2],
            "leaf_tuples": leaf_tuples,
            "cost": "manhattan",
        }
        assert str(err) == (
            "coordinates 2 and 3 solve to 5 > 4 at node 1; instance: "
            f"parents=[None, 0, 0, 1, 1, 2, 2], leaf_tuples={leaf_tuples}, cost=manhattan"
        )


def _random_tuple_instance(rng, max_leaves, k, window):
    doc = random_document(rng.randint(2, max_leaves), 0, 1, rng, arity="binary")
    base = rng.randint(0, 3)
    labels = {}
    for v in doc.tree.leaves():
        parts = sorted(rng.randint(base, base + window - 1) for _ in range(k))
        labels[v] = tuple(parts)
    return doc, TupleLeafLabeling.for_tree(doc.tree, labels)
