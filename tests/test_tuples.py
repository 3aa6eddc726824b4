import random

import pytest

import treelabel.tuples as tuples_module
from helpers import tuple_brute_force_cost
from treelabel import (
    CostFunction,
    Labeling,
    MissingNodeLabel,
    NotBinaryTree,
    TupleDecompositionNotMonotone,
    TupleLeafLabeling,
    TupleLengthMismatch,
    TupleNotMonotone,
    eval_total,
    parse_newick,
    parse_newick_tuples,
    random_document,
    solve_interval,
    solve_ktuple,
    tuple_cost,
)

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

    def test_monotone_enforced(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(TupleNotMonotone):
            TupleLeafLabeling.for_tree(doc.tree, {1: (2, 1), 2: (1, 2)})

    def test_coordinate_projection(self):
        doc = tuple_doc("(1|3,2|9);")
        coord = doc.leaf_labels.coordinate(doc.tree, 1)
        assert coord.labels == {1: 3, 2: 9}
        assert (coord.g_min, coord.g_max) == (3, 9)


class TestTupleCost:
    def test_k1_collapses_to_eval_total(self):
        doc = parse_newick("((1,5),9);")
        scalar = solve_interval(doc.tree, doc.leaf_labels)
        as_tuples = {v: (x,) for v, x in scalar.values.items()}
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

    def test_missing_node(self):
        doc = tuple_doc("(1|4,3|8);")
        with pytest.raises(MissingNodeLabel):
            tuple_cost(doc.tree, MANHATTAN, {1: (1, 4), 2: (3, 8)})

    def test_non_monotone_rejected(self):
        doc = tuple_doc("(1|4,3|8);")
        with pytest.raises(TupleNotMonotone):
            tuple_cost(doc.tree, MANHATTAN, {0: (4, 1), 1: (1, 4), 2: (3, 8)})


class TestSolveKtuple:
    def test_k1_bit_identical_to_scalar_interval(self):
        doc = parse_newick("((1,5),9);")
        scalar = solve_interval(doc.tree, doc.leaf_labels)
        as_tuples = TupleLeafLabeling.for_tree(
            doc.tree, {v: (x,) for v, x in doc.leaf_labels.labels.items()}
        )
        result = solve_ktuple(doc.tree, as_tuples, MANHATTAN)
        assert result.total_cost == scalar.total_cost == 8
        assert result.values == {v: (x,) for v, x in scalar.values.items()}

    def test_cherry_k2_worked_value(self):
        doc = tuple_doc("(1|4,3|8);")
        result = solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN)
        assert result.values[0] == (1, 4)
        assert result.total_cost == 6

    def test_constant_tuples(self):
        doc = tuple_doc("(2|5,2|5,2|5);")
        result = solve_ktuple(doc.tree, doc.leaf_labels, SQUARE)
        assert result.total_cost == 0
        assert set(result.values.values()) == {(2, 5)}

    def test_k1_collapse_random(self):
        rng = random.Random(50)
        for _ in range(40):
            doc = random_document(rng.randint(2, 8), 0, 10, rng,
                                  arity="binary" if rng.random() < 0.5 else 3)
            cost = rng.choice([MANHATTAN, SQUARE])
            as_tuples = TupleLeafLabeling.for_tree(
                doc.tree, {v: (x,) for v, x in doc.leaf_labels.labels.items()}
            )
            result = solve_ktuple(doc.tree, as_tuples, cost)
            _, scalar, _ = tuples_module.solve_scalar(doc.tree, doc.leaf_labels, cost)
            assert result.total_cost == scalar.total_cost
            assert result.values == {v: (x,) for v, x in scalar.values.items()}

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

    def test_forced_interval_on_non_binary_rejected(self):
        doc = tuple_doc("(1|2,2|3,3|4);")
        with pytest.raises(NotBinaryTree):
            solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN, algorithm="interval")
        # auto quietly falls back to dp for the non-binary tree
        assert solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN).total_cost == \
            tuple_brute_force_cost(doc.tree, 2, doc.leaf_labels.labels, MANHATTAN)

    def test_decomposition_audit_failure_is_reported(self, monkeypatch):
        # force the per-coordinate solver to hand back crossing labels so
        # the audit path is exercised end to end
        doc = tuple_doc("(1|4,3|8);")

        def broken_solver(t, l, c, algorithm="auto", tie="lowest"):
            label = 9 if l.g_min == 1 else 0  # coordinate 0 above coordinate 1
            values = dict(l.labels)
            values[t.root] = label
            return "dp", Labeling(values=values, total_cost=0), None

        monkeypatch.setattr(tuples_module, "solve_scalar", broken_solver)
        with pytest.raises(TupleDecompositionNotMonotone) as info:
            solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN)
        err = info.value
        assert err.node == 0
        assert err.coordinate == 0
        assert err.reproducer["cost"] == "manhattan"
        assert err.reproducer["leaf_tuples"] == {1: (1, 4), 2: (3, 8)}


def _random_tuple_instance(rng, max_leaves, k, window):
    doc = random_document(rng.randint(2, max_leaves), 0, 1, rng, arity="binary")
    base = rng.randint(0, 3)
    labels = {}
    for v in doc.tree.leaves():
        parts = sorted(rng.randint(base, base + window - 1) for _ in range(k))
        labels[v] = tuple(parts)
    return doc, TupleLeafLabeling.for_tree(doc.tree, labels)
