import random

import pytest

from treelabel import (
    CostFunction,
    DifferenceOutOfRange,
    LeafLabeling,
    Labeling,
    MissingNodeLabel,
    brute_force_min,
    eval_total,
    parse_newick,
    random_document,
    theta,
)

MANHATTAN = CostFunction.manhattan()
SQUARE = CostFunction.power(2)


class TestTheta:
    def test_manhattan_identity(self):
        assert theta(MANHATTAN, 7) == 7

    def test_power_two(self):
        assert theta(SQUARE, 3) == 9

    @pytest.mark.parametrize(
        "cost",
        [MANHATTAN, SQUARE, CostFunction.power(5), CostFunction.from_table([0, 2, 3])],
    )
    def test_zero_difference_costs_zero(self, cost):
        assert theta(cost, 0) == 0

    @pytest.mark.parametrize(
        "cost", [MANHATTAN, CostFunction.power(3), CostFunction.from_table([0, 1, 4, 9])]
    )
    def test_strictly_increasing(self, cost):
        values = [theta(cost, d) for d in range(4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_table_lookup_and_range(self):
        cost = CostFunction.from_table([0, 5, 11])
        assert theta(cost, 2) == 11
        with pytest.raises(DifferenceOutOfRange):
            theta(cost, 3)

    def test_negative_difference_rejected(self):
        with pytest.raises(ValueError):
            theta(MANHATTAN, -1)

    def test_callable_sugar(self):
        assert SQUARE(4) == 16


class TestCostFunctionValidation:
    def test_table_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CostFunction.from_table([1, 2, 3])

    def test_table_must_strictly_increase(self):
        with pytest.raises(ValueError):
            CostFunction.from_table([0, 2, 2])

    def test_table_must_not_be_empty(self):
        with pytest.raises(ValueError):
            CostFunction.from_table([])

    def test_exponent_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            CostFunction.power(0)
        with pytest.raises(ValueError):
            CostFunction.power(1.5)

    @pytest.mark.parametrize(
        "spec,kind",
        [("manhattan", "manhattan"), ("power:3", "power"), ("table:0,1,4,9", "table")],
    )
    def test_from_spec_round_trips(self, spec, kind):
        cost = CostFunction.from_spec(spec)
        assert cost.kind == kind
        assert cost.spec() == spec

    @pytest.mark.parametrize("spec", ["power:x", "table:0,a", "euclid", "power:"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            CostFunction.from_spec(spec)


class TestLabelRange:
    @pytest.mark.parametrize(
        "newick,expected",
        [
            ("(2,7);", (2, 7, 6)),
            ("(4,(4,4));", (4, 4, 1)),
            ("((1,5),9);", (1, 9, 9)),
        ],
    )
    def test_examples(self, newick, expected):
        doc = parse_newick(newick)
        l = doc.leaf_labels
        assert (l.g_min, l.g_max, l.m) == expected

    def test_leaf_coverage_enforced(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(ValueError):
            LeafLabeling.for_tree(doc.tree, {1: 2})  # leaf 2 missing
        with pytest.raises(ValueError):
            LeafLabeling.for_tree(doc.tree, {0: 1, 1: 2, 2: 7})  # root is not a leaf


class TestEvalTotal:
    def test_cherry_two_edge_sum(self):
        doc = parse_newick("(2,7);")
        assert eval_total(doc.tree, MANHATTAN, {0: 4, 1: 2, 2: 7}) == 5

    def test_constant_labeling_costs_zero(self):
        doc = parse_newick("((3,3),(3,3));")
        values = {v: 4 for v in range(doc.tree.node_count)}
        assert eval_total(doc.tree, SQUARE, values) == 0

    def test_power_two_worked_value_is_also_the_minimum(self):
        doc = parse_newick("((1,5),9);")
        values = {0: 6, 1: 4, 2: 9, 3: 1, 4: 5}
        assert eval_total(doc.tree, SQUARE, values) == 23
        assert brute_force_min(doc.tree, doc.leaf_labels, SQUARE).cost == 23

    def test_accepts_labeling_object(self):
        doc = parse_newick("(2,7);")
        labeling = Labeling(values={0: 2, 1: 2, 2: 7}, total_cost=5)
        assert eval_total(doc.tree, MANHATTAN, labeling) == 5

    def test_missing_label(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(MissingNodeLabel):
            eval_total(doc.tree, MANHATTAN, {0: 4, 1: 2})

    def test_exact_huge_costs(self):
        doc = parse_newick("(0,1000);")
        cost = CostFunction.power(20)
        values = {0: 0, 1: 0, 2: 1000}
        assert eval_total(doc.tree, cost, values) == 1000 ** 20


def _random_full_labeling(doc, rng):
    lo, hi = doc.leaf_labels.g_min, doc.leaf_labels.g_max
    values = dict(doc.leaf_labels.labels)
    for v in range(doc.tree.node_count):
        if not doc.tree.is_leaf(v):
            values[v] = rng.randint(lo, hi)
    return values


class TestCostInvariances:
    COSTS = [MANHATTAN, SQUARE, CostFunction.from_table([0, 3, 4, 9, 12, 20, 21, 30, 31, 40, 55, 56, 70])]

    def test_translation_invariance(self):
        rng = random.Random(5)
        for _ in range(30):
            doc = random_document(rng.randint(2, 8), 0, 10, rng, arity=rng.randint(2, 4))
            values = _random_full_labeling(doc, rng)
            shift = rng.choice([-5, 3, 17])
            shifted = {v: x + shift for v, x in values.items()}
            for cost in self.COSTS:
                assert eval_total(doc.tree, cost, values) == eval_total(
                    doc.tree, cost, shifted
                )

    def test_reflection_invariance(self):
        rng = random.Random(6)
        for _ in range(30):
            doc = random_document(rng.randint(2, 8), 0, 10, rng, arity=rng.randint(2, 4))
            values = _random_full_labeling(doc, rng)
            pivot = doc.leaf_labels.g_min + doc.leaf_labels.g_max
            reflected = {v: pivot - x for v, x in values.items()}
            for cost in self.COSTS:
                assert eval_total(doc.tree, cost, values) == eval_total(
                    doc.tree, cost, reflected
                )

    def test_zero_cost_iff_all_labels_equal(self):
        rng = random.Random(7)
        for _ in range(30):
            doc = random_document(rng.randint(2, 8), 0, 6, rng)
            values = _random_full_labeling(doc, rng)
            for cost in self.COSTS:
                total = eval_total(doc.tree, cost, values)
                if len(set(values.values())) == 1:
                    assert total == 0
                else:
                    assert total > 0
