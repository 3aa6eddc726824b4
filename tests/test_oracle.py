import random
from itertools import product

import pytest

from helpers import leaf_map, random_instance, recursive_minimum
from treelabel import (
    BudgetExceeded,
    CostFunction,
    brute_force_min,
    eval_total,
    optimal_label_sets,
    parse_newick,
    postorder,
    random_document,
)
from treelabel.oracle import DEFAULT_BUDGET, resolve_budget

MANHATTAN = CostFunction.manhattan()
SQUARE = CostFunction.power(2)


class TestBruteForceMin:
    def test_cherry(self):
        doc = parse_newick("(2,7);")
        result = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN)
        assert result.cost == 5
        assert result.label_sets[doc.tree.root] == [2, 3, 4, 5, 6, 7]
        assert not result.truncated
        assert len(result.labelings) == 6

    def test_five_node_manhattan(self):
        doc = parse_newick("((1,5),9);")
        assert brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN).cost == 8

    def test_five_node_power_two(self):
        doc = parse_newick("((1,5),9);")
        assert brute_force_min(doc.tree, doc.leaf_labels, SQUARE).cost == 23

    def test_single_leaf(self):
        doc = parse_newick("3;")
        result = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN)
        assert result.cost == 0
        assert result.label_sets[doc.tree.root] == [3]
        assert result.labelings[0].values == [3]

    def test_every_reported_labeling_reevaluates_to_the_cost(self):
        rng = random.Random(40)
        for _ in range(25):
            doc = random_document(rng.randint(2, 5), 0, 6, rng, arity=rng.randint(2, 3))
            for cost in (MANHATTAN, SQUARE):
                result = brute_force_min(doc.tree, doc.leaf_labels, cost)
                assert result.labelings
                for labeling in result.labelings:
                    assert eval_total(doc.tree, cost, labeling) == result.cost
                    assert labeling.total_cost == result.cost

    def test_truncation_keeps_root_labels_complete(self):
        doc = parse_newick("(2,7);")
        result = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN, max_labelings=2)
        assert result.truncated
        assert len(result.labelings) == 2
        assert result.label_sets[doc.tree.root] == [2, 3, 4, 5, 6, 7]

    def test_first_labeling_is_lexicographically_smallest(self):
        doc = parse_newick("(2,7);")
        result = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN)
        assert result.labelings[0].values[0] == 2

    def test_label_sets_collect_every_optimal_labeling(self):
        rng = random.Random(41)
        for _ in range(25):
            doc = random_document(rng.randint(1, 4), 0, 5, rng, arity=rng.randint(2, 3))
            for cost in (MANHATTAN, SQUARE):
                result = brute_force_min(doc.tree, doc.leaf_labels, cost)
                assert not result.truncated
                for v in range(doc.tree.node_count):
                    expected = sorted({lab.values[v] for lab in result.labelings})
                    assert result.label_sets[v] == expected

    def test_optima_come_in_postorder_lexicographic_order(self):
        # the order, the caps and the label sets are pinned against a plain
        # enumeration: labels of the internal nodes in postorder, ascending
        rng = random.Random(44)
        many = 0
        flat = CostFunction.from_table([0, 2, 3, 4, 5])  # concave: many ties
        for _ in range(100):
            t, l = random_instance(rng, rng.randint(1, 8), 0, rng.randint(2, 4), max_arity=3)
            internal = [v for v in postorder(t) if t.children[v]]
            for cost in (MANHATTAN, flat):
                scored = []
                for labels in product(range(l.g_min, l.g_max + 1), repeat=len(internal)):
                    by_node = {**leaf_map(l), **dict(zip(internal, labels))}
                    values = [by_node[v] for v in range(t.node_count)]
                    scored.append((eval_total(t, cost, values), values))
                best = min(total for total, _ in scored)
                optima = [values for total, values in scored if total == best]
                many += len(optima) > 2

                result = brute_force_min(t, l, cost, max_labelings=10**6)
                assert (result.cost, result.truncated) == (best, False)
                assert [labeling.values for labeling in result.labelings] == optima
                assert result.label_sets == [
                    sorted({values[v] for values in optima}) for v in range(t.node_count)
                ]
                for cap in (1, 2):
                    capped = brute_force_min(t, l, cost, max_labelings=cap)
                    assert [labeling.values for labeling in capped.labelings] == optima[:cap]
                    assert capped.truncated == (len(optima) > cap)
                    assert capped.label_sets == result.label_sets
        assert many >= 40

    def test_budget_refused_up_front(self):
        doc = parse_newick("((1,5),9);")  # m=9, 2 internal nodes: 81 assignments
        with pytest.raises(BudgetExceeded):
            brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN, budget=80)
        assert brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN, budget=81).cost == 8

    def test_budget_from_environment(self, monkeypatch):
        doc = parse_newick("((1,5),9);")
        monkeypatch.setenv("TREELABEL_BUDGET", "80")
        with pytest.raises(BudgetExceeded):
            brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN)
        monkeypatch.setenv("TREELABEL_BUDGET", "junk")
        with pytest.raises(ValueError):
            brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN)

    def test_resolve_budget_precedence(self, monkeypatch):
        assert resolve_budget(None) == DEFAULT_BUDGET
        assert resolve_budget(123) == 123
        monkeypatch.setenv("TREELABEL_BUDGET", "55")
        assert resolve_budget(None) == 55
        assert resolve_budget(123) == 123

    def test_agrees_with_independent_recursive_enumeration(self):
        rng = random.Random(41)
        for _ in range(30):
            doc = random_document(rng.randint(2, 5), 0, 5, rng, arity=rng.randint(2, 3))
            for cost in (MANHATTAN, SQUARE):
                result = brute_force_min(doc.tree, doc.leaf_labels, cost)
                ref_cost, ref_roots = recursive_minimum(doc.tree, doc.leaf_labels, cost)
                assert result.cost == ref_cost
                assert result.label_sets[doc.tree.root] == ref_roots


class TestEnumerateOptimal:
    def test_cherry_root_full_interval(self):
        doc = parse_newick("(2,7);")
        assert optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)[0] == [2, 3, 4, 5, 6, 7]

    def test_five_node_root(self):
        doc = parse_newick("((1,5),9);")
        assert optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)[0] == [5, 6, 7, 8, 9]

    def test_degenerate(self):
        doc = parse_newick("(4,4);")
        assert optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)[0] == [4]

    def test_leaf_sets_are_their_observed_labels(self):
        doc = parse_newick("((1,5),9);")
        sets = optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)
        assert sets[2] == [9]
        assert sets[3] == [1]
        assert sets[4] == [5]

    def test_root_label_lies_between_children_labels(self):
        # in every optimal labeling of a binary tree, the root label sits
        # between the labels of its two children (Manhattan cost)
        rng = random.Random(42)
        for _ in range(30):
            doc = random_document(rng.randint(2, 5), 0, 5, rng, arity="binary")
            result = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN)
            assert not result.truncated
            left, right = doc.tree.children[doc.tree.root]
            for labeling in result.labelings:
                a = labeling.values[left]
                b = labeling.values[right]
                r = labeling.values[doc.tree.root]
                assert min(a, b) <= r <= max(a, b)

    def test_two_leaf_optimal_roots_are_the_whole_span(self):
        rng = random.Random(43)
        for _ in range(50):
            a, b = rng.randint(-10, 10), rng.randint(-10, 10)
            doc = parse_newick(f"({a},{b});")
            expected = list(range(min(a, b), max(a, b) + 1))
            assert optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)[0] == expected
