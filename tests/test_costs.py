import random

import pytest

from treelabel import (
    CostFunction,
    DifferenceOutOfRange,
    LeafLabeling,
    Labeling,
    MissingNodeLabel,
    TreeLabeler,
    brute_force_min,
    build_tree,
    eval_total,
    parse_newick,
    parse_newick_tuples,
    random_document,
    serialize_labeled,
    serialize_tuple_labeled,
    solve_ktuple,
    solve_scalar,
    theta,
    tuple_cost,
)
from treelabel import estimator
from treelabel.costs import node_values, shared_convert
from helpers import leaf_map, random_instance

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

    @pytest.mark.parametrize("entry", [1.5, 2.0, "1"])
    def test_table_entries_must_be_ints(self, entry):
        # int() would truncate 1.5 to 1 and parse "1"; nothing is converted silently
        with pytest.raises(ValueError, match="cost table entry 1 must be an integer"):
            CostFunction.from_table([0, entry, 3])

    def test_bool_exponent_rejected(self):
        # True is an int subclass, but "power:True" would not round-trip through from_spec
        with pytest.raises(ValueError):
            CostFunction.power(True)

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

    def test_single_node_needs_its_label(self):
        # no edge to sum, but the labeling is still incomplete
        doc = parse_newick("5;")
        with pytest.raises(MissingNodeLabel, match="no label for node 0$"):
            eval_total(doc.tree, MANHATTAN, {})

    def test_missing_labels_name_the_lowest_node(self):
        # root 2 over leaves 0 and 1: edge order meets node 2 first
        t = build_tree([2, 2, None])
        with pytest.raises(MissingNodeLabel, match="no label for node 0$"):
            eval_total(t, MANHATTAN, {1: 4})

    def test_short_sequence_names_its_length(self):
        # a list is read by index: the first node past its end has no label
        doc = parse_newick("((1,5),9);")
        with pytest.raises(MissingNodeLabel, match="no label for node 3$"):
            eval_total(doc.tree, MANHATTAN, [5, 5, 9])
        with pytest.raises(MissingNodeLabel, match="no label for node 0$"):
            eval_total(doc.tree, MANHATTAN, ())

    def test_exact_huge_costs(self):
        doc = parse_newick("(0,1000);")
        cost = CostFunction.power(20)
        values = {0: 0, 1: 0, 2: 1000}
        assert eval_total(doc.tree, cost, values) == 1000 ** 20


def _sum_or_error(total):
    """``total()``, or the text of the DifferenceOutOfRange it raised."""
    try:
        return total()
    except DifferenceOutOfRange as exc:
        return f"DifferenceOutOfRange: {exc}"


class TestEdgeSums:
    # eval_total and tuple_cost resolve theta once per call: they must sum
    # what theta gives edge by edge, and a table too short for some edge
    # must fail at the first such edge in t.edges() order
    COSTS = [MANHATTAN, CostFunction.power(3), CostFunction.from_table([0, 2, 5, 9, 14])]

    def _instances(self, seed):
        rng = random.Random(seed)
        for _ in range(80):
            # label spans up to 10 reach past the 5-entry table on some edges
            t, leaves = random_instance(rng, rng.randint(1, 12), -4, 6)
            yield t, leaves, rng

    def test_eval_total_is_the_per_edge_theta_sum(self):
        outcomes = []
        for t, leaves, rng in self._instances(21):
            values = {v: rng.randint(-4, 6) for v in range(t.node_count)}
            values.update(leaf_map(leaves))
            for cost in self.COSTS:
                got = _sum_or_error(lambda: eval_total(t, cost, values))
                expected = _sum_or_error(lambda: sum(
                    theta(cost, abs(values[p] - values[c])) for p, c in t.edges()
                ))
                assert got == expected
                outcomes.append(got)
        assert any(isinstance(o, str) for o in outcomes)  # out of range was met

    def test_tuple_cost_is_the_per_edge_theta_sum(self):
        outcomes = []
        for t, _, rng in self._instances(22):
            k = rng.randint(1, 3)
            values = {
                v: tuple(sorted(rng.randint(-4, 6) for _ in range(k)))
                for v in range(t.node_count)
            }
            for cost in self.COSTS:
                got = _sum_or_error(lambda: tuple_cost(t, cost, values))
                expected = _sum_or_error(lambda: sum(
                    theta(cost, abs(x - y))
                    for p, c in t.edges()
                    for x, y in zip(values[p], values[c])
                ))
                assert got == expected
                outcomes.append(got)
        assert any(isinstance(o, str) for o in outcomes)


def _random_full_labeling(doc, rng):
    lo, hi = doc.leaf_labels.g_min, doc.leaf_labels.g_max
    values = leaf_map(doc.leaf_labels)
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


class TestLabelsAreOneListByNodeId:
    """Every solver's labels are one list of N entries, read without a copy."""

    _NEWICKS = ("3;", "((1,5),9);", "(1,(2,4,6),3,((7)));")

    @pytest.mark.parametrize("algorithm", ["dp", "convex", "interval", "median", "oracle"])
    def test_every_scalar_solver_returns_a_list(self, algorithm):
        for newick in self._NEWICKS:
            doc = parse_newick(newick)
            values = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, algorithm)[1].values
            assert type(values) is list, (algorithm, newick)
            assert len(values) == doc.tree.node_count, (algorithm, newick)

    @pytest.mark.parametrize("algorithm", ["dp", "convex", "interval", "median", "oracle"])
    def test_a_mapping_and_the_parsers_list_solve_alike(self, algorithm):
        for newick in (*self._NEWICKS, "((-2,(5)),5,(0,3,5));"):
            doc = parse_newick(newick)
            # the mapping's keys in descending order: each label lands at its id
            mapping = dict(sorted(leaf_map(doc.leaf_labels).items(), reverse=True))
            given = LeafLabeling.for_tree(doc.tree, mapping)
            assert type(given.labels) is list
            assert given == doc.leaf_labels
            parsed = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, algorithm)[1]
            assert solve_scalar(doc.tree, given, MANHATTAN, algorithm)[1] == parsed

    def test_ktuple_and_every_optimum_are_lists(self):
        doc = parse_newick_tuples("(1|4,(3|8,2|2,5|6));")
        values = solve_ktuple(doc.tree, doc.leaf_labels, MANHATTAN).values
        assert type(values) is list and len(values) == doc.tree.node_count
        doc = parse_newick("((2,7),9,(0,4));")
        labelings = brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN).labelings
        assert len(labelings) > 1
        for labeling in labelings:
            assert type(labeling.values) is list
            assert len(labeling.values) == doc.tree.node_count

    def test_fit_keeps_the_solvers_own_list(self, monkeypatch):
        solved = []

        def recording_solve(*args, **kwargs):
            result = solve_scalar(*args, **kwargs)
            solved.append(result[1])
            return result

        monkeypatch.setattr(estimator, "solve_scalar", recording_solve)
        fitted = TreeLabeler().fit("((1,5),9);")
        assert fitted.labels_ is solved[0].values

    def test_node_values_copies_only_what_is_not_a_full_list(self):
        doc = parse_newick("((1,5),9);")
        t = doc.tree
        full = [5, 5, 9, 1, 5]
        assert node_values(t, full, int) is full
        labeling = Labeling(values=full, total_cost=8)
        assert node_values(t, labeling, int) is full
        # a mapping, a tuple and a list of the wrong length are copied
        mapping = dict(enumerate(full))
        for other in (mapping, tuple(full), full + [7]):
            got = node_values(t, other, int)
            assert type(got) is list and got == full and got is not other
        with pytest.raises(MissingNodeLabel, match="no label for node 4$"):
            node_values(t, full[:4], int)
        del mapping[2]
        with pytest.raises(MissingNodeLabel, match="no label for node 2$"):
            node_values(t, mapping, int)


class TestIntegerRule:
    """A full labeling is held to ints where it is read, by node_values."""

    def test_eval_total_refuses_a_float_label(self):
        # before the rule, manhattan and power:2 summed 4.5 into a float cost
        # and the table lookup failed with a bare TypeError
        t = parse_newick("(2,7);").tree
        error = "^label of node 0 must be an integer, got 4.5$"
        for cost in (MANHATTAN, SQUARE, CostFunction.from_table([0, 1, 2, 3, 4, 5, 6])):
            for full in ([4.5, 2, 7], {0: 4.5, 1: 2, 2: 7}):
                with pytest.raises(ValueError, match=error):
                    eval_total(t, cost, full)

    def test_bools_become_ints_and_exact_lists_pass_as_they_are(self):
        t = parse_newick("(2,7);").tree
        got = node_values(t, [True, 2, 7], int)
        assert got == [1, 2, 7] and list(map(type, got)) == [int, int, int]
        assert eval_total(t, SQUARE, [True, False, 7]) == 37
        exact = [5, 2, 7]
        assert node_values(t, exact, int) is exact
        tuples = [(1, 4), (1, 4), (3, 8)]
        assert node_values(t, tuples, tuple) is tuples

    def test_tuple_cost_refuses_a_float_component(self):
        t = parse_newick_tuples("(1|4,3|8);").tree
        error = "^component 0 of node 0 must be an integer, got 1.5$"
        for full in ([(1.5, 3), (1, 4), (3, 8)], {0: (1.5, 3), 1: (1, 4), 2: (3, 8)}):
            with pytest.raises(ValueError, match=error):
                tuple_cost(t, MANHATTAN, full)
        assert tuple_cost(t, MANHATTAN, [(True, 4), (1, 4), (3, 8)]) == 6

    def test_a_label_that_is_neither_int_nor_tuple_is_refused(self):
        t = parse_newick("(2,7);").tree
        with pytest.raises(ValueError, match="^label of node 1 must be an integer, got None$"):
            node_values(t, [5, None, 7], int)
        with pytest.raises(ValueError, match=r"^label of node 0 must be an integer, got \[1, 4\]"):
            node_values(t, [[1, 4], (1, 4), (3, 8)], int)

    # each reader names the lowest node whose label is of the kind it does
    # not read; before, the scalar printer wrote Python tuple text,
    # ((1, 4),(3, 8))(1, 4); and the others ended in a bare TypeError
    _NOT_AN_INT = r"^label of node 0 must be an integer, got \(1, 4\)$"
    _NOT_A_TUPLE = "^label of node 1 must be a tuple of integers, got 1$"

    def test_serialize_labeled_refuses_tuples(self):
        with pytest.raises(ValueError, match=self._NOT_AN_INT):
            serialize_labeled(parse_newick("(2,7);"), [(1, 4), (1, 4), (3, 8)])

    def test_eval_total_refuses_tuples(self):
        with pytest.raises(ValueError, match=self._NOT_AN_INT):
            eval_total(parse_newick("(2,7);").tree, MANHATTAN, [(1, 4), 1, 3])

    def test_tuple_cost_refuses_ints(self):
        with pytest.raises(ValueError, match=self._NOT_A_TUPLE):
            tuple_cost(parse_newick_tuples("(1|4,3|8);").tree, MANHATTAN, [(1, 4), 1, (3, 8)])

    def test_serialize_tuple_labeled_refuses_ints(self):
        with pytest.raises(ValueError, match=self._NOT_A_TUPLE):
            serialize_tuple_labeled(parse_newick_tuples("(1|4,3|8);"), {0: (1, 4), 1: 1, 2: 3})


class TestSharedTable:
    """One object per distinct key, where at most half of the keys are distinct."""

    def test_repeated_keys_get_one_object_each(self):
        keys = [7, 8, 7, 8]
        got = list(map(shared_convert(keys, lambda k: [k]), keys))
        assert got == [[7], [8], [7], [8]]
        assert got[0] is got[2] and got[1] is got[3]

    def test_mostly_distinct_keys_get_no_table(self):
        def convert(k):
            return [k]

        assert shared_convert([7, 8, 9, 9], convert) is convert

    def test_the_keys_alone_decide(self):
        # ten keys spread over a range far wider than their count still
        # repeat, and so still share
        keys = [x * 10**11 for x in range(10)] * 3
        texts = list(map(shared_convert(keys, str), keys))
        assert texts == list(map(str, keys))
        assert all(texts[i] is texts[i + 10] for i in range(20))
