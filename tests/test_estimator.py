import pytest

from helpers import count_calls, leaf_map
from treelabel import (
    CostFunction,
    TreeLabeler,
    UnsupportedAlgorithm,
    bottom_up_intervals,
    convex_up,
    dp_up,
    is_binary,
    parse_newick,
    postorder,
    preorder,
)
from treelabel.solve import solve_scalar


class TestFit:
    def test_fit_from_newick(self):
        est = TreeLabeler().fit("((1,5),9);")
        assert est.cost_ == 8
        assert est.labels_ == [5, 5, 9, 1, 5]
        assert est.algorithm_ == "interval"
        assert (est.g_min_, est.g_max_, est.m_) == (1, 9, 9)
        assert est.intervals_ is not None
        assert est.cost_table_ is None

    def test_fit_from_document(self):
        doc = parse_newick("(2,7);")
        est = TreeLabeler().fit(doc)
        assert est.cost_ == 5
        assert est.labels_[0] == 2

    def test_fit_from_tree_and_y(self):
        doc = parse_newick("(2,7);")
        est = TreeLabeler().fit(doc.tree, y=leaf_map(doc.leaf_labels))
        assert est.cost_ == 5

    def test_y_by_node_id_rejected(self):
        # the parser's list by node id is not a mapping from leaf id
        doc = parse_newick("(2,7);")
        with pytest.raises(TypeError, match="^leaf labels must be a mapping .*, got list$"):
            TreeLabeler().fit(doc.tree, y=doc.leaf_labels.labels)

    @pytest.mark.parametrize("label", [5.99, 5.0, "5"])
    def test_non_integer_y_rejected(self, label):
        doc = parse_newick("(2,7);")
        with pytest.raises(ValueError, match="label of leaf 2 must be an integer"):
            TreeLabeler().fit(doc.tree, {1: 1, 2: label})

    def test_dp_path_exposes_cost_table(self):
        # auto takes convex for a convex cost; forced dp builds the same table
        est = TreeLabeler(cost="power:2").fit("((1,5),9);")
        assert est.algorithm_ == "convex"
        assert est.cost_ == 23
        assert est.cost_table_ is not None
        assert est.intervals_ is None
        forced = TreeLabeler(algorithm="dp", cost="power:2").fit("((1,5),9);")
        assert forced.algorithm_ == "dp"
        assert forced.cost_table_ == est.cost_table_
        assert forced.intervals_ is None

    def test_dp_fit_runs_the_up_phase_once(self, monkeypatch):
        dp_calls = count_calls(monkeypatch, dp_up)
        convex_calls = count_calls(monkeypatch, convex_up)
        est = TreeLabeler(cost="power:2").fit("((1,5,2),(9,(3)));")
        assert est.algorithm_ == "convex"
        assert (len(convex_calls), len(dp_calls)) == (1, 0)
        doc = parse_newick("((1,5,2),(9,(3)));")
        assert est.cost_table_ == dp_up(doc.tree, doc.leaf_labels, CostFunction.power(2))

    def test_interval_fit_runs_the_up_phase_once(self, monkeypatch):
        calls = count_calls(monkeypatch, bottom_up_intervals)
        est = TreeLabeler().fit("((1,5),(9,(3,4)));")
        assert est.algorithm_ == "interval"
        assert len(calls) == 1
        doc = parse_newick("((1,5),(9,(3,4)));")
        assert est.intervals_ == bottom_up_intervals(doc.tree, doc.leaf_labels)

    def test_auto_median_fit(self, monkeypatch):
        calls = count_calls(monkeypatch, bottom_up_intervals)
        est = TreeLabeler().fit("(1,2,3);")
        assert est.algorithm_ == "median"
        assert len(calls) == 1
        doc = parse_newick("(1,2,3);")
        assert est.intervals_ == bottom_up_intervals(doc.tree, doc.leaf_labels)
        assert est.cost_table_ is None
        assert (est.labels_, est.cost_) == ([2, 1, 2, 3], 2)

    def test_auto_interval_fit_checks_binarity_once(self, monkeypatch):
        calls = count_calls(monkeypatch, is_binary)
        est = TreeLabeler().fit("((1,5),(9,(3,4)));")
        assert est.algorithm_ == "interval"
        assert len(calls) == 1

    def test_document_with_y_rejected(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(ValueError, match="already a labeled document"):
            TreeLabeler().fit(doc, leaf_map(doc.leaf_labels))

    @pytest.mark.parametrize("algorithm,cost", [("dp", "power:2"), ("interval", "manhattan")])
    def test_solvers_walk_tree_order_only(self, monkeypatch, algorithm, cost):
        # both phases iterate Tree.order; no traversal is rebuilt per call
        post = count_calls(monkeypatch, postorder)
        pre = count_calls(monkeypatch, preorder)
        doc = parse_newick("((1,5),(9,(3,4)));")
        resolved, labeling, _ = solve_scalar(
            doc.tree, doc.leaf_labels, CostFunction.from_spec(cost), algorithm=algorithm
        )
        assert resolved == algorithm
        assert labeling.total_cost > 0
        assert (post, pre) == ([], [])

    def test_oracle_algorithm(self):
        est = TreeLabeler(algorithm="oracle").fit("(2,7);")
        assert est.cost_ == 5
        assert est.labels_[0] == 2  # first optimum in enumeration order

    def test_fit_predict(self):
        assert TreeLabeler().fit_predict("((1,5),9);") == [5, 5, 9, 1, 5]

    def test_matches_functional_api(self):
        doc = parse_newick("((0,(2,9)),(4,(7,7)));")
        est = TreeLabeler(algorithm="dp", cost="power:2", tie="highest").fit(doc)
        _, labeling, _ = solve_scalar(
            doc.tree, doc.leaf_labels, CostFunction.power(2), "dp", tie="highest"
        )
        assert est.labels_ == [labeling.values[v] for v in range(doc.tree.node_count)]
        assert est.cost_ == labeling.total_cost

    def test_cost_function_instance_accepted(self):
        est = TreeLabeler(cost=CostFunction.from_table([0, 2, 3, 7, 8, 9, 10, 11, 12])).fit(
            "((1,5),9);"
        )
        assert est.algorithm_ == "dp"

    def test_to_newick(self):
        est = TreeLabeler().fit("((1,5),9);")
        assert est.to_newick() == "((1,5)5,9)5;"

    def test_interval_on_non_binary_fits(self):
        est = TreeLabeler(algorithm="interval").fit("(1,(2,4,6),3);")
        assert est.algorithm_ == "interval"
        assert est.cost_ == TreeLabeler(algorithm="dp").fit("(1,(2,4,6),3);").cost_

    def test_interval_on_non_manhattan_raises(self):
        with pytest.raises(UnsupportedAlgorithm):
            TreeLabeler(algorithm="interval", cost="power:2").fit("(2,7);")

    def test_bad_algorithm_rejected_at_fit_time(self):
        est = TreeLabeler(algorithm="bogus")  # sklearn style: no init validation
        with pytest.raises(UnsupportedAlgorithm):
            est.fit("(2,7);")

    def test_midpoint_tie_needs_interval(self):
        with pytest.raises(UnsupportedAlgorithm):
            TreeLabeler(cost="power:2", tie="midpoint").fit("(2,7);")

    def test_not_fitted(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            TreeLabeler().to_newick()

    def test_input_normalization_errors(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(TypeError):
            TreeLabeler().fit(42)
        with pytest.raises(ValueError):
            TreeLabeler().fit("(2,7);", y={1: 2, 2: 7})  # labels already in the text
        with pytest.raises(ValueError):
            TreeLabeler().fit(doc.tree)  # bare tree needs y
        with pytest.raises(TypeError):
            TreeLabeler(cost=3.5).fit(doc)


class TestEstimatorProtocol:
    def test_get_params(self):
        est = TreeLabeler(algorithm="dp", cost="power:2", tie="highest")
        assert est.get_params() == {"algorithm": "dp", "cost": "power:2", "tie": "highest"}

    def test_set_params_round_trip(self):
        est = TreeLabeler()
        out = est.set_params(algorithm="dp", tie="highest")
        assert out is est
        assert est.algorithm == "dp"
        assert est.tie == "highest"

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            TreeLabeler().set_params(gamma=3)

    def test_repr(self):
        text = repr(TreeLabeler(cost="power:2"))
        assert text == "TreeLabeler(algorithm='auto', cost='power:2', tie='lowest')"

    def test_equality_is_identity(self):
        est = TreeLabeler()
        assert est == est
        assert TreeLabeler() != TreeLabeler()

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = TreeLabeler(algorithm="dp", cost="power:3", tie="highest")
        cloned = sklearn_base.clone(est)
        assert cloned is not est
        assert cloned.get_params() == est.get_params()
        assert cloned.fit_predict("(2,7);") == est.fit_predict("(2,7);")
        # power:3 on (2,7) has argmin {4,5}; tie=highest picks 5
        assert cloned.labels_[0] == 5

    def test_refit_resets_state(self):
        est = TreeLabeler()
        est.fit("(2,7);")
        first = est.cost_
        est.fit("((1,5),9);")
        assert first == 5 and est.cost_ == 8
        assert len(est.labels_) == 5
