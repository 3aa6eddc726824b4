"""Estimator-style front end, so the solvers compose with sklearn tooling.

TreeLabeler follows the fit/fit_predict shape of scikit-learn's cluster
estimators: hyperparameters in __init__, fit(X, y) does the work and
exposes trailing-underscore attributes, get_params/set_params make the
object clone()-able and grid-searchable. There is no separate predict(new
data): like a clustering, the labeling is an answer about the fitted
instance itself.
"""

from __future__ import annotations

from typing import Mapping, Optional

# fit reuses the table that solve_scalar built and never calls dp_up; the
# name stays bound here because perfbench/test_perfbench.py checks that its
# tracer restores every binding of dp_up, this one included.
from .dp import CostTable, dp_up  # noqa: F401
from .intervals import IntervalAssignment
from .solve import solve_scalar
from .validation import InstanceLike, as_document, resolve_cost


class TreeLabeler:
    """Minimum-cost integer labeling of a leaf-labeled rooted tree.

    Parameters
    ----------
    algorithm : {"auto", "dp", "interval", "oracle"}, default "auto"
        "interval" is the linear Manhattan solver (binary trees only),
        "dp" the general dynamic program, "oracle" exhaustive enumeration.
        "auto" picks interval when it applies, dp otherwise. dp scans every
        (label, child label) pair directly in builtins, a windowed
        min(map(add, ...)) per label: O(N * m^2) time and O(N * m) memory,
        with a leaf child contributing in O(m).
    cost : str or CostFunction, default "manhattan"
        Edge-cost spec: "manhattan", "power:<k>" or "table:<c0,c1,...>".
    tie : {"lowest", "highest", "midpoint"}, default "lowest"
        How equally good labels are broken; "midpoint" is interval-only.

    Attributes (after fit)
    ----------------------
    tree_, leaf_labels_ : the parsed instance
    labels_             : list, optimal label per node id
    cost_               : int, the optimal total cost
    algorithm_          : the solver actually used
    g_min_, g_max_, m_  : leaf-label range
    intervals_          : IntervalAssignment or None (interval runs)
    cost_table_         : CostTable or None (dp runs)

    intervals_ and cost_table_ are the up-phase results of the solve
    itself; fit computes each one once.

    >>> TreeLabeler().fit_predict("((1,5),9);")
    [5, 5, 9, 1, 5]
    """

    def __init__(self, algorithm: str = "auto", cost="manhattan", tie: str = "lowest"):
        self.algorithm = algorithm
        self.cost = cost
        self.tie = tie

    # -- sklearn estimator protocol ---------------------------------- #

    def get_params(self, deep: bool = True) -> dict:
        return {"algorithm": self.algorithm, "cost": self.cost, "tie": self.tie}

    def set_params(self, **params) -> "TreeLabeler":
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(
                    f"invalid parameter {key!r} for TreeLabeler; "
                    f"valid parameters are {sorted(self.get_params())}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        return (
            f"TreeLabeler(algorithm={self.algorithm!r}, "
            f"cost={self.cost!r}, tie={self.tie!r})"
        )

    # -- fitting ------------------------------------------------------ #

    def fit(self, X: InstanceLike, y: Optional[Mapping[int, int]] = None) -> "TreeLabeler":
        """Solve the instance in X (Newick text, document, or Tree plus y)."""
        doc = as_document(X, y)
        cost_fn = resolve_cost(self.cost)
        algorithm, labeling, up_phase = solve_scalar(
            doc.tree, doc.leaf_labels, cost_fn, algorithm=self.algorithm, tie=self.tie
        )

        self.document_ = doc
        self.tree_ = doc.tree
        self.leaf_labels_ = doc.leaf_labels
        self.cost_function_ = cost_fn
        self.algorithm_ = algorithm
        self.labeling_ = labeling
        self.labels_ = [labeling.values[v] for v in range(doc.tree.node_count)]
        self.cost_ = labeling.total_cost
        self.g_min_ = doc.leaf_labels.g_min
        self.g_max_ = doc.leaf_labels.g_max
        self.m_ = doc.leaf_labels.m
        self.intervals_: Optional[IntervalAssignment] = (
            up_phase if algorithm == "interval" else None
        )
        self.cost_table_: Optional[CostTable] = up_phase if algorithm == "dp" else None
        return self

    def fit_predict(self, X: InstanceLike, y: Optional[Mapping[int, int]] = None) -> list:
        """Fit and return the per-node labels (indexed by node id)."""
        return self.fit(X, y).labels_

    def to_newick(self) -> str:
        """The fitted labeling as annotated Newick."""
        self._check_fitted()
        from .newick import serialize_labeled

        return serialize_labeled(self.document_, self.labeling_)

    def _check_fitted(self) -> None:
        if not hasattr(self, "labeling_"):
            raise RuntimeError(
                "this TreeLabeler instance is not fitted yet; call fit() first"
            )
