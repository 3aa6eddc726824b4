"""Estimator-style front end, so the solvers compose with sklearn tooling.

TreeLabeler follows the fit/fit_predict shape of scikit-learn's cluster
estimators: the hyperparameters are its __init__ keywords, fit(X, y) does
the work and exposes trailing-underscore attributes, get_params/set_params
make the object clone()-able and grid-searchable. There is no separate
predict(new data): like a clustering, the labeling is an answer about the
fitted instance itself.

fit is where user input takes the shape of the problem: X becomes one
leaf-labeled tree (LabeledTreeDocument) and the cost one CostFunction.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .costs import CostFunction, LeafLabeling

# fit reuses the table that solve_scalar built and never calls dp_up; the
# name stays bound here because perfbench/test_perfbench.py checks that its
# tracer restores every binding of dp_up, this one included.
from .dp import CostTable, dp_up  # noqa: F401
from .intervals import IntervalAssignment
from .newick import LabeledTreeDocument, parse_newick, serialize_labeled
from .solve import solve_scalar
from .tree import Tree

_InstanceLike = Union[str, LabeledTreeDocument, Tree]


def _as_document(X: _InstanceLike, y: Optional[Mapping[int, int]]) -> LabeledTreeDocument:
    """X as Newick text, a LabeledTreeDocument, or a bare Tree with labels y."""
    if isinstance(X, str):
        if y is not None:
            raise ValueError("y must be None when X is Newick text (labels are leaf names)")
        return parse_newick(X)
    if isinstance(X, LabeledTreeDocument):
        if y is not None:
            raise ValueError("y must be None when X is already a labeled document")
        return X
    if isinstance(X, Tree):
        if y is None:
            raise ValueError("passing a bare Tree requires leaf labels in y")
        return LabeledTreeDocument(tree=X, leaf_labels=LeafLabeling.for_tree(X, y))
    raise TypeError(
        f"X must be Newick text, a LabeledTreeDocument or a Tree, got {type(X).__name__}"
    )


class TreeLabeler:
    """Minimum-cost integer labeling of a leaf-labeled rooted tree.

    The __init__ keywords are the hyperparameters, stored as they are;
    none is checked before fit. Equality and hashing are by identity: two
    estimators with the same parameters are still two estimators.

    Parameters
    ----------
    algorithm : {"auto", "dp", "convex", "interval", "median", "oracle"}, default "auto"
        "interval" is the Manhattan solver by interval propagation (any
        arity, O(N log d) for maximum arity d), "median" the same up phase
        with a down phase that gives dp's labels, "convex" the dynamic
        program for a convex cost (manhattan, power:k, a table whose
        increments never decrease), "dp" the dynamic program for any cost,
        "oracle" exhaustive enumeration. "auto" picks interval for a binary
        tree and Manhattan cost, median for any other tree and Manhattan
        cost, else convex when it applies, else dp.
        dp scans every (label, child label) pair directly in builtins, a
        windowed min(map(add, ...)) per label: O(N * m^2) time. convex
        builds the same cost table by slope merge in O(N * m) and finds
        dp's labels by binary search in O(N log m). Both use
        O(N_internal * m + distinct leaf labels * m) memory, since leaves
        with the same label share one table row, with a leaf child
        contributing in O(m).
    cost : str or CostFunction, default "manhattan"
        Edge-cost spec: "manhattan", "power:<k>" or "table:<c0,c1,...>";
        fit parses a spec with CostFunction.from_spec.
    tie : {"lowest", "highest", "midpoint"}, default "lowest"
        How equally good labels are broken; "midpoint" is interval-only,
        so "auto" takes interval for it under Manhattan cost.

    Attributes (after fit)
    ----------------------
    tree_               : the parsed tree
    leaf_labels_        : LeafLabeling, whose labels are a list by node id
                          (a leaf's int, None at an internal node)
    labels_             : list, optimal label per node id (the solver's
                          own list, not a copy)
    cost_               : int, the optimal total cost
    algorithm_          : the solver actually used
    g_min_, g_max_, m_  : leaf-label range
    intervals_          : IntervalAssignment, the lists lo and hi by node
                          id, or None (interval and median runs,
                          bottom_up_intervals' either way)
    cost_table_         : CostTable or None (dp and convex runs)

    intervals_ and cost_table_ are the up-phase result of the solve
    itself, filled in by its type; fit computes it once, and an oracle run
    has neither.

    >>> TreeLabeler().fit_predict("((1,5),9);")
    [5, 5, 9, 1, 5]
    """

    def __init__(
        self,
        algorithm: str = "auto",
        cost: Union[str, CostFunction] = "manhattan",
        tie: str = "lowest",
    ) -> None:
        self.algorithm = algorithm
        self.cost = cost
        self.tie = tie

    def __repr__(self) -> str:
        params = ", ".join(f"{key}={value!r}" for key, value in self.get_params().items())
        return f"{type(self).__qualname__}({params})"

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

    # -- fitting ------------------------------------------------------ #

    def fit(self, X: _InstanceLike, y: Optional[Mapping[int, int]] = None) -> "TreeLabeler":
        """Solve the instance in X (Newick text, document, or Tree plus y)."""
        doc = _as_document(X, y)
        cost_fn = CostFunction.from_spec(self.cost) if isinstance(self.cost, str) else self.cost
        if not isinstance(cost_fn, CostFunction):
            raise TypeError(
                f"cost must be a CostFunction or spec string, got {type(cost_fn).__name__}"
            )
        algorithm, labeling, up_phase = solve_scalar(
            doc.tree, doc.leaf_labels, cost_fn, algorithm=self.algorithm, tie=self.tie
        )

        self.tree_ = doc.tree
        self.leaf_labels_ = doc.leaf_labels
        self.algorithm_ = algorithm
        self.labels_ = labeling.values
        self.cost_ = labeling.total_cost
        self.g_min_ = doc.leaf_labels.g_min
        self.g_max_ = doc.leaf_labels.g_max
        self.m_ = doc.leaf_labels.m
        is_table = isinstance(up_phase, CostTable)
        self.cost_table_: Optional[CostTable] = up_phase if is_table else None
        self.intervals_: Optional[IntervalAssignment] = None if is_table else up_phase
        return self

    def fit_predict(self, X: _InstanceLike, y: Optional[Mapping[int, int]] = None) -> list:
        """Fit and return the per-node labels (indexed by node id)."""
        return self.fit(X, y).labels_

    def to_newick(self) -> str:
        """The fitted labeling as annotated Newick."""
        if not hasattr(self, "labels_"):
            raise RuntimeError("this TreeLabeler instance is not fitted yet; call fit() first")
        return serialize_labeled(LabeledTreeDocument(self.tree_, self.leaf_labels_), self.labels_)
