"""Input normalization helpers shared by the estimator and the CLI."""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .costs import CostFunction, LeafLabeling
from .newick import LabeledTreeDocument, parse_newick
from .tree import Tree

InstanceLike = Union[str, LabeledTreeDocument, Tree]


def resolve_cost(cost: Union[str, CostFunction]) -> CostFunction:
    """Accept a CostFunction or a spec string like "power:2"."""
    if isinstance(cost, CostFunction):
        return cost
    if isinstance(cost, str):
        return CostFunction.from_spec(cost)
    raise TypeError(f"cost must be a CostFunction or spec string, got {type(cost).__name__}")


def as_document(
    X: InstanceLike,
    y: Optional[Mapping[int, int]] = None,
) -> LabeledTreeDocument:
    """Normalize the ways an instance can be handed in.

    X may be Newick text, an already-parsed LabeledTreeDocument, or a bare
    Tree with the leaf labels passed separately as ``y``.
    """
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
