"""Seeded random instance generation for tests, checks and benchmarks.

All randomness flows through a caller-supplied random.Random, and every
draw happens in a fixed order, so a given seed reproduces an instance
byte for byte.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .costs import LeafLabeling
from .newick import LabeledTreeDocument
from .tree import Tree, build_tree

Arity = Union[str, int]  # "binary" or a maximum arity >= 2


def _pick_arity(arity: Arity, count: int, rng: random.Random) -> int:
    # a maximum arity of 2 is "binary": no draw, so both give the same trees
    if arity == "binary" or int(arity) == 2:
        return 2
    # random_topology checks arity >= 2 and asks only for count >= 2
    return rng.randint(2, min(int(arity), count))


def random_topology(n_leaves: int, rng: random.Random, arity: Arity = "binary") -> Tree:
    """Random recursive topology with ``n_leaves`` leaves.

    Each internal node draws its child count uniformly from the arity
    profile and splits its leaf budget by a uniform composition. A budget
    of one leaf makes a leaf, so n_leaves=1 is the single-node tree.
    """
    if n_leaves < 1:
        raise ValueError(f"need at least one leaf, got {n_leaves}")
    if arity != "binary" and int(arity) < 2:
        raise ValueError(f"maximum arity must be >= 2, got {arity!r}")

    parent_of: list[Optional[int]] = [None]
    stack: list[tuple[int, int]] = [(0, n_leaves)]  # (node id, leaf budget)
    while stack:
        node, count = stack.pop()
        if count == 1:
            continue
        k = _pick_arity(arity, count, rng)
        cuts = sorted(rng.sample(range(1, count), k - 1))
        bounds = [0] + cuts + [count]
        parts = [bounds[i + 1] - bounds[i] for i in range(k)]
        children = []
        for part in parts:
            child = len(parent_of)
            parent_of.append(node)
            children.append((child, part))
        # push reversed so the leftmost child is expanded first
        stack.extend(reversed(children))
    return build_tree(parent_of)


def random_document(
    n_leaves: int,
    lo: int,
    hi: int,
    rng: random.Random,
    arity: Arity = "binary",
) -> LabeledTreeDocument:
    """Random topology plus uniform leaf labels in [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty label range [{lo}, {hi}]")
    tree = random_topology(n_leaves, rng, arity=arity)
    # one label per leaf, drawn in ascending leaf order
    leaves = tree.leaves()
    labels = [rng.randint(lo, hi) for _ in leaves]
    leaf_labels = LeafLabeling._of_leaves(tree.node_count, leaves, labels)
    return LabeledTreeDocument(tree=tree, leaf_labels=leaf_labels)
