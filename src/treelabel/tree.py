"""Immutable rooted trees with deterministic traversals.

A tree is its parent array: ``build_tree(parent_of)`` takes one parent id
per node (None for the root) and derives everything else. A leaf is a node
that no node names as its parent. The parents, the children lists and the
traversal are stored as tuples indexed by node id (dense ints in [0, N));
leaves and the root are read off them, never stored a second time.
Children are kept in ascending id order so that every traversal, and
therefore every solver output, is deterministic. ``Tree.order`` is the
breadth-first walk from the root, computed once when the tree is built:
every parent comes before its children, so the solvers' up phases walk it
reversed and their down phases walk it forwards. Trees of arbitrary
arity are accepted, including internal nodes with a single child; every
solver handles them, and binarity matters only to auto's choice of
solver. A single node that is both root and leaf is a valid tree.

``build_tree`` is the validated entry point for parent arrays from
outside. The Newick parser builds its ``Tree`` directly instead, because
its output is a valid tree by construction: one root, no parent out of
range, no cycle, and breadth-first ids, so its ``order`` is
``tuple(range(N))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import CycleDetected, MultipleRoots, NoRoot, UnreachableNode


@dataclass(frozen=True)
class Tree:
    """Rooted tree over node ids 0..N-1.

    Attributes
    ----------
    parents     : parent id per node; None exactly for the root.
    children    : per-node tuple of child ids, ascending; empty for a leaf.
    order       : every node id, breadth-first from the root, children in
                  stored order; parents precede their children.
    """

    parents: tuple[Optional[int], ...]
    children: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]

    @property
    def root(self) -> int:
        """Id of the unique parentless node, where the walk starts."""
        return self.order[0]

    @property
    def node_count(self) -> int:
        return len(self.parents)

    @property
    def leaf_count(self) -> int:
        return sum(not kids for kids in self.children)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v, kids in enumerate(self.children) if not kids)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield (parent, child) pairs, parents in ascending id order."""
        for v, kids in enumerate(self.children):
            for c in kids:
                yield v, c


def build_tree(parent_of: Sequence[Optional[int]]) -> Tree:
    """Construct and validate a Tree from parent pointers.

    ``parent_of[v]`` is the parent id of node v, or None for the root; the
    nodes no entry names are the leaves. Children end up sorted by
    ascending id regardless of input order, since they are collected by
    scanning the nodes in id order.

    Raises NoRoot, MultipleRoots, UnreachableNode or CycleDetected on
    malformed input.
    """
    n = len(parent_of)
    roots = [v for v in range(n) if parent_of[v] is None]
    if not roots:
        raise NoRoot("no node without a parent" if n else "empty node list")
    if len(roots) > 1:
        raise MultipleRoots(f"nodes {roots} all lack a parent")
    root = roots[0]

    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        p = parent_of[v]
        if p is not None:
            if not 0 <= p < n:
                raise UnreachableNode(f"node {v} has parent {p} outside [0, {n})")
            kids[p].append(v)

    # With one root and every parent in range, a node the walk from the
    # root misses lies on a cycle or below one.
    order = [root]
    for v in order:
        order.extend(kids[v])
    if len(order) < n:
        raise CycleDetected(
            f"{n - len(order)} of {n} nodes lie on or below a parent cycle"
        )

    return Tree(
        parents=tuple(parent_of),
        children=tuple(map(tuple, kids)),
        order=tuple(order),
    )


def postorder(t: Tree) -> list[int]:
    """Node ids with every node after all of its descendants.

    Children are visited in stored (ascending id) order. Iterative, so
    arbitrarily deep trees are fine.
    """
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(t.root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order.append(v)
            continue
        stack.append((v, True))
        for c in reversed(t.children[v]):
            stack.append((c, False))
    return order


def preorder(t: Tree) -> list[int]:
    """Node ids with every node before all of its descendants."""
    order: list[int] = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(t.children[v]))
    return order


def is_binary(t: Tree) -> bool:
    """True iff every internal node has exactly two children.

    Vacuously true for a single-node tree.
    """
    return all(len(kids) == 2 for kids in t.children if kids)
