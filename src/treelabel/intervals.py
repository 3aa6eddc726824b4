"""Manhattan solver for trees of any arity via interval propagation.

Bottom-up stage (Tree.order reversed, children first): each leaf gets
the degenerate interval [p, p]. An internal node with r children gets
the interval between the r-th and the (r+1)-th smallest of its
children's 2r interval ends. This is the median rule of ordered-character
(Wagner) parsimony (Farris 1970; Swofford & Maddison 1987). For r = 1 it
copies the child's interval; for r = 2 it is the intersection of the two
intervals when they overlap and the gap between them when they do not.

Why the rule is optimal: under Manhattan cost the subtree cost S_b of a
child b is convex with integer slopes and flat exactly on b's interval
I_b = [lo, hi] at its minimum M_b, so the child contributes
M_b + dist(i, I_b) to its parent labeled i. Since
dist(i, [lo, hi]) = (|i - lo| + |i - hi| - (hi - lo)) / 2, the sum over
the children is, up to a constant, half the sum of |i - e| over the 2r
ends e, which is minimal exactly between its two middle ends.

Top-down stage (Tree.order, parents first): pick any root label from the
root interval (the lowest by default; all choices are equally optimal),
then give every other node the point of its interval nearest to its
parent's label, i.e. the parent label clamped into the interval. A
child's contribution grows with its distance from its interval, so the
clamp is optimal at every arity. The distance a clamp moves the label is
the Manhattan cost of that edge, so the same loop sums the total cost;
no second pass over the edges is needed. The up stage is O(N log d) for
maximum arity d, independent of the label range; the down stage is O(N).

Other cost functions go through the DP solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import Labeling, LeafLabeling
from .tree import Tree

Interval = tuple[int, int]

# the root-label rules top_down_labels accepts
TIES = ("lowest", "highest", "midpoint")


@dataclass(frozen=True)
class IntervalAssignment:
    """Closed integer interval (lo, hi) per node, lo <= hi."""

    intervals: tuple[Interval, ...]

    def __getitem__(self, node: int) -> Interval:
        return self.intervals[node]


def bottom_up_intervals(t: Tree, l: LeafLabeling) -> IntervalAssignment:
    """Assign every node its optimal interval, children before parents.

    >>> from treelabel import parse_newick
    >>> doc = parse_newick("(1,2,3);")
    >>> bottom_up_intervals(doc.tree, doc.leaf_labels)[doc.tree.root]
    (2, 2)
    """
    children, labels = t.children, l.labels
    intervals: list = [None] * t.node_count
    interval_of = intervals.__getitem__
    for v in reversed(t.order):
        kids = children[v]
        if not kids:
            p = labels[v]
            intervals[v] = (p, p)
            continue
        # the r-th and (r+1)-th smallest of the children's 2r interval ends
        ends = sorted(sum(map(interval_of, kids), ()))
        r = len(kids)
        intervals[v] = ends[r - 1], ends[r]
    return IntervalAssignment(intervals=tuple(intervals))


def top_down_labels(
    t: Tree, iv: IntervalAssignment, tie: str = "lowest"
) -> Labeling:
    """Pick concrete labels: root by tie rule, others clamped to the parent."""
    if tie not in TIES:
        raise ValueError(f"tie must be one of {TIES}, got {tie!r}")
    lo, hi = iv[t.root]
    if tie == "lowest":
        root_label = lo
    elif tie == "highest":
        root_label = hi
    else:
        root_label = (lo + hi) // 2

    # the distance a clamp moves the label is that edge's Manhattan cost
    parents, intervals = t.parents, iv.intervals
    values: dict[int, int] = {t.root: root_label}
    total = 0
    for v in t.order[1:]:
        q = values[parents[v]]
        lo, hi = intervals[v]
        if q < lo:
            values[v] = lo
            total += lo - q
        elif q > hi:
            values[v] = hi
            total += q - hi
        else:
            values[v] = q
    return Labeling(values=values, total_cost=total)


def solve_interval(t: Tree, l: LeafLabeling, tie: str = "lowest") -> Labeling:
    """Both stages in one call. Manhattan cost, any arity."""
    return top_down_labels(t, bottom_up_intervals(t, l), tie=tie)


def interval_csv(iv: IntervalAssignment) -> str:
    """CSV dump: node id, interval low, interval high."""
    lines = ["node,lo,hi"]
    for node, (lo, hi) in enumerate(iv.intervals):
        lines.append(f"{node},{lo},{hi}")
    return "\n".join(lines) + "\n"
