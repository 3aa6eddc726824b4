"""Manhattan solvers for trees of any arity: one up phase, two down phases.

Up phase (Tree.order reversed, children first): each leaf gets the
degenerate interval [p, p]. An internal node with r children gets the
interval between the r-th and the (r+1)-th smallest of its children's 2r
interval ends. This is the median rule of ordered-character (Wagner)
parsimony (Farris 1970; Swofford & Maddison 1987). For r = 1 it copies
the child's interval; for r = 2 it is the intersection of the two
intervals when they overlap and the gap between them when they do not.

Why the rule is optimal: under Manhattan cost the subtree cost S_b of a
child b is convex with integer slopes and flat exactly on b's interval
I_b = [lo, hi] at its minimum M_b, so the child contributes
M_b + dist(i, I_b) to its parent labeled i. Since
dist(i, [lo, hi]) = (|i - lo| + |i - hi| - (hi - lo)) / 2, the sum over
the children is, up to a constant, half the sum of |i - e| over the 2r
ends e, which is minimal exactly between its two middle ends. Its slope
between the k-th and the (k+1)-th smallest end is k - r, so S_v falls
with slope -1 on [below, lo] and rises with slope +1 on [hi, above],
below and above being the (r-1)-th and the (r+2)-th smallest ends; a
unary node's cost falls and rises with slope 1 over the whole label
range.

The down phases (Tree.order, parents first) both clamp: every non-root
node takes its parent's label q moved to the nearest point of a window.
The distance a clamp moves the label is the Manhattan cost of that edge,
so the same loop sums the total cost; no second pass over the edges is
needed.

  interval (top_down_labels): the root takes any label of its interval
  (the lowest by default; all choices are equally optimal) and the
  window is the node's interval. A child's contribution grows with its
  distance from its interval, so the clamp is optimal at every arity.

  median (median_down): dp's tie rule. dp gives a node the smallest (or
  the largest) j minimizing |q - j| + S_v(j), whose slope is that of S_v
  plus or minus 1. The smallest such j is q clamped into [below, hi],
  the largest q clamped into [lo, above], and the root takes lo (or hi),
  the ends of its flat stretch. So median reproduces dp_down's labels
  and cost on any Manhattan tree without building a table. The window
  differs from the interval only where q leaves it on the tie side, so
  below (above) is read from the node's children there and nowhere
  else; a unary node keeps q and a leaf keeps its label.

The up phase gathers a node's child interval ends into one list and sorts
it, so it is O(N log d) for maximum arity d at every arity, a star
included, and independent of the label range; a down phase is O(N).

Other cost functions go through the DP solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import Labeling, LeafLabeling
from .dp import TIES as DP_TIES
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
    for v in reversed(t.order):
        kids = children[v]
        if not kids:
            p = labels[v]
            intervals[v] = (p, p)
            continue
        # the r-th and (r+1)-th smallest of the children's 2r interval ends,
        # gathered by extending one list in place: linear in r
        ends = []
        for kid in kids:
            ends += intervals[kid]
        ends.sort()
        r = len(kids)
        intervals[v] = ends[r - 1], ends[r]
    return IntervalAssignment(intervals=tuple(intervals))


def _stretch_label(q: int, kids, intervals, lowest: bool) -> int:
    """dp's label for an internal node whose parent's label q leaves its interval.

    For lowest, q lies below the interval and is raised to the end of the
    stretch where the node's subtree cost falls with slope -1 into it: the
    (r-1)-th smallest of its r children's 2r interval ends. For highest, q
    lies above and is lowered to the end of the stretch where the cost
    rises with slope +1 out of it: the (r+2)-th smallest. A unary node's
    stretches span the whole label range, so it keeps q.
    """
    r = len(kids)
    if r == 1:
        return q
    ends = []
    for kid in kids:
        ends += intervals[kid]
    ends.sort()
    return max(q, ends[r - 2]) if lowest else min(q, ends[r + 1])


def _clamp_down(
    t: Tree, iv: IntervalAssignment, root_label: int, dp_tie: str | None = None
) -> Labeling:
    """Give every non-root node its parent's label clamped into its interval.

    With dp_tie "lowest" ("highest"), an internal node whose parent's label
    lies below (above) its interval takes _stretch_label's label instead.
    """
    # the distance a clamp moves the label is that edge's Manhattan cost
    parents, children, intervals = t.parents, t.children, iv.intervals
    lowest, highest = dp_tie == "lowest", dp_tie == "highest"
    values: dict[int, int] = {t.root: root_label}
    total = 0
    for v in t.order[1:]:
        q = values[parents[v]]
        lo, hi = intervals[v]
        if q < lo:
            if lowest and children[v]:
                lo = _stretch_label(q, children[v], intervals, True)
            values[v] = lo
            total += lo - q
        elif q > hi:
            if highest and children[v]:
                hi = _stretch_label(q, children[v], intervals, False)
            values[v] = hi
            total += q - hi
        else:
            values[v] = q
    return Labeling(values=values, total_cost=total)


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
    return _clamp_down(t, iv, root_label)


def median_down(
    t: Tree, iv: IntervalAssignment, tie: str = "lowest"
) -> Labeling:
    """dp_down's labels and cost from bottom_up_intervals' intervals.

    >>> from treelabel import parse_newick
    >>> doc = parse_newick("((0,4),(1,5,9));")
    >>> iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
    >>> median_down(doc.tree, iv).values[2], median_down(doc.tree, iv, "highest").values[2]
    (4, 5)
    """
    if tie not in DP_TIES:
        raise ValueError(f"tie must be one of {DP_TIES}, got {tie!r}")
    lo, hi = iv[t.root]
    return _clamp_down(t, iv, lo if tie == "lowest" else hi, tie)


def solve_interval(t: Tree, l: LeafLabeling, tie: str = "lowest") -> Labeling:
    """Both stages in one call. Manhattan cost, any arity."""
    return top_down_labels(t, bottom_up_intervals(t, l), tie=tie)


def interval_csv(iv: IntervalAssignment) -> str:
    """CSV dump: node id, interval low, interval high."""
    lines = ["node,lo,hi"]
    for node, (lo, hi) in enumerate(iv.intervals):
        lines.append(f"{node},{lo},{hi}")
    return "\n".join(lines) + "\n"
