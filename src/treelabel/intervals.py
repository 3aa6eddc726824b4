"""Manhattan solvers for trees of any arity: one up phase, two down phases.

The intervals are two lists by node id, lo and hi (IntervalAssignment),
as the labels are one (costs.Labeling). Up phase (Tree.order reversed,
children first): both lists start as copies of the leaf labels, so each
leaf has the degenerate interval [p, p], and only the internal nodes
are filled in. An internal node with r children gets the interval
between the r-th and the (r+1)-th smallest of its children's 2r interval
ends. This is the median rule of ordered-character (Wagner) parsimony
(Farris 1970; Swofford & Maddison 1987). For r = 1 that is the child's
interval; for r = 2 it is the intersection of the two intervals when
they overlap and the gap between them when they do not, and the code
takes it in that closed form: the larger low and the smaller high, in
order, with no sort. Every end is a leaf label or a child's end, so the
phase makes no new int and no object per node.

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

The down phases (Tree.order, parents first) are one loop, _clamp_down:
every non-root node takes its parent's label q moved to the nearest point
of a window. The distance a clamp moves the label is the Manhattan cost
of that edge, so the same loop sums the total cost; no second pass over
the edges is needed. The root rule lives there too: the root takes the
low end of its interval for tie "lowest", the high end for "highest" and
the midpoint, rounded down, for "midpoint"; each public down phase only
checks which ties it takes.

  interval (top_down_labels): the root takes any label of its interval
  (the lowest by default; all choices are equally optimal) and the
  window is the node's interval. A child's contribution grows with its
  distance from its interval, so the clamp is optimal at every arity.

  median (median_down): dp's tie rule. dp gives a node the smallest (or
  the largest) j minimizing |q - j| + S_v(j), whose slope is that of S_v
  plus or minus 1. The smallest such j is q clamped into [below, hi],
  the largest q clamped into [lo, above], and the root's lo (or hi) are
  the ends of its flat stretch. So median reproduces dp_down's labels
  and cost on any Manhattan tree without building a table. The window
  differs from the interval only where q leaves it on the tie side, so
  below (above) is read from the node's children there and nowhere
  else; a unary node keeps q and a leaf keeps its label.

The up phase takes a unary node's interval from its child, a two-child
node's in that closed form and, at any other arity, gathers the node's
child interval ends into one list and sorts them.
That gather, _sorted_ends, also gives median its below and above. So the
up phase is O(N log d) for maximum arity d, a star included, and
independent of the label range; a down phase is O(N).

An IntervalAssignment writes its own --dump text (IntervalAssignment.csv,
through costs.node_csv): one line "node,lo,hi" per node.

Other cost functions go through the DP solvers.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .costs import DP_TIES, TIES, Labeling, LeafLabeling, node_csv
from .tree import Tree


class IntervalAssignment(NamedTuple):
    """The closed integer interval [lo[v], hi[v]] of every node v, lo[v] <= hi[v].

    Two lists by node id, as Labeling.values is; a leaf's entries are both
    its label.
    """

    lo: list
    hi: list

    def csv(self) -> str:
        """The --dump text: node id, interval low, interval high."""
        return node_csv(("lo", "hi"), zip(self.lo, self.hi))


def bottom_up_intervals(t: Tree, l: LeafLabeling) -> IntervalAssignment:
    """Assign every node its optimal interval, children before parents.

    >>> from treelabel import parse_newick
    >>> doc = parse_newick("(1,2,3);")
    >>> iv = bottom_up_intervals(doc.tree, doc.leaf_labels)
    >>> iv.lo[doc.tree.root], iv.hi[doc.tree.root]
    (2, 2)
    """
    children = t.children
    # both ends start as the leaf labels, so a leaf's interval is [p, p]
    # and the loop below fills in only the internal nodes' None
    lo, hi = list(l.labels), list(l.labels)
    for v in reversed(t.order):
        kids = children[v]
        if not kids:
            continue
        if len(kids) == 2:
            # the 2nd and 3rd smallest of the four ends are the larger low
            # and the smaller high: the intersection, or the gap, in order
            a, b = kids
            x, y = lo[a], lo[b]
            if x < y:
                x = y
            y, z = hi[a], hi[b]
            if z < y:
                y = z
            if x <= y:
                lo[v], hi[v] = x, y
            else:
                lo[v], hi[v] = y, x
        elif len(kids) == 1:
            lo[v], hi[v] = lo[kids[0]], hi[kids[0]]
        else:
            # the r-th and (r+1)-th smallest of the children's 2r interval ends
            ends = _sorted_ends(kids, lo, hi)
            r = len(kids)
            lo[v], hi[v] = ends[r - 1], ends[r]
    return IntervalAssignment(lo, hi)


def _sorted_ends(kids, lo: list, hi: list) -> list[int]:
    """The 2r interval ends of a node's r children, ascending."""
    ends = []
    for kid in kids:
        ends.append(lo[kid])
        ends.append(hi[kid])
    ends.sort()
    return ends


def _stretch_label(q: int, kids, iv: IntervalAssignment, lowest: bool) -> int:
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
    ends = _sorted_ends(kids, iv.lo, iv.hi)
    return max(q, ends[r - 2]) if lowest else min(q, ends[r + 1])


def _clamp_down(t: Tree, iv: IntervalAssignment, tie: str, stretch: bool) -> Labeling:
    """Label the root by tie, then each other node by clamping its parent's label.

    The root takes the low end of its interval for tie "lowest", the high
    end for "highest" and the midpoint, rounded down, for "midpoint", so
    the root rule of both down phases lives here. Every other node takes
    its parent's label clamped into its interval; with stretch and tie
    "lowest" ("highest"), an internal node whose parent's label lies below
    (above) its interval takes _stretch_label's label instead.

    The labels are one list by node id, made as N copies of the root's
    label and filled in place, parents first. Each label is an interval
    end or its parent's label (a "midpoint" root's aside), so the phase
    makes no new int.
    """
    # the distance a clamp moves the label is that edge's Manhattan cost
    parents, children, los, his = t.parents, t.children, iv.lo, iv.hi
    lo, hi = los[t.root], his[t.root]
    root_label = lo if tie == "lowest" else hi if tie == "highest" else (lo + hi) // 2
    lowest, highest = stretch and tie == "lowest", stretch and tie == "highest"
    values = [root_label] * t.node_count
    total = 0
    for v in islice(t.order, 1, None):
        q = values[parents[v]]
        lo = los[v]
        if q < lo:
            if lowest and children[v]:
                lo = _stretch_label(q, children[v], iv, True)
            values[v] = lo
            total += lo - q
            continue
        hi = his[v]
        if q > hi:
            if highest and children[v]:
                hi = _stretch_label(q, children[v], iv, False)
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
    return _clamp_down(t, iv, tie, stretch=False)


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
    return _clamp_down(t, iv, tie, stretch=True)
