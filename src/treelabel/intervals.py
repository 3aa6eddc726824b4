"""Linear-time Manhattan solver for binary trees via interval propagation.

Bottom-up stage (Tree.order reversed, children first): each leaf gets
the degenerate interval [p, p]; each internal node gets the merge of its
two children's intervals:

    overlap                -> the intersection
    a entirely below b     -> the gap [a.hi, b.lo]
    b entirely below a     -> the gap [b.hi, a.lo]

Touching intervals (a.hi == b.lo) fall into the intersection case and
both rules agree on the single shared point.

Top-down stage (Tree.order, parents first): pick any root label from the
root interval (the lowest by default; all choices are equally optimal),
then give every other node the point of its interval nearest to its
parent's label, i.e. the parent label clamped into the interval. The result attains the
Manhattan optimum, and the whole thing is O(N) independent of the label
range.

This construction is Manhattan-and-binary specific; other cost functions
or arities go through the DP solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costs import CostFunction, Labeling, LeafLabeling, eval_total
from .errors import NotBinaryTree
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


def merge_intervals(a: Interval, b: Interval) -> Interval:
    """Parent interval of two child intervals: intersection, else the gap."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if lo <= hi:
        return lo, hi
    if a[1] < b[0]:
        return a[1], b[0]
    return b[1], a[0]


def bottom_up_intervals(t: Tree, l: LeafLabeling) -> IntervalAssignment:
    """Assign every node its optimal interval, children before parents.

    Raises NotBinaryTree at the first internal node (in that order) whose
    child count is not 2.
    """
    intervals: list = [None] * t.node_count
    for v in reversed(t.order):
        if t.is_leaf(v):
            p = l.labels[v]
            intervals[v] = (p, p)
            continue
        try:
            left, right = t.children[v]
        except ValueError:
            raise NotBinaryTree(
                "interval solver needs every internal node to have exactly 2 children"
            ) from None
        intervals[v] = merge_intervals(intervals[left], intervals[right])
    return IntervalAssignment(intervals=tuple(intervals))


def _clamp(x: int, lo: int, hi: int) -> int:
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


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

    values: dict[int, int] = {t.root: root_label}
    for v in t.order[1:]:
        q = values[t.parents[v]]
        values[v] = _clamp(q, *iv[v])
    manhattan = CostFunction.manhattan()
    return Labeling(values=values, total_cost=eval_total(t, manhattan, values))


def solve_interval(t: Tree, l: LeafLabeling, tie: str = "lowest") -> Labeling:
    """Both stages in one call. Manhattan cost, binary trees only."""
    return top_down_labels(t, bottom_up_intervals(t, l), tie=tie)


def interval_csv(iv: IntervalAssignment) -> str:
    """CSV dump: node id, interval low, interval high."""
    lines = ["node,lo,hi"]
    for node, (lo, hi) in enumerate(iv.intervals):
        lines.append(f"{node},{lo},{hi}")
    return "\n".join(lines) + "\n"
