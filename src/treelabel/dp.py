"""Dynamic-programming solvers for arbitrary trees and cost functions.

Works in two phases over the label range [g_min, g_max] (m values):

Up phase (Tree.order reversed, children first). For every node k and
candidate label i, compute S_k(i), the minimal cost of the subtree rooted
at k given k is labeled i. Leaf rows are 0 at the observed label and
infinity elsewhere; leaves with the same label share one row. An
internal node a with children b_1..b_r gets

    S_a(i) = sum over children b of  min_j [ theta(|i - j|) + S_b(j) ]

The binary two-child case is the r = 2 specialization of the same sum,
which starts from the first child's part.
Two up phases fill the same table and differ only in what a child's
part holds and how an internal child's part is found; the leaf rows, the
leaf-child parts (one per distinct label) and the sum over children are
one shared loop. That sum is lazy: the children's parts are added by a
chain of map(add, ...) iterators and listed once, one list per internal
node rather than one per child after the first.

theta is laid out once per solve as the mirrored list tm = [theta(m-1),
..., theta(1), theta(0), theta(1), ..., theta(m-1)], so tm[m-1-i+j] ==
theta(|i - j|) and the window tm[m-1-i : 2m-1-i] holds theta(|i - j|) for
every j. A leaf child labeled p is finite only at p, so its whole
contribution is the window tm[m-1-p : 2m-1-p], theta(|i - p|) for every
i, in O(m).

dp_up, any theta: for an internal child b, whose row is finite
everywhere, each i costs one min(map(add, window, S_b)), a direct scan in
builtins that evaluates every (i, j) pair. O(N * m^2) time; this direct
scan is the contract of the "dp" algorithm.

convex_up, convex theta (increments that never decrease): every internal
row is then discrete convex, and so is tm. It works in slope form: a
part is its value at label 0 followed by its m - 1 steps from one label
to the next, and parts still add entrywise. The contribution of an
internal child is the infimal convolution of tm and S_b, whose slope
sequence is the sorted merge of theirs (Murota, Discrete Convex Analysis,
2003); the merge is read from each row's slope form, kept until its
parent has used it, and a leaf child's slope form is a window of tm's
steps. Each row is one prefix sum of its slope form. O(N * m) time, and
a table identical to dp_up's.

Down phase (Tree.order, parents first). Pick a root label minimizing
S_root, then give each remaining node p, whose parent got label i, the
label j minimizing f(j) = theta(|i - j|) + S_p(j). Ties go to the
smallest label by default (tie="highest" picks the largest, useful for
probing the set of optima). Note the chosen j need not minimize S_p
itself. A leaf keeps its observed label, looked up once per shared leaf
row. Two down phases share that loop and differ only in how they find j:

- dp_down scans every j with the same window, O(N * m), whatever theta.
- convex_down, convex theta: f is convex, so its steps f(j+1) - f(j)
  never decrease; the smallest minimizer is the first j whose step is
  >= 0 and the largest the first whose step is >= 1 (> 0, the steps being
  ints). One plain bisection loop over that step test finds it for both
  ties in O(log m) per node, O(N log m) in all, the same labels as
  dp_down.

Memory is O(N_internal * m + L * m) for L distinct leaf labels (L <= m):
every optimal label lives in [g_min, g_max], so nothing outside that
range is ever scanned, windows are sliced on the fly rather than stored,
and the leaf rows and leaf-child parts are shared per distinct label.
Costs are exact Python ints. math.inf marks the impossible labels of a
leaf row, and since leaf rows never enter a
sum or a slope, no int + inf is ever formed: theta values beyond float
range (power:200, say) cannot overflow, and no finite "big number" ever
masquerades as infinity.

A CostTable writes its own --dump text (CostTable.csv, through
costs.node_csv): one line per node, one column per label, "inf" at a
leaf row's impossible labels.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import add, sub
from typing import NamedTuple

from .costs import DP_TIES, CostFunction, Labeling, LeafLabeling, node_csv, theta_function
from .errors import UnsupportedAlgorithm
from .tree import Tree

INFINITY = math.inf
# the most children whose parts _up_phase sums by one chain of lazy maps:
# each map nests one C call per entry, and 10,000 overflow a 256 KiB stack
_CHAIN = 64


class CostTable(NamedTuple):
    """Per-node subtree costs over the label range.

    rows[k][i - g_min] is S_k(i). Leaf rows contain the infinity sentinel
    everywhere except the observed label, and leaves with the same label
    share one row object, so a table holds O(N_internal * m + distinct leaf
    labels * m) values; internal rows are finite everywhere. The minimum
    of the root row is the optimal total cost.
    """

    g_min: int
    g_max: int
    rows: tuple[tuple, ...]

    @property
    def m(self) -> int:
        return self.g_max - self.g_min + 1

    def csv(self) -> str:
        """The --dump text: one row per node, one column per label in [g_min, g_max].

        An impossible label of a leaf row reads "inf".
        """
        return node_csv(range(self.g_min, self.g_max + 1), self.rows)


def _mirrored_theta(c: CostFunction, m: int) -> list[int]:
    """theta(m-1), ..., theta(1), theta(0), theta(1), ..., theta(m-1).

    With k = m - 1 - i, the window tm[k : k + m] is theta(|i - j|) for
    j = 0..m-1. Raises DifferenceOutOfRange up front if a custom table is too short
    for this instance's label range.
    """
    th = list(map(theta_function(c), range(m)))
    return th[:0:-1] + th


def _up_phase(t: Tree, l: LeafLabeling, c: CostFunction, rule) -> CostTable:
    """Fill the cost table bottom-up, the loop both up phases share.

    A node's form is the elementwise sum of its children's parts, lists of
    m ints whose meaning the rule sets. The sum is a chain of lazy
    map(add, ...) iterators, listed once per node; a node of more than
    _CHAIN children lists it at every child instead, since each map in a
    chain nests one more C call per entry. ``rule(tm, m)`` returns
    ``leaf_part(k)``, the part of a leaf child whose theta window starts
    at k; ``internal_part(form)``, the part of an internal child; and
    ``to_row(form)``, the node's row.
    """
    g_min, g_max, m = l.g_min, l.g_max, l.m
    tm = _mirrored_theta(c, m)
    leaf_part, internal_part, to_row = rule(tm, m)

    children, labels = t.children, l.labels
    # one row and one part per distinct leaf label, shared by every leaf carrying it
    leaf_rows: dict[int, tuple] = {}
    leaf_parts: dict[int, list] = {}
    # an internal node's form, kept until its parent has read it
    forms: dict[int, list] = {}
    rows: list = [None] * t.node_count
    for v in reversed(t.order):
        kids = children[v]
        if not kids:
            label = labels[v]
            row = leaf_rows.get(label)
            if row is None:
                row = [INFINITY] * m
                row[label - g_min] = 0
                row = leaf_rows[label] = tuple(row)
            rows[v] = row
            continue
        lazy = len(kids) <= _CHAIN
        acc = None
        for child in kids:
            if children[child]:
                part = internal_part(forms.pop(child))
            else:
                label = labels[child]
                part = leaf_parts.get(label)
                if part is None:
                    part = leaf_parts[label] = leaf_part(m - 1 - (label - g_min))
            if acc is None:
                acc = part
            else:
                acc = map(add, acc, part) if lazy else list(map(add, acc, part))
        forms[v] = acc = list(acc)
        rows[v] = to_row(acc)
    return CostTable(g_min=g_min, g_max=g_max, rows=tuple(rows))


def _scan(tm: list[int], m: int):
    # a form is the row itself: entry i is the value at label i
    def internal_part(crow: list[int]) -> list[int]:
        # label i scans the window at k = m - 1 - i, i ascending
        return [min(map(add, tm[k : k + m], crow)) for k in range(m - 1, -1, -1)]

    return (lambda k: tm[k : k + m]), internal_part, tuple


def _slope_merge(tm: list[int], m: int):
    # a form is in slope form: entry 0 is the value at label 0 and entry i
    # the step from label i - 1 to label i. tm read as a function of
    # d = i - j in [-(m-1), m-1], convolved with a row over j in [0, m-1],
    # covers i in [-(m-1), 2m-2] with slopes the sorted merge of both,
    # starting from tm[0] + row[0]; labels 0..m-1 are its entries m-1..2m-2
    theta_slopes = list(map(sub, tm[1:], tm))

    def leaf_part(k: int) -> list[int]:
        return [tm[k], *theta_slopes[k : k + m - 1]]

    def internal_part(form: list[int]) -> list[int]:
        merged = theta_slopes + form
        at0 = tm[0] + merged.pop(2 * m - 2)
        merged.sort()
        # keep the slopes m-1..2m-3 behind the value at label 0
        del merged[2 * m - 2 :]
        merged[: m - 1] = (at0 + sum(merged[: m - 1]),)
        return merged

    return leaf_part, internal_part, lambda form: tuple(accumulate(form))


def dp_up(t: Tree, l: LeafLabeling, c: CostFunction) -> CostTable:
    """Fill the cost table bottom-up by direct scan (the dp up phase)."""
    return _up_phase(t, l, c, _scan)


def require_convex(c: CostFunction) -> None:
    """UnsupportedAlgorithm unless the convex phases apply to ``c``."""
    if not c.is_convex:
        raise UnsupportedAlgorithm(
            f"convex solver needs a cost whose increments never decrease, got {c.spec()!r}"
        )


def convex_up(t: Tree, l: LeafLabeling, c: CostFunction) -> CostTable:
    """The table of dp_up, in O(N * m) by slope merge; convex costs only."""
    require_convex(c)
    return _up_phase(t, l, c, _slope_merge)


def min_total(ct: CostTable, root: int) -> tuple[int, list[int]]:
    """Optimal total cost and ALL root labels attaining it, ascending."""
    row = ct.rows[root]
    best = min(row)
    labels = [ct.g_min + i for i, val in enumerate(row) if val == best]
    return best, labels


def _down_phase(t: Tree, ct: CostTable, c: CostFunction, tie: str, rule) -> Labeling:
    """Reconstruct one labeling top-down, the loop both down phases share.

    ``rule(tm, m, pick_last)`` returns ``pick(k, row)``: the index j in
    [0, m) minimizing tm[k + j] + row[j], the smallest such j, or the
    largest with ``pick_last``. The labels are one list by node id, made
    as N copies of the root's label and filled in place, parents first.
    """
    if tie not in DP_TIES:
        raise ValueError(f"tie must be 'lowest' or 'highest', got {tie!r}")
    g_min, m = ct.g_min, ct.m
    pick_last = tie == "highest"
    pick = rule(_mirrored_theta(c, m), m, pick_last)

    cost, root_labels = min_total(ct, t.root)
    values = [root_labels[-1] if pick_last else root_labels[0]] * t.node_count

    children, parents, rows = t.children, t.parents, ct.rows
    # a leaf's label is the one finite entry of its row, found once per
    # shared row object
    leaf_labels: dict[int, int] = {}
    for v in islice(t.order, 1, None):
        row = rows[v]
        if not children[v]:
            label = leaf_labels.get(id(row))
            if label is None:
                label = leaf_labels[id(row)] = g_min + row.index(0)
            values[v] = label
            continue
        values[v] = g_min + pick(m - 1 - (values[parents[v]] - g_min), row)
    return Labeling(values=values, total_cost=cost)


def _scan_pick(tm: list[int], m: int, pick_last: bool):
    def pick(k: int, row: tuple) -> int:
        scores = list(map(add, tm[k : k + m], row))
        best = min(scores)
        if pick_last:
            return m - 1 - scores[::-1].index(best)
        return scores.index(best)

    return pick


def _step_search(tm: list[int], m: int, pick_last: bool):
    # f(j) = tm[k + j] + row[j] is convex in j, so its steps never
    # decrease: the smallest minimizer is the first j whose step to j + 1
    # is >= 0, the largest the first whose step is >= 1, that is > 0, as
    # the steps are ints (m - 1 if none)
    theta_slopes = list(map(sub, tm[1:], tm))
    least = 1 if pick_last else 0

    def pick(k: int, row: tuple) -> int:
        lo, hi = 0, m - 1
        while lo < hi:
            j = (lo + hi) // 2
            if theta_slopes[k + j] + row[j + 1] - row[j] < least:
                lo = j + 1
            else:
                hi = j
        return lo

    return pick


def dp_down(t: Tree, ct: CostTable, c: CostFunction, tie: str = "lowest") -> Labeling:
    """Reconstruct one optimal labeling top-down (the down phase).

    Deterministic: the root takes the smallest minimizer of its row, and
    every other node the smallest j minimizing theta(|i - j|) + S(j) given
    its parent's label i (largest with tie="highest"), by a direct scan of
    every j. A leaf takes its observed label, the one finite entry of its
    row.
    """
    return _down_phase(t, ct, c, tie, _scan_pick)


def convex_down(t: Tree, ct: CostTable, c: CostFunction, tie: str = "lowest") -> Labeling:
    """The labeling of dp_down, each j found by binary search; convex costs only.

    ``ct`` must be the table of the same instance and cost (convex_up's or
    dp_up's), whose internal rows are then discrete convex.
    """
    require_convex(c)
    return _down_phase(t, ct, c, tie, _step_search)
