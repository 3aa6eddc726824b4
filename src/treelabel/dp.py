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
Two up phases fill the same table and differ only in how they take the
inner minimum of an internal child; the leaf rows and the leaf-child
contribution are one shared loop.

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
row is then discrete convex, and so is tm. The contribution of an
internal child is the infimal convolution of tm and S_b, whose slope
sequence is the sorted merge of theirs (Murota, Discrete Convex Analysis,
2003), so prefix sums of the merged slopes give every value in O(m).
O(N * m) time, and a table identical to dp_up's.

Down phase (Tree.order, parents first). Pick a root label minimizing
S_root, then give each remaining node p, whose parent got label i, the
label j minimizing theta(|i - j|) + S_p(j), by the same windowed scan.
Ties go to the smallest label by default (tie="highest" picks the
largest, useful for probing the set of optima). Note the chosen j need
not minimize S_p itself. A leaf keeps its observed label.

Memory is O(N_internal * m + L * m) for L distinct leaf labels (L <= m):
every optimal label lives in [g_min, g_max], so nothing outside that
range is ever scanned, windows are sliced on the fly rather than stored,
and the leaf rows are shared per distinct label. Costs are exact Python ints. math.inf marks
the impossible labels of a leaf row, and since leaf rows never enter a
sum or a slope, no int + inf is ever formed: theta values beyond float
range (power:200, say) cannot overflow, and no finite "big number" ever
masquerades as infinity.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import add, sub
from typing import NamedTuple

from .costs import CostFunction, Labeling, LeafLabeling, theta_function
from .errors import UnsupportedAlgorithm
from .tree import Tree

INFINITY = math.inf

# the tie rules dp_down accepts
TIES = ("lowest", "highest")


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


def _mirrored_theta(c: CostFunction, m: int) -> list[int]:
    """theta(m-1), ..., theta(1), theta(0), theta(1), ..., theta(m-1).

    With k = m - 1 - i, the window tm[k : k + m] is theta(|i - j|) for
    j = 0..m-1. Raises DifferenceOutOfRange up front if a custom table is too short
    for this instance's label range.
    """
    th = list(map(theta_function(c), range(m)))
    return th[:0:-1] + th


def _up_phase(t: Tree, l: LeafLabeling, c: CostFunction, contribution) -> CostTable:
    """Fill the cost table bottom-up, the loop both up phases share.

    ``contribution(tm, m)`` returns the function that maps the row of an
    internal child to min_j theta(|i - j|) + S_b(j) for every i.
    """
    g_min, g_max, m = l.g_min, l.g_max, l.m
    tm = _mirrored_theta(c, m)
    internal_part = contribution(tm, m)

    children, labels = t.children, l.labels
    # one row per distinct leaf label, shared by every leaf carrying it
    leaf_rows: dict[int, tuple] = {}
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
        acc = None
        for child in kids:
            if children[child]:
                part = internal_part(rows[child])
            else:
                k = m - 1 - (labels[child] - g_min)
                part = tm[k : k + m]
            acc = part if acc is None else list(map(add, acc, part))
        rows[v] = tuple(acc)
    return CostTable(g_min=g_min, g_max=g_max, rows=tuple(rows))


def _scan(tm: list[int], m: int):
    def part(crow: tuple) -> list[int]:
        # label i scans the window at k = m - 1 - i, i ascending
        return [min(map(add, tm[k : k + m], crow)) for k in range(m - 1, -1, -1)]

    return part


def _slope_merge(tm: list[int], m: int):
    # tm read as a function of d = i - j in [-(m-1), m-1]; convolved with a
    # row over j in [0, m-1] it covers i in [-(m-1), 2m-2], starting from
    # tm[0] + row[0], and labels 0..m-1 are its entries m-1..2m-2
    theta_slopes = list(map(sub, tm[1:], tm))

    def part(crow: tuple) -> list[int]:
        merged = sorted(theta_slopes + list(map(sub, crow[1:], crow)))
        sums = accumulate(merged, initial=tm[0] + crow[0])
        return list(islice(sums, m - 1, 2 * m - 1))

    return part


def dp_up(t: Tree, l: LeafLabeling, c: CostFunction) -> CostTable:
    """Fill the cost table bottom-up by direct scan (the dp up phase)."""
    return _up_phase(t, l, c, _scan)


def require_convex(c: CostFunction) -> None:
    """UnsupportedAlgorithm unless convex_up applies to ``c``."""
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


def dp_down(t: Tree, ct: CostTable, c: CostFunction, tie: str = "lowest") -> Labeling:
    """Reconstruct one optimal labeling top-down (the down phase).

    Deterministic: the root takes the smallest minimizer of its row, and
    every other node the smallest j minimizing theta(|i - j|) + S(j) given
    its parent's label i (largest with tie="highest"). A leaf takes its
    observed label, the one finite entry of its row.
    """
    if tie not in TIES:
        raise ValueError(f"tie must be 'lowest' or 'highest', got {tie!r}")
    g_min, m = ct.g_min, ct.m
    tm = _mirrored_theta(c, m)
    pick_last = tie == "highest"

    cost, root_labels = min_total(ct, t.root)
    values: dict[int, int] = {t.root: root_labels[-1] if pick_last else root_labels[0]}

    children, parents, rows = t.children, t.parents, ct.rows
    for v in t.order[1:]:
        row = rows[v]
        if not children[v]:
            values[v] = g_min + row.index(0)
            continue
        k = m - 1 - (values[parents[v]] - g_min)
        scores = list(map(add, tm[k : k + m], row))
        best = min(scores)
        if pick_last:
            values[v] = g_min + m - 1 - scores[::-1].index(best)
        else:
            values[v] = g_min + scores.index(best)
    return Labeling(values=values, total_cost=cost)


def cost_table_csv(ct: CostTable) -> str:
    """CSV dump: one row per node, one column per label in [g_min, g_max]."""
    header = "node," + ",".join(str(ct.g_min + i) for i in range(ct.m))
    lines = [header]
    for node, row in enumerate(ct.rows):
        # str(INFINITY) is "inf"
        lines.append(f"{node},{','.join(map(str, row))}")
    return "\n".join(lines) + "\n"
