"""Dynamic-programming solver for arbitrary trees and cost functions.

Works in two phases over the label range [g_min, g_max] (m values):

Up phase (postorder). For every node k and candidate label i, compute
S_k(i), the minimal cost of the subtree rooted at k given k is labeled i.
Leaf rows are 0 at the observed label and infinity elsewhere. An internal
node a with children b_1..b_r gets

    S_a(i) = sum over children b of  min_j [ theta(|i - j|) + S_b(j) ]

with the inner minimum taken by direct scan over j in [g_min, g_max].
The binary two-child case is the r = 2 specialization of the same sum.

The scan runs in builtins. theta is laid out once per solve as the
mirrored list tm = [theta(m-1), ..., theta(1), theta(0), theta(1), ...,
theta(m-1)], so tm[m-1-i+j] == theta(|i - j|) and the window
tm[m-1-i : 2m-1-i] holds theta(|i - j|) for every j. For an internal
child b, whose row is finite everywhere, each i costs one
min(map(add, window, S_b)): every (i, j) pair is still evaluated. A leaf
child labeled p is finite only at p, so its whole contribution is the
window tm[m-1-p : 2m-1-p], theta(|i - p|) for every i, in O(m).

Down phase (preorder). Pick a root label minimizing S_root, then give each
remaining node p, whose parent got label i, the label j minimizing
theta(|i - j|) + S_p(j), by the same windowed scan. Ties go to the
smallest label by default (tie="highest" picks the largest, useful for
probing the set of optima). Note the chosen j need not minimize S_p
itself. A leaf keeps its observed label.

Running time is O(N * m^2) and memory O(N * m): every optimal label lives
in [g_min, g_max], so nothing outside that range is ever scanned, and
windows are sliced on the fly rather than stored. The known O(N * m)
convex-cost speedup is deliberately not implemented; the direct scan is
the contract here. Costs are exact Python ints. math.inf marks the
impossible labels of a leaf row, and since leaf rows never enter a sum,
no int + inf is ever formed: theta values beyond float range (power:200,
say) cannot overflow, and no finite "big number" ever masquerades as
infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from .costs import CostFunction, Labeling, LeafLabeling, eval_total, theta
from .tree import Tree, postorder, preorder

INFINITY = math.inf


@dataclass(frozen=True)
class CostTable:
    """Per-node subtree costs over the label range.

    rows[k][i - g_min] is S_k(i). Leaf rows contain the infinity sentinel
    everywhere except the observed label; internal rows are finite
    everywhere. The minimum of the root row is the optimal total cost.
    """

    g_min: int
    g_max: int
    rows: tuple[tuple, ...]

    @property
    def m(self) -> int:
        return self.g_max - self.g_min + 1

    def row(self, node: int) -> tuple:
        return self.rows[node]


def _mirrored_theta(c: CostFunction, m: int) -> list[int]:
    """theta(m-1), ..., theta(1), theta(0), theta(1), ..., theta(m-1).

    With k = m - 1 - i, the window tm[k : k + m] is theta(|i - j|) for
    j = 0..m-1. Raises DifferenceOutOfRange up front if a custom table is too short
    for this instance's label range.
    """
    th = [theta(c, d) for d in range(m)]
    return th[:0:-1] + th


def dp_up(t: Tree, l: LeafLabeling, c: CostFunction) -> CostTable:
    """Fill the cost table bottom-up (the up phase)."""
    g_min, g_max, m = l.g_min, l.g_max, l.m
    tm = _mirrored_theta(c, m)

    rows: list = [None] * t.node_count
    for v in postorder(t):
        if t.is_leaf(v):
            row = [INFINITY] * m
            row[l.labels[v] - g_min] = 0
            rows[v] = tuple(row)
            continue
        acc = [0] * m
        for child in t.children[v]:
            if t.is_leaf(child):
                k = m - 1 - (l.labels[child] - g_min)
                part = tm[k : k + m]
            else:
                # label i scans the window at k = m - 1 - i, i ascending
                crow = rows[child]
                part = [min(map(add, tm[k : k + m], crow)) for k in range(m - 1, -1, -1)]
            acc = list(map(add, acc, part))
        rows[v] = tuple(acc)
    return CostTable(g_min=g_min, g_max=g_max, rows=tuple(rows))


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
    if tie not in ("lowest", "highest"):
        raise ValueError(f"tie must be 'lowest' or 'highest', got {tie!r}")
    g_min, m = ct.g_min, ct.m
    tm = _mirrored_theta(c, m)
    pick_last = tie == "highest"

    cost, root_labels = min_total(ct, t.root)
    values: dict[int, int] = {t.root: root_labels[-1] if pick_last else root_labels[0]}

    for v in preorder(t):
        if v == t.root:
            continue
        row = ct.rows[v]
        if t.is_leaf(v):
            values[v] = g_min + row.index(0)
            continue
        k = m - 1 - (values[t.parents[v]] - g_min)
        scores = list(map(add, tm[k : k + m], row))
        best = min(scores)
        if pick_last:
            values[v] = g_min + m - 1 - scores[::-1].index(best)
        else:
            values[v] = g_min + scores.index(best)
    return Labeling(values=values, total_cost=eval_total(t, c, values))


def solve_dp(
    t: Tree, l: LeafLabeling, c: CostFunction, tie: str = "lowest"
) -> Labeling:
    """Up phase, root minimization and down phase in one call."""
    return dp_down(t, dp_up(t, l, c), c, tie=tie)


def cost_table_csv(ct: CostTable) -> str:
    """CSV dump: one row per node, one column per label in [g_min, g_max]."""
    header = "node," + ",".join(str(ct.g_min + i) for i in range(ct.m))
    lines = [header]
    for node, row in enumerate(ct.rows):
        cells = ",".join("inf" if v == INFINITY else str(v) for v in row)
        lines.append(f"{node},{cells}")
    return "\n".join(lines) + "\n"
