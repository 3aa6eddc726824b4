"""Algorithm selection shared by the estimator, the k-tuple solver and the CLI.

The table solvers (dp.py), the interval solvers (intervals.py) and the
oracle are imported by the branches that run them, so a solve loads only
its own solver: a Manhattan one no dp.py, a dp or convex one no
intervals.py.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from .costs import DP_TIES, TIES, CostFunction, Labeling, LeafLabeling
from .errors import UnsupportedAlgorithm
from .tree import Tree, is_binary

if TYPE_CHECKING:
    from .dp import CostTable
    from .intervals import IntervalAssignment

ALGORITHMS = ("auto", "dp", "convex", "interval", "median", "oracle")

# the algorithms whose up phase is a CostTable
TABLE_ALGORITHMS = ("dp", "convex")
# the algorithms whose up phase is an interval [lo, hi] per node, Manhattan cost only
INTERVAL_ALGORITHMS = ("interval", "median")

_TIES_BY_ALGORITHM = {
    "dp": DP_TIES,
    "convex": DP_TIES,
    "interval": TIES,
    "median": DP_TIES,
    "oracle": ("lowest",),
}


def choose_algorithm(algorithm: str, t: Tree, c: CostFunction, tie: str = "lowest") -> str:
    """Resolve "auto" and reject impossible requests.

    auto picks the first solver that applies to the tree, the cost and the
    tie rule, fastest first: interval (binary tree or tie "midpoint",
    Manhattan cost, O(N)), then median (any other tree, Manhattan cost,
    O(N log d) for maximum arity d), then convex (convex cost, O(N * m)),
    then dp (O(N * m^2)). interval and median share an up phase and handle
    any arity; median's down phase gives dp's labels, so auto's output on
    a non-binary tree is convex's, while interval's clamp labeling there
    can differ at equal cost. Only interval takes the tie "midpoint", so
    auto takes it for that tie on any Manhattan tree. Forcing a solver
    that does not apply is an error, never a silent fallback: a
    non-Manhattan cost for interval or median and a non-convex cost for
    convex are rejected here, and an already resolved name passes through
    without a tree pass.
    """
    if algorithm not in ALGORITHMS:
        raise UnsupportedAlgorithm(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if algorithm == "auto":
        if c.kind == "manhattan":
            return "interval" if tie == "midpoint" or is_binary(t) else "median"
        return "convex" if c.is_convex else "dp"
    if algorithm in INTERVAL_ALGORITHMS and c.kind != "manhattan":
        raise UnsupportedAlgorithm(
            f"{algorithm} solver supports manhattan cost only, got {c.spec()!r}"
        )
    if algorithm == "convex":
        from .dp import require_convex

        require_convex(c)
    return algorithm


def solve_scalar(
    t: Tree,
    l: LeafLabeling,
    c: CostFunction,
    algorithm: str = "auto",
    tie: str = "lowest",
) -> tuple[str, Labeling, Optional[Union[CostTable, IntervalAssignment]]]:
    """Solve one scalar instance: (resolved algorithm, labeling, up-phase result).

    The up-phase result is the CostTable of a dp or convex solve (the
    same table either way) or the IntervalAssignment, the interval ends
    lo and hi as lists by node id, of an interval or median solve
    (bottom_up_intervals' either way),
    handed back so that callers reuse it instead of computing it again;
    the oracle has none (None).
    The oracle path returns the first optimal labeling in enumeration
    order, only supports the default tie rule and takes its budget from
    TREELABEL_BUDGET.
    """
    resolved = choose_algorithm(algorithm, t, c, tie)
    allowed_ties = _TIES_BY_ALGORITHM[resolved]
    if tie not in allowed_ties:
        raise UnsupportedAlgorithm(
            f"tie {tie!r} is not available for the {resolved} solver "
            f"(allowed: {', '.join(allowed_ties)})"
        )
    if resolved in TABLE_ALGORITHMS:
        from .dp import convex_down, convex_up, dp_down, dp_up

        up, down = (convex_up, convex_down) if resolved == "convex" else (dp_up, dp_down)
        table = up(t, l, c)
        return resolved, down(t, table, c, tie=tie), table
    if resolved in INTERVAL_ALGORITHMS:
        from .intervals import bottom_up_intervals, median_down, top_down_labels

        intervals = bottom_up_intervals(t, l)
        down = median_down if resolved == "median" else top_down_labels
        return resolved, down(t, intervals, tie=tie), intervals
    from .oracle import brute_force_min

    optimum = brute_force_min(t, l, c, max_labelings=1)
    return resolved, optimum.labelings[0], None
