"""Algorithm selection shared by the estimator, the k-tuple solver and the CLI."""

from __future__ import annotations

from typing import Optional, Union

from .costs import CostFunction, Labeling, LeafLabeling
from .dp import CostTable, dp_down, dp_up
from .errors import UnsupportedAlgorithm
from .intervals import IntervalAssignment, bottom_up_intervals, top_down_labels
from .oracle import brute_force_min
from .tree import Tree, is_binary

ALGORITHMS = ("auto", "dp", "interval", "oracle")

_TIES_BY_ALGORITHM = {
    "dp": ("lowest", "highest"),
    "interval": ("lowest", "highest", "midpoint"),
    "oracle": ("lowest",),
}


def choose_algorithm(algorithm: str, t: Tree, c: CostFunction) -> str:
    """Resolve "auto" and reject impossible requests.

    auto picks the interval solver exactly when it applies (binary tree,
    Manhattan cost) since it is asymptotically the better one, and the DP
    otherwise. Forcing "interval" on anything else is an error, never a
    silent fallback: a non-Manhattan cost is rejected here, a non-binary
    tree by bottom_up_intervals (NotBinaryTree), so an already resolved
    name passes through without another tree pass.
    """
    if algorithm not in ALGORITHMS:
        raise UnsupportedAlgorithm(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if algorithm == "auto":
        if c.kind == "manhattan" and is_binary(t):
            return "interval"
        return "dp"
    if algorithm == "interval" and c.kind != "manhattan":
        raise UnsupportedAlgorithm(
            f"interval solver supports manhattan cost only, got {c.spec()!r}"
        )
    return algorithm


def solve_scalar(
    t: Tree,
    l: LeafLabeling,
    c: CostFunction,
    algorithm: str = "auto",
    tie: str = "lowest",
    budget: int | None = None,
) -> tuple[str, Labeling, Optional[Union[CostTable, IntervalAssignment]]]:
    """Solve one scalar instance: (resolved algorithm, labeling, up-phase result).

    The up-phase result is the CostTable of a dp solve or the
    IntervalAssignment of an interval solve, handed back so that callers
    reuse it instead of computing it again; the oracle has none (None).
    The oracle path returns the first optimal labeling in enumeration
    order and only supports the default tie rule.
    """
    resolved = choose_algorithm(algorithm, t, c)
    allowed_ties = _TIES_BY_ALGORITHM[resolved]
    if tie not in allowed_ties:
        raise UnsupportedAlgorithm(
            f"tie {tie!r} is not available for the {resolved} solver "
            f"(allowed: {', '.join(allowed_ties)})"
        )
    if resolved == "dp":
        table = dp_up(t, l, c)
        return resolved, dp_down(t, table, c, tie=tie), table
    if resolved == "interval":
        intervals = bottom_up_intervals(t, l)
        return resolved, top_down_labels(t, intervals, tie=tie), intervals
    optimum = brute_force_min(t, l, c, budget=budget, max_labelings=1)
    return resolved, optimum.labelings[0], None
