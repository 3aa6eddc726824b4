"""Edge-cost functions and labeling cost evaluation.

An edge between nodes labeled x and y costs ``theta(|x - y|)`` where theta
is a strictly increasing function with theta(0) = 0. Three families are
supported:

  manhattan      theta(d) = d
  power          theta(d) = d ** exponent, exponent a positive integer
  table          theta(d) = table[d], an explicit strictly increasing table

Strictness matters: with a merely non-decreasing theta the optimum can
escape the leaf-label range and the solvers' search-box guarantee breaks.
Labels may be any integers, negative included; costs depend only on
differences. All arithmetic is exact (Python ints), so there is no
overflow to guard against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .errors import DifferenceOutOfRange, MissingNodeLabel
from .tree import Tree


@dataclass(frozen=True)
class CostFunction:
    """One of the three theta families. Use the factory methods."""

    kind: str  # "manhattan" | "power" | "table"
    exponent: int = 1
    table: tuple[int, ...] = ()

    @staticmethod
    def manhattan() -> "CostFunction":
        return CostFunction(kind="manhattan")

    @staticmethod
    def power(exponent: int) -> "CostFunction":
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError(f"exponent must be a positive integer, got {exponent!r}")
        return CostFunction(kind="power", exponent=exponent)

    @staticmethod
    def from_table(values: Sequence[int]) -> "CostFunction":
        """Explicit cost table indexed by label difference.

        The table must start at 0 and be strictly increasing; this is
        checked exhaustively here so theta never has to re-validate.
        """
        table = tuple(int(v) for v in values)
        if not table:
            raise ValueError("cost table must not be empty")
        if table[0] != 0:
            raise ValueError(f"cost table must start with 0, got {table[0]}")
        for d in range(1, len(table)):
            if table[d] <= table[d - 1]:
                raise ValueError(
                    f"cost table must be strictly increasing, "
                    f"but table[{d}] = {table[d]} <= table[{d - 1}] = {table[d - 1]}"
                )
            if table[d] < 0:
                raise ValueError("cost table entries must be nonnegative")
        return CostFunction(kind="table", table=table)

    @staticmethod
    def from_spec(spec: str) -> "CostFunction":
        """Parse a CLI cost spec: "manhattan", "power:<k>" or "table:<c0,c1,...>"."""
        if spec == "manhattan":
            return CostFunction.manhattan()
        if spec.startswith("power:"):
            arg = spec[len("power:"):]
            try:
                exponent = int(arg)
            except ValueError:
                raise ValueError(f"bad power exponent {arg!r} in cost spec {spec!r}")
            return CostFunction.power(exponent)
        if spec.startswith("table:"):
            arg = spec[len("table:"):]
            try:
                values = [int(part) for part in arg.split(",")]
            except ValueError:
                raise ValueError(f"bad table entries in cost spec {spec!r}")
            return CostFunction.from_table(values)
        raise ValueError(
            f"unknown cost spec {spec!r}; expected 'manhattan', 'power:<k>' "
            f"or 'table:<c0,c1,...>'"
        )

    def spec(self) -> str:
        """Inverse of from_spec, for reports and reproducers."""
        if self.kind == "manhattan":
            return "manhattan"
        if self.kind == "power":
            return f"power:{self.exponent}"
        return "table:" + ",".join(str(v) for v in self.table)

    def __call__(self, d: int) -> int:
        return theta(self, d)


def theta(c: CostFunction, d: int) -> int:
    """Cost of a label difference d >= 0."""
    if d < 0:
        raise ValueError(f"difference must be nonnegative, got {d}")
    if c.kind == "manhattan":
        return d
    if c.kind == "power":
        return d ** c.exponent
    if d >= len(c.table):
        raise DifferenceOutOfRange(
            f"difference {d} outside cost table of length {len(c.table)}"
        )
    return c.table[d]


@dataclass(frozen=True)
class LeafLabeling:
    """Observed integer labels on the leaves, plus the derived label range.

    g_min and g_max are the extreme leaf labels and m = g_max - g_min + 1
    is the size of the search range: every optimal labeling stays inside
    [g_min, g_max], so the solvers never look outside it.
    """

    labels: Mapping[int, int]
    g_min: int
    g_max: int
    m: int

    @classmethod
    def for_tree(cls, t: Tree, labels: Mapping[int, int]) -> "LeafLabeling":
        """Validate that ``labels`` covers exactly the leaves of ``t``."""
        check_leaf_coverage(t, labels)
        values = {int(k): int(v) for k, v in labels.items()}
        g_min = min(values.values())
        g_max = max(values.values())
        return cls(labels=values, g_min=g_min, g_max=g_max, m=g_max - g_min + 1)


def check_leaf_coverage(t: Tree, labels: Mapping[int, object]) -> None:
    """ValueError unless the keys of ``labels`` are exactly the leaves of ``t``."""
    leaves = set(t.leaves())
    given = set(labels)
    if given != leaves:
        missing = sorted(leaves - given)
        extra = sorted(given - leaves)
        parts = []
        if missing:
            parts.append(f"missing labels for leaves {missing}")
        if extra:
            parts.append(f"labels for non-leaf nodes {extra}")
        raise ValueError("; ".join(parts))


@dataclass(frozen=True)
class Labeling:
    """A full labeling of every node, with its total cost cached.

    The cached cost is always recomputed via eval_total at construction
    time by the solvers; tests recompute it again rather than trusting it.
    """

    values: Mapping[int, int]
    total_cost: int = field(compare=False, default=0)


FullLabeling = Union[Labeling, Mapping[int, int]]


def _values_of(full: FullLabeling) -> Mapping[int, int]:
    return full.values if isinstance(full, Labeling) else full


def eval_total(t: Tree, c: CostFunction, full: FullLabeling) -> int:
    """Sum of theta(|label(parent) - label(child)|) over all N-1 edges."""
    values = _values_of(full)
    total = 0
    for parent, child in t.edges():
        try:
            a = values[parent]
            b = values[child]
        except KeyError as exc:
            raise MissingNodeLabel(f"no label for node {exc.args[0]}") from None
        total += theta(c, abs(a - b))
    return total
