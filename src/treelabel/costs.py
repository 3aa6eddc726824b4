"""Edge-cost functions and labeling cost evaluation.

An edge between nodes labeled x and y costs ``theta(|x - y|)`` where theta
is a strictly increasing function with theta(0) = 0. Three families are
supported:

  manhattan      theta(d) = d
  power          theta(d) = d ** exponent, exponent a positive integer
  table          theta(d) = table[d], an explicit strictly increasing table

Strictness matters: with a merely non-decreasing theta the optimum can
escape the leaf-label range and the solvers' search-box guarantee breaks.
Convexity (increments theta(d+1) - theta(d) that never decrease) is what
the convex solver needs; CostFunction.is_convex is the one place it is
decided.
Labels may be any integers, negative included; costs depend only on
differences. All arithmetic is exact (Python ints), so there is no
overflow to guard against, and no float enters a cost: a leaf label or
a full labeling that holds one is refused where it is read.

The problem's data lives here, below every solver: the leaf records,
``LeafLabeling`` for integer labels (a list by node id, None at the
internal nodes) and ``TupleLeafLabeling`` for nondecreasing k-tuples (a
mapping keyed by leaf id), and their cost sums, eval_total and
tuple_cost.
The parser, the generator and the solvers all build on them, and this
module imports no solver. A finished labeling, scalar or k-tuple, is one
record, ``Labeling``, whose values are a list by node id, and node_values
is the one place it is read by node id: every cost sum, serializer and
front end goes through it, naming the kind of label it reads and taking
a solver's list as it is, so a node with no label, with a label that is
no integer or with a label of the other kind fails the same way
everywhere. exact_labels, behind it and behind both leaf records'
for_tree, is the one reader that holds labels given as Python values
to the integer rule. shared_convert decides, in
one place and from the labels alone, when equal labels share one object
from the parse to the text, and node_csv is the one writer of the up
phases' --dump text. first_decrease is the one monotone rule of the
k-tuple data, for the leaf tuples, tuple_cost and solve_ktuple's audit:
it compares adjacent columns in builtins (columns_ordered) and scans
tuple by tuple only to name where a check failed.
"""

from __future__ import annotations

from itertools import chain, compress, count, pairwise, repeat
from operator import index, le, ne, pos
from typing import (
    Any, Callable, Collection, Iterable, Mapping, NamedTuple, Optional, Sequence, Union,
)

from .errors import (
    DifferenceOutOfRange,
    MissingNodeLabel,
    TupleLengthMismatch,
    TupleNotMonotone,
)
from .tree import Tree

# the tie rules of dp's down phase, which convex and median reproduce: the
# smallest or the largest minimizer
DP_TIES = ("lowest", "highest")
# every tie rule: dp's two, and the midpoint of the root's interval, which
# only the interval solver takes
TIES = (*DP_TIES, "midpoint")


class CostFunction(NamedTuple):
    """One of the three theta families. Use the factory methods."""

    kind: str  # "manhattan" | "power" | "table"
    exponent: int = 1
    table: tuple[int, ...] = ()

    @staticmethod
    def manhattan() -> "CostFunction":
        return CostFunction(kind="manhattan")

    @staticmethod
    def power(exponent: int) -> "CostFunction":
        if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 1:
            raise ValueError(f"exponent must be a positive integer, got {exponent!r}")
        return CostFunction(kind="power", exponent=exponent)

    @staticmethod
    def from_table(values: Sequence[int]) -> "CostFunction":
        """Explicit cost table indexed by label difference.

        The entries must be ints, start at 0 and be strictly increasing;
        this is checked exhaustively here so theta never has to re-validate.
        """
        table = tuple(as_int(v, "cost table entry {}", d) for d, v in enumerate(values))
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

    @property
    def is_convex(self) -> bool:
        """Whether the increments theta(d+1) - theta(d) never decrease.

        True for manhattan and every power; a table is judged on all of its
        entries, so the answer does not depend on the instance's label range.
        """
        if self.kind != "table":
            return True
        t = self.table
        steps = [b - a for a, b in zip(t, t[1:])]
        return all(a <= b for a, b in zip(steps, steps[1:]))

    def __call__(self, d: int) -> int:
        return theta(self, d)


def theta(c: CostFunction, d: int) -> int:
    """Cost of a label difference d >= 0."""
    if d < 0:
        raise ValueError(f"difference must be nonnegative, got {d}")
    return theta_function(c)(d)


def theta_function(c: CostFunction) -> Callable[[int], int]:
    """theta(c, .) for differences d >= 0, with c's fields read once.

    For the callers that take theta of many differences (the cost sums,
    the dp's and the oracle's tables): a call then reads no field. The
    table kind raises DifferenceOutOfRange for a difference past its end.
    """
    if c.kind == "manhattan":
        return pos
    if c.kind == "power":
        exponent = c.exponent
        return lambda d: d ** exponent
    table = c.table

    def lookup(d: int) -> int:
        if d >= len(table):
            raise DifferenceOutOfRange(
                f"difference {d} outside cost table of length {len(table)}"
            )
        return table[d]

    return lookup


class LeafLabeling(NamedTuple):
    """Observed integer labels on the leaves, plus the derived label range.

    ``labels`` is a list by node id, as a solver's Labeling is: entry v is
    leaf v's int label, and None at every internal node. g_min and g_max
    are the extreme leaf labels and m = g_max - g_min + 1 is the size of
    the search range: every optimal labeling stays inside [g_min, g_max],
    so the solvers never look outside it.
    """

    labels: list
    g_min: int
    g_max: int

    @property
    def m(self) -> int:
        return self.g_max - self.g_min + 1

    @classmethod
    def for_tree(cls, t: Tree, labels: Mapping[int, int]) -> "LeafLabeling":
        """The labeling of ``labels``, a mapping keyed by leaf id, validated against ``t``.

        The entry point for mappings from outside: the keys must be exactly
        the leaves of ``t``, keys are converted to int here, and the labels
        are read by exact_labels, so a label that is not an int is an error.
        """
        check_leaf_coverage(t, labels)
        values = exact_labels(labels.items(), int, "leaf")
        return cls._of_leaves(t.node_count, map(int, labels), values)

    @classmethod
    def _of_leaves(
        cls, node_count: int, leaves: Iterable[int], values: Sequence[int]
    ) -> "LeafLabeling":
        """The labeling that gives the i-th of ``leaves`` the int ``values[i]``.

        ``leaves`` must be exactly the leaf ids of a tree of ``node_count``
        nodes; every other node id gets None.
        """
        labels: list = [None] * node_count
        for v, value in zip(leaves, values):
            labels[v] = value
        return cls(labels=labels, g_min=min(values), g_max=max(values))


class TupleLeafLabeling(NamedTuple):
    """Nondecreasing k-tuples on the leaves, uniform k across the tree."""

    k: int
    labels: Mapping[int, tuple[int, ...]]

    @classmethod
    def for_tree(cls, t: Tree, labels: Mapping[int, tuple[int, ...]]) -> "TupleLeafLabeling":
        """Validate that ``labels`` covers exactly the leaves of ``t``.

        The entry point for mappings from outside: keys are converted to
        int here, and the labels are read by exact_labels, so a label that
        is not a tuple, or a component that is not an int, is an error.
        """
        check_leaf_coverage(t, labels)
        values = exact_labels(labels.items(), tuple, "leaf")
        return cls._of_leaves(dict(zip(map(int, labels), values)))

    @classmethod
    def _of_leaves(cls, labels: dict[int, tuple[int, ...]]) -> "TupleLeafLabeling":
        """The labeling of int tuples ``labels`` known to cover exactly the leaves.

        Checks that every tuple has the same k >= 1 components as the
        lowest leaf's and is nondecreasing (first_decrease). Where some leaf
        fails, the lowest such leaf is named, as an ascending scan would
        meet it. ``labels`` is kept as it is, not copied.
        """
        leaves = sorted(labels)
        rows = list(map(labels.__getitem__, leaves))
        k = len(rows[0])
        if k == 0:
            raise ValueError("tuples must have at least one component")
        # the first leaf of another length; a decrease below it comes first
        end = next(compress(count(), map(ne, map(len, rows), repeat(k))), len(rows))
        crossing = first_decrease(rows[:end])
        if crossing is not None:
            v = leaves[crossing[0]]
            raise TupleNotMonotone(f"tuple {labels[v]} at leaf {v} decreases")
        if end < len(rows):
            raise TupleLengthMismatch(
                f"leaf {leaves[end]} has a {len(rows[end])}-tuple; expected k={k}"
            )
        return cls(k=k, labels=labels)


def columns_ordered(columns: Iterable[Sequence]) -> bool:
    """Whether every one of ``columns`` is, entry by entry, at most the next one.

    The fast half of the monotone rule: k - 1 passes of le over adjacent
    columns, in builtins. solve_ktuple asks it of the columns it solved.
    """
    return all(all(map(le, a, b)) for a, b in pairwise(columns))


def first_decrease(rows: Sequence[tuple]) -> Optional[tuple[int, int]]:
    """Where the tuples ``rows`` first decrease: (v, i), or None where none does.

    The one monotone rule of the k-tuple data, for the leaves, tuple_cost
    and solve_ktuple's audit. v is the lowest index of a tuple that
    decreases, and i the lowest coordinate where component i exceeds
    component i + 1 there. Tuples of one length are checked by columns
    (columns_ordered). Only when a pair of columns crosses, or the lengths
    differ, does the scan run tuple by tuple to find (v, i).
    """
    if len(set(map(len, rows))) == 1 and columns_ordered(zip(*rows)):
        return None
    return next(
        ((v, i) for v, row in enumerate(rows) for i in range(len(row) - 1) if row[i] > row[i + 1]),
        None,
    )


def as_int(value: object, entry: str, *args: object) -> int:
    """``value`` as an exact int.

    ValueError for a float (2.0 too), a string or any other value that is
    not an integer, so nothing is silently truncated. Its message names
    the entry as ``entry.format(*args)``, formatted only then.
    """
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{entry.format(*args)} must be an integer, got {value!r}") from None


def check_leaf_coverage(t: Tree, labels: Mapping[int, object]) -> None:
    """ValueError unless the keys of ``labels`` are exactly the leaves of ``t``.

    TypeError unless ``labels`` is a mapping: a list by node id, such as
    LeafLabeling.labels, is not taken for one.
    """
    if not isinstance(labels, Mapping):
        raise TypeError(
            f"leaf labels must be a mapping from leaf id to label, got {type(labels).__name__}"
        )
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


class Labeling(NamedTuple):
    """A full labeling of every node, with its total cost cached.

    ``values`` is a list by node id: entry v is node v's label, an int, or
    a k-tuple of ints from solve_ktuple. Every solver fills one list of
    exactly N entries, which its readers take as it is. The solvers fill
    in the cost they already know: dp_down and convex_down the minimum of
    the root row, the oracle its best sum, top_down_labels the sum of its
    clamp distances, solve_ktuple the sum of its coordinates' costs. Tests
    recompute it rather than trusting it.
    """

    values: list
    total_cost: int


# A Labeling, or labels by node id (an int or a k-tuple each) given as a
# list or another sequence, or as a mapping from node id to label
FullLabeling = Union[Labeling, Sequence[Any], Mapping[int, Any]]


def node_values(t: Tree, full: FullLabeling, kind: type) -> list:
    """The label of every node of ``t``, as a list indexed by node id.

    The one reader of a full labeling, a mapping or a sequence indexed by
    node id, and the one place its labels meet the integer rule. ``kind``
    is the kind of label the caller reads: int for a scalar labeling, or
    tuple for a k-tuple one, as solve_ktuple gives. A list of exactly N
    entries all of that kind, which every solver's Labeling holds, is
    returned as it is, not copied, once one type pass over its entries,
    and for tuples one over their components, finds only that kind and
    int. Anything else is copied by exact_labels into a new list, a bool
    or another integer becoming its int: a key that is not a node id, or an
    entry past N, is ignored; a node with no label raises MissingNodeLabel,
    and a label of the other kind, or one that is no int, ValueError, each
    naming the lowest such node (for a sequence too short for the tree,
    its length).
    """
    values = full.values if isinstance(full, Labeling) else full
    if type(values) is list and len(values) == t.node_count:
        if set(map(type, values)) == {kind}:
            # every component is checked, so an equal float cannot hide behind an int
            if kind is int or set(map(type, chain.from_iterable(values))) == {int}:
                return values
    try:
        return exact_labels(enumerate(map(values.__getitem__, range(t.node_count))), kind, "node")
    except (KeyError, IndexError) as exc:
        missing = len(values) if isinstance(exc, IndexError) else exc.args[0]
        raise MissingNodeLabel(f"no label for node {missing}") from None


def exact_labels(pairs: Iterable[tuple[Any, object]], kind: type, noun: str) -> list:
    """The labels of ``pairs`` (id, label) as a new list of exact ints, or of tuples of them.

    The one reader of labels given as Python values, ``kind`` int or
    tuple: node_values reads a full labeling through it with ``noun``
    "node", and both leaf records' for_tree a leaf mapping with "leaf".
    A bool, or any other value operator.index takes, becomes its int. Any
    other label, or tuple component, and a label of the other kind raise
    ValueError naming the first such ``noun`` by its id and, in a tuple,
    the component.
    """
    if kind is int:
        return [as_int(label, "label of {} {}", noun, v) for v, label in pairs]
    return [_exact_tuple(label, noun, v) for v, label in pairs]


def _exact_tuple(label: object, noun: str, v: object) -> tuple:
    if not isinstance(label, tuple):
        raise ValueError(f"label of {noun} {v} must be a tuple of integers, got {label!r}")
    return tuple(as_int(x, "component {} of {} {}", i, noun, v) for i, x in enumerate(label))


def shared_convert(keys: Collection, convert: Callable, total: Optional[int] = None) -> Callable:
    """The function to map ``keys`` through: ``convert``, or a lookup that shares its results.

    A large tree repeats a few labels many times. Where at most half of
    ``keys`` are distinct, the result is the lookup of a table holding
    convert(k) once for each distinct key k, so every place holding one
    key gets one object. Where more than half are distinct, the table would
    cost more than the objects it saves, and ``convert`` itself is
    returned. Equal keys must be interchangeable, since they share one
    object. A caller that streams its keys passes each distinct key once
    in ``keys`` and how many keys it will map as ``total``.
    """
    distinct = set(keys)
    if 2 * len(distinct) > (len(keys) if total is None else total):
        return convert
    return dict(zip(distinct, map(convert, distinct))).__getitem__


def node_csv(header: Iterable, rows: Iterable[Iterable]) -> str:
    """CSV text: "node" and the ``header`` entries, then v and the entries of row v, for each v."""
    lines = [",".join(map(str, ("node", *header)))]
    lines += [",".join(map(str, (v, *row))) for v, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def eval_total(t: Tree, c: CostFunction, full: FullLabeling) -> int:
    """Sum of theta(|label(parent) - label(child)|) over all N-1 edges.

    Every node needs a label, a single node's included.
    """
    values = node_values(t, full, int)
    cost = theta_function(c)
    return sum(cost(abs(values[parent] - values[child])) for parent, child in t.edges())


def tuple_cost(t: Tree, c: CostFunction, full: FullLabeling) -> int:
    """Total stretch: sum over edges of the per-coordinate theta costs.

    ``full`` is a Labeling, a list or a mapping of k-tuples, read by
    node_values; a component that is no integer raises its ValueError.
    Each node's tuple must be nondecreasing (first_decrease names the
    lowest node that is not), before the edges' tuple lengths are compared.
    """
    values = node_values(t, full, tuple)
    crossing = first_decrease(values)
    if crossing is not None:
        v = crossing[0]
        raise TupleNotMonotone(f"tuple {values[v]} at node {v} decreases")
    cost = theta_function(c)
    total = 0
    for parent, child in t.edges():
        a = values[parent]
        b = values[child]
        if len(a) != len(b):
            raise TupleLengthMismatch(
                f"edge ({parent}, {child}) joins a {len(a)}-tuple to a {len(b)}-tuple"
            )
        total += sum(cost(abs(x - y)) for x, y in zip(a, b))
    return total
