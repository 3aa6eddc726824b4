"""Output check, independent of the library under test.

A labeled output passes only if it re-parses (with this module's own
reader, not treelabel's) to the input topology and leaf labels, every
internal label (every coordinate in tuple mode) lies in its leaf range,
tuples stay nondecreasing, this module's own edge sum equals the reported
cost, and, for seeds with a recorded answer, the text's sha256 matches it.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

_TOKEN = re.compile(r"[(),;]|[^(),;]+")
_INT = re.compile(r"-?[0-9]+", re.ASCII)

Label = Union[int, tuple]


@dataclass(frozen=True)
class ParsedTree:
    """Nodes numbered in preorder (text order); parent -1 for the root."""

    parents: list
    names: list
    leaf: list


def parse_tree(text: str) -> ParsedTree:
    """Read Newick without branch lengths; raises ValueError when malformed."""
    if not text.endswith(";") or text.count(";") != 1:
        raise ValueError("output is not one ';'-terminated tree")
    parents: list = []
    names: list = []
    leaf: list = []
    open_nodes: list = []
    expect_node = True  # at the start and after '(' or ','
    closed = None  # internal node just closed by ')', awaiting its name
    for tok in _TOKEN.findall(text):
        if tok == "(":
            if not expect_node:
                raise ValueError("'(' where a separator was expected")
            parents.append(open_nodes[-1] if open_nodes else -1)
            names.append("")
            leaf.append(False)
            open_nodes.append(len(parents) - 1)
        elif tok in "),;":
            if expect_node or (tok == ";") == bool(open_nodes):
                raise ValueError(f"misplaced {tok!r}")
            closed = open_nodes.pop() if tok == ")" else None
            expect_node = tok == ","
        elif closed is not None:
            names[closed] = tok
            closed = None
        elif expect_node:
            parents.append(open_nodes[-1] if open_nodes else -1)
            names.append(tok)
            leaf.append(True)
            expect_node = False
        else:
            raise ValueError(f"unexpected name {tok!r}")
    if not parents:
        raise ValueError("empty tree")
    return ParsedTree(parents=parents, names=names, leaf=leaf)


def edge_cost(spec: str) -> Callable[[int], int]:
    """theta for the cost specs the workloads use."""
    if spec == "manhattan":
        return lambda d: d
    if spec.startswith("power:"):
        exponent = int(spec[len("power:"):])
        return lambda d: d ** exponent
    raise ValueError(f"no reference theta for cost {spec!r}")


def _int(text: str) -> int:
    if not _INT.fullmatch(text):
        raise ValueError(f"label {text!r} is not a decimal integer")
    return int(text)


def _label(name: str, k: int) -> Label:
    if k == 0:
        return _int(name)
    parts = tuple(_int(p) for p in name.split("|"))
    if len(parts) != k:
        raise ValueError(f"label {name!r} is not a {k}-tuple")
    return parts


@dataclass(frozen=True)
class Reference:
    """What a correct output must agree with, read from the input text."""

    tree: ParsedTree
    leaf_labels: dict
    k: int
    ranges: tuple  # (lo, hi) per coordinate; one pair for a scalar instance
    theta: Callable[[int], int]

    @classmethod
    def from_input(cls, text: str, k: int, cost: str) -> "Reference":
        tree = parse_tree(text.strip())
        labels = {
            v: _label(tree.names[v], k) for v, is_leaf in enumerate(tree.leaf) if is_leaf
        }
        columns = list(zip(*_coordinates(list(labels.values()), k)))
        ranges = tuple((min(col), max(col)) for col in columns)
        return cls(tree=tree, leaf_labels=labels, k=k, ranges=ranges, theta=edge_cost(cost))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(
    ref: Reference, text: str, reported_cost: int, golden: Optional[str] = None
) -> Optional[str]:
    """None when ``text`` is a correct answer, else the reason it is not."""
    try:
        out = parse_tree(text)
        if out.parents != ref.tree.parents or out.leaf != ref.tree.leaf:
            return "topology differs from the input"
        values = [_label(name, ref.k) for name in out.names]
    except ValueError as exc:
        return f"unreadable output: {exc}"
    for v, expected in ref.leaf_labels.items():
        if values[v] != expected:
            return f"leaf {v} reads {values[v]!r}, input has {expected!r}"
    coords = _coordinates(values, ref.k)
    for v, is_leaf in enumerate(out.leaf):
        if is_leaf:
            continue
        for x, (lo, hi) in zip(coords[v], ref.ranges):
            if not lo <= x <= hi:
                return f"node {v} label {values[v]!r} leaves the range {ref.ranges}"
        if any(a > b for a, b in zip(coords[v], coords[v][1:])):
            return f"node {v} tuple {values[v]!r} decreases"
    theta = ref.theta
    total = 0
    for v, p in enumerate(out.parents):
        if p >= 0:
            total += sum(theta(abs(a - b)) for a, b in zip(coords[v], coords[p]))
    if total != reported_cost:
        return f"edge sum {total} differs from the reported cost {reported_cost}"
    if golden is not None and sha256_text(text) != golden:
        return "output bytes differ from the recorded answer for this seed"
    return None


def _coordinates(values: Sequence[Label], k: int) -> list:
    return [(x,) for x in values] if k == 0 else list(values)
