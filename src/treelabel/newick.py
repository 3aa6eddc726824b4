"""Newick parsing and serialization for integer-labeled trees.

Dialect: standard Newick nesting, but every leaf name must be a decimal
integer (optionally signed); the leaf name IS the leaf's label. Internal
node names and branch lengths (":<number>" suffixes) are accepted and
discarded, so files exported from phylogeny tools parse without cleanup.
Exactly one tree per string, terminated by ';'.

Node ids are assigned breadth-first from the root, so siblings keep their
written left-to-right order (ids ascend left to right).

For k-tuple inputs, a leaf name is a '|'-separated run of integers,
e.g. "3|7|9"; see parse_newick_tuples.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .costs import FullLabeling, Labeling, LeafLabeling
from .errors import (
    EmptyTree,
    MissingNodeLabel,
    NewickSyntaxError,
    NonIntegerLeafName,
)
from .tree import Tree, build_tree
from .tuples import TupleLabeling, TupleLeafLabeling

_INT_NAME = re.compile(r"[+-]?[0-9]+", re.ASCII)
_NAME_END = set("():,;")


@dataclass(frozen=True)
class LabeledTreeDocument:
    """A parsed tree together with its integer leaf labels."""

    tree: Tree
    leaf_labels: LeafLabeling
    source_name: str = "<string>"


@dataclass(frozen=True)
class TupleTreeDocument:
    """A parsed tree together with k-tuple leaf labels."""

    tree: Tree
    leaf_labels: TupleLeafLabeling
    source_name: str = "<string>"


# --------------------------------------------------------------------- #
# parsing                                                                #
# --------------------------------------------------------------------- #

def _parse_structure(text: str):
    """Parse Newick text into nested ("leaf", name) / ("internal", children).

    Iterative (explicit stack), so nesting depth is unbounded. Branch
    lengths and internal names are consumed and dropped here.
    """
    s = text
    n = len(s)
    i = 0

    def skip_ws(j: int) -> int:
        while j < n and s[j].isspace():
            j += 1
        return j

    def read_name(j: int) -> tuple[str, int]:
        k = j
        while k < n and s[k] not in _NAME_END and not s[k].isspace():
            k += 1
        return s[j:k], k

    def skip_length(j: int) -> int:
        # after ':', a number token; content is discarded
        j = skip_ws(j)
        token, k = read_name(j)
        if not token:
            raise NewickSyntaxError(f"missing branch length after ':' at position {j}")
        return k

    stack: list[list] = []
    current = None  # most recently completed element, awaiting ',' ')' or ';'

    while True:
        i = skip_ws(i)
        if i >= n:
            raise NewickSyntaxError("missing ';' terminator")
        c = s[i]

        if c == "(":
            if current is not None:
                raise NewickSyntaxError(f"unexpected '(' at position {i}")
            stack.append([])
            i += 1

        elif c == ",":
            if not stack:
                raise NewickSyntaxError(f"',' outside parentheses at position {i}")
            stack[-1].append(current if current is not None else ("leaf", ""))
            current = None
            i += 1

        elif c == ")":
            if not stack:
                raise NewickSyntaxError(f"unbalanced ')' at position {i}")
            children = stack.pop()
            children.append(current if current is not None else ("leaf", ""))
            i += 1
            _, i = read_name(i)  # internal node name: ignored
            i = skip_ws(i)
            if i < n and s[i] == ":":
                i = skip_length(i + 1)
            current = ("internal", children)

        elif c == ";":
            if stack:
                raise NewickSyntaxError("unbalanced '(': missing ')'")
            if current is None:
                raise EmptyTree("no tree before ';'")
            i = skip_ws(i + 1)
            if i < n:
                raise NewickSyntaxError(f"unexpected text after ';' at position {i}")
            return current

        elif c == ":":
            # branch length on an unnamed leaf; keep the empty name so the
            # integer check reports it instead of a bare syntax error
            if current is not None:
                raise NewickSyntaxError(f"unexpected ':' at position {i}")
            current = ("leaf", "")
            i = skip_length(i + 1)

        else:
            if current is not None:
                raise NewickSyntaxError(f"unexpected token at position {i}")
            name, i = read_name(i)
            i = skip_ws(i)
            if i < n and s[i] == ":":
                i = skip_length(i + 1)
            current = ("leaf", name)


def _number_nodes(root_elem):
    """Breadth-first node numbering; returns (parent_of, leaf_flags, leaf_names)."""
    parent_of: list[Optional[int]] = []
    leaf_flags: list[bool] = []
    leaf_names: dict[int, str] = {}
    queue = deque([(root_elem, None)])
    while queue:
        elem, parent = queue.popleft()
        idx = len(parent_of)
        parent_of.append(parent)
        if elem[0] == "leaf":
            leaf_flags.append(True)
            leaf_names[idx] = elem[1]
        else:
            leaf_flags.append(False)
            for child in elem[1]:
                queue.append((child, idx))
    return parent_of, leaf_flags, leaf_names


def _leaf_int(name: str, what: str = "leaf name") -> int:
    if not _INT_NAME.fullmatch(name):
        raise NonIntegerLeafName(f"{what} {name!r} is not a decimal integer")
    return int(name)


def _parse_tree(text: str) -> tuple[Tree, dict[int, str]]:
    """The tree of one Newick string and the raw name of every leaf."""
    if not text.strip():
        raise EmptyTree("blank input")
    parent_of, leaf_flags, leaf_names = _number_nodes(_parse_structure(text))
    return build_tree(parent_of, leaf_flags), leaf_names


def parse_newick(text: str, source_name: str = "<string>") -> LabeledTreeDocument:
    """Parse one Newick tree whose leaf names are integer labels."""
    tree, leaf_names = _parse_tree(text)
    labels = {v: _leaf_int(name) for v, name in leaf_names.items()}
    return LabeledTreeDocument(
        tree=tree,
        leaf_labels=LeafLabeling.for_tree(tree, labels),
        source_name=source_name,
    )


def parse_newick_tuples(text: str, source_name: str = "<string>") -> TupleTreeDocument:
    """Parse one Newick tree whose leaf names are '|'-separated k-tuples."""
    tree, leaf_names = _parse_tree(text)
    tuples = {
        v: tuple(_leaf_int(p, f"tuple component of leaf {name!r}") for p in name.split("|"))
        for v, name in leaf_names.items()
    }
    return TupleTreeDocument(
        tree=tree,
        leaf_labels=TupleLeafLabeling.for_tree(tree, tuples),
        source_name=source_name,
    )


# --------------------------------------------------------------------- #
# serialization                                                          #
# --------------------------------------------------------------------- #

def _render(tree: Tree, name_of) -> str:
    """Iterative Newick printer; ``name_of(v)`` yields the node text."""
    pieces: list[str] = []
    stack = [("node", tree.root)]
    while stack:
        op, arg = stack.pop()
        if op == "text":
            pieces.append(arg)
            continue
        v = arg
        if tree.is_leaf(v):
            pieces.append(name_of(v))
            continue
        pieces.append("(")
        stack.append(("text", name_of(v)))
        stack.append(("text", ")"))
        kids = tree.children[v]
        for idx in range(len(kids) - 1, -1, -1):
            stack.append(("node", kids[idx]))
            if idx > 0:
                stack.append(("text", ","))
    pieces.append(";")
    return "".join(pieces)


def _lookup(values: Mapping[int, object], v: int):
    try:
        return values[v]
    except KeyError:
        raise MissingNodeLabel(f"no label for node {v}") from None


def serialize_labeled(doc: LabeledTreeDocument, full: FullLabeling) -> str:
    """Newick text with every node (internal ones included) named by its label.

    Example: the 5-node tree with leaves 1,5,9 and both internal labels 5
    renders as "((1,5)5,9)5;". Round-trips through parse_newick to the same
    topology and leaf labels.
    """
    values = full.values if isinstance(full, Labeling) else full
    return _render(doc.tree, lambda v: str(_lookup(values, v)))


def serialize_tuple_labeled(doc: TupleTreeDocument, full: TupleLabeling) -> str:
    """Newick text with every node named by its '|'-joined tuple."""
    values = full.values if isinstance(full, TupleLabeling) else full

    def name_of(v: int) -> str:
        return "|".join(str(x) for x in _lookup(values, v))

    return _render(doc.tree, name_of)


def document_to_newick(doc: Union[LabeledTreeDocument, TupleTreeDocument]) -> str:
    """Newick text of a document: labeled leaves, unnamed internal nodes."""
    labels = doc.leaf_labels.labels

    def node_text(v: int) -> str:
        if not doc.tree.is_leaf(v):
            return ""
        value = labels[v]
        if isinstance(value, tuple):
            return "|".join(str(x) for x in value)
        return str(value)

    return _render(doc.tree, node_text)
