"""Newick parsing and serialization for integer-labeled trees.

Dialect: standard Newick nesting, but every leaf name must be a decimal
integer (optionally signed); the leaf name IS the leaf's label. Internal
node names and branch lengths (":<number>" suffixes) are accepted and
discarded, so files exported from phylogeny tools parse without cleanup.
Exactly one tree per string, terminated by ';'.

Node ids are assigned breadth-first from the root, so siblings keep their
written left-to-right order (ids ascend left to right). The parser splits
the text at the delimiters '(' ')' ',' ';' and makes one pass over the
pieces and the delimiters together, checks each piece against a
pattern, and records every node's parent and depth in text order; a
stable sort of the nodes by depth then gives exactly the breadth-first
ids. Error positions are summed from the piece lengths, on the error path
only.

For k-tuple inputs, a leaf name is a '|'-separated run of integers,
e.g. "3|7|9"; see parse_newick_tuples.
"""

from __future__ import annotations

import re
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
_DELIMITER = re.compile(r"[(),;]")
# The text between two delimiters. A leaf is an optional name and an
# optional ":<length>", blanks allowed around both; after ')' the same
# shape holds, but the internal node's name must follow the ')' directly.
# A name or length is any run without blanks or ':'.
_LENGTH_TAIL = r"(?:\s*:\s*[^\s:]+)?\s*"
_LEAF = re.compile(r"\s*([^\s:]*)" + _LENGTH_TAIL)
_AFTER_CLOSE = re.compile(r"[^\s:]*" + _LENGTH_TAIL)


@dataclass(frozen=True)
class LabeledTreeDocument:
    """A parsed tree together with its integer leaf labels."""

    tree: Tree
    leaf_labels: LeafLabeling


@dataclass(frozen=True)
class TupleTreeDocument:
    """A parsed tree together with k-tuple leaf labels."""

    tree: Tree
    leaf_labels: TupleLeafLabeling


# --------------------------------------------------------------------- #
# parsing                                                                #
# --------------------------------------------------------------------- #

def _malformed(segment: str, end: int) -> NewickSyntaxError:
    return NewickSyntaxError(
        f"malformed node text {segment!r} at position {end - len(segment)}"
    )


def _leaf_int(name: str, what: str = "leaf name") -> int:
    if not _INT_NAME.fullmatch(name):
        raise NonIntegerLeafName(f"{what} {name!r} is not a decimal integer")
    return int(name)


def _scan_nodes(text: str) -> tuple[list[Optional[int]], dict[int, str]]:
    """Parent ids and leaf names of the nodes of one Newick string.

    Both are indexed by breadth-first id. One pass over the delimiters and
    the text pieces between them records each node's parent and depth in
    text order, which is preorder. Within one depth, breadth-first order is
    text order, so a stable sort by depth gives the breadth-first ids.
    Iterative, so nesting depth is unbounded.
    """
    if not text.strip():
        raise EmptyTree("blank input")
    # segments[i] is the text before delimiters[i]; a position is worked
    # out from the piece lengths, on the error path only
    segments = _DELIMITER.split(text)
    delimiters = _DELIMITER.findall(text)

    def position(i: int) -> int:
        return sum(map(len, segments[: i + 1])) + i

    # per node, in text order: parent, depth and leaf name (None if internal)
    parent: list[Optional[int]] = []
    depth: list[int] = []
    names: list[Optional[str]] = []
    # the internal nodes whose ')' is still ahead, on top of the root's
    # parent None; the stack's length is the next node's depth
    open_nodes: list[Optional[int]] = [None]
    closed = False  # the previous delimiter was ')'
    for i, (segment, d) in enumerate(zip(segments, delimiters)):
        if closed:
            if segment and _AFTER_CLOSE.fullmatch(segment) is None:
                raise _malformed(segment, position(i))
        elif d == "(" and (not segment or segment.isspace()):
            # an internal node starts at a '(' with nothing before it
            parent.append(open_nodes[-1])
            depth.append(len(open_nodes))
            open_nodes.append(len(names))
            names.append(None)
            continue
        elif d != ";" or (segment and not segment.isspace()):
            # a leaf ends at this delimiter
            parent.append(open_nodes[-1])
            depth.append(len(open_nodes))
            leaf = _LEAF.fullmatch(segment)
            if leaf is None:
                raise _malformed(segment, position(i))
            names.append(leaf[1])
        elif open_nodes[-1] is None:
            raise EmptyTree("no tree before ';'")

        if d == ",":
            if open_nodes[-1] is None:
                raise NewickSyntaxError(f"',' outside parentheses at position {position(i)}")
            closed = False
        elif d == ")":
            if open_nodes[-1] is None:
                raise NewickSyntaxError(f"unbalanced ')' at position {position(i)}")
            open_nodes.pop()
            closed = True
        elif d == "(":
            raise NewickSyntaxError(f"unexpected '(' at position {position(i)}")
        elif open_nodes[-1] is not None:
            raise NewickSyntaxError("unbalanced '(': missing ')'")
        else:
            # every earlier ';' ended the loop, so this is the text's first
            start = text.index(";") + 1
            rest = text[start:]
            if rest.strip():
                at = start + len(rest) - len(rest.lstrip())
                raise NewickSyntaxError(f"unexpected text after ';' at position {at}")
            break
    else:
        raise NewickSyntaxError("missing ';' terminator")

    order = sorted(range(len(depth)), key=depth.__getitem__)
    new_id = [0] * len(order)
    for i, v in enumerate(order):
        new_id[v] = i
    parent_of = [None] + [new_id[parent[v]] for v in order[1:]]
    leaf_names = {i: names[v] for i, v in enumerate(order) if names[v] is not None}
    return parent_of, leaf_names


def _parse_tree(text: str) -> tuple[Tree, dict[int, str]]:
    """The tree of one Newick string and the raw name of every leaf."""
    # the scan's text-order lists die with its frame, before build_tree
    # allocates, so they do not add to the parse's peak memory
    parent_of, leaf_names = _scan_nodes(text)
    return build_tree(parent_of), leaf_names


def parse_newick(text: str) -> LabeledTreeDocument:
    """Parse one Newick tree whose leaf names are integer labels."""
    tree, leaf_names = _parse_tree(text)
    # the labels are keyed by the tree's own leaves, so coverage holds
    labels = {v: _leaf_int(name) for v, name in leaf_names.items()}
    return LabeledTreeDocument(tree=tree, leaf_labels=LeafLabeling._of_leaves(labels))


def parse_newick_tuples(text: str) -> TupleTreeDocument:
    """Parse one Newick tree whose leaf names are '|'-separated k-tuples."""
    tree, leaf_names = _parse_tree(text)
    is_int = _INT_NAME.fullmatch
    tuples = {}
    for v, name in leaf_names.items():
        parts = name.split("|")
        if not all(map(is_int, parts)):
            # raises at the first bad component
            for p in parts:
                _leaf_int(p, f"tuple component of leaf {name!r}")
        tuples[v] = tuple(map(int, parts))
    # the tuples are keyed by the tree's own leaves, so coverage holds
    return TupleTreeDocument(tree=tree, leaf_labels=TupleLeafLabeling._of_leaves(tuples))


# --------------------------------------------------------------------- #
# serialization                                                          #
# --------------------------------------------------------------------- #

def _render(tree: Tree, names: list[str]) -> str:
    """Newick text of ``tree`` with ``names[v]`` as the text of node v.

    Iterative: a stack of child iterators, one per open internal node, so
    nesting depth is unbounded. A child is preceded by ',' unless it is the
    first one after its parent's '('.
    """
    children = tree.children
    pieces: list[str] = []
    stack = [(None, iter((tree.root,)))]
    while stack:
        parent, kids = stack[-1]
        for v in kids:
            if pieces and pieces[-1] != "(":
                pieces.append(",")
            if children[v]:
                pieces.append("(")
                stack.append((v, iter(children[v])))
                break
            pieces.append(names[v])
        else:
            stack.pop()
            if parent is not None:
                pieces += (")", names[parent])
    pieces.append(";")
    return "".join(pieces)


def _tuple_text(value: tuple[int, ...]) -> str:
    return "|".join(map(str, value))


def _node_names(tree: Tree, values: Mapping[int, object], text) -> list[str]:
    """``text(values[v])`` for every node v in id order."""
    try:
        return [text(values[v]) for v in range(tree.node_count)]
    except KeyError as exc:
        raise MissingNodeLabel(f"no label for node {exc.args[0]}") from None


def serialize_labeled(doc: LabeledTreeDocument, full: FullLabeling) -> str:
    """Newick text with every node (internal ones included) named by its label.

    Example: the 5-node tree with leaves 1,5,9 and both internal labels 5
    renders as "((1,5)5,9)5;". Round-trips through parse_newick to the same
    topology and leaf labels.
    """
    values = full.values if isinstance(full, Labeling) else full
    return _render(doc.tree, _node_names(doc.tree, values, str))


def serialize_tuple_labeled(doc: TupleTreeDocument, full: TupleLabeling) -> str:
    """Newick text with every node named by its '|'-joined tuple."""
    values = full.values if isinstance(full, TupleLabeling) else full
    return _render(doc.tree, _node_names(doc.tree, values, _tuple_text))


def document_to_newick(doc: Union[LabeledTreeDocument, TupleTreeDocument]) -> str:
    """Newick text of a document: labeled leaves, unnamed internal nodes."""
    labels = doc.leaf_labels.labels
    text = _tuple_text if isinstance(doc, TupleTreeDocument) else str
    names = ["" if kids else text(labels[v]) for v, kids in enumerate(doc.tree.children)]
    return _render(doc.tree, names)
