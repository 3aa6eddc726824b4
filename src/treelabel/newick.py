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
pattern, and appends every node to the lists of its depth: its child
count, and a leaf's name. Within one depth the written order is the
breadth-first order, so those lists joined depth by depth number the
nodes breadth-first with no sort, and each node's children are the next
ids in line. The parser builds its ``Tree`` from them directly, since the
result is a valid tree by construction. Error positions are summed from
the piece lengths, on the error path only.

For k-tuple inputs, a leaf name is a '|'-separated run of integers,
e.g. "3|7|9"; see parse_newick_tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import not_
from typing import Mapping, Union

from .costs import FullLabeling, Labeling, LeafLabeling
from .errors import (
    EmptyTree,
    MissingNodeLabel,
    NewickSyntaxError,
    NonIntegerLeafName,
)
from .tree import Tree
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


def _parse_tree(text: str) -> tuple[Tree, list[int], list[str]]:
    """The tree of one Newick string, its leaves ascending and their raw names.

    One pass over the delimiters and the text pieces between them appends
    each node to the lists of its depth, in text order: its child count (0
    for a leaf) and, for a leaf, its name. Within one depth, breadth-first
    order is text order, so the lists joined depth by depth are in
    breadth-first order, and there node v's children are the next count[v]
    ids. The ``Tree`` is built from those counts directly: it has one root,
    no parent out of range and no cycle by construction, so
    ``build_tree``'s checks could find nothing. Iterative, so nesting depth
    is unbounded.
    """
    if not text.strip():
        raise EmptyTree("blank input")
    # segments[i] is the text before delimiters[i]; a position is worked
    # out from the piece lengths, on the error path only
    segments = _DELIMITER.split(text)
    delimiters = _DELIMITER.findall(text)

    def position(i: int) -> int:
        return sum(map(len, segments[: i + 1])) + i

    # per depth, in text order: every node's child count, every leaf's name.
    # An internal node's count is stored as minus the next depth's length at
    # its '(' and has that length added at its ')'; its entry is the last of
    # its depth all the while, since its descendants all lie deeper.
    counts: list[list[int]] = [[]]
    names: list[list[str]] = [[]]
    depth = 0  # how many internal nodes have their ')' still ahead
    level, level_names = counts[0], names[0]  # the lists of depth ``depth``
    closed = False  # the previous delimiter was ')'
    for i, (segment, d) in enumerate(zip(segments, delimiters)):
        if closed:
            if segment and _AFTER_CLOSE.fullmatch(segment) is None:
                raise _malformed(segment, position(i))
        elif d == "(" and (not segment or segment.isspace()):
            # an internal node starts at a '(' with nothing before it
            depth += 1
            if depth == len(counts):
                counts.append([])
                names.append([])
            below = counts[depth]
            level.append(-len(below))
            level, level_names = below, names[depth]
            continue
        elif d != ";" or (segment and not segment.isspace()):
            # a leaf ends at this delimiter
            leaf = _LEAF.fullmatch(segment)
            if leaf is None:
                raise _malformed(segment, position(i))
            level.append(0)
            level_names.append(leaf[1])
        elif not depth:
            raise EmptyTree("no tree before ';'")

        if d == ",":
            if not depth:
                raise NewickSyntaxError(f"',' outside parentheses at position {position(i)}")
            closed = False
        elif d == ")":
            if not depth:
                raise NewickSyntaxError(f"unbalanced ')' at position {position(i)}")
            depth -= 1
            up = counts[depth]
            up[-1] += len(level)
            level, level_names = up, names[depth]
            closed = True
        elif d == "(":
            raise NewickSyntaxError(f"unexpected '(' at position {position(i)}")
        elif depth:
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

    count = list(chain.from_iterable(counts))
    # every id object below is taken from this one tuple, so the parents,
    # the children and the order share them
    ids = tuple(range(len(count)))
    children = []
    first = 1  # the id of the next node's first child
    for c in count:
        end = first + c
        children.append(ids[first:end])
        first = end
    # each internal node, repeated once per child
    below_root = chain.from_iterable(map(repeat, compress(ids, count), filter(None, count)))
    tree = Tree(parents=(None, *below_root), children=tuple(children), order=ids)
    return tree, list(compress(ids, map(not_, count))), list(chain.from_iterable(names))


def parse_newick(text: str) -> LabeledTreeDocument:
    """Parse one Newick tree whose leaf names are integer labels."""
    tree, leaves, names = _parse_tree(text)
    if not all(map(_INT_NAME.fullmatch, names)):
        # raises at the first bad name in breadth-first order
        for name in names:
            _leaf_int(name)
    # the labels are keyed by the tree's own leaves, so coverage holds
    labels = dict(zip(leaves, map(int, names)))
    return LabeledTreeDocument(tree=tree, leaf_labels=LeafLabeling._of_leaves(labels))


def parse_newick_tuples(text: str) -> TupleTreeDocument:
    """Parse one Newick tree whose leaf names are '|'-separated k-tuples."""
    tree, leaves, names = _parse_tree(text)
    is_int = _INT_NAME.fullmatch
    tuples = {}
    for v, name in zip(leaves, names):
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
