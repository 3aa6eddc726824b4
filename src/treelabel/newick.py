"""Newick parsing and serialization for integer-labeled trees.

Dialect: standard Newick nesting, but every leaf name must be a decimal
integer (optionally signed); the leaf name IS the leaf's label. Internal
node names and branch lengths (":<number>" suffixes) are accepted and
discarded. Square-bracket comments (the "[&R]" rooted marker, "[&...]"
annotations) and quoted labels ("'1'") are not accepted yet: an export
that carries them ends in NewickSyntaxError or NonIntegerLeafName. A
leaf name of more digits than CPython converts to an int (see
sys.get_int_max_str_digits) raises NonIntegerLeafName naming the leaf,
its digit count and the limit. Exactly one tree per string, terminated
by ';'. The leaf records come from costs.py, so parsing imports no
solver.

Node ids are assigned breadth-first from the root, so siblings keep their
written left-to-right order (ids ascend left to right). The parser cuts
the text at the delimiters '(' ')' ',' ';' with str methods, no regex:
str.replace turns every delimiter into ',' and one split cuts there. Both
run at C speed on any text, ASCII or not. It makes one pass over the
pieces, keeping the offset of the delimiter that ends each one; that
offset reads the delimiter from the text and is the position an error
reports. It takes a piece that is decimal, once the '|' of a k-tuple
name are removed, as a leaf's name as it is, checks every other piece
against a pattern, and appends every node to the lists of its depth: its
child count, and a leaf's name. Within one depth the written order is
the breadth-first order, so those lists joined depth by depth number the
nodes breadth-first with no sort, and each node's children are the next
ids in line. The parser builds its ``Tree`` from them directly, since
the result is a valid tree by construction.

A large tree repeats a few labels many times, so equal labels share one
object from the parse to the text: each distinct leaf name is converted
to an int once, and leaves with equal names share that int;
serialize_labeled writes each distinct label once, and the printer looks
every node's text up in that table. Where more than half of the labels
are distinct, a table would cost more than it saves and none is built;
the labels alone decide it (see costs.shared_convert). The printers take
only integer labels, as costs.node_values reads them.

For k-tuple inputs, a leaf name is a '|'-separated run of integers,
e.g. "3|7|9". Whole tuples seldom repeat but their components do, so
the tuple path works by components, in builtins: parse_newick_tuples
skips the name pattern on ASCII decimal components and converts each
distinct component text once, and serialize_tuple_labeled writes each
distinct component once and joins a node's texts. Equal components share
one int and one text under the same rule as scalar labels.
"""

from __future__ import annotations

import re
import sys
from itertools import chain, compress, repeat
from operator import not_
from typing import Collection, Iterator, NamedTuple, Union

from .costs import FullLabeling, LeafLabeling, TupleLeafLabeling, node_values, shared_convert
from .errors import EmptyTree, NewickSyntaxError, NonIntegerLeafName
from .tree import Tree

# a scalar leaf name, or one component of a k-tuple leaf name
_INT_NAME = re.compile(r"[+-]?[0-9]+", re.ASCII)
# The text between two delimiters. A leaf is an optional name and an
# optional ":<length>", blanks allowed around both; after ')' the same
# shape holds, but the internal node's name must follow the ')' directly.
# A name or length is any run without blanks or ':'.
_LENGTH_TAIL = r"(?:\s*:\s*[^\s:]+)?\s*"
_LEAF = re.compile(r"\s*([^\s:]*)" + _LENGTH_TAIL)
_AFTER_CLOSE = re.compile(r"[^\s:]*" + _LENGTH_TAIL)


class LabeledTreeDocument(NamedTuple):
    """A parsed tree together with its integer leaf labels."""

    tree: Tree
    leaf_labels: LeafLabeling


class TupleTreeDocument(NamedTuple):
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


def _all_int_names(text: str, names: Collection[str]) -> bool:
    """Whether every one of ``names``, the integer texts of ``text``, is an _INT_NAME.

    An ASCII decimal name is one, so only a text with some other name
    (signed, non-ASCII digits, or no integer at all) runs the pattern.
    """
    if text.isascii() and all(map(str.isdecimal, names)):
        return True
    return all(map(_INT_NAME.fullmatch, names))


def _raise_over_digit_limit(tree: Tree, names: list[str]) -> None:
    """Raise NonIntegerLeafName for the first leaf with a name over the digit limit.

    Called once int() refused a name: CPython (3.11, 3.10.7 and later)
    converts text of at most sys.get_int_max_str_digits() digits, and its
    own message names a remedy a command-line user cannot apply.
    """
    limit = sys.get_int_max_str_digits()
    for v, name in zip(tree.leaves(), names):
        digits = max(len(part.lstrip("+-")) for part in name.split("|"))
        if digits > limit:
            raise NonIntegerLeafName(
                f"leaf {v} has an integer of {digits} digits in its name, "
                f"more than the limit of {limit}"
            ) from None


def _parse_tree(text: str) -> tuple[Tree, Iterator[int], list[str]]:
    """The tree of one Newick string, an iterator over its leaves ascending, their raw names.

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
    # the pieces between delimiters; the one after the last delimiter ends
    # no node, so it is dropped
    segments = text.replace("(", ",").replace(")", ",").replace(";", ",").split(",")
    segments.pop()

    # per depth, in text order: every node's child count, every leaf's name.
    # An internal node's count is stored as minus the next depth's length at
    # its '(' and has that length added at its ')'; its entry is the last of
    # its depth all the while, since its descendants all lie deeper.
    counts: list[list[int]] = [[]]
    names: list[list[str]] = [[]]
    depth = 0  # how many internal nodes have their ')' still ahead
    level, level_names = counts[0], names[0]  # the lists of depth ``depth``
    closed = False  # the previous delimiter was ')'
    at = -1  # the offset of the delimiter d that ends ``segment``
    for segment in segments:
        at += len(segment) + 1
        d = text[at]
        if closed:
            if segment and _AFTER_CLOSE.fullmatch(segment) is None:
                raise _malformed(segment, at)
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
            # a leaf ends at this delimiter; a piece that is decimal once the
            # '|' of a k-tuple name are removed has no blank and no ':', so
            # it is its own name
            if segment.isdecimal() or segment.replace("|", "").isdecimal():
                level_names.append(segment)
            else:
                leaf = _LEAF.fullmatch(segment)
                if leaf is None:
                    raise _malformed(segment, at)
                level_names.append(leaf[1])
            level.append(0)
        elif not depth:
            raise EmptyTree("no tree before ';'")

        if d == ",":
            if not depth:
                raise NewickSyntaxError(f"',' outside parentheses at position {at}")
            closed = False
        elif d == ")":
            if not depth:
                raise NewickSyntaxError(f"unbalanced ')' at position {at}")
            depth -= 1
            up = counts[depth]
            up[-1] += len(level)
            level, level_names = up, names[depth]
            closed = True
        elif d == "(":
            raise NewickSyntaxError(f"unexpected '(' at position {at}")
        elif depth:
            raise NewickSyntaxError("unbalanced '(': missing ')'")
        else:
            # the text's first ';': every earlier one ended the loop
            rest = text[at + 1:].lstrip()
            if rest:
                raise NewickSyntaxError(
                    f"unexpected text after ';' at position {len(text) - len(rest)}"
                )
            break
    else:
        raise NewickSyntaxError("missing ';' terminator")
    count = list(chain.from_iterable(counts))
    # the per-depth counts and the text pieces are dropped before the tree
    # is built, so they never take memory beside it
    del counts, segments
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
    return tree, compress(ids, map(not_, count)), list(chain.from_iterable(names))


def parse_newick(text: str) -> LabeledTreeDocument:
    """Parse one Newick tree whose leaf names are integer labels."""
    tree, leaves, names = _parse_tree(text)
    try:
        if not _all_int_names(text, names):
            # raises at the first bad name, or name over the digit limit, in
            # breadth-first order
            for name in names:
                _leaf_int(name)
        # leaves with equal names share one int
        values = list(map(shared_convert(names, int), names))
    except ValueError:
        _raise_over_digit_limit(tree, names)
        raise
    # the ints go to the tree's own leaves, so coverage holds
    leaf_labels = LeafLabeling._of_leaves(tree.node_count, leaves, values)
    return LabeledTreeDocument(tree=tree, leaf_labels=leaf_labels)


def parse_newick_tuples(text: str) -> TupleTreeDocument:
    """Parse one Newick tree whose leaf names are '|'-separated k-tuples.

    The distinct components are checked against _INT_NAME as
    parse_newick checks its names (_all_int_names); where one fails, the
    names are checked component by component in breadth-first order, and
    the first bad component, or the first leaf with a component over the
    digit limit, is named. Each distinct component text is converted once
    where that pays (shared_convert), and every name's components are
    looked up in turn. The k and order checks come last
    (TupleLeafLabeling._of_leaves).
    """
    tree, leaves, names = _parse_tree(text)
    # the texts of the components are split name by name, each time they
    # are read, so that they are never all alive at once
    distinct = set(chain.from_iterable(map(str.split, names, repeat("|"))))
    try:
        if not _all_int_names(text, distinct):
            # raises at the first bad component, or component over the digit
            # limit, in breadth-first order
            for name in names:
                for part in name.split("|"):
                    _leaf_int(part, f"tuple component of leaf {name!r}")
        # equal components share one int
        total = len(names) + sum(map(str.count, names, repeat("|")))
        convert = shared_convert(distinct, int, total)
        split = map(str.split, names, repeat("|"))
        # the tuples are keyed by the tree's own leaves, so coverage holds
        labels = dict(zip(leaves, map(tuple, map(map, repeat(convert), split))))
    except ValueError:
        _raise_over_digit_limit(tree, names)
        raise
    del names, distinct
    return TupleTreeDocument(tree=tree, leaf_labels=TupleLeafLabeling._of_leaves(labels))


# --------------------------------------------------------------------- #
# serialization                                                          #
# --------------------------------------------------------------------- #

def _render(tree: Tree, values: list, text) -> str:
    """Newick text of ``tree`` with ``text(values[v])`` as the text of node v.

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
            pieces.append(text(values[v]))
        else:
            stack.pop()
            if parent is not None:
                pieces += (")", text(values[parent]))
    pieces.append(";")
    return "".join(pieces)


def _tuple_text(value: tuple[int, ...]) -> str:
    # int.__repr__ writes an int subclass as its int and refuses any other
    # component with a TypeError
    return "|".join(map(int.__repr__, value))


def serialize_labeled(doc: LabeledTreeDocument, full: FullLabeling) -> str:
    """Newick text with every node (internal ones included) named by its label.

    ``full`` is read by node_values as a scalar labeling, so a node with
    no label raises MissingNodeLabel naming the lowest such id, and a node
    labeled with a tuple ValueError. Example: the 5-node tree
    with leaves 1,5,9 and both internal labels 5 renders as
    "((1,5)5,9)5;". Round-trips through parse_newick to the same topology
    and leaf labels.
    """
    values = node_values(doc.tree, full, int)
    # nodes with equal labels share one text
    return _render(doc.tree, values, shared_convert(values, str))


def serialize_tuple_labeled(doc: TupleTreeDocument, full: FullLabeling) -> str:
    """Newick text with every node named by its '|'-joined tuple.

    ``full`` is a Labeling of k-tuples, such as solve_ktuple returns, or a
    plain mapping of them, read by node_values as a k-tuple labeling, so a
    node labeled with an int raises ValueError, a bool component becomes
    its int, and a component that is no integer raises its ValueError,
    naming the lowest such node and the component. Each distinct component
    is written once by int.__repr__ (shared_convert) and a node's text is
    its tuple's texts joined.
    """
    values = node_values(doc.tree, full, tuple)
    text = shared_convert(set(chain.from_iterable(values)), int.__repr__, sum(map(len, values)))
    names = list(map("|".join, map(map, repeat(text), values)))
    return _render(doc.tree, names, str)  # the names are text already


def document_to_newick(doc: Union[LabeledTreeDocument, TupleTreeDocument]) -> str:
    """Newick text of a document: labeled leaves, unnamed internal nodes."""
    labels = doc.leaf_labels.labels
    text = _tuple_text if isinstance(doc, TupleTreeDocument) else str
    names = ["" if kids else text(labels[v]) for v, kids in enumerate(doc.tree.children)]
    return _render(doc.tree, names, str)  # the names are text already
