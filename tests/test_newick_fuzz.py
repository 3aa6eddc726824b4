"""Hypothesis fuzzing of both Newick parsers.

hypothesis comes with the ``test`` extra; without it this module is
skipped, and the parser tests in test_newick.py still run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_parse
from treelabel import (
    NonIntegerLeafName,
    TreeLabelError,
    TupleLengthMismatch,
    TupleNotMonotone,
    build_tree,
    parse_newick,
    parse_newick_tuples,
)

# the Newick alphabet: digits, signs, blanks, ':', '|', '.', letters and the
# four delimiters, then text outside ASCII: decimals (٣ ٠), a digit that is
# not decimal (²), blanks (no-break and ideographic space), a fullwidth '('
# and a letter (é)
_ALPHABET = "0123456789+- \t\n:|.abnxAZ(),;٣٠²\u00a0\u3000（é"
# subtrees of 1-3 children per '(' with names, lengths and blanks, so that
# drawn text parses often enough instead of failing at its first character
_NAMES = st.sampled_from(
    ["0", "7", "12", "-3", "+4", " 5 ", "3|4", "5|1", "x", "", "1:0.5", "2 : 3"]
)
_SUBTREES = st.recursive(
    _NAMES,
    lambda kids: st.builds(
        lambda children, tail: "(" + ",".join(children) + ")" + tail,
        st.lists(kids, min_size=1, max_size=3),
        st.sampled_from(["", "n", ":1", " ", "a :2"]),
    ),
    max_leaves=8,
)


@st.composite
def _edited_trees(draw):
    """A drawn tree's text, terminated or not, with up to two pieces replaced."""
    text = draw(_SUBTREES) + draw(st.sampled_from([";", " ;\n", ""]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(alphabet=_ALPHABET, max_size=2)) + text[at + 1:]
    return text


_NEWICK_LIKE = st.one_of(st.text(alphabet=_ALPHABET, max_size=24), _edited_trees())


# the tuple parser's errors whose messages are compared too
_SAME_MESSAGE = (NonIntegerLeafName, TupleLengthMismatch, TupleNotMonotone)


def _package_outcome(parse, text):
    """The parse result, or the package error it raised.

    Any other exception propagates and fails the test.
    """
    try:
        return parse(text)
    except TreeLabelError as exc:
        return exc


class TestParserFuzz:
    """Both parsers against the character-level reference on drawn text."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(text=_NEWICK_LIKE)
    def test_same_tree_labels_or_exception_class(self, text):
        for tuples, parse in ((False, parse_newick), (True, parse_newick_tuples)):
            expected = _package_outcome(lambda s: reference_parse(s, tuples=tuples), text)
            got = _package_outcome(parse, text)
            if isinstance(expected, TreeLabelError):
                assert type(got) is type(expected), (text, got)
                if tuples and isinstance(expected, _SAME_MESSAGE):
                    assert str(got) == str(expected), text
            else:
                assert not isinstance(got, TreeLabelError), (text, got)
                tree, labels = expected
                assert got.tree == tree, text
                assert got.leaf_labels == labels, text
            if not isinstance(got, TreeLabelError):
                # the parser builds its Tree without build_tree; it must be
                # the one build_tree makes of the same parents, ids breadth-first
                assert got.tree == build_tree(list(got.tree.parents)), text
                assert got.tree.order == tuple(range(got.tree.node_count)), text
