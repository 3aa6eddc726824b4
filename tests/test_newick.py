import random
import re

import pytest

from helpers import reference_parse
from treelabel import (
    CostFunction,
    EmptyTree,
    MissingNodeLabel,
    NewickSyntaxError,
    NonIntegerLeafName,
    TreeLabelError,
    TupleLengthMismatch,
    TupleNotMonotone,
    brute_force_min,
    document_to_newick,
    is_binary,
    parse_newick,
    parse_newick_tuples,
    postorder,
    random_document,
    serialize_labeled,
    solve_interval,
)


class TestParse:
    def test_cherry(self):
        doc = parse_newick("(2,7);")
        assert doc.tree.node_count == 3
        assert doc.tree.root == 0
        assert doc.leaf_labels.labels == {1: 2, 2: 7}

    def test_five_node(self):
        doc = parse_newick("((1,5),9);")
        t = doc.tree
        assert t.node_count == 5
        # breadth-first ids: root 0, inner 1, leaf 9 is 2, leaves 1 and 5 are 3, 4
        assert t.children[0] == (1, 2)
        assert t.children[1] == (3, 4)
        assert doc.leaf_labels.labels == {2: 9, 3: 1, 4: 5}
        assert postorder(t) == [3, 4, 1, 2, 0]

    def test_single_leaf(self):
        doc = parse_newick("3;")
        assert doc.tree.node_count == 1
        assert doc.leaf_labels.labels == {0: 3}

    def test_signed_labels(self):
        doc = parse_newick("(-3,+7);")
        assert doc.leaf_labels.labels == {1: -3, 2: 7}
        assert doc.leaf_labels.g_min == -3

    def test_duplicate_labels_legal(self):
        doc = parse_newick("(4,4);")
        assert doc.leaf_labels.m == 1

    def test_branch_lengths_and_internal_names_ignored(self):
        doc = parse_newick("(2:1.5,7:0.25)anc:3.0;")
        assert doc.leaf_labels.labels == {1: 2, 2: 7}

    def test_whitespace_tolerated(self):
        doc = parse_newick("( (1 , 5) ,\n 9 ) ;\n")
        assert doc.tree.node_count == 5

    def test_deep_nesting_no_recursion_limit(self):
        # caterpillar nested far past Python's default recursion limit;
        # the parser, serializer and solvers are all iterative
        depth = 4000
        text = "(" * depth + "0" + ",1)" * depth + ";"
        doc = parse_newick(text)
        assert doc.tree.node_count == 2 * depth + 1
        labeling = solve_interval(doc.tree, doc.leaf_labels)
        assert labeling.total_cost == 1
        assert document_to_newick(doc) == text

    def test_multifurcation_and_single_child(self):
        doc = parse_newick("(1,2,3);")
        assert doc.tree.children[0] == (1, 2, 3)
        assert not is_binary(doc.tree)
        chain = parse_newick("((5));")
        assert chain.tree.node_count == 3
        assert not is_binary(chain.tree)

    def test_non_integer_leaf_name(self):
        with pytest.raises(NonIntegerLeafName):
            parse_newick("(a,b);")

    def test_float_leaf_name_rejected(self):
        with pytest.raises(NonIntegerLeafName):
            parse_newick("(1.5,2);")

    def test_empty_leaf_name(self):
        with pytest.raises(NonIntegerLeafName):
            parse_newick("(,7);")

    @pytest.mark.parametrize(
        "text",
        [
            "((1,5,9);",      # unbalanced open
            "(1,5));",        # unbalanced close
            "(2,7)",          # missing ';'
            "(2,7); junk",    # trailing text
            "(2,7);(3,4);",   # two trees in one string
            "2 7;",           # two tokens, no structure
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(NewickSyntaxError):
            parse_newick(text)

    @pytest.mark.parametrize("text", ["", "   ", ";", "  ;\n"])
    def test_empty_tree(self, text):
        with pytest.raises(EmptyTree):
            parse_newick(text)


class TestSerialize:
    def test_cherry(self):
        doc = parse_newick("(2,7);")
        assert serialize_labeled(doc, {0: 4, 1: 2, 2: 7}) == "(2,7)4;"

    def test_single_leaf(self):
        doc = parse_newick("3;")
        assert serialize_labeled(doc, {0: 3}) == "3;"

    def test_five_node_from_interval_solver(self):
        # the annotated labels are exactly what solve_interval picks, and
        # the oracle confirms 8 is the optimal cost being annotated
        doc = parse_newick("((1,5),9);")
        labeling = solve_interval(doc.tree, doc.leaf_labels)
        assert brute_force_min(doc.tree, doc.leaf_labels, CostFunction.manhattan()).cost == 8
        assert labeling.total_cost == 8
        assert serialize_labeled(doc, labeling) == "((1,5)5,9)5;"

    def test_missing_node_label(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(MissingNodeLabel):
            serialize_labeled(doc, {1: 2, 2: 7})

    def test_document_to_newick_leaves_only(self):
        doc = parse_newick("((1,5),9);")
        assert document_to_newick(doc) == "((1,5),9);"

    def test_round_trip_idempotent(self):
        # parse . serialize . parse == parse (on topology and leaf labels)
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(1, 12)
            arity = "binary" if rng.random() < 0.5 else rng.randint(2, 4)
            text = document_to_newick(random_document(n, -5, 20, rng, arity=arity))
            first = parse_newick(text)
            second = parse_newick(document_to_newick(first))
            assert second.tree == first.tree
            assert second.leaf_labels == first.leaf_labels
            assert document_to_newick(second) == document_to_newick(first)


class TestTupleParse:
    def test_pipe_tuples(self):
        doc = parse_newick_tuples("(1|3,2|9);")
        assert doc.leaf_labels.k == 2
        assert doc.leaf_labels.labels == {1: (1, 3), 2: (2, 9)}

    def test_scalar_names_are_1_tuples(self):
        doc = parse_newick_tuples("(2,7);")
        assert doc.leaf_labels.k == 1

    def test_length_mismatch(self):
        with pytest.raises(TupleLengthMismatch):
            parse_newick_tuples("(1|3,2);")

    def test_decreasing_tuple(self):
        with pytest.raises(TupleNotMonotone):
            parse_newick_tuples("(3|1,2|9);")

    def test_non_integer_component(self):
        with pytest.raises(NonIntegerLeafName):
            parse_newick_tuples("(1|x,2|9);")


# single characters and short runs the differential cases are built from;
# "\x1c" and "\xa0" are whitespace to str.isspace and to regex \s alike
_PIECES = ["(", ")", ",", ";", ":", "|", "-", "+", "0", "7", "12", "x", ".5",
           " ", "\t", "\n", "\x1c", "\xa0", ":1", " : 2 ", ")n", "3|4", "5|1"]


def _decorated_document(rng):
    """A generated tree's Newick text, with tuples, names, lengths and blanks."""
    doc = random_document(rng.randint(1, 6), -3, 9, rng, arity=rng.choice(["binary", 3]))
    text = document_to_newick(doc)
    if rng.random() < 0.4:
        k = rng.randint(1, 3)
        text = re.sub(
            r"-?[0-9]+",
            lambda m: "|".join(str(x) for x in sorted(rng.randint(-3, 9) for _ in range(k))),
            text,
        )
    pieces = []
    for ch in text:
        if ch in "),;" and rng.random() < 0.2:
            pieces.append(rng.choice([":0.5", " :3", ": 1e-3 "]))
        pieces.append(ch)
        if ch == ")" and rng.random() < 0.3:
            pieces.append(rng.choice(["anc", "7", "n1"]))
        if rng.random() < 0.1:
            pieces.append(rng.choice([" ", "\n", "\t"]))
    chars = list("".join(pieces))
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.4:
            chars.insert(at, rng.choice(_PIECES))
        elif chars and roll < 0.7:
            del chars[min(at, len(chars) - 1)]
        elif chars:
            chars[min(at, len(chars) - 1)] = rng.choice(_PIECES)
    return "".join(chars)


def _token_string(rng):
    return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 12)))


def _outcome(parse, text):
    try:
        return parse(text)
    except (TreeLabelError, ValueError) as exc:
        return type(exc)


class TestParserDifferential:
    """The delimiter-level parser against the character-level reference."""

    def test_same_tree_labels_or_exception_class(self):
        rng = random.Random(5150)
        seen = set()
        for index in range(3000):
            text = _decorated_document(rng) if index % 2 else _token_string(rng)
            for tuples, parse in ((False, parse_newick), (True, parse_newick_tuples)):
                expected = _outcome(lambda s: reference_parse(s, tuples=tuples), text)
                got = _outcome(parse, text)
                if isinstance(expected, tuple):
                    assert not isinstance(got, type), (text, got)
                    tree, labels = expected
                    assert got.tree == tree, text
                    assert got.leaf_labels == labels, text
                    assert list(got.leaf_labels.labels) == list(labels.labels), text
                    seen.add((tuples, "parsed"))
                else:
                    assert got is expected, (text, got)
                    seen.add((tuples, expected.__name__))
        # every outcome class turns up, so the comparison is not vacuous
        for tuples in (False, True):
            for outcome in ("parsed", "NewickSyntaxError", "EmptyTree", "NonIntegerLeafName"):
                assert (tuples, outcome) in seen
        assert (True, "TupleLengthMismatch") in seen
        assert (True, "TupleNotMonotone") in seen
