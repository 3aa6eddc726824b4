import random
import re
import sys
import tracemalloc

import pytest

import treelabel.newick as newick
from helpers import count_calls, leaf_map, reference_parse, reference_render
from treelabel import (
    CostFunction,
    EmptyTree,
    LabeledTreeDocument,
    LeafLabeling,
    MissingNodeLabel,
    NewickSyntaxError,
    NonIntegerLeafName,
    TreeLabelError,
    TreeLabeler,
    TupleLeafLabeling,
    TupleLengthMismatch,
    TupleNotMonotone,
    TupleTreeDocument,
    brute_force_min,
    build_tree,
    document_to_newick,
    is_binary,
    parse_newick,
    parse_newick_tuples,
    postorder,
    random_document,
    random_topology,
    serialize_labeled,
    serialize_tuple_labeled,
    solve_scalar,
)
from treelabel.costs import check_leaf_coverage

MANHATTAN = CostFunction.manhattan()


class TestParse:
    def test_cherry(self):
        doc = parse_newick("(2,7);")
        assert doc.tree.node_count == 3
        assert doc.tree.root == 0
        assert doc.leaf_labels.labels == [None, 2, 7]

    def test_five_node(self):
        doc = parse_newick("((1,5),9);")
        t = doc.tree
        assert t.node_count == 5
        # breadth-first ids: root 0, inner 1, leaf 9 is 2, leaves 1 and 5 are 3, 4
        assert t.children[0] == (1, 2)
        assert t.children[1] == (3, 4)
        assert doc.leaf_labels.labels == [None, None, 9, 1, 5]
        assert postorder(t) == [3, 4, 1, 2, 0]

    def test_single_leaf(self):
        doc = parse_newick("3;")
        assert doc.tree.node_count == 1
        assert doc.leaf_labels.labels == [3]

    def test_equal_leaf_names_share_one_int(self):
        # above 256, where CPython caches no int of its own
        labels = parse_newick("((1000,1000),1000);").leaf_labels.labels
        _, _, first, second, third = labels
        assert first == 1000
        assert first is second is third

    def test_leaf_labels_are_one_list_by_node_id(self):
        text = document_to_newick(random_document(500, 0, 99, random.Random(3), arity=4))
        doc = parse_newick(text)
        labels = doc.leaf_labels.labels
        assert type(labels) is list
        assert len(labels) == doc.tree.node_count
        assert [x is None for x in labels] == list(map(bool, doc.tree.children))
        # leaves with equal names share one int
        first = {}
        assert all(first.setdefault(x, x) is x for x in labels if x is not None)
        assert len(first) <= 100  # of 500 leaves

    def test_signed_labels(self):
        doc = parse_newick("(-3,+7);")
        assert doc.leaf_labels.labels == [None, -3, 7]
        assert doc.leaf_labels.g_min == -3

    @pytest.mark.parametrize(
        "text, labels",
        [
            ("(-3,(+4,05),7);", [None, -3, None, 7, 4, 5]),
            ("(12,-0);", [None, 12, 0]),
            # ASCII decimal names in a text that is not ASCII
            ("(1,2)\u00a0;", [None, 1, 2]),
            ("(-1,\u30002);", [None, -1, 2]),
        ],
    )
    def test_signed_names_parse_beside_decimal_ones(self, text, labels):
        assert parse_newick(text).leaf_labels.labels == labels

    def test_name_pattern_runs_only_when_some_name_is_not_ascii_decimal(self, monkeypatch):
        # an ASCII text whose names are all decimal has only _INT_NAME
        # names, so the pattern is skipped; any other text runs it, and a
        # bad name raises as before
        seen = []

        class Spy:
            def fullmatch(self, name, _real=newick._INT_NAME.fullmatch):
                seen.append(name)
                return _real(name)

        monkeypatch.setattr(newick, "_INT_NAME", Spy())
        assert parse_newick("((1,22),333);").leaf_labels.labels == [None, None, 333, 1, 22]
        assert seen == []
        assert parse_newick("(-3,4);").leaf_labels.labels == [None, -3, 4]
        assert seen[:2] == ["-3", "4"]
        seen.clear()
        with pytest.raises(NonIntegerLeafName, match="^leaf name '٣' is not a decimal integer$"):
            parse_newick("(٣,1);")
        assert "٣" in seen

    def test_duplicate_labels_legal(self):
        doc = parse_newick("(4,4);")
        assert doc.leaf_labels.m == 1

    def test_branch_lengths_and_internal_names_ignored(self):
        doc = parse_newick("(2:1.5,7:0.25)anc:3.0;")
        assert doc.leaf_labels.labels == [None, 2, 7]

    def test_whitespace_tolerated(self):
        doc = parse_newick("( (1 , 5) ,\n 9 ) ;\n")
        assert doc.tree.node_count == 5

    @pytest.mark.parametrize("text", ["(\u30001,2);", "(1,2)\u00a0;"])
    def test_non_ascii_blanks_tolerated(self, text):
        # an ideographic space before a name, a no-break space before ';'
        assert parse_newick(text).leaf_labels.labels == [None, 1, 2]

    def test_deep_nesting_no_recursion_limit(self):
        # caterpillar nested far past Python's default recursion limit;
        # the parser, serializer and solvers are all iterative
        depth = 4000
        text = "(" * depth + "0" + ",1)" * depth + ";"
        doc = parse_newick(text)
        assert doc.tree.node_count == 2 * depth + 1
        # depth j holds ids 2j-1 (the spine, or leaf 0 at the bottom) and 2j
        # (leaf 1), both children of the spine node one depth up
        spine = [0] + [2 * j - 1 for j in range(1, depth)]
        assert doc.tree == build_tree([None] + [p for p in spine for _ in (0, 1)])
        assert leaf_map(doc.leaf_labels) == {
            **{2 * j: 1 for j in range(1, depth + 1)}, 2 * depth - 1: 0
        }
        labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
        assert labeling.total_cost == 1
        assert document_to_newick(doc) == text

    @pytest.mark.parametrize(
        "text, parent_of",
        [
            ("5;", [None]),
            ("((5));", [None, 0, 1]),
            ("(1,(2,3,4),(5));", [None, 0, 0, 0, 2, 2, 2, 3]),
        ],
    )
    def test_tree_equals_build_tree_of_its_parents(self, text, parent_of):
        for parse in (parse_newick, parse_newick_tuples):
            tree = parse(text).tree
            assert tree == build_tree(parent_of)
            assert tree.order == tuple(range(len(parent_of)))

    def test_wide_star(self):
        leaves = 40_000
        doc = parse_newick("(" + ",".join(str(v % 1000) for v in range(leaves)) + ");")
        assert doc.tree == build_tree([None] + [0] * leaves)
        assert doc.leaf_labels.labels == [None] + [(v - 1) % 1000 for v in range(1, leaves + 1)]

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

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str digit limit"
    )
    def test_name_over_the_digit_limit(self):
        # CPython refuses to convert more digits; the error names the leaf
        limit = sys.get_int_max_str_digits()
        name = "9" * limit
        assert parse_newick(f"(2,{name});").leaf_labels.labels[2] == int(name)
        assert parse_newick_tuples(f"(2|{name},3|{name});").leaf_labels.labels[2] == (3, int(name))
        message = (f"^leaf 2 has an integer of {limit + 1} digits in its name, "
                   f"more than the limit of {limit}$")
        # a name over the limit before a bad name is the one reported
        for parse, text in ((parse_newick, f"(2,-{name}9);"),
                            (parse_newick, f"(2,-{name}9,x);"),
                            (parse_newick_tuples, f"(2|3,1|{name}9);")):
            with pytest.raises(NonIntegerLeafName, match=message):
                parse(text)

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

    @pytest.mark.parametrize(
        "parse, text, error, message",
        [
            (parse_newick, "  (12 34,5);", NewickSyntaxError,
             "malformed node text '12 34' at position 3"),
            (parse_newick, "  12 34;", NewickSyntaxError,
             "malformed node text '  12 34' at position 0"),
            (parse_newick, " (1,2 3)a;", NewickSyntaxError,
             "malformed node text '2 3' at position 4"),
            (parse_newick, "  (1,\tab:c:d);", NewickSyntaxError,
             "malformed node text '\\tab:c:d' at position 5"),
            (parse_newick, " (1,2)a b;", NewickSyntaxError,
             "malformed node text 'a b' at position 6"),
            (parse_newick, "((1,2)anc :1.5 x,3);", NewickSyntaxError,
             "malformed node text 'anc :1.5 x' at position 6"),
            (parse_newick, "  12,3;", NewickSyntaxError,
             "',' outside parentheses at position 4"),
            (parse_newick, "  12);", NewickSyntaxError, "unbalanced ')' at position 4"),
            (parse_newick, "   (1,2)) ;", NewickSyntaxError, "unbalanced ')' at position 8"),
            (parse_newick, "  (77 (1,2));", NewickSyntaxError,
             "unexpected '(' at position 6"),
            (parse_newick, "  ((1,2),3;", NewickSyntaxError, "unbalanced '(': missing ')'"),
            (parse_newick, "(1,2); \n xy", NewickSyntaxError,
             "unexpected text after ';' at position 9"),
            (parse_newick, "  (1,2)", NewickSyntaxError, "missing ';' terminator"),
            (parse_newick, "   ", EmptyTree, "blank input"),
            (parse_newick, "\n ;  ", EmptyTree, "no tree before ';'"),
            (parse_newick, "(  12,ab);", NonIntegerLeafName,
             "leaf name 'ab' is not a decimal integer"),
            (parse_newick, " ( 7 , -x1 ) ;", NonIntegerLeafName,
             "leaf name '-x1' is not a decimal integer"),
            (parse_newick, "(5,+);", NonIntegerLeafName,
             "leaf name '+' is not a decimal integer"),
            # the first bad name in breadth-first order is reported, not the
            # first in the text
            (parse_newick, "((x,1),y);", NonIntegerLeafName,
             "leaf name 'y' is not a decimal integer"),
            (parse_newick, "(a,(b,1));", NonIntegerLeafName,
             "leaf name 'a' is not a decimal integer"),
            # syntax errors come before name errors
            (parse_newick, "((x,1),2", NewickSyntaxError, "missing ';' terminator"),
            # digits outside ASCII are not decimal integers of the dialect
            (parse_newick, "(²,1);", NonIntegerLeafName,
             "leaf name '²' is not a decimal integer"),
            (parse_newick, " (1,١);", NonIntegerLeafName,
             "leaf name '١' is not a decimal integer"),
            # decimal digits outside ASCII take the same fast path as ASCII
            # ones and are then refused by name
            (parse_newick, "(٣,1);", NonIntegerLeafName,
             "leaf name '٣' is not a decimal integer"),
            (parse_newick, "(١٢,3|4);", NonIntegerLeafName,
             "leaf name '١٢' is not a decimal integer"),
            # a fullwidth parenthesis is not a delimiter
            (parse_newick, "（1,2);", NewickSyntaxError,
             "',' outside parentheses at position 2"),
            (parse_newick_tuples, "( 1|3, 2|x);", NonIntegerLeafName,
             "tuple component of leaf '2|x' 'x' is not a decimal integer"),
            # the first bad component of a leaf is the one reported
            (parse_newick_tuples, "(1|x|y|2,3);", NonIntegerLeafName,
             "tuple component of leaf '1|x|y|2' 'x' is not a decimal integer"),
            # a bad leaf after good ones, deeper in the tree
            (parse_newick_tuples, "(1|2,3|4,(5|6,7|+));", NonIntegerLeafName,
             "tuple component of leaf '7|+' '+' is not a decimal integer"),
            (parse_newick_tuples, "(1||2,3|4|5);", NonIntegerLeafName,
             "tuple component of leaf '1||2' '' is not a decimal integer"),
            (parse_newick_tuples, "(1|2|,3|4|5);", NonIntegerLeafName,
             "tuple component of leaf '1|2|' '' is not a decimal integer"),
            (parse_newick_tuples, "(1|٣,2|3);", NonIntegerLeafName,
             "tuple component of leaf '1|٣' '٣' is not a decimal integer"),
            # the k and monotonicity checks run in ascending leaf order
            (parse_newick_tuples, "(1|2,(3|1,5|6));", TupleNotMonotone,
             "tuple (3, 1) at leaf 3 decreases"),
            (parse_newick_tuples, "(-3|+2|-1,4|+5|06);", TupleNotMonotone,
             "tuple (-3, 2, -1) at leaf 1 decreases"),
            (parse_newick_tuples, "(1|2,3);", TupleLengthMismatch,
             "leaf 2 has a 1-tuple; expected k=2"),
            (parse_newick_tuples, "((1|2|3,4|5),6|7|8);", TupleLengthMismatch,
             "leaf 4 has a 2-tuple; expected k=3"),
        ],
    )
    def test_error_messages(self, parse, text, error, message):
        with pytest.raises(error) as info:
            parse(text)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, labels",
        [
            ("(-3|-2,+4|+5);", {1: (-3, -2), 2: (4, 5)}),
            ("( -7|+0|007 ,-0|1|+1);", {1: (-7, 0, 7), 2: (0, 1, 1)}),
        ],
    )
    def test_signed_tuple_components_parse(self, text, labels):
        assert parse_newick_tuples(text).leaf_labels.labels == labels

    def test_parse_builds_its_tree_without_build_tree(self, monkeypatch):
        # the scan's tree is valid by construction, so build_tree's checks
        # could find nothing there
        calls = count_calls(monkeypatch, build_tree)
        doc = parse_newick("((1,5),(9,(3,4)));")
        tuples = parse_newick_tuples("((1|2,5|6),9|9);")
        assert calls == []
        assert doc.tree == build_tree([None, 0, 0, 1, 1, 2, 2, 6, 6])
        assert tuples.tree == build_tree([None, 0, 0, 1, 1])

    def test_parse_frees_its_text_pieces_before_building_the_tree(self):
        # the pieces of text and the per-depth counts are gone before the
        # tree is built, so the parse's peak stays close to what it keeps
        text = document_to_newick(random_document(10000, 0, 999, random.Random(5)))
        tracemalloc.start()
        try:
            doc = parse_newick(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert doc.tree.node_count == 19999
        assert peak < 1.6 * held, (peak, held)

    def test_parse_skips_the_leaf_coverage_check(self, monkeypatch):
        # the labels come from the tree's own leaves, so coverage holds
        calls = count_calls(monkeypatch, check_leaf_coverage)
        doc = parse_newick("((1,5),(9,(3,4)));")
        assert calls == []
        assert doc.leaf_labels == LeafLabeling.for_tree(doc.tree, leaf_map(doc.leaf_labels))


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
        labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
        assert brute_force_min(doc.tree, doc.leaf_labels, CostFunction.manhattan()).cost == 8
        assert labeling.total_cost == 8
        assert serialize_labeled(doc, labeling) == "((1,5)5,9)5;"

    def test_missing_node_label(self):
        doc = parse_newick("(2,7);")
        with pytest.raises(MissingNodeLabel):
            serialize_labeled(doc, {1: 2, 2: 7})

    def test_few_labels_over_a_wide_range_share_their_texts(self):
        # ten labels spread over [0, 9 * 10**11]: the labels themselves show
        # that they repeat, so the printer makes one text per label and its
        # transient peak is about its list of pieces
        doc = random_document(10000, 0, 9, random.Random(5))
        labels = {v: doc.leaf_labels.labels[v] * 10**11 for v in doc.tree.leaves()}
        fitted = TreeLabeler().fit(doc.tree, labels)
        tracemalloc.start()
        try:
            text = fitted.to_newick()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == reference_render(doc.tree, lambda v: str(fitted.labels_[v]))
        assert peak < 3 * len(text), (peak, len(text))

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

    def test_tuple_document_round_trip(self):
        rng = random.Random(78)
        for _ in range(40):
            tree = random_topology(rng.randint(1, 12), rng, arity=rng.choice(["binary", 4]))
            k = rng.randint(1, 3)
            tuples = {
                v: tuple(sorted(rng.randint(-5, 20) for _ in range(k))) for v in tree.leaves()
            }
            doc = TupleTreeDocument(tree, TupleLeafLabeling.for_tree(tree, tuples))
            text = document_to_newick(doc)
            first = parse_newick_tuples(text)
            assert document_to_newick(first) == text
            assert first.leaf_labels.k == k
            assert sorted(first.leaf_labels.labels.values()) == sorted(tuples.values())
            assert parse_newick_tuples(document_to_newick(first)) == first


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

    # the edges of the fast path: the pattern is skipped only where every
    # component is ASCII decimal; every other text ends as before
    @pytest.mark.parametrize(
        "text, error, message",
        [
            # a decimal digit outside ASCII, which int() would convert
            ("(١|2,3|4);", NonIntegerLeafName,
             "tuple component of leaf '١|2' '١' is not a decimal integer"),
            # signed components parse, and (1, 0) decreases
            ("(+1|-0,3|4);", TupleNotMonotone, "tuple (1, 0) at leaf 1 decreases"),
            ("(1||2,3|4|5);", NonIntegerLeafName,
             "tuple component of leaf '1||2' '' is not a decimal integer"),
            # mixed k and a decreasing tuple: the lower leaf's error wins
            ("(1|2,(3|1,5));", TupleNotMonotone, "tuple (3, 1) at leaf 3 decreases"),
            ("(1|2,(3,2|1));", TupleLengthMismatch, "leaf 3 has a 1-tuple; expected k=2"),
            ("(2|1,(3,4|5));", TupleNotMonotone, "tuple (2, 1) at leaf 1 decreases"),
            ("(1|1,(2|3|4,1|0));", TupleLengthMismatch, "leaf 3 has a 3-tuple; expected k=2"),
            ("(|,1|2);", NonIntegerLeafName,
             "tuple component of leaf '|' '' is not a decimal integer"),
        ],
    )
    def test_fast_path_boundaries(self, text, error, message):
        with pytest.raises(error) as info:
            parse_newick_tuples(text)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str digit limit"
    )
    def test_component_over_the_digit_limit(self):
        # the fast path skips the pattern; the error still names the first
        # leaf over the limit, before any k or order check
        limit = sys.get_int_max_str_digits()
        long = "1" * (limit + 1)
        message = (f"^leaf 3 has an integer of {limit + 1} digits in its name, "
                   f"more than the limit of {limit}$")
        for text in (f"(2|1,(3|{long},5|6));", f"(1|2,(3|{long},5));",
                     f"(1|2,(3|{long}|4,5|6));"):
            with pytest.raises(NonIntegerLeafName, match=message):
                parse_newick_tuples(text)
        # a bad name and a name over the limit: the first in breadth-first
        # order is reported
        with pytest.raises(NonIntegerLeafName, match=message):
            parse_newick_tuples(f"(1|2,(3|{long},5|x));")
        with pytest.raises(NonIntegerLeafName) as info:
            parse_newick_tuples(f"(1|x,(3|{long},5|6));")
        assert str(info.value) == "tuple component of leaf '1|x' 'x' is not a decimal integer"

    def test_components_share_ints_and_skip_the_pattern(self, monkeypatch):
        # an ASCII text of decimal components never runs the pattern, and
        # equal components share one int
        monkeypatch.setattr(newick, "_INT_NAME", None)
        doc = parse_newick_tuples("((1000|7000,1000|7000),(3000|7000,1000|1000));")
        labels = doc.leaf_labels.labels
        assert labels == {3: (1000, 7000), 4: (1000, 7000), 5: (3000, 7000), 6: (1000, 1000)}
        assert list(labels) == [3, 4, 5, 6]
        assert len({id(x) for label in labels.values() for x in label}) == 3

    def test_component_texts_are_never_all_alive_at_once(self):
        # 40,000 components split name by name as they are read: holding
        # all their texts at once would take the peak past 3 times what
        # the parse keeps
        rng = random.Random(5)
        tree = random_topology(5000, rng, arity=4)
        tuples = {v: tuple(sorted(rng.randint(0, 99) for _ in range(8))) for v in tree.leaves()}
        text = document_to_newick(TupleTreeDocument(tree, TupleLeafLabeling.for_tree(tree, tuples)))
        tracemalloc.start()
        try:
            doc = parse_newick_tuples(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(doc.leaf_labels.labels.values()) == sorted(tuples.values())
        assert peak < 2.5 * held, (peak, held)


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


def _random_tree(rng, n):
    """A tree on n nodes whose internal nodes have 1 to 4 children."""
    parent_of = [None]
    child_count = [0]
    for v in range(1, n):
        p = rng.choice([u for u in range(v) if child_count[u] < 4])
        parent_of.append(p)
        child_count[p] += 1
        child_count.append(0)
    return build_tree(parent_of)


def _unary_chain(length):
    """length internal nodes in a line above one leaf."""
    return build_tree([None] + list(range(length)))


def _caterpillar(depth):
    """depth internal nodes, each with a leaf child and the next one below."""
    parent_of = [None]
    spine = 0
    for _ in range(depth):
        parent_of += [spine, spine]
        spine = len(parent_of) - 1
    return build_tree(parent_of)


def _random_labels(rng, tree, span=30):
    """Random scalar labels and random k-tuples in [-span, span] for every node of ``tree``."""
    k = rng.randint(1, 3)
    scalar = {v: rng.randint(-span, span) for v in range(tree.node_count)}
    tuples = {
        v: tuple(sorted(rng.randint(-span, span) for _ in range(k)))
        for v in range(tree.node_count)
    }
    return scalar, tuples


class TestPrinterDifferential:
    """The name-list printer against the op-stack reference, byte for byte."""

    @staticmethod
    def _check_all_serializers(tree, scalar, tuples):
        leaves = tree.leaves()
        doc = LabeledTreeDocument(
            tree, LeafLabeling.for_tree(tree, {v: scalar[v] for v in leaves})
        )
        tuple_doc = TupleTreeDocument(
            tree, TupleLeafLabeling.for_tree(tree, {v: tuples[v] for v in leaves})
        )

        def tuple_text(v):
            return "|".join(str(x) for x in tuples[v])

        assert serialize_labeled(doc, scalar) == reference_render(tree, lambda v: str(scalar[v]))
        assert serialize_tuple_labeled(tuple_doc, tuples) == reference_render(tree, tuple_text)
        assert document_to_newick(doc) == reference_render(
            tree, lambda v: str(doc.leaf_labels.labels[v]) if tree.is_leaf(v) else ""
        )
        assert document_to_newick(tuple_doc) == reference_render(
            tree, lambda v: tuple_text(v) if tree.is_leaf(v) else ""
        )

    def test_random_trees_of_arity_1_to_4(self):
        rng = random.Random(6061)
        for _ in range(400):
            tree = _random_tree(rng, rng.randint(1, 40))
            self._check_all_serializers(tree, *_random_labels(rng, tree))
        # a span so wide that no two labels are equal, so no text is shared
        for _ in range(100):
            tree = _random_tree(rng, rng.randint(1, 40))
            scalar, tuples = _random_labels(rng, tree, span=10**15)
            assert len(set(scalar.values())) == tree.node_count
            components = [x for label in tuples.values() for x in label]
            assert len(set(components)) == len(components)
            self._check_all_serializers(tree, scalar, tuples)
        # three values in all, so every label and component repeats
        for _ in range(100):
            tree = _random_tree(rng, rng.randint(8, 40))
            scalar, tuples = _random_labels(rng, tree, span=1)
            self._check_all_serializers(tree, scalar, tuples)
        # equal values of different types, on leaves whose labels repeat: a
        # bool prints as its int, and a float is refused, naming the lowest
        # node that holds one
        refused = 0
        for _ in range(100):
            tree = _random_tree(rng, rng.randint(2, 40))
            scalar, tuples = _random_labels(rng, tree)
            for v in scalar:
                scalar[v] = rng.choice((1, True) if tree.is_leaf(v) else (1, True, 1.0))
            doc = LabeledTreeDocument(
                tree, LeafLabeling.for_tree(tree, {v: scalar[v] for v in tree.leaves()})
            )
            as_list = [scalar[v] for v in range(tree.node_count)]
            floats = [v for v, x in enumerate(as_list) if type(x) is float]
            if floats:
                refused += 1
                error = f"^label of node {floats[0]} must be an integer, got 1.0$"
                for full in (scalar, as_list):
                    with pytest.raises(ValueError, match=error):
                        serialize_labeled(doc, full)
            else:
                ones = dict.fromkeys(scalar, 1)
                self._check_all_serializers(tree, ones, tuples)
                assert serialize_labeled(doc, scalar) == serialize_labeled(doc, ones)
                assert serialize_labeled(doc, as_list) == serialize_labeled(doc, ones)
        assert 0 < refused < 100
        assert serialize_labeled(parse_newick("(2,7);"), {0: 1, 1: True, 2: 1}) == "(1,1)1;"
        with pytest.raises(ValueError, match="^label of node 0 must be an integer, got 1.0$"):
            serialize_labeled(parse_newick("(2,7);"), {0: 1.0, 1: True, 2: 1})

    def test_single_node_and_unary_chains(self):
        rng = random.Random(6062)
        for tree in [build_tree([None])] + [_unary_chain(n) for n in (1, 2, 5)]:
            self._check_all_serializers(tree, *_random_labels(rng, tree))

    def test_deep_caterpillar_stays_iterative(self):
        tree = _caterpillar(100_000)
        scalar = {v: v % 61 - 30 for v in range(tree.node_count)}
        tuples = {v: (v % 7, v % 7 + v % 3) for v in range(tree.node_count)}
        self._check_all_serializers(tree, scalar, tuples)

    def test_missing_label_names_the_lowest_missing_node(self):
        # print order reaches node 3 before node 2; the error names node 2
        doc = parse_newick("((1,5),9);")
        with pytest.raises(MissingNodeLabel, match="no label for node 2$"):
            serialize_labeled(doc, {0: 5, 1: 5, 4: 5})
        tuple_doc = parse_newick_tuples("(1|4,3|8);")
        with pytest.raises(MissingNodeLabel, match="no label for node 0$"):
            serialize_tuple_labeled(tuple_doc, {1: (1, 4), 2: (3, 8)})
        # root 2 over leaves 0 and 1: the printer meets node 2 first
        t = build_tree([2, 2, None])
        doc = LabeledTreeDocument(t, LeafLabeling.for_tree(t, {0: 1, 1: 3}))
        with pytest.raises(MissingNodeLabel, match="no label for node 0$"):
            serialize_labeled(doc, {1: 3})
        tuple_doc = TupleTreeDocument(t, TupleLeafLabeling.for_tree(t, {0: (1,), 1: (3,)}))
        with pytest.raises(MissingNodeLabel, match="no label for node 0$"):
            serialize_tuple_labeled(tuple_doc, {1: (3,)})

    def test_labels_are_held_to_the_integer_rule(self):
        # a bool becomes its int; any other label that is no int is refused,
        # naming the lowest such node, the same through a list and a mapping
        doc = parse_newick("(2,7);")
        for full in ([True, 2, 7], {0: True, 1: 2, 2: 7}):
            assert serialize_labeled(doc, full) == "(2,7)1;"
        for full in ([4.5, 2, 7], {0: 4.5, 1: 2, 2: 7}, [7, 2, 7.0], ["7", 2, 7]):
            with pytest.raises(ValueError, match="^label of node [02] must be an integer"):
                serialize_labeled(doc, full)

    def test_tuple_components_are_held_to_the_integer_rule(self):
        doc = parse_newick_tuples("(1|4,3|8);")
        for full in ([(True, 4), (1, 4), (3, 8)], {0: (True, 4), 1: (1, 4), 2: (3, 8)}):
            assert serialize_tuple_labeled(doc, full) == "(1|4,3|8)1|4;"
        error = "^component 0 of node 0 must be an integer, got 1.5$"
        for full in ([(1.5, 3), (1, 4), (3, 8)], {0: (1.5, 3), 1: (1, 4), 2: (3, 8)}):
            with pytest.raises(ValueError, match=error):
                serialize_tuple_labeled(doc, full)
        # the printer meets node 1 first; the error names node 0
        with pytest.raises(ValueError, match="^component 1 of node 0 must be an integer"):
            serialize_tuple_labeled(doc, [(1, 4.0), (1, 4.5), (3, 8)])
        # a float equal to an int component elsewhere is refused all the same
        with pytest.raises(ValueError, match=r"^component 1 of node 1 must be an integer, got 4\.0$"):
            serialize_tuple_labeled(doc, [(1, 4), (1, 4.0), (3, 8)])

    def test_bool_components_print_as_ints(self):
        doc = parse_newick_tuples("((0|1,1|1),0|0);")
        full = [(0, 1), (False, True), (0, 0), (0, 1), (True, 1)]
        assert serialize_tuple_labeled(doc, full) == "((0|1,1|1)0|1,0|0)0|1;"
        assert serialize_tuple_labeled(doc, dict(enumerate(full))) == "((0|1,1|1)0|1,0|0)0|1;"

    def test_tuples_of_other_lengths_print_as_they_stand(self):
        # only the leaf tuples are held to one k; a full labeling is
        # printed as given
        doc = parse_newick_tuples("(1|4,3|8);")
        assert serialize_tuple_labeled(doc, [(1, 4), (1, 4, 5), (3, 8)]) == "(1|4|5,3|8)1|4;"
        assert serialize_tuple_labeled(doc, [(), (1, 4), (3, 8)]) == "(1|4,3|8);"
        assert serialize_tuple_labeled(doc, [(2,), (2,), (2,)]) == "(2,2)2;"

    def test_short_sequence_names_its_length(self):
        # a list is read by index, as TreeLabeler.to_newick passes one
        doc = parse_newick("((1,5),9);")
        with pytest.raises(MissingNodeLabel, match="no label for node 3$"):
            serialize_labeled(doc, [5, 5, 9])
        tuple_doc = parse_newick_tuples("(1|4,3|8);")
        with pytest.raises(MissingNodeLabel, match="no label for node 2$"):
            serialize_tuple_labeled(tuple_doc, [(1, 4), (1, 4)])
