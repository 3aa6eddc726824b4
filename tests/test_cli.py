import contextlib
import io
import json
import random
import sys

import pytest

import treelabel.cli as cli
from helpers import count_calls, leaf_map
from treelabel import (
    CostFunction,
    Labeling,
    TupleLeafLabeling,
    TupleTreeDocument,
    bottom_up_intervals,
    brute_force_min,
    choose_algorithm,
    convex_up,
    document_to_newick,
    dp_up,
    median_down,
    parse_newick,
    random_document,
    random_topology,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_batch(capsys, *argv):
    """The Newick lines ``treelabel gen`` prints for argv."""
    code, out, err = run(capsys, "gen", *argv)
    assert (code, err) == (0, "")
    return out


def check_stdin(capsys, monkeypatch, text, *argv):
    """``treelabel check`` on text piped to its stdin, as in ``gen ... | check``."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, "check", *argv)


class TestSolve:
    def test_newick_output(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("((1,5),9);\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 0
        assert out == "((1,5)5,9)5;\n"
        assert err == ""

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(2,7);"))
        code, out, _ = run(capsys, "solve", "-")
        assert code == 0
        assert out == "(2,7)2;\n"

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("((1,5),9);")
        code, out, _ = run(capsys, "solve", str(path), "--format", "json",
                           "--algorithm", "dp", "--cost", "power:2")
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"] == 23
        assert payload["algorithm"] == "dp"
        assert payload["g_min"] == 1
        assert payload["g_max"] == 9
        assert payload["m"] == 9
        assert payload["labels"]["3"] == 1

    def test_auto_dispatch_reported(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1,2,3);")  # non-binary, Manhattan cost: auto must pick median
        code, out, _ = run(capsys, "solve", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["algorithm"] == "median"
        # non-binary, convex cost other than Manhattan: auto must pick convex
        code, out, _ = run(capsys, "solve", str(path), "--format", "json",
                           "--cost", "power:2")
        assert code == 0
        assert json.loads(out)["algorithm"] == "convex"
        # increments 5, 1, 5: not convex, so auto falls back to dp
        code, out, _ = run(capsys, "solve", str(path), "--format", "json",
                           "--cost", "table:0,5,6,11")
        assert code == 0
        assert json.loads(out)["algorithm"] == "dp"

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(a,b);")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert err.startswith("error:NonIntegerLeafName:")
        assert "\n" == err[-1] and err.count("\n") == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/x.nwk")
        assert code == 1
        assert err.startswith("error:IO:")

    def test_interval_on_non_binary_solves(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1,2,3);")
        code, out, err = run(capsys, "solve", str(path), "--algorithm", "interval")
        assert code == 0
        assert out == "(1,2,3)2;\n"
        assert err == ""

    def test_oracle_budget_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TREELABEL_BUDGET", "10")
        path = tmp_path / "t.nwk"
        path.write_text("((1,5),9);")  # 81 assignments > 10
        code, _, err = run(capsys, "solve", str(path), "--algorithm", "oracle")
        assert code == 2
        assert err.startswith("error:BudgetExceeded:")

    def test_tie_midpoint_with_dp_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(2,7);")
        code, _, err = run(capsys, "solve", str(path), "--algorithm", "dp",
                           "--tie", "midpoint")
        assert code == 2
        assert err.startswith("error:UnsupportedAlgorithm:")

    def test_dump_table(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "table.csv"
        path.write_text("(2,7);")
        code, _, _ = run(capsys, "solve", str(path), "--algorithm", "dp",
                         "--dump", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "node,2,3,4,5,6,7"
        assert lines[1] == "0,5,5,5,5,5,5"

    def test_dump_intervals(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "iv.csv"
        path.write_text("((1,5),9);")
        code, _, _ = run(capsys, "solve", str(path), "--dump", str(out_csv))
        assert code == 0
        assert "0,5,9" in out_csv.read_text()

    def test_dump_table_is_the_solve_table(self, capsys, tmp_path, monkeypatch):
        text = "((1,5,2),(9,(3)));"
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "table.csv"
        path.write_text(text)
        dp_calls = count_calls(monkeypatch, dp_up)
        convex_calls = count_calls(monkeypatch, convex_up)
        code, _, _ = run(capsys, "solve", str(path), "--cost", "power:2",
                         "--dump", str(out_csv))
        assert code == 0
        # auto resolves to convex, whose table is dp_up's
        assert (len(convex_calls), len(dp_calls)) == (1, 0)
        doc = parse_newick(text)
        expected = dp_up(doc.tree, doc.leaf_labels, CostFunction.power(2)).csv()
        assert out_csv.read_bytes() == expected.encode()

    def test_dump_intervals_is_the_solve_assignment(self, capsys, tmp_path, monkeypatch):
        text = "((1,5),(9,(3,4)));"
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "iv.csv"
        path.write_text(text)
        calls = count_calls(monkeypatch, bottom_up_intervals)
        code, _, _ = run(capsys, "solve", str(path), "--dump", str(out_csv))
        assert code == 0
        assert len(calls) == 1
        doc = parse_newick(text)
        expected = bottom_up_intervals(doc.tree, doc.leaf_labels).csv()
        assert out_csv.read_bytes() == expected.encode()

    def test_dump_follows_the_solver(self, capsys, tmp_path):
        # one tree, one flag: the table of dp and convex, the intervals of
        # interval and median
        path = tmp_path / "t.nwk"
        path.write_text("(2,7);")
        doc = parse_newick("(2,7);")
        table = dp_up(doc.tree, doc.leaf_labels, CostFunction.manhattan()).csv()
        intervals = bottom_up_intervals(doc.tree, doc.leaf_labels).csv()
        for algorithm, expected in (("dp", table), ("convex", table),
                                    ("interval", intervals), ("median", intervals)):
            out_csv = tmp_path / f"{algorithm}.csv"
            code, out, err = run(capsys, "solve", str(path), "--algorithm", algorithm,
                                 "--dump", str(out_csv))
            assert (code, out, err) == (0, "(2,7)2;\n", ""), algorithm
            assert out_csv.read_text() == expected, algorithm

    def test_wrong_dump_flag_rejected_before_the_solve(self, capsys, tmp_path, monkeypatch):
        # only the oracle and tuple mode have no up phase to dump
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "x.csv"
        up_phases = [
            count_calls(monkeypatch, function, refuse=True)
            for function in (dp_up, convex_up, bottom_up_intervals, brute_force_min)
        ]
        path.write_text("(2,7);")
        code, out, err = run(capsys, "solve", str(path), "--algorithm", "oracle",
                             "--dump", str(out_csv))
        assert (code, out) == (2, "")
        assert err.startswith("error:UnsupportedAlgorithm:--dump is not available")
        path.write_text("(1|4,3|8);")
        code, out, err = run(capsys, "solve", str(path), "--tuple", "--dump", str(out_csv))
        assert (code, out) == (2, "")
        assert err.startswith("error:UnsupportedAlgorithm:--dump is not available")
        assert up_phases == [[], [], [], []]
        assert not out_csv.exists()
        monkeypatch.undo()
        path.write_text("(2,7);")  # auto resolves to interval
        code, _, _ = run(capsys, "solve", str(path), "--dump", str(out_csv))
        assert code == 0
        assert out_csv.read_text().startswith("node,lo,hi\n")
        path.write_text("(1,2,3);")  # auto resolves to convex under power:2
        code, _, _ = run(capsys, "solve", str(path), "--dump", str(out_csv), "--cost", "power:2")
        assert code == 0
        assert out_csv.read_text().startswith("node,1,2,3\n")

    @pytest.mark.parametrize("flags", [["--algorithm", "interval"], ["--tuple"]])
    def test_dump_to_dash_refused_before_the_input_is_read(
        self, capsys, tmp_path, monkeypatch, flags
    ):
        # stdout carries the tree, so "-" is no place for the dump
        monkeypatch.chdir(tmp_path)
        stdin = io.StringIO("(1,2,3);\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "solve", "-", *flags, "--dump", "-")
        assert (code, out) == (1, "")
        assert err == "error:ValueError:--dump takes a file path, not '-': stdout carries the tree\n"
        assert stdin.tell() == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tuple"], "--dump is not available in tuple mode"),
            (["--algorithm", "oracle"],
             "--dump is not available for the oracle, which has no up phase"),
            # tuple mode is refused first
            (["--tuple", "--algorithm", "oracle"], "--dump is not available in tuple mode"),
        ],
    )
    def test_dump_conflicts_refused_before_the_input_is_read(
        self, capsys, tmp_path, monkeypatch, flags, message
    ):
        # argv alone decides these, so neither a missing file nor malformed
        # stdin is reached, and stdin is left unread
        out_csv = tmp_path / "x.csv"
        error = f"error:UnsupportedAlgorithm:{message}\n"
        missing = str(tmp_path / "missing.nwk")
        code, out, err = run(capsys, "solve", missing, *flags, "--dump", str(out_csv))
        assert (code, out, err) == (2, "", error)
        stdin = io.StringIO("(1,\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "solve", "-", *flags, "--dump", str(out_csv))
        assert (code, out, err) == (2, "", error)
        assert stdin.tell() == 0
        assert not out_csv.exists()

    def test_dump_intervals_on_auto_median(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.nwk"
        path.write_text("(1,(2,4,6),3);")  # auto resolves to median
        calls = count_calls(monkeypatch, bottom_up_intervals)
        code, out, _ = run(capsys, "solve", str(path), "--format", "json",
                           "--dump", str(tmp_path / "auto.csv"))
        assert code == 0
        assert json.loads(out)["algorithm"] == "median"
        assert len(calls) == 1
        code, _, _ = run(capsys, "solve", str(path), "--algorithm", "interval",
                         "--dump", str(tmp_path / "interval.csv"))
        assert code == 0
        assert (tmp_path / "auto.csv").read_bytes() == (tmp_path / "interval.csv").read_bytes()
        assert (tmp_path / "auto.csv").read_text().startswith("node,lo,hi\n0,3,3\n")

    def test_dump_leaves_the_auto_median_output_alone(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1,(2,4,6),3);")
        plain = run(capsys, "solve", str(path))
        dumped = run(capsys, "solve", str(path), "--dump", str(tmp_path / "x.csv"))
        assert dumped == plain == (0, "(1,(2,4,6)3,3)3;\n", "")
        doc = parse_newick("(1,(2,4,6),3);")
        expected = bottom_up_intervals(doc.tree, doc.leaf_labels).csv()
        assert (tmp_path / "x.csv").read_text() == expected

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tie", "midpoint"], "tie 'midpoint' is not available for the median solver"),
            (["--cost", "power:2"], "median solver supports manhattan cost only"),
        ],
    )
    def test_median_preconditions_exit_2(self, capsys, tmp_path, flags, message):
        path = tmp_path / "t.nwk"
        path.write_text("(1,2,3);")
        code, _, err = run(capsys, "solve", str(path), "--algorithm", "median", *flags)
        assert code == 2
        assert err.startswith(f"error:UnsupportedAlgorithm:{message}")

    def test_auto_takes_interval_for_midpoint_on_any_tree(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1,2,3);")
        assert run(capsys, "solve", str(path), "--tie", "midpoint") == (0, "(1,2,3)2;\n", "")
        code, out, _ = run(capsys, "solve", str(path), "--tie", "midpoint", "--format", "json")
        assert code == 0
        assert json.loads(out)["algorithm"] == "interval"
        tree = parse_newick("(1,2,3);").tree
        assert choose_algorithm("auto", tree, CostFunction.manhattan(), "midpoint") == "interval"
        assert choose_algorithm("auto", tree, CostFunction.manhattan(), "highest") == "median"
        assert choose_algorithm("auto", tree, CostFunction.power(2), "midpoint") == "convex"

    @pytest.mark.parametrize("tie", ["lowest", "highest"])
    def test_median_huge_span_unary_chain_stays_int(self, capsys, tmp_path, tie):
        # the unary chain above leaf 10**31 takes a stretch that spans the
        # whole label range, and no float sentinel stands in for its ends
        path = tmp_path / "t.nwk"
        path.write_text("(((10000000000000000000000000000000)),0,5);")
        code, newick, _ = run(capsys, "solve", str(path), "--tie", tie)
        assert code == 0
        code, out, _ = run(capsys, "solve", str(path), "--tie", tie, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "median"
        assert all(type(label) is int for label in payload["labels"].values())
        assert type(payload["cost"]) is int
        assert "inf" not in newick + out

    @pytest.mark.parametrize("tie", ["lowest", "highest"])
    def test_auto_stdout_matches_convex_on_non_binary_trees(
        self, capsys, tmp_path, monkeypatch, tie
    ):
        medians = count_calls(monkeypatch, median_down)
        rng = random.Random(f"median-vs-convex:{tie}")
        for index in range(12):
            if index % 2:
                tree = random_topology(rng.randint(2, 30), rng, arity=rng.randint(3, 6))
                labels = {
                    v: tuple(sorted(rng.randint(-9, 20) for _ in range(3)))
                    for v in tree.leaves()
                }
                leaves = TupleLeafLabeling.for_tree(tree, labels)
                doc = TupleTreeDocument(tree=tree, leaf_labels=leaves)
                mode = ["--tuple"]
            else:
                doc = random_document(rng.randint(2, 30), -9, 20, rng, arity=rng.randint(3, 6))
                mode = []
            path = tmp_path / "t.nwk"
            path.write_text(document_to_newick(doc))
            outputs = {}
            for algorithm in ("auto", "convex"):
                code, out, _ = run(capsys, "solve", str(path), "--tie", tie,
                                   "--algorithm", algorithm, *mode)
                assert code == 0
                outputs[algorithm] = out
            assert outputs["auto"] == outputs["convex"], document_to_newick(doc)
        assert medians  # auto took median on some of the trees

    def test_tuple_mode_rejects_dump_flags(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1|4,3|8);")
        code, out, err = run(capsys, "solve", str(path), "--tuple", "--dump",
                             str(tmp_path / "x.csv"))
        assert code == 2
        assert out == ""
        assert err == "error:UnsupportedAlgorithm:--dump is not available in tuple mode\n"
        assert not (tmp_path / "x.csv").exists()

    def test_tuple_decomposition_not_monotone_exit_2(self, capsys, monkeypatch):
        text = "(2|2,(5|6,3|8,4|5));"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "solve", "-", "--tuple",
                             "--cost", "table:0,1,10,11,30,31,60,61,100,101,150")
        assert (code, out) == (2, "")
        assert err.startswith("error:TupleDecompositionNotMonotone:")
        assert err.count("\n") == 1

    def test_tuple_mode_resolves_auto_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.nwk"
        path.write_text("((1|2|3,4|5|6),7|8|9);")
        calls = count_calls(monkeypatch, choose_algorithm)
        code, out, _ = run(capsys, "solve", str(path), "--tuple", "--format", "json")
        assert code == 0
        assert [args[0] for args in calls].count("auto") == 1
        assert json.loads(out)["algorithm"] == "interval"

    def test_tuple_mode(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1|4,3|8);")
        code, out, _ = run(capsys, "solve", str(path), "--tuple")
        assert code == 0
        assert out == "(1|4,3|8)1|4;\n"
        code, out, _ = run(capsys, "solve", str(path), "--tuple", "--format", "json")
        payload = json.loads(out)
        assert payload["cost"] == 6
        assert payload["labels"]["0"] == [1, 4]
        assert payload["g_min"] == 1 and payload["g_max"] == 8

    def test_deterministic_bytes(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("((0,(2,9)),(4,(7,7)));")
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "solve", str(path), "--format", "json")
            outputs.add(out)
        assert len(outputs) == 1


class TestGen:
    def test_deterministic_per_seed(self, capsys):
        _, first, _ = run(capsys, "gen", "--n", "6", "--count", "5", "--seed", "99")
        _, second, _ = run(capsys, "gen", "--n", "6", "--count", "5", "--seed", "99")
        _, third, _ = run(capsys, "gen", "--n", "6", "--count", "5", "--seed", "100")
        assert first == second
        assert first != third
        assert len(first.strip().split("\n")) == 5

    def test_single_leaf(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "1", "--seed", "1", "--lo", "5", "--hi", "5")
        assert code == 0
        assert out == "5;\n"

    def test_two_leaves_always_a_cherry(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "2", "--lo", "2", "--hi", "7",
                           "--seed", "1", "--count", "4")
        assert code == 0
        for line in out.strip().split("\n"):
            doc = parse_newick(line)
            assert doc.tree.node_count == 3
            assert all(2 <= x <= 7 for x in leaf_map(doc.leaf_labels).values())

    def test_instances_parse_and_respect_bounds(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "8", "--count", "10",
                           "--lo", "-3", "--hi", "4", "--seed", "5", "--arity", "4")
        assert code == 0
        for line in out.strip().split("\n"):
            doc = parse_newick(line)
            assert doc.tree.leaf_count == 8
            assert -3 <= doc.leaf_labels.g_min <= doc.leaf_labels.g_max <= 4

    def test_binary_arity_gives_binary_trees(self, capsys):
        from treelabel import is_binary

        _, out, _ = run(capsys, "gen", "--n", "9", "--count", "5", "--seed", "2")
        for line in out.strip().split("\n"):
            assert is_binary(parse_newick(line).tree)

    def test_arity_two_is_binary(self, capsys, monkeypatch):
        # a maximum arity of 2 draws no child count, so it gives "binary"'s trees
        gen = ["gen", "--n", "3", "--count", "2", "--seed", "1", "--arity"]
        binary = run(capsys, *gen, "binary")
        assert binary == (0, "(4,(1,7));\n((3,1),6);\n", "")
        assert run(capsys, *gen, "2") == binary
        gen = ["--n", "5", "--count", "20", "--hi", "12", "--seed", "3", "--arity"]
        checked = {
            arity: check_stdin(capsys, monkeypatch, gen_batch(capsys, *gen, arity), "--verbose")
            for arity in ("binary", "2")
        }
        assert checked["binary"][0] == 0
        assert checked["2"] == checked["binary"]

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gen", "--n", "3"])

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "3", "--seed", "1",
                           "--lo", "5", "--hi", "2")
        assert code == 1
        assert err.startswith("error:ValueError:")

    def test_arity_below_two_rejected(self, capsys):
        message = "maximum arity must be >= 2, got 1"
        with pytest.raises(ValueError, match=message):
            random_topology(3, random.Random(0), arity=1)
        code, out, err = run(capsys, "gen", "--n", "3", "--arity", "1", "--seed", "0")
        assert code == 1
        assert out == ""
        assert err == f"error:ValueError:{message}\n"

    def test_non_integer_arity_names_the_option(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "3", "--arity", "x", "--seed", "0")
        assert (code, out) == (1, "")
        assert err == "error:ValueError:--arity takes 'binary' or an integer >= 2, got 'x'\n"

    def test_topology_needs_a_leaf(self):
        with pytest.raises(ValueError, match="^need at least one leaf, got 0$"):
            random_topology(0, random.Random(0))

    def test_document_needs_a_label_range(self):
        # gen checks --lo > --hi itself, so only a library call reaches this check
        with pytest.raises(ValueError, match=r"^empty label range \[5, 2\]$"):
            random_document(3, 5, 2, random.Random(0))

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_names_the_option(self, capsys, count):
        # a run that would print no instance is refused, not passed off as done
        code, out, err = run(capsys, "gen", "--n", "3", "--count", count, "--seed", "0")
        assert (code, out) == (1, "")
        assert err == f"error:ValueError:--count takes a positive integer, got {count}\n"


# 15 trees of 6 leaves, arity at most 4, labels in [0, 6]
_ARITY_4_BATCH = ("--n", "6", "--count", "15", "--hi", "6", "--seed", "12", "--arity", "4")


class TestCheck:
    def test_file_agreement(self, capsys, tmp_path):
        path = tmp_path / "batch.nwk"
        path.write_text("(2,7);\n((1,5),9);\n\n(4,4);\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "instances: 3" in out
        assert "dp vs interval: 3/3 agree" in out
        assert "result: all solvers agree" in out

    @pytest.mark.parametrize(
        "text, error",
        [
            ("((1,2),3);\n(1,2),x);\n",
             "error:NewickSyntaxError:line 2: ',' outside parentheses at position 5\n"),
            # blank lines count, and so does a line ended by '\r\n'
            ("(2,7);\r\n\n\n  ((1,5),9) ;\n(1,a);\n",
             "error:NonIntegerLeafName:line 5: leaf name 'a' is not a decimal integer\n"),
            ("\n(2,7)\n", "error:NewickSyntaxError:line 2: missing ';' terminator\n"),
        ],
    )
    def test_parse_failure_names_its_line(self, capsys, monkeypatch, text, error):
        code, out, err = check_stdin(capsys, monkeypatch, text)
        assert (code, out, err) == (1, "", error)

    def test_solver_failure_names_its_line(self, capsys, monkeypatch):
        # every solver error but the skipped two names its line, keeping its
        # class and exit code
        text = "(0,1);\n\n(0,9);\n"
        code, out, err = check_stdin(capsys, monkeypatch, text, "--cost", "table:0,1,2")
        assert (code, out) == (1, "")
        assert err == (
            "error:DifferenceOutOfRange:line 3: difference 3 outside cost table of length 3\n"
        )

    def test_oracle_budget_from_environment(self, capsys, tmp_path, monkeypatch):
        # over budget, the oracle is skipped like any solver that does not apply
        monkeypatch.setenv("TREELABEL_BUDGET", "10")
        path = tmp_path / "t.nwk"
        path.write_text("((1,5),9);\n")  # 81 assignments > 10
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "dp vs interval: 1/1 agree" in out
        assert "dp vs oracle: 0/0 agree" in out

    def test_single_instance_verbose(self, capsys, tmp_path):
        path = tmp_path / "one.nwk"
        path.write_text("(2,7);\n")
        code, out, _ = run(capsys, "check", str(path), "--verbose")
        assert code == 0
        assert "dp=5 interval=5 oracle=5" in out

    def test_generated_batch(self, capsys, monkeypatch):
        batch = gen_batch(capsys, "--n", "6", "--count", "25", "--hi", "8", "--seed", "11")
        code, out, _ = check_stdin(capsys, monkeypatch, batch)
        assert code == 0
        assert "instances: 25" in out
        assert "result: all solvers agree" in out

    def test_generated_batch_mixed_arity(self, capsys, monkeypatch):
        batch = gen_batch(capsys, *_ARITY_4_BATCH)
        code, out, _ = check_stdin(capsys, monkeypatch, batch, "--cost", "power:2")
        assert code == 0
        # the interval solver needs Manhattan cost, so it never ran
        assert "dp vs interval: 0/0 agree" in out
        code, out, _ = check_stdin(capsys, monkeypatch, batch)
        assert code == 0
        assert "dp vs interval: 15/15 agree" in out
        assert "interval vs oracle: 15/15 agree" in out

    def test_corrupted_solver_detected(self, capsys, tmp_path, monkeypatch):
        # harness self-test: break one solver and expect exit 3 plus a
        # minimal Newick reproducer on stderr
        path = tmp_path / "batch.nwk"
        path.write_text("((1,5),9);\n(2,7);\n")

        real_solve_scalar = cli.solve_scalar

        def broken_interval(tree, leaves, cost, algorithm="auto", **kwargs):
            name, labeling, up_phase = real_solve_scalar(
                tree, leaves, cost, algorithm=algorithm, **kwargs
            )
            if name != "interval":
                return name, labeling, up_phase
            values = {v: leaves.g_min for v in range(tree.node_count)}
            values.update(leaf_map(leaves))
            return name, Labeling(values=values, total_cost=999), up_phase

        monkeypatch.setattr(cli, "solve_scalar", broken_interval)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert "result: DISAGREEMENT" in out
        assert err.startswith("error:CheckDisagreement:(2,7);")

    def test_convex_cross_checked(self, capsys, tmp_path):
        path = tmp_path / "batch.nwk"
        path.write_text("(2,7);\n((1,5,2),(9,(3)));\n")
        code, out, _ = run(capsys, "check", str(path), "--cost", "power:2", "--verbose")
        assert code == 0
        assert "dp vs convex: 2/2 agree" in out
        assert "convex vs oracle: 2/2 agree" in out
        assert "dp=13 oracle=13 convex=13" in out
        # a non-convex table skips the convex solver
        code, out, _ = run(capsys, "check", str(path), "--cost", "table:0,5,6,11,12,13,14,15,16")
        assert code == 0
        assert "dp vs convex: 0/0 agree" in out
        assert "convex vs oracle: 0/0 agree" in out
        assert "dp vs oracle: 2/2 agree" in out

    def test_corrupted_convex_detected(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "batch.nwk"
        path.write_text("((1,5,2),(9,(3)));\n(2,7);\n")

        real_solve_scalar = cli.solve_scalar

        def broken_convex(tree, leaves, cost, algorithm="auto", **kwargs):
            name, labeling, up_phase = real_solve_scalar(
                tree, leaves, cost, algorithm=algorithm, **kwargs
            )
            if name != "convex":
                return name, labeling, up_phase
            return name, Labeling(labeling.values, labeling.total_cost + 1), up_phase

        monkeypatch.setattr(cli, "solve_scalar", broken_convex)
        code, out, err = run(capsys, "check", str(path), "--cost", "power:2")
        assert code == 3
        assert "result: DISAGREEMENT" in out
        assert "dp vs convex: 0/2 agree" in out
        assert err.startswith("error:CheckDisagreement:(2,7);")

    def test_median_labelings_cross_checked(self, capsys, monkeypatch):
        batch = gen_batch(capsys, *_ARITY_4_BATCH)
        code, out, _ = check_stdin(capsys, monkeypatch, batch)
        assert code == 0
        assert "median vs convex: 15/15 agree" in out
        code, out, _ = check_stdin(capsys, monkeypatch, batch, "--cost", "power:2")
        assert code == 0
        assert "median vs convex: 0/0 agree" in out
        assert "dp vs convex: 15/15 agree" in out

    def test_median_labeling_mismatch_detected(self, capsys, tmp_path, monkeypatch):
        # median solved under the other tie rule: same cost, other labels
        path = tmp_path / "batch.nwk"
        path.write_text("(2,7);\n")

        real_solve_scalar = cli.solve_scalar

        def highest_median(tree, leaves, cost, algorithm="auto", **kwargs):
            if algorithm == "median":
                kwargs["tie"] = "highest"
            return real_solve_scalar(tree, leaves, cost, algorithm=algorithm, **kwargs)

        monkeypatch.setattr(cli, "solve_scalar", highest_median)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert "dp vs convex: 1/1 agree" in out
        assert "median vs convex: 0/1 agree" in out
        assert "result: DISAGREEMENT" in out
        assert err.startswith("error:CheckDisagreement:(2,7);")
        assert "; median vs convex disagree)" in err

    def test_no_path_reads_stdin(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "batch.nwk"
        path.write_text("(2,7);\n((1,5),9);\n")
        from_file = run(capsys, "check", str(path), "--verbose")
        assert from_file[0] == 0
        assert check_stdin(capsys, monkeypatch, path.read_text(), "--verbose") == from_file
        assert check_stdin(capsys, monkeypatch, path.read_text(), "-", "--verbose") == from_file

    def test_removed_generator_options_rejected(self, capsys):
        for option in ("--gen-count", "--gen-n", "--gen-m", "--gen-arity", "--seed"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["check", option, "5"])
            assert exc.value.code == 2
            # "5" is taken for the input path, so only the option is left over
            assert capsys.readouterr().err.endswith(f"unrecognized arguments: {option}\n")

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
    def test_input_with_no_tree_rejected(self, capsys, monkeypatch, tmp_path, text):
        # a failed gen upstream of the pipe leaves check nothing to read;
        # that must not read as agreement
        path = tmp_path / "empty.nwk"
        path.write_text(text)
        expected = (1, "", "error:EmptyTree:no tree in the input\n")
        assert run(capsys, "check", str(path)) == expected
        assert check_stdin(capsys, monkeypatch, text) == expected


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "--n-grid", "8,16", "--m-grid", "6",
                           "--reps", "5", "--seed", "3")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "algorithm,N,m,repetitions,median_ns"
        assert len(lines) == 5  # 2 algorithms x 2 grid points
        for line in lines[1:]:
            name, n, m, reps, median = line.split(",")
            assert name in ("dp", "interval")
            assert int(n) in (15, 31)  # binary: N = 2 * leaves - 1
            assert int(m) <= 6
            assert int(reps) == 5
            assert int(median) > 0

    def test_reported_m_is_the_one_asked_for(self, capsys):
        # the first and last leaves take the ends of the range
        code, out, _ = run(capsys, "bench", "--algorithms", "interval", "--n-grid", "50,500",
                           "--m-grid", "128,1000", "--seed", "1")
        assert code == 0
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        assert [(int(n), int(m)) for _, n, m, _, _ in rows] == [
            (99, 128), (99, 1000), (999, 128), (999, 1000)]
        code, out, _ = run(capsys, "bench", "--algorithms", "dp", "--n-grid", "1",
                           "--m-grid", "8", "--seed", "1")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[1:3] == ["1", "1"]  # one leaf: m = 1

    def test_oracle_small_within_budget(self, capsys):
        code, out, _ = run(capsys, "bench", "--algorithms", "oracle", "--n-grid", "3",
                           "--m-grid", "9", "--reps", "5", "--seed", "4")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 1
        assert rows[0].startswith("oracle,")

    def test_oracle_budget_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TREELABEL_BUDGET", "10")
        code, _, err = run(capsys, "bench", "--algorithms", "oracle", "--n-grid", "3",
                           "--m-grid", "9", "--reps", "5", "--seed", "4")
        assert code == 2
        assert err.startswith("error:BudgetExceeded:")

    def test_inapplicable_algorithm_rejected(self, capsys):
        # bench times solve_scalar, so it applies the same rules as solve
        code, _, err = run(capsys, "bench", "--algorithms", "interval", "--cost", "power:2",
                           "--n-grid", "4", "--m-grid", "4", "--seed", "1")
        assert code == 2
        assert err.startswith("error:UnsupportedAlgorithm:")

    def test_dp_rows_time_the_direct_scan_only(self, capsys, monkeypatch):
        # criterion 7 times "dp" and relies on its O(N * m^2) scan
        dp_calls = count_calls(monkeypatch, dp_up)
        convex_calls = count_calls(monkeypatch, convex_up)
        code, out, _ = run(capsys, "bench", "--algorithms", "dp", "--cost", "manhattan",
                           "--n-grid", "6", "--m-grid", "4,8", "--reps", "5", "--seed", "7")
        assert code == 0
        assert [row.split(",")[0] for row in out.strip().split("\n")[1:]] == ["dp", "dp"]
        assert len(dp_calls) == 2 * (5 + 1)  # warmup plus repetitions, per cell
        assert convex_calls == []

    def test_convex_rows(self, capsys, monkeypatch):
        convex_calls = count_calls(monkeypatch, convex_up)
        code, out, _ = run(capsys, "bench", "--algorithms", "convex", "--cost", "power:2",
                           "--n-grid", "6", "--m-grid", "8", "--reps", "5", "--seed", "7")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 1 and rows[0].startswith("convex,")
        assert len(convex_calls) == 5 + 1

    def test_median_rows(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, median_down)
        code, out, _ = run(capsys, "bench", "--algorithms", "median",
                           "--n-grid", "6", "--m-grid", "8", "--reps", "5", "--seed", "7")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 1 and rows[0].startswith("median,")
        assert len(calls) == 5 + 1

    def test_too_few_reps_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "--n-grid", "4", "--m-grid", "4",
                           "--reps", "2", "--seed", "1")
        assert code == 1
        assert err.startswith("error:ValueError:")

    @pytest.mark.parametrize("n_grid, m_grid", [("0", "4"), ("4,0", "4"), ("4", "4,0")])
    def test_invalid_grid_prints_nothing(self, capsys, n_grid, m_grid):
        # every cell is built before the header, so a failing one leaves
        # stdout empty, whichever cell it is
        code, out, err = run(capsys, "bench", "--n-grid", n_grid, "--m-grid", m_grid,
                             "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [" , ", ",", ""])
    def test_no_algorithm_names_the_option(self, capsys, value):
        # a list with no name would print a bare header
        code, out, err = run(capsys, "bench", "--algorithms", value, "--n-grid", "4",
                             "--m-grid", "4", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == (f"error:ValueError:--algorithms takes a comma-separated list of "
                       f"solver names, got {value!r}\n")

    @pytest.mark.parametrize("option", ["--n-grid", "--m-grid"])
    @pytest.mark.parametrize("value", ["4,x", "4,,8", "4,-2"])
    def test_bad_grid_entry_names_the_option(self, capsys, option, value):
        grids = {"--n-grid": "4", "--m-grid": "4", option: value}
        code, out, err = run(capsys, "bench", *[x for item in grids.items() for x in item],
                             "--seed", "1")
        assert (code, out) == (1, "")
        assert err == (f"error:ValueError:{option} takes a comma-separated list of "
                       f"positive integers, got {value!r}\n")


@pytest.mark.parametrize("command", ["solve", "check"])
def test_byte_order_mark_dropped(capsys, monkeypatch, tmp_path, command):
    # an editor's UTF-8 byte-order mark belongs to the file encoding, not to the tree
    plain = tmp_path / "plain.nwk"
    plain.write_text("((1,5),9);\n")
    expected = run(capsys, command, str(plain))
    assert expected[0] == 0
    marked = tmp_path / "bom.nwk"
    marked.write_text("\ufeff((1,5),9);\n", encoding="utf-8")
    assert run(capsys, command, str(marked)) == expected
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff((1,5),9);\n"))
    assert run(capsys, command, "-") == expected


@pytest.mark.parametrize("message", ["", "cannot allocate"])
def test_memory_error_is_one_line(capsys, monkeypatch, tmp_path, message):
    # a solve too large for memory ends like every other failure, with its own
    # exit code; the solver is patched, so nothing large is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError(*[message] if message else [])

    monkeypatch.setattr(cli, "solve_scalar", exhausted)
    path = tmp_path / "t.nwk"
    path.write_text("(0,10000000,5);")
    assert run(capsys, "solve", str(path), "--cost", "power:2") == (
        4, "", f"error:MemoryError:{message}\n"
    )


@pytest.mark.parametrize("command", ["solve", "check", "bench"])
def test_help_names_the_oracle_budget_variable(capsys, command):
    # the environment variable is the only way to set the oracle budget
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    out = capsys.readouterr().out
    assert "TREELABEL_BUDGET (default 10,000,000)" in out
    assert "--budget" not in out


@contextlib.contextmanager
def no_digit_limit():
    """Lift CPython's int<->str digit limit inside the block, restore it after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str digit limit"
)
class TestExactCostsOfAnySize:
    """Costs of more than CPython's default 4300 printable digits still print."""

    # power:7000 on (0,9): the root takes 4, at a cost of 4,893 digits
    COST = 4**7000 + 5**7000

    def test_json_cost_scalar_and_tuple(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "t.nwk"
        for text, flags in (("(0,9);", ()), ("(0|9,9|9);", ("--tuple",))):
            path.write_text(text)
            code, out, err = run(capsys, "solve", str(path), "--cost", "power:7000",
                                 "--format", "json", *flags)
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
            with no_digit_limit():
                assert json.loads(out)["cost"] == self.COST

    def test_dump_table_and_check_verbose(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        path, table = tmp_path / "t.nwk", tmp_path / "table.csv"
        path.write_text("(0,9);\n")
        code, out, err = run(capsys, "solve", str(path), "--cost", "power:7000",
                             "--dump", str(table))
        assert (code, out, err) == (0, "(0,9)4;\n", "")
        code, out, err = run(capsys, "check", str(path), "--cost", "power:7000", "--verbose")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        with no_digit_limit():
            cost = str(self.COST)
            # the root row, labels 0..9: labels 4 and 5 are optimal
            assert table.read_text().split("\n")[1].split(",")[5:7] == [cost, cost]
            assert f"(0,9);\tdp={cost} oracle={cost} convex={cost}\n" in out

    def test_input_keeps_the_limit(self, capsys, tmp_path):
        # a leaf name over the limit is a typed input error naming the leaf
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "t.nwk"
        over = "1" * (limit + 1)
        for text, flags in ((f"({over},2);", ()), (f"({over},2);", ("--tuple",)),
                            (f"(1|{over},2|3);", ("--tuple",))):
            path.write_text(text)
            code, out, err = run(capsys, "solve", str(path), *flags)
            assert (code, out) == (1, "")
            assert err == (f"error:NonIntegerLeafName:leaf 1 has an integer of {limit + 1} "
                           f"digits in its name, more than the limit of {limit}\n")
            assert sys.get_int_max_str_digits() == limit

    def test_input_at_the_limit_prints(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "t.nwk"
        path.write_text(f"({'1' * limit},2);")
        assert run(capsys, "solve", str(path)) == (0, f"({'1' * limit},2)2;\n", "")
        assert sys.get_int_max_str_digits() == limit


# the Newick alphabet without digits; digits enter only as one-digit labels
# and edits never join two, so no fuzzed label span exceeds 19 (a wide span
# makes forced dp and convex, which have no work budget yet, scan for
# minutes, and power:7000 costs of thousands of digits slow every scan)
_SYMBOLS = "+- \t\n:|.ax(),;"
_COSTS = ("manhattan", "power:2", "power:7000", "table:0,1,3,6,10,15,21,28,36,45",
          "table:0,5,6,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26")
_BAD_COSTS = ("table:0,2,3", "power:0", "power:x", "table:", "table:0,0", "table:1,2",
              "cubic", "")


def _fuzz_text(rng):
    """Random Newick-alphabet text, or a generated tree, maybe truncated or edited."""
    if rng.random() < 0.2:
        chars = []
        for _ in range(rng.randint(0, 16)):
            if rng.random() < 0.3 and not (chars and chars[-1].isdigit()):
                chars.append(str(rng.randint(0, 9)))
            else:
                chars.append(rng.choice(_SYMBOLS))
        return "".join(chars)
    doc = random_document(rng.randint(1, 6), 0, 9, rng, arity=rng.choice(["binary", 3, 4]))
    text = document_to_newick(doc)
    if rng.random() < 0.3:  # tuple leaves: each label joined to a second digit
        text = "".join(f"{ch}|{rng.randint(int(ch), 9)}" if ch.isdigit() else ch for ch in text)
    at = rng.randrange(len(text))
    edited = rng.choice([
        text[:at], text[:at] + rng.choice(_SYMBOLS) + text[at + 1:], text[:at] + text[at + 1:]
    ])
    joins_digits = any(a.isdigit() and b.isdigit() for a, b in zip(edited, edited[1:]))
    return text if joins_digits or rng.random() < 0.6 else edited


def test_fuzzed_cli_never_leaks_a_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TREELABEL_BUDGET", "20000")
    rng = random.Random(20261019)
    path = tmp_path / "in.nwk"
    exits = []
    for case in range(1500):
        text = _fuzz_text(rng)
        path.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        source = rng.choice([str(path), "-"])
        cost = ["--cost", rng.choice(_COSTS if rng.random() < 0.8 else _BAD_COSTS)]
        if case % 10 == 0:
            argv = ["check", str(path), *cost] + ["--verbose"] * rng.randrange(2)
        else:
            argv = [
                "solve", source, *cost,
                "--algorithm", rng.choice(cli.ALGORITHMS),
                "--tie", rng.choices(cli.INTERVAL_TIES, weights=(6, 3, 1))[0],
                "--format", rng.choice(["newick", "json"]),
            ]
            argv += ["--tuple"] * (rng.random() < (0.8 if "|" in text else 0.2))
            argv += rng.choices([[], ["--dump", str(tmp_path / "up.csv")]], weights=(6, 2))[0]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        exits.append(code)
        context = f"{argv} on {text!r}"
        assert code in (0, 1, 2, 3), context
        if code:
            assert err.startswith("error:") and err.count("\n") == 1, context
        else:
            assert err == "" and out, context
    # every kind of outcome but a check disagreement occurs often
    assert min(exits.count(code) for code in (0, 1, 2)) > 150
