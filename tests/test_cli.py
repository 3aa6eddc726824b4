import json
import random

import pytest

import treelabel.cli as cli
from helpers import count_calls
from treelabel import (
    CostFunction,
    Labeling,
    TupleLeafLabeling,
    TupleTreeDocument,
    bottom_up_intervals,
    choose_algorithm,
    convex_up,
    document_to_newick,
    dp_up,
    median_down,
    parse_newick,
    random_document,
    random_topology,
)
from treelabel.dp import cost_table_csv
from treelabel.intervals import interval_csv


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
                         "--dump-table", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "node,2,3,4,5,6,7"
        assert lines[1] == "0,5,5,5,5,5,5"

    def test_dump_intervals(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "iv.csv"
        path.write_text("((1,5),9);")
        code, _, _ = run(capsys, "solve", str(path), "--dump-intervals", str(out_csv))
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
                         "--dump-table", str(out_csv))
        assert code == 0
        # auto resolves to convex, whose table is dp_up's
        assert (len(convex_calls), len(dp_calls)) == (1, 0)
        doc = parse_newick(text)
        expected = cost_table_csv(dp_up(doc.tree, doc.leaf_labels, CostFunction.power(2)))
        assert out_csv.read_bytes() == expected.encode()

    def test_dump_intervals_is_the_solve_assignment(self, capsys, tmp_path, monkeypatch):
        text = "((1,5),(9,(3,4)));"
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "iv.csv"
        path.write_text(text)
        calls = count_calls(monkeypatch, bottom_up_intervals)
        code, _, _ = run(capsys, "solve", str(path), "--dump-intervals", str(out_csv))
        assert code == 0
        assert len(calls) == 1
        doc = parse_newick(text)
        expected = interval_csv(bottom_up_intervals(doc.tree, doc.leaf_labels))
        assert out_csv.read_bytes() == expected.encode()

    def test_dump_table_needs_dp(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(2,7);")
        code, _, err = run(capsys, "solve", str(path), "--dump-table",
                           str(tmp_path / "x.csv"))
        assert code == 2
        assert err.startswith("error:UnsupportedAlgorithm:")

    def test_wrong_dump_flag_rejected_before_the_solve(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.nwk"
        out_csv = tmp_path / "x.csv"
        path.write_text("(2,7);")  # auto resolves to interval
        calls = count_calls(monkeypatch, bottom_up_intervals)
        code, _, err = run(capsys, "solve", str(path), "--dump-table", str(out_csv))
        assert code == 2
        assert err.startswith("error:UnsupportedAlgorithm:")
        assert calls == []
        path.write_text("(1,2,3);")  # auto resolves to convex under power:2
        calls = count_calls(monkeypatch, convex_up)
        code, _, err = run(capsys, "solve", str(path), "--dump-intervals", str(out_csv),
                           "--cost", "power:2")
        assert code == 2
        assert err.startswith("error:UnsupportedAlgorithm:")
        assert calls == []
        assert not out_csv.exists()

    def test_dump_intervals_on_auto_median(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t.nwk"
        path.write_text("(1,(2,4,6),3);")  # auto resolves to median
        calls = count_calls(monkeypatch, bottom_up_intervals)
        code, out, _ = run(capsys, "solve", str(path), "--format", "json",
                           "--dump-intervals", str(tmp_path / "auto.csv"))
        assert code == 0
        assert json.loads(out)["algorithm"] == "median"
        assert len(calls) == 1
        code, _, _ = run(capsys, "solve", str(path), "--algorithm", "interval",
                         "--dump-intervals", str(tmp_path / "interval.csv"))
        assert code == 0
        assert (tmp_path / "auto.csv").read_bytes() == (tmp_path / "interval.csv").read_bytes()
        assert (tmp_path / "auto.csv").read_text().startswith("node,lo,hi\n0,3,3\n")

    def test_dump_table_on_auto_median_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1,(2,4,6),3);")
        code, out, err = run(capsys, "solve", str(path), "--dump-table", str(tmp_path / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:UnsupportedAlgorithm:--dump-table")
        assert not (tmp_path / "x.csv").exists()

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
        code, out, err = run(capsys, "solve", str(path), "--tuple", "--dump-table",
                             str(tmp_path / "x.csv"))
        assert code == 2
        assert out == ""
        assert err == "error:UnsupportedAlgorithm:dump flags are not available in tuple mode\n"
        assert not (tmp_path / "x.csv").exists()

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
            assert all(2 <= x <= 7 for x in doc.leaf_labels.labels.values())

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

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gen", "--n", "3"])

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "3", "--seed", "1",
                           "--lo", "5", "--hi", "2")
        assert code == 1
        assert err.startswith("error:ValueError:")


class TestCheck:
    def test_file_agreement(self, capsys, tmp_path):
        path = tmp_path / "batch.nwk"
        path.write_text("(2,7);\n((1,5),9);\n\n(4,4);\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "instances: 3" in out
        assert "dp vs interval: 3/3 agree" in out
        assert "result: all solvers agree" in out

    def test_single_instance_verbose(self, capsys, tmp_path):
        path = tmp_path / "one.nwk"
        path.write_text("(2,7);\n")
        code, out, _ = run(capsys, "check", str(path), "--verbose")
        assert code == 0
        assert "dp=5 interval=5 oracle=5" in out

    def test_generated_batch(self, capsys):
        code, out, _ = run(capsys, "check", "--gen-count", "25", "--gen-n", "6",
                           "--gen-m", "9", "--seed", "11")
        assert code == 0
        assert "instances: 25" in out
        assert "result: all solvers agree" in out

    def test_generated_batch_mixed_arity(self, capsys):
        code, out, _ = run(capsys, "check", "--gen-count", "15", "--gen-n", "6",
                           "--gen-m", "7", "--seed", "12", "--gen-arity", "4",
                           "--cost", "power:2")
        assert code == 0
        # the interval solver needs Manhattan cost, so it never ran
        assert "dp vs interval: 0/0 agree" in out
        code, out, _ = run(capsys, "check", "--gen-count", "15", "--gen-n", "6",
                           "--gen-m", "7", "--seed", "12", "--gen-arity", "4")
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
            values.update(leaves.labels)
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

    def test_median_labelings_cross_checked(self, capsys):
        code, out, _ = run(capsys, "check", "--gen-count", "15", "--gen-n", "6",
                           "--gen-m", "7", "--seed", "12", "--gen-arity", "4")
        assert code == 0
        assert "median vs convex: 15/15 agree" in out
        code, out, _ = run(capsys, "check", "--gen-count", "5", "--seed", "12",
                           "--cost", "power:2")
        assert code == 0
        assert "median vs convex: 0/0 agree" in out

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

    def test_seed_required_when_generating(self, capsys):
        code, _, err = run(capsys, "check", "--gen-count", "5")
        assert code == 1
        assert err.startswith("error:ValueError:")


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

    def test_oracle_small_within_budget(self, capsys):
        code, out, _ = run(capsys, "bench", "--algorithms", "oracle", "--n-grid", "3",
                           "--m-grid", "9", "--reps", "5", "--seed", "4")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 1
        assert rows[0].startswith("oracle,")

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
