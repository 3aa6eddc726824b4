import json

import pytest

import treelabel.cli as cli
from helpers import count_calls
from treelabel import (
    CostFunction,
    Labeling,
    bottom_up_intervals,
    choose_algorithm,
    dp_up,
    parse_newick,
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
        path.write_text("(1,2,3);")  # non-binary: auto must pick dp
        code, out, _ = run(capsys, "solve", str(path), "--format", "json")
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

    def test_interval_on_non_binary_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(1,2,3);")
        code, _, err = run(capsys, "solve", str(path), "--algorithm", "interval")
        assert code == 2
        assert err.startswith("error:NotBinaryTree:")

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
        calls = count_calls(monkeypatch, dp_up)
        code, _, _ = run(capsys, "solve", str(path), "--cost", "power:2",
                         "--dump-table", str(out_csv))
        assert code == 0
        assert len(calls) == 1
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
        path.write_text("(1,2,3);")  # auto resolves to dp
        calls = count_calls(monkeypatch, dp_up)
        code, _, err = run(capsys, "solve", str(path), "--dump-intervals", str(out_csv))
        assert code == 2
        assert err.startswith("error:UnsupportedAlgorithm:")
        assert calls == []
        assert not out_csv.exists()

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
        # non-binary instances exist, so the interval solver never ran
        assert "dp vs interval: 0/0 agree" in out

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

    def test_too_few_reps_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "--n-grid", "4", "--m-grid", "4",
                           "--reps", "2", "--seed", "1")
        assert code == 1
        assert err.startswith("error:ValueError:")
