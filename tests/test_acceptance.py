"""Acceptance suite: one test per release criterion, one line per result.

Shared sweeps are built once per module:

  exhaustive tier   all binary topologies with 2..4 leaves, all leaf
                    labelings over [0,4]
  randomized tier   1000 seeded random trees (binary and arity <= 4),
                    n <= 7, labels inside [0,12], three cost kinds

The randomized tier draws each instance's labels from a window whose
width shrinks with the internal-node count so that the brute-force
search box stays affordable; every label still lies in [0,12].

Criterion 5 asserts, as stated, that every point of every bottom-up
interval is achieved by some globally optimal labeling. That claim is
false (see test_intervals.py for two hand-verified counterexamples), so
this test prints the minimal reproducers it finds and fails honestly;
the true directions (emitted labels globally optimal, root interval
exact) are asserted separately and hold.
"""

import random
import time
from itertools import product

import pytest

import treelabel.cli as cli
from helpers import (
    binary_shapes,
    random_strict_table,
    shape_to_newick,
    tuple_brute_force_cost,
)
from treelabel import (
    CostFunction,
    LeafLabeling,
    TupleDecompositionNotMonotone,
    TupleLeafLabeling,
    bottom_up_intervals,
    brute_force_min,
    document_to_newick,
    optimal_label_sets,
    parse_newick,
    parse_newick_tuples,
    random_document,
    solve_ktuple,
)
from treelabel.solve import solve_scalar

MANHATTAN = CostFunction.manhattan()
SQUARE = CostFunction.power(2)


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: PASS{suffix}")


# ------------------------------------------------------------------ #
# shared sweeps                                                       #
# ------------------------------------------------------------------ #

@pytest.fixture(scope="module")
def exhaustive_tier():
    started = time.perf_counter()
    records = []
    for n in (2, 3, 4):
        for shape in binary_shapes(n):
            for labels in product(range(5), repeat=n):
                newick = shape_to_newick(shape, labels)
                doc = parse_newick(newick)
                dp = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp")[1]
                iv_labeling = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
                sets = optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)
                oracle_cost = brute_force_min(
                    doc.tree, doc.leaf_labels, MANHATTAN, max_labelings=1
                ).cost
                records.append(
                    {
                        "newick": newick,
                        "doc": doc,
                        "dp": dp,
                        "interval": iv_labeling,
                        "oracle_cost": oracle_cost,
                        "optimal_sets": sets,
                        "intervals": bottom_up_intervals(doc.tree, doc.leaf_labels),
                    }
                )
    return {"records": records, "seconds": time.perf_counter() - started}


def _window_width(internal_count, rng):
    # keep the oracle box below ~10^5 evaluations per cost kind
    cap = {1: 13, 2: 13, 3: 13, 4: 13, 5: 10, 6: 7}.get(max(internal_count, 1), 7)
    return rng.randint(1, cap)


@pytest.fixture(scope="module")
def randomized_tier():
    started = time.perf_counter()
    rng = random.Random(0xACCE97)
    records = []
    for index in range(1000):
        n = rng.randint(2, 7)
        arity = "binary" if index % 2 == 0 else 4
        topology_doc = random_document(n, 0, 0, rng, arity=arity)
        internal = topology_doc.tree.node_count - topology_doc.tree.leaf_count
        width = _window_width(internal, rng)
        lo = rng.randint(0, 13 - width)
        labels = {v: rng.randint(lo, lo + width - 1) for v in topology_doc.tree.leaves()}
        doc_labels = LeafLabeling.for_tree(topology_doc.tree, labels)
        tree = topology_doc.tree

        costs = [
            ("manhattan", MANHATTAN),
            ("power:2", SQUARE),
            ("table", random_strict_table(rng, 13)),
        ]
        results = []
        for kind, cost in costs:
            dp = solve_scalar(tree, doc_labels, cost, "dp")[1]
            oracle_cost = brute_force_min(tree, doc_labels, cost, max_labelings=1).cost
            interval_cost = None
            interval_labeling = None
            if kind == "manhattan":
                interval_labeling = solve_scalar(tree, doc_labels, MANHATTAN, "interval")[1]
                interval_cost = interval_labeling.total_cost
            results.append(
                {
                    "kind": kind,
                    "dp": dp,
                    "oracle_cost": oracle_cost,
                    "interval_cost": interval_cost,
                    "interval": interval_labeling,
                }
            )
        records.append({"tree": tree, "labels": doc_labels, "results": results})
    return {"records": records, "seconds": time.perf_counter() - started}


# ------------------------------------------------------------------ #
# criteria                                                            #
# ------------------------------------------------------------------ #

def test_criterion_1_oracle_equivalence_exhaustive(exhaustive_tier):
    records = exhaustive_tier["records"]
    assert len(records) == 25 + 2 * 125 + 5 * 625
    for record in records:
        assert (
            record["dp"].total_cost
            == record["interval"].total_cost
            == record["oracle_cost"]
        ), f"cost mismatch on {record['newick']}"
    assert exhaustive_tier["seconds"] < 60
    report(1, "oracle equivalence, exhaustive",
           f"{len(records)} instances in {exhaustive_tier['seconds']:.1f}s")


def test_criterion_2_oracle_equivalence_randomized(randomized_tier):
    records = randomized_tier["records"]
    assert len(records) >= 1000
    interval_checked = 0
    for record in records:
        for result in record["results"]:
            assert result["dp"].total_cost == result["oracle_cost"]
            if result["interval_cost"] is not None:
                assert result["interval_cost"] == result["oracle_cost"]
                interval_checked += 1
    assert interval_checked > 100
    assert randomized_tier["seconds"] < 120
    report(2, "oracle equivalence, randomized",
           f"{len(records)} instances, {interval_checked} interval checks, "
           f"{randomized_tier['seconds']:.1f}s")


def test_criterion_3_labels_stay_in_leaf_range(exhaustive_tier, randomized_tier):
    violations = 0
    for record in exhaustive_tier["records"]:
        lo = record["doc"].leaf_labels.g_min
        hi = record["doc"].leaf_labels.g_max
        for labeling in (record["dp"], record["interval"]):
            violations += sum(
                1 for x in labeling.values if not lo <= x <= hi
            )
    for record in randomized_tier["records"]:
        lo, hi = record["labels"].g_min, record["labels"].g_max
        for result in record["results"]:
            labelings = [result["dp"]]
            if result["interval"] is not None:
                labelings.append(result["interval"])
            for labeling in labelings:
                violations += sum(
                    1 for x in labeling.values if not lo <= x <= hi
                )
    assert violations == 0
    report(3, "label range bound", "zero violations")


def test_criterion_4_cherry_root_optima_fill_the_span():
    rng = random.Random(4)
    for _ in range(200):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        doc = parse_newick(f"({a},{b});")
        expected = list(range(min(a, b), max(a, b) + 1))
        got = optimal_label_sets(doc.tree, doc.leaf_labels, MANHATTAN)[doc.tree.root]
        assert got == expected, f"({a},{b}): {got} != {expected}"
    report(4, "cherry root optima", "200 cherries")


def test_criterion_5_interval_soundness_as_stated(exhaustive_tier):
    emitted_violations = []
    coverage_violations = []
    for record in exhaustive_tier["records"]:
        doc = record["doc"]
        sets = record["optimal_sets"]
        iv = record["intervals"]
        for v in range(doc.tree.node_count):
            lo, hi = iv[v]
            if not set(range(lo, hi + 1)) <= set(sets[v]):
                coverage_violations.append((doc.tree.node_count, record["newick"], v))
            if record["interval"].values[v] not in sets[v]:
                emitted_violations.append((doc.tree.node_count, record["newick"], v))

    # emitted labels are always part of a global optimum: holds
    assert emitted_violations == []

    if coverage_violations:
        coverage_violations.sort()
        size, newick, node = coverage_violations[0]
        print(
            f"criterion 5 [interval soundness]: FAIL, "
            f"{len(coverage_violations)} interval points not achieved by any "
            f"optimum; minimal reproducer: {newick} (node {node})"
        )
    assert len(coverage_violations) == 0, (
        f"{len(coverage_violations)} violations; minimal Newick reproducer: "
        f"{coverage_violations[0][1]} at node {coverage_violations[0][2]};"
        " every point of a bottom-up interval was expected to extend to a"
        " global optimum, but the interval is only exact at the root"
        " (per-subtree elsewhere)"
    )
    report(5, "interval soundness", "zero violations")


def test_criterion_6_worked_values():
    doc = parse_newick("((1,5),9);")
    assert solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "dp")[1].total_cost == 8
    assert solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1].total_cost == 8
    assert brute_force_min(doc.tree, doc.leaf_labels, MANHATTAN).cost == 8
    assert solve_scalar(doc.tree, doc.leaf_labels, SQUARE, "dp")[1].total_cost == 23
    assert brute_force_min(doc.tree, doc.leaf_labels, SQUARE).cost == 23

    cherry = parse_newick("(2,7);")
    optimum = brute_force_min(cherry.tree, cherry.leaf_labels, MANHATTAN)
    assert optimum.cost == 5
    assert optimum.label_sets[cherry.tree.root] == [2, 3, 4, 5, 6, 7]
    report(6, "worked values", "costs 8, 23, 5; six optimal roots")


def test_criterion_7_complexity_scaling(capsys):
    started = time.perf_counter()

    # dp: m doubles at (near) fixed N=1000 nodes; expect ~4x
    assert cli.main(["bench", "--algorithms", "dp", "--n-grid", "500",
                     "--m-grid", "32,64", "--reps", "5", "--seed", "7"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    dp_times = {int(r.split(",")[2]): int(r.split(",")[4]) for r in rows}
    dp_ratio = dp_times[64] / dp_times[32]

    # interval: N scales 10x at fixed m; expect ~10x
    assert cli.main(["bench", "--algorithms", "interval", "--n-grid", "500,5000",
                     "--m-grid", "32", "--reps", "7", "--seed", "7"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    iv_times = {int(r.split(",")[1]): int(r.split(",")[4]) for r in rows}
    iv_ratio = iv_times[9999] / iv_times[999]

    elapsed = time.perf_counter() - started
    assert 2.5 <= dp_ratio <= 6.5, f"dp doubling ratio {dp_ratio:.2f}"
    assert 4 <= iv_ratio <= 30, f"interval 10x ratio {iv_ratio:.2f}"
    assert elapsed < 300
    with capsys.disabled():
        report(7, "complexity scaling",
               f"dp ratio {dp_ratio:.2f}, interval ratio {iv_ratio:.2f}, "
               f"{elapsed:.1f}s")


def test_criterion_8_equivariance():
    rng = random.Random(8)
    for index in range(500):
        n = rng.randint(2, 8)
        binary = index % 2 == 0
        doc = random_document(n, 0, 8, rng, arity="binary" if binary else 4)
        cost = (MANHATTAN, SQUARE)[index % 2 == 1]
        base = solve_scalar(doc.tree, doc.leaf_labels, cost, "dp")[1]

        for shift in (-5, 17):
            shifted = LeafLabeling.for_tree(
                doc.tree, {v: x + shift for v, x in doc.leaf_labels.labels.items()}
            )
            moved = solve_scalar(doc.tree, shifted, cost, "dp")[1]
            assert moved.total_cost == base.total_cost
            assert all(
                moved.values[v] == base.values[v] + shift
                for v in range(doc.tree.node_count)
            )

        pivot = doc.leaf_labels.g_min + doc.leaf_labels.g_max
        reflected = LeafLabeling.for_tree(
            doc.tree, {v: pivot - x for v, x in doc.leaf_labels.labels.items()}
        )
        assert solve_scalar(doc.tree, reflected, cost, "dp")[1].total_cost == base.total_cost

        if binary:
            iv_base = solve_scalar(doc.tree, doc.leaf_labels, MANHATTAN, "interval")[1]
            for shift in (-5, 17):
                shifted = LeafLabeling.for_tree(
                    doc.tree,
                    {v: x + shift for v, x in doc.leaf_labels.labels.items()},
                )
                iv_moved = solve_scalar(doc.tree, shifted, MANHATTAN, "interval")[1]
                assert iv_moved.total_cost == iv_base.total_cost
                assert all(
                    iv_moved.values[v] == iv_base.values[v] + shift
                    for v in range(doc.tree.node_count)
                )
            iv_reflected = solve_scalar(doc.tree, reflected, MANHATTAN, "interval")[1]
            assert iv_reflected.total_cost == iv_base.total_cost
    report(8, "equivariance", "500 instances, shifts -5/+17 and reflection")


def test_criterion_9_ktuple():
    rng = random.Random(9)

    # k=1 collapse, bit for bit
    for _ in range(200):
        n = rng.randint(2, 7)
        doc = random_document(n, 0, 9, rng, arity="binary" if rng.random() < 0.5 else 3)
        cost = rng.choice([MANHATTAN, SQUARE])
        as_tuples = TupleLeafLabeling.for_tree(
            doc.tree, {v: (x,) for v, x in doc.leaf_labels.labels.items()}
        )
        tuple_result = solve_ktuple(doc.tree, as_tuples, cost)
        _, scalar, _ = solve_scalar(doc.tree, doc.leaf_labels, cost)
        assert tuple_result.total_cost == scalar.total_cost
        assert tuple_result.values == [(x,) for x in scalar.values]

    # k=2 against the constrained tuple-space brute force
    audit_failures = []
    checked = 0

    def check_instance(doc, leaf_tuples):
        nonlocal checked
        labels = TupleLeafLabeling.for_tree(doc.tree, leaf_tuples)
        try:
            result = solve_ktuple(doc.tree, labels, MANHATTAN)
        except TupleDecompositionNotMonotone as exc:
            audit_failures.append(exc.reproducer)
            return
        expected = tuple_brute_force_cost(doc.tree, 2, leaf_tuples, MANHATTAN)
        assert result.total_cost == expected, (
            f"{document_to_newick(doc)}: decomposition {result.total_cost} "
            f"!= constrained optimum {expected}"
        )
        checked += 1

    # exhaustive slice: both 3-leaf binary shapes, every nondecreasing
    # pair over [0,2] on every leaf
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    for newick_shape in ("(({0},{1}),{2});", "({0},({1},{2}));"):
        for combo in product(pairs, repeat=3):
            text = newick_shape.format(*("|".join(map(str, p)) for p in combo))
            doc = parse_newick_tuples(text)
            check_instance(doc, dict(doc.leaf_labels.labels))

    # randomized slice at the size bound: n <= 4, ranges of width <= 6
    for _ in range(150):
        n = rng.randint(2, 4)
        doc = random_document(n, 0, 0, rng, arity="binary")
        base = rng.randint(0, 4)
        width = rng.randint(1, 6)
        leaf_tuples = {
            v: tuple(sorted(rng.randint(base, base + width - 1) for _ in range(2)))
            for v in doc.tree.leaves()
        }
        check_instance(doc, leaf_tuples)

    for reproducer in audit_failures:
        print(f"criterion 9: decomposition audit failure: {reproducer}")
    assert not audit_failures, f"{len(audit_failures)} audit failures (reported above)"
    report(9, "k-tuple decomposition",
           f"200 k=1 collapses, {checked} constrained-oracle matches, "
           f"{len(audit_failures)} audit failures")
