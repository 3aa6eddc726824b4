"""Command-line front end.

Subcommands:

  solve   label one tree (Newick in, annotated Newick or JSON out)
  check   cross-check dp / interval / oracle agreement over many instances
  gen     emit random instances as Newick lines
  bench   time solvers over an (n, m) grid, CSV out

Which solver applies is decided only in solve.py: solve resolves it once,
for scalar and tuple input alike, and rejects a mismatched dump flag before
solving; check runs solve_scalar per solver and skips inapplicable ones.

Exit codes: 0 success; 1 parse or validation failure; 2 solver
precondition failure (non-binary tree for the interval solver, oracle
budget, unsupported combinations); 3 check found a disagreement. Every
failure prints a single diagnostic line "error:<code>:<message>" to
stderr. Identical input, flags and seed reproduce identical stdout bytes
(timings in bench output excepted).
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from typing import Optional

from .dp import cost_table_csv, solve_dp
from .errors import (
    BudgetExceeded,
    NotBinaryTree,
    TreeLabelError,
    TupleDecompositionNotMonotone,
    UnsupportedAlgorithm,
)
from .generate import random_document
from .intervals import interval_csv, solve_interval
from .newick import (
    document_to_newick,
    parse_newick,
    parse_newick_tuples,
    serialize_labeled,
    serialize_tuple_labeled,
)
from .oracle import brute_force_min, resolve_budget
from .solve import choose_algorithm, solve_scalar
from .tuples import solve_ktuple
from .validation import resolve_cost

_PRECONDITION_ERRORS = (
    NotBinaryTree,
    BudgetExceeded,
    UnsupportedAlgorithm,
    TupleDecompositionNotMonotone,
)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------------ #
# solve                                                               #
# ------------------------------------------------------------------ #

def cmd_solve(args: argparse.Namespace) -> int:
    text = _read_input(args.input)
    cost = resolve_cost(args.cost)

    if args.tuple:
        if args.dump_table or args.dump_intervals:
            raise UnsupportedAlgorithm("dump flags are not available in tuple mode")
        doc = parse_newick_tuples(text, source_name=args.input)
        flat = [x for tup in doc.leaf_labels.labels.values() for x in tup]
        g_min, g_max = min(flat), max(flat)
        serialize = serialize_tuple_labeled
    else:
        doc = parse_newick(text, source_name=args.input)
        g_min, g_max = doc.leaf_labels.g_min, doc.leaf_labels.g_max
        serialize = serialize_labeled

    resolved = choose_algorithm(args.algorithm, doc.tree, cost)
    if args.dump_table and resolved != "dp":
        raise UnsupportedAlgorithm("--dump-table requires the dp algorithm")
    if args.dump_intervals and resolved != "interval":
        raise UnsupportedAlgorithm("--dump-intervals requires the interval algorithm")

    if args.tuple:
        labeling = solve_ktuple(doc.tree, doc.leaf_labels, cost, algorithm=resolved, tie=args.tie)
    else:
        _, labeling, up_phase = solve_scalar(
            doc.tree, doc.leaf_labels, cost, algorithm=resolved, tie=args.tie
        )
        if args.dump_table:
            _write_file(args.dump_table, cost_table_csv(up_phase))
        if args.dump_intervals:
            _write_file(args.dump_intervals, interval_csv(up_phase))

    if args.format == "newick":
        print(serialize(doc, labeling))
    else:
        payload = {
            "cost": labeling.total_cost,
            "labels": {str(v): labeling.values[v] for v in range(doc.tree.node_count)},
            "algorithm": resolved,
            "g_min": g_min,
            "g_max": g_max,
            "m": g_max - g_min + 1,
        }
        print(json.dumps(payload))
    return 0


# ------------------------------------------------------------------ #
# check                                                               #
# ------------------------------------------------------------------ #

def _check_instances(args: argparse.Namespace):
    if args.input:
        text = _read_input(args.input)
        docs = []
        for idx, line in enumerate(text.splitlines()):
            line = line.strip()
            if line:
                docs.append(parse_newick(line, source_name=f"{args.input}:{idx + 1}"))
        return docs
    if args.seed is None:
        raise ValueError("check without an input file needs --seed for generation")
    rng = random.Random(args.seed)
    docs = []
    for idx in range(args.gen_count):
        n = rng.randint(2, max(2, args.gen_n))
        docs.append(
            random_document(
                n, 0, args.gen_m - 1, rng,
                arity=args.gen_arity if args.gen_arity == "binary" else int(args.gen_arity),
                source_name=f"gen:{idx}",
            )
        )
    return docs


def cmd_check(args: argparse.Namespace) -> int:
    cost = resolve_cost(args.cost)
    docs = _check_instances(args)
    budget = resolve_budget(args.budget)

    pair_stats = {
        ("dp", "interval"): [0, 0],  # [compared, agreed]
        ("dp", "oracle"): [0, 0],
        ("interval", "oracle"): [0, 0],
    }
    failures = []

    for doc in docs:
        costs = {}
        for name in ("dp", "interval", "oracle"):
            try:
                _, labeling, _ = solve_scalar(
                    doc.tree, doc.leaf_labels, cost, algorithm=name, budget=budget
                )
            except (NotBinaryTree, UnsupportedAlgorithm, BudgetExceeded):
                continue  # this solver does not apply to the instance
            costs[name] = labeling.total_cost

        disagreement = False
        for (a, b), stats in pair_stats.items():
            if a in costs and b in costs:
                stats[0] += 1
                if costs[a] == costs[b]:
                    stats[1] += 1
                else:
                    disagreement = True
        newick = document_to_newick(doc)
        if disagreement:
            failures.append((doc.tree.node_count, len(newick), newick, costs))
        if args.verbose:
            report = " ".join(f"{name}={costs[name]}" for name in ("dp", "interval", "oracle") if name in costs)
            print(f"{newick}\t{report}")

    print(f"instances: {len(docs)}")
    for (a, b), (compared, agreed) in pair_stats.items():
        print(f"{a} vs {b}: {agreed}/{compared} agree")
    if failures:
        failures.sort()
        _, _, newick, costs = failures[0]
        report = " ".join(f"{name}={value}" for name, value in sorted(costs.items()))
        print("result: DISAGREEMENT")
        print(f"error:CheckDisagreement:{newick} ({report})", file=sys.stderr)
        return 3
    print("result: all solvers agree")
    return 0


# ------------------------------------------------------------------ #
# gen                                                                 #
# ------------------------------------------------------------------ #

def cmd_gen(args: argparse.Namespace) -> int:
    if args.lo > args.hi:
        raise ValueError(f"empty label range [{args.lo}, {args.hi}]")
    rng = random.Random(args.seed)
    arity = args.arity if args.arity == "binary" else int(args.arity)
    for idx in range(args.count):
        doc = random_document(
            args.n, args.lo, args.hi, rng, arity=arity, source_name=f"gen:{idx}"
        )
        print(document_to_newick(doc))
    return 0


# ------------------------------------------------------------------ #
# bench                                                               #
# ------------------------------------------------------------------ #

def _bench_solver(name: str, doc, cost, budget: Optional[int]):
    if name == "dp":
        return lambda: solve_dp(doc.tree, doc.leaf_labels, cost)
    if name == "interval":
        return lambda: solve_interval(doc.tree, doc.leaf_labels)
    if name == "oracle":
        return lambda: brute_force_min(
            doc.tree, doc.leaf_labels, cost, budget=budget, max_labelings=1
        )
    raise UnsupportedAlgorithm(f"cannot benchmark algorithm {name!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    cost = resolve_cost(args.cost)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    n_grid = [int(x) for x in args.n_grid.split(",")]
    m_grid = [int(x) for x in args.m_grid.split(",")]
    reps = args.reps
    if reps < 5:
        raise ValueError(f"bench needs at least 5 repetitions, got {reps}")

    print("algorithm,N,m,repetitions,median_ns")
    for n in n_grid:
        for m in m_grid:
            # one instance per grid point, shared by all algorithms
            rng = random.Random(f"{args.seed}:{n}:{m}")
            doc = random_document(n, 0, m - 1, rng, arity="binary")
            for name in algorithms:
                run = _bench_solver(name, doc, cost, args.budget)
                run()  # warmup
                times = []
                for _ in range(reps):
                    start = time.perf_counter_ns()
                    run()
                    times.append(time.perf_counter_ns() - start)
                median_ns = int(statistics.median(times))
                print(
                    f"{name},{doc.tree.node_count},{doc.leaf_labels.m},{reps},{median_ns}"
                )
    return 0


# ------------------------------------------------------------------ #
# parser / entry point                                                #
# ------------------------------------------------------------------ #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelabel",
        description="Minimum-cost integer labeling of leaf-labeled rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cost(p):
        p.add_argument(
            "--cost",
            default="manhattan",
            help="edge cost: manhattan | power:<k> | table:<c0,c1,...> (default: manhattan)",
        )

    p_solve = sub.add_parser("solve", help="label one tree")
    p_solve.add_argument("input", nargs="?", default="-", help="Newick file or '-' for stdin")
    p_solve.add_argument(
        "--algorithm", default="auto", choices=["auto", "dp", "interval", "oracle"]
    )
    add_cost(p_solve)
    p_solve.add_argument("--tie", default="lowest", choices=["lowest", "highest", "midpoint"])
    p_solve.add_argument("--format", default="newick", choices=["newick", "json"])
    p_solve.add_argument("--tuple", action="store_true", help="leaf names are a|b|c tuples")
    p_solve.add_argument("--dump-table", metavar="PATH", help="write the dp cost table as CSV")
    p_solve.add_argument(
        "--dump-intervals", metavar="PATH", help="write the interval assignment as CSV"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="cross-check solver agreement")
    p_check.add_argument(
        "input", nargs="?", default=None, help="file of Newick lines (default: generate)"
    )
    add_cost(p_check)
    p_check.add_argument("--gen-count", type=int, default=100, help="instances to generate")
    p_check.add_argument("--gen-n", type=int, default=7, help="maximum leaf count")
    p_check.add_argument("--gen-m", type=int, default=13, help="labels drawn from [0, m-1]")
    p_check.add_argument("--gen-arity", default="binary", help="'binary' or a maximum arity")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--budget", type=int, default=None, help="oracle evaluation budget")
    p_check.add_argument("--verbose", action="store_true", help="one line per instance")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="emit random instances")
    p_gen.add_argument("--n", type=int, required=True, help="leaf count")
    p_gen.add_argument("--count", type=int, default=1, help="number of instances")
    p_gen.add_argument("--lo", type=int, default=0, help="smallest leaf label")
    p_gen.add_argument("--hi", type=int, default=9, help="largest leaf label")
    p_gen.add_argument("--arity", default="binary", help="'binary' or a maximum arity")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time solvers over an (n, m) grid")
    p_bench.add_argument("--algorithms", default="dp,interval", help="comma list: dp,interval,oracle")
    p_bench.add_argument("--n-grid", required=True, help="comma list of leaf counts")
    p_bench.add_argument("--m-grid", required=True, help="comma list of label range sizes")
    p_bench.add_argument("--reps", type=int, default=5, help="timed repetitions (>= 5)")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--budget", type=int, default=None, help="oracle evaluation budget")
    add_cost(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 2
    except TreeLabelError as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error:ValueError:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:IO:{exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
