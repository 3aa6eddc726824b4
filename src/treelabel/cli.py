"""Command-line front end.

Subcommands:

  solve   label one tree (Newick in, annotated Newick or JSON out)
  check   cross-check dp / interval / oracle / convex / median agreement over many instances
  gen     emit random instances as Newick lines
  bench   time solvers over an (n, m) grid, CSV out

Which solver applies is decided only in solve.py: solve resolves it once,
for scalar and tuple input alike, and rejects a mismatched dump flag before
solving; check runs solve_scalar per solver and skips inapplicable ones;
bench times solve_scalar per algorithm, so an inapplicable one fails it.

Exit codes: 0 success; 1 parse or validation failure; 2 solver
precondition failure (oracle budget, unsupported combinations such as a
non-Manhattan cost for the interval or median solver); 3 check found a
disagreement. Every failure prints a single diagnostic line
"error:<code>:<message>" to stderr. Identical input, flags and seed
reproduce identical stdout bytes (timings in bench output excepted).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import statistics
import sys
import time

from .costs import CostFunction
from .dp import cost_table_csv
from .errors import (
    BudgetExceeded,
    TreeLabelError,
    TupleDecompositionNotMonotone,
    UnsupportedAlgorithm,
)
from .generate import random_document
from .intervals import TIES as INTERVAL_TIES
from .intervals import interval_csv
from .newick import (
    document_to_newick,
    parse_newick,
    parse_newick_tuples,
    serialize_labeled,
    serialize_tuple_labeled,
)
from .oracle import resolve_budget
from .solve import (
    ALGORITHMS,
    INTERVAL_ALGORITHMS,
    TABLE_ALGORITHMS,
    choose_algorithm,
    solve_scalar,
)
from .tuples import solve_ktuple

_PRECONDITION_ERRORS = (
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
    cost = CostFunction.from_spec(args.cost)

    if args.tuple:
        if args.dump_table or args.dump_intervals:
            raise UnsupportedAlgorithm("dump flags are not available in tuple mode")
        doc = parse_newick_tuples(text)
        serialize = serialize_tuple_labeled
    else:
        doc = parse_newick(text)
        serialize = serialize_labeled

    resolved = choose_algorithm(args.algorithm, doc.tree, cost)
    if args.dump_table and resolved not in TABLE_ALGORITHMS:
        raise UnsupportedAlgorithm(
            f"--dump-table requires an algorithm with a cost table "
            f"({', '.join(TABLE_ALGORITHMS)}), got {resolved}"
        )
    if args.dump_intervals and resolved not in INTERVAL_ALGORITHMS:
        raise UnsupportedAlgorithm(
            f"--dump-intervals requires an algorithm with intervals "
            f"({', '.join(INTERVAL_ALGORITHMS)}), got {resolved}"
        )

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
        if args.tuple:
            tuples = doc.leaf_labels.labels.values()
            g_min, g_max = min(map(min, tuples)), max(map(max, tuples))
        else:
            g_min, g_max = doc.leaf_labels.g_min, doc.leaf_labels.g_max
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
        lines = (line.strip() for line in text.splitlines())
        return [parse_newick(line) for line in lines if line]
    if args.seed is None:
        raise ValueError("check without an input file needs --seed for generation")
    rng = random.Random(args.seed)
    docs = []
    for _ in range(args.gen_count):
        n = rng.randint(2, max(2, args.gen_n))
        docs.append(
            random_document(
                n, 0, args.gen_m - 1, rng,
                arity=args.gen_arity if args.gen_arity == "binary" else int(args.gen_arity),
            )
        )
    return docs


# the solvers check runs, in the order of its verbose report
_CHECKED = ("dp", "interval", "oracle", "convex", "median")
# median reproduces convex's tie rule, so check compares their labelings
# too; every other pair may break ties differently and compares costs only
_SAME_LABELS = ("median", "convex")


def cmd_check(args: argparse.Namespace) -> int:
    cost = CostFunction.from_spec(args.cost)
    docs = _check_instances(args)
    budget = resolve_budget(args.budget)

    pair_stats = {
        ("dp", "interval"): [0, 0],  # [compared, agreed]
        ("dp", "oracle"): [0, 0],
        ("interval", "oracle"): [0, 0],
        ("dp", "convex"): [0, 0],
        ("convex", "oracle"): [0, 0],
        _SAME_LABELS: [0, 0],
    }
    failures = []

    for doc in docs:
        labelings = {}
        for name in _CHECKED:
            try:
                _, labeling, _ = solve_scalar(
                    doc.tree, doc.leaf_labels, cost, algorithm=name, budget=budget
                )
            except (UnsupportedAlgorithm, BudgetExceeded):
                continue  # this solver does not apply to the instance
            labelings[name] = labeling
        costs = {name: labeling.total_cost for name, labeling in labelings.items()}

        disagreed = []
        for (a, b), stats in pair_stats.items():
            if a in costs and b in costs:
                stats[0] += 1
                same_labels = (a, b) != _SAME_LABELS or labelings[a] == labelings[b]
                if costs[a] == costs[b] and same_labels:
                    stats[1] += 1
                else:
                    disagreed.append(f"{a} vs {b}")
        newick = document_to_newick(doc)
        if disagreed:
            failures.append((doc.tree.node_count, len(newick), newick, costs, disagreed))
        if args.verbose:
            report = " ".join(f"{name}={costs[name]}" for name in _CHECKED if name in costs)
            print(f"{newick}\t{report}")

    print(f"instances: {len(docs)}")
    for (a, b), (compared, agreed) in pair_stats.items():
        print(f"{a} vs {b}: {agreed}/{compared} agree")
    if failures:
        failures.sort()
        _, _, newick, costs, disagreed = failures[0]
        report = " ".join(f"{name}={value}" for name, value in sorted(costs.items()))
        print("result: DISAGREEMENT")
        print(
            f"error:CheckDisagreement:{newick} ({report}; {', '.join(disagreed)} disagree)",
            file=sys.stderr,
        )
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
    for _ in range(args.count):
        doc = random_document(args.n, args.lo, args.hi, rng, arity=arity)
        print(document_to_newick(doc))
    return 0


# ------------------------------------------------------------------ #
# bench                                                               #
# ------------------------------------------------------------------ #

def cmd_bench(args: argparse.Namespace) -> int:
    cost = CostFunction.from_spec(args.cost)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    n_grid = [int(x) for x in args.n_grid.split(",")]
    m_grid = [int(x) for x in args.m_grid.split(",")]
    reps = args.reps
    if reps < 5:
        raise ValueError(f"bench needs at least 5 repetitions, got {reps}")

    print("algorithm,N,m,repetitions,median_ns")
    # Every cell is built and warmed up before any is timed, and the timed
    # repetitions go round-robin over the cells, so a drift in machine load
    # during the run spreads over all cells instead of landing between two.
    cells = []
    for n in n_grid:
        for m in m_grid:
            # one instance per grid point, shared by all algorithms
            rng = random.Random(f"{args.seed}:{n}:{m}")
            doc = random_document(n, 0, m - 1, rng, arity="binary")
            for name in algorithms:
                run = functools.partial(
                    solve_scalar, doc.tree, doc.leaf_labels, cost,
                    algorithm=name, budget=args.budget,
                )
                run()  # warmup
                cells.append((name, doc, run, []))
    for _ in range(reps):
        for _, _, run, times in cells:
            start = time.perf_counter_ns()
            run()
            times.append(time.perf_counter_ns() - start)
    for name, doc, _, times in cells:
        median_ns = int(statistics.median(times))
        print(f"{name},{doc.tree.node_count},{doc.leaf_labels.m},{reps},{median_ns}")
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
    p_solve.add_argument("--algorithm", default="auto", choices=ALGORITHMS)
    add_cost(p_solve)
    # the interval solver's tie rules include every other solver's
    p_solve.add_argument("--tie", default="lowest", choices=INTERVAL_TIES)
    p_solve.add_argument("--format", default="newick", choices=["newick", "json"])
    p_solve.add_argument("--tuple", action="store_true", help="leaf names are a|b|c tuples")
    p_solve.add_argument(
        "--dump-table", metavar="PATH", help="write the dp or convex cost table as CSV"
    )
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
    p_bench.add_argument(
        "--algorithms", default="dp,interval",
        help="comma list: dp,convex,interval,median,oracle",
    )
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
