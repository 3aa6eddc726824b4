"""Command-line front end.

Subcommands:

  solve   label one tree (Newick in, annotated Newick or JSON out)
  check   cross-check dp / interval / oracle / convex / median agreement over
          Newick lines, one tree each, from a file or stdin
  gen     emit random instances as Newick lines
  bench   time solvers over an (n, m) grid, CSV out

gen is the one instance generator: "treelabel gen ... | treelabel check"
cross-checks a seeded random batch, and check refuses an input that
holds no tree (exit 1), so a failed gen never reads as agreement. A
line check cannot parse or solve fails it with its own error class and
exit code, the message starting "line N: " for its 1-based line, blank
lines counted; only a solver that does not apply (UnsupportedAlgorithm,
BudgetExceeded) is skipped instead. Input
read from a file or stdin may start with a UTF-8 byte-order mark, which
is dropped before parsing.

Which solver applies is decided only in solve.py: solve resolves it once,
for scalar and tuple input alike, and --dump writes the CSV of the up
phase that solver built, a cost table or intervals, each record writing
its own; only the oracle and tuple mode have none. --dump takes a file
path, "-" not included since stdout carries the tree. Every --dump
conflict that argv alone decides is refused before any input is read, in
this order: "-", then --tuple, then --algorithm oracle (auto never
resolves to the oracle). check runs solve_scalar per
solver and skips inapplicable ones; bench times solve_scalar per
algorithm, so an inapplicable one fails it.

A command imports what only it needs where it needs it (the generator
in gen and bench, the k-tuple solver under --tuple, json under --format
json), as solve_scalar does for dp.py and the oracle, so a cold start
compiles only the modules its command reaches: a Manhattan --dump loads
no dp.py.

Exit codes: 0 success; 1 parse or validation failure; 2 solver
precondition failure (oracle budget, unsupported combinations such as a
non-Manhattan cost for the interval or median solver); 3 check found a
disagreement; 4 out of memory (a MemoryError, such as a cost table over
a huge label span). A TreeLabelError's code is its class's exit_code.
Every failure prints a single diagnostic line "error:<code>:<message>"
to stderr. Identical input, flags and seed reproduce identical stdout
bytes (timings in bench output excepted).
"""

from __future__ import annotations

import argparse
import sys

from .costs import CostFunction, LeafLabeling, node_values
from .errors import DEFAULT_BUDGET, BudgetExceeded, EmptyTree, TreeLabelError, UnsupportedAlgorithm
from .intervals import TIES as INTERVAL_TIES
from .newick import (
    document_to_newick,
    parse_newick,
    parse_newick_tuples,
    serialize_labeled,
    serialize_tuple_labeled,
)
from .solve import ALGORITHMS, choose_algorithm, solve_scalar

# CPython (3.11, 3.10.7 and later) refuses to print an int of more than
# 4300 digits by default. The guard stays on while input is parsed and is
# lifted once it is read, so an exact cost of any size prints; main
# restores the caller's limit. Older interpreters have no such guard.
_get_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_str_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _read_input(path: str) -> str:
    """The text of a file, or of stdin for "-", without a leading byte-order mark."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------------ #
# solve                                                               #
# ------------------------------------------------------------------ #

def cmd_solve(args: argparse.Namespace) -> int:
    if args.dump == "-":
        raise ValueError("--dump takes a file path, not '-': stdout carries the tree")
    if args.dump and args.tuple:
        raise UnsupportedAlgorithm("--dump is not available in tuple mode")
    if args.dump and args.algorithm == "oracle":
        raise UnsupportedAlgorithm("--dump is not available for the oracle, which has no up phase")
    text = _read_input(args.input)
    cost = CostFunction.from_spec(args.cost)

    if args.tuple:
        doc = parse_newick_tuples(text)
        serialize = serialize_tuple_labeled
    else:
        doc = parse_newick(text)
        serialize = serialize_labeled
    _set_str_digits(0)  # the input is read

    resolved = choose_algorithm(args.algorithm, doc.tree, cost, args.tie)

    if args.tuple:
        from .tuples import solve_ktuple

        labeling = solve_ktuple(doc.tree, doc.leaf_labels, cost, algorithm=resolved, tie=args.tie)
    else:
        _, labeling, up_phase = solve_scalar(
            doc.tree, doc.leaf_labels, cost, algorithm=resolved, tie=args.tie
        )
        if args.dump:
            _write_file(args.dump, up_phase.csv())

    if args.format == "newick":
        print(serialize(doc, labeling))
    else:
        import json  # only this branch needs it, so a cold start skips it

        if args.tuple:
            tuples = doc.leaf_labels.labels.values()
            g_min, g_max = min(map(min, tuples)), max(map(max, tuples))
        else:
            g_min, g_max = doc.leaf_labels.g_min, doc.leaf_labels.g_max
        payload = {
            "cost": labeling.total_cost,
            "labels": {str(v): x for v, x in enumerate(node_values(doc.tree, labeling))},
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

# the solvers check runs, in the order of its verbose report
_CHECKED = ("dp", "interval", "oracle", "convex", "median")
# median reproduces convex's tie rule, so check compares their labelings
# too; every other pair may break ties differently and compares costs only
_SAME_LABELS = ("median", "convex")


def _on_line(number: int, exc: TreeLabelError) -> TreeLabelError:
    """``exc`` with "line <number>: " before its message, keeping its class and exit code.

    ``number`` is the 1-based line of check's input the error is about.
    """
    exc.args = (f"line {number}: {exc}",)
    return exc


def cmd_check(args: argparse.Namespace) -> int:
    cost = CostFunction.from_spec(args.cost)
    docs = []  # (line number, document), blank lines counted
    for number, line in enumerate(_read_input(args.input).splitlines(), 1):
        line = line.strip()
        if line:
            try:
                docs.append((number, parse_newick(line)))
            except TreeLabelError as exc:
                raise _on_line(number, exc)
    if not docs:
        raise EmptyTree("no tree in the input")
    _set_str_digits(0)  # the input is read

    pair_stats = {
        ("dp", "interval"): [0, 0],  # [compared, agreed]
        ("dp", "oracle"): [0, 0],
        ("interval", "oracle"): [0, 0],
        ("dp", "convex"): [0, 0],
        ("convex", "oracle"): [0, 0],
        _SAME_LABELS: [0, 0],
    }
    failures = []

    for number, doc in docs:
        labelings = {}
        for name in _CHECKED:
            try:
                _, labeling, _ = solve_scalar(doc.tree, doc.leaf_labels, cost, algorithm=name)
            except (UnsupportedAlgorithm, BudgetExceeded):
                continue  # this solver does not apply to the instance
            except TreeLabelError as exc:
                raise _on_line(number, exc)
            labelings[name] = labeling
        costs = {name: labeling.total_cost for name, labeling in labelings.items()}

        disagreed = []
        for (a, b), stats in pair_stats.items():
            if a in costs and b in costs:
                stats[0] += 1
                same_labels = (
                    (a, b) != _SAME_LABELS or labelings[a].values == labelings[b].values
                )
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
    import random

    from .generate import random_document

    if args.lo > args.hi:
        raise ValueError(f"empty label range [{args.lo}, {args.hi}]")
    if args.count < 1:
        raise ValueError(f"--count takes a positive integer, got {args.count}")
    rng = random.Random(args.seed)
    arity = args.arity
    if arity != "binary":
        try:
            arity = int(arity)
        except ValueError:
            raise ValueError(
                f"--arity takes 'binary' or an integer >= 2, got {arity!r}"
            ) from None
    for _ in range(args.count):
        doc = random_document(args.n, args.lo, args.hi, rng, arity=arity)
        print(document_to_newick(doc))
    return 0


# ------------------------------------------------------------------ #
# bench                                                               #
# ------------------------------------------------------------------ #

def _positive_ints(option: str, text: str) -> list[int]:
    """The entries of a comma-separated option value, each a positive integer."""
    try:
        values = [int(x) for x in text.split(",")]
        if min(values) >= 1:
            return values
    except ValueError:
        pass
    raise ValueError(f"{option} takes a comma-separated list of positive integers, got {text!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    import functools
    import random
    import statistics
    import time

    from .generate import random_document

    cost = CostFunction.from_spec(args.cost)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ValueError(
            f"--algorithms takes a comma-separated list of solver names, got {args.algorithms!r}"
        )
    n_grid = _positive_ints("--n-grid", args.n_grid)
    m_grid = _positive_ints("--m-grid", args.m_grid)
    reps = args.reps
    if reps < 5:
        raise ValueError(f"bench needs at least 5 repetitions, got {reps}")

    # Every cell is built and warmed up before any is timed, and the timed
    # repetitions go round-robin over the cells, so a drift in machine load
    # during the run spreads over all cells instead of landing between two.
    # The header follows the warmup, so a grid that fails prints nothing.
    cells = []
    for n in n_grid:
        for m in m_grid:
            # one instance per grid point, shared by all algorithms
            rng = random.Random(f"{args.seed}:{n}:{m}")
            doc = random_document(n, 0, m - 1, rng, arity="binary")
            # the first and last leaves take the range's ends, so the cell's
            # m is the one asked for (a one-leaf cell has m = 1)
            leaves = doc.tree.leaves()
            labels = {v: doc.leaf_labels.labels[v] for v in leaves}
            labels.update({leaves[0]: 0, leaves[-1]: m - 1})
            doc = doc._replace(leaf_labels=LeafLabeling.for_tree(doc.tree, labels))
            for name in algorithms:
                run = functools.partial(
                    solve_scalar, doc.tree, doc.leaf_labels, cost, algorithm=name
                )
                run()  # warmup
                cells.append((name, doc, run, []))
    print("algorithm,N,m,repetitions,median_ns")
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

    epilog = f"oracle budget: environment variable TREELABEL_BUDGET (default {DEFAULT_BUDGET:,})"

    p_solve = sub.add_parser("solve", help="label one tree", epilog=epilog)
    p_solve.add_argument("input", nargs="?", default="-", help="Newick file or '-' for stdin")
    p_solve.add_argument("--algorithm", default="auto", choices=ALGORITHMS)
    add_cost(p_solve)
    # the interval solver's tie rules include every other solver's
    p_solve.add_argument("--tie", default="lowest", choices=INTERVAL_TIES)
    p_solve.add_argument("--format", default="newick", choices=["newick", "json"])
    p_solve.add_argument("--tuple", action="store_true", help="leaf names are a|b|c tuples")
    p_solve.add_argument(
        "--dump", metavar="PATH",
        help="write the solver's up phase as CSV: the dp or convex cost table, "
        "or the interval or median intervals",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="cross-check solver agreement", epilog=epilog)
    p_check.add_argument(
        "input", nargs="?", default="-", help="file of Newick lines or '-' for stdin"
    )
    add_cost(p_check)
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

    p_bench = sub.add_parser("bench", help="time solvers over an (n, m) grid", epilog=epilog)
    p_bench.add_argument(
        "--algorithms", default="dp,interval",
        help="comma list: dp,convex,interval,median,oracle",
    )
    p_bench.add_argument("--n-grid", required=True, help="comma list of leaf counts")
    p_bench.add_argument("--m-grid", required=True, help="comma list of label range sizes")
    p_bench.add_argument("--reps", type=int, default=5, help="timed repetitions (>= 5)")
    p_bench.add_argument("--seed", type=int, required=True)
    add_cost(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = _get_str_digits()
    try:
        return args.func(args)
    except TreeLabelError as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error:ValueError:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:IO:{exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error:MemoryError:{exc}", file=sys.stderr)
        return 4
    finally:
        _set_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
