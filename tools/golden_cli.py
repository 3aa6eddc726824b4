"""Record or replay the byte-identity corpus of the command line.

    PYTHONPATH=src python tools/golden_cli.py [--check]

Writes tests/golden_cli.json: one sha256 per named case, a case being the
text on stdin and an argv for ``treelabel``. The hash covers the exit
code, stdout and stderr of ``cli.main`` run in-process and the file a
``--dump`` wrote, if any. With --check it writes nothing: it replays
every case, prints the name of each one whose hash moved (or that only
one side has) and exits 1 if there is any. tests/test_golden_cli.py
calls the same replay, and runs a few named cases through a fresh
``python -m treelabel.cli`` under the same hash rule (``digest``);
--check needs no pytest, so it runs under any supported interpreter.

The instances are small, so a replay takes about a second: ``gen``
batches of at most 6 leaves (binary, arity 3 and 4, signed labels), a
single node, unary chains and k-tuple trees. Every scalar instance is
solved by every algorithm with every tie rule and format under four
costs: manhattan, power:2, a convex table and a non-convex one. The
oracle runs under a budget of BUDGET assignments, so it solves some
instances and refuses the others. Further cases cover ``--dump``,
``--tuple`` (a crossing decomposition included), ``check`` with and
without ``--verbose``, ``gen`` itself, malformed input, leaf names over
CPython's default limit of 4300 digits and a solve that runs out of
memory (its solver patched to raise MemoryError).

Record only for a deliberate change of output, and name that change in
CHANGES.md: a recording made on changed code would pin the change.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator
from unittest import mock

from treelabel import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_cli.json"

# the oracle's budget while the corpus runs
BUDGET = "2000"
# stands for the path of the case's --dump file
DUMP = "<dump>"

# each cost spec by the short name that case names use for it
COSTS = {
    "manhattan": "manhattan",
    "power:2": "power:2",
    "convex-table": "table:0,1,3,6,10,15,21,28,36,45,55,66",
    "non-convex-table": "table:0,1,10,11,30,31,60,61,100,101,150,151",
}
ALGORITHMS = ("auto", "dp", "interval", "median", "convex", "oracle")
TIES = ("lowest", "highest", "midpoint")
FORMATS = ("newick", "json")

# name and argv of each gen batch whose lines are instances
BATCHES = (
    ("binary", ["gen", "--n", "5", "--count", "3", "--seed", "1"]),
    ("arity3", ["gen", "--n", "6", "--count", "2", "--seed", "2", "--arity", "3"]),
    ("arity4", ["gen", "--n", "6", "--count", "2", "--seed", "3", "--arity", "4"]),
    ("signed", ["gen", "--n", "5", "--count", "2", "--seed", "4", "--arity", "3",
                "--lo", "-4", "--hi", "4"]),
)
# instances written out, each a single line of Newick text
TREES = (
    ("single", "7;"),
    ("unary", "(((2)),(5,(1)));"),
    ("chain", "((((-3))));"),
    ("bom", "\ufeff((1,5),9);"),
)
TUPLE_TREES = (
    ("pair", "(1|4,3|8);"),
    ("triples", "((1|2|3,2|5|9),(0|0|4,7|8|8),3|3|3);"),
    # the decomposition crosses under the non-convex table: exit 2
    ("crossing", "(2|2,(5|6,3|8,4|5));"),
    # signed and zero-padded components
    ("signed", "(-3|+2,(+4|05,-0|0));"),
)
MALFORMED = (
    ("blank", ""),
    ("no-terminator", "((1,2),3)"),
    ("unbalanced-open", "((1,2),3;"),
    ("unbalanced-close", "(1,2));"),
    ("comma-outside", "1,2;"),
    ("letters", "(1,a);"),
    ("quoted", "('1',2);"),
    ("after-terminator", "(1,2); (3,4);"),
    ("bad-tuple", "(1|x,2|3);"),
    # a decimal digit outside ASCII, in a scalar name and in a component
    ("non-ascii-digit", "(١|2,3|4);"),
)
# other errors the command line reports, each a single case
ERRORS = (
    ("short-table", "((0,9),4);", ["solve", "-", "--cost", "table:0,1,2"]),
    ("bad-cost", "((0,9),4);", ["solve", "-", "--cost", "power:x"]),
    ("tuple-length", "(1|2,3);", ["solve", "-", "--tuple"]),
    ("tuple-decreasing", "(2|1,3|4);", ["solve", "-", "--tuple"]),
    # signed components that decrease: (1, 0)
    ("tuple-signed-decreasing", "(+1|-0,3|4);", ["solve", "-", "--tuple"]),
    # mixed k and a decreasing tuple: the lower leaf id's error is reported
    ("tuple-decreasing-before-length", "(1|2,(3|1,5));", ["solve", "-", "--tuple"]),
    ("tuple-length-before-decreasing", "(1|2,(3,2|1));", ["solve", "-", "--tuple"]),
    ("tuple-dump", "(1|4,3|8);", ["solve", "-", "--tuple", "--dump", DUMP]),
    # stdout carries the tree, so the dump refuses "-"
    ("dump-dash", "(1,2,3);", ["solve", "-", "--algorithm", "interval", "--dump", "-"]),
    ("gen-no-leaf", "", ["gen", "--n", "0", "--seed", "1"]),
    ("gen-empty-range", "", ["gen", "--n", "3", "--seed", "1", "--lo", "2", "--hi", "1"]),
    ("gen-arity", "", ["gen", "--n", "3", "--seed", "1", "--arity", "1"]),
    ("check-empty", "\n\n", ["check"]),
    # a solver error names its line, as a parse error does
    ("check-solver-error-line", "(0,1);\n(0,9);\n", ["check", "--cost", "table:0,1,2"]),
    # names of one digit more than CPython's default int conversion limit
    ("digit-limit", f"({'1' * 4301},2);", ["solve", "-"]),
    ("digit-limit-tuple", f"(1|{'1' * 4301},2|3);", ["solve", "-", "--tuple"]),
    # a name over the limit before a bad name: the first in breadth-first
    # order is reported
    ("digit-limit-before-bad-name", f"({'1' * 4301},x);", ["solve", "-"]),
    ("digit-limit-before-bad-name-tuple", f"(1|{'1' * 4301},2|x);", ["solve", "-", "--tuple"]),
)
# cases whose named function raises MemoryError instead of running, so
# that no replay allocates what would exhaust memory
OUT_OF_MEMORY = (
    ("out-of-memory", "(0,10000000,5);", ["solve", "-", "--cost", "power:2"],
     "treelabel.dp.convex_up"),
)


def digest(code: int, out: str, err: str, dump: Path) -> str:
    """The sha256 a case records: its exit code, stdout, stderr and ``dump``'s bytes, if any."""
    hashed = hashlib.sha256(f"{code}\0{out}\0{err}\0".encode())
    if dump.exists():
        hashed.update(dump.read_bytes())
    return hashed.hexdigest()


def run(stdin: str, argv: list[str], scratch: Path) -> str:
    """The sha256 of one in-process ``cli.main`` call and its dump file."""
    dump = scratch / "dump.csv"
    dump.unlink(missing_ok=True)
    argv = [str(dump) if word == DUMP else word for word in argv]
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return digest(code, out.getvalue(), err.getvalue(), dump)


def _output(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def cases() -> Iterator[tuple[str, str, list[str]]]:
    """(name, stdin, argv) of every case, in a fixed order."""
    trees = list(TREES)
    for batch, argv in BATCHES:
        yield " ".join(argv), "", argv
        text = _output(argv)
        trees += [(f"{batch}.{i}", line) for i, line in enumerate(text.splitlines())]
        for cost, spec in COSTS.items():
            for flags in ([], ["--verbose"]):
                check = ["check", "--cost", spec, *flags]
                yield f"{batch} check {' '.join([cost, *flags])}", text, check

    solves = [
        (f"{cost} {algorithm} {tie} {fmt}",
         ["--cost", spec, "--algorithm", algorithm, "--tie", tie, "--format", fmt])
        for cost, spec in COSTS.items()
        for algorithm in ALGORITHMS
        for tie in TIES
        for fmt in FORMATS
    ]
    dumps = [
        (f"{cost} {algorithm} --dump", ["--cost", cost, "--algorithm", algorithm, "--dump", DUMP])
        for cost in ("manhattan", "power:2")
        for algorithm in ALGORITHMS
    ]
    for name, text in trees:
        for flags, argv in solves + dumps:
            yield f"{name} solve {flags}", text, ["solve", "-", *argv]
    for name, text in TUPLE_TREES:
        for flags, argv in solves:
            yield f"{name} solve --tuple {flags}", text, ["solve", "-", "--tuple", *argv]
    for name, text in MALFORMED:
        for argv in (["solve", "-"], ["solve", "-", "--tuple"], ["check"]):
            yield f"{name} {' '.join(argv)}", text, argv
    yield from ERRORS


def record(scratch: Path) -> dict[str, str]:
    """The sha256 of every case, by name."""
    hashes = {}
    for name, stdin, argv in cases():
        assert name not in hashes, name
        hashes[name] = run(stdin, argv, scratch)
    for name, stdin, argv, target in OUT_OF_MEMORY:
        with mock.patch(target, side_effect=MemoryError):
            hashes[name] = run(stdin, argv, scratch)
    return hashes


def moved(scratch: Path) -> list[str]:
    """The names of the cases whose replay differs from tests/golden_cli.json.

    A case that only the corpus or only the replay has counts as moved.
    """
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    replayed = record(scratch)
    return [name for name in {**recorded, **replayed} if recorded.get(name) != replayed.get(name)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record or replay the command-line corpus.")
    parser.add_argument("--check", action="store_true", help="replay only, writing nothing")
    args = parser.parse_args()
    os.environ["TREELABEL_BUDGET"] = BUDGET
    with tempfile.TemporaryDirectory() as scratch:
        if args.check:
            names = moved(Path(scratch))
            print("\n".join(names + [f"{len(names)} cases moved"]))
            sys.exit(1 if names else 0)
        table = record(Path(scratch))
    GOLDEN.write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")
    print(f"{len(table)} cases -> {GOLDEN}")
