"""Record the sha256 of the answer for the shipped seeds of every workload.

    python3 perfbench/record_golden.py --seeds 64

Writes perfbench/golden.json. Each answer passes the output check first.
Record only on the baseline code: byte-identical output is a contract of
the program, so run.py counts any later output whose bytes differ from the
recorded ones as a failed operation.
"""

from __future__ import annotations

import argparse
import json

from checks import check_output, sha256_text
from run import GOLDEN, import_treelabel, lib_op, make_instance
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="record seeds 0..N-1")
    args = parser.parse_args()
    tl = import_treelabel()
    table: dict = {}
    for workload in WORKLOADS:
        for seed in range(args.seeds):
            inst = make_instance(tl, workload, seed, {})
            text, cost = lib_op(tl, inst)
            reason = check_output(inst.ref, text, cost)
            if reason is not None:
                raise SystemExit(f"{workload.name} seed {seed}: {reason}")
            table.setdefault(workload.name, {})[str(seed)] = sha256_text(text)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
