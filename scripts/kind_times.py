#!/usr/bin/env python3
"""Time each operation kind of one benchmark plan, in process.

Builds the plan of one ``perfbench/workloads.py`` workload at one seed,
writing its input files to a temporary directory, and runs every
operation of the plan (prologue and pool rounds, in plan order) through
``braidhom.cli.main`` in this process, five passes over the whole plan.
Each operation keeps the least of its five times; per operation kind it
prints the number of operations and the mean of those minima in
microseconds, then one JSON object with the same table:

    python3 scripts/kind_times.py --workload fields --seed 1

Caches stay warm across passes, as they do in a benchmark run, so the
minima are steady-state times.  The checks of ``perfbench/oracles.py``
are not run; an operation that exits nonzero is counted under
``failed``.  Nothing under ``perfbench/`` is written.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from braidhom import cli  # noqa: E402

PASSES = 5


def plan_ops(name, seed, workdir):
    builders = {
        "jumploci": lambda: workloads.jumploci(seed, workdir, workloads.JumpOracle({})),
        "fragments": lambda: workloads.fragments(seed, workdir, workloads.SphereOracle()),
        "fields": lambda: workloads.fields(seed, workdir),
    }
    plan = builders[name]()
    return plan.prologue + [op for ops in plan.rounds for op in ops]


def timed(argv):
    """(seconds, exit code) of one in-process CLI call."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return time.perf_counter() - start, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("jumploci", "fragments", "fields"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        ops = plan_ops(args.workload, args.seed, workdir)
        best = [float("inf")] * len(ops)
        failed = [False] * len(ops)
        for _ in range(PASSES):
            for i, op in enumerate(ops):
                dt, code = timed(op.argv)
                best[i] = min(best[i], dt)
                failed[i] |= code != 0
    table = {}
    for op, dt, bad in zip(ops, best, failed):
        row = table.setdefault(op.kind, {"ops": 0, "failed": 0, "total": 0.0})
        row["ops"] += 1
        row["failed"] += bad
        row["total"] += dt
    out = {}
    for kind in sorted(table):
        row = table[kind]
        out[kind] = {"ops": row["ops"], "failed": row["failed"],
                     "min_of_%d_mean_us" % PASSES: round(1e6 * row["total"] / row["ops"], 1)}
        print("%-22s %5d ops  %10.1f us" % (kind, row["ops"], 1e6 * row["total"] / row["ops"]))
    total = sum(best)
    print("%-22s %5d ops  %10.1f us" % ("all", len(ops), 1e6 * total / len(ops)))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": PASSES,
                      "per_kind": out, "mean_us": round(1e6 * total / len(ops), 1)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
