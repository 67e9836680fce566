#!/usr/bin/env python3
"""Time `b1` at the size-bound edge of each space, end to end.

Runs ``python -m braidhom b1`` at the largest strand count the size
bound admits for ``genus:2`` (n = 258), ``genus:1`` (n = 316) and the
sphere (n = 447), each run in a fresh process on the ``src`` tree of
this checkout, five runs per argv, and prints per argv the median wall
time from spawn to exit and the median peak RSS of the child itself
(``os.wait4``):

    python3 scripts/b1_edges.py

A run that exits nonzero stops the script with its stderr and status 1.
"""

import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

EDGES = (("genus:2", 258), ("genus:1", 316), ("sphere", 447))
REPEAT = 5


def run_once(argv, env):
    """(wall seconds, peak RSS in MiB) of one child running ``argv``."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            err.seek(0)
            sys.stderr.write(err.read().decode())
            sys.exit("%s exited %d" % (" ".join(argv), child.returncode))
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    for space, n in EDGES:
        argv = [sys.executable, "-m", "braidhom", "b1", "--space", space, "--n", str(n)]
        runs = [run_once(argv, env) for _ in range(REPEAT)]
        print("%-28s %7.3f s %7.1f MiB" % (
            "b1 --space %s --n %d" % (space, n),
            statistics.median(w for w, _ in runs),
            statistics.median(r for _, r in runs),
        ))


if __name__ == "__main__":
    main()
