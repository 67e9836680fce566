"""braidhom benchmark: one CLI subcommand per operation, run in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload jumploci --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A single workload runs in this process as a closed loop with one
client: each operation is ``braidhom.cli.main(argv)`` with stdout
captured and parsed inside the timed region, then checked against an
independent route outside it.  Whole rounds of operations run, and the
run stops at the round boundary nearest to ``--seconds``.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--workload all`` runs every workload in its own fresh
process, one after another, and with ``--trace 1`` also a traced run of
each, from which it reports the tracing overhead.  The last line of stdout is one JSON object; a record
of each run is written under ``perfbench/out/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def git_sha():
    """HEAD of the checkout from .git, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def import_cli():
    """Import braidhom.cli fresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "braidhom" or m.startswith("braidhom.")]:
        del sys.modules[name]
    import braidhom.cli as cli

    return cli


def run_op(cli, op):
    """Run one operation; returns (seconds, parsed output or None, error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        parsed = json.loads(out.getvalue()) if rc == 0 else None
        error = None if rc == 0 else "exit %r: %s" % (rc, err.getvalue().strip()[:200])
    except SystemExit as exc:
        parsed, error = None, "exit %r: %s" % (exc.code, err.getvalue().strip()[:200])
    except Exception as exc:  # a crash is a failed operation, recorded with its cause
        parsed, error = None, "%s: %s" % (type(exc).__name__, exc)
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - t0, parsed, error


def quantile(values, q):
    """The q-th of 100 quantiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_workload(name, seed, seconds, trace):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "braidhom", "cli.py")):
        sys.stderr.write("error: no braidhom sources under %s\n" % src)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import oracles
    import workloads
    from tracing import Tracer, layer_metrics

    workdir = os.path.join(OUT, "work-%s-%d" % (name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    sphere = workloads.SphereOracle()
    jump = workloads.JumpOracle({})
    builders = {
        "jumploci": lambda: workloads.jumploci(seed, workdir, jump),
        "fragments": lambda: workloads.fragments(seed, workdir, sphere),
        "fields": lambda: workloads.fields(seed, workdir),
    }
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        cli = import_cli()
        plan = builders[name]()
        setup_times.append(time.perf_counter() - t0)
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write("error: braidhom imported from %s, not the checkout\n" % cli.__file__)
        return 2

    # independent routes and their self tests, outside every timed region
    catalog = sys.modules["braidhom.presentations"].catalog
    jump.pres.update(workloads.jumploci_oracle(catalog, os.path.join(ROOT, "data")))
    try:
        oracles.self_test(jump.pres)
        checks_ok = True
    except AssertionError as exc:
        sys.stderr.write("error: an output check failed its self test: %s\n" % exc)
        checks_ok = False

    tracer = Tracer()
    span_cost = 0.0
    if trace:
        tracer.install()
        span_cost = tracer.calibrate()

    times, kinds = [], []
    by_kind = {}
    examples = []
    unexpected = []
    slowest = []

    def execute(op):
        tracer.op_id = len(times) if trace else None
        dt, parsed, error = run_op(cli, op)
        tracer.op_id = None
        if error is None:
            error = op.check(parsed)
        times.append(dt)
        kinds.append(op.kind)
        slowest.append((dt, op.kind, op.argv))
        if len(slowest) > 40:
            slowest.sort(key=lambda x: -x[0])
            del slowest[10:]
        stat = by_kind.setdefault(op.kind, {"attempted": 0, "failed": 0})
        stat["attempted"] += 1
        if error is not None:
            stat["failed"] += 1
            if not op.known_fault:
                unexpected.append(op.kind)
            if len(examples) < 10:
                examples.append({"kind": op.kind, "argv": op.argv, "reason": error})

    start = time.perf_counter()
    for op in plan.prologue:
        execute(op)
    loop_start = time.perf_counter()
    rounds = 0
    while True:
        for op in plan.rounds[rounds % len(plan.rounds)]:
            execute(op)
        rounds += 1
        # stop at the round boundary nearest to --seconds, so that a run
        # of long rounds lasts --seconds on average rather than overrunning
        now = time.perf_counter()
        if now - start + 0.5 * (now - loop_start) / rounds >= seconds:
            break
    wall = time.perf_counter() - start

    attempted = len(times)
    failed = sum(s["failed"] for s in by_kind.values())
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "wall_s": wall,
        "rounds": rounds,
        "pool_rounds": len(plan.rounds),
        "attempted": attempted,
        "failed": failed,
        "by_kind": by_kind,
        "failure_examples": examples,
        "unexpected_failures": len(unexpected),
        "op_time_s": sum(times),
        "slowest_ops": [{"ms": 1000 * dt, "kind": k, "argv": a}
                        for dt, k, a in sorted(slowest, key=lambda x: -x[0])[:10]],
        "setup_runs_s": setup_times,
    }
    record.update(environment(seed))
    if trace:
        metrics = layer_metrics(tracer, range(attempted), span_cost)
        per_kind = {}
        for kind in sorted(by_kind):
            ids = [i for i, k in enumerate(kinds) if k == kind]
            per_kind[kind] = {m: v["value"] for m, v in layer_metrics(tracer, ids, span_cost).items()}
        record["per_kind"] = per_kind
        record["wrapped"] = tracer.wrapped
        record["unwrapped"] = tracer.missing
        record["span_cost_s"] = span_cost
    else:
        # the prologue runs once per process: it counts in ops_per_s, but
        # the percentiles are over the repeated rounds only, so that they
        # do not depend on how many rounds a run holds
        repeated = times[len(plan.prologue):]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": attempted / sum(times),
            "op_p50_ms": 1000 * quantile(repeated, 50),
            "op_p90_ms": 1000 * quantile(repeated, 90),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
        per_kind = {}
        for kind in sorted(by_kind):
            ts = sorted(t for t, k in zip(times, kinds) if k == kind)
            per_kind[kind] = {"ops": len(ts), "op_p50_ms": 1000 * quantile(ts, 50),
                              "op_mean_ms": 1000 * sum(ts) / len(ts)}
        record["per_kind"] = per_kind
        record["op_times_s"] = times
    record["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (name, seed, trace))
    if trace:
        tracer.dump(os.path.join(OUT, "%s.spans.jsonl.gz" % name), kinds)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(workdir)

    # the fixed c-star block may fail (a known fault); any other failure
    # means an output the checks rejected
    print(json.dumps({
        "correct": checks_ok and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in a fresh process, one at a time."""
    summary = {}
    for name in ("jumploci", "fragments", "fields"):
        for t in (0, 1) if trace else (0,):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stderr.write("error: workload %s (trace %d) exited %d\n" % (name, t, proc.returncode))
                return proc.returncode
            with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (name, seed, t)), encoding="utf-8") as fh:
                summary.setdefault(name, {})[t] = json.load(fh)
    rows = []
    result = {"environment": environment(seed), "workloads": {}}
    for name, runs in summary.items():
        plain = runs[0]
        entry = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "by_kind": plain["by_kind"],
            "metrics": plain["metrics"],
        }
        for metric, unit in END_TO_END:
            rows.append("%-10s %-13s %14.4f %s" % (name, metric, plain["metrics"][metric]["value"], unit))
        rows.append("%-10s %-13s %14d of %d attempted" % (name, "failed", plain["failed"], plain["attempted"]))
        if 1 in runs:
            traced = runs[1]
            untraced_ms = 1000 * plain["op_time_s"] / plain["attempted"]
            traced_ms = 1000 * traced["op_time_s"] / traced["attempted"]
            entry["trace_overhead_ms_per_op"] = traced_ms - untraced_ms
            entry["trace_overhead_share"] = (traced_ms - untraced_ms) / untraced_ms
            entry["per_layer"] = traced["metrics"]
            rows.append("%-10s %-13s %14.4f ms/op (%.1f%%)" % (
                name, "trace_ovh", traced_ms - untraced_ms, 100 * entry["trace_overhead_share"]))
        result["workloads"][name] = entry
    with open(os.path.join(OUT, "all-seed%d.json" % seed), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("\n".join(rows))
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("jumploci", "fragments", "fields", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
