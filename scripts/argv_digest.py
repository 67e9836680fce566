#!/usr/bin/env python3
"""Digest the CLI's answers to every distinct benchmark argv.

Builds the ``jumploci``, ``fragments`` and ``fields`` plans of
``perfbench/workloads.py`` at one seed, writing their input files to a
temporary directory, runs each distinct argv once through
``braidhom.cli.main`` in this process and prints, per workload, the
argv count and one sha256 over (argv, exit code, stdout, stderr) in
plan order.  Every ``functools.lru_cache`` in the ``braidhom`` modules
is cleared before each argv, so the hashed answers are cold answers.
The temporary path is replaced by a placeholder before hashing, so two
checkouts that answer alike print the same lines:

    python3 scripts/argv_digest.py            # seed 1
    python3 scripts/argv_digest.py --seed 7

Then every distinct argv runs a second time, in reverse order, with
the caches the first pass left warm and every ``--option value`` pair
respelled ``--option=value`` (bare flags stay bare), the options and
flags taken from the grammar table ``braidhom.cli.COMMANDS``.  The cold
pass's fully spelled argvs are read straight off that table; the ``=``
spelling sends every warm argv through the full argparse parse.  So
neither state kept across calls nor the parse route may change an
answer: if one differs from its cold answer, the first such argv in
plan order is named on stderr and the exit status is 1.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import pkgutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
import braidhom  # noqa: E402
from braidhom import cli  # noqa: E402

WORKDIR = "<workdir>"


def process_caches():
    """Every function with a ``cache_clear`` found in the ``braidhom``
    modules, each once however many modules import it."""
    found = {}
    for info in pkgutil.iter_modules(braidhom.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("braidhom." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def plan_argvs(name, seed, workdir):
    """The distinct argvs of one workload's plan, first occurrence first."""
    builders = {
        "jumploci": lambda: workloads.jumploci(seed, workdir, workloads.JumpOracle({})),
        "fragments": lambda: workloads.fragments(seed, workdir, workloads.SphereOracle()),
        "fields": lambda: workloads.fields(seed, workdir),
    }
    plan = builders[name]()
    ops = plan.prologue + [op for ops in plan.rounds for op in ops]
    return list(dict.fromkeys(tuple(op.argv) for op in ops))


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def respelled(argv):
    """``argv`` with each ``--option value`` pair of its command, as
    ``cli.COMMANDS`` states the options, written ``--option=value``; bare
    flags and anything else stay as they are."""
    command = cli.COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return list(argv)
    options = dict(command[2])
    out = list(argv[:1])
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = options.get(token)
        value = next(tokens, None) if keywords is not None and "action" not in keywords else None
        out.append(token if value is None else token + "=" + value)
    return out


def record(argv, workdir, caches=(), spell=list):
    """One argv's answer as the line that is hashed, after clearing
    ``caches``; the call is made with ``spell(argv)``."""
    for cached in caches:
        cached.cache_clear()
    code, out, err = run(spell(argv))
    return json.dumps([argv, code, out, err]).replace(workdir, WORKDIR)


def digest(name, seed, caches):
    """Argv count, sha256 of the cold answers and the first argv, in plan
    order, whose answer differs on the warm, respelled rerun in reverse
    order (None when none does)."""
    with tempfile.TemporaryDirectory() as workdir:
        argvs = plan_argvs(name, seed, workdir)
        first = [record(argv, workdir, caches) for argv in argvs]
        warm = [record(argv, workdir, spell=respelled) for argv in reversed(argvs)][::-1]
    h = hashlib.sha256()
    for line in first:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    changed = next((a for a, x, y in zip(argvs, first, warm) if x != y), None)
    return len(argvs), h.hexdigest(), changed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    caches = process_caches()
    total = 0
    changed = []
    for name in ("jumploci", "fragments", "fields"):
        count, hexdigest, argv = digest(name, args.seed, caches)
        total += count
        print("%-9s seed %d  %5d argvs  sha256 %s" % (name, args.seed, count, hexdigest))
        if argv is not None:
            changed.append((name, argv))
    print("total %d distinct argvs" % total)
    for name, argv in changed:
        print("%s: the warm, respelled rerun changed the answer to %s; a memo "
              "or the parse route differs" % (name, " ".join(argv)), file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
