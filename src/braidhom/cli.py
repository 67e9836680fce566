"""Command line front end.

One subcommand per operation family, JSON on stdout.  All sampling runs
through the single ``--seed`` flag and the deterministic generator in
the cohomology module, so identical argv plus seed produce byte
identical output.  Every report carries an ``anchors``
array with the cited statements, resolved from the anchor table.

The grammar is one table, ``COMMANDS``.  A command followed by fully
spelled ``--option value`` pairs and flags is read straight off it;
the argparse parser is built from the same table only when an argv
needs it (help, usage errors, abbreviations, ``--option=value``).

Exit codes: 0 success, 1 a ``verify`` criterion failed, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .anchors import ANCHORS, anchor_json
from .cohomology import (
    abelianization,
    charvar_dims,
    h1_dim,
    random_surface_sl2,
    seeded_rng,
    tangent_dim_at,
)
from .errors import BraidhomError, InputError
from .leray import (
    E2_SUPPORT_FLAG,
    b1_pure_braid,
    e2_trivial,
    factor_presentation,
    h1_twisted_pure_braid,
    sigma1_components,
    sigma1_membership,
)
from .presentations import (
    Character,
    CharacterTuple,
    Presentation,
    SpaceSpec,
    catalog,
    parse_presentation,
)
from .verdict import charp_verdict, kahler_verdict
from .verify import DEFAULT_SEED, run_criteria

__all__ = ["main"]

_TEXT_TO_KEY = {text: key for key, text in ANCHORS.items()}


# one encoder for every payload: ``json.dumps`` builds a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(payload: dict, flags=()) -> None:
    """Print one payload; a ``flags`` list is added only where there is
    something to flag, so payloads with nothing to flag keep their keys."""
    if flags:
        payload["flags"] = list(flags)
    sys.stdout.write(_ENCODER.encode(payload) + "\n")


def _read_text(path: str) -> str:
    """The text of a user file; a file that cannot be read or is not
    UTF-8 is an input error, not a crash."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text: %s" % (path, exc))


def _load_presentation(args) -> Presentation:
    if args.catalog and args.file:
        raise InputError("give either --catalog or --file, not both")
    if args.catalog:
        return catalog(args.catalog)
    if args.file:
        return parse_presentation(_read_text(args.file))
    raise InputError("a presentation is required: --catalog or --file")


def _load_json_file(path: str) -> dict:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise InputError("%s must contain a JSON object" % path)
    return data


def _anchors_from_trace(verdict) -> list:
    keys = []
    for step in verdict.trace:
        if not step.anchor:
            continue
        key = _TEXT_TO_KEY[step.anchor]
        if key not in keys:
            keys.append(key)
    return anchor_json(keys)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns an exit code


def _cmd_abelianize(args) -> int:
    profile = abelianization(_load_presentation(args))
    _emit(
        {
            "rank": profile.rank,
            "torsion": list(profile.torsion),
            "anchors": [],
        }
    )
    return 0


def _cmd_h1(args) -> int:
    pres = _load_presentation(args)
    if not args.char:
        raise InputError("h1 needs --char with a character JSON file")
    chi = Character.from_json(pres.alphabet, _load_json_file(args.char))
    _emit({"h1": h1_dim(pres, chi), "mode": "exact", "anchors": []})
    return 0


def _cmd_b1(args) -> int:
    space = SpaceSpec.parse(args.space)
    report = b1_pure_braid(space, args.n)
    _emit(
        {
            "h1_rank": report.free_rank,
            "divisors_all_one": all(d == 1 for d in report.divisors),
            "torsion": list(report.torsion),
            "flags": list(report.flags),
            "anchors": anchor_json(list(report.anchors)),
        }
    )
    return 0


def _cmd_twisted(args) -> int:
    space = SpaceSpec.parse(args.space)
    alphabet = factor_presentation(space).alphabet
    rho = CharacterTuple.from_json(alphabet, _load_json_file(args.char))
    value = h1_twisted_pure_braid(space, args.n, rho)
    flags = ()
    if space.kind == "c-star":
        keys = ["cstar-h1-rank"]
    elif space.genus == 1:
        keys = ["torus-pair-count"]
        flags = (E2_SUPPORT_FLAG,) if args.n >= 3 else ()
    else:
        keys = ["twisted-h1-transfer"]
    _emit(
        {
            "h1": value,
            "n": args.n,
            "space": args.space,
            "anchors": anchor_json(keys),
        },
        flags,
    )
    return 0


def _cmd_e2(args) -> int:
    space = SpaceSpec.parse(args.space)
    if space.kind == "sphere":
        g = 0
    elif space.kind == "genus":
        g = space.genus
    else:
        raise InputError("e2 supports sphere and genus spaces")
    frag = e2_trivial(g, args.n)
    keys = ["diagonal-class-g0"] if g == 0 else ["diagonal-class-pos", "d2-injective"]
    _emit(
        {
            "genus": frag.genus,
            "n": frag.n,
            "rank10": frag.rank10,
            "rank01": frag.rank01,
            "rank20": frag.rank20,
            "d2_shape": [frag.rank20, frag.rank01],
            "coefficients": "trivial",
            "anchors": anchor_json(keys),
        }
    )
    return 0


def _cmd_sigma1(args) -> int:
    space = SpaceSpec.parse(args.space)
    desc = sigma1_components(space, args.n)
    _emit(
        {
            "ambient": desc.ambient,
            "ambient_dim": desc.ambient_dim,
            "components": [
                {
                    "label": c.label,
                    "dimension": c.dimension,
                    "condition": c.condition,
                }
                for c in desc.components
            ],
            "anchors": anchor_json(list(desc.anchors)),
        },
        desc.flags,
    )
    return 0


def _cmd_membership(args) -> int:
    space = SpaceSpec.parse(args.space)
    alphabet = factor_presentation(space).alphabet
    rho = CharacterTuple.from_json(alphabet, _load_json_file(args.char))
    report = sigma1_membership(space, args.n, rho)
    _emit(
        {
            "member": report.member,
            "components": list(report.components),
            "h1": report.h1,
            "trivial": report.trivial,
            "anchors": anchor_json(list(report.anchors)),
        },
        report.flags,
    )
    return 0


def _cmd_charvar(args) -> int:
    try:
        ranks = [int(part) for part in args.ranks.split(",") if part.strip()]
    except ValueError:
        raise InputError("--ranks must be a comma separated integer list")
    dims = charvar_dims(args.genus, ranks, args.flavor)
    _emit(
        {
            "genus": dims.genus,
            "ranks": list(dims.ranks),
            "flavor": dims.flavor,
            "hom_dims": list(dims.hom_dims),
            "char_dims": list(dims.char_dims),
            "tangent": dims.tangent,
            "anchors": [],
        }
    )
    return 0


_MAX_SPREAD = 10**30


def _cmd_tangent(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise InputError("seed must fit in 64 bits")
    if args.spread < 1:
        raise InputError("--spread must be a positive integer, got %d" % args.spread)
    # the certificate's norm-bound fallback grows with the entry size
    if args.spread > _MAX_SPREAD:
        raise InputError(
            "--spread is limited to 10^30, got a %d-digit value" % len(str(args.spread))
        )
    # the catalog bounds the genus before anything is sampled; below
    # genus 1 the sampler reports the error
    pres = catalog("surface:%d" % max(args.genus, 0))
    rng = seeded_rng(args.seed)
    rho = random_surface_sl2(args.genus, rng, spread=args.spread, presentation=pres)
    report = tangent_dim_at(pres, rho)
    _emit(
        {
            "genus": args.genus,
            "seed": args.seed,
            "z1": report.z1,
            "h1": report.h1,
            "h0_ad": report.h0_ad,
            "gate_passed": report.h0_ad == 0,
            "anchors": [],
        }
    )
    return 0


def _cmd_verdict(args) -> int:
    space = SpaceSpec.parse(args.space)
    verdict = kahler_verdict(space, args.n, args.flavor)
    payload = verdict.to_json()
    payload["anchors"] = _anchors_from_trace(verdict)
    _emit(payload)
    return 0


def _cmd_charp(args) -> int:
    verdict = charp_verdict(args.group, args.p)
    payload = verdict.to_json()
    payload["anchors"] = _anchors_from_trace(verdict)
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    numbers = None
    names = None
    if args.criteria is not None:
        parts = [part.strip() for part in args.criteria.split(",") if part.strip()]
        if not parts:
            raise InputError("no criteria selected")
        numbers = [int(part) for part in parts if part.isdecimal()]
        names = [part for part in parts if not part.isdecimal()]
    results = run_criteria(numbers=numbers, names=names, seed=args.seed)
    all_passed = all(r.passed for r in results)
    if args.json:
        _emit(
            {
                "all_passed": all_passed,
                "seed": args.seed,
                "results": [
                    {
                        "number": r.number,
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                    }
                    for r in results
                ],
            }
        )
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            sys.stdout.write(
                "[%s] criterion %d (%s): %s\n" % (mark, r.number, r.name, r.detail)
            )
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument grammar, stated once: each command's handler, help line and
# options, each option a ``--flag`` with its ``add_argument`` keywords.
# ``build_parser`` and ``_read_spelled`` both read this table, and its
# keywords are only ``type`` (int or absent), ``required``, ``default``,
# ``choices``, ``action="store_true"`` and ``help``.

_PRESENTATION = (
    ("--catalog", {"help": "catalog id, e.g. surface:2"}),
    ("--file", {"help": "path to a presentation file"}),
)
_SPACE_N = (
    ("--space", {"required": True, "help": "space spec, e.g. genus:2"}),
    ("--n", {"type": int, "required": True, "help": "strand count"}),
)
# accepted everywhere, read by ``verify`` alone: the rest print JSON anyway
_JSON = (("--json", {"action": "store_true"}),)

COMMANDS = {
    "abelianize": (_cmd_abelianize, "first homology of a presentation", _PRESENTATION + (
        ("--json", {"action": "store_true", "help": "JSON output (default)"}),
    )),
    "h1": (_cmd_h1, "twisted first cohomology via Fox calculus", _PRESENTATION + (
        ("--char", {"required": True, "help": "character JSON file"}),
    ) + _JSON),
    "b1": (_cmd_b1, "pure braid first homology of a space", _SPACE_N + _JSON),
    "twisted": (_cmd_twisted, "twisted h1 of a pure braid group", _SPACE_N + (
        ("--char", {"required": True, "help": "character tuple JSON file"}),
    ) + _JSON),
    "e2": (_cmd_e2, "degree-two page fragment ranks", _SPACE_N + _JSON),
    "sigma1": (_cmd_sigma1, "jump locus component description", _SPACE_N + _JSON),
    "membership": (_cmd_membership, "jump locus membership of a tuple", _SPACE_N + (
        ("--char", {"required": True, "help": "character tuple JSON file"}),
    ) + _JSON),
    "charvar": (_cmd_charvar, "character variety dimension formulas", (
        ("--genus", {"type": int, "required": True}),
        ("--ranks", {"required": True, "help": "comma list, e.g. 2 or 2,3"}),
        ("--flavor", {"choices": ("SL", "GL"), "default": "SL"}),
    ) + _JSON),
    "tangent": (_cmd_tangent, "tangent dimensions at a sampled point", (
        ("--genus", {"type": int, "default": 2}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
        ("--spread", {"type": int, "default": 3}),
    ) + _JSON),
    "verdict": (_cmd_verdict, "Kahler decision with trace", (
        ("--space", {"required": True}),
        ("--n", {"type": int, "required": True}),
        ("--flavor", {"choices": ("pure", "full"), "default": "pure"}),
    ) + _JSON),
    "charp": (_cmd_charp, "characteristic p exclusion", (
        ("--group", {"required": True, "help": "artin_pure:n or sphere_pure:n"}),
        ("--p", {"type": int, "required": True}),
    ) + _JSON),
    "verify": (_cmd_verify, "run acceptance criteria", (
        ("--criteria", {"help": "comma list of criterion numbers or names; default all"}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
    ) + _JSON),
}


def _index(name: str, handler, options) -> tuple:
    """One command's options as ``_read_spelled`` reads them: option ->
    keywords, the namespace argparse starts from (the command, each
    option's default in table order, then the handler) and the required
    options.  An option's attribute is its name without the dashes."""
    start = {"command": name}
    for flag, keywords in options:
        start[flag[2:]] = keywords.get("default", False if "action" in keywords else None)
    start["func"] = handler
    required = frozenset(flag for flag, keywords in options if keywords.get("required"))
    return dict(options), start, required


_INDEX = {name: _index(name, handler, options) for name, (handler, _, options) in COMMANDS.items()}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse form of ``COMMANDS``, built on the first call that
    needs it and reused after.

    Building it costs a few milliseconds, several times the mathematics
    of a small query, and a fully spelled argv never needs it.  Reuse is
    safe: parsing returns a fresh namespace on every call and the
    handlers are plain module functions.
    """
    parser = argparse.ArgumentParser(
        prog="braidhom",
        description="exact invariants of surface braid groups and the "
        "Kahler decision rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def _read_spelled(argv: list):
    """The attributes, in order, of the namespace
    ``build_parser().parse_args(argv)`` returns, or None.

    Reads ``argv`` off ``COMMANDS`` when it is a command followed only
    by ``--option value`` pairs and bare flags, each option spelled in
    full.  Anything else is None: an unknown command, an abbreviation,
    an ``--option=value`` spelling, a value starting with ``-``, help, a
    value that ``int`` or ``choices`` reject, a missing required option
    or a leftover token.
    """
    index = _INDEX.get(argv[0]) if argv else None
    if index is None:
        return None
    options, start, required = index
    values = dict(start)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = options.get(token)
        if keywords is None:
            return None
        if "action" in keywords:
            values[token[2:]] = True
        else:
            text = next(tokens, "-")  # a missing value reads as "-"
            if text.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(text)
            except ValueError:
                return None
            if value not in keywords.get("choices", (value,)):
                return None
            values[token[2:]] = value
        seen.add(token)
    return values if required <= seen else None


def _parse(argv: list) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns.

    A fully spelled argv is read off ``COMMANDS`` by ``_read_spelled``,
    with no parser built.  Every other argv, including empty argv,
    top-level options, unknown commands, help and anything the reader
    cannot match exactly, goes to ``parse_args``, which stays the
    reference and prints all usage, help and errors.
    """
    values = _read_spelled(argv)
    if values is None:
        return build_parser().parse_args(argv)
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except BraidhomError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
