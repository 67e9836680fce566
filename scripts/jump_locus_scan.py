#!/usr/bin/env python3
"""Sample character tuples and tabulate jump locus membership.

Draws seeded root-of-unity tuples for the chosen space and strand
count, decides membership through the exact twisted computation, and
prints the component histogram.  A quick empirical look at how much of
the character torus the jump locus occupies at small cyclotomy.
"""

import argparse
import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from braidhom.cohomology import random_character_tuple, seeded_rng
from braidhom.errors import OutOfScopeError
from braidhom.leray import factor_presentation, sigma1_components, sigma1_membership
from braidhom.presentations import SpaceSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--space", default="genus:1")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=97)
    ap.add_argument("--max-order", type=int, default=6)
    ap.add_argument(
        "--pair-bias",
        type=float,
        default=0.0,
        help="probability that a component is drawn as the inverse of an "
        "earlier one",
    )
    args = ap.parse_args()

    space = SpaceSpec.parse(args.space)
    try:
        alphabet = factor_presentation(space).alphabet
    except OutOfScopeError as exc:
        raise SystemExit(str(exc))
    rng = seeded_rng(args.seed)
    desc = sigma1_components(space, args.n)
    print(
        "%s, n=%d: ambient %s (dim %d), %d listed components"
        % (args.space, args.n, desc.ambient, desc.ambient_dim, len(desc.components))
    )

    hist = collections.Counter()
    members = 0
    h1_total = 0
    for _ in range(args.samples):
        rho = random_character_tuple(
            alphabet,
            args.n,
            rng,
            max_order=args.max_order,
            pair_bias=args.pair_bias,
        )
        report = sigma1_membership(space, args.n, rho)
        if report.member:
            members += 1
            h1_total += report.h1
            for label in report.components:
                hist[label] += 1
            if not report.components:
                hist["(none listed)"] += 1

    print(
        "%d/%d samples in the jump locus; mean jump %.2f"
        % (members, args.samples, h1_total / members if members else 0.0)
    )
    for label, count in sorted(hist.items()):
        print("  %-16s %d" % (label, count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
