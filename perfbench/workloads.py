"""Workload generation: seeded inputs, CLI argv and the check of each
operation.

A workload is a list of rounds; every round is a list of operations,
and a run repeats rounds (cycling through the generated pool) until its
time is up, so every run attempts whole rounds.  Inputs come from the
benchmark's own ``random.Random(seed)``; the program only sees argv and
the files written here.
"""

import itertools
import json
import math
import os
import random

import oracles

MAX_ORDER = 12  # jumploci: one order N <= 12 per tuple
PAIR_BIAS = 0.35  # chance that a component is the inverse of an earlier one
FIXED_CSTAR_SEED = 11  # the c-star n >= 3 block does not depend on --seed



def surface_alphabet(g):
    return ["a", "b"] if g == 1 else ["%s%d" % (x, i) for i in range(1, g + 1) for x in "ab"]


ALPHABETS = {"genus:1": surface_alphabet(1), "genus:2": surface_alphabet(2), "c-star": ["a"]}


class Op:
    """One CLI call.  ``known_fault`` marks the operations of the fixed
    c-star block, the only ones allowed to fail at present."""

    __slots__ = ("kind", "argv", "check", "known_fault")

    def __init__(self, kind, argv, check, known_fault=False):
        self.kind = kind
        self.argv = argv
        self.check = check
        self.known_fault = known_fault


class Plan:
    """What a run executes: a prologue once, then rounds from the pool."""

    def __init__(self, rounds, prologue=()):
        self.rounds = rounds
        self.prologue = list(prologue)


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            json.dump(data, fh)
    return path


def _char(names, order, exps):
    return {"N": order, "values": dict(zip(names, exps))}


# ---------------------------------------------------------------------------
# jumploci: twisted then membership on criterion-11-mix tuples


def draw_tuple(rng, k, n):
    order = rng.randint(1, MAX_ORDER)
    comps = []
    for _ in range(n):
        if comps and rng.random() < PAIR_BIAS:
            comps.append([(-e) % order for e in rng.choice(comps)])
        else:
            comps.append([rng.randrange(order) for _ in range(k)])
    return order, comps


class JumpOracle:
    """Memoised independent h1 for character tuples."""

    def __init__(self, oracle_pres):
        self.pres = oracle_pres
        self.memo = {}

    def expected(self, space, order, comps):
        key = (space, order, tuple(map(tuple, comps)))
        if key not in self.memo:
            self.memo[key] = oracles.tuple_expected(space, comps, order, self.pres)
        return self.memo[key]


def _tuple_ops(space, n, order, comps, path, oracle, known_fault=False):
    """twisted then membership on one tuple; the kinds of the fixed
    c-star block carry a ":fixed" suffix."""
    trivial = all(e % order == 0 for c in comps for e in c)
    state = {}

    def check_twisted(out):
        state["h1"] = out.get("h1")
        return oracles.check_twisted(out, oracle.expected(space, order, comps))

    def check_membership(out):
        return oracles.check_membership(
            out, state.get("h1"), oracle.expected(space, order, comps), trivial)

    base = ["--space", space, "--n", str(n), "--char", path]
    suffix = ":fixed" if known_fault else ""
    return [
        Op("twisted:" + space + suffix, ["twisted"] + base, check_twisted, known_fault),
        Op("membership:" + space + suffix, ["membership"] + base, check_membership, known_fault),
    ]


def jumploci(seed, workdir, oracle, pool_rounds=24, cycles=8):
    """Each cycle: genus:1 and genus:2 at n = 2, 3, 4 and c-star at n = 2
    from the seed, plus c-star at n = 3 and 4 from the fixed block."""
    rng = random.Random(seed)
    fixed_rng = random.Random(FIXED_CSTAR_SEED)
    fixed = []
    for i in range(cycles):
        for n in (3, 4):
            order, comps = draw_tuple(fixed_rng, 1, n)
            path = _write(os.path.join(workdir, "cstar-fixed-%d-%d.json" % (i, n)),
                          {"components": [_char(ALPHABETS["c-star"], order, c) for c in comps]})
            fixed.append(("c-star", n, order, comps, path))
    rounds = []
    for r in range(pool_rounds):
        ops = []
        for c in range(cycles):
            picks = [(s, n) for s in ("genus:1", "genus:2") for n in (2, 3, 4)] + [("c-star", 2)]
            for j, (space, n) in enumerate(picks):
                names = ALPHABETS[space]
                order, comps = draw_tuple(rng, len(names), n)
                path = _write(os.path.join(workdir, "t-%d-%d-%d.json" % (r, c, j)),
                              {"components": [_char(names, order, x) for x in comps]})
                ops += _tuple_ops(space, n, order, comps, path, oracle)
            for entry in fixed[2 * c: 2 * c + 2]:
                space, n, order, comps, path = entry
                ops += _tuple_ops(space, n, order, comps, path, oracle, known_fault=True)
        rounds.append(ops)
    return Plan(rounds)


def jumploci_oracle(catalog_fn, data_dir):
    """Relators the independent routes run on: artin_pure:3..5 and the
    two-strand torus file once it passes the H_1 = Z^4 gate."""
    pres = {}
    for m in (3, 4, 5):
        p = catalog_fn("artin_pure:%d" % m)
        pres["artin_pure:%d" % m] = (list(p.alphabet.names), [list(r.letters) for r in p.relators])
    path = os.path.join(data_dir, "p2_torus.pres")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            names, rels = oracles.parse_pres(fh.read())
        if oracles.abelian_invariants(names, rels) == (4, []):
            pres["p2_torus"] = (names, rels)
    return pres


# ---------------------------------------------------------------------------
# fragments: untwisted homology, Smith forms and verdicts

SWEEP = {1: (3, 6, 10, 14, 20), 2: (3, 6, 9, 12, 16), 3: (3, 5, 8, 10, 12)}
TABLE_SPECS = ("sphere", "plane", "disk", "c-star", "genus:1", "genus:2", "genus:3", "hyperbolic:2")
# Bands keep the seeded operations of a round below the genus n = 8, 9
# operations that sit at its p90, so every round has the same number of
# operations above p90 whatever the seed.
SPHERE_BANDS = ((3, 6), (7, 14), (15, 24))
PLANTED_BANDS = ((4, 8), (8, 12), (12, 16), (14, 20))
ARTIN_NS = range(3, 9)


class SphereOracle:
    def __init__(self):
        self.memo = {}

    def torsion(self, n):
        if n not in self.memo:
            self.memo[n] = [d for d in oracles.smith_divisors(oracles.kn_incidence(n)) if d > 1]
        return self.memo[n]


def fragments(seed, workdir, sphere, pool_rounds=12):
    """The prologue derives every artin_pure:n once, so the costly first
    derivation falls in the same place in every run; the rounds then
    abelianize one seeded artin_pure:n each."""
    rng = random.Random(seed)
    prologue = [Op("abelianize:artin_pure", ["abelianize", "--catalog", "artin_pure:%d" % n],
                   lambda out, n=n: oracles.check_abelian(out, math.comb(n, 2), ()))
                for n in ARTIN_NS]
    rounds = []
    for r in range(pool_rounds):
        ops = []
        for g, ns in SWEEP.items():
            for n in ns:
                space = "genus:%d" % g
                ops.append(Op("b1:genus", ["b1", "--space", space, "--n", str(n)],
                              lambda out, g=g, n=n: oracles.check_b1_genus(out, g, n)))
                ops.append(Op("verdict:genus", ["verdict", "--space", space, "--n", str(n)],
                              lambda out, g=g, n=n: oracles.check_verdict_genus(out, g, n)))
        for lo, hi in SPHERE_BANDS:
            n = rng.randint(lo, hi)
            ops.append(Op("b1:sphere", ["b1", "--space", "sphere", "--n", str(n)],
                          lambda out, n=n: oracles.check_b1_sphere(out, n, sphere.torsion(n))))
        n = rng.choice(ARTIN_NS)
        ops.append(Op("abelianize:artin_pure", ["abelianize", "--catalog", "artin_pure:%d" % n],
                      lambda out, n=n: oracles.check_abelian(out, math.comb(n, 2), ())))
        for spec in TABLE_SPECS:
            for n in range(2, 7):
                for flavor in ("pure", "full"):
                    ops.append(Op("verdict:table",
                                  ["verdict", "--space", spec, "--n", str(n), "--flavor", flavor],
                                  lambda out, s=spec, n=n: oracles.check_verdict_table(out, s, n)))
        for b, (lo, hi) in enumerate(PLANTED_BANDS):
            k, m = rng.randint(lo, hi), rng.randint(lo, hi)
            A, chain, rank = oracles.planted_matrix(rng, k, m)
            path = _write(os.path.join(workdir, "planted-%d-%d.pres" % (r, b)),
                          oracles.planted_text(rng, A))
            torsion = tuple(d for d in chain if d > 1)
            ops.append(Op("abelianize:planted", ["abelianize", "--file", path],
                          lambda out, f=k - rank, t=torsion: oracles.check_abelian(out, f, t)))
        rng.shuffle(ops)
        rounds.append(ops)
    return Plan(rounds, prologue)


# ---------------------------------------------------------------------------
# fields: large cyclotomic orders, rarely repeated

HEAD_ORDERS = (4001, 4099)  # h1 surface:1 at a prime order in this range opens every run
# field degree bands [2^k, 2^(k+1)), one operation per band and round
SURFACE_BANDS = {1: range(3, 8), 2: range(3, 8), 3: range(3, 8)}
PRODUCT_BANDS = {1: range(3, 7), 2: range(2, 5)}
MAX_EXPONENT = 3  # exponents 0..3: dense exponents at high order cost seconds to minutes
PRODUCT_PATTERN = ((True, True), (True, False), (False, True), (False, False))
TANGENT_PER_ROUND = {2: 2, 3: 2}


class OrderPool:
    """Draws cyclotomic orders by field degree.

    ``draw(k)`` returns an order N <= 2^(k+2) whose degree phi(N) lies
    in [2^k, 2^(k+1)): cost follows the degree more closely than N, and
    the cap on N bounds the O(N phi(N)) field tables.  Orders are drawn
    with replacement, so the mix stays the same however long a run is.
    """

    def __init__(self, rng, limit=2**12):
        self.rng = rng
        phi = list(range(limit + 1))
        for p in range(2, limit + 1):
            if phi[p] == p:
                for m in range(p, limit + 1, p):
                    phi[m] -= phi[m] // p
        self.bands = {}
        for n in range(3, limit + 1):
            k = phi[n].bit_length() - 1
            if n <= 2 ** (k + 2):
                self.bands.setdefault(k, []).append(n)

    def draw(self, k):
        return self.rng.choice(self.bands[k])


def _exps(rng, order, k, trivial):
    if trivial:
        return [0] * k
    while True:
        e = [rng.randint(0, min(MAX_EXPONENT, order - 1)) for _ in range(k)]
        if any(e):
            return e


def fields(seed, workdir, pool_rounds=64):
    rng = random.Random(seed)
    orders = OrderPool(rng)
    files = itertools.count()

    def h1_op(kind, catalog_id, names, order, exps, check):
        path = _write(os.path.join(workdir, "chi-%d.json" % next(files)), _char(names, order, exps))
        return Op(kind, ["h1", "--catalog", catalog_id, "--char", path], check)

    N = rng.choice([p for p in range(*HEAD_ORDERS) if oracles.is_prime(p)])
    names = surface_alphabet(1)
    head = h1_op("h1:head", "surface:1", names, N, _exps(rng, N, 2, False),
                 lambda out: oracles.check_surface_h1(out, 1, False))
    rounds = []
    for r in range(pool_rounds):
        ops = []
        for g, bands in SURFACE_BANDS.items():
            names = surface_alphabet(g)
            trivial_slot = rng.randrange(len(bands))
            for s, k in enumerate(bands):
                order = orders.draw(k)
                trivial = s == trivial_slot
                ops.append(h1_op("h1:surface:%d" % g, "surface:%d" % g, names, order,
                                 _exps(rng, order, len(names), trivial),
                                 lambda out, g=g, t=trivial: oracles.check_surface_h1(out, g, t)))
        for g in (1, 2):
            names = surface_alphabet(g)
            prod_names = ["%s_1" % x for x in names] + ["%s_2" % x for x in names]
            pattern = list(PRODUCT_PATTERN)
            rng.shuffle(pattern)
            for k, (ta, tb) in zip(PRODUCT_BANDS[g], pattern):
                order = orders.draw(k)
                exps = _exps(rng, order, len(names), ta) + _exps(rng, order, len(names), tb)
                ops.append(h1_op("h1:product:%d" % g, "product(surface:%d,surface:%d)" % (g, g),
                                 prod_names, order, exps,
                                 lambda out, g=g, a=ta, b=tb: oracles.check_product_h1(out, g, a, b)))
        for g, count in TANGENT_PER_ROUND.items():
            for _ in range(count):
                ops.append(Op("tangent:%d" % g,
                              ["tangent", "--genus", str(g), "--seed", str(rng.randrange(2**32))],
                              lambda out, g=g: oracles.check_tangent(out, g)))
        rng.shuffle(ops)
        rounds.append(ops)
    return Plan(rounds, prologue=[head])

