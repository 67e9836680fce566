"""Acceptance criteria as callable checks.

Each criterion is one function returning a :class:`CriterionResult`.
They are exact checks at desk scale: seeded sampling where the criterion
is statistical, closed-form comparison where it is not.  The CLI
``verify`` subcommand and the acceptance test module both run them
through :func:`run_criteria`.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import Callable, Iterable, Optional

from .anchors import ANCHORS
from .cohomology import (
    _random_sl2,
    abelianization,
    charvar_dims,
    fox_jacobian,
    h1_dim,
    kunneth_h1,
    random_character,
    random_character_tuple,
    random_surface_sl2,
    seeded_rng,
    surface_profile,
    tangent_dim_at,
)
from .cyclotomic import rank_kernel
from .errors import InputError
from .exactlin import IntMatrix, is_unimodular, smith_normal_form
from .leray import b1_pure_braid, h1_twisted_pure_braid, sigma1_membership
from .presentations import (
    Character,
    CharacterTuple,
    MatrixRep,
    Presentation,
    SpaceSpec,
    catalog,
    parse_presentation,
    product_character,
    surface_presentation,
)
from .verdict import KAHLER, NOT_KAHLER, kahler_verdict
from .words import Alphabet, free_reduce

__all__ = ["CriterionResult", "CRITERIA", "run_criteria", "DEFAULT_SEED"]

DEFAULT_SEED = 97

# path of the optional external two-strand torus data, relative to the
# repository root; the criterion that uses it is gated on its presence
P2_TORUS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "data",
    "p2_torus.pres",
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _result(number: int, name: str, failures: list, detail: str) -> CriterionResult:
    if failures:
        shown = "; ".join(str(f) for f in failures[:3])
        return CriterionResult(number, name, False, "%s; failing: %s" % (detail, shown))
    return CriterionResult(number, name, True, detail)


# ---------------------------------------------------------------------------
# 1: Fox identity


def _random_word(rng: random.Random, num_gens: int, max_len: int):
    length = rng.randint(0, max_len)
    letters = [
        (rng.randrange(num_gens), rng.choice((1, -1))) for _ in range(length)
    ]
    return free_reduce(letters)


def _fox_identity_character(w, chi: Character) -> bool:
    """The identity in Z[Z/N] on the terms of the sparse Jacobian row."""
    jac = fox_jacobian(Presentation(chi.alphabet, (w,)), chi)
    n = chi.order
    total = [0] * n  # coefficient of each zeta^e, starting from 1 - chi(w)
    total[0] += 1
    total[chi.word_exponent(w)] -= 1
    for j, x, c in jac.rows[0]:
        total[(x + chi.exponents[j]) % n] += c
        total[x] -= c
    return not any(total)


def _fox_identity_matrix(w, rho: MatrixRep) -> bool:
    """The identity over Z on the d x d blocks of the Jacobian."""
    jac = fox_jacobian(Presentation(rho.alphabet, (w,)), rho)
    d = rho.dim
    one = IntMatrix.identity(d)
    total = one - rho.word_value(w)
    for j in range(len(rho.alphabet)):
        block = IntMatrix([row[j * d : (j + 1) * d] for row in jac.rows], ncols=d)
        total = total + block @ (rho.image(j) - one)
    return total == IntMatrix.zeros(d, d)


def criterion_fox_identity(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The fundamental identity sum_j (dw/dx_j)(phi(x_j) - 1) = phi(w) - 1,
    evaluated through the production Fox Jacobian: exactly in Z[Z/N] at
    a seeded character for every word, and over Z at a seeded integer
    SL2 representation for every twentieth word."""
    rng = seeded_rng(seed + 1)
    alphabets = {k: Alphabet("x%d" % j for j in range(k)) for k in range(1, 7)}
    failures = []
    for i in range(500):
        k = rng.randint(1, 6)
        w = _random_word(rng, k, 64)
        alphabet = alphabets[k]
        chi = random_character(alphabet, rng, max_order=12)
        if w.is_identity:
            # no relator to differentiate; both sides are 0
            continue
        if not _fox_identity_character(w, chi):
            failures.append((i, "character", w))
        if i % 20 == 0:
            rho = MatrixRep(alphabet, [_random_sl2(rng, 3)[0] for _ in range(k)])
            if not _fox_identity_matrix(w, rho):
                failures.append((i, "matrix", w))
    return _result(
        1,
        "fox-identity",
        failures,
        "500 seeded words, alphabet size <= 6, length <= 64",
    )


# ---------------------------------------------------------------------------
# 2: Smith normal form


def _random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    rows = IntMatrix.identity(n).rows
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for col in range(n):
            rows[i][col] += c * rows[j][col]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix(rows, ncols=n)


def criterion_snf(seed: int = DEFAULT_SEED) -> CriterionResult:
    """U A V = D with unimodular transforms, divisor chain, invariance."""
    rng = seeded_rng(seed + 2)
    failures = []
    for i in range(200):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], ncols=n
        )
        res = smith_normal_form(a)
        if (res.u @ a @ res.v) != res.d:
            failures.append((i, "decomposition"))
            continue
        if not (is_unimodular(res.u) and is_unimodular(res.v)):
            failures.append((i, "transforms not unimodular"))
            continue
        divs = res.divisors
        if any(divs[t + 1] % divs[t] for t in range(len(divs) - 1)):
            failures.append((i, "divisor chain broken"))
            continue
        if i % 5 == 0 and m <= 25 and n <= 25:
            left = _random_unimodular(rng, m)
            right = _random_unimodular(rng, n)
            if smith_normal_form(left @ a @ right).divisors != divs:
                failures.append((i, "divisors not invariant"))
    return _result(
        2,
        "snf",
        failures,
        "200 seeded integer matrices up to 40x40, with unimodular "
        "invariance spot checks",
    )


# ---------------------------------------------------------------------------
# 3 and 4: untwisted first homology of surface braid groups


def criterion_surface_b1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Positive genus: free rank 2gn and torsion free cokernel."""
    failures = []
    for g in (1, 2, 3):
        space = SpaceSpec.parse("genus:%d" % g)
        for n in range(2, 7):
            rep = b1_pure_braid(space, n)
            if rep.free_rank != 2 * g * n:
                failures.append((g, n, "rank", rep.free_rank))
            if rep.torsion != ():
                failures.append((g, n, "torsion", rep.torsion))
            if any(d != 1 for d in rep.divisors):
                failures.append((g, n, "divisors", rep.divisors))
    return _result(
        3,
        "surface-b1",
        failures,
        "genus 1..3, n 2..6: free rank 2gn, all divisors 1",
    )


def criterion_sphere_b1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Sphere: free rank C(n,2) - n; torsion reported, not asserted."""
    failures = []
    torsions = {}
    space = SpaceSpec.parse("sphere")
    for n in range(3, 7):
        rep = b1_pure_braid(space, n)
        expected = math.comb(n, 2) - n
        if rep.free_rank != expected:
            failures.append((n, "rank", rep.free_rank, expected))
        torsions[n] = list(rep.torsion)
    detail = (
        "sphere n 3..6: free rank C(n,2) - n; computed torsion %r is "
        "reported as an open tension, not asserted" % (torsions,)
    )
    return _result(4, "sphere-b1", failures, detail)


# ---------------------------------------------------------------------------
# independent twisted dimensions


@lru_cache(maxsize=None)
def _p2_torus() -> tuple[Optional[Presentation], str]:
    """The external two-strand torus presentation once it passes its
    H_1 = Z^4 gate; otherwise None and the note that its leg is skipped."""
    if not os.path.exists(P2_TORUS_PATH):
        return None, "external torus data absent, gated leg skipped"
    with open(P2_TORUS_PATH, "r", encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    profile = abelianization(pres)
    if profile.rank != 4 or profile.torsion != ():
        return None, "external torus data failed its gate, leg skipped"
    return pres, ""


def _independent_h1(space: SpaceSpec, n: int, rho: CharacterTuple) -> Optional[int]:
    """Twisted h1 of the pure braid group by a route that shares nothing
    with the second page support rule, or None where there is none.

    The punctured plane's pure braid group is all of ``artin_pure:n+1``,
    with the puncture as strand 1: the configuration space of n + 1
    points in the plane is the plane times that of n points in the
    punctured plane.  A tuple pulls back to A1_(j+1) -> chi_j with every
    other generator trivial, where Fox calculus gives h1.  The two-strand
    torus has the external presentation.  On more strands the torus
    splits off a factor Z^2 = pi_1(T) on which the product of the
    characters acts, so h1 is 0 whenever that product is nontrivial.
    The trivial tuple has the Betti numbers 2gn and n + C(n,2).
    """
    if rho.is_trivial:
        return n + math.comb(n, 2) if space.kind == "c-star" else 2 * space.genus * n
    if space.kind == "c-star":
        pres = catalog("artin_pure:%d" % (n + 1))
        values = {"A1_%d" % (j + 2): rho.component(j).exponents[0] for j in range(n)}
        return h1_dim(pres, Character(pres.alphabet, rho.order, values))
    if space.genus != 1:
        return None
    if n == 2:
        pres = _p2_torus()[0]
        return None if pres is None else h1_dim(pres, _p2_torus_character(pres, rho))
    return None if reduce(mul, rho.components).is_trivial else 0


def _unchecked(space, n, rho, got, failures, tag) -> bool:
    """Record a failure where ``got`` differs from the independent route;
    True when the tuple has no such route."""
    expected = _independent_h1(space, n, rho)
    if expected is not None and got != expected:
        failures.append((tag, n, rho.to_json(), got, expected))
    return expected is None


# ---------------------------------------------------------------------------
# 5: twisted dimension over the torus


def criterion_torus_pair_count(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Genus 1 twisted h1 at nontrivial tuples against the independent
    routes: Fox on the two-strand presentation, and the vanishing forced
    by a nontrivial total character on more strands."""
    rng = seeded_rng(seed + 5)
    space = SpaceSpec.parse("genus:1")
    alphabet = surface_presentation(1).alphabet
    failures = []
    unchecked = 0
    for n in (2, 3, 4):
        produced = 0
        while produced < 200:
            rho = random_character_tuple(
                alphabet, n, rng, max_order=12, pair_bias=0.3
            )
            if rho.is_trivial:
                continue
            produced += 1
            got = h1_twisted_pure_braid(space, n, rho)
            unchecked += _unchecked(space, n, rho, got, failures, "torus")
    return _result(
        5,
        "torus-pair-count",
        failures,
        "200 seeded nontrivial tuples per n in {2,3,4}, cyclotomy <= 12; "
        "%d with no independent route" % unchecked,
    )


# ---------------------------------------------------------------------------
# 6: presentation-based surface oracle


def criterion_surface_oracle(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Nontrivial characters: h1 = 2g - 2 for g >= 2, and 0 for the torus."""
    rng = seeded_rng(seed + 6)
    failures = []
    for g in (1, 2, 3):
        pres = surface_presentation(g)
        expected = 0 if g == 1 else 2 * g - 2
        for i in range(50):
            chi = random_character(pres.alphabet, rng, max_order=12, nontrivial=True)
            got = h1_dim(pres, chi)
            if got != expected:
                failures.append((g, i, got, expected))
    return _result(
        6,
        "surface-oracle",
        failures,
        "50 seeded nontrivial characters per genus in {1,2,3}",
    )


# ---------------------------------------------------------------------------
# 7: Kunneth cross oracle


def _p2_torus_character(pres: Presentation, rho: CharacterTuple) -> Character:
    """Restrict a two-strand torus character tuple along the split model.

    The translation lattice generators move both strands, the fiber
    generators move only the second strand.
    """
    r1, r2 = rho.components
    order = r1.order
    e1a, e1b = r1.exponents
    e2a, e2b = r2.exponents
    exps = [(e1a + e2a) % order, (e1b + e2b) % order, e2a % order, e2b % order]
    return Character(pres.alphabet, order, exps)


def criterion_kunneth_cross(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Product presentations: Fox h1 equals the Kunneth formula value."""
    rng = seeded_rng(seed + 7)
    failures = []
    for g in (1, 2):
        prod = catalog("product(surface:%d,surface:%d)" % (g, g))
        factor_alphabet = surface_presentation(g).alphabet
        for i in range(50):
            ca = random_character(factor_alphabet, rng, max_order=6)
            cb = random_character(factor_alphabet, rng, max_order=6)
            chi = product_character(prod, ca, cb)
            got = h1_dim(prod, chi)
            expected = kunneth_h1(
                [surface_profile(g, ca).pair, surface_profile(g, cb).pair]
            )
            if got != expected:
                failures.append((g, i, got, expected))
    pres, gated = _p2_torus()
    if pres is not None:
        space = SpaceSpec.parse("genus:1")
        torus_alphabet = surface_presentation(1).alphabet
        for i in range(40):
            rho = random_character_tuple(
                torus_alphabet, 2, rng, max_order=12, pair_bias=0.35
            )
            chi = _p2_torus_character(pres, rho)
            got = h1_dim(pres, chi)
            expected = h1_twisted_pure_braid(space, 2, rho)
            if got != expected:
                failures.append(("p2-torus", i, got, expected))
        gated = "gated two-strand torus leg ran on 40 tuples"
    return _result(
        7,
        "kunneth-cross",
        failures,
        "100 seeded product characters, genus 1 and 2; " + gated,
    )


# ---------------------------------------------------------------------------
# 8: character variety tangent dimensions


def _traceless_basis(d: int) -> list[IntMatrix]:
    """Basis of trace zero d x d matrices: diagonal differences then E_ij."""
    basis = []
    for i in range(d - 1):
        rows = [[0] * d for _ in range(d)]
        rows[i][i] = 1
        rows[i + 1][i + 1] = -1
        basis.append(IntMatrix(rows, ncols=d))
    for i in range(d):
        for j in range(d):
            if i != j:
                rows = [[0] * d for _ in range(d)]
                rows[i][j] = 1
                basis.append(IntMatrix(rows, ncols=d))
    return basis


def _traceless_coords(m: IntMatrix) -> list[int]:
    """Coordinates in the `_traceless_basis` order; trace must vanish."""
    d = m.nrows
    diag = [m.rows[i][i] for i in range(d)]
    if sum(diag) != 0:
        raise ValueError("matrix has nonzero trace")
    coords = []
    acc = 0
    for i in range(d - 1):
        acc += diag[i]
        coords.append(acc)
    for i in range(d):
        for j in range(d):
            if i != j:
                coords.append(m.rows[i][j])
    return coords


def _adjoint_by_conjugation(a: IntMatrix, ainv: IntMatrix) -> IntMatrix:
    """Ad(a) by conjugating each `_traceless_basis` element, the oracle
    for the closed form that `MatrixRep.adjoint_rep` reads off the entries."""
    cols = [_traceless_coords(a @ b @ ainv) for b in _traceless_basis(a.nrows)]
    return IntMatrix(zip(*cols), ncols=len(cols))


def _tangent_by_elimination(pres: Presentation, rho: MatrixRep) -> tuple[int, int]:
    """(z1, h0_ad) at ``rho`` by Gauss-Jordan over Q, independent of the
    certified F_q rank that ``tangent_dim_at`` takes, on adjoint images
    built by explicit conjugation as a plain GL representation."""
    k = len(rho.alphabet)
    ad = MatrixRep(
        rho.alphabet,
        [_adjoint_by_conjugation(rho.image(g), rho.inverse_image(g)) for g in range(k)],
        flavor="GL",
    )
    jac = fox_jacobian(pres, ad)
    z1 = jac.ncols - rank_kernel(jac.rows, jac.ncols, Fraction(1))
    ident = IntMatrix.identity(ad.dim)
    moves = [row for g in range(pres.num_generators) for row in (ad.image(g) - ident).rows]
    return z1, ad.dim - rank_kernel(moves, ad.dim, Fraction(1))


def criterion_tangent(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Gated SL2 samples have h1 = 6, with z1 and h0_ad equal to their
    values by elimination over Q; closed forms give 9, 6, 16, 10."""
    rng = seeded_rng(seed + 8)
    pres = surface_presentation(2)
    failures = []
    gated = 0
    for i in range(100):
        rho = random_surface_sl2(2, rng, presentation=pres)
        report = tangent_dim_at(pres, rho)
        oracle = _tangent_by_elimination(pres, rho)
        if oracle != (report.z1, report.h0_ad):
            failures.append(("elimination", i, (report.z1, report.h0_ad), oracle))
        if report.h0_ad == 0:
            gated += 1
            if report.h1 != 6:
                failures.append(("sample", i, report.h1))
    if gated < 90:
        failures.append(("irreducibility gate passed only %d of 100" % gated,))
    closed = charvar_dims(2, [2])
    if closed.hom_dims != (9,):
        failures.append(("hom", closed.hom_dims))
    if closed.char_dims != (6,):
        failures.append(("char", closed.char_dims))
    if charvar_dims(2, [3]).char_dims != (16,):
        failures.append(("char-rank3", charvar_dims(2, [3]).char_dims))
    if charvar_dims(2, [2], "GL").tangent != 10:
        failures.append(("gl-tangent", charvar_dims(2, [2], "GL").tangent))
    return _result(
        8,
        "tangent-charvar",
        failures,
        "100 seeded SL2 points (%d passed the gate, each with h1 = 6) "
        "plus the four closed-form values" % gated,
    )


# ---------------------------------------------------------------------------
# 9: punctured plane suite


def criterion_cstar(seed: int = DEFAULT_SEED) -> CriterionResult:
    """b1 = n + C(n,2), and b1 and twisted h1 against the plane pure braid
    group on one more strand: its Smith form, and Fox calculus at the
    pulled back character."""
    rng = seeded_rng(seed + 9)
    space = SpaceSpec.parse("c-star")
    alphabet = catalog("free:1").alphabet
    failures = []
    for n in range(2, 7):
        rep = b1_pure_braid(space, n)
        expected = n + math.comb(n, 2)
        if rep.free_rank != expected or rep.torsion != ():
            failures.append((n, "b1", rep.free_rank, rep.torsion))
        plane = abelianization(catalog("artin_pure:%d" % (n + 1)))
        if plane.torsion or not plane.rank == rep.free_rank == math.comb(n + 1, 2):
            failures.append((n, "b1 artin_pure", rep.free_rank, plane.rank, plane.torsion))
    unchecked = 0
    for i in range(200):
        n = 2 + (i % 3)
        rho = random_character_tuple(alphabet, n, rng, max_order=12, pair_bias=0.3)
        got = h1_twisted_pure_braid(space, n, rho)
        unchecked += _unchecked(space, n, rho, got, failures, "twisted")
    return _result(
        9,
        "cstar-suite",
        failures,
        "b1 for n 2..6 against the closed form n + C(n,2) and against "
        "the abelianization of artin_pure:n+1, free of rank C(n+1,2); 200 "
        "seeded tuples against Fox calculus on artin_pure:n+1; %d with no "
        "independent route" % unchecked,
    )


# ---------------------------------------------------------------------------
# 10: the verdict table


def criterion_verdict_table(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Full enumeration matches the theorem; anchors match the table."""
    anchor_values = set(ANCHORS.values())
    failures = []
    specs = [
        "sphere",
        "plane",
        "disk",
        "c-star",
        "genus:1",
        "genus:2",
        "genus:3",
        "hyperbolic:2",
    ]
    for spec in specs:
        space = SpaceSpec.parse(spec)
        for n in range(2, 7):
            for flavor in ("pure", "full"):
                verdict = kahler_verdict(space, n, flavor)
                expected = (
                    KAHLER if spec == "sphere" and n <= 3 else NOT_KAHLER
                )
                if verdict.status != expected:
                    failures.append((spec, n, flavor, verdict.status))
                    continue
                if not verdict.trace:
                    failures.append((spec, n, flavor, "empty trace"))
                    continue
                for step in verdict.trace:
                    if step.anchor and step.anchor not in anchor_values:
                        failures.append((spec, n, flavor, "anchor drift"))
                if verdict.status == NOT_KAHLER and not verdict.trace[-1].anchor:
                    failures.append((spec, n, flavor, "unanchored conclusion"))
    return _result(
        10,
        "verdict-table",
        failures,
        "8 space kinds x n 2..6 x pure/full, anchors checked byte for byte",
    )


# ---------------------------------------------------------------------------
# 11: jump locus bidirectionality


def criterion_sigma_bidirectional(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Membership, positive twisted h1, and listed containment agree,
    and h1 matches the independent routes wherever one exists."""
    rng = seeded_rng(seed + 11)
    failures = []
    unchecked = 0
    cases = [
        ("genus:1", surface_presentation(1).alphabet),
        ("genus:2", surface_presentation(2).alphabet),
        ("c-star", catalog("free:1").alphabet),
    ]
    for spec, alphabet in cases:
        space = SpaceSpec.parse(spec)
        for i in range(500):
            n = 2 + (i % 3)
            rho = random_character_tuple(
                alphabet, n, rng, max_order=12, pair_bias=0.35
            )
            h = h1_twisted_pure_braid(space, n, rho)
            report = sigma1_membership(space, n, rho)
            if report.member != (h > 0):
                failures.append((spec, n, i, "member vs h1"))
            if report.member != bool(report.components):
                failures.append((spec, n, i, "member vs components"))
            if report.h1 != h:
                failures.append((spec, n, i, "reported h1 drift"))
            unchecked += _unchecked(space, n, rho, h, failures, spec)
    return _result(
        11,
        "sigma-bidirectional",
        failures,
        "500 seeded tuples per space over genus 1, genus 2 and the "
        "punctured plane, n cycling 2..4; %d with no independent route"
        % unchecked,
    )


# ---------------------------------------------------------------------------
# registry

CRITERIA: tuple[tuple[int, str, Callable[[int], CriterionResult]], ...] = (
    (1, "fox-identity", criterion_fox_identity),
    (2, "snf", criterion_snf),
    (3, "surface-b1", criterion_surface_b1),
    (4, "sphere-b1", criterion_sphere_b1),
    (5, "torus-pair-count", criterion_torus_pair_count),
    (6, "surface-oracle", criterion_surface_oracle),
    (7, "kunneth-cross", criterion_kunneth_cross),
    (8, "tangent-charvar", criterion_tangent),
    (9, "cstar-suite", criterion_cstar),
    (10, "verdict-table", criterion_verdict_table),
    (11, "sigma-bidirectional", criterion_sigma_bidirectional),
)


def run_criteria(
    numbers: Optional[Iterable[int]] = None,
    names: Optional[Iterable[str]] = None,
    seed: int = DEFAULT_SEED,
) -> list[CriterionResult]:
    """Run the criteria selected by number or by name, in table order.

    A criterion runs when its number is in ``numbers`` or its name is in
    ``names``; with neither given, every criterion runs.
    """
    run_all = numbers is None and names is None
    wanted_numbers = set(numbers or ())
    wanted_names = set(names or ())
    unknown_numbers = wanted_numbers - {num for num, _, _ in CRITERIA}
    if unknown_numbers:
        raise InputError("unknown criterion number(s): %s" % sorted(unknown_numbers))
    unknown_names = wanted_names - {name for _, name, _ in CRITERIA}
    if unknown_names:
        raise InputError("unknown criterion name(s): %s" % sorted(unknown_names))
    return [
        func(seed)
        for number, name, func in CRITERIA
        if run_all or number in wanted_numbers or name in wanted_names
    ]
