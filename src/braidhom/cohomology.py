"""Twisted cohomology of finitely presented groups in degrees 0 and 1.

Everything here runs off a presentation and a coefficient system (a
one dimensional character with values zeta_N^e, or a representation by
unimodular integer matrices).  H^0 is the joint kernel of the generator
actions minus the identity; H^1 comes from the kernel of the Fox
Jacobian of the relators.  Every rank goes through
``cyclotomic.certified_rank``: at a character the Jacobian has entries
in Z[zeta_N], and at a matrix representation it is an integer matrix,
a matrix over Z[zeta_1] = Z.  Its rank is taken over F_q wherever that
rank is provably exact, and over enough residue maps otherwise (see
``h1_dim``).  Degree one needs no asphericity hypothesis: crossed
homomorphisms modulo principal ones are computed correctly from any
presentation of the group.

The module also carries the closed-form dimension counts for surface
group character varieties, the Kunneth combinator used to assemble
product groups from factor data, and the seeded random samplers that
the acceptance checks draw from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclotomic import certified_rank
from .errors import InputError, OutOfRangeError, PreconditionError
from .exactlin import AbelianProfile, IntMatrix, cokernel_profile, _times
from .presentations import (
    Character,
    CharacterTuple,
    MatrixRep,
    Presentation,
    surface_presentation,
    validate_character,
    validate_matrix_rep,
)


# ---------------------------------------------------------------------------
# abelianization

def abelianization(p: Presentation) -> AbelianProfile:
    """First homology of the presented group with integer coefficients.

    Generators index the rows of the relator exponent matrix, relators
    the columns; the cokernel of that matrix is the abelianization.  The
    matrix is filled in one pass over the letters.
    """
    rows = [[0] * p.num_relators for _ in range(p.num_generators)]
    for j, r in enumerate(p.relators):
        for g, s in r.letters:
            rows[g][j] += s
    return cokernel_profile(IntMatrix(rows, ncols=p.num_relators))


# ---------------------------------------------------------------------------
# coefficient systems
#
# A coefficient system is either a Character (one dimensional, values
# zeta_N^e, handled through integer exponents) or a MatrixRep (unimodular
# integer matrices, the adjoint action included).  A MatrixRep hands out
# the images of a generator and of its inverse as the columns
# :func:`exactlin._times` reads, through ``phi.columns``, built once on
# construction.  The Fox scan and H^0 both read them there; no word is
# evaluated for either.


def _validate(p: Presentation, phi) -> None:
    if isinstance(phi, Character):
        check = validate_character(p, phi)
    else:
        check = validate_matrix_rep(p, phi)
    if not check:
        raise PreconditionError(
            "coefficient system does not satisfy relator %r"
            % p.alphabet.format_word(check.failing_relator)
        )


# ---------------------------------------------------------------------------
# Fox Jacobian

class FoxJacobian:
    """The relator derivative matrix of a presentation at a coefficient
    system.

    ``rows`` holds a (relators * dim) by (generators * dim) matrix,
    ``ncols`` wide; the (r, j) block is the Fox derivative of relator r by
    generator j, evaluated through the coefficient system.  Its kernel
    is the space of 1-cocycles.  At a character (``order`` N) each row is
    sparse, as ``cyclotomic`` stores matrices over Z[zeta_N]: terms
    (j, e, c), c * zeta^e in column j, no (j, e) twice and no c zero.  At
    a matrix representation (``order`` None) rows are dense lists of
    ints.
    """

    __slots__ = ("rows", "ncols", "dim", "order")

    def __init__(self, rows, ncols, dim, order=None):
        self.rows = rows
        self.ncols = ncols
        self.dim = dim
        self.order = order

    def rank(self, upper: Optional[int] = None) -> int:
        """Exact rank, taken over F_q by ``cyclotomic.certified_rank``:
        at a character over Z[zeta_N], at a matrix representation over
        Z = Z[zeta_1].  ``upper``, a proven upper bound, lets the first
        residue map settle it."""
        if not self.rows or not self.ncols:
            return 0
        if self.order is None:
            return _rational_rank(self.rows, self.ncols, upper)
        return certified_rank(self.rows, self.ncols, self.order, upper)[0]

    def nullity(self) -> int:
        return self.ncols - self.rank()


def _rational_rank(rows, ncols: int, upper: Optional[int] = None) -> int:
    """Rank over Q of a dense integer matrix: an integer c in column j is
    the term (j, 0, c) over Z[zeta_1], so the certificate at order 1
    applies."""
    terms = [[(j, 0, x) for j, x in enumerate(row) if x] for row in rows]
    return certified_rank(terms, ncols, 1, upper)[0]


def _character_row(word, exps, order: int) -> list[tuple[int, int, int]]:
    """The Fox derivatives of ``word`` by every generator at the
    character with exponents ``exps`` mod ``order``, as one sparse row.

    Prefix scan on exponents: d(uv) = d(u) + chi(u) d(v) specialises,
    letter by letter, to adding zeta^(prefix) in the letter's column at
    each positive letter and subtracting zeta^(prefix after the letter)
    at each negative one, summed in one dict keyed by (column, exponent);
    terms that cancel are dropped.
    """
    acc: dict[tuple[int, int], int] = {}
    e = 0
    for g, s in word.letters:
        if s == 1:
            acc[g, e] = acc.get((g, e), 0) + 1
            e = (e + exps[g]) % order
        else:
            e = (e - exps[g]) % order
            acc[g, e] = acc.get((g, e), 0) - 1
    return [(g, e, c) for (g, e), c in acc.items() if c]


def _fox_blocks(word, phi, k: int) -> list[list[list]]:
    """Evaluated Fox derivatives of ``word`` by all k generators at a
    matrix representation; the same prefix scan on plain row lists."""
    d = phi.dim
    columns = phi.columns
    prefix = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    deriv = [[[0] * d for _ in range(d)]] * k
    for g, s in word.letters:
        if s == 1:
            deriv[g] = [[a + b for a, b in zip(r, p)] for r, p in zip(deriv[g], prefix)]
            prefix = _times(prefix, columns(g, 1))
        else:
            prefix = _times(prefix, columns(g, -1))
            deriv[g] = [[a - b for a, b in zip(r, p)] for r, p in zip(deriv[g], prefix)]
    return deriv


def fox_jacobian(p: Presentation, phi) -> FoxJacobian:
    """Assemble the Fox Jacobian of ``p`` at the coefficient system
    ``phi`` (Character or MatrixRep).

    Only the alphabets are checked: the relators need not hold at
    ``phi``, and Fox calculus on a single word at an arbitrary
    coefficient system is well defined.  The dimensions built on the
    Jacobian (``h0_dim``, ``h1_dim``, ``tangent_dim_at``) check the
    relators themselves."""
    if phi.alphabet != p.alphabet:
        raise InputError("coefficient alphabet does not match the presentation")
    k = p.num_generators
    if isinstance(phi, Character):
        rows = [_character_row(rel, phi.exponents, phi.order) for rel in p.relators]
        return FoxJacobian(rows, k, 1, order=phi.order)
    d = phi.dim
    rows: list[list] = []
    for rel in p.relators:
        blocks = _fox_blocks(rel, phi, k)
        for i in range(d):
            row = []
            for b in blocks:
                row.extend(b[i])
            rows.append(row)
    return FoxJacobian(rows, k * d, d)


# ---------------------------------------------------------------------------
# dimensions

def _h0_unchecked(p: Presentation, phi) -> int:
    if isinstance(phi, Character):
        return 1 if phi.is_trivial else 0
    k = p.num_generators
    d = phi.dim
    if k == 0:
        return d
    # the invariants are the joint kernel of the phi(g) - I, whose
    # stacked rank is that of its d x kd transpose: row i holds column i
    # of every phi(g) - I, read straight off the columns
    images = [phi.columns(g, 1) for g in range(k)]
    rows = []
    for i in range(d):
        row = []
        for cols in images:
            row.extend(cols[i])
        for j in range(i, k * d, d):
            row[j] -= 1
        rows.append(row)
    return d - _rational_rank(rows, k * d)


def h0_dim(p: Presentation, phi) -> int:
    """Dimension of the invariant subspace of the coefficient system."""
    _validate(p, phi)
    return _h0_unchecked(p, phi)


def h1_dim(p: Presentation, phi) -> int:
    """Dimension of first cohomology with coefficients in ``phi``.

    Computed as dim ker(Fox Jacobian) minus the dimension of principal
    crossed homomorphisms, dim V - h0.

    At a character the Jacobian (relators by k generators) has entries
    in Z[zeta_N].  The coboundaries form a (1 - h0) dimensional subspace
    of its kernel, so its rank is at most min(#relators, k - 1 + h0).
    Its rank over F_q is a lower bound; where the two meet, as at every
    nontrivial surface character and at generic product characters, the
    F_q rank is exact.  Elsewhere the rank over Q(zeta_N) is read off
    enough residue maps to F_q to be exact by a norm bound.  At a matrix
    representation of dimension d the same argument runs at order 1,
    with the bound k*d - (d - h0).
    """
    _validate(p, phi)
    jac = fox_jacobian(p, phi)
    h0 = _h0_unchecked(p, phi)
    d = jac.dim
    rank = jac.rank(upper=jac.ncols - (d - h0))
    return (jac.ncols - rank) - (d - h0)


def kunneth_h1(profiles: Sequence[tuple[int, int]]) -> int:
    """First cohomology of a product from factor (h0, h1) pairs:
    sum over i of h1_i times the product of the other factors' h0."""
    profiles = list(profiles)
    if not profiles:
        raise InputError("at least one factor profile is required")
    total = 0
    for i, (_, h1i) in enumerate(profiles):
        term = h1i
        for j, (h0j, _) in enumerate(profiles):
            if j != i:
                term *= h0j
        total += term
    return total


@dataclass(frozen=True)
class CohomologyProfile:
    """Betti numbers of a coefficient system in low degrees; h2 is only
    filled in for closed surface groups, where duality supplies it."""

    h0: int
    h1: int
    h2: Optional[int] = None
    euler: Optional[int] = None

    def __post_init__(self):
        if self.h2 is not None and self.euler is not None:
            if self.euler != self.h0 - self.h1 + self.h2:
                raise InputError("euler characteristic disagrees with h0 - h1 + h2")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.h0, self.h1)


def surface_profile(g: int, chi: Character) -> CohomologyProfile:
    """Full (h0, h1, h2) profile of a closed genus g surface group at a
    character, with h2 supplied by duality as h0 of the inverse
    character.  The Euler characteristic 2(1-g) dim V is asserted."""
    if g < 1:
        raise OutOfRangeError("surface profiles need genus at least 1")
    p = surface_presentation(g)
    h1 = h1_dim(p, chi)
    h0 = _h0_unchecked(p, chi)
    h2 = _h0_unchecked(p, chi.inverse())
    euler = h0 - h1 + h2
    assert euler == 2 * (1 - g), "euler characteristic drifted from 2(1-g)"
    return CohomologyProfile(h0, h1, h2, euler)


# ---------------------------------------------------------------------------
# character variety dimension counts

@dataclass(frozen=True)
class CharVarDims:
    """Closed-form dimensions attached to a genus g surface group and a
    list of factor ranks: per-factor representation space dimensions,
    per-factor character variety dimensions, and the total tangent
    space dimension (which for the GL flavor adds the abelian
    determinant directions, 2g per factor)."""

    genus: int
    ranks: tuple[int, ...]
    flavor: str
    hom_dims: tuple[int, ...]
    char_dims: tuple[int, ...]
    tangent: int


def charvar_dims(g: int, ranks: Sequence[int], flavor: str = "SL") -> CharVarDims:
    if flavor not in ("SL", "GL"):
        raise InputError("flavor must be SL or GL, got %r" % flavor)
    if g < 2:
        raise OutOfRangeError(
            "character variety dimension formulas require genus at least 2"
        )
    ranks = tuple(ranks)
    if not ranks or any(r < 1 for r in ranks):
        raise InputError("ranks must be a nonempty list of positive integers")
    hom_dims = tuple((r * r - 1) * (2 * g - 1) for r in ranks)
    char_dims = tuple(2 * (r * r - 1) * (g - 1) for r in ranks)
    tangent = sum(char_dims)
    if flavor == "GL":
        tangent += 2 * g * len(ranks)
    return CharVarDims(g, ranks, flavor, hom_dims, char_dims, tangent)


@dataclass(frozen=True)
class TangentReport:
    """Cocycle and cohomology dimensions of the adjoint representation
    at a point: z1 is the tangent dimension of the representation
    space, h1 the tangent dimension of the character variety, and
    h0_ad the dimension of the centralizer (zero certifies
    irreducibility)."""

    z1: int
    h1: int
    h0_ad: int


def tangent_dim_at(p: Presentation, rho: MatrixRep) -> TangentReport:
    """Tangent dimensions at ``rho`` through the conjugation action on
    trace zero matrices."""
    _validate(p, rho)
    ad = rho.adjoint_rep()
    jac = fox_jacobian(p, ad)
    z1 = jac.nullity()
    h0_ad = _h0_unchecked(p, ad)
    h1 = z1 - (ad.dim - h0_ad)
    return TangentReport(z1, h1, h0_ad)


# ---------------------------------------------------------------------------
# seeded samplers

def seeded_rng(seed: int) -> random.Random:
    """The one RNG constructor used everywhere; all sampling below is a
    deterministic function of the Random instance handed in."""
    return random.Random(seed)


def random_character(
    alphabet,
    rng: random.Random,
    max_order: int = 12,
    nontrivial: bool = False,
) -> Character:
    """Uniform-ish character: order N drawn from 1..max_order, then one
    exponent mod N per generator.  ``nontrivial`` rejects the trivial
    outcome (and so needs max_order >= 2 and a nonempty alphabet)."""
    if max_order < 1:
        raise InputError("max_order must be positive")
    if nontrivial and (max_order < 2 or len(alphabet) == 0):
        raise InputError("no nontrivial character exists under these constraints")
    while True:
        order = rng.randint(2 if nontrivial else 1, max_order)
        exps = [rng.randrange(order) for _ in range(len(alphabet))]
        if not nontrivial or any(exps):
            return Character(alphabet, order, exps)


def random_character_tuple(
    alphabet,
    n: int,
    rng: random.Random,
    max_order: int = 12,
    pair_bias: float = 0.0,
) -> CharacterTuple:
    """Tuple of n characters on a common alphabet.  With probability
    ``pair_bias`` a component is drawn as the inverse of an earlier
    one, which seeds the pair-cancellation events the jump locus tests
    look for.

    One cyclotomy ``N <= max_order`` is drawn for the whole tuple and
    every component lives in it.  Drawing orders per component would
    put the tuple in the field of their lcm, whose degree explodes;
    keeping N shared keeps exact arithmetic cheap.
    """
    if n < 1:
        raise InputError("need at least one component")
    order = rng.randint(1, max_order)
    components: list[Character] = []
    for _ in range(n):
        if components and rng.random() < pair_bias:
            components.append(rng.choice(components).inverse())
        else:
            exps = [rng.randrange(order) for _ in range(len(alphabet))]
            components.append(Character(alphabet, order, exps))
    return CharacterTuple(components)


def _elementary(rng: random.Random, spread: int, lower: bool) -> list[list[int]]:
    # the rows of an elementary matrix whose off-diagonal entry is a
    # uniform nonzero value in [-spread, spread], without listing them
    a = rng.randrange(-spread, spread)
    a += a >= 0
    if lower:
        return [[1, 0], [a, 1]]
    return [[1, a], [0, 1]]


def _adjugate(m: IntMatrix) -> IntMatrix:
    # [[d, -b], [-c, a]], the inverse of a 2 x 2 matrix of determinant 1
    (a, b), (c, d) = m.rows
    return IntMatrix([[d, -b], [-c, a]], ncols=2)


def _random_sl2(rng: random.Random, spread: int) -> tuple[IntMatrix, IntMatrix]:
    # an upper and a lower elementary factor in random order, plus an
    # optional third; never triangular, never the identity.  The product
    # has determinant 1, so its inverse is its adjugate.
    first_lower = rng.random() < 0.5
    factors = [
        _elementary(rng, spread, first_lower),
        _elementary(rng, spread, not first_lower),
    ]
    if rng.random() < 0.5:
        factors.append(_elementary(rng, spread, rng.random() < 0.5))
    m = IntMatrix(factors[0], ncols=2)
    for f in factors[1:]:
        m = m @ IntMatrix(f, ncols=2)
    return m, _adjugate(m)


def random_surface_sl2(
    g: int,
    rng: random.Random,
    spread: int = 3,
    presentation: Optional[Presentation] = None,
) -> MatrixRep:
    """Random integer SL2 representation of the closed genus g surface
    group, exact by construction.  ``presentation`` is the genus g
    surface presentation if the caller already holds one, and names the
    generators; it is built here only when none is given.  The relator
    is not evaluated here: :func:`tangent_dim_at` checks it.

    Handles are filled in pairs: a pair (X, Y) of products of
    elementary matrices on one handle, and its conjugate mirror
    (Z Y Z^-1, Z X Z^-1) with Z a power of [X, Y] on the next, so the
    two handle commutators cancel.  An odd leftover handle takes a
    commuting pair (W, W^2).  Genus 1 therefore only ever produces
    commuting (reducible) pairs; the interesting range is g >= 2.  Every
    image has determinant 1, so each inverse is its adjugate, and
    MatrixRep checks each against the identity.
    """
    if g < 1:
        raise OutOfRangeError("need genus at least 1")
    images: list[IntMatrix] = []
    inverses: list[IntMatrix] = []
    for _ in range(g // 2):
        x, xinv = _random_sl2(rng, spread)
        y, yinv = _random_sl2(rng, spread)
        images.extend([x, y])
        inverses.extend([xinv, yinv])
        if rng.randint(0, 1):
            # Z = [X, Y]
            z = x @ y @ xinv @ yinv
            zinv = _adjugate(z)
            mirror = [z @ y @ zinv, z @ x @ zinv]
            images.extend(mirror)
            inverses.extend(_adjugate(m) for m in mirror)
        else:
            images.extend([y, x])
            inverses.extend([yinv, xinv])
    if g % 2:
        w, winv = _random_sl2(rng, spread)
        w2 = w @ w
        images.extend([w, w2])
        inverses.extend([winv, _adjugate(w2)])
    p = surface_presentation(g) if presentation is None else presentation
    return MatrixRep(p.alphabet, images, flavor="SL", inverses=inverses)
