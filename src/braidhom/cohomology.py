"""Twisted cohomology of finitely presented groups in degrees 0 and 1.

Everything here runs off a presentation and a coefficient system (a
one dimensional character with values zeta_N^e, or a rational matrix
representation).  H^0 is the joint kernel of the generator actions
minus the identity; H^1 comes from the kernel of the Fox Jacobian of
the relators.  Every rank goes through ``cyclotomic.certified_rank``:
at a character the Jacobian has entries in Z[zeta_N], and at a rational
representation each row is scaled to integers, a matrix over
Z[zeta_1] = Z.  Its rank is taken over F_q wherever that rank is
provably exact, and over enough residue maps otherwise (see
``h1_dim``).  Degree one needs no asphericity hypothesis: crossed
homomorphisms modulo principal ones are computed correctly from any
presentation of the group.

The module also carries the closed-form dimension counts for surface
group character varieties, the Kunneth combinator used to assemble
product groups from factor data, and the seeded random samplers that
the acceptance checks draw from.
"""

import random
from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from .cyclotomic import certified_rank
from .errors import InputError, OutOfRangeError, PreconditionError
from .exactlin import AbelianProfile, IntMatrix, QMat, cokernel_profile
from .presentations import (
    AdjointRep,
    Character,
    CharacterTuple,
    MatrixRep,
    Presentation,
    surface_presentation,
    validate_character,
    validate_matrix_rep,
)
from .words import generator_word


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
# zeta_N^e, handled through integer exponents) or a MatrixRep /
# AdjointRep (rational matrices).  For the matrix case the images of
# single generators with both signs are assembled once here and shared
# by the Fox Jacobian and H^0.

class _Coefficients:
    __slots__ = ("dim", "_plus", "_minus")

    def __init__(self, phi):
        self.dim = phi.dim
        k = len(phi.alphabet)
        self._plus = [phi.image(g) for g in range(k)]
        self._minus = [phi.word_value(generator_word(g, -1)) for g in range(k)]

    def letter(self, g: int, s: int):
        return self._plus[g] if s == 1 else self._minus[g]


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

    ``rows`` holds a (num_relators * dim) by (num_generators * dim)
    matrix; the (r, j) block is the Fox derivative of relator r by
    generator j, evaluated through the coefficient system.  Its kernel
    is the space of 1-cocycles.  At a character (``order`` N) each entry
    is an element of Z[zeta_N], a mapping from exponents e to integer
    coefficients c standing for the sum of c * zeta^e; at a matrix
    representation (``order`` None) entries are exact rationals, ints
    where the denominator is 1 and Fractions elsewhere.
    """

    __slots__ = ("rows", "ncols", "num_relators", "num_generators", "dim", "order", "_coeff")

    def __init__(self, rows, ncols, num_relators, num_generators, dim, order=None, coeff=None):
        self.rows = rows
        self.ncols = ncols
        self.num_relators = num_relators
        self.num_generators = num_generators
        self.dim = dim
        self.order = order
        self._coeff = coeff

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def rank(self, upper: Optional[int] = None) -> int:
        """Exact rank, taken over F_q by ``cyclotomic.certified_rank``:
        at a character over Z[zeta_N], at a matrix representation over
        Z = Z[zeta_1] once each row is scaled to integers.  ``upper``, a
        proven upper bound, lets the first residue map settle it."""
        if not self.rows or not self.ncols:
            return 0
        if self.order is None:
            return _rational_rank(self.rows, self.ncols, upper)
        return certified_rank(self.rows, self.ncols, self.order, upper)[0]

    def nullity(self) -> int:
        return self.ncols - self.rank()


def _rational_rank(rows, ncols: int, upper: Optional[int] = None) -> int:
    """Rank over Q of a matrix of ints and Fractions.  Scaling a row by
    the lcm of its denominators keeps the rank, and an integer c is the
    element {0: c} of Z[zeta_1], so the certificate at order 1 applies."""
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scaled.append([{0: x.numerator * (den // x.denominator)} if x else {} for x in row])
    return certified_rank(scaled, ncols, 1, upper)[0]


def _character_blocks(word, exps, order: int, k: int) -> list[dict]:
    """Fox derivatives of ``word`` by all k generators at the character
    with exponents ``exps`` mod ``order``.

    Prefix scan on exponents: d(uv) = d(u) + chi(u) d(v) specialises,
    letter by letter, to adding zeta^(prefix) at each positive letter
    and subtracting zeta^(prefix after the letter) at each negative one.
    """
    deriv: list[dict] = [{} for _ in range(k)]
    e = 0
    for g, s in word.letters:
        d = deriv[g]
        if s == 1:
            d[e] = d.get(e, 0) + 1
            e = (e + exps[g]) % order
        else:
            e = (e - exps[g]) % order
            d[e] = d.get(e, 0) - 1
    return [{x: c for x, c in d.items() if c} for d in deriv]


def _fox_blocks(word, coeff: _Coefficients, k: int):
    """Evaluated Fox derivatives of ``word`` by all k generators at a
    matrix representation; the same prefix scan on matrices."""
    one = QMat.identity(coeff.dim)
    zero = QMat.zeros(coeff.dim)
    deriv = [zero] * k
    prefix = one
    for g, s in word.letters:
        if s == 1:
            deriv[g] = deriv[g] + prefix
            prefix = prefix * coeff.letter(g, 1)
        else:
            prefix = prefix * coeff.letter(g, -1)
            deriv[g] = deriv[g] - prefix
    return deriv


def fox_jacobian(p: Presentation, phi, validated: bool = False) -> FoxJacobian:
    """Assemble the Fox Jacobian of ``p`` at the coefficient system
    ``phi`` (Character, MatrixRep, or AdjointRep)."""
    if phi.alphabet != p.alphabet:
        raise InputError("coefficient alphabet does not match the presentation")
    if not validated:
        _validate(p, phi)
    k = p.num_generators
    if isinstance(phi, Character):
        rows = [
            _character_blocks(rel, phi.exponents, phi.order, k) for rel in p.relators
        ]
        return FoxJacobian(rows, k, p.num_relators, k, 1, order=phi.order)
    coeff = _Coefficients(phi)
    d = coeff.dim
    rows: list[list] = []
    for rel in p.relators:
        blocks = _fox_blocks(rel, coeff, k)
        for i in range(d):
            row = []
            for b in blocks:
                row.extend(b.rows[i])
            rows.append(row)
    return FoxJacobian(rows, k * d, p.num_relators, k, d, coeff=coeff)


# ---------------------------------------------------------------------------
# dimensions

def _h0_unchecked(p: Presentation, phi, coeff: Optional[_Coefficients] = None) -> int:
    if isinstance(phi, Character):
        return 1 if phi.is_trivial else 0
    if coeff is None:
        coeff = _Coefficients(phi)
    k = p.num_generators
    d = coeff.dim
    if k == 0:
        return d
    rows = []
    ident = QMat.identity(d)
    for g in range(k):
        delta = coeff.letter(g, 1) - ident
        rows.extend(delta.rows)
    return d - _rational_rank(rows, d)


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
    jac = fox_jacobian(p, phi, validated=True)
    h0 = _h0_unchecked(p, phi, jac._coeff)
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
    _validate(p, chi)
    h0 = _h0_unchecked(p, chi)
    h1 = h1_dim(p, chi)
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
    jac = fox_jacobian(p, ad, validated=True)
    z1 = jac.nullity()
    h0_ad = _h0_unchecked(p, ad, jac._coeff)
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


def _elementary(rng: random.Random, spread: int, lower: bool) -> QMat:
    # a uniform nonzero value in [-spread, spread], without listing them
    a = rng.randrange(-spread, spread)
    a += a >= 0
    if lower:
        return QMat([[1, 0], [a, 1]])
    return QMat([[1, a], [0, 1]])


def _random_sl2(rng: random.Random, spread: int) -> QMat:
    # an upper and a lower elementary factor in random order, plus an
    # optional third; never triangular, never the identity
    first_lower = rng.random() < 0.5
    m = _elementary(rng, spread, first_lower) * _elementary(
        rng, spread, not first_lower
    )
    if rng.random() < 0.5:
        m = m * _elementary(rng, spread, rng.random() < 0.5)
    return m


def random_surface_sl2(g: int, rng: random.Random, spread: int = 3) -> MatrixRep:
    """Random integer SL2 representation of the closed genus g surface
    group, exact by construction.

    Handles are filled in pairs: a pair (X, Y) of products of
    elementary matrices on one handle, and its conjugate mirror
    (Z Y Z^-1, Z X Z^-1) with Z a power of [X, Y] on the next, so the
    two handle commutators cancel.  An odd leftover handle takes a
    commuting pair (W, W^2).  Genus 1 therefore only ever produces
    commuting (reducible) pairs; the interesting range is g >= 2.
    """
    if g < 1:
        raise OutOfRangeError("need genus at least 1")
    images: list[QMat] = []
    for _ in range(g // 2):
        x = _random_sl2(rng, spread)
        y = _random_sl2(rng, spread)
        comm = x * y * x.inverse() * y.inverse()
        z = QMat.identity(2)
        for _ in range(rng.randint(0, 1)):
            z = z * comm
        zinv = z.inverse()
        images.extend([x, y, z * y * zinv, z * x * zinv])
    if g % 2:
        w = _random_sl2(rng, spread)
        images.extend([w, w * w])
    p = surface_presentation(g)
    rep = MatrixRep(p.alphabet, images, flavor="SL")
    assert validate_matrix_rep(p, rep), "sampler emitted a non-representation"
    return rep
