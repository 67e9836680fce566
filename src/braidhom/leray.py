"""Low degree spectral sequence fragments for configuration spaces.

For n points on a surface (or on the once punctured plane) the
forgetful fibrations give a second page whose bottom corner is spanned
by one class per unordered pair of strands; the differential sends a
pair class to the diagonal cohomology class of that pair of factors.
Everything downstream of that differential lives here: untwisted Betti
numbers with torsion reports, twisted first cohomology dimensions,
jump locus descriptions with membership tests, surjection exclusions,
and the vanishing fact for pulled back top classes.
"""

from dataclasses import dataclass

from .cohomology import h0_dim, h1_dim, kunneth_h1
from .errors import (
    AlphabetMismatchError,
    InputError,
    OutOfRangeError,
    OutOfScopeError,
)
from .exactlin import column_divisors
from .presentations import CharacterTuple, SpaceSpec, _pair_list, catalog


# One bound on the work a strand count may ask for, checked by arithmetic
# before anything is built: it caps the nonzero entries of the pair
# differential, the components of a jump locus and the index pairs of a
# character tuple.  At 2 * 10^5 nonzeros the Smith form of the sparse
# pair differential takes about a second (genus:2 admits n <= 258).
_SIZE_LIMIT = 200_000


def _check_size(count: int, what: str) -> None:
    if count > _SIZE_LIMIT:
        raise OutOfRangeError(
            "%s number %d; they are limited to %d" % (what, count, _SIZE_LIMIT)
        )


# ---------------------------------------------------------------------------
# the diagonal class

@dataclass(frozen=True)
class DiagonalClass:
    """Coordinates of the diagonal of a two-fold surface product in the
    product basis of its degree two cohomology: the coefficients on the
    two orientation classes and the nonzero (row, col, value) entries of
    a 2g x 2g integer block on the product of the degree one parts."""

    genus: int
    e1: int
    e2: int
    block: tuple[tuple[int, int, int], ...]


def diagonal_class(g: int) -> DiagonalClass:
    """The diagonal class in genus g.

    Both orientation coefficients are 1.  For g >= 1 the degree one
    block pairs each symplectic basis vector with its partner with
    opposite signs, giving determinant one; for g = 0 the block is
    empty and the class is just the sum of the orientation classes.
    """
    if g < 0:
        raise InputError("genus must be nonnegative, got %r" % g)
    block = []
    for k in range(g):
        block.append((2 * k, 2 * k + 1, 1))
        block.append((2 * k + 1, 2 * k, -1))
    return DiagonalClass(g, 1, 1, tuple(block))


# ---------------------------------------------------------------------------
# second page fragments

@dataclass(frozen=True)
class E2Fragment:
    """The corner of the second page that controls degree one: the
    degree (1,0), (0,1) and (2,0) ranks, and the differential out of
    (0,1) as one {row: nonzero entry} column per pair class, in pair
    order.  Rows 0..n-1 are the orientation classes of the factors; the
    pair with index c owns the (2g)^2 rows from n + c (2g)^2 on."""

    genus: int
    n: int
    rank10: int
    rank01: int
    rank20: int
    d2: tuple[dict[int, int], ...]
    coefficients: str = "trivial"


def e2_trivial(g: int, n: int) -> E2Fragment:
    """Second page fragment for n points on a closed genus g surface
    with trivial coefficients."""
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    if g < 0:
        raise InputError("genus must be nonnegative, got %r" % g)
    h = 2 * g
    rank01 = n * (n - 1) // 2
    _check_size(rank01 * (2 + h), "nonzero entries of the pair differential")
    diag = diagonal_class(g)
    pairs = _pair_list(n)
    rank10 = h * n
    rank20 = n + rank01 * h * h
    block = [(a * h + b, v) for a, b, v in diag.block]
    d2 = []
    for c, (i, j) in enumerate(pairs):
        col = {i: diag.e1, j: diag.e2}
        off = n + c * h * h
        for k, v in block:
            col[off + k] = v
        d2.append(col)
    return E2Fragment(g, n, rank10, rank01, rank20, tuple(d2))


# ---------------------------------------------------------------------------
# untwisted first Betti numbers

@dataclass(frozen=True)
class B1Report:
    """First Betti number of a pure braid group with the differential
    data backing it: the free rank, the torsion of the differential's
    cokernel, the differential's rank and full divisor list, and any
    honesty flags about what is asserted versus merely computed."""

    space: SpaceSpec
    n: int
    free_rank: int
    torsion: tuple[int, ...]
    d2_rank: int
    divisors: tuple[int, ...]
    ranks: tuple[int, int, int]
    flags: tuple[str, ...] = ()
    anchors: tuple[str, ...] = ()


def b1_pure_braid(space: SpaceSpec, n: int) -> B1Report:
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    kind = space.kind
    if kind == "genus":
        frag = e2_trivial(space.genus, n)
        divisors = column_divisors(frag.d2)
        rank = len(divisors)
        assert rank == frag.rank01, "pair differential lost injectivity"
        assert set(divisors) <= {1}, "pair differential cokernel grew torsion"
        return B1Report(
            space,
            n,
            frag.rank10,
            (),
            rank,
            divisors,
            (frag.rank10, frag.rank01, frag.rank20),
            anchors=("pure-braid-h1-surface", "d2-injective"),
        )
    if kind == "sphere":
        frag = e2_trivial(0, n)
        divisors = column_divisors(frag.d2)
        rank = len(divisors)
        torsion = tuple(d for d in divisors if d > 1)
        if n == 2:
            return B1Report(
                space,
                n,
                0,
                (),
                rank,
                divisors,
                (0, frag.rank01, frag.rank20),
                flags=(
                    "the two strand configuration space of the sphere is "
                    "simply connected, so the first Betti number is 0",
                ),
                anchors=("diagonal-class-g0",),
            )
        free = frag.rank01 - rank
        return B1Report(
            space,
            n,
            free,
            torsion,
            rank,
            divisors,
            (0, frag.rank01, frag.rank20),
            flags=(
                "the torsion list is the computed cokernel of the pair "
                "differential; only the free rank is asserted in closed form",
            ),
            anchors=("sphere-h1-rank", "sphere-h1-torsion"),
        )
    if kind == "c-star":
        # the differential vanishes: the pair classes and the diagonal
        # classes sit in different weights of the mixed structure, so
        # the n factor classes and the C(n,2) pair classes all survive
        pairs = n * (n - 1) // 2
        return B1Report(
            space,
            n,
            n + pairs,
            (),
            0,
            (),
            (n, pairs, pairs),
            anchors=("cstar-h1-rank",),
        )
    raise OutOfScopeError(
        "first Betti reports cover the sphere, closed genus g >= 1 surfaces, "
        "and the once punctured plane; got %r" % kind
    )


# ---------------------------------------------------------------------------
# twisted first cohomology

def factor_presentation(space: SpaceSpec):
    """The factor group whose characters make up a tuple for ``space``:
    the genus g surface group, or the free group of rank one for the
    punctured plane."""
    if space.kind == "genus":
        return catalog("surface:%d" % space.genus)
    if space.kind == "c-star":
        return catalog("free:1")
    raise OutOfScopeError(
        "twisted computations cover closed genus g >= 1 surfaces and the "
        "once punctured plane; got %r" % space.kind
    )


def _check_tuple(space: SpaceSpec, n: int, rho: CharacterTuple):
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    _check_size(n * (n - 1) // 2, "index pairs of the tuple")
    if rho.n_components != n:
        raise InputError(
            "tuple has %d components for n = %d" % (rho.n_components, n)
        )
    factor = factor_presentation(space)
    if rho.factor_alphabet != factor.alphabet:
        raise AlphabetMismatchError(
            "tuple components do not live on the factor group's alphabet"
        )
    return factor


def _trivial_pair_count(rho: CharacterTuple) -> int:
    n = rho.n_components
    return sum(1 for i, j in _pair_list(n) if rho.pair_product_trivial(i, j))


def h1_twisted_pure_braid(space: SpaceSpec, n: int, rho: CharacterTuple) -> int:
    """Dimension of the first cohomology of the pure braid group at a
    tuple of factor characters.

    The recipe is the degree (1,0) dimension (a Kunneth sum of factor
    profiles) plus the number of index pairs whose characters cancel,
    minus the rank of the twisted pair differential.  For genus at
    least 2 the differential has full rank on the matching pairs; over
    the torus and the punctured plane it vanishes.  The fully trivial
    tuple over the torus is routed to the untwisted Betti number, where
    the differential is injective rather than zero.
    """
    factor = _check_tuple(space, n, rho)
    genus = space.genus if space.kind == "genus" else None
    if genus == 1 and rho.is_trivial:
        return b1_pure_braid(space, n).free_rank
    profiles = []
    for i in range(n):
        chi = rho.component(i)
        profiles.append((h0_dim(factor, chi), h1_dim(factor, chi)))
    kunneth = kunneth_h1(profiles)
    pairs = _trivial_pair_count(rho)
    d2_rank = pairs if (genus is not None and genus >= 2) else 0
    return kunneth + pairs - d2_rank


# ---------------------------------------------------------------------------
# jump loci

@dataclass(frozen=True)
class SigmaComponent:
    label: str
    dimension: int
    condition: str


@dataclass(frozen=True)
class JumpLocusDescription:
    ambient: str
    ambient_dim: int
    components: tuple[SigmaComponent, ...]
    anchors: tuple[str, ...] = ()


def sigma1_components(space: SpaceSpec, n: int) -> JumpLocusDescription:
    """The components of the first jump locus of the pure braid group,
    as subsets of the character torus of the factor group product."""
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    if space.kind in ("genus", "c-star"):
        per_strand = space.kind == "genus" and space.genus >= 2
        _check_size(n if per_strand else n * (n - 1) // 2, "jump locus components")
    if space.kind == "genus":
        g = space.genus
        if g >= 2:
            comps = tuple(
                SigmaComponent(
                    "pi_%d" % (i + 1),
                    2 * g,
                    "every component other than %d is trivial" % (i + 1),
                )
                for i in range(n)
            )
            return JumpLocusDescription(
                "character torus of the %d-fold genus %d surface group product"
                % (n, g),
                2 * g * n,
                comps,
                anchors=("sigma1-surface",),
            )
        comps = tuple(
            SigmaComponent(
                "T_%d_%d" % (i + 1, j + 1),
                2 * n - 2,
                "components %d and %d are mutually inverse" % (i + 1, j + 1),
            )
            for i, j in _pair_list(n)
        )
        return JumpLocusDescription(
            "character torus of the %d-fold torus group product" % n,
            2 * n,
            comps,
            anchors=("sigma1-torus", "sigma1-torus-generic"),
        )
    if space.kind == "c-star":
        comps = tuple(
            SigmaComponent(
                "T_%d_%d" % (i + 1, j + 1),
                n - 1,
                "components %d and %d are mutually inverse" % (i + 1, j + 1),
            )
            for i, j in _pair_list(n)
        )
        return JumpLocusDescription(
            "pulled back character torus of the %d-fold free rank one product"
            % n,
            n,
            comps,
            anchors=("sigma1-cstar",),
        )
    raise OutOfScopeError(
        "jump locus descriptions cover closed genus g >= 1 surfaces and the "
        "once punctured plane; got %r" % space.kind
    )


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    components: tuple[str, ...]
    h1: int
    trivial: bool
    anchors: tuple[str, ...] = ()


def sigma1_membership(space: SpaceSpec, n: int, rho: CharacterTuple) -> MembershipReport:
    """Decide whether a tuple lies in the first jump locus, listing the
    containing components and the twisted dimension that witnesses the
    answer.  The fully trivial tuple is flagged; it lies in every
    component and always jumps."""
    _check_tuple(space, n, rho)
    desc = sigma1_components(space, n)
    containing: list[str] = []
    if space.kind == "genus" and space.genus >= 2:
        for i in range(n):
            if all(rho.component_trivial(j) for j in range(n) if j != i):
                containing.append("pi_%d" % (i + 1))
    else:
        for i, j in _pair_list(n):
            if rho.pair_product_trivial(i, j):
                containing.append("T_%d_%d" % (i + 1, j + 1))
    h1 = h1_twisted_pure_braid(space, n, rho)
    return MembershipReport(
        bool(containing),
        tuple(containing),
        h1,
        rho.is_trivial,
        anchors=desc.anchors,
    )


# ---------------------------------------------------------------------------
# surjection exclusions

@dataclass(frozen=True)
class ExclusionReport:
    excluded: bool
    reason: str
    comparison: str = ""
    conditional: bool = False
    anchors: tuple[str, ...] = ()


def surjection_excluded(space: SpaceSpec, n: int, h: int) -> ExclusionReport:
    """Whether the jump locus dimension arguments rule out a surjection
    from the pure braid group onto a closed surface group of genus h."""
    if h < 2:
        raise OutOfScopeError(
            "the exclusion arguments concern surface targets of genus >= 2"
        )
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    if space.kind == "genus":
        g = space.genus
        if g >= 2:
            excluded = h > g
            if excluded:
                reason = (
                    "the pulled back character variety would be a 2h "
                    "dimensional subtorus of a jump locus whose components "
                    "have dimension 2g"
                )
            else:
                reason = "the target genus fits inside a component"
            return ExclusionReport(
                excluded,
                reason,
                "2h = %d versus 2g = %d" % (2 * h, 2 * g),
                anchors=("surjection-genus-bound",),
            )
        if n >= 3:
            excluded = h >= n - 1
            if excluded:
                reason = (
                    "a pulled back character variety of dimension 2h cannot "
                    "sit inside the pair subtori without forcing the generic "
                    "twisted dimension above 1"
                )
            else:
                reason = "the target genus is below the pair torus threshold"
            return ExclusionReport(
                excluded,
                reason,
                "h = %d versus n - 1 = %d" % (h, n - 1),
                anchors=("surjection-torus-bound", "sigma1-torus-generic"),
            )
        return ExclusionReport(
            False,
            "the pair torus argument needs at least 3 strands",
            "n = 2",
            anchors=("sigma1-torus",),
        )
    if space.kind == "c-star":
        return ExclusionReport(
            False,
            "only surjections whose pulled back character variety contains "
            "a pair subtorus are excluded; the report is conditional on that "
            "containment",
            "pair subtorus dimension n - 1 = %d" % (n - 1),
            conditional=True,
            anchors=("surjection-cstar-conditional",),
        )
    raise OutOfScopeError(
        "surjection exclusions cover closed genus g >= 1 surfaces and the "
        "once punctured plane; got %r" % space.kind
    )


# ---------------------------------------------------------------------------
# pulled back top classes

@dataclass(frozen=True)
class PullbackFact:
    value: int
    degree: int
    anchors: tuple[str, ...] = ("pullback-vanishing",)


def pullback_vanishing(g: int, n: int, m: int) -> PullbackFact:
    """The rank of the pullback of the degree 2m cohomology of the
    m-fold surface product to the pure braid group: zero throughout the
    supported range.  No contradicting computation exists in this
    package; higher degrees are not computed at all."""
    if g < 1:
        raise InputError("genus must be at least 1, got %r" % g)
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    if not 2 <= m <= n:
        raise OutOfRangeError("the vanishing range is 2 <= m <= n, got %r" % m)
    return PullbackFact(0, 2 * m)
