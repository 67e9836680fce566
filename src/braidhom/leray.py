"""Low degree spectral sequence fragments for configuration spaces.

For n points on a surface (or on the once punctured plane) the
forgetful fibrations give a second page whose bottom corner is spanned
by one class per unordered pair of strands; the differential sends a
pair class to the diagonal cohomology class of that pair of factors.
Everything downstream of that differential lives here: untwisted Betti
numbers with torsion reports, twisted first cohomology dimensions and
the jump locus descriptions and membership tests read off the same
support rule, and the vanishing fact for pulled back top classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .cohomology import abelianization, h1_dim
from .errors import (
    AlphabetMismatchError,
    InputError,
    OutOfRangeError,
    OutOfScopeError,
)
from .exactlin import column_divisors
from .presentations import Character, CharacterTuple, SpaceSpec, _pair_list, catalog


# One bound on the work a strand count may ask for, checked by arithmetic
# before anything is built: it caps the nonzero entries of the pair
# differential, the components of a jump locus and the index pairs of a
# character tuple.  At 2 * 10^5 nonzeros (genus:2 admits n <= 258) the
# Smith form of the sparse pair differential takes about 0.05 s for
# genus >= 1 and 0.3 s for the sphere in process.  End to end in a
# fresh process on a 2-core VM (scripts/b1_edges.py), `b1` takes 0.2 s
# and 43 MiB peak RSS at genus:2 n=258 and at genus:1 n=316, and 0.5 s
# and 90 MiB at sphere n=447.
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
    step = h * h
    rank20 = n + rank01 * step
    block = [(a * h + b, v) for a, b, v in diag.block]
    e1, e2 = diag.e1, diag.e2
    d2 = []
    off = n
    for i, j in pairs:
        col = {i: e1, j: e2}
        for k, v in block:
            col[off + k] = v
        d2.append(col)
        off += step
    return E2Fragment(g, n, rank10, rank01, rank20, tuple(d2))


# ---------------------------------------------------------------------------
# untwisted first Betti numbers

@dataclass(frozen=True)
class B1Report:
    """First Betti number of a pure braid group with the differential
    data backing it: the free rank, the torsion of the differential's
    cokernel, the differential's full divisor list (its length is the
    differential's rank), and any honesty flags about what is asserted
    versus merely computed."""

    free_rank: int
    torsion: tuple[int, ...]
    divisors: tuple[int, ...]
    flags: tuple[str, ...] = ()
    anchors: tuple[str, ...] = ()


def b1_pure_braid(space: SpaceSpec, n: int) -> B1Report:
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    kind = space.kind
    if kind == "genus":
        frag = e2_trivial(space.genus, n)
        divisors = column_divisors(frag.d2)
        assert len(divisors) == frag.rank01, "pair differential lost injectivity"
        assert set(divisors) <= {1}, "pair differential cokernel grew torsion"
        return B1Report(
            frag.rank10, (), divisors, anchors=("pure-braid-h1-surface", "d2-injective")
        )
    if kind == "sphere":
        # at n = 2 the one pair column has divisor 1, so the free rank
        # and the torsion come out 0 and () by the same count
        frag = e2_trivial(0, n)
        divisors = column_divisors(frag.d2)
        if n == 2:
            flag = (
                "the two strand configuration space of the sphere is "
                "simply connected, so the first Betti number is 0"
            )
            anchors = ("diagonal-class-g0",)
        else:
            flag = (
                "the torsion list is the computed cokernel of the pair "
                "differential; only the free rank is asserted in closed form"
            )
            anchors = ("sphere-h1-rank", "sphere-h1-torsion")
        return B1Report(
            frag.rank01 - len(divisors),
            tuple(d for d in divisors if d > 1),
            divisors,
            flags=(flag,),
            anchors=anchors,
        )
    if kind == "c-star":
        # the differential vanishes: the pair classes and the diagonal
        # classes sit in different weights of the mixed structure, so
        # the n factor classes and the C(n,2) pair classes all survive
        return B1Report(n + n * (n - 1) // 2, (), (), anchors=("cstar-h1-rank",))
    raise OutOfScopeError(
        "first Betti reports cover the sphere, closed genus g >= 1 surfaces, "
        "and the once punctured plane; got %r" % kind
    )


# ---------------------------------------------------------------------------
# twisted first cohomology

def factor_presentation(space: SpaceSpec):
    """The factor group whose characters make up a tuple for ``space``:
    the genus g surface group, or the free group of rank one for the
    punctured plane.  Read off the memo of ``catalog``, so the CLI's
    alphabet and the tuple check share one build per space."""
    if space.kind == "genus":
        return catalog("surface:%d" % space.genus)
    if space.kind == "c-star":
        return catalog("free:1")
    raise OutOfScopeError(
        "twisted computations cover closed genus g >= 1 surfaces and the "
        "once punctured plane; got %r" % space.kind
    )


def _check_tuple(space: SpaceSpec, n: int, rho: CharacterTuple) -> None:
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    _check_size(n * (n - 1) // 2, "index pairs of the tuple")
    if rho.n_components != n:
        raise InputError(
            "tuple has %d components for n = %d" % (rho.n_components, n)
        )
    if rho.factor_alphabet != factor_presentation(space).alphabet:
        raise AlphabetMismatchError(
            "tuple components do not live on the factor group's alphabet"
        )


@lru_cache(maxsize=4096)
def _factor_h1(space: SpaceSpec, chi: Character) -> int:
    """First cohomology of the factor group of ``space`` at ``chi``,
    remembered across calls, since tuples on one space share
    components.  Only the support rule reads it; every oracle computes
    h1 on its own.  A call that raises leaves no entry.

    Memory: an entry takes about 0.14 KiB of its own, 0.6 MiB when all
    4096 are full, and points to the caller's character.  At genus 2000
    a character holds 4000 exponents, up to 0.16 MiB, so one call keeps
    no more than the tuple it was given alive, while a process that asks
    about 4096 distinct genus 2000 characters keeps up to 0.65 GiB.
    """
    return h1_dim(factor_presentation(space), chi)


def _support_pair(rho: CharacterTuple) -> Optional[tuple[int, int]]:
    """The index pair whose class lies on the (0,1) spot of the second
    page at a nontrivial tuple: its two characters multiply to the
    trivial one and every other component is trivial.  A nontrivial
    tuple has at most one such pair; None when it has none."""
    moved = [k for k in range(rho.n_components) if not rho.component_trivial(k)]
    if len(moved) == 2 and rho.pair_product_trivial(*moved):
        return moved[0], moved[1]
    return None


def _h1_on_factor(space: SpaceSpec, n: int, rho: CharacterTuple) -> int:
    """The support rule.  h0 of a rank one character is 1 when it is
    trivial and 0 otherwise, so the Kunneth sum over the n factors is h1
    of the one nontrivial component, or 0 when two or more are
    nontrivial; then only the support pair's class can add 1."""
    if rho.is_trivial:
        return b1_pure_braid(space, n).free_rank
    moved = [k for k in range(n) if not rho.component_trivial(k)]
    if len(moved) == 1:
        return _factor_h1(space, rho.component(moved[0]))
    if len(moved) == 2 and rho.pair_product_trivial(*moved):
        # the support pair (see _support_pair)
        return int(_factor_h1(space, rho.component(moved[0])) == 0)
    return 0


def h1_twisted_pure_braid(space: SpaceSpec, n: int, rho: CharacterTuple) -> int:
    """Dimension of the first cohomology of the pure braid group at a
    tuple of factor characters, read off the Leray spectral sequence of
    the inclusion of the configuration space into the n-fold product.

    At the trivial tuple that is the untwisted first Betti number.
    Otherwise the degree (1,0) part is the Kunneth sum of the factor
    profiles, and the only pair class on the (0,1) spot is that of the
    support pair, when the tuple has one.  Its differential is the
    twisted diagonal class in H^1(chi_i) (x) H^1(chi_i^-1), which
    vanishes exactly when the factor has no first cohomology at chi_i:
    over the torus and the punctured plane the pair class survives and
    adds 1, for genus at least 2 it does not.
    """
    _check_tuple(space, n, rho)
    return _h1_on_factor(space, n, rho)


# ---------------------------------------------------------------------------
# jump loci

# one fixed sentence for every payload whose cited statement the support
# rule contradicts: the torus and punctured plane loci from 3 strands on
E2_SUPPORT_FLAG = (
    "for n >= 3 the computed value departs from the cited statement: by "
    "the support rule of the Leray second page a pair of mutually inverse "
    "characters jumps only when every other component is trivial"
)


def _departure_flags(space: SpaceSpec, n: int) -> tuple[str, ...]:
    pairs_cited = space.kind == "c-star" or space.genus == 1
    return (E2_SUPPORT_FLAG,) if pairs_cited and n >= 3 else ()


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
    flags: tuple[str, ...] = ()


_PAIR_AMBIENT = {
    "genus": "character torus of the %d-fold torus group product",
    "c-star": "pulled back character torus of the %d-fold free rank one product",
}


def _sigma1_anchors(space: SpaceSpec) -> tuple[str, ...]:
    if space.kind == "genus":
        if space.genus >= 2:
            return ("sigma1-surface",)
        return ("sigma1-torus", "sigma1-torus-generic")
    if space.kind == "c-star":
        return ("sigma1-cstar",)
    raise OutOfScopeError(
        "jump locus descriptions cover closed genus g >= 1 surfaces and the "
        "once punctured plane; got %r" % space.kind
    )


@lru_cache(maxsize=None)
def _character_torus_dim(space: SpaceSpec) -> int:
    """Dimension of the factor group's character torus: the rank of its
    abelianization."""
    return abelianization(factor_presentation(space)).rank


def sigma1_components(space: SpaceSpec, n: int) -> JumpLocusDescription:
    """The components of the first jump locus of the pure braid group,
    as subsets of the character torus of the factor group product.

    For genus g >= 2 they are the pullbacks of the factor character
    torus along the n projections.  Over the torus and the punctured
    plane they are the support pairs of the twisted dimension: a pair of
    mutually inverse characters with every other component trivial,
    one copy of the factor character torus per index pair.
    """
    if n < 2:
        raise OutOfRangeError("need at least 2 strands, got %r" % n)
    anchors = _sigma1_anchors(space)
    if space.kind == "genus" and space.genus >= 2:
        g = space.genus
        _check_size(n, "jump locus components")
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
            anchors=anchors,
        )
    _check_size(n * (n - 1) // 2, "jump locus components")
    dim = _character_torus_dim(space)
    rest = " and every other component is trivial" if n > 2 else ""
    comps = tuple(
        SigmaComponent(
            "T_%d_%d" % (i + 1, j + 1),
            dim,
            "components %d and %d are mutually inverse%s" % (i + 1, j + 1, rest),
        )
        for i, j in _pair_list(n)
    )
    return JumpLocusDescription(
        _PAIR_AMBIENT[space.kind] % n,
        dim * n,
        comps,
        anchors=anchors,
        flags=_departure_flags(space, n),
    )


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    components: tuple[str, ...]
    h1: int
    trivial: bool
    anchors: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()


def sigma1_membership(space: SpaceSpec, n: int, rho: CharacterTuple) -> MembershipReport:
    """Decide whether a tuple lies in the first jump locus, listing the
    containing components and the twisted dimension that witnesses the
    answer.  The fully trivial tuple is flagged; it lies in every
    component and always jumps."""
    _check_tuple(space, n, rho)
    trivial = rho.is_trivial
    if space.kind == "genus" and space.genus >= 2:
        # pi_i holds the tuples whose components other than i are trivial
        moved = [k for k in range(n) if not rho.component_trivial(k)]
        strands = moved if len(moved) == 1 else range(n) if trivial else ()
        containing = ["pi_%d" % (i + 1) for i in strands]
    elif trivial:
        containing = ["T_%d_%d" % (i + 1, j + 1) for i, j in _pair_list(n)]
    else:
        pair = _support_pair(rho)
        containing = [] if pair is None else ["T_%d_%d" % (pair[0] + 1, pair[1] + 1)]
    return MembershipReport(
        bool(containing),
        tuple(containing),
        _h1_on_factor(space, n, rho),
        trivial,
        anchors=_sigma1_anchors(space),
        flags=_departure_flags(space, n),
    )


# ---------------------------------------------------------------------------
# pulled back top classes

@dataclass(frozen=True)
class PullbackFact:
    value: int
    degree: int


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
