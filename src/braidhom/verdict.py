"""Decision rules: is a braid group of a given space a Kahler group?

The entry point ``kahler_verdict`` maps (space, strand count, pure or
full flavor) to a status plus an ordered trace of steps.  Every step
cites one statement from the anchor table by exact text, and whenever a
step quotes a numeric fact (a first Betti number, a jump locus component
dimension, an excluded surjection) the witness value is recomputed
through the spectral sequence module, so traces cannot drift from the
calculators.

Rule ids used in traces:

  R1  noncompact surfaces with free fundamental group (plane, disk,
      hyperbolic): ends obstruction, with the two strand plane case
      settled by parity instead
  R2  sphere with at least four strands: finite index ends obstruction
  R3  sphere with two or three strands: finite, hence Kahler
  R4  closed genus >= 2: fibration factoring pipeline
  R5  closed genus 1: jump locus plus Beauville
  R6  punctured plane, n >= 3: jump locus, Beauville, conditional
      surjection exclusion
  R7  punctured plane, n = 2: odd first Betti number
  R8  full braid groups inherit NotKahler from the pure subgroup
  R9  real dimension >= 3: product and wreath structure
  Q1 / Q2  characteristic p exclusion / out of scope

Status strings are plain ASCII: Kahler, NotKahler, OutOfScope, and
Excluded (the characteristic p analogue of NotKahler).
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from .anchors import anchor_text
from .cohomology import abelianization
from .cyclotomic import is_prime
from .errors import InputError, OutOfScopeError
from .exactlin import AbelianProfile
from .leray import b1_pure_braid, pullback_vanishing, sigma1_components
from .presentations import SpaceSpec, catalog

__all__ = [
    "KAHLER",
    "NOT_KAHLER",
    "OUT_OF_SCOPE",
    "EXCLUDED",
    "TraceStep",
    "Verdict",
    "Obstruction",
    "BeauvilleOutcome",
    "WreathReport",
    "kahler_verdict",
    "parity_obstruction",
    "beauville_obstruction",
    "wreath_facts",
    "charp_verdict",
]

KAHLER = "Kahler"
NOT_KAHLER = "NotKahler"
OUT_OF_SCOPE = "OutOfScope"
EXCLUDED = "Excluded"


@dataclass(frozen=True)
class TraceStep:
    """One step of a verdict trace.

    ``anchor`` is the cited statement copied byte for byte from the
    anchor table; ``text`` says how the statement applies to the inputs
    at hand.  Scope notes that cite no table entry carry an empty
    anchor.
    """

    rule: str
    anchor: str
    text: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "anchor": self.anchor, "text": self.text}


@dataclass(frozen=True)
class Verdict:
    status: str
    trace: tuple[TraceStep, ...]
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "trace": [step.to_json() for step in self.trace],
            "witnesses": dict(self.witnesses),
        }


def _step(rule: str, key: str, text: str) -> TraceStep:
    return TraceStep(rule=rule, anchor=anchor_text(key), text=text)


def _note(rule: str, text: str) -> TraceStep:
    return TraceStep(rule=rule, anchor="", text=text)


# ---------------------------------------------------------------------------
# small obstruction helpers


@dataclass(frozen=True)
class Obstruction:
    kind: str
    detail: str
    anchors: tuple[str, ...]


def parity_obstruction(profile: AbelianProfile) -> Optional[Obstruction]:
    """Odd free rank of first homology rules out a compact Kahler model."""
    if profile.rank % 2 == 0:
        return None
    return Obstruction(
        kind="odd-first-betti",
        detail="first Betti number %d is odd" % profile.rank,
        anchors=("betti-even",),
    )


@dataclass(frozen=True)
class BeauvilleOutcome:
    """What Beauville's theorem says about one untranslated torus component.

    ``kind`` is ``obstruction`` (dimension 2 or odd: no compact Kahler
    manifold has such a component) or ``forced-fibration`` (even
    dimension 2g >= 4: the component must come from a fibration onto a
    genus g curve, handing downstream rules a surjection to exclude).
    """

    kind: str
    dimension: int
    forced_genus: Optional[int]
    anchors: tuple[str, ...]


def beauville_obstruction(dimensions: Sequence[int]) -> Optional[BeauvilleOutcome]:
    """Scan the dimensions of the torus components of a jump locus
    against Beauville's theorem.

    Jump locus components of braid groups are subtori through the
    origin, so every component is untranslated.  A dimension 2 or odd
    dimensional component is an immediate obstruction and wins over any
    fibration conclusion; an even component of dimension >= 4 forces a
    fibration onto a curve of half that genus.  Dimension 0 components
    carry no information.
    """
    for dim in dimensions:
        if dim == 0:
            continue
        if dim == 2 or dim % 2 == 1:
            return BeauvilleOutcome(
                kind="obstruction",
                dimension=dim,
                forced_genus=None,
                anchors=("beauville-untranslated",),
            )
    for dim in dimensions:
        if dim >= 4 and dim % 2 == 0:
            return BeauvilleOutcome(
                kind="forced-fibration",
                dimension=dim,
                forced_genus=dim // 2,
                anchors=("beauville-fibration",),
            )
    return None


# ---------------------------------------------------------------------------
# the surface rule table


def _case_sphere(n: int) -> tuple[str, list[TraceStep], dict]:
    if n <= 3:
        steps = [
            _step(
                "R3",
                "sphere-small-finite",
                "on %d strands the sphere braid groups are %s"
                % (n, "trivial or of order two" if n == 2 else "finite"),
            ),
            _step(
                "R3",
                "finite-projective",
                "a finite group is projective, hence Kahler",
            ),
        ]
        return KAHLER, steps, {}
    steps = [
        _step(
            "R2",
            "sphere-finite-index-ends",
            "for n = %d the pure sphere braid group has a finite index "
            "subgroup built from forgetting strands down to the three "
            "point case" % n,
        ),
        _step(
            "R2",
            "ends-extension",
            "that subgroup surjects onto a nonabelian free group with "
            "finitely generated kernel, so the group is not Kahler",
        ),
    ]
    return NOT_KAHLER, steps, {}


def _case_plane(n: int, preface: str = "") -> tuple[str, list[TraceStep], dict]:
    if n == 2:
        b1 = abelianization(catalog("artin_pure:2")).rank
        steps = [
            _step(
                "R1",
                "plane-artin-extension",
                preface + "on two strands the group is infinite cyclic, "
                "with first Betti number %d" % b1,
            ),
            _step(
                "R1",
                "betti-even",
                "an odd first Betti number is impossible for a compact "
                "Kahler manifold",
            ),
        ]
        return NOT_KAHLER, steps, {"b1": b1}
    steps = [
        _step(
            "R1",
            "plane-artin-extension",
            preface + "forgetting strands down to three exhibits the "
            "group on %d strands as an extension with nonabelian free "
            "image and finitely generated kernel" % n,
        ),
        _step(
            "R1",
            "ends-extension",
            "an extension of a group with infinitely many ends by a "
            "finitely generated group is never Kahler",
        ),
    ]
    return NOT_KAHLER, steps, {}


def _case_hyperbolic_free(k: int, n: int) -> tuple[str, list[TraceStep], dict]:
    steps = [
        _step(
            "R1",
            "free-nonabelian-ends",
            "the fundamental group is free of rank %d >= 2, and "
            "forgetting all but the last strand maps the braid group "
            "onto it with finitely generated kernel" % k,
        ),
        _step(
            "R1",
            "ends-extension",
            "an extension of a group with infinitely many ends by a "
            "finitely generated group is never Kahler",
        ),
    ]
    return NOT_KAHLER, steps, {"free_rank": k}


def _case_genus_high(space: SpaceSpec, n: int) -> tuple[str, list[TraceStep], dict]:
    g = space.genus
    b1 = b1_pure_braid(space, n).free_rank
    pv = pullback_vanishing(g, n, 2).value
    after = 2 * g * (n - 1)
    steps = [
        _step(
            "R4",
            "fibration-factor",
            "assume a compact Kahler manifold had this braid group as "
            "fundamental group; each of the %d strand projections onto "
            "the genus %d surface group would then be induced by a "
            "holomorphic fibration over a genus %d curve" % (n, g, g),
        ),
        _step(
            "R4",
            "h1-iso-pullback",
            "the product of those fibrations pulls degree one cohomology "
            "back isomorphically, matching the computed first Betti "
            "number %d" % b1,
        ),
        _step(
            "R4",
            "h4-pullback-zero",
            "the top class of the product of the first two curves pulls "
            "back to the computed value %d" % pv,
        ),
        _step(
            "R4",
            "proper-pullback-injective",
            "the map to the product of the first two curves therefore "
            "cannot be surjective, so its image is a curve",
        ),
        _step(
            "R4",
            "curve-factor-genus",
            "that image curve has genus exactly %d and both coordinate "
            "projections from it are isomorphisms" % g,
        ),
        _step(
            "R4",
            "dimension-count",
            "the first two factors then contribute %d degree one classes "
            "instead of %d, leaving at most %d of the required %d, a "
            "contradiction" % (2 * g, 4 * g, after, b1),
        ),
    ]
    return NOT_KAHLER, steps, {"b1": b1, "h4_pullback": pv, "rank_after_factoring": after}


def _case_genus_one(space: SpaceSpec, n: int) -> tuple[str, list[TraceStep], dict]:
    locus = sigma1_components(space, n)
    count = len(locus.components)
    dim = locus.components[0].dimension
    outcome = beauville_obstruction([c.dimension for c in locus.components])
    # every computed pair component has the dimension of the torus's own
    # character torus, 2, so Beauville decides every strand count
    assert outcome is not None and outcome.kind == "obstruction"
    steps = [
        _step(
            "R5",
            "sigma1-torus",
            "the computed jump locus consists of %d pair subtori of "
            "dimension %d inside the %d dimensional character torus"
            % (count, dim, locus.ambient_dim),
        ),
        _step(
            "R5",
            "beauville-untranslated",
            "an untranslated torus component of dimension %d is "
            "impossible for a compact Kahler manifold" % dim,
        ),
    ]
    witnesses = {
        "component_count": count,
        "component_dim": dim,
        "ambient_dim": locus.ambient_dim,
    }
    return NOT_KAHLER, steps, witnesses


def _case_cstar(
    space: SpaceSpec, n: int, preface: str = ""
) -> tuple[str, list[TraceStep], dict]:
    if n == 2:
        b1 = b1_pure_braid(space, 2).free_rank
        obstruction = parity_obstruction(AbelianProfile(b1))
        assert obstruction is not None
        steps = [
            _step(
                "R7",
                "cstar-h1-rank",
                preface + "the computed first Betti number of the two "
                "strand pure braid group is %d" % b1,
            ),
            _step(
                "R7",
                "betti-even",
                "an odd first Betti number is impossible for a compact "
                "Kahler manifold",
            ),
        ]
        return NOT_KAHLER, steps, {"b1": b1}
    computed = sigma1_components(space, n).components[0].dimension
    steps = [
        _step(
            "R6",
            "sigma1-cstar",
            preface + "the cited jump locus contains the subtorus of "
            "tuples with trivial total character, of dimension %d; the "
            "computed pair components have dimension %d" % (n - 1, computed),
        ),
        _step(
            "R6",
            "beauville-untranslated",
            "a maximal untranslated torus component containing it can "
            "have neither dimension 2 nor odd dimension, so it would "
            "have even dimension at least 4",
        ),
        _step(
            "R6",
            "beauville-fibration",
            "such a component would be the character pullback of a "
            "fibration onto a curve of genus at least 2, giving a "
            "surjection onto its fundamental group",
        ),
        _step(
            "R6",
            "surjection-cstar-conditional",
            "no surjection whose character pullback contains the pair "
            "subtorus exists, which is exactly the case produced here",
        ),
    ]
    # the exclusion holds only for surjections whose pullback contains
    # a pair subtorus, so the verdict rests on that condition
    witnesses = {
        "component_dim": n - 1,
        "computed_component_dim": computed,
        "conditional_exclusion": True,
    }
    return NOT_KAHLER, steps, witnesses


def _case_higher(
    space: SpaceSpec, n: int, flavor: str
) -> tuple[str, list[TraceStep], dict]:
    facts = wreath_facts(space, n)
    profile = facts.pure_h1 if flavor == "pure" else facts.full_h1
    iso_key = "wreath-pure-iso" if flavor == "pure" else "wreath-full-iso"
    iso_text = (
        "in real dimension %d the %s braid group on %d strands is %s"
        % (
            space.real_dim,
            flavor,
            n,
            "the n-fold product of the fundamental group"
            if flavor == "pure"
            else "the wreath product of the fundamental group by the "
            "symmetric group",
        )
    )
    steps = [_step("R9", iso_key, iso_text)]
    witnesses = {
        "h1_rank": profile.rank,
        "h1_torsion": list(profile.torsion),
        "projective": facts.projective,
    }
    if facts.projective:
        if space.base_kind in ("trivial", "finite"):
            steps.append(
                _step(
                    "R9",
                    "finite-projective",
                    "the base group is %s, so the braid group is built "
                    "from a finite, hence projective, group"
                    % space.base_kind,
                )
            )
        else:
            steps.append(
                _step(
                    "R9",
                    "wreath-projective",
                    "the base group is projective and the complex "
                    "dimension is %d >= 2, so the braid group is "
                    "projective" % space.complex_dim,
                )
            )
        return KAHLER, steps, witnesses
    steps.append(
        _note(
            "R9",
            "the space description does not determine whether the base "
            "group is a projective or Kahler group, so no verdict is "
            "drawn",
        )
    )
    return OUT_OF_SCOPE, steps, witnesses


def kahler_verdict(space: SpaceSpec, n: int, flavor: str = "pure") -> Verdict:
    """Decide whether the braid group of ``space`` on ``n`` strands is Kahler.

    ``flavor`` selects the pure or full braid group.  One strand is out
    of scope (the group is the fundamental group of the space itself).
    Higher dimensional spaces report through the product and wreath
    structure and are Kahler exactly when the description certifies a
    projective base.
    """
    if flavor not in ("pure", "full"):
        raise InputError("flavor must be 'pure' or 'full', got %r" % flavor)
    if n < 1:
        raise InputError("strand count must be at least 1, got %d" % n)
    if n == 1:
        note = _note(
            "scope",
            "one strand gives the fundamental group of the space itself; "
            "braid verdicts start at two strands",
        )
        return Verdict(status=OUT_OF_SCOPE, trace=(note,), witnesses={})

    kind = space.kind
    if kind == "higher-dim":
        status, steps, witnesses = _case_higher(space, n, flavor)
        return Verdict(status=status, trace=tuple(steps), witnesses=witnesses)

    if kind == "sphere":
        status, steps, witnesses = _case_sphere(n)
    elif kind in ("plane", "disk"):
        status, steps, witnesses = _case_plane(n)
    elif kind == "hyperbolic":
        k = space.free_rank
        if k >= 2:
            status, steps, witnesses = _case_hyperbolic_free(k, n)
        elif k == 1:
            preface = (
                "a noncompact hyperbolic surface with free rank 1 is "
                "homotopy equivalent to the once punctured plane; "
            )
            status, steps, witnesses = _case_cstar(
                SpaceSpec.parse("c-star"), n, preface
            )
        else:
            preface = (
                "a simply connected noncompact hyperbolic surface is the "
                "disk; "
            )
            status, steps, witnesses = _case_plane(n, preface)
    elif kind == "genus":
        if space.genus >= 2:
            status, steps, witnesses = _case_genus_high(space, n)
        else:
            status, steps, witnesses = _case_genus_one(space, n)
    elif kind == "c-star":
        status, steps, witnesses = _case_cstar(space, n)
    else:  # pragma: no cover - SpaceSpec already rejects unknown kinds
        raise InputError("no verdict rule for space kind %r" % kind)

    if flavor == "full" and status == NOT_KAHLER:
        steps.append(
            _step(
                "R8",
                "finite-index-kahler",
                "the pure braid group has finite index in the full braid "
                "group, so the full group cannot be Kahler either",
            )
        )
    return Verdict(status=status, trace=tuple(steps), witnesses=witnesses)


# ---------------------------------------------------------------------------
# higher dimensional structure facts


@dataclass(frozen=True)
class WreathReport:
    """Product and wreath structure of braid groups in real dimension >= 3."""

    space: SpaceSpec
    n: int
    pure_h1: AbelianProfile
    full_h1: AbelianProfile
    projective: Optional[bool]
    anchors: tuple[str, ...]
    notes: tuple[str, ...]


def _base_profile(space: SpaceSpec) -> AbelianProfile:
    if space.base_kind == "trivial":
        if space.base_b1 or space.base_torsion:
            raise InputError(
                "a trivial base group must carry the empty homology profile"
            )
        return AbelianProfile(0)
    if space.base_kind == "finite" and space.base_b1:
        raise InputError("a finite base group has free rank zero")
    return AbelianProfile(space.base_b1, space.base_torsion)


def wreath_facts(space: SpaceSpec, n: int) -> WreathReport:
    """Structure facts for braid groups of a manifold of real dimension >= 3.

    Forgetting marked points identifies the pure braid group with the
    n-fold product of the fundamental group and the full braid group
    with its wreath product by the symmetric group.  The projectivity
    flag is True when the description certifies a projective braid
    group, and None when the inputs leave the question open.
    """
    if space.kind != "higher-dim":
        raise OutOfScopeError(
            "wreath structure needs real dimension >= 3; surfaces have "
            "their own rules"
        )
    if n < 1:
        raise InputError("n must be at least 1, got %d" % n)
    base = _base_profile(space)
    pure = base.n_fold(n)
    # the symmetric group permutes the n summands of the pure profile;
    # its coinvariants are one copy of the base profile
    full = base
    anchors = ["wreath-pure-iso", "wreath-full-iso", "coinvariants"]
    notes = [
        "the full braid group value is the coinvariant profile; whether "
        "an extra summand can occur beyond it is not decided here",
    ]
    projective: Optional[bool]
    if space.base_kind in ("trivial", "finite"):
        projective = True
        anchors.append("finite-projective")
    elif space.base_kind == "projective" and (space.complex_dim or 0) >= 2:
        projective = True
        anchors.append("wreath-projective")
    else:
        projective = None
        if space.base_kind == "projective":
            notes.append(
                "the base group is projective but the real dimension is "
                "odd, so the complex dimension hypothesis of the "
                "projectivity statement fails; the flag is left open"
            )
    return WreathReport(
        space=space,
        n=n,
        pure_h1=pure,
        full_h1=full,
        projective=projective,
        anchors=tuple(anchors),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# characteristic p


def _parse_group_id(group: str) -> tuple[str, tuple[int, ...]]:
    text = group.strip()
    # accept both artin_pure:2 and artin_pure(2); surface_pure takes g, n
    if "(" in text:
        if not text.endswith(")"):
            raise InputError("unbalanced parentheses in group id %r" % group)
        head, _, tail = text.partition("(")
        text = head + ":" + tail[:-1].replace(",", ":")
    parts = [p.strip() for p in text.split(":")]
    family = parts[0]
    try:
        params = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise InputError("group id %r has a non-integer parameter" % group)
    if family in ("artin_pure", "sphere_pure"):
        if len(params) != 1:
            raise InputError("%s takes one parameter, the strand count" % family)
        return family, params
    if family == "surface_pure":
        if len(params) != 2:
            raise InputError("surface_pure takes two parameters: genus, strands")
        if params[0] < 1:
            raise InputError(
                "surface_pure needs genus >= 1; use sphere_pure for genus 0"
            )
        return family, params
    raise InputError(
        "unknown group id %r; expected artin_pure:n, sphere_pure:n or "
        "surface_pure:g:n" % group
    )


def charp_verdict(group: str, p: int) -> Verdict:
    """Characteristic p analogue of the Kahler verdict.

    For p > 2 the pure braid groups of the plane (n >= 2) and the sphere
    (n >= 4) are excluded from being tame fundamental groups in
    characteristic p.  Everything else, including p = 2 and all positive
    genus surface braid groups, is out of scope or open.
    """
    family, params = _parse_group_id(group)
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise InputError("p must be a prime number, got %r" % (p,))
    n = params[-1]
    witnesses = {"group": group.strip(), "p": p}
    if p == 2:
        step = _step(
            "Q2",
            "charp-exclusion",
            "the exclusion is stated only for p > 2; nothing is asserted "
            "at p = 2",
        )
        return Verdict(status=OUT_OF_SCOPE, trace=(step,), witnesses=witnesses)
    if family == "artin_pure":
        if n >= 2:
            step = _step(
                "Q1",
                "charp-exclusion",
                "the plane pure braid group on %d >= 2 strands is "
                "excluded for p = %d" % (n, p),
            )
            return Verdict(status=EXCLUDED, trace=(step,), witnesses=witnesses)
        note = _note(
            "Q2",
            "on %d strand(s) the plane pure braid group is trivial and "
            "outside the stated exclusion" % n,
        )
        return Verdict(status=OUT_OF_SCOPE, trace=(note,), witnesses=witnesses)
    if family == "sphere_pure":
        if n >= 4:
            step = _step(
                "Q1",
                "charp-exclusion",
                "the sphere pure braid group on %d >= 4 strands is "
                "excluded for p = %d" % (n, p),
            )
            return Verdict(status=EXCLUDED, trace=(step,), witnesses=witnesses)
        step = _step(
            "Q2",
            "sphere-small-finite",
            "below four strands the sphere braid groups are trivial or "
            "finite, outside the stated exclusion",
        )
        return Verdict(status=OUT_OF_SCOPE, trace=(step,), witnesses=witnesses)
    # surface_pure, genus >= 1
    step = _step(
        "Q2",
        "charp-open",
        "for genus %d the question is open; no parity argument is "
        "available in characteristic p" % params[0],
    )
    return Verdict(status=OUT_OF_SCOPE, trace=(step,), witnesses=witnesses)
