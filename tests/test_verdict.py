"""Tests for the Kahler decision rules and their trace discipline.

The anchor table is frozen here as a byte-for-byte fixture: any edit to
the table must be mirrored in this file deliberately, and every anchor
string a trace emits must match the fixture exactly.
"""

import json

import pytest

from braidhom.errors import InputError, OutOfRangeError, OutOfScopeError
from braidhom.exactlin import AbelianProfile
from braidhom.leray import b1_pure_braid, sigma1_components
from braidhom.cohomology import abelianization
from braidhom.presentations import SpaceSpec, catalog, parse_presentation
from braidhom.verdict import (
    EXCLUDED,
    KAHLER,
    NOT_KAHLER,
    OUT_OF_SCOPE,
    charp_verdict,
    kahler_verdict,
    wreath_facts,
)


ANCHOR_FIXTURE = {
    'pure-braid-h1-surface': (
        'For a closed orientable surface of genus g >= 1, the first '
        'homology of the pure braid group on n strands is the n-fold sum '
        "of the surface's first homology, free abelian of rank 2gn."
    ),
    'sphere-h1-rank': (
        'For the sphere and n >= 3 strands, the first cohomology of the '
        'pure braid group is free of rank n(n-1)/2 - n.'
    ),
    'sphere-h1-torsion': (
        "The cokernel of the sphere's diagonal-class differential carries "
        'a computed torsion summand of order 2 for n >= 3; the '
        'closed-form statement asserts only the free rank, so the torsion '
        'is reported separately rather than asserted.'
    ),
    'cstar-h1-rank': (
        'For the punctured plane with one puncture, the first homology of '
        'the pure braid group on n strands has rank n + n(n-1)/2.'
    ),
    'cstar-plane-iso': (
        'Translating the last of n + 1 ordered points of the plane to '
        'the origin identifies their configuration space with the plane '
        'times the configuration space of n ordered points in the once '
        'punctured plane, so the pure braid group of the once punctured '
        'plane on n strands is the pure Artin braid group on n + 1 '
        'strands.'
    ),
    'twisted-h1-transfer': (
        'For genus g >= 2, restriction along the surjection to the n-fold '
        'surface group product identifies the twisted first cohomology of '
        'the pure braid group with that of the product.'
    ),
    'torus-pair-count': (
        'For genus 1 and a nontrivial tuple of characters, the twisted '
        'first cohomology dimension of the pure braid group equals the '
        'number of index pairs i < j whose two characters multiply to the '
        'trivial character.'
    ),
    'd2-injective': (
        'For genus g >= 1 the differential sending a pair class to its '
        'diagonal cohomology class is injective with torsion free '
        'cokernel.'
    ),
    'diagonal-class-g0': (
        'On a product of two spheres the diagonal class is the sum of the '
        'two orientation classes.'
    ),
    'diagonal-class-pos': (
        'On a product of two genus g >= 1 surfaces the diagonal class has '
        'both orientation coefficients equal to one and an invertible '
        'pairing block on the degree one part.'
    ),
    'sigma1-surface': (
        'For genus g >= 2, the first jump locus of the pure braid group '
        'is the union over the n strands of the pullbacks of the surface '
        'character variety along the coordinate projections, each of '
        'dimension 2g.'
    ),
    'sigma1-torus': (
        'For genus 1 and n >= 2 strands, the first jump locus is the '
        'finite union over pairs i < j of the subtori of tuples whose '
        'i-th and j-th characters are mutually inverse, each of dimension '
        '2n - 2.'
    ),
    'sigma1-torus-generic': (
        'At a general point of a single pair subtorus over the torus, the '
        'twisted first cohomology has dimension exactly 1.'
    ),
    'sigma1-cstar': (
        'For the once punctured plane, the part of the first jump locus '
        'lying in the pulled back character torus is the union over pairs '
        'i < j of the mutually inverse subtori, each of dimension n - 1.'
    ),
    'ends-extension': (
        'A group that is an extension of a group with infinitely many '
        'ends by a finitely generated group is not Kahler.'
    ),
    'free-nonabelian-ends': (
        'A nonabelian free group has infinitely many ends, and the strand '
        'forgetting sequence exhibits the pure braid group of a '
        'noncompact nonsimply connected hyperbolic surface as an '
        'extension of such a group by a finitely generated group.'
    ),
    'plane-artin-extension': (
        'For n >= 3 the pure Artin braid group of the plane or disk is an '
        'extension of a nonabelian free group, which has infinitely many '
        'ends, by a finitely generated group; on two strands the group is '
        'infinite cyclic.'
    ),
    'sphere-finite-index-ends': (
        'For n >= 4 the sphere pure braid group contains a finite index '
        'subgroup which is an extension of a group with infinitely many '
        'ends by a finitely generated group.'
    ),
    'sphere-small-finite': (
        'The sphere braid groups on 2 or 3 strands are trivial or finite.'
    ),
    'finite-projective': (
        'Every finite group is the fundamental group of a smooth '
        'projective variety, hence Kahler, by a construction of Serre.'
    ),
    'betti-even': (
        'The first Betti number of a compact Kahler manifold is even by '
        'Hodge theory.'
    ),
    'fibration-factor': (
        'By the Catanese refinement of the Beauville and Siu fibration '
        'theorem, each coordinate surjection onto the genus g surface '
        'group with finitely generated kernel is induced by a surjective '
        'holomorphic map with connected fibres onto a genus g curve.'
    ),
    'h1-iso-pullback': (
        'The product of the fibrations pulls back degree one cohomology '
        'of the n-fold product of curves isomorphically, because the '
        'first homology of the pure braid group equals that of the '
        'product.'
    ),
    'h4-pullback-zero': (
        'The pullback of degree four cohomology from the product of the '
        'first two curves is zero, by the vanishing of the pulled back '
        'top class of the two-fold surface product.'
    ),
    'proper-pullback-injective': (
        'A proper surjective holomorphic map from a compact Kahler '
        'manifold induces an injection on real cohomology, so a map '
        'killing a top class cannot be surjective.'
    ),
    'curve-factor-genus': (
        'The image of the map to the product of the first two curves is a '
        'curve whose normalization has genus exactly g, so both '
        'coordinate projections from it are isomorphisms.'
    ),
    'dimension-count': (
        'The degree one image of the first two coordinate factors then '
        'has dimension 2g instead of 4g, so the total pulled back degree '
        'one space has dimension at most 2(n-1)g, contradicting the '
        'required 2ng.'
    ),
    'beauville-untranslated': (
        'On a compact Kahler manifold there is no untranslated torus '
        'component of the first jump locus of dimension 2 or of odd '
        "dimension, by Beauville's theorem."
    ),
    'finite-index-kahler': (
        'A subgroup of finite index in a Kahler group is Kahler, so the '
        'full braid group cannot be Kahler when its pure braid subgroup '
        'is not.'
    ),
    'wreath-pure-iso': (
        'For a manifold of real dimension at least 3, forgetting the '
        'marked points identifies the pure braid group on n strands with '
        'the n-fold product of the fundamental group.'
    ),
    'wreath-full-iso': (
        'For a manifold of real dimension at least 3, the full braid '
        'group on n strands is the wreath product of the fundamental '
        'group by the symmetric group on n letters.'
    ),
    'wreath-projective': (
        'For a smooth projective variety of complex dimension at least 2, '
        'the braid groups are fundamental groups of smooth projective '
        'varieties, since a wreath product of a projective group by a '
        'finite group acting on a finite faithful set is projective.'
    ),
    'charp-exclusion': (
        'For a prime p > 2, the pro prime-to-p completion of the pure '
        'braid group of the plane on n >= 2 strands, or of the sphere on '
        'n >= 4 strands, is not the tame fundamental group of any smooth '
        'projective variety in characteristic p.'
    ),
    'charp-open': (
        'Whether the analogous completion of a positive genus surface '
        'braid group can be a tame fundamental group in characteristic p '
        'is an open question; the Hodge theoretic parity arguments have '
        'no counterpart there.'
    ),
}


ANCHOR_VALUES = set(ANCHOR_FIXTURE.values())

SURFACE_SPECS = [
    "sphere",
    "plane",
    "disk",
    "c-star",
    "genus:1",
    "genus:2",
    "genus:3",
    "hyperbolic:2",
]


def expected_status(kind: str, n: int) -> str:
    if kind == "sphere" and n <= 3:
        return KAHLER
    return NOT_KAHLER


class TestAnchorFixture:
    def test_table_matches_fixture(self):
        from braidhom.anchors import ANCHORS

        assert ANCHORS == ANCHOR_FIXTURE

    def test_anchor_json_resolves_fixture_text(self):
        from braidhom.anchors import anchor_json

        out = anchor_json(["betti-even", "dimension-count"])
        assert out == [
            {"key": "betti-even", "text": ANCHOR_FIXTURE["betti-even"]},
            {"key": "dimension-count", "text": ANCHOR_FIXTURE["dimension-count"]},
        ]

    def test_unknown_key_rejected(self):
        from braidhom.anchors import anchor_text

        with pytest.raises(InputError):
            anchor_text("no-such-anchor")


class TestVerdictTable:
    def test_enumeration_is_total_and_matches_theorem(self):
        for spec in SURFACE_SPECS:
            space = SpaceSpec.parse(spec)
            for n in range(2, 7):
                for flavor in ("pure", "full"):
                    v = kahler_verdict(space, n, flavor)
                    assert v.status == expected_status(space.kind, n), (
                        spec,
                        n,
                        flavor,
                    )
                    assert v.trace
                    for step in v.trace:
                        if step.anchor:
                            assert step.anchor in ANCHOR_VALUES, (spec, n, step)

    def test_not_kahler_traces_end_in_anchored_rule(self):
        for spec in SURFACE_SPECS:
            space = SpaceSpec.parse(spec)
            for n in range(2, 7):
                for flavor in ("pure", "full"):
                    v = kahler_verdict(space, n, flavor)
                    if v.status == NOT_KAHLER:
                        assert v.trace[-1].anchor in ANCHOR_VALUES

    def test_kahler_traces_cite_finiteness(self):
        for n in (2, 3):
            v = kahler_verdict(SpaceSpec.parse("sphere"), n, "full")
            assert v.status == KAHLER
            assert ANCHOR_FIXTURE["sphere-small-finite"] in [
                s.anchor for s in v.trace
            ]
            assert ANCHOR_FIXTURE["finite-projective"] in [
                s.anchor for s in v.trace
            ]

    def test_full_flavor_appends_one_finite_index_step(self):
        for spec in SURFACE_SPECS:
            space = SpaceSpec.parse(spec)
            for n in range(2, 7):
                pure = kahler_verdict(space, n, "pure")
                full = kahler_verdict(space, n, "full")
                if pure.status == NOT_KAHLER:
                    assert full.trace[:-1] == pure.trace
                    last = full.trace[-1]
                    assert last.rule == "R8"
                    assert last.anchor == ANCHOR_FIXTURE["finite-index-kahler"]
                else:
                    assert full.trace == pure.trace

    def test_one_strand_out_of_scope(self):
        for spec in ("sphere", "genus:2", "higher-dim:4:projective:4"):
            v = kahler_verdict(SpaceSpec.parse(spec), 1)
            assert v.status == OUT_OF_SCOPE
            assert "fundamental group of the space itself" in v.trace[0].text

    def test_bad_inputs(self):
        space = SpaceSpec.parse("sphere")
        with pytest.raises(InputError):
            kahler_verdict(space, 0)
        with pytest.raises(InputError):
            kahler_verdict(space, 2, flavor="mixed")

    def test_to_json_shape(self):
        v = kahler_verdict(SpaceSpec.parse("genus:2"), 3, "full")
        blob = v.to_json()
        text = json.dumps(blob, sort_keys=True)
        back = json.loads(text)
        assert back["status"] == "NotKahler"
        assert all(set(s) == {"rule", "anchor", "text"} for s in back["trace"])
        assert back["witnesses"]["b1"] == 12


class TestRuleTraces:
    def test_sphere_small_kahler(self):
        v = kahler_verdict(SpaceSpec.parse("sphere"), 3, "pure")
        assert v.status == KAHLER
        assert [s.rule for s in v.trace] == ["R3", "R3"]

    def test_sphere_large_cites_ends(self):
        v = kahler_verdict(SpaceSpec.parse("sphere"), 5, "pure")
        anchors = [s.anchor for s in v.trace]
        assert anchors == [
            ANCHOR_FIXTURE["sphere-finite-index-ends"],
            ANCHOR_FIXTURE["ends-extension"],
        ]

    def test_plane_two_strands_uses_parity(self):
        v = kahler_verdict(SpaceSpec.parse("plane"), 2, "pure")
        assert v.witnesses == {"b1": 1}
        anchors = [s.anchor for s in v.trace]
        assert anchors == [
            ANCHOR_FIXTURE["plane-artin-extension"],
            ANCHOR_FIXTURE["betti-even"],
        ]

    def test_plane_many_strands_uses_ends(self):
        for n in (3, 4, 5):
            v = kahler_verdict(SpaceSpec.parse("disk"), n, "pure")
            anchors = [s.anchor for s in v.trace]
            assert anchors == [
                ANCHOR_FIXTURE["plane-artin-extension"],
                ANCHOR_FIXTURE["ends-extension"],
            ]

    def test_hyperbolic_free_rank_two(self):
        v = kahler_verdict(SpaceSpec.parse("hyperbolic:2"), 2, "pure")
        anchors = [s.anchor for s in v.trace]
        assert anchors == [
            ANCHOR_FIXTURE["free-nonabelian-ends"],
            ANCHOR_FIXTURE["ends-extension"],
        ]
        assert v.witnesses == {"free_rank": 2}

    def test_hyperbolic_rank_one_routes_to_punctured_plane(self):
        v = kahler_verdict(SpaceSpec.parse("hyperbolic:1"), 2, "pure")
        assert v.status == NOT_KAHLER
        assert [s.rule for s in v.trace] == ["R7", "R7"]
        assert v.witnesses["b1"] == 3
        assert "once punctured plane" in v.trace[0].text
        v3 = kahler_verdict(SpaceSpec.parse("hyperbolic:1"), 3, "pure")
        assert {s.rule for s in v3.trace} == {"R6", "R1"}

    def test_hyperbolic_rank_zero_routes_to_disk(self):
        v = kahler_verdict(SpaceSpec.parse("hyperbolic:0"), 4, "pure")
        assert [s.rule for s in v.trace] == ["R1", "R1"]
        assert "simply connected" in v.trace[0].text

    def test_genus_two_pipeline_order(self):
        v = kahler_verdict(SpaceSpec.parse("genus:2"), 2, "pure")
        anchors = [s.anchor for s in v.trace]
        assert anchors == [
            ANCHOR_FIXTURE["fibration-factor"],
            ANCHOR_FIXTURE["h1-iso-pullback"],
            ANCHOR_FIXTURE["h4-pullback-zero"],
            ANCHOR_FIXTURE["proper-pullback-injective"],
            ANCHOR_FIXTURE["curve-factor-genus"],
            ANCHOR_FIXTURE["dimension-count"],
        ]
        assert v.witnesses == {
            "b1": 8,
            "h4_pullback": 0,
            "rank_after_factoring": 4,
        }

    def test_genus_one_two_strands_beauville_dimension_two(self):
        v = kahler_verdict(SpaceSpec.parse("genus:1"), 2, "pure")
        anchors = [s.anchor for s in v.trace]
        assert anchors == [
            ANCHOR_FIXTURE["sigma1-torus"],
            ANCHOR_FIXTURE["beauville-untranslated"],
        ]
        assert v.witnesses["component_dim"] == 2
        assert v.witnesses["component_count"] == 1

    def test_genus_one_more_strands_beauville_dimension_two(self):
        # the computed pair components have the dimension of the torus's
        # own character torus at every n, so no fibration is forced
        for n in (3, 4, 5):
            v = kahler_verdict(SpaceSpec.parse("genus:1"), n, "pure")
            anchors = [s.anchor for s in v.trace]
            assert anchors == [
                ANCHOR_FIXTURE["sigma1-torus"],
                ANCHOR_FIXTURE["beauville-untranslated"],
            ]
            assert v.witnesses == {
                "component_count": n * (n - 1) // 2,
                "component_dim": 2,
                "ambient_dim": 2 * n,
            }

    def test_cstar_two_strands_parity(self):
        v = kahler_verdict(SpaceSpec.parse("c-star"), 2, "pure")
        assert v.status == NOT_KAHLER
        assert v.witnesses == {"b1": 3}
        anchors = [s.anchor for s in v.trace]
        assert anchors == [
            ANCHOR_FIXTURE["cstar-h1-rank"],
            ANCHOR_FIXTURE["betti-even"],
        ]

    def test_cstar_more_strands_through_the_plane(self):
        v = kahler_verdict(SpaceSpec.parse("c-star"), 4, "pure")
        anchors = [s.anchor for s in v.trace]
        assert anchors == [
            ANCHOR_FIXTURE["cstar-plane-iso"],
            ANCHOR_FIXTURE["plane-artin-extension"],
            ANCHOR_FIXTURE["ends-extension"],
        ]
        assert [s.rule for s in v.trace] == ["R6", "R1", "R1"]
        assert v.witnesses == {"b1": 10}
        assert "plane pure braid group on 5 strands" in v.trace[0].text

    @pytest.mark.parametrize("flavor", ["pure", "full"])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_cstar_trace_continues_as_plane_on_one_more_strand(self, n, flavor):
        plane = kahler_verdict(SpaceSpec.parse("plane"), n + 1, flavor)
        for spec in ("c-star", "hyperbolic:1"):
            v = kahler_verdict(SpaceSpec.parse(spec), n, flavor)
            assert v.status == NOT_KAHLER
            assert v.trace[0].rule == "R6"
            assert v.trace[0].anchor == ANCHOR_FIXTURE["cstar-plane-iso"]
            assert v.trace[1:] == plane.trace
            assert v.witnesses == {"b1": n + n * (n - 1) // 2}


class TestWitnessConsistency:
    def test_genus_witnesses_match_leray(self):
        for g in (2, 3):
            for n in (2, 3, 4):
                space = SpaceSpec.parse("genus:%d" % g)
                v = kahler_verdict(space, n, "pure")
                assert v.witnesses["b1"] == b1_pure_braid(space, n).free_rank

    def test_sigma_witnesses_match_leray(self):
        for n in (2, 3, 4):
            space = SpaceSpec.parse("genus:1")
            v = kahler_verdict(space, n, "pure")
            locus = sigma1_components(space, n)
            assert v.witnesses["component_dim"] == locus.components[0].dimension
            assert v.witnesses["component_count"] == len(locus.components)

    def test_cstar_witness_matches_leray(self):
        space = SpaceSpec.parse("c-star")
        v = kahler_verdict(space, 2, "pure")
        assert v.witnesses["b1"] == b1_pure_braid(space, 2).free_rank
        # on more strands the b1 witness is that of the plane pure braid
        # group on one more strand
        for n in (3, 4, 5):
            v = kahler_verdict(space, n, "pure")
            plane = abelianization(catalog("artin_pure:%d" % (n + 1)))
            assert v.witnesses["b1"] == b1_pure_braid(space, n).free_rank == plane.rank


class TestDenseGuardFallback:
    """n = 33 is the first genus 2 strand count the dense-matrix guard
    refused; b1 is computed on both sides of it, and only the size bound
    (n <= 258) stops the verdict."""

    def test_inside_guard_b1_is_computed(self):
        v = kahler_verdict(SpaceSpec.parse("genus:2"), 32, "pure")
        assert v.witnesses == {"b1": 128, "h4_pullback": 0, "rank_after_factoring": 124}
        assert "computed first Betti number 128" in v.trace[1].text

    @pytest.mark.parametrize("n", [33, 64])
    def test_past_old_guard_b1_is_computed(self, n):
        space = SpaceSpec.parse("genus:2")
        assert b1_pure_braid(space, n).free_rank == 4 * n
        v = kahler_verdict(space, n, "pure")
        assert v.status == NOT_KAHLER
        assert v.witnesses == {
            "b1": 4 * n,
            "h4_pullback": 0,
            "rank_after_factoring": 4 * (n - 1),
        }
        assert "matching the computed first Betti number %d" % (4 * n) in v.trace[1].text

    def test_past_size_bound_fails(self):
        with pytest.raises(OutOfRangeError, match="limited to"):
            kahler_verdict(SpaceSpec.parse("genus:2"), 259, "pure")


class TestWreath:
    def test_projective_surface_base(self):
        space = SpaceSpec.parse("higher-dim:4:projective:4")
        facts = wreath_facts(space, 2)
        assert facts.pure_h1 == AbelianProfile(8)
        # the coinvariants Z^4 plus the abelianized S_2
        assert facts.full_h1 == AbelianProfile(4, (2,))
        assert facts.projective is True
        # the projectivity is cited only by the verdict's trace
        assert kahler_verdict(space, 2).trace[-1].anchor == ANCHOR_FIXTURE["wreath-projective"]

    def test_trivial_base(self):
        space = SpaceSpec.parse("higher-dim:3")
        facts = wreath_facts(space, 4)
        assert facts.pure_h1 == AbelianProfile(0)
        # H_1(S_4) = Z/2
        assert facts.full_h1 == AbelianProfile(0, (2,))
        assert facts.projective is True
        assert kahler_verdict(space, 4).trace[-1].anchor == ANCHOR_FIXTURE["finite-projective"]

    def test_real_dim_three_other_base_flag_absent(self):
        facts = wreath_facts(SpaceSpec.parse("higher-dim:3:other:2"), 2)
        assert facts.pure_h1 == AbelianProfile(4)
        assert facts.projective is None

    def test_odd_dim_projective_base_flag_open(self):
        space = SpaceSpec.parse("higher-dim:5:projective:2")
        assert wreath_facts(space, 2).projective is None
        assert kahler_verdict(space, 2).status == OUT_OF_SCOPE

    def test_torsion_base_profile(self):
        space = SpaceSpec(
            "higher-dim", real_dim=4, base_kind="finite", base_torsion=(2,)
        )
        facts = wreath_facts(space, 3)
        assert facts.pure_h1 == AbelianProfile(0, (2, 2, 2))
        assert facts.full_h1 == AbelianProfile(0, (2, 2))
        assert facts.projective is True

    def test_inconsistent_base_profiles_rejected(self):
        trivial_bad = SpaceSpec("higher-dim", real_dim=4, base_b1=3)
        with pytest.raises(InputError):
            wreath_facts(trivial_bad, 2)
        finite_bad = SpaceSpec(
            "higher-dim", real_dim=4, base_kind="finite", base_b1=1
        )
        with pytest.raises(InputError):
            wreath_facts(finite_bad, 2)

    def test_surface_regime_rejected(self):
        with pytest.raises(OutOfScopeError):
            wreath_facts(SpaceSpec.parse("genus:2"), 2)

    def test_coinvariants_identity_and_validation(self):
        # the full braid group profile is one copy of the base profile,
        # plus the abelianized symmetric group from two strands on
        space = SpaceSpec("higher-dim", real_dim=4, base_kind="other", base_b1=1, base_torsion=(2,))
        assert wreath_facts(space, 1).full_h1 == AbelianProfile(1, (2,))
        assert wreath_facts(space, 5).full_h1 == AbelianProfile(1, (2, 2))
        with pytest.raises(InputError):
            wreath_facts(space, 0)

    @pytest.mark.parametrize(
        "b1, torsion", [(0, ()), (2, ()), (0, (2,)), (0, (3,)), (1, (2, 4))]
    )
    def test_full_profile_matches_wreath_presentation(self, b1, torsion):
        # Smith form of the abelianized presentation of G wr S_n, for a
        # model group G = Z^b1 x prod Z/d with the given profile
        kind = "other" if b1 else "finite"
        space = SpaceSpec("higher-dim", real_dim=4, base_kind=kind, base_b1=b1, base_torsion=torsion)
        for n in range(1, 7):
            expected = abelianization(_wreath_presentation(b1, torsion, n))
            assert wreath_facts(space, n).full_h1 == expected, n
        if torsion == (3,):
            assert expected == AbelianProfile(0, (6,))


def _wreath_presentation(b1, torsion, n):
    """G wr S_n for G = Z^b1 x prod_k Z/torsion[k]: n commuting copies of
    G, Coxeter generators s_i of S_n, and s_i x^(j) s_i^-1 = x^(tau_i j)."""
    model = ["x%d" % k for k in range(b1)] + ["y%d" % k for k in range(len(torsion))]
    gens = ["%s_%d" % (g, j) for j in range(n) for g in model]
    swaps = ["s%d" % i for i in range(1, n)]
    rels = []
    for j in range(n):
        for k, d in enumerate(torsion):
            rels.append(" ".join(["y%d_%d" % (k, j)] * d))
    for a, u in enumerate(gens):
        for v in gens[a + 1 :]:
            rels.append("%s %s %s^-1 %s^-1" % (u, v, u, v))
    for i, s in enumerate(swaps, start=1):
        rels.append("%s %s" % (s, s))
        for t, r in enumerate(swaps[i:], start=i + 1):
            if t == i + 1:
                rels.append(" ".join([s, r] * 3))
            else:
                rels.append("%s %s %s^-1 %s^-1" % (s, r, s, r))
        # s_i swaps copies i - 1 and i
        for j in range(n):
            image = {i - 1: i, i: i - 1}.get(j, j)
            for g in model:
                rels.append("%s %s_%d %s^-1 %s_%d^-1" % (s, g, j, s, g, image))
    if not gens + swaps:
        # the trivial group on one strand
        gens, rels = ["e"], ["e"]
    text = "gens: %s\n" % " ".join(gens + swaps)
    return parse_presentation(text + "".join("rel: %s\n" % r for r in rels))


class TestCharp:
    def test_plane_excluded(self):
        v = charp_verdict("artin_pure:2", 3)
        assert v.status == EXCLUDED
        assert v.trace[0].anchor == ANCHOR_FIXTURE["charp-exclusion"]
        assert v.witnesses == {"group": "artin_pure:2", "p": 3}

    def test_sphere_excluded(self):
        v = charp_verdict("sphere_pure:4", 5)
        assert v.status == EXCLUDED
        assert v.trace[0].rule == "Q1"

    def test_surface_open(self):
        for p in (3, 5, 11):
            v = charp_verdict("surface_pure:1:3", p)
            assert v.status == OUT_OF_SCOPE
            assert v.trace[0].anchor == ANCHOR_FIXTURE["charp-open"]

    def test_paren_form_accepted(self):
        assert charp_verdict("artin_pure(2)", 3).status == EXCLUDED
        assert charp_verdict("surface_pure(2,2)", 3).status == OUT_OF_SCOPE

    def test_small_sphere_out_of_scope(self):
        for n in (2, 3):
            v = charp_verdict("sphere_pure:%d" % n, 5)
            assert v.status == OUT_OF_SCOPE
            assert v.trace[0].anchor == ANCHOR_FIXTURE["sphere-small-finite"]

    def test_trivial_plane_out_of_scope(self):
        assert charp_verdict("artin_pure:1", 3).status == OUT_OF_SCOPE

    def test_p_two_out_of_scope(self):
        v = charp_verdict("artin_pure:4", 2)
        assert v.status == OUT_OF_SCOPE
        assert "p = 2" in v.trace[0].text

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            charp_verdict("artin_pure:3", 4)
        with pytest.raises(InputError):
            charp_verdict("artin_pure:3", 1)
        with pytest.raises(InputError):
            charp_verdict("braid:3", 5)
        with pytest.raises(InputError):
            charp_verdict("surface_pure:0:3", 5)
        with pytest.raises(InputError):
            charp_verdict("artin_pure:x", 5)
        with pytest.raises(InputError):
            charp_verdict("artin_pure(3", 5)
