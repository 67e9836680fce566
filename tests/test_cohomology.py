"""Tests for twisted cohomology dimensions, the Kunneth combinator,
character variety counts, tangent computations, and the samplers."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhom import cli, cohomology, cyclotomic
from braidhom.cohomology import (
    CharVarDims,
    CohomologyProfile,
    abelianization,
    charvar_dims,
    fox_jacobian,
    h0_dim,
    h1_dim,
    kunneth_h1,
    random_character,
    random_character_tuple,
    random_surface_sl2,
    TangentReport,
    seeded_rng,
    surface_profile,
    tangent_dim_at,
)
from braidhom.cyclotomic import CycContext, certified_rank, rank_kernel
from braidhom.errors import InputError, OutOfRangeError, PreconditionError
from braidhom.exactlin import IntMatrix, QMat, cokernel_profile
from braidhom.presentations import (
    Character,
    MatrixRep,
    Presentation,
    catalog,
    free_presentation,
    parse_presentation,
    product_character,
    product_presentation,
    surface_presentation,
    validate_character,
    validate_matrix_rep,
)
from braidhom.verify import _adjoint_by_conjugation, _p2_torus_character, _tangent_by_elimination
from braidhom.words import free_reduce, generator_word
from wordtools import exponent_sum

CATALOG_IDS = [
    "surface:1",
    "surface:2",
    "surface:3",
    "free:1",
    "free:2",
    "free:3",
    "artin_pure:2",
    "artin_pure:3",
    "artin_pure:4",
    "product(surface:1,surface:1)",
    "product(surface:2,free:2)",
]


P2_TORUS = os.path.join(os.path.dirname(__file__), "..", "data", "p2_torus.pres")


def _exact_h1(p, chi):
    """h1 from the rank of the Fox Jacobian over Q(zeta_N) by exact
    integer elimination on the regular representation, with no F_q step."""
    jac = fox_jacobian(p, chi)
    rank = CycContext(chi.order).rank(jac.rows, jac.ncols)
    h0 = 1 if chi.is_trivial else 0
    return (jac.ncols - rank) - (1 - h0)


class TestAbelianization:
    @pytest.mark.parametrize("g", range(1, 7))
    def test_surface_rank(self, g):
        profile = abelianization(surface_presentation(g))
        assert profile.rank == 2 * g
        assert profile.torsion == ()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_artin_pure_rank(self, n):
        profile = abelianization(catalog("artin_pure:%d" % n))
        assert profile.rank == n * (n - 1) // 2
        assert profile.torsion == ()

    def test_torsion_detected(self):
        p = parse_presentation("gens: a b\nrel: a a\nrel: b b b")
        profile = abelianization(p)
        assert profile.rank == 0
        assert profile.torsion == (6,) or profile.torsion == (2, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_one_pass_matches_exponent_sums(self, k, data):
        # the relator exponent matrix filled letter by letter equals the
        # per-generator scan with exponent_sum
        letter = st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1)))
        words = [free_reduce(w) for w in data.draw(st.lists(st.lists(letter, max_size=10), max_size=5))]
        p = Presentation(free_presentation(k).alphabet, [w for w in words if not w.is_identity])
        rows = [[exponent_sum(r, i) for r in p.relators] for i in range(k)]
        assert abelianization(p) == cokernel_profile(IntMatrix(rows, ncols=p.num_relators))


class TestH0:
    def test_trivial_character_full_invariants(self):
        p = surface_presentation(2)
        assert h0_dim(p, Character(p.alphabet, 1)) == 1

    def test_nontrivial_character_no_invariants(self):
        p = surface_presentation(2)
        assert h0_dim(p, Character(p.alphabet, 3, {"b2": 1})) == 0

    def test_free_rank_one_zeta3(self):
        p = free_presentation(1)
        assert h0_dim(p, Character(p.alphabet, 3, {"a": 1})) == 0

    def test_matrix_rep_invariants(self):
        p = free_presentation(1)
        upper = MatrixRep(p.alphabet, [QMat([[1, 1], [0, 1]])])
        # unipotent fixes exactly one line
        assert h0_dim(p, upper) == 1
        ident = MatrixRep(p.alphabet, [QMat.identity(2)])
        assert h0_dim(p, ident) == 2

    def test_unvalidated_rejected(self):
        p = parse_presentation("gens: a\nrel: a a a")
        with pytest.raises(PreconditionError):
            h0_dim(p, Character(p.alphabet, 4, {"a": 1}))


class TestH1:
    def test_surface2_nontrivial_is_two(self):
        p = surface_presentation(2)
        assert h1_dim(p, Character(p.alphabet, 7, {"a1": 3})) == 2

    def test_surface1_nontrivial_vanishes(self):
        p = surface_presentation(1)
        assert h1_dim(p, Character(p.alphabet, 5, {"a": 2, "b": 4})) == 0

    def test_surface2_trivial_is_betti(self):
        p = surface_presentation(2)
        assert h1_dim(p, Character(p.alphabet, 1)) == 4

    @pytest.mark.parametrize("g", [2, 3])
    def test_fifty_nontrivial_characters_give_2g_minus_2(self, g):
        p = surface_presentation(g)
        rng = seeded_rng(90 + g)
        for _ in range(50):
            chi = random_character(p.alphabet, rng, nontrivial=True)
            assert h1_dim(p, chi) == 2 * g - 2

    @pytest.mark.parametrize("spec", CATALOG_IDS)
    def test_trivial_character_matches_abelianization(self, spec):
        p = catalog(spec)
        assert h1_dim(p, Character(p.alphabet, 1)) == abelianization(p).rank

    def test_certified_route_agrees_with_exact(self):
        p = surface_presentation(2)
        rng = seeded_rng(17)
        for _ in range(20):
            chi = random_character(p.alphabet, rng)
            assert h1_dim(p, chi) == _exact_h1(p, chi)

    def test_unvalidated_rejected(self):
        p = parse_presentation("gens: a\nrel: a a a")
        with pytest.raises(PreconditionError):
            h1_dim(p, Character(p.alphabet, 4, {"a": 1}))

    @given(k=st.integers(1, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_free_group_euler_identity(self, k, data):
        # for a free group of rank k, h0 - h1 = 1 - k at every character
        p = free_presentation(k)
        order = data.draw(st.integers(1, 10))
        exps = [data.draw(st.integers(0, order - 1)) for _ in range(k)]
        chi = Character(p.alphabet, order, exps)
        assert h0_dim(p, chi) - h1_dim(p, chi) == 1 - k


class TestFoxJacobian:
    def test_character_shape(self):
        p = surface_presentation(2)
        jac = fox_jacobian(p, Character(p.alphabet, 3, {"a1": 1}))
        assert (len(jac.rows), jac.ncols) == (1, 4)
        assert jac.rank() == 1

    def test_trivial_character_jacobian_vanishes(self):
        p = surface_presentation(2)
        jac = fox_jacobian(p, Character(p.alphabet, 1))
        assert jac.rank() == 0

    def test_matrix_shape(self):
        p = surface_presentation(1)
        rep = MatrixRep(
            p.alphabet, [QMat([[2, 0], [0, "1/2"]]), QMat.identity(2)], flavor="GL"
        )
        jac = fox_jacobian(p, rep)
        assert (len(jac.rows), jac.ncols) == (2, 4)
        assert jac.dim == 2

    def test_free_presentation_empty_jacobian(self):
        p = free_presentation(3)
        jac = fox_jacobian(p, Character(p.alphabet, 4, {"b": 2}))
        assert (len(jac.rows), jac.ncols) == (0, 3)
        assert jac.nullity() == 3

    def test_only_the_dimensions_check_relators(self):
        # fox_jacobian differentiates whatever it is given; the relators
        # are checked by the dimensions built on it
        p = parse_presentation("gens: a\nrel: a a a")
        chi = Character(p.alphabet, 4, {"a": 1})
        assert fox_jacobian(p, chi).rows == [[(0, 0, 1), (0, 1, 1), (0, 2, 1)]]
        with pytest.raises(PreconditionError):
            h0_dim(p, chi)
        with pytest.raises(PreconditionError):
            h1_dim(p, chi)
        # a and b do not commute, so the genus one relator fails; a
        # character never fails it, so surface_profile is reached with a
        # matrix representation, and the check it relies on is h1_dim's
        torus = surface_presentation(1)
        rho = MatrixRep(torus.alphabet, [QMat([[1, 1], [0, 1]]), QMat([[1, 0], [1, 1]])])
        assert fox_jacobian(torus, rho).ncols == 4
        with pytest.raises(PreconditionError):
            tangent_dim_at(torus, rho)
        with pytest.raises(PreconditionError):
            surface_profile(1, rho)


class TestKunneth:
    def test_examples(self):
        assert kunneth_h1([(1, 4), (1, 4)]) == 8
        assert kunneth_h1([(0, 2), (1, 4)]) == 2
        assert kunneth_h1([(0, 2), (0, 2)]) == 0

    def test_single_factor_passthrough(self):
        assert kunneth_h1([(1, 7)]) == 7

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            kunneth_h1([])

    @pytest.mark.parametrize(
        "spec_a,spec_b",
        [("surface:1", "surface:1"), ("surface:2", "surface:2"), ("surface:2", "free:2")],
    )
    def test_cross_oracle_on_products(self, spec_a, spec_b):
        a, b = catalog(spec_a), catalog(spec_b)
        prod = product_presentation(a, b)
        rng = seeded_rng(hash((spec_a, spec_b)) % 100000)
        for _ in range(8):
            ca = random_character(a.alphabet, rng, max_order=8)
            cb = random_character(b.alphabet, rng, max_order=8)
            chi = product_character(prod, ca, cb)
            direct = h1_dim(prod, chi)
            combined = kunneth_h1(
                [(h0_dim(a, ca), h1_dim(a, ca)), (h0_dim(b, cb), h1_dim(b, cb))]
            )
            assert direct == combined


class TestSurfaceProfile:
    def test_genus2_trivial(self):
        p = surface_presentation(2)
        prof = surface_profile(2, Character(p.alphabet, 1))
        assert (prof.h0, prof.h1, prof.h2, prof.euler) == (1, 4, 1, -2)

    def test_genus2_nontrivial(self):
        p = surface_presentation(2)
        prof = surface_profile(2, Character(p.alphabet, 6, {"b1": 1}))
        assert (prof.h0, prof.h1, prof.h2, prof.euler) == (0, 2, 0, -2)

    def test_genus1_nontrivial(self):
        p = surface_presentation(1)
        prof = surface_profile(1, Character(p.alphabet, 2, {"a": 1}))
        assert (prof.h0, prof.h1, prof.h2, prof.euler) == (0, 0, 0, 0)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_euler_constant_in_character(self, g):
        p = surface_presentation(g)
        rng = seeded_rng(g)
        seen = set()
        for _ in range(50):
            chi = random_character(p.alphabet, rng)
            seen.add(surface_profile(g, chi).euler)
        assert seen == {2 * (1 - g)}

    def test_genus_zero_rejected(self):
        p = free_presentation(1)
        with pytest.raises(OutOfRangeError):
            surface_profile(0, Character(p.alphabet, 1))

    def test_profile_invariant_enforced(self):
        with pytest.raises(InputError):
            CohomologyProfile(1, 1, 1, euler=7)


class TestCharVarDims:
    def test_sl2_genus2(self):
        d = charvar_dims(2, [2], "SL")
        assert d.hom_dims == (9,)
        assert d.char_dims == (6,)
        assert d.tangent == 6

    def test_sl3_genus2_char_dim(self):
        assert charvar_dims(2, [3], "SL").char_dims == (16,)

    def test_gl_tangent_adds_abelian_part(self):
        assert charvar_dims(2, [2], "GL").tangent == 10

    def test_multi_factor_tangent_sums(self):
        d = charvar_dims(2, [2, 2, 3], "SL")
        assert d.tangent == 6 + 6 + 16
        assert charvar_dims(2, [2, 2, 3], "GL").tangent == d.tangent + 12

    def test_genus_below_two_rejected(self):
        with pytest.raises(OutOfRangeError):
            charvar_dims(1, [2])

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            charvar_dims(2, [])
        with pytest.raises(InputError):
            charvar_dims(2, [0])
        with pytest.raises(InputError):
            charvar_dims(2, [2], "PSL")


class TestTangent:
    def test_trivial_rep_surface2(self):
        p = surface_presentation(2)
        rep = MatrixRep(p.alphabet, [QMat.identity(2)] * 4, flavor="SL")
        report = tangent_dim_at(p, rep)
        assert (report.z1, report.h1, report.h0_ad) == (12, 12, 3)

    def test_free2_unconstrained(self):
        p = free_presentation(2)
        rep = MatrixRep(p.alphabet, [QMat([[1, 1], [0, 1]]), QMat([[1, 0], [2, 1]])])
        assert tangent_dim_at(p, rep).z1 == 6

    def test_invalid_rep_rejected(self):
        p = surface_presentation(1)
        rep = MatrixRep(p.alphabet, [QMat([[1, 1], [0, 1]]), QMat([[1, 0], [2, 1]])])
        with pytest.raises(PreconditionError):
            tangent_dim_at(p, rep)

    def test_sampled_irreducibles_hit_six(self):
        p = surface_presentation(2)
        rng = seeded_rng(2024)
        hits = 0
        for _ in range(20):
            rep = random_surface_sl2(2, rng)
            report = tangent_dim_at(p, rep)
            if report.h0_ad == 0:
                assert report.h1 == 6
                hits += 1
        assert hits >= 19

    def test_gl1_point_has_zero_tangent(self):
        # d = 1: the trace zero matrices, and so Ad rho, are zero dimensional
        p = surface_presentation(2)
        images = [QMat([[2]]), QMat([[Fraction(1, 3)]]), QMat([[-1]]), QMat([[5]])]
        rho = MatrixRep(p.alphabet, images, flavor="GL")
        assert tangent_dim_at(p, rho) == TangentReport(0, 0, 0)
        assert h1_dim(p, rho.adjoint_rep()) == 0

    def test_adjoint_images_take_no_products(self, monkeypatch):
        # the images of Ad rho and of their inverses are read off the
        # entries of rho's images and cached inverses: no d x d product
        # and no evaluation of a one-letter word
        p = surface_presentation(3)
        rho = random_surface_sl2(3, seeded_rng(31))
        products, lengths = [], []
        mul = QMat.__mul__

        def counted_mul(self, other):
            products.append(self.n)
            return mul(self, other)

        monkeypatch.setattr(QMat, "__mul__", counted_mul)
        value = MatrixRep.word_value

        def counted_value(self, w):
            lengths.append(len(w.letters))
            return value(self, w)

        monkeypatch.setattr(MatrixRep, "word_value", counted_value)
        report = tangent_dim_at(p, rho)
        assert h1_dim(p, rho.adjoint_rep()) == report.h1
        assert products == []
        assert lengths and 1 not in lengths

    @pytest.mark.parametrize("g", [2, 3])
    def test_adjoint_inverse_images(self, g):
        # the inverse images the Jacobian reads through word_value are
        # the inverses of the generator images, for letters and words
        rng = seeded_rng(700 + g)
        one = QMat.identity(3)
        for _ in range(5):
            ad = random_surface_sl2(g, rng).adjoint_rep()
            for j in range(2 * g):
                inv = ad.word_value(generator_word(j, -1))
                assert inv * ad.image(j) == one
                assert ad.image(j) * inv == one
            w = free_reduce([(rng.randrange(2 * g), rng.choice((1, -1))) for _ in range(8)])
            assert ad.word_value(w.inverse()) * ad.word_value(w) == one

    @pytest.mark.parametrize("g", [2, 3])
    def test_adjoint_word_value_matches_conjugation(self, g):
        # Ad rho(w), a product of the closed-form columns letter by
        # letter, against rho(w) conjugating the trace zero basis
        rng = seeded_rng(720 + g)
        for _ in range(5):
            rho = random_surface_sl2(g, rng)
            ad = rho.adjoint_rep()
            for length in (0, 1, 2, 5, 9, 16):
                w = free_reduce(
                    [(rng.randrange(2 * g), rng.choice((1, -1))) for _ in range(length)]
                )
                m = rho.word_value(w)
                assert ad.word_value(w) == _adjoint_by_conjugation(m, m.inverse())

    @pytest.mark.parametrize("g", [2, 3])
    def test_tangent_cli_evaluates_the_relator_once(self, g, monkeypatch, capsys):
        # the sampler's check and tangent_dim_at's share one evaluation
        evaluated = []
        value = MatrixRep.word_value

        def spy(self, w):
            evaluated.append(w)
            return value(self, w)

        monkeypatch.setattr(MatrixRep, "word_value", spy)
        assert cli.main(["tangent", "--genus", str(g), "--seed", "5"]) == 0
        assert evaluated == list(surface_presentation(g).relators)
        assert '"h1": %d' % (6 * (g - 1)) in capsys.readouterr().out


def _q_rank(rows, ncols):
    return rank_kernel(rows, ncols, Fraction(1))[0] if rows else 0


@st.composite
def _rational_matrices(draw):
    """Integer or rational matrices up to 6 x 8; about half of them get
    rows that are rational combinations of earlier ones."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        entry = st.integers(-40, 40)
    else:
        entry = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    planted = draw(st.integers(0, nrows - 1))
    coef = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    for i in range(nrows - planted, nrows):
        if i:
            mix = [draw(coef) for _ in range(i)]
            rows[i] = [sum(m * rows[j][c] for j, m in enumerate(mix)) for c in range(ncols)]
    # keep integers as ints, as QMat does, so both entry types occur
    rows = [[int(x) if Fraction(x).denominator == 1 else x for x in r] for r in rows]
    return rows, ncols


def _diagonal_rep(p, rng):
    diag = [QMat([[Fraction(rng.choice((-3, -2, 2, 5)), rng.choice((1, 3, 4))), 0], [0, rng.choice((1, 7))]])
            for _ in range(p.num_generators)]
    return MatrixRep(p.alphabet, diag, flavor="GL")


def _h0_by_elimination(rep, k):
    # rank of the kd x d stack of the rep(g) - I, by Gauss-Jordan over Q
    ident = QMat.identity(rep.dim)
    moves = [row for g in range(k) for row in (rep.image(g) - ident).rows]
    return rep.dim - _q_rank(moves, rep.dim)


class TestTransposedH0:
    """h0 ranks the d x kd transpose of the stacked rep(g) - I, read off
    the columns the Fox scan uses; the untransposed stack is the oracle."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_gl_diagonal_reps(self, d):
        rng = seeded_rng(900 + d)
        values = (1, 1, 1, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2))
        positive = 0
        for k in (1, 2, 3):
            p = free_presentation(k)
            for _ in range(8):
                images = []
                for _ in range(k):
                    rows = [[0] * d for _ in range(d)]
                    for i in range(d):
                        rows[i][i] = rng.choice(values)
                    images.append(QMat(rows))
                rep = MatrixRep(p.alphabet, images, flavor="GL")
                h0 = h0_dim(p, rep)
                assert h0 == _h0_by_elimination(rep, k)
                positive += h0 > 0
                if d > 1:
                    ad = rep.adjoint_rep()
                    # the diagonal torus fixes the d - 1 diagonal directions
                    assert h0_dim(p, ad) == _h0_by_elimination(ad, k) >= d - 1
        assert positive >= 4

    def test_reps_with_fraction_entries(self):
        # diagonal reps conjugated by a rational matrix, so that most
        # images hold Fractions off the diagonal; h0 keeps its value
        rng = seeded_rng(907)
        fractions_seen = 0
        for d in (2, 3):
            c = QMat([[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) + (i == j) * 3
                       for j in range(d)] for i in range(d)])
            cinv = c.inverse()
            for k in (1, 2, 3):
                p = free_presentation(k)
                for _ in range(6):
                    images = []
                    for _ in range(k):
                        diag = QMat([[rng.choice((1, 1, 2, Fraction(1, 2))) if i == j else 0
                                      for j in range(d)] for i in range(d)])
                        images.append(c * diag * cinv)
                    rep = MatrixRep(p.alphabet, images, flavor="GL")
                    fractions_seen += any(type(e) is Fraction for m in images for r in m.rows for e in r)
                    for phi in (rep, rep.adjoint_rep()):
                        assert h0_dim(p, phi) == _h0_by_elimination(phi, k)
        assert fractions_seen >= 20


class TestRationalRank:
    """The certified F_q rank at order 1 ranks every rational Jacobian;
    Gauss-Jordan over Q is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_rational_matrices())
    def test_matches_elimination(self, matrix):
        rows, ncols = matrix
        assert cohomology._rational_rank(rows, ncols) == _q_rank(rows, ncols)

    def test_reducible_points_take_the_fallback(self, monkeypatch):
        # at reducible points the rank stays below the side of the matrix,
        # so the norm-bound fallback settles it
        routes = []
        certify = cyclotomic.certified_rank

        def spy(rows, ncols, order, upper=None):
            result = certify(rows, ncols, order, upper)
            routes.append((order, result[1]))
            return result

        monkeypatch.setattr(cohomology, "certified_rank", spy)
        rng = seeded_rng(41)
        p1, p2 = surface_presentation(1), surface_presentation(2)
        for _ in range(10):
            rho = random_surface_sl2(1, rng)
            report = tangent_dim_at(p1, rho)
            assert report.h0_ad >= 1
            assert (report.z1, report.h0_ad) == _tangent_by_elimination(p1, rho)
        for p in (p1, p2):
            for _ in range(5):
                rho = _diagonal_rep(p, rng)
                report = tangent_dim_at(p, rho)
                assert (report.z1, report.h0_ad) == _tangent_by_elimination(p, rho)
                # the GL point itself: Jacobian and invariants by elimination
                jac = fox_jacobian(p, rho)
                moves = [r for g in range(p.num_generators) for r in (rho.image(g) - QMat.identity(2)).rows]
                h0 = 2 - _q_rank(moves, 2)
                expected = (jac.ncols - _q_rank(jac.rows, jac.ncols)) - (2 - h0)
                assert h1_dim(p, rho) == expected
        assert (1, False) in routes
        assert {order for order, _ in routes} == {1}

    def test_matrix_reps_never_eliminate(self, monkeypatch):
        calls = []
        eliminate = cyclotomic.rank_kernel

        def counted(*args, **kwargs):
            calls.append(args[1])
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(cyclotomic, "rank_kernel", counted)
        rng = seeded_rng(42)
        for g in (1, 2, 3):
            p = surface_presentation(g)
            for _ in range(3):
                rho = random_surface_sl2(g, rng)
                tangent_dim_at(p, rho)
                h1_dim(p, rho)
                h1_dim(p, rho.adjoint_rep())
        assert calls == []


class TestSamplers:
    def test_character_determinism(self):
        p = surface_presentation(2)
        a = random_character(p.alphabet, seeded_rng(5))
        b = random_character(p.alphabet, seeded_rng(5))
        assert a == b

    def test_nontrivial_flag(self):
        p = surface_presentation(1)
        rng = seeded_rng(1)
        for _ in range(30):
            assert not random_character(p.alphabet, rng, nontrivial=True).is_trivial

    def test_nontrivial_impossible(self):
        p = free_presentation(1)
        with pytest.raises(InputError):
            random_character(p.alphabet, seeded_rng(0), max_order=1, nontrivial=True)

    def test_tuple_pair_bias_produces_cancelling_pairs(self):
        p = surface_presentation(1)
        rng = seeded_rng(33)
        cancelling = 0
        for _ in range(40):
            t = random_character_tuple(p.alphabet, 3, rng, pair_bias=0.5)
            for i in range(3):
                for j in range(i + 1, 3):
                    if t.pair_product_trivial(i, j):
                        cancelling += 1
                        break
                else:
                    continue
                break
        assert cancelling >= 10

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_surface_sampler_validates(self, g):
        rng = seeded_rng(g * 11)
        rep = random_surface_sl2(g, rng)
        assert len(rep.alphabet) == 2 * g
        assert validate_matrix_rep(surface_presentation(g), rep)
        # determinism check
        again = random_surface_sl2(g, seeded_rng(g * 11))
        images = [rep.image(j) for j in range(2 * g)]
        assert [again.image(j) for j in range(2 * g)] == images

    @pytest.mark.parametrize("spread", [1, 3, 10**30])
    def test_random_sl2_inverse_by_construction(self, spread):
        rng = seeded_rng(spread)
        one = QMat.identity(2)
        for _ in range(50):
            m, minv = cohomology._random_sl2(rng, spread)
            assert m * minv == one and minv * m == one

    @pytest.mark.parametrize("spread", [1, 3, 10**30])
    def test_adjugate_inverses_match_inversion(self, spread):
        rng = seeded_rng(spread + 17)
        for _ in range(50):
            m, minv = cohomology._random_sl2(rng, spread)
            assert minv == m.inverse() == cohomology._adjugate(m)
        for g in (1, 2, 3, 4):
            rho = random_surface_sl2(g, rng, spread=spread)
            for j in range(2 * g):
                assert rho.inverse_image(j) == rho.image(j).inverse()

    def test_matrix_rep_rejects_a_wrong_adjugate(self):
        p = free_presentation(2)
        m = QMat([[2, 1], [1, 1]])
        good = cohomology._adjugate(m)
        MatrixRep(p.alphabet, [m, m], inverses=[good, good])
        with pytest.raises(InputError, match="not its inverse"):
            MatrixRep(p.alphabet, [m, m], inverses=[good, m])
        # det 2: the SL check refuses it, and under GL its adjugate is
        # 2 m^-1, which the one product against I refuses
        det2 = QMat([[2, 1], [0, 1]])
        with pytest.raises(InputError, match="determinant"):
            MatrixRep(p.alphabet, [m, det2], inverses=[good, cohomology._adjugate(det2)])
        with pytest.raises(InputError, match="not its inverse"):
            MatrixRep(p.alphabet, [m, det2], flavor="GL", inverses=[good, cohomology._adjugate(det2)])

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_tangent_takes_no_inverse(self, g, monkeypatch):
        # the sampler builds every inverse image by construction and
        # MatrixRep checks it by one product
        inverted = []
        inverse = QMat.inverse

        def counted(self):
            inverted.append(self.n)
            return inverse(self)

        monkeypatch.setattr(QMat, "inverse", counted)
        p = surface_presentation(g)
        rho = random_surface_sl2(g, seeded_rng(g), presentation=p)
        tangent_dim_at(p, rho)
        assert inverted == []

    @pytest.mark.parametrize("spread", [1, 2, 5])
    def test_elementary_entries_cover_the_nonzero_range(self, spread):
        rng = seeded_rng(spread)
        seen = set()
        for _ in range(400):
            rows = cohomology._elementary(rng, spread, lower=False)
            seen.add(rows[0][1])
        assert seen == set(range(-spread, spread + 1)) - {0}

    def test_surface_sampler_rejects_genus_zero(self):
        with pytest.raises(OutOfRangeError):
            random_surface_sl2(0, seeded_rng(0))


class TestCertifiedRoute:
    """The F_q certificate against exact elimination over Q(zeta_N)."""

    def _check(self, p, chars):
        routes = {True: 0, False: 0}
        for chi in chars:
            assert h1_dim(p, chi) == _exact_h1(p, chi), chi
            jac = fox_jacobian(p, chi)
            h0 = 1 if chi.is_trivial else 0
            upper = jac.ncols - 1 + h0
            routes[certified_rank(jac.rows, jac.ncols, chi.order, upper)[1]] += 1
        return routes

    @staticmethod
    def _uniform(alphabet, rng, count):
        out = [Character(alphabet, rng.randint(1, 30)) for _ in range(2)]
        for _ in range(count):
            n = rng.randint(2, 30)
            out.append(Character(alphabet, n, [rng.randrange(n) for _ in alphabet.names]))
        return out

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_surface(self, g):
        p = surface_presentation(g)
        routes = self._check(p, self._uniform(p.alphabet, seeded_rng(400 + g), 12))
        assert routes[True] and routes[False]

    @pytest.mark.parametrize("g", [1, 2])
    def test_product(self, g):
        p = catalog("product(surface:%d,surface:%d)" % (g, g))
        f = surface_presentation(g).alphabet
        rng = seeded_rng(410 + g)
        chars = []
        for i in range(8):
            n = rng.randint(2, 12)
            a = Character(f, n, [rng.randrange(n) for _ in f.names])
            b = Character(f, n, [rng.randrange(n) for _ in f.names])
            pattern = i % 4
            if pattern == 1:
                a = Character(f, n)
            elif pattern == 2:
                b = a.inverse()
            elif pattern == 3:
                b = Character(f, n)
            chars.append(product_character(p, a, b))
        routes = self._check(p, chars)
        assert routes[True] and routes[False]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_artin_pure(self, n):
        p = catalog("artin_pure:%d" % n)
        names = p.alphabet.names
        rng = seeded_rng(420 + n)
        chars = self._uniform(p.alphabet, rng, 6)
        for _ in range(4):
            # a local component: three pair generators on one triple of
            # strands whose exponents sum to zero, every other one trivial
            order = rng.randint(2, 30)
            i, j, k = sorted(rng.sample(range(1, n + 1), 3))
            x, y = rng.randrange(order), rng.randrange(order)
            vals = {"A%d_%d" % (i, j): x, "A%d_%d" % (i, k): y, "A%d_%d" % (j, k): -x - y}
            assert set(vals) <= set(names)
            chars.append(Character(p.alphabet, order, vals))
        routes = self._check(p, chars)
        assert routes[True] and routes[False]

    def test_p2_torus(self):
        with open(P2_TORUS, encoding="utf-8") as fh:
            p = parse_presentation(fh.read())
        f = surface_presentation(1).alphabet
        rng = seeded_rng(430)
        chars = [
            _p2_torus_character(p, random_character_tuple(f, 2, rng, max_order=30, pair_bias=0.5))
            for _ in range(16)
        ]
        routes = self._check(p, chars)
        assert routes[True] and routes[False]

    def test_exponent_check_names_the_failing_relator(self):
        # exponent sums against the value of each relator as a product of
        # the integer matrices of zeta^(+-e) in the regular representation
        p = parse_presentation("gens: a b\nrel: a b a^-1 b^-1\nrel: a a a\nrel: b b")
        rng = seeded_rng(440)
        rejected = 0
        for _ in range(40):
            n = rng.randint(1, 12)
            chi = Character(p.alphabet, n, [rng.randrange(n), rng.randrange(n)])
            ctx = CycContext(n)
            eye = IntMatrix.identity(ctx.degree)

            def value(word):
                v = eye
                for g, sign in word.letters:
                    v = v @ ctx.matrix({sign * chi.exponents[g] % n: 1})
                return v

            first_bad = next((r for r in p.relators if value(r) != eye), None)
            check = validate_character(p, chi)
            assert bool(check) == (first_bad is None)
            assert check.failing_relator == first_bad
            if first_bad is not None:
                rejected += 1
                with pytest.raises(PreconditionError, match=p.alphabet.format_word(first_bad)):
                    h1_dim(p, chi)
        assert rejected


class TestDenseExponents:
    """Large orders with exponents drawn uniformly mod N."""

    N = 10007

    @pytest.mark.parametrize("g,expected", [(1, 0), (2, 2)])
    def test_surface_nontrivial(self, g, expected):
        p = surface_presentation(g)
        rng = seeded_rng(500 + g)
        CycContext._cache.pop(self.N, None)
        for _ in range(3):
            exps = [rng.randrange(1, self.N) for _ in p.alphabet.names]
            assert h1_dim(p, Character(p.alphabet, self.N, exps)) == expected
        # the certificate decides these, so no field of degree N - 1 is built
        assert self.N not in CycContext._cache

    @pytest.mark.parametrize("g", [1, 2])
    def test_surface_trivial(self, g):
        p = surface_presentation(g)
        assert h1_dim(p, Character(p.alphabet, self.N)) == 2 * g

    def test_product_matches_kunneth(self):
        p = catalog("product(surface:2,surface:2)")
        f = surface_presentation(2).alphabet
        rng = seeded_rng(510)
        n = 242
        for ta, tb in [(True, True), (True, False), (False, True), (False, False)]:
            a = Character(f, n, [0 if ta else rng.randrange(n) for _ in f.names])
            b = Character(f, n, [0 if tb else rng.randrange(n) for _ in f.names])
            # closed-form factor profiles: trivial (1, 4), nontrivial (0, 2)
            prof = [(1, 4) if c.is_trivial else (0, 2) for c in (a, b)]
            assert h1_dim(p, product_character(p, a, b)) == kunneth_h1(prof)

    def test_fallback_builds_no_cyclotomic_polynomial(self, monkeypatch):
        # a product with one trivial factor takes the norm-bound fallback,
        # which needs only phi(N); at N = 3960 it is read off the primes
        calls = []
        build = cyclotomic.cyclotomic_polynomial

        def counted(n):
            calls.append(n)
            return build(n)

        monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", counted)
        p = catalog("product(surface:2,surface:2)")
        f = surface_presentation(2).alphabet
        rng = seeded_rng(520)
        n = 3960
        a = Character(f, n, [0] * len(f.names))
        b = Character(f, n, [rng.randrange(n) for _ in f.names])
        assert not b.is_trivial
        assert h1_dim(p, product_character(p, a, b)) == kunneth_h1([(1, 4), (0, 2)])
        assert calls == []
