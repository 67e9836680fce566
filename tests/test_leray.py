"""Tests for the spectral sequence fragments, Betti reports, twisted
dimensions and jump loci."""

import itertools
import math

import pytest

from braidhom.cohomology import (
    h1_dim,
    random_character,
    random_character_tuple,
    seeded_rng,
)
from braidhom.errors import (
    AlphabetMismatchError,
    InputError,
    OutOfRangeError,
    OutOfScopeError,
)
from braidhom import exactlin, leray
from braidhom.exactlin import (
    IntMatrix,
    bareiss_determinant,
    column_divisors,
    smith_normal_form,
    _eliminate_units,
    _sparse_columns,
)
from braidhom.leray import (
    _SIZE_LIMIT as SIZE_LIMIT,
    b1_pure_braid,
    diagonal_class,
    e2_trivial,
    factor_presentation,
    h1_twisted_pure_braid,
    pullback_vanishing,
    sigma1_components,
    sigma1_membership,
)
from braidhom.presentations import (
    Character,
    CharacterTuple,
    SpaceSpec,
    free_presentation,
    surface_presentation,
)
from braidhom.verify import _independent_h1

GENUS1 = SpaceSpec.parse("genus:1")
GENUS2 = SpaceSpec.parse("genus:2")
GENUS3 = SpaceSpec.parse("genus:3")
SPHERE = SpaceSpec.parse("sphere")
CSTAR = SpaceSpec.parse("c-star")

TORUS_AB = surface_presentation(1).alphabet
G2_AB = surface_presentation(2).alphabet
CSTAR_AB = free_presentation(1).alphabet


def nontrivial(alphabet, order, **vals):
    return Character(alphabet, order, vals)


class TestDiagonalClass:
    def test_genus_zero(self):
        d = diagonal_class(0)
        assert (d.e1, d.e2) == (1, 1)
        assert d.block == ()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_block_determinant_one(self, g):
        d = diagonal_class(g)
        assert len(d.block) == 2 * g
        rows = [[0] * (2 * g) for _ in range(2 * g)]
        for a, b, v in d.block:
            assert v and not rows[a][b]
            rows[a][b] = v
        assert bareiss_determinant(IntMatrix(rows, ncols=2 * g)) == 1

    def test_negative_genus(self):
        with pytest.raises(InputError):
            diagonal_class(-1)


def dense_d2(f) -> IntMatrix:
    """The pair differential as a dense rank20 x rank01 matrix."""
    rows = [[0] * f.rank01 for _ in range(f.rank20)]
    for c, col in enumerate(f.d2):
        for i, v in col.items():
            rows[i][c] = v
    return IntMatrix(rows, ncols=f.rank01)


class TestE2Fragment:
    @pytest.mark.parametrize(
        "g,n,ranks",
        [(1, 2, (4, 1, 6)), (0, 3, (0, 3, 3)), (2, 3, (12, 3, 51)), (3, 2, (12, 1, 38))],
    )
    def test_ranks(self, g, n, ranks):
        f = e2_trivial(g, n)
        assert (f.rank10, f.rank01, f.rank20) == ranks
        assert len(f.d2) == f.rank01
        for col in f.d2:
            assert len(col) == 2 + 2 * g
            assert all(0 <= i < f.rank20 and v for i, v in col.items())

    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_columns_match_dense_oracle(self, g, n):
        f = e2_trivial(g, n)
        assert column_divisors(f.d2) == smith_normal_form(dense_d2(f)).divisors

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9, 12, 16, 20])
    def test_d2_injective_torsion_free(self, g, n):
        f = e2_trivial(g, n)
        assert column_divisors(f.d2) == (1,) * f.rank01
        assert f.rank01 == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(4, 13))
    def test_sphere_d2_torsion_is_two(self, n):
        f = e2_trivial(0, n)
        assert column_divisors(f.d2) == (1,) * (n - 1) + (2,)
        assert smith_normal_form(dense_d2(f)).divisors == (1,) * (n - 1) + (2,)

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20])
    def test_pair_differential_eliminates_without_fill(self, g, n):
        # every column owns 2g rows that no other column touches: each
        # pivot is such a row, so no second column changes and no dense
        # block is left
        cols, row_index = _sparse_columns(e2_trivial(g, n).d2)
        before = {j: dict(col) for j, col in cols.items()}
        columns = dict(cols)
        assert _eliminate_units(cols, row_index) == n * (n - 1) // 2
        assert cols == {}
        for j, col in columns.items():
            assert len(col) == len(before[j]) - 1
            assert col.items() <= before[j].items()

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("n", range(2, 21))
    def test_private_row_pass_takes_every_column(self, g, n, monkeypatch):
        # each column's first private row is a unit of count 1, so the
        # pass takes every column and the bucket queue is never entered
        seen = []

        def spy(columns):
            seen.append(list(columns))
            return _sparse_columns(columns)

        monkeypatch.setattr(exactlin, "_sparse_columns", spy)
        assert column_divisors(e2_trivial(g, n).d2) == (1,) * (n * (n - 1) // 2)
        assert seen == []

    @pytest.mark.parametrize("n", range(3, 21))
    def test_sphere_has_no_private_rows(self, n, monkeypatch):
        # every orientation row holds n - 1 >= 2 entries, so the pass
        # takes nothing and the queue receives every column
        seen = []

        def spy(columns):
            seen.append(list(columns))
            return _sparse_columns(columns)

        monkeypatch.setattr(exactlin, "_sparse_columns", spy)
        f = e2_trivial(0, n)
        assert column_divisors(f.d2) == (1,) * (n - 1) + (2,)
        assert seen == [list(f.d2)]

    @pytest.mark.parametrize("n", range(3, 21))
    def test_sphere_elimination_leaves_the_two(self, n):
        # n - 1 unit pivots on K_n's incidence matrix; one row is left,
        # and its entries have gcd 2
        cols, row_index = _sparse_columns(e2_trivial(0, n).d2)
        assert _eliminate_units(cols, row_index) == n - 1
        (row,) = [i for i, js in row_index.items() if js]
        assert all(col.keys() == {row} for col in cols.values())
        assert math.gcd(*(col[row] for col in cols.values())) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sphere_d2_rank_is_n(self, n):
        # every column joins two of the n orientation rows, so the rank
        # is that of the complete graph's incidence matrix: 1 at n = 2
        f = e2_trivial(0, n)
        assert len(column_divisors(f.d2)) == (1 if n == 2 else n)

    def test_strand_bound(self):
        with pytest.raises(OutOfRangeError):
            e2_trivial(1, 1)

    # the largest strand count (or genus at n = 2) whose pair differential
    # holds at most SIZE_LIMIT nonzeros, C(n,2) (2 + 2g) of them
    @pytest.mark.parametrize("g,n", [(0, 447), (1, 316), (2, 258), (99999, 2)])
    def test_size_bound_edge(self, g, n):
        f = e2_trivial(g, n)
        assert sum(map(len, f.d2)) == f.rank01 * (2 + 2 * g) <= SIZE_LIMIT
        closed = (1,) * (n - 1) + (2,) if g == 0 else (1,) * f.rank01
        assert column_divisors(f.d2) == closed
        big_g, big_n = (g + 1, n) if n == 2 else (g, n + 1)
        with pytest.raises(OutOfRangeError, match="limited to %d" % SIZE_LIMIT):
            e2_trivial(big_g, big_n)


class TestB1Reports:
    def test_genus2_three_strands(self):
        r = b1_pure_braid(GENUS2, 3)
        assert r.free_rank == 12
        assert r.torsion == ()
        assert set(r.divisors) == {1}
        assert len(r.divisors) == 3

    @pytest.mark.parametrize("g,n", [(1, 2), (1, 5), (2, 2), (3, 4)])
    def test_genus_rank_formula(self, g, n):
        r = b1_pure_braid(SpaceSpec.parse("genus:%d" % g), n)
        assert r.free_rank == 2 * g * n
        assert r.torsion == ()

    def test_sphere_four_strands(self):
        r = b1_pure_braid(SPHERE, 4)
        assert r.free_rank == 2
        assert r.torsion == (2,)
        assert r.flags

    def test_sphere_two_strands(self):
        r = b1_pure_braid(SPHERE, 2)
        assert r.free_rank == 0
        assert r.torsion == ()
        assert r.flags

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sphere_rank_formula(self, n):
        r = b1_pure_braid(SPHERE, n)
        assert r.free_rank == n * (n - 1) // 2 - n
        assert r.torsion == (2,)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cstar_rank_formula(self, n):
        r = b1_pure_braid(CSTAR, n)
        assert r.free_rank == n + n * (n - 1) // 2
        assert r.divisors == ()

    def test_cstar_two_strands_is_three(self):
        assert b1_pure_braid(CSTAR, 2).free_rank == 3

    @pytest.mark.parametrize("space,n", [(CSTAR, 150), (GENUS2, 20), (SPHERE, 12)])
    def test_builds_no_dense_matrix(self, monkeypatch, space, n):
        # the pair differential goes to the Smith form as sparse columns
        built = []
        init = IntMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        r = b1_pure_braid(space, n)
        assert built == []
        pairs = n * (n - 1) // 2
        if space.kind == "genus":
            assert r.free_rank == 2 * space.genus * n
        else:
            assert r.free_rank == (n + pairs if space.kind == "c-star" else pairs - n)

    def test_unsupported_space(self):
        with pytest.raises(OutOfScopeError):
            b1_pure_braid(SpaceSpec.parse("plane"), 3)

    def test_strand_bound(self):
        with pytest.raises(OutOfRangeError):
            b1_pure_braid(GENUS2, 1)


class TestTwisted:
    def test_torus_pair_count_example(self):
        # the total character sigma . sigma^-1 . sigma = sigma is
        # nontrivial, so the split-off Z^2 factor kills h1
        sigma = nontrivial(TORUS_AB, 5, a=1)
        rho = CharacterTuple([sigma, sigma.inverse(), sigma])
        assert h1_twisted_pure_braid(GENUS1, 3, rho) == 0

    def test_genus2_one_sided(self):
        r1 = nontrivial(G2_AB, 3, a1=1)
        rho = CharacterTuple([r1, Character(G2_AB, 1)])
        assert h1_twisted_pure_braid(GENUS2, 2, rho) == 2

    def test_genus2_cancelling_pair(self):
        r1 = nontrivial(G2_AB, 3, a1=1)
        rho = CharacterTuple([r1, r1.inverse()])
        assert h1_twisted_pure_braid(GENUS2, 2, rho) == 0

    def test_pair_count_bound(self):
        # C(633, 2) pairs exceed the bound, which fires before the tuple
        # is looked at; C(632, 2) pass it and reach the component count
        rho = CharacterTuple([Character(CSTAR_AB, 1)] * 2)
        with pytest.raises(OutOfRangeError, match="limited to %d" % SIZE_LIMIT):
            h1_twisted_pure_braid(CSTAR, 633, rho)
        with pytest.raises(InputError, match="2 components for n = 632"):
            h1_twisted_pure_braid(CSTAR, 632, rho)

    def test_factor_group_has_catalog_bound(self):
        assert factor_presentation(SpaceSpec.parse("genus:2000")).num_generators == 4000
        with pytest.raises(OutOfRangeError, match="limited to genus 2000"):
            factor_presentation(SpaceSpec.parse("genus:2001"))

    def test_cstar_one_sided(self):
        r2 = nontrivial(CSTAR_AB, 4, a=1)
        rho = CharacterTuple([Character(CSTAR_AB, 1), r2])
        assert h1_twisted_pure_braid(CSTAR, 2, rho) == 0

    @pytest.mark.parametrize(
        "space,ns",
        [(GENUS1, (2, 3, 4)), (GENUS2, (2, 3, 4)), (GENUS3, (2, 3)), (CSTAR, (2, 3, 4))],
    )
    def test_trivial_tuple_matches_betti(self, space, ns):
        ab = (
            surface_presentation(space.genus).alphabet
            if space.kind == "genus"
            else CSTAR_AB
        )
        for n in ns:
            rho = CharacterTuple([Character(ab, 1)] * n)
            assert (
                h1_twisted_pure_braid(space, n, rho)
                == b1_pure_braid(space, n).free_rank
            )

    def test_component_count_checked(self):
        rho = CharacterTuple([Character(TORUS_AB, 1)] * 3)
        with pytest.raises(InputError):
            h1_twisted_pure_braid(GENUS1, 2, rho)

    def test_alphabet_checked(self):
        rho = CharacterTuple([Character(CSTAR_AB, 1)] * 2)
        with pytest.raises(AlphabetMismatchError):
            h1_twisted_pure_braid(GENUS1, 2, rho)

    def test_sphere_out_of_scope(self):
        rho = CharacterTuple([Character(TORUS_AB, 1)] * 2)
        with pytest.raises(OutOfScopeError):
            h1_twisted_pure_braid(SPHERE, 2, rho)

    def test_generic_pair_torus_value(self):
        # the support pair alone gives 1; one more nontrivial component
        # leaves no pair class on the second page and gives 0
        rng = seeded_rng(404)
        found = 0
        while found < 50:
            n = rng.choice((3, 4))
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            chi = random_character(TORUS_AB, rng, max_order=9)
            if chi.is_trivial:
                continue
            comps = [Character(TORUS_AB, 1)] * n
            comps[i], comps[j] = chi, chi.inverse()
            assert h1_twisted_pure_braid(GENUS1, n, CharacterTuple(comps)) == 1
            k = rng.choice([k for k in range(n) if k not in (i, j)])
            comps[k] = random_character(TORUS_AB, rng, max_order=9, nontrivial=True)
            assert h1_twisted_pure_braid(GENUS1, n, CharacterTuple(comps)) == 0
            found += 1


class TestIndependentRoutes:
    """The support rule against routes that share nothing with it: Fox
    calculus on ``artin_pure:n+1`` at the pulled back character for the
    punctured plane and on ``data/p2_torus.pres`` for the two-strand
    torus (both through ``verify._independent_h1``), and the vanishing a
    nontrivial total character forces on the torus."""

    @pytest.mark.parametrize("n,order", [(3, 5), (4, 3)])
    def test_cstar_every_tuple_matches_fox(self, n, order):
        for exps in itertools.product(range(order), repeat=n):
            rho = CharacterTuple(Character(CSTAR_AB, order, [e]) for e in exps)
            got = h1_twisted_pure_braid(CSTAR, n, rho)
            assert got == _independent_h1(CSTAR, n, rho), exps

    def test_p2_torus_every_tuple_matches_fox(self):
        for exps in itertools.product(range(4), repeat=4):
            rho = CharacterTuple(
                [Character(TORUS_AB, 4, exps[:2]), Character(TORUS_AB, 4, exps[2:])]
            )
            expected = _independent_h1(GENUS1, 2, rho)
            assert expected is not None
            assert h1_twisted_pure_braid(GENUS1, 2, rho) == expected, exps

    @pytest.mark.parametrize("n", [3, 4])
    def test_torus_nontrivial_total_character_vanishes(self, n):
        # P_n(T) = Z^2 x P_(n-1)(T minus a point), and the Z^2 factor acts
        # through the product of the characters
        rng = seeded_rng(700 + n)
        checked = 0
        while checked < 200:
            rho = random_character_tuple(TORUS_AB, n, rng, max_order=8, pair_bias=0.4)
            total = rho.component(0)
            for i in range(1, n):
                total = total * rho.component(i)
            if total.is_trivial:
                continue
            assert h1_twisted_pure_braid(GENUS1, n, rho) == 0
            checked += 1


class TestSigmaComponents:
    def test_genus3_two_strands(self):
        d = sigma1_components(GENUS3, 2)
        assert len(d.components) == 2
        assert {c.dimension for c in d.components} == {6}
        assert d.ambient_dim == 12

    def test_torus_three_strands(self):
        d = sigma1_components(GENUS1, 3)
        assert [c.label for c in d.components] == ["T_1_2", "T_1_3", "T_2_3"]
        assert {c.dimension for c in d.components} == {2}
        assert d.flags

    def test_cstar_three_strands(self):
        d = sigma1_components(CSTAR, 3)
        assert len(d.components) == 3
        assert {c.dimension for c in d.components} == {1}
        assert d.ambient_dim == 3

    def test_out_of_scope(self):
        with pytest.raises(OutOfScopeError):
            sigma1_components(SPHERE, 3)

    # one component per strand in genus >= 2, one per pair otherwise
    @pytest.mark.parametrize(
        "space,n",
        [(GENUS2, SIZE_LIMIT), (GENUS1, 632), (CSTAR, 632)],
        ids=["genus:2", "genus:1", "c-star"],
    )
    def test_size_bound_edge(self, space, n):
        assert len(sigma1_components(space, n).components) <= SIZE_LIMIT
        with pytest.raises(OutOfRangeError, match="limited to %d" % SIZE_LIMIT):
            sigma1_components(space, n + 1)


class TestMembership:
    def test_cancelling_pair_is_member(self):
        sigma = nontrivial(TORUS_AB, 5, a=1)
        m = sigma1_membership(GENUS1, 2, CharacterTuple([sigma, sigma.inverse()]))
        assert m.member
        assert m.components == ("T_1_2",)
        assert m.h1 == 1
        assert not m.trivial

    def test_equal_pair_not_member(self):
        sigma = nontrivial(TORUS_AB, 5, a=1)
        m = sigma1_membership(GENUS1, 2, CharacterTuple([sigma, sigma]))
        assert not m.member
        assert m.h1 == 0

    def test_genus2_both_nontrivial_not_member(self):
        rho = CharacterTuple(
            [nontrivial(G2_AB, 3, a1=1), nontrivial(G2_AB, 3, b2=1)]
        )
        m = sigma1_membership(GENUS2, 2, rho)
        assert not m.member
        assert m.h1 == 0

    def test_trivial_tuple_flagged(self):
        rho = CharacterTuple([Character(TORUS_AB, 1)] * 2)
        m = sigma1_membership(GENUS1, 2, rho)
        assert m.trivial
        assert m.member
        assert m.h1 > 0

    def test_support_pair_only(self):
        sigma = nontrivial(TORUS_AB, 5, a=1)
        one = Character(TORUS_AB, 1)
        m = sigma1_membership(GENUS1, 3, CharacterTuple([sigma, one, sigma.inverse()]))
        assert (m.components, m.h1) == (("T_1_3",), 1)
        assert m.flags
        m = sigma1_membership(GENUS1, 3, CharacterTuple([sigma, sigma, sigma.inverse()]))
        assert (m.member, m.components, m.h1) == (False, (), 0)

    def test_one_factor_build_one_h1_per_distinct_component(self, monkeypatch):
        import braidhom.presentations as presentations

        builds, chars = [], []
        build, h1 = presentations.surface_presentation, leray.h1_dim
        monkeypatch.setattr(
            presentations, "surface_presentation", lambda g: builds.append(g) or build(g)
        )
        monkeypatch.setattr(leray, "h1_dim", lambda p, chi: chars.append(chi) or h1(p, chi))
        presentations.catalog.cache_clear()
        leray._factor_h1.cache_clear()
        sigma = nontrivial(G2_AB, 3, a1=1)
        one = Character(G2_AB, 1)
        rho = CharacterTuple([one, sigma, one, one])
        m = sigma1_membership(GENUS2, 4, rho)
        assert m.components == ("pi_2",) and m.h1 == 2
        assert builds == [2]
        # the support rule reads h1 only at the one nontrivial component
        assert chars == [sigma]
        # a later call on the same space reuses the cached factor
        h1_twisted_pure_braid(GENUS2, 4, rho)
        assert factor_presentation(GENUS2).alphabet == G2_AB
        assert builds == [2]

    @pytest.mark.parametrize("space", [GENUS1, GENUS2, CSTAR])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bidirectionality(self, space, n):
        ab = (
            surface_presentation(space.genus).alphabet
            if space.kind == "genus"
            else CSTAR_AB
        )
        rng = seeded_rng(1000 + 10 * n + (space.genus or 0))
        for _ in range(100):
            rho = random_character_tuple(ab, n, rng, max_order=8, pair_bias=0.35)
            m = sigma1_membership(space, n, rho)
            assert m.member == (m.h1 > 0) == bool(m.components)


class TestFactorH1Memo:
    """``leray._factor_h1``, the support rule's memo of factor h1 across
    calls, keyed by space and character."""

    @pytest.mark.parametrize(
        "space", [GENUS1, GENUS2, CSTAR], ids=["genus:1", "genus:2", "c-star"]
    )
    def test_matches_fresh_h1(self, space):
        factor = factor_presentation(space)
        rng = seeded_rng(2000 + (space.genus or 0))
        for _ in range(30):
            rho = random_character_tuple(factor.alphabet, 3, rng, max_order=9, pair_bias=0.35)
            for chi in rho.components:
                assert leray._factor_h1(space, chi) == h1_dim(factor, chi)

    def test_second_call_computes_no_h1(self, monkeypatch):
        rng = seeded_rng(2100)
        sigma = random_character(G2_AB, rng, nontrivial=True)
        rho = CharacterTuple([sigma, Character(G2_AB, 1), sigma.inverse()])
        calls = []
        h1 = leray.h1_dim
        monkeypatch.setattr(leray, "h1_dim", lambda p, chi: calls.append(chi) or h1(p, chi))
        leray._factor_h1.cache_clear()
        first = sigma1_membership(GENUS2, 3, rho)
        assert calls
        del calls[:]
        assert sigma1_membership(GENUS2, 3, rho) == first
        assert h1_twisted_pure_braid(GENUS2, 3, rho) == first.h1
        assert calls == []

    def test_equal_characters_share_an_entry(self):
        a = Character(G2_AB, 6, [1, 2, 3, 4])
        b = Character(G2_AB, 6, [7, -4, 9, 4])
        assert a is not b and a == b and hash(a) == hash(b)
        leray._factor_h1.cache_clear()
        assert leray._factor_h1(GENUS2, a) == leray._factor_h1(GENUS2, b)
        info = leray._factor_h1.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize(
        "chi, error",
        [
            (Character(G2_AB, 10**6 + 3, [1, 0, 0, 0]), OutOfRangeError),
            (Character(TORUS_AB, 3, [1, 0]), InputError),
        ],
        ids=["order-past-limit", "wrong-alphabet"],
    )
    def test_failure_raises_on_every_call(self, chi, error):
        leray._factor_h1.cache_clear()
        for _ in range(2):
            with pytest.raises(error):
                leray._factor_h1(GENUS2, chi)
        assert leray._factor_h1.cache_info().currsize == 0

    def test_bounded(self):
        maxsize = leray._factor_h1.cache_info().maxsize
        assert maxsize is not None and maxsize >= 4096


def _pair_witnesses(n, k):
    """k distinct torus tuples in the first pair component: a character
    of order N and its inverse, N = 3, 4, ..., then trivial components."""
    out = []
    for order in range(3, k + 3):
        sigma = Character(TORUS_AB, order, {"a": 1})
        rest = [Character(TORUS_AB, 1)] * (n - 2)
        out.append(CharacterTuple([sigma, sigma.inverse(), *rest]))
    return out


class TestWitnesses:
    def test_three_distinct_members(self):
        ws = _pair_witnesses(2, 3)
        assert len(ws) == len(set(ws)) == 3
        for rho in ws:
            m = sigma1_membership(GENUS1, 2, rho)
            assert m.member and m.h1 >= 1

    def test_three_strand_witnesses_in_first_pair(self):
        for rho in _pair_witnesses(3, 2):
            m = sigma1_membership(GENUS1, 3, rho)
            assert "T_1_2" in m.components

    def test_many_witnesses_all_distinct(self):
        ws = _pair_witnesses(2, 12)
        assert len(set(ws)) == 12
        for rho in ws:
            assert sigma1_membership(GENUS1, 2, rho).components == ("T_1_2",)


class TestCstarLocus:
    def test_pair_components_fall_short_of_cited_dimension(self):
        # on C* with 4 strands the computed pair component (dimension 1)
        # falls short of the cited subtorus (dimension n - 1 = 3), and
        # the payload flags the departure
        locus = sigma1_components(CSTAR, 4)
        assert locus.components[0].dimension == 1
        assert locus.flags
        assert locus.anchors == ("sigma1-cstar",)


class TestPullback:
    def test_vanishes(self):
        fact = pullback_vanishing(2, 3, 2)
        assert fact.value == 0
        assert fact.degree == 4

    def test_range(self):
        with pytest.raises(OutOfRangeError):
            pullback_vanishing(2, 3, 4)
        with pytest.raises(OutOfRangeError):
            pullback_vanishing(2, 3, 1)
        with pytest.raises(InputError):
            pullback_vanishing(0, 3, 2)
