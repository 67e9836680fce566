"""Tests for cyclotomic integers, their regular representation, and rank."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidhom import cyclotomic
from braidhom.cyclotomic import (
    CycContext,
    certified_rank,
    cyclotomic_polynomial,
    euler_phi,
    find_splitting_prime,
    is_prime,
    order_n_root,
    rank_kernel,
    splitting_root,
)
from braidhom.errors import OutOfRangeError
from braidhom.exactlin import IntMatrix, bareiss_determinant, column_divisors


class TestCyclotomicPolynomial:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_prime_case_all_ones(self):
        assert cyclotomic_polynomial(7) == (1,) * 7

    def test_degree_is_totient(self):
        known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 10: 4, 12: 4, 15: 8}
        for n, phi in known.items():
            assert euler_phi(n) == phi

    def test_totient_from_factors_matches_polynomial_degree(self):
        for n in range(1, 1001):
            assert euler_phi(n) == len(cyclotomic_polynomial(n)) - 1, n

    def test_product_over_divisors(self):
        # prod_{d | n} Phi_d = x^n - 1, checked by multiplying back.
        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        for n in (6, 8, 12):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = mul(prod, cyclotomic_polynomial(d))
            expect = [0] * (n + 1)
            expect[0], expect[n] = -1, 1
            assert prod == expect


def _matrix_sum(mats):
    rows = [[sum(col) for col in zip(*rs)] for rs in zip(*(m.rows for m in mats))]
    return IntMatrix(rows, ncols=mats[0].ncols)


def _scale(m, c):
    return IntMatrix([[c * x for x in r] for r in m.rows], ncols=m.ncols)


class TestFieldArithmetic:
    """Q(zeta_N) through the regular representation: the integer matrix
    ``CycContext.matrix`` of an element, M = matrix({1: 1}) for zeta."""

    def test_zeta_has_exact_order(self):
        for n in (1, 2, 3, 4, 5, 6, 12):
            ctx = CycContext(n)
            m = ctx.matrix({1: 1})
            eye = IntMatrix.identity(ctx.degree)
            acc = eye
            for k in range(1, n):
                acc = acc @ m
                assert acc != eye, (n, k)
            assert acc @ m == eye

    def test_geometric_sum_vanishes(self):
        for n in (2, 3, 5, 12):
            ctx = CycContext(n)
            m = ctx.matrix({1: 1})
            powers = [IntMatrix.identity(ctx.degree)]
            for _ in range(1, n):
                powers.append(powers[-1] @ m)
            assert _matrix_sum(powers) == IntMatrix.zeros(ctx.degree, ctx.degree)
            assert ctx.matrix({k: 1 for k in range(n)}) == IntMatrix.zeros(ctx.degree, ctx.degree)

    def test_context_is_shared(self):
        assert CycContext(5) is CycContext(5)
        # zeta's matrix is a root of the shared minimal polynomial
        for n in (1, 4, 5, 9, 12):
            ctx = CycContext(n)
            m = ctx.matrix({1: 1})
            acc = IntMatrix.identity(ctx.degree)
            terms = []
            for c in ctx.minpoly:
                terms.append(_scale(acc, c))
                acc = acc @ m
            assert _matrix_sum(terms) == IntMatrix.zeros(ctx.degree, ctx.degree), n

    def test_rational_embedding(self):
        # an integer c is the scalar matrix c * I; zeta is not a scalar
        ctx = CycContext(8)
        assert ctx.matrix({0: 3}) == _scale(IntMatrix.identity(4), 3)
        assert ctx.matrix({0: 3, 1: 1}) != _scale(IntMatrix.identity(4), 3)

    def test_zero_inverse_raises(self):
        # zero acts as the zero matrix, of rank 0, so it has no inverse
        ctx = CycContext(3)
        assert ctx.matrix({}) == ctx.matrix({0: 0, 1: 0}) == IntMatrix.zeros(2, 2)
        assert bareiss_determinant(ctx.matrix({})) == 0
        assert ctx.rank([[]], 1) == 0

    def test_inverse_roundtrip_frozen(self):
        # 1 + zeta_5 is a unit of Z[zeta_5] (its norm Phi_5(-1) is 1), and
        # zeta^-1 = zeta^4 inverts zeta
        ctx = CycContext(5)
        assert bareiss_determinant(ctx.matrix({0: 1, 1: 1})) == 1
        assert ctx.matrix({1: 1}) @ ctx.matrix({4: 1}) == IntMatrix.identity(4)

    def test_negative_power(self):
        ctx = CycContext(7)
        assert ctx.matrix({-1: 1}) == ctx.matrix({6: 1})
        assert ctx.matrix({-3: 1}) @ ctx.matrix({3: 1}) == IntMatrix.identity(6)


def _sparse(rows):
    """The sparse rows that ``CycContext.rank`` and ``certified_rank``
    read, (j, e, c) for c * zeta^e in column j, of a matrix written with
    one mapping from exponents to coefficients per entry."""
    return [[(j, e, c) for j, entry in enumerate(row) for e, c in entry.items()] for row in rows]


def _terms(n):
    return st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=4)


def _mul_terms(a, b, n):
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[(e + f) % n] = out.get((e + f) % n, 0) + c * d
    return out


def _add_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


class TestFieldAxioms:
    """The regular representation is a ring map from Z[zeta_N] into
    integer matrices, and a nonzero element acts with full rank."""

    @settings(max_examples=60, deadline=None)
    @given(_terms(12), _terms(12), _terms(12))
    def test_distributive_and_associative(self, a, b, c):
        ctx = CycContext(12)
        ma, mb, mc = ctx.matrix(a), ctx.matrix(b), ctx.matrix(c)
        assert ctx.matrix(_add_terms(a, b)) == _matrix_sum([ma, mb])
        assert ctx.matrix(_mul_terms(a, b, 12)) == ma @ mb
        assert (ma @ mb) @ mc == ma @ (mb @ mc)
        assert _matrix_sum([ma, mb]) @ mc == _matrix_sum([ma @ mc, mb @ mc])

    @settings(max_examples=60, deadline=None)
    @given(_terms(12))
    def test_inverse_when_nonzero(self, a):
        ctx = CycContext(12)
        m = ctx.matrix(a)
        # the first column is the element's coordinate vector
        nonzero = any(r[0] for r in m.rows)
        assert (bareiss_determinant(m) != 0) == nonzero
        assert ctx.rank(_sparse([[a]]), 1) == (1 if nonzero else 0)

    @settings(max_examples=40, deadline=None)
    @given(_terms(9), _terms(9))
    def test_commutative(self, a, b):
        ctx = CycContext(9)
        assert ctx.matrix(a) @ ctx.matrix(b) == ctx.matrix(b) @ ctx.matrix(a)


small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def _divisor_rank(rows, ncols):
    """Rank over Q by an independent route: the number of nonzero
    elementary divisors of the integer matrix whose rows are ``rows``,
    each scaled by the lcm of its denominators."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        den = math.lcm(*(Fraction(x).denominator for x in row))
        for j, x in enumerate(row):
            if x:
                columns[j][i] = int(x * den)
    return len(column_divisors(columns))


class TestRankKernel:
    def test_rational_rank(self):
        one = Fraction(1)
        rows = [
            [Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
        assert rank_kernel(rows, 3, one) == 2 == _divisor_rank(rows, 3)
        # int rows are ranked over Q through ``one``
        assert rank_kernel([[2, 4, 6], [3, 6, 9], [0, 0, 5]], 3, one) == 2

    def test_empty_matrix(self):
        assert rank_kernel([], 3, Fraction(1)) == 0
        with pytest.raises(ValueError):
            rank_kernel([[1, 2]], 3, Fraction(1))

    def test_cyclotomic_rank_drop(self):
        # [[1, zeta], [zeta^-1, 1]] over Q(zeta_5): the second row is
        # zeta^-1 times the first
        ctx = CycContext(5)
        assert ctx.rank([[(0, 0, 1), (1, 1, 1)], [(0, 4, 1), (1, 0, 1)]], 2) == 1
        assert ctx.rank([[(0, 0, 1), (1, 1, 1)], [(0, 4, 1), (1, 0, 2)]], 2) == 2

    def test_cyclotomic_kernel_annihilates(self):
        # the row (1 - zeta, zeta^2, 1) over Q(zeta_8) has rank 1; the
        # two independent vectors (1, 0, zeta - 1) and (0, 1, -zeta^2)
        # annihilate it, so its nullity is 2
        ctx = CycContext(8)
        row = [{0: 1, 1: -1}, {2: 1}, {0: 1}]
        kernel = [[{0: 1}, {}, {1: 1, 0: -1}], [{}, {0: 1}, {2: -1}]]
        assert ctx.rank(_sparse([row]), 3) == 1
        assert ctx.rank(_sparse(kernel), 3) == 2
        zero = IntMatrix.zeros(ctx.degree, ctx.degree)
        for v in kernel:
            assert _matrix_sum([ctx.matrix(a) @ ctx.matrix(b) for a, b in zip(row, v)]) == zero

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(small_fracs, min_size=3, max_size=3), min_size=0, max_size=4
        )
    )
    def test_rank_matches_integer_divisors(self, rows):
        rows = [[Fraction(x) for x in r] for r in rows]
        assert rank_kernel(rows, 3, Fraction(1)) == _divisor_rank(rows, 3)


class TestModularPath:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 1000003}
        for p in primes:
            assert is_prime(p)
        for c in (0, 1, 4, 91, 1000001):
            assert not is_prime(c)

    def test_splitting_prime_properties(self):
        for n in (1, 2, 5, 12):
            q = find_splitting_prime(n)
            assert is_prime(q)
            assert q % n == 1 % n

    def test_splitting_prime_avoids(self):
        # the fallback of certified_rank draws further primes by raising
        # the lower bound past the last one
        q0 = find_splitting_prime(4)
        q1 = find_splitting_prime(4, lower=q0 + 1)
        assert q1 > q0 and is_prime(q1) and q1 % 4 == 1
        assert not any(is_prime(q) for q in range(q0 + 4, q1, 4))

    def test_order_n_root(self):
        q = find_splitting_prime(12)
        w = order_n_root(q, 12)
        assert pow(w, 12, q) == 1
        for k in (1, 2, 3, 4, 6):
            assert pow(w, k, q) != 1

    def test_root_image_respects_relations(self):
        ctx = CycContext(12)
        q = find_splitting_prime(12)
        w = order_n_root(q, 12)
        # The minimal polynomial must vanish at the modular image.
        val = sum(c * pow(w, i, q) for i, c in enumerate(ctx.minpoly)) % q
        assert val == 0

    def test_certified_rank_agrees_with_exact(self):
        import random

        rng = random.Random(11)
        ctx = CycContext(6)
        for _ in range(20):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            # entries on the power basis 1, zeta of Q(zeta_6)
            rows = [
                [
                    {i: c for i in range(ctx.degree) if (c := rng.randint(-3, 3))}
                    for _ in range(n)
                ]
                for _ in range(m)
            ]
            fast, _ = certified_rank(_sparse(rows), n, 6)
            assert fast == ctx.rank(_sparse(rows), n)
        q = find_splitting_prime(6)
        assert q % 6 == 1

    def test_certified_rank_sees_past_a_bad_prime(self):
        # entries that vanish under the first residue map but not in Z[zeta]
        for n in (1, 6, 7):
            q, w = splitting_root(n)
            assert certified_rank([[(0, 1 % n, q)]], 1, n) == (1, False)
            if n > 1:
                assert certified_rank([[(0, 1, 1), (0, 0, -w)]], 1, n) == (1, False)
                assert certified_rank([[(0, 1, q), (1, 0, 1)]], 2, n, upper=1) == (1, True)

    @pytest.mark.parametrize("n", [1, 5])
    def test_fallback_counts_best_plus_one_row_norms(self, n, monkeypatch):
        # a rank one 3 x 3 matrix with large rows: the first map already
        # sees rank 1, and the fallback stops once the primes outweigh
        # H^phi(n) for H over the 2 largest row norms, before the count
        # over all 3 would let it
        base = [{0: 2, 1 % n: -1}, {3 % n: 1}, {0: 1, 2 % n: 3}]
        shifted = [{(e + 1) % n: c for e, c in t.items()} for t in base]
        rows = [
            [{e: c * m for e, c in t.items()} for t in row]
            for row, m in ((base, 10**6), (shifted, 10**6), (base, 10**6 + 1))
        ]
        primes = []

        def spy(M, ncols, q):
            primes.append(q)
            return rank_mod(M, ncols, q)

        rank_mod = cyclotomic._rank_mod
        monkeypatch.setattr(cyclotomic, "_rank_mod", spy)
        assert certified_rank(_sparse(rows), 3, n) == (1, False)
        assert CycContext(n).rank(_sparse(rows), 3) == 1
        norms = sorted(
            (sum(sum(map(abs, t.values())) ** 2 for t in row) for row in rows),
            reverse=True,
        )

        def maps_needed(k):
            need = -(-euler_phi(n) * (math.prod(norms[:k]) - 1).bit_length() // 2)
            have = 0
            for taken, q in enumerate(primes, 1):
                have += q.bit_length() - 1
                if have >= need:
                    return taken
            return None

        assert maps_needed(2) == len(primes) > 1
        assert maps_needed(3) is None

    def test_order_limit_counts_the_reduced_order(self):
        limit = cyclotomic._ORDER_LIMIT
        assert limit >= 10007
        assert certified_rank([[(0, 1, 1)]], 1, limit) == (1, True)
        with pytest.raises(OutOfRangeError, match="above the limit %d" % limit):
            certified_rank([[(0, 1, 1)]], 1, limit + 1)
        # order_n_root would factor q - 1 by trial division to sqrt(q)
        big = 10**24 + 7
        with pytest.raises(OutOfRangeError):
            certified_rank([[(0, 1, 1), (0, 0, -1)]], 1, big)
        # exponents sharing the factor big reduce the order to 7
        assert certified_rank([[(0, big, 1), (0, 0, -1)]], 1, 7 * big) == (1, True)
        # a matrix with no entries needs no residue map
        assert certified_rank([], 3, big) == (0, True)

    @pytest.mark.parametrize("n", [1, 4, 9, 10, 12])
    def test_certified_rank_planted_deficiency(self, n):
        import random

        rng = random.Random(n)
        ctx = CycContext(n)
        for _ in range(12):
            rows, ncols = _planted(rng, n)
            rows = _sparse(rows)
            assert certified_rank(rows, ncols, n)[0] == ctx.rank(rows, ncols)

    def test_certified_rank_sweep_every_order(self):
        # every order up to 30, against exact integer elimination
        import random

        rng = random.Random(30)
        for n in range(1, 31):
            ctx = CycContext(n)
            for _ in range(10):
                rows, ncols = _planted(rng, n)
                rows = _sparse(rows)
                assert certified_rank(rows, ncols, n)[0] == ctx.rank(rows, ncols), (n, rows)


def _planted(rng, n):
    """A seeded matrix over Z[zeta_n] with a planted rank deficiency:
    one to three base rows, then sums of zeta-shifted copies of them."""
    ncols = rng.randint(1, 5)
    base = [
        [
            {rng.randrange(n): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
            for _ in range(ncols)
        ]
        for _ in range(rng.randint(1, 3))
    ]
    rows = [list(r) for r in base]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(base), rng.choice(base)
        s = rng.randrange(n)
        row = []
        for x, y in zip(a, b):
            t = dict(x)
            for e, c in y.items():
                t[(e + s) % n] = t.get((e + s) % n, 0) + c
            row.append({e: c for e, c in t.items() if c})
        rows.append(row)
    rng.shuffle(rows)
    return rows, ncols


def _sparse_planted(rng, n):
    """A seeded sparse matrix over Z[zeta_n], written straight in the
    row form: base rows whose terms repeat (column, exponent) pairs and
    cancel, empty rows, and sums of zeta-shifted, scaled copies of the
    base rows (a sum of sparse rows is the concatenation of their terms),
    which plant a rank deficiency.  Half the matrices have every exponent
    a multiple of a divisor s > 1 of n, where n has one, so the reduced
    order is below n."""
    ncols = rng.randint(1, 5)
    divisors = [s for s in range(2, n + 1) if n % s == 0]
    step = rng.choice(divisors) if divisors and rng.random() < 0.5 else 1
    base = []
    for _ in range(rng.randint(1, 3)):
        row = []
        for _ in range(rng.randint(0, 4)):
            term = (rng.randrange(ncols), step * rng.randrange(n), rng.choice((-2, -1, 1, 2, 3)))
            row.append(term)
            if rng.random() < 0.3:
                j, e, c = term
                row.append((j, e, -c))
        base.append(row)
    rows = [list(r) for r in base]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(base), rng.choice(base)
        s, m = step * rng.randrange(n), rng.choice((-1, 1, 2))
        rows.append(a + [(j, (e + s) % n, m * c) for j, e, c in b])
    rows.extend([] for _ in range(rng.randint(0, 2)))
    rng.shuffle(rows)
    return rows, ncols


class TestSparseRows:
    """``certified_rank`` reads the sparse rows (j, e, c) straight; exact
    integer elimination by ``CycContext.rank`` on the same rows is the
    oracle."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_certified_rank_matches_elimination(self, n):
        import random

        rng = random.Random(1200 + n)
        ctx = CycContext(n)
        fallback = reduced = 0
        for _ in range(25):
            rows, ncols = _sparse_planted(rng, n)
            rank, certified = certified_rank(rows, ncols, n)
            assert rank == ctx.rank(rows, ncols), (n, rows)
            fallback += not certified
            reduced += math.gcd(n, *(e for row in rows for _, e, _ in row)) > 1
        assert fallback
        if n > 1:
            assert reduced

    def test_terms_that_cancel_leave_a_zero_entry(self):
        for n in (1, 3, 8):
            ctx = CycContext(n)
            zero = [[(0, 1 % n, 2), (0, 1 % n, -2)], []]
            assert certified_rank(zero, 1, n)[0] == ctx.rank(zero, 1) == 0
            # a repeated (column, exponent) pair is the sum of its terms
            rows = [[(0, 0, 1), (0, 0, 1), (1, 1 % n, 1)], [(0, 0, 2), (1, 1 % n, 1)]]
            assert certified_rank(rows, 2, n)[0] == ctx.rank(rows, 2) == 1
        # 1 + zeta + zeta^2 = 0 in Z[zeta_3]
        assert certified_rank([[(0, 0, 1), (0, 1, 1), (0, 2, 1)]], 1, 3)[0] == 0

    def test_rows_name_columns_inside_the_width(self):
        with pytest.raises(ValueError, match="outside 2 columns"):
            CycContext(5).rank([[(2, 0, 1)]], 2)

    def test_trivial_factor_residue_map_counts(self, monkeypatch):
        # the norm-bound fallback at a product character with one trivial
        # factor takes exactly as many residue maps as the entry-mapping
        # form of the Jacobian took
        from braidhom.cohomology import h1_dim, seeded_rng
        from braidhom.presentations import Character, catalog, product_character, surface_presentation

        calls = []
        rank_mod = cyclotomic._rank_mod
        monkeypatch.setattr(cyclotomic, "_rank_mod", lambda M, ncols, q: calls.append(q) or rank_mod(M, ncols, q))
        p = catalog("product(surface:2,surface:2)")
        f = surface_presentation(2).alphabet
        rng = seeded_rng(530)
        counts = []
        for n in (23, 60, 241):
            b = Character(f, n, [rng.randrange(n) for _ in f.names])
            calls.clear()
            assert h1_dim(p, product_character(p, Character(f, n), b)) == 2
            counts.append(len(calls))
        assert counts == [9, 6, 89]
