"""Tests for exact cyclotomic field arithmetic and generic rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidhom.cyclotomic import (
    CycContext,
    CycElt,
    certified_rank,
    cyclotomic_polynomial,
    euler_phi,
    find_splitting_prime,
    is_prime,
    order_n_root,
    rank_kernel,
    splitting_root,
)
from braidhom.errors import ArithmeticContextError


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

    def test_product_over_divisors(self):
        # prod_{d | n} Phi_d = x^n - 1, checked by multiplying back.
        from braidhom.cyclotomic import _poly_mul_int

        for n in (6, 8, 12):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = _poly_mul_int(prod, list(cyclotomic_polynomial(d)))
            expect = [0] * (n + 1)
            expect[0], expect[n] = -1, 1
            assert prod == expect


class TestFieldArithmetic:
    def test_zeta_has_exact_order(self):
        for n in (1, 2, 3, 4, 5, 6, 12):
            ctx = CycContext(n)
            z = ctx.zeta()
            acc = ctx.one()
            for k in range(1, n):
                acc = acc * z
                assert acc != ctx.one(), (n, k)
            assert z**n == ctx.one()

    def test_geometric_sum_vanishes(self):
        for n in (2, 3, 5, 12):
            ctx = CycContext(n)
            total = ctx.zero()
            for k in range(n):
                total = total + ctx.zeta(k)
            assert not total

    def test_context_is_shared(self):
        assert CycContext(5) is CycContext(5)

    def test_mixed_contexts_rejected(self):
        a = CycContext(3).zeta()
        b = CycContext(4).zeta()
        with pytest.raises(ArithmeticContextError):
            a + b
        with pytest.raises(ArithmeticContextError):
            a * b

    def test_rational_embedding(self):
        ctx = CycContext(8)
        x = ctx.from_rational(Fraction(3, 7))
        assert x.coeffs == (Fraction(3, 7), 0, 0, 0)
        assert x == Fraction(3, 7)
        assert x + 1 == Fraction(10, 7)
        assert ctx.zeta() + Fraction(3, 7) != Fraction(3, 7)

    def test_inverse_roundtrip_frozen(self):
        ctx = CycContext(5)
        a = ctx.one() + ctx.zeta()
        assert a * a.inverse() == ctx.one()
        assert a / a == ctx.one()

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CycContext(3).zero().inverse()

    def test_negative_power(self):
        ctx = CycContext(7)
        z = ctx.zeta()
        assert z**-1 == ctx.zeta(6)
        assert z**-3 * z**3 == ctx.one()


small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def cyc_elements(n):
    ctx = CycContext(n)
    return st.lists(
        small_fracs, min_size=ctx.degree, max_size=ctx.degree
    ).map(lambda cs: CycElt(ctx, tuple(cs)))


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(cyc_elements(12), cyc_elements(12), cyc_elements(12))
    def test_distributive_and_associative(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=60, deadline=None)
    @given(cyc_elements(12))
    def test_inverse_when_nonzero(self, a):
        if a:
            assert a * a.inverse() == CycContext(12).one()

    @settings(max_examples=40, deadline=None)
    @given(cyc_elements(9), cyc_elements(9))
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


class TestRankKernel:
    def test_rational_rank_and_kernel(self):
        one = Fraction(1)
        rows = [
            [Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
        rank, nullity, basis = rank_kernel(rows, 3, one)
        assert rank == 2 and nullity == 1
        v = basis[0]
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0

    def test_empty_matrix(self):
        rank, nullity, basis = rank_kernel([], 3, Fraction(1))
        assert rank == 0 and nullity == 3
        assert len(basis) == 3

    def test_cyclotomic_rank_drop(self):
        ctx = CycContext(5)
        z = ctx.zeta()
        rows = [[ctx.one(), z], [z.inverse(), ctx.one()]]
        assert rank_kernel(rows, 2, ctx.one())[0] == 1

    def test_cyclotomic_kernel_annihilates(self):
        ctx = CycContext(8)
        z = ctx.zeta()
        rows = [[ctx.one() - z, z * z, ctx.one()]]
        rank, nullity, basis = rank_kernel(rows, 3, ctx.one())
        assert rank == 1 and nullity == 2
        for v in basis:
            total = ctx.zero()
            for a, b in zip(rows[0], v):
                total = total + a * b
            assert not total

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(small_fracs, min_size=3, max_size=3), min_size=0, max_size=4
        )
    )
    def test_rank_nullity_theorem(self, rows):
        rows = [[Fraction(x) for x in r] for r in rows]
        rank, nullity, basis = rank_kernel(rows, 3, Fraction(1))
        assert rank + nullity == 3
        assert len(basis) == nullity
        for v in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


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
        from math import lcm

        rng = random.Random(11)
        ctx = CycContext(6)
        for _ in range(20):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [
                [
                    CycElt(
                        ctx,
                        tuple(
                            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(ctx.degree)
                        ),
                    )
                    for _ in range(n)
                ]
                for _ in range(m)
            ]
            exact = rank_kernel(rows, n, ctx.one())[0]
            # clear each row's denominators: the same rank over Z[zeta]
            int_rows = []
            for r in rows:
                den = lcm(*(c.denominator for e in r for c in e.coeffs))
                int_rows.append(
                    [
                        {i: int(c * den) for i, c in enumerate(e.coeffs) if c}
                        for e in r
                    ]
                )
            fast, _ = certified_rank(int_rows, n, 6)
            assert fast == exact
        q = find_splitting_prime(6)
        assert q % 6 == 1

    def test_certified_rank_sees_past_a_bad_prime(self):
        # entries that vanish under the first residue map but not in Z[zeta]
        for n in (1, 6, 7):
            q, w = splitting_root(n)
            assert certified_rank([[{1 % n: q}]], 1, n) == (1, False)
            if n > 1:
                assert certified_rank([[{1: 1, 0: -w}]], 1, n) == (1, False)
                assert certified_rank([[{1: q}, {0: 1}]], 2, n, upper=1) == (1, True)

    @pytest.mark.parametrize("n", [1, 4, 9, 10, 12])
    def test_certified_rank_planted_deficiency(self, n):
        import random

        rng = random.Random(n)
        ctx = CycContext(n)
        for _ in range(12):
            ncols = rng.randint(1, 5)
            base = [
                [
                    {rng.randrange(n): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))}
                    for _ in range(ncols)
                ]
                for _ in range(rng.randint(1, 3))
            ]
            rows = [list(r) for r in base]
            # dependent rows: sums of zeta-shifted copies of the base rows
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
            field = [[ctx.from_powers(t) for t in r] for r in rows]
            exact = rank_kernel(field, ncols, ctx.one())[0]
            assert certified_rank(rows, ncols, n)[0] == exact
