"""Tests for exact integer linear algebra.

The Smith normal form is cross checked against an independent oracle:
the k-th determinantal divisor (gcd of all k x k minors), whose ratios
give the elementary divisors.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from braidhom import exactlin
from braidhom.exactlin import (
    AbelianProfile,
    IntMatrix,
    QMat,
    bareiss_determinant,
    cokernel_profile,
    column_divisors,
    elementary_divisors,
    is_unimodular,
    smith_normal_form,
    _eliminate_units,
    _sparse_columns,
)
from braidhom.verify import _random_unimodular


def minor_gcd_oracle(a: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors via determinantal divisors.

    d_k = gcd of all k x k minors; the k-th elementary divisor is
    d_k / d_{k-1}.  Exponential in the size, so only for small matrices.
    """
    m, n = a.nrows, a.ncols
    divisors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = IntMatrix(
                    [[a.rows[i][j] for j in cols] for i in rows], ncols=k
                )
                g = math.gcd(g, bareiss_determinant(sub))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


small_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda m: st.integers(min_value=0 if m else 1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(lambda rows: IntMatrix(rows, ncols=n))
    )
)

# One column per edge of a multigraph on 8 vertices: two entries, both 1
# or of opposite signs, or a loop holding +-2 alone.  Edges may repeat,
# and a column may carry a stored zero in a third row.
_edges = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from(((1, 1), (-1, -1), (1, -1), (-1, 1))),
        st.one_of(st.none(), st.integers(0, 7)),
    ),
    max_size=24,
)


def _incidence_columns(edges) -> list[dict[int, int]]:
    columns = []
    for a, b, (s, t), zero in edges:
        col = {a: 2 * s} if a == b else {a: s, b: t}
        if zero is not None:
            col.setdefault(zero, 0)
        columns.append(col)
    return columns


def _dense(columns, m: int) -> IntMatrix:
    a = IntMatrix.zeros(m, len(columns))
    for j, col in enumerate(columns):
        for i, v in col.items():
            a.rows[i][j] = v
    return a


class TestSmithNormalForm:
    def test_frozen_example_two_by_two(self):
        a = IntMatrix([[2, 4], [6, 8]])
        assert elementary_divisors(a) == (2, 4)

    def test_frozen_example_incidence(self):
        a = IntMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert elementary_divisors(a) == (1, 1, 2)

    def test_zero_matrix(self):
        a = IntMatrix.zeros(3, 5)
        res = smith_normal_form(a)
        assert res.divisors == ()
        assert res.d == IntMatrix.zeros(3, 5)

    def test_empty_matrix(self):
        a = IntMatrix([], ncols=4)
        assert elementary_divisors(a) == ()
        assert cokernel_profile(a) == AbelianProfile(0)

    def test_identity(self):
        a = IntMatrix.identity(4)
        assert elementary_divisors(a) == (1, 1, 1, 1)

    def test_profile_splits_torsion(self):
        a = IntMatrix([[2, 4], [6, 8]])
        assert cokernel_profile(a) == AbelianProfile(0, (2, 4))

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_transforms_diagonalize(self, a):
        res = smith_normal_form(a)
        assert (res.u @ a @ res.v) == res.d

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_transforms_unimodular(self, a):
        res = smith_normal_form(a)
        assert is_unimodular(res.u)
        assert is_unimodular(res.v)

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_divisor_chain(self, a):
        ds = elementary_divisors(a)
        assert all(d > 0 for d in ds)
        for x, y in zip(ds, ds[1:]):
            assert y % x == 0

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_against_minor_gcd_oracle(self, a):
        assert elementary_divisors(a) == minor_gcd_oracle(a)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_invariant_under_unimodular_moves(self, a, rng):
        # Row and column shears must not change the divisors.
        b = IntMatrix([r[:] for r in a.rows], ncols=a.ncols)
        for _ in range(4):
            if b.nrows >= 2:
                i, j = rng.sample(range(b.nrows), 2)
                c = rng.randint(-3, 3)
                for k in range(b.ncols):
                    b.rows[i][k] += c * b.rows[j][k]
            if b.ncols >= 2:
                i, j = rng.sample(range(b.ncols), 2)
                c = rng.randint(-3, 3)
                for row in b.rows:
                    row[i] += c * row[j]
        assert elementary_divisors(b) == elementary_divisors(a)

    def test_moderately_sized_random_matrix(self):
        rng = random.Random(7)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(12)] for _ in range(15)], ncols=12
        )
        res = smith_normal_form(a)
        assert (res.u @ a @ res.v) == res.d
        for x, y in zip(res.divisors, res.divisors[1:]):
            assert y % x == 0


class _PatternWatch(dict):
    """A sparse column that records the rows written outside the ones it
    started with."""

    def __init__(self, entries):
        super().__init__(entries)
        self.pattern = frozenset(entries)
        self.fill = set()

    def __setitem__(self, k, v):
        if k not in self.pattern:
            self.fill.add(k)
        super().__setitem__(k, v)


class _PopCount(dict):
    """A sparse column that counts the entries popped from it."""

    def __init__(self, entries):
        super().__init__(entries)
        self.pops = 0

    def pop(self, *args):
        self.pops += 1
        return super().pop(*args)


class TestSparseFrontEnd:
    """``elementary_divisors`` eliminates unit pivots sparsely before the
    dense engine; ``smith_normal_form`` runs the dense engine alone and is
    the oracle here."""

    @pytest.mark.parametrize(
        "a,expected",
        [
            (IntMatrix([], ncols=5), ()),
            (IntMatrix([[], [], []]), ()),
            (IntMatrix.zeros(4, 3), ()),
            (IntMatrix([[2, 3]]), (1,)),
            (IntMatrix([[2, 0], [0, 3]]), (1, 6)),
            (IntMatrix([[1, 2], [3, 7]]), (1, 1)),
            (IntMatrix([[0, 0, 0], [0, -1, 0], [0, 0, 0]]), (1,)),
        ],
    )
    def test_edge_shapes(self, a, expected):
        assert elementary_divisors(a) == expected
        assert smith_normal_form(a).divisors == expected

    def test_units_that_appear_only_after_elimination(self):
        # the Schur complement of the corner 1 is 7 - 3 * 2 = 1
        cols, row_index = _sparse_columns([{0: 1, 1: 3}, {0: 2, 1: 7}])
        assert _eliminate_units(cols, row_index) == 2
        assert cols == {}
        # no unit at all until the dense engine has reduced 2 and 3
        cols, row_index = _sparse_columns([{0: 2}, {0: 3}])
        assert _eliminate_units(cols, row_index) == 0

    @pytest.mark.parametrize("rows", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_late_unit_found_in_any_order(self, rows, order):
        # the row holding 3 and 7 has no unit until the corner is taken,
        # whichever row and column come first
        a = [[1, 2], [3, 7]]
        columns = [{rows[i]: a[i][j] for i in range(2)} for j in order]
        cols, row_index = _sparse_columns(columns)
        assert _eliminate_units(cols, row_index) == 2
        assert cols == {}

    def test_matches_dense_engine_on_sparse_unit_matrices(self):
        # up to 40 x 40, mostly +-1 entries, so that elimination order
        # and fill-in matter; arrowheads fill in completely when their
        # corner is taken first
        rng = random.Random(2002)
        for _ in range(40):
            m, n = rng.randint(1, 40), rng.randint(1, 40)
            values = rng.choice(((1, -1), (1, -1, 2), (1, -1, 1, -1, 3, -4)))
            if rng.random() < 0.3:
                k = min(m, n)
                cells = [(i, i) for i in range(k)]
                cells += [(0, i) for i in range(1, k)] + [(i, 0) for i in range(1, k)]
            else:
                density = rng.choice((0.05, 0.1, 0.2))
                cells = [(i, j) for i in range(m) for j in range(n) if rng.random() < density]
            a = IntMatrix.zeros(m, n)
            for i, j in cells:
                a.rows[i][j] = rng.choice(values)
            cols = [{i: row[j] for i, row in enumerate(a.rows) if row[j]} for j in range(n)]
            assert column_divisors(cols) == smith_normal_form(a).divisors

    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_arrowhead_eliminates_without_fill(self, n):
        # corner 1, arms 1 and -1, diagonal 1: the corner first would
        # fill the whole block; the diagonal first writes nothing outside
        # the pattern and leaves the Schur complement 1 + (n - 1) = n
        columns = [{0: 1, **{i: -1 for i in range(1, n)}}]
        columns += [{0: 1, i: 1} for i in range(1, n)]
        cols, row_index = _sparse_columns(columns)
        watched = {j: _PatternWatch(col) for j, col in cols.items()}
        cols.update(watched)
        assert _eliminate_units(cols, row_index) == n - 1
        assert all(not col.fill for col in watched.values())
        assert [list(col.values()) for col in cols.values()] in ([[n]], [[-n]])
        assert column_divisors(columns) == (1,) * (n - 1) + (n,)

    def test_matches_dense_engine_on_random_matrices(self):
        rng = random.Random(20011)
        for _ in range(400):
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            density = rng.random()
            bound = rng.choice((1, 2, 3, 9, 40))
            a = IntMatrix(
                [
                    [rng.randint(-bound, bound) if rng.random() < density else 0
                     for _ in range(n)]
                    for _ in range(m)
                ],
                ncols=n,
            )
            assert elementary_divisors(a) == smith_normal_form(a).divisors

    def test_matches_dense_engine_on_planted_matrices(self):
        rng = random.Random(2001)
        for _ in range(60):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            chain, d = [], 1
            for _ in range(rng.randint(0, min(m, n))):
                d *= rng.choice((1, 1, 2, 3))
                chain.append(d)
            diag = IntMatrix(
                [[chain[i] if i == j and i < len(chain) else 0 for j in range(n)]
                 for i in range(m)],
                ncols=n,
            )
            a = _random_unimodular(rng, m) @ diag @ _random_unimodular(rng, n)
            assert elementary_divisors(a) == tuple(chain)
            assert smith_normal_form(a).divisors == tuple(chain)


class TestColumnDivisors:
    """``column_divisors`` takes one {row: value} dict per column;
    ``elementary_divisors`` is that on the columns of an ``IntMatrix``."""

    def test_examples(self):
        assert column_divisors([]) == ()
        assert column_divisors([{}, {}]) == ()
        assert column_divisors([{0: 2, 1: 6}, {0: 4, 1: 8}]) == (2, 4)
        # K_3's incidence matrix, rows far apart and zeros written out
        cols = [{0: 1, 50: 1}, {0: 1, 99: 1}, {50: 1, 99: 1, 7: 0}]
        assert column_divisors(cols) == (1, 1, 2)

    def test_argument_unchanged(self):
        rng = random.Random(5)
        for _ in range(100):
            cols = []
            for _ in range(rng.randint(0, 8)):
                rows = rng.sample(range(8), rng.randint(0, 5))
                cols.append({i: rng.choice((-2, -1, 1, 3)) for i in rows})
            before = [dict(c) for c in cols]
            column_divisors(cols)
            assert cols == before

    def test_private_row_pass_matches_dense_engine(self):
        # private-row units, stored zeros (which block a pivot in their
        # row but are never one) and cascades (a chain whose k-th column
        # has a unit in a row shared with the column before it)
        rng = random.Random(1606)
        for _ in range(300):
            shared = rng.randint(0, 6)
            top = shared
            columns = []
            for _ in range(rng.randint(0, 10)):
                rows = rng.sample(range(shared), rng.randint(0, min(3, shared)))
                col = {i: rng.choice((1, -1, 2, -3)) for i in rows}
                for _ in range(rng.choice((0, 0, 1, 2))):
                    col[top] = rng.choice((1, -1, 1, 2))
                    top += 1
                columns.append(col)
            for _ in range(rng.randint(0, 2)):
                link = top
                columns.append({link: rng.choice((1, -1, 2)), top + 1: 1})
                top += 2
                for _ in range(rng.randint(1, 4)):
                    col = {link: rng.choice((1, 2, -3)), top: rng.choice((1, -1))}
                    if shared:
                        col[rng.randrange(shared)] = rng.choice((1, -2))
                    columns.append(col)
                    link, top = top, top + 1
            for col in columns:
                if rng.random() < 0.3:
                    col[rng.randrange(top + 1)] = 0
            if rng.random() < 0.5:
                rng.shuffle(columns)
            before = [dict(c) for c in columns]
            a = IntMatrix.zeros(top + 1, len(columns))
            for j, col in enumerate(columns):
                for i, v in col.items():
                    a.rows[i][j] = v
            assert column_divisors(columns) == smith_normal_form(a).divisors
            assert columns == before

    def test_cascade_in_column_order_leaves_the_queue_nothing(self, monkeypatch):
        # column k has its unit in the row it shares with column k - 1,
        # so each leaves only after the one before it and the queue is
        # never entered; in reverse order the pass takes the last column
        # only and the queue the rest
        seen = []

        def spy(columns):
            seen.append([dict(c) for c in columns])
            return _sparse_columns(columns)

        monkeypatch.setattr(exactlin, "_sparse_columns", spy)
        chain = [{0: 1, 1: 2}] + [{k: -1, k + 1: 3} for k in range(1, 6)]
        assert column_divisors(chain) == (1,) * 6
        assert seen == []
        seen.clear()
        assert column_divisors(chain[::-1]) == (1,) * 6
        assert seen == [chain[:0:-1]]
        # a stored zero in the private row blocks the first pivot, and
        # with it the whole cascade
        blocked = [{0: 1, 1: 2}, {0: 0}] + chain[1:]
        seen.clear()
        assert column_divisors(blocked) == (1,) * 6
        assert seen == [blocked]

    @settings(max_examples=200, deadline=None)
    @given(_edges, st.randoms(use_true_random=False))
    def test_multigraph_incidence_matches_dense_engine(self, edges, rng):
        # two-entry unit columns tie often here, so the hub tie-break is
        # taken, in the drawn column order and in a shuffled one
        columns = _incidence_columns(edges)
        expected = smith_normal_form(_dense(columns, 8)).divisors
        shuffled = columns[:]
        rng.shuffle(shuffled)
        for cols in (columns, shuffled):
            before = [dict(c) for c in cols]
            assert column_divisors(cols) == expected
            assert cols == before

    @pytest.mark.parametrize("n", range(3, 31))
    def test_complete_graph_in_shuffled_orders(self, n):
        # the sphere's pair differential: every pivot column holds two
        # entries, so every tie goes to the hub tie-break, which sends all
        # fill-in to one row; each of the n - 1 pivot rows then still
        # holds n - 1 entries and updates the other n - 2 columns
        columns = [{a: 1, b: 1} for a, b in combinations(range(n), 2)]
        expected = smith_normal_form(_dense(columns, n)).divisors
        assert expected == (1,) * (n - 1) + (2,)
        rng = random.Random(n)
        for _ in range(3):
            rng.shuffle(columns)
            before = [dict(c) for c in columns]
            assert column_divisors(columns) == expected
            assert columns == before
            cols, row_index = _sparse_columns(columns)
            counted = {j: _PopCount(col) for j, col in cols.items()}
            cols.update(counted)
            assert _eliminate_units(cols, row_index) == n - 1
            # the pivot row leaves each pivot column and each updated one
            assert sum(c.pops for c in counted.values()) == (n - 1) ** 2

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_matches_columns_of_matrix(self, a):
        cols = [
            {i: row[j] for i, row in enumerate(a.rows) if row[j]}
            for j in range(a.ncols)
        ]
        assert column_divisors(cols) == elementary_divisors(a)
        assert column_divisors(cols) == smith_normal_form(a).divisors


class TestDeterminant:
    def test_known_value(self):
        a = IntMatrix([[3, 1], [4, 2]])
        assert bareiss_determinant(a) == 2

    def test_singular(self):
        a = IntMatrix([[1, 2], [2, 4]])
        assert bareiss_determinant(a) == 0

    def test_empty(self):
        assert bareiss_determinant(IntMatrix([], ncols=0)) == 1

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            bareiss_determinant(IntMatrix([[1, 2, 3]], ncols=3))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_matches_fraction_elimination(self, rows):
        assert bareiss_determinant(IntMatrix(rows)) == fraction_determinant(rows)


class TestAbelianProfile:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianProfile(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianProfile(0, (1,))

    def test_n_fold(self):
        assert AbelianProfile(2).n_fold(3) == AbelianProfile(6)
        assert AbelianProfile(0, (2,)).n_fold(2) == AbelianProfile(0, (2, 2))
        assert AbelianProfile(3, (2, 6)).n_fold(0) == AbelianProfile(0)
        with pytest.raises(ValueError):
            AbelianProfile(1).n_fold(-1)

    @pytest.mark.parametrize(
        "profile",
        [
            AbelianProfile(0),
            AbelianProfile(1, (2,)),
            AbelianProfile(0, (2, 6)),
            AbelianProfile(2, (3, 12, 60)),
            AbelianProfile(1, (4, 4, 20)),
        ],
    )
    def test_n_fold_is_repeated_direct_sum(self, profile):
        # n diagonal relation blocks of the profile, block diagonally,
        # through the Smith form, which rechains the divisors itself
        t = len(profile.torsion)
        block = [[d if i == j else 0 for j in range(t)] for i, d in enumerate(profile.torsion)]
        block += [[0] * t for _ in range(profile.rank)]
        for n in range(1, 7):
            rows = [[0] * (t * k) + row + [0] * (t * (n - 1 - k)) for k in range(n) for row in block]
            assert cokernel_profile(IntMatrix(rows, ncols=t * n)) == profile.n_fold(n)

    def test_cokernel(self):
        # Z^2 modulo the column (2, 0) and (0, 3): Z/2 + Z/3 = Z/6.
        a = IntMatrix([[2, 0], [0, 3]])
        assert cokernel_profile(a) == AbelianProfile(0, (6,))
        b = IntMatrix([[2, 0], [0, 3], [0, 0]])
        assert cokernel_profile(b) == AbelianProfile(1, (6,))


def fraction_determinant(rows) -> Fraction:
    """Determinant by plain Gaussian elimination over Fractions: an
    oracle that shares no code with Bareiss."""
    M = [[Fraction(e) for e in r] for r in rows]
    n = len(M)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            for j in range(k, n):
                M[i][j] -= f * M[k][j]
    return det


def adjugate_inverse(rows) -> list[list[Fraction]]:
    """Inverse of a rational matrix by cofactors: with B = d * A integral,
    A^-1 = d * adj(B) / det(B), each cofactor a Bareiss determinant of a
    minor of B."""
    n = len(rows)
    d = math.lcm(*(Fraction(e).denominator for r in rows for e in r))
    b = [[int(Fraction(e) * d) for e in r] for r in rows]
    det = bareiss_determinant(IntMatrix(b))

    def cofactor(i, j):
        minor = [r[:j] + r[j + 1 :] for k, r in enumerate(b) if k != i]
        return (-1) ** (i + j) * bareiss_determinant(IntMatrix(minor, ncols=n - 1))

    return [[Fraction(d * cofactor(j, i), det) for j in range(n)] for i in range(n)]


def assert_exact_entries(m: QMat):
    """No entry is a float; an entry with denominator 1 is an int and
    any other a Fraction."""
    for r in m.rows:
        for e in r:
            assert not isinstance(e, float)
            if e.denominator == 1:
                assert type(e) is int
            else:
                assert type(e) is Fraction


def invertible_matrices(entries):
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).filter(lambda rows: fraction_determinant(rows) != 0)
    )


SMALL_INTS = st.integers(min_value=-9, max_value=9)
SMALL_RATIONALS = st.one_of(
    SMALL_INTS, st.fractions(min_value=-5, max_value=5, max_denominator=7)
)


class TestQMat:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(invertible_matrices(SMALL_INTS), invertible_matrices(SMALL_RATIONALS)),
        st.one_of(SMALL_INTS, st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    )
    def test_exact_inverse_against_adjugate(self, rows, scalar):
        a = QMat(rows)
        inv = a.inverse()
        assert inv.rows == adjugate_inverse(rows)
        assert (a * inv).is_identity()
        assert (inv * a).is_identity()
        assert a.determinant() == fraction_determinant(rows)
        for m in (a, inv, a * inv, inv * a, a * a, a * scalar, scalar * a, a - inv):
            assert_exact_entries(m)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                *[st.lists(st.lists(SMALL_INTS, min_size=n, max_size=n), min_size=n, max_size=n)] * 3
            )
        ),
        st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(lambda q: q.denominator > 1),
    )
    def test_integral_results_are_ints(self, mats, q):
        # Fraction operands whose sum, difference or product is integral
        x, y, f = mats
        fq = [[e * q for e in r] for r in f]
        a = QMat([[u + v for u, v in zip(r, s)] for r, s in zip(x, fq)])
        b = QMat([[u - v for u, v in zip(r, s)] for r, s in zip(y, fq)])
        xq = QMat([[e * q for e in r] for r in x])
        yq = QMat([[e / q for e in r] for r in y])
        results = {
            "sum": (a + b, [[u + v for u, v in zip(r, s)] for r, s in zip(x, y)]),
            "difference": (a - QMat(fq), x),
            "product": (xq * yq, IntMatrix(x) @ IntMatrix(y)),
            "scalar": (xq * (1 / q), x),
            "left scalar": ((1 / q) * xq, x),
        }
        for name, (got, want) in results.items():
            want = want.rows if isinstance(want, IntMatrix) else want
            assert got.rows == want, name
            assert all(type(e) is int for r in got.rows for e in r), name

    def test_integer_matrix_stays_integer(self):
        a = QMat([[2, 1], [Fraction(5, 1), 3]])
        inv = a.inverse()
        assert inv == QMat([[3, -1], [-5, 2]])
        assert all(type(e) is int for r in inv.rows for e in r)
        assert type(a.determinant()) is int
        assert type(QMat([[Fraction(1, 2), 0], [0, 4]]).determinant()) is int

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            QMat([[0.5]])
        with pytest.raises(TypeError):
            QMat.identity(2) * 0.5

    def test_inverse_roundtrip(self):
        a = QMat([[1, 2], [3, 5]])
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()

    def test_singular_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            QMat([[1, 2], [2, 4]]).inverse()

    def test_scalar_and_ring_ops(self):
        a = QMat([[0, 1], [1, 0]])
        b = QMat([[1, 1], [0, 1]])
        assert a * b == QMat([[0, 1], [1, 1]])
        assert 2 * a == QMat([[0, 2], [2, 0]])
        assert (a - a).rows == QMat.zeros(2).rows

    def test_determinant(self):
        a = QMat([[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
        assert a.determinant() == Fraction(3, 4)
