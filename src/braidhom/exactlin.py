"""Exact integer linear algebra.

Dense arbitrary precision integer matrices, Smith normal form with full
unimodular transforms, fraction free determinants, and the fraction free
inverse of a unimodular matrix, which is what integral group
representations need.

Elementary divisors come from sparse unit-pivot elimination in front of
the same dense engine.  One pass over the columns first takes the units
alone in their row, and answers at once when it takes every column.
The rest come off a bucket queue of rows, fewest entries first.  A tie
between two pivot columns of two entries each goes to the column whose
other row is densest, so fill-in gathers on one hub row.  Longer
columns spread their fill-in over several rows, so ties among them are
left in set order.

Everything here is pure Python on int; no floating point is involved
anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul, sub
from typing import Iterable, Sequence


class IntMatrix:
    """A dense integer matrix stored as a list of row lists.

    Rows are owned by the matrix and are plain mutable lists, so an
    instance is not hashable; callers that mutate copy the rows first.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Sequence[int]], ncols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        for r in rows:
            if not all(map(isinstance, r, repeat(int))):
                bad = next(e for e in r if not isinstance(e, int))
                raise TypeError("entries must be int, got %r" % type(bad))
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)], ncols=n)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return cls(rows, ncols=n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return "IntMatrix(%r)" % (self.rows,)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        # with no rows to zip, ``other`` still has ncols empty columns
        cols = list(zip(*other.rows)) or [()] * other.ncols
        return IntMatrix(_times(self.rows, cols), ncols=other.ncols)

    def _entrywise(self, other: "IntMatrix", op) -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                "shape mismatch: %dx%d and %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        rows = [list(map(op, r, s)) for r, s in zip(self.rows, other.rows)]
        return IntMatrix(rows, ncols=self.ncols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, sub)

    def inverse(self) -> "IntMatrix":
        """The integral inverse of a unimodular matrix, by fraction free
        Gauss-Jordan on [A | I].

        Every division by the previous pivot is exact, and the pivot of
        step k is a k x k minor of A up to sign, so the last pivot p is
        +-det(A).  At the end the left block is p * I and the right one
        p * A^-1; with p = +-1 the inverse is p times the right block.
        Raises ValueError unless A is square with determinant +-1.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a nonsquare matrix")
        M = [r + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        prev = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if M[i][k]), None)
            if piv is None:
                raise ValueError("singular matrix")
            M[k], M[piv] = M[piv], M[k]
            Mk = M[k]
            p = Mk[k]
            for i in range(n):
                if i != k:
                    f = M[i][k]
                    M[i] = [(p * a - f * c) // prev for a, c in zip(M[i], Mk)]
            prev = p
        if prev != 1 and prev != -1:
            raise ValueError("matrix is not unimodular: |det| = %d" % abs(prev))
        return IntMatrix([[prev * e for e in r[n:]] for r in M], ncols=n)


@dataclass(frozen=True)
class SNFResult:
    """Diagonalization u @ a @ v == d with unimodular u, v.

    ``divisors`` are the nonzero diagonal entries of ``d``; each divides
    the next and all are positive.
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    divisors: tuple[int, ...]


def _find_pivot(M, m, n, t):
    """Position of a nonzero entry of minimal absolute value in M[t:, t:]."""
    best = None
    piv = None
    for i in range(t, m):
        Mi = M[i]
        for j in range(t, n):
            e = Mi[j]
            if e:
                a = -e if e < 0 else e
                if best is None or a < best:
                    best, piv = a, (i, j)
                    if a == 1:
                        return piv
    return piv


def _balanced_quotient(x: int, p: int) -> int:
    """Quotient q with |x - q*p| <= p/2, for p > 0."""
    q, r = divmod(x, p)
    if 2 * r > p:
        q += 1
    return q


def _snf_engine(M, m, n, U, V):
    """Diagonalize M in place, mirroring row ops into U and column ops
    into V when they are not None.  Returns the rank.

    The pivot of globally minimal absolute value is re-selected after
    every reduction sweep and quotients use balanced remainders; both
    are needed to keep intermediate entries from exploding.
    """
    t = 0
    limit = min(m, n)
    while t < limit:
        piv = _find_pivot(M, m, n, t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            M[t], M[pi] = M[pi], M[t]
            if U is not None:
                U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in M:
                row[t], row[pj] = row[pj], row[t]
            if V is not None:
                for row in V:
                    row[t], row[pj] = row[pj], row[t]
        if M[t][t] < 0:
            Mt = M[t]
            for j in range(n):
                Mt[j] = -Mt[j]
            if U is not None:
                Ut = U[t]
                for j in range(m):
                    Ut[j] = -Ut[j]
        p = M[t][t]
        # Reduce column t.  Remainders stay below p/2 and become the
        # next pivot candidates.
        clean = True
        for i in range(t + 1, m):
            if M[i][t]:
                q = _balanced_quotient(M[i][t], p)
                if q:
                    Mi, Mt = M[i], M[t]
                    for j in range(t, n):
                        Mi[j] -= q * Mt[j]
                    if U is not None:
                        Ui, Ut = U[i], U[t]
                        for j in range(m):
                            Ui[j] -= q * Ut[j]
                if M[i][t]:
                    clean = False
        if not clean:
            continue
        # Column t is now (0..p..0), so reducing row t only touches row t.
        Mt = M[t]
        for j in range(t + 1, n):
            if Mt[j]:
                q = _balanced_quotient(Mt[j], p)
                if q:
                    Mt[j] -= q * p
                    if V is not None:
                        for row in V:
                            row[j] -= q * row[t]
                if Mt[j]:
                    clean = False
        if not clean:
            continue
        if p == 1:
            # 1 divides every entry of the remaining block.
            t += 1
            continue
        # Pivot must divide the remaining block for the divisor chain.
        bad = None
        for i in range(t + 1, m):
            Mi = M[i]
            for j in range(t + 1, n):
                if Mi[j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            Mt, Mb = M[t], M[bad]
            for j in range(n):
                Mt[j] += Mb[j]
            if U is not None:
                Ut, Ub = U[t], U[bad]
                for j in range(m):
                    Ut[j] += Ub[j]
            continue
        t += 1
    return t


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form with transforms: u @ a @ v == d.

    The pivot of minimal absolute value is chosen at each step, the
    divisibility chain is enforced before a pivot is finalized, and all
    diagonal entries are made nonnegative.  u and v are products of
    elementary operations, so det = +-1.
    """
    m, n = a.nrows, a.ncols
    M = [r[:] for r in a.rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rank = _snf_engine(M, m, n, U, V)
    divisors = tuple(M[i][i] for i in range(rank))
    return SNFResult(
        d=IntMatrix(M, ncols=n),
        u=IntMatrix(U, ncols=m),
        v=IntMatrix(V, ncols=n),
        divisors=divisors,
    )


def _sparse_columns(columns: Sequence[dict[int, int]]):
    """Copies of the nonzero entries of ``columns`` as column ->
    {row: value}, with the index row -> set of columns holding an entry
    in that row."""
    cols: dict[int, dict[int, int]] = {}
    row_index: defaultdict[int, set[int]] = defaultdict(set)
    for j, column in enumerate(columns):
        if 0 in column.values():
            col = {i: v for i, v in column.items() if v}
        else:
            col = dict(column)
        if col:
            cols[j] = col
            for i in col:
                row_index[i].add(j)
    return cols, dict(row_index)


def _eliminate_units(cols, row_index) -> int:
    """Eliminate +-1 pivots in place and return how many were taken.

    A unit pivot splits off a divisor 1 and leaves the Schur complement,
    which is again integral, with the remaining divisors.  Rows wait in a
    bucket queue filed by entry count and are taken fewest entries first;
    the pivot is a unit entry of the row in its shortest column, so the
    fill-in, at most (row count - 1) * (column count - 1), stays small (a
    Markowitz order; Dumas, Saunders and Villard, "On efficient sparse
    integer matrix Smith normal form computations", 2001).  A unit alone
    in its row is a pivot that changes no other column.  A row taken with
    a stale count is filed again at its current count, and so is every
    row that fill-in touches, so units that appear only after elimination
    are still found; a row without a unit sits idle until such a touch.

    A tie between shortest unit columns that both hold two entries goes
    to the column whose other row holds more entries.  Such a pivot
    sends all its fill-in to that one row, so fill-in gathers on a hub
    row that is never pivoted instead of on several rows that are
    pivoted late at large counts: on the sphere's pair differential at
    n = 447 this takes the column updates from 500 030 to 198 470, and
    that edge of the size bound is what the rule is for: below n = 25
    the sphere gains nothing from it and pays up to 3 us a call.  Only
    two-entry columns are compared, since a longer column spreads its
    fill-in over several rows and has no one row to aim at; finding the
    densest other row of every tied column cost more than it saved at
    small sizes (sphere n = 24, in process on a 2-core VM: 0.8 -> 1.0 ms).
    """
    top = max(map(len, row_index.values()), default=0)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for i, js in row_index.items():
        buckets[len(js)].append(i)
    low = 1
    idle: set[int] = set()

    def file(k):
        nonlocal low
        c = len(row_index[k])
        if c:
            while len(buckets) <= c:
                buckets.append([])
            buckets[c].append(k)
            if c < low:
                low = c

    units = 0
    while True:
        while low < len(buckets) and not buckets[low]:
            low += 1
        if low == len(buckets):
            return units
        i = buckets[low].pop()
        js = row_index.get(i)
        if not js or i in idle:
            continue
        if len(js) != low:
            file(i)
            continue
        col = None
        for jj in js:
            cand = cols[jj]
            v = cand[i]
            if v != 1 and v != -1:
                continue
            if col is None or len(cand) < len(col):
                col, j, hub = cand, jj, -1
            elif len(cand) == 2 == len(col):
                # a tie of two-entry columns goes to the denser other row
                if hub < 0:
                    a, b = col
                    hub = len(row_index[b if a == i else a])
                a, b = cand
                c = len(row_index[b if a == i else a])
                if c > hub:
                    col, j, hub = cand, jj, c
        if col is None:
            idle.add(i)
            continue
        units += 1
        p = col.pop(i)
        del cols[j]
        for k in col:
            row_index[k].discard(j)
        del row_index[i]
        js.discard(j)
        for jj in js:
            target = cols[jj]
            f = target.pop(i) * p
            for k, v in col.items():
                v *= f
                t = target.get(k)
                if t is None:
                    target[k] = -v
                    row_index[k].add(jj)
                elif t != v:
                    target[k] = t - v
                else:
                    del target[k]
                    row_index[k].discard(jj)
            if not target:
                del cols[jj]
        if js:
            for k in col:
                idle.discard(k)
                file(k)


def column_divisors(columns: Sequence[dict[int, int]]) -> tuple[int, ...]:
    """Nonzero elementary divisors of the integer matrix whose j-th column
    has the entries ``columns[j]`` ({row: value}), without transform
    tracking.  The argument is left unchanged.

    Two phases.  First one read-only pass over the columns, in order,
    takes every unit alone in its row: with the rows counted once, a
    column holding +-1 in a row of count 1 is a pivot that changes no
    other column, so it splits off a divisor 1 and only lowers the counts
    of its rows, which may free a later column.  A stored zero only
    raises a count, so it can block such a pivot but never fake one.
    When no row has count 1 the pass is skipped.  When it takes every
    column, as it does for every pair differential of genus g >= 1, the
    divisors are all 1 and are returned at once.  The rows are counted
    into a plain dict, since CPython specialises lookups and stores only
    for an exact dict.  The columns left go to sparse copies, whose unit
    pivots come off the bucket queue of :func:`_eliminate_units`;
    whatever block is left when no entry +-1 remains, usually nothing,
    goes through the dense engine.
    """
    count: dict[int, int] = {}
    for column in columns:
        for i in column:
            count[i] = count.get(i, 0) + 1
    units = 0
    rest = columns
    if 1 in count.values():
        rest = []
        for column in columns:
            for i, v in column.items():
                if count[i] == 1 and (v == 1 or v == -1):
                    units += 1
                    for k in column:
                        count[k] -= 1
                    break
            else:
                rest.append(column)
    if not rest:
        return (1,) * units
    cols, row_index = _sparse_columns(rest)
    units += _eliminate_units(cols, row_index)
    rows = sorted(i for i, js in row_index.items() if js)
    where = {j: t for t, j in enumerate(sorted(cols))}
    M = []
    for i in rows:
        dense = [0] * len(where)
        for j in row_index[i]:
            dense[where[j]] = cols[j][i]
        M.append(dense)
    rank = _snf_engine(M, len(rows), len(where), None, None)
    return (1,) * units + tuple(M[t][t] for t in range(rank))


def elementary_divisors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero elementary divisors of ``a``: :func:`column_divisors` on
    its columns."""
    columns: list[dict[int, int]] = [{} for _ in range(a.ncols)]
    span = range(a.ncols)
    for i, row in enumerate(a.rows):
        for j in compress(span, row):
            columns[j][i] = row[j]
    return column_divisors(columns)


def bareiss_determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction free (Bareiss) elimination."""
    if a.nrows != a.ncols:
        raise ValueError("determinant of a nonsquare matrix")
    M = [r[:] for r in a.rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return a.nrows == a.ncols and bareiss_determinant(a) in (1, -1)


@dataclass(frozen=True)
class AbelianProfile:
    """A finitely generated abelian group: free rank plus torsion divisors.

    Torsion entries are > 1 and each divides the next.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion divisors must form a chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion divisors must be > 1")

    def n_fold(self, n: int) -> "AbelianProfile":
        """The direct sum of n copies: each divisor of the chain repeated
        n times is again a chain."""
        if n < 0:
            raise ValueError("negative number of summands")
        return AbelianProfile(
            self.rank * n, tuple(d for d in self.torsion for _ in range(n))
        )


def cokernel_profile(a: IntMatrix) -> AbelianProfile:
    """Profile of Z^rows(a) modulo the column space of ``a``.

    Columns of ``a`` are the spanning vectors; the cokernel has free rank
    rows - rank and torsion the divisors above 1.
    """
    divisors = elementary_divisors(a)
    rank = len(divisors)
    return AbelianProfile(a.nrows - rank, tuple(d for d in divisors if d > 1))


def _times(rows: Sequence[Sequence], cols: Sequence[Sequence]) -> list[list]:
    """The product of a matrix given by its rows and one given by its
    columns, as plain row lists."""
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


__all__ = [
    "IntMatrix",
    "SNFResult",
    "smith_normal_form",
    "column_divisors",
    "elementary_divisors",
    "bareiss_determinant",
    "is_unimodular",
    "AbelianProfile",
    "cokernel_profile",
]
