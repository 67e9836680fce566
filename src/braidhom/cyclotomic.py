"""Cyclotomic integers Z[zeta_N], and certified rank.

A matrix over Z[zeta_N], such as the Fox Jacobian of a character, is
stored as sparse rows: lists of terms (j, e, c), each c * zeta^e in
column j; the entry in column j is the sum of its terms.

``certified_rank`` computes the exact rank over Q(zeta_N) of such a
matrix without field arithmetic.  It maps zeta to a root of unity
of the same order in F_q for a prime q = 1 (mod N): that rank is a lower
bound on the true rank, and when it meets an upper bound the caller can
prove, it is the rank.  Otherwise the largest rank over enough such maps
is exact by a norm bound.  At N = 1 the same certificate ranks integer
matrices, each entry c in column j the term (j, 0, c).

The independent route that rank is tested against is exact integer
elimination: ``CycContext.matrix`` writes an element, a mapping from
exponents e to coefficients c, as the integer matrix of multiplication
by it on the power basis (its regular representation), and
``CycContext.rank`` takes the Smith form of the block matrix of the same
sparse rows.  ``rank_kernel`` ranks by elimination over any exact field;
over Q it is the oracle of the tangent acceptance check.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import OutOfRangeError
from .exactlin import IntMatrix, column_divisors


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, low degree first).


def _poly_div_exact_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials; den must be monic."""
    num = num[:]
    dd = len(den) - 1
    terms = [(j, x) for j, x in enumerate(den) if x]
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        out[k - dd] = c
        if c:
            for j, x in terms:
                num[k - dd + j] -= c * x
    if any(num):
        raise ArithmeticError("division not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 is the product of Phi_d over the divisors d of n
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact_int(num, cyclotomic_polynomial(d))
    return tuple(num)


# ---------------------------------------------------------------------------
# The regular representation.


class CycContext:
    """The ring Z[zeta_N] on the power basis 1, zeta, ..., zeta^(phi(N)-1).

    Holds the minimal polynomial and, built lazily one power at a time,
    the integer coordinates of the powers zeta^k that have been asked
    for.  An element acts on the basis by multiplication, which gives its
    integer matrix; ranks over Q(zeta_N) are read off those matrices.
    One context is shared per order.
    """

    _cache: dict[int, "CycContext"] = {}

    def __new__(cls, n: int):
        ctx = cls._cache.get(n)
        if ctx is not None:
            return ctx
        ctx = super().__new__(cls)
        ctx._init(n)
        cls._cache[n] = ctx
        return ctx

    def _init(self, n: int):
        if n < 1:
            raise ValueError("order must be positive")
        self.order = n
        self.minpoly = cyclotomic_polynomial(n)
        self.degree = len(self.minpoly) - 1
        # nonzero low coefficients of the minimal polynomial, for reduction
        self._tail = tuple((i, c) for i, c in enumerate(self.minpoly[:-1]) if c)
        self._powers: dict[int, tuple[int, ...]] = {}

    def power(self, k: int) -> tuple[int, ...]:
        """Integer coordinates of zeta^k, computed on first use."""
        k %= self.order
        row = self._powers.get(k)
        if row is None:
            coeffs = [0] * max(self.degree, k + 1)
            coeffs[k] = 1
            row = self._powers[k] = _reduce(self, coeffs)
        return row

    def matrix(self, terms) -> IntMatrix:
        """The degree x degree integer matrix of multiplication by the sum
        of c * zeta^e over a mapping from exponents e to coefficients c.

        Column k holds the coordinates of that sum times zeta^k: each
        column is the one before it multiplied by zeta, a shift reduced
        by the monic minimal polynomial.
        """
        d = self.degree
        col = [0] * d
        for e, c in terms.items():
            for i, x in enumerate(self.power(e)):
                if x:
                    col[i] += c * x
        cols = [col]
        for _ in range(1, d):
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                for i, m in self._tail:
                    col[i] -= top * m
            cols.append(col)
        return IntMatrix(zip(*cols), ncols=d)

    def rank(self, rows: list[list], ncols: int) -> int:
        """Exact rank over Q(zeta_N) of a matrix ``ncols`` wide, given as
        sparse rows of terms (j, e, c).

        Every entry becomes its integer matrix, and the rank over Q of
        the block matrix is degree times the rank over Q(zeta_N), since
        Q(zeta_N) has dimension degree over Q.
        """
        d = self.degree
        columns: list[dict[int, int]] = [{} for _ in range(ncols * d)]
        for i, row in enumerate(rows):
            entries: dict[int, dict[int, int]] = {}
            for j, e, c in row:
                if not 0 <= j < ncols:
                    raise ValueError("term column %d is outside %d columns" % (j, ncols))
                entry = entries.setdefault(j, {})
                entry[e] = entry.get(e, 0) + c
            for j, entry in entries.items():
                block = self.matrix(entry).rows
                for r in range(d):
                    for k, x in enumerate(block[r]):
                        if x:
                            columns[j * d + k][i * d + r] = x
        return len(column_divisors(columns)) // d

    def __repr__(self):
        return "CycContext(order=%d, degree=%d)" % (self.order, self.degree)


def _reduce(ctx: CycContext, coeffs: list) -> tuple:
    """Reduce a coefficient list modulo the monic minimal polynomial, by
    long division from the top over the polynomial's nonzero terms."""
    d = ctx.degree
    if len(coeffs) <= d:
        return tuple(coeffs) + (0,) * (d - len(coeffs))
    out = list(coeffs)
    tail = ctx._tail
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            base = k - d
            for i, m in tail:
                out[base + i] -= c * m
    return tuple(out[:d])


# ---------------------------------------------------------------------------
# Generic exact rank over any field.


def rank_kernel(rows: list[list], ncols: int, one) -> int:
    """The rank of a matrix over an exact field, by Gaussian elimination.

    Entries must support +, -, *, /, bool; ``one`` is the field's
    multiplicative identity, so int rows are ranked over Q when it is
    Fraction(1).  No kernel is built; the name is the one the benchmark
    tracer (``perfbench/tracing.py``) times it under.
    """
    M = [list(r) for r in rows]
    for r in M:
        if len(r) != ncols:
            raise ValueError("row width disagrees with ncols")
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        top = M[rank]
        inv_entry = one / top[col]
        for i in range(rank + 1, len(M)):
            if M[i][col]:
                f = M[i][col] * inv_entry
                M[i] = [a - f * b for a, b in zip(M[i], top)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Certified rank through F_q.

# The largest reduced order the certificate takes.  Finding an element of
# order n in F_q factors q - 1 by trial division, which did not finish in
# 20 s at N = 10^24 + 7, and past about 3.3 * 10^24 the fixed Miller-Rabin
# bases of ``is_prime`` are no longer a proof.  The slowest case found below
# the bound is `h1 --catalog "product(surface:2,surface:2)"` at a
# character with a trivial factor, whose norm-bound fallback takes a
# number of residue maps that grows with phi(N): about 1.7 s at
# N = 40009 and 29 s at N = 999983 on a 2-core VM.
_ORDER_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_splitting_prime(n: int, lower: int = 10**6) -> int:
    """Smallest prime q >= lower with q = 1 (mod n), so F_q contains an
    order-n root of unity."""
    q = lower + (1 - lower) % n
    while True:
        if q >= 2 and is_prime(q):
            return q
        q += n


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    """phi(n), from the distinct primes dividing n."""
    if n < 1:
        raise ValueError("n must be positive")
    for p in _factorize(n):
        n -= n // p
    return n


def order_n_root(q: int, n: int) -> int:
    """An element of exact multiplicative order n in F_q (q prime,
    n | q - 1)."""
    if (q - 1) % n:
        raise ValueError("no order-%d element in F_%d" % (n, q))
    primes = _factorize(q - 1)
    g = 2
    while True:
        if all(pow(g, (q - 1) // p, q) != 1 for p in primes):
            break
        g += 1
    return pow(g, (q - 1) // n, q)


@lru_cache(maxsize=1024)
def splitting_root(n: int) -> tuple[int, int]:
    """The prime q of ``find_splitting_prime(n)`` and an element of exact
    order n in F_q."""
    q = find_splitting_prime(n)
    return q, order_n_root(q, n)


def _rank_mod(M: list[list[int]], ncols: int, q: int) -> int:
    """Rank over F_q by row echelon elimination; M is overwritten."""
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        prow = M[rank]
        inv = pow(prow[col], -1, q)
        for i in range(rank + 1, len(M)):
            row = M[i]
            if row[col]:
                f = row[col] * inv % q
                M[i] = [(a - f * b) % q for a, b in zip(row, prow)]
        rank += 1
        if rank == len(M):
            break
    return rank


def _residue_maps(n: int):
    """Ring maps Z[zeta_n] -> F_q as pairs (q, image of zeta): every
    embedding zeta -> w^j (j a unit mod n) for q = find_splitting_prime(n),
    then for each next prime q = 1 (mod n).  Their kernels are distinct
    prime ideals of norm q."""
    q, w = splitting_root(n)
    while True:
        for j in range(1, n + 1):
            if gcd(j, n) == 1:
                yield q, pow(w, j, q)
        q = find_splitting_prime(n, lower=q + 1)
        w = order_n_root(q, n)


def _image(rows: list[list], ncols: int, q: int, w: int, g: int) -> list[list[int]]:
    """The matrix over F_q of sparse rows under zeta^e -> w^(e / g)."""
    powers: dict[int, int] = {}
    M = []
    for row in rows:
        out = [0] * ncols
        for j, e, c in row:
            x = powers.get(e)
            if x is None:
                x = powers[e] = pow(w, e // g, q)
            out[j] += c * x
        M.append([x % q for x in out])
    return M


def certified_rank(rows: list[list], ncols: int, order: int, upper: int | None = None) -> tuple[int, bool]:
    """Exact rank over Q(zeta_order) of a matrix over Z[zeta_order].

    ``rows`` are sparse, lists of terms (j, e, c) for c * zeta^e in
    column j < ``ncols``.  ``upper`` is an upper bound on the rank that
    the caller can prove (by default the smaller side of the matrix).
    Returns (rank, certified), where ``certified`` says that the first
    residue map already met ``upper``.

    The entries lie in Z[zeta_n] with n = order / g, g the gcd of order
    and every exponent.  A ring map Z[zeta_n] -> F_q cannot raise the
    rank, so the rank over F_q under zeta^e -> w^(e / g) (w of order n,
    q the prime of ``splitting_root(n)``) is a lower bound; when it meets
    ``upper`` it is the rank.  Otherwise the rank is the largest rank
    ``best`` over F_q across enough residue maps.  A rank above ``best``
    needs a nonzero (best + 1)-minor a, and a lies in the kernel of every
    map taken, since none of them has rank above ``best``.  Those kernels
    are distinct prime ideals, so their norms, the primes q, multiply to
    at most |Norm(a)|.  But each complex conjugate of a is at most H by
    Hadamard's inequality, with H the product of the best + 1 largest
    row norms, each entry counted at the sum of its terms' |c|, so
    |Norm(a)| is at most H^phi(n).  Once the primes multiply past
    H^phi(n), with H counted again whenever ``best`` rises, ``best`` is
    the rank.  The gcd, each image and the norms read the terms once.

    Reduced orders n above ``_ORDER_LIMIT`` raise OutOfRangeError before
    any residue map is built.
    """
    nrows = len(rows)
    bound = min(nrows, ncols) if upper is None else min(upper, nrows, ncols)
    if bound <= 0:
        return 0, True
    g = order
    for row in rows:
        if g == 1:
            break
        for _, e, _ in row:
            g = gcd(g, e)
    n = order // g
    if n > _ORDER_LIMIT:
        raise OutOfRangeError(
            "reduced character order %d is above the limit %d" % (n, _ORDER_LIMIT)
        )
    maps = _residue_maps(n)
    q, w = next(maps)
    best = _rank_mod(_image(rows, ncols, q, w, g), ncols, q)
    if best == bound:
        return best, True
    # squared row norms, largest first; the bits of H^phi(n) are
    # counted over the best + 1 largest, again whenever best rises
    sizes = [[0] * ncols for _ in rows]
    for size, row in zip(sizes, rows):
        for j, _, c in row:
            size[j] += abs(c)
    norms = sorted((sum(x * x for x in size) for size in sizes), reverse=True)
    phi = euler_phi(n)
    have = q.bit_length() - 1
    counted = None
    while best < bound:
        if best != counted:
            counted = best
            h2 = 1
            for x in norms[: best + 1]:
                h2 *= max(x, 1)
            need = -(-phi * (h2 - 1).bit_length() // 2)
        if have >= need:
            break
        q, w = next(maps)
        best = max(best, _rank_mod(_image(rows, ncols, q, w, g), ncols, q))
        have += q.bit_length() - 1
    if best > bound:
        raise ArithmeticError(
            "rank over F_%d is %d, above the claimed upper bound %d" % (q, best, bound)
        )
    return best, False
