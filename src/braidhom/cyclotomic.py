"""Exact arithmetic in cyclotomic fields Q(zeta_N), and certified rank.

Elements are polynomials in a primitive N-th root of unity with rational
coefficients (int, or Fraction once a division has happened), reduced
modulo the N-th cyclotomic polynomial.  A shared context object caches
the minimal polynomial per N; mixing elements from different contexts
raises.

``certified_rank`` computes the exact rank of a matrix over Z[zeta_N]
whose entries are given as integer combinations of powers of zeta,
without field arithmetic.  It maps zeta to a root of unity of the same
order in F_q for a prime q = 1 (mod N): that rank is a lower bound on
the true rank, and when it meets an upper bound the caller can prove,
it is the rank.  Otherwise the largest rank over enough such maps is
exact by a norm bound.  At N = 1 the same certificate ranks integer
matrices, so a rational matrix is ranked once its rows are scaled to
integers.  Elimination over Q and Q(zeta_N) with ``rank_kernel`` is the
independent route that rank is tested against, and the oracle of the
tangent acceptance check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

from .errors import ArithmeticContextError


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, low degree first).


def _poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_div_exact_int(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den must be monic."""
    num = num[:]
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        out[k - dd] = c
        if c:
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("division not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_div_exact_int(num, den))


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


# ---------------------------------------------------------------------------
# The field.


class CycContext:
    """Arithmetic context for Q(zeta_N).

    Holds the minimal polynomial and, built lazily one power at a time,
    the integer coordinates of the powers zeta^k with k >= degree that
    have been asked for.  Products are reduced by division by the monic
    minimal polynomial, so no table of powers is needed for them.
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

    def zero(self) -> "CycElt":
        return CycElt(self, (0,) * self.degree)

    def one(self) -> "CycElt":
        return self.from_rational(1)

    def from_rational(self, q) -> "CycElt":
        coeffs: list = [0] * self.degree
        coeffs[0] = q if isinstance(q, int) else Fraction(q)
        return CycElt(self, tuple(coeffs))

    def power(self, k: int) -> tuple[int, ...]:
        """Integer coordinates of zeta^k, computed on first use."""
        k %= self.order
        row = self._powers.get(k)
        if row is None:
            coeffs = [0] * max(self.degree, k + 1)
            coeffs[k] = 1
            row = self._powers[k] = _reduce(self, coeffs)
        return row

    def zeta(self, k: int = 1) -> "CycElt":
        """zeta_N^k as a field element."""
        return CycElt(self, self.power(k))

    def from_powers(self, terms) -> "CycElt":
        """The element sum of c * zeta^e over the (e, c) pairs of a
        mapping from exponents to integer coefficients."""
        acc = [0] * self.degree
        for e, c in terms.items():
            for i, x in enumerate(self.power(e)):
                if x:
                    acc[i] += c * x
        return CycElt(self, tuple(acc))

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


class CycElt:
    """An element of Q(zeta_N), immutable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycContext, coeffs: Sequence[int | Fraction]):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.degree:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycElt is immutable")

    def _check(self, other: "CycElt"):
        if self.ctx is not other.ctx:
            raise ArithmeticContextError(
                "mixed cyclotomic orders %d and %d"
                % (self.ctx.order, other.ctx.order)
            )

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, CycElt):
            return self.ctx is other.ctx and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self):
        return "CycElt(N=%d, %s)" % (self.ctx.order, list(self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return CycElt(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _coerce(self, other):
        if isinstance(other, CycElt):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycElt(self.ctx, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycElt):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        conv = [0] * (2 * self.ctx.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return CycElt(self.ctx, _reduce(self.ctx, conv))

    __rmul__ = __mul__

    def inverse(self) -> "CycElt":
        """Multiplicative inverse via the extended Euclidean algorithm
        against the (irreducible) minimal polynomial."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # Work over Q[x]: r0 = minpoly, r1 = self; track s only.
        r0 = [Fraction(c) for c in self.ctx.minpoly]
        r1 = [Fraction(c) for c in self.coeffs]
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            if len(r1) == 1:
                inv = 1 / r1[0]
                return CycElt(self.ctx, _reduce(self.ctx, [c * inv for c in s1]))
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul_frac(q, s1))
            while r1 and not r1[-1]:
                r1.pop()
            if not r1:
                raise ArithmeticError("minimal polynomial not coprime")

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced * self.inverse()

    def __pow__(self, k: int) -> "CycElt":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        q[k - dd] = c
        if c:
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    while len(num) > 1 and not num[-1]:
        num.pop()
    return q, num


def _poly_mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# Generic exact rank and kernel over any field.


def rank_kernel(rows: list[list], ncols: int, one):
    """Row reduce a matrix over an exact field.

    Entries must support +, -, *, /, bool.  Returns (rank, nullity,
    kernel_basis) where each kernel vector has length ncols and entries
    in the same field.  ``one`` is the field's multiplicative identity.
    """
    zero = one - one
    M = [list(r) for r in rows]
    for r in M:
        if len(r) != ncols:
            raise ValueError("row width disagrees with ncols")
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(M)):
            if M[i][col]:
                piv = i
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv_entry = one / M[rank][col]
        M[rank] = [e * inv_entry for e in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        pivots.append(col)
        rank += 1
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - M[r][fc]
        basis.append(vec)
    return rank, len(free_cols), basis


# ---------------------------------------------------------------------------
# Certified rank through F_q.


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


def _image(rows: list[list[dict]], q: int, w: int) -> list[list[int]]:
    images: dict[int, int] = {}
    M = []
    for row in rows:
        out = []
        for entry in row:
            acc = 0
            for e, c in entry.items():
                x = images.get(e)
                if x is None:
                    x = images[e] = pow(w, e, q)
                acc += c * x
            out.append(acc % q)
        M.append(out)
    return M


def certified_rank(rows: list[list], ncols: int, order: int, upper: int | None = None) -> tuple[int, bool]:
    """Exact rank over Q(zeta_order) of a matrix over Z[zeta_order].

    Each entry is a mapping from exponents e to integer coefficients c,
    standing for the sum of c * zeta^e.  ``upper`` is an upper bound on
    the rank that the caller can prove (by default the smaller side of
    the matrix).  Returns (rank, certified), where ``certified`` says
    that the first residue map already met ``upper``.

    The entries lie in Z[zeta_n] with n = order / gcd(order, every
    exponent).  A ring map Z[zeta_n] -> F_q cannot raise the rank, so the
    rank over F_q under zeta -> w (w of order n, q the prime of
    ``splitting_root(n)``) is a lower bound; when it meets ``upper`` it
    is the rank.  Otherwise the rank is the largest rank over F_q across
    enough residue maps: if every rank-sized minor a != 0 lay in the
    kernels of maps whose primes multiply to more than H^phi(n), so
    would their product, and |Norm(a)| would exceed H^phi(n).  But each
    complex conjugate of a is at most H by Hadamard's inequality, with H
    the product of the largest row norms, each entry counted at the sum
    of its |c|.  So that largest rank is exact.
    """
    nrows = len(rows)
    bound = min(nrows, ncols) if upper is None else min(upper, nrows, ncols)
    if bound <= 0:
        return 0, True
    g = order
    for row in rows:
        for entry in row:
            for e in entry:
                g = gcd(g, e)
    n = order // g
    if g > 1:
        rows = [[{e // g: c for e, c in entry.items()} for entry in row] for row in rows]
    maps = _residue_maps(n)
    q, w = next(maps)
    best = _rank_mod(_image(rows, q, w), ncols, q)
    if best == bound:
        return best, True
    # bits of H^phi(n), from the squared row norms
    norms = sorted(
        (sum(sum(abs(c) for c in t.values()) ** 2 for t in row) for row in rows),
        reverse=True,
    )
    h2 = 1
    for x in norms[: min(nrows, ncols)]:
        h2 *= max(x, 1)
    need = -(-euler_phi(n) * (h2 - 1).bit_length() // 2)
    have = q.bit_length() - 1
    while have < need and best < bound:
        q, w = next(maps)
        best = max(best, _rank_mod(_image(rows, q, w), ncols, q))
        have += q.bit_length() - 1
    if best > bound:
        raise ArithmeticError(
            "rank over F_%d is %d, above the claimed upper bound %d" % (q, best, bound)
        )
    return best, False
