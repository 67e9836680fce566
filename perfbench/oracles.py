"""Output checks for the benchmark, computed apart from the code under test.

Every check takes the parsed JSON an operation printed plus the inputs
the benchmark generated, and returns ``None`` when the output is right
or a one-line reason when it is wrong.  Nothing here imports braidhom:
the closed forms, the Smith form of small integer matrices and the Fox
calculus over prime fields are this module's own.  ``self_test`` feeds
each check a wrong answer and requires it to be rejected.
"""

import math
import random

# ---------------------------------------------------------------------------
# arithmetic helpers


def smith_divisors(rows):
    """Nonzero elementary divisors of a small integer matrix (lists)."""
    M = [list(r) for r in rows]
    m = len(M)
    n = len(M[0]) if M else 0
    divisors = []
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        M[t], M[i] = M[i], M[t]
        for r in M:
            r[t], r[j] = r[j], r[t]
        p = M[t][t]
        clean = True
        for i in range(t + 1, m):
            q = M[i][t] // p
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[t])]
            clean = clean and M[i][t] == 0
        for j in range(t + 1, n):
            q = M[t][j] // p
            if q:
                for r in M:
                    r[j] -= q * r[t]
            clean = clean and M[t][j] == 0
        if not clean:
            continue
        bad = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if M[i][j] % p),
            None,
        )
        if bad is not None:
            # fold the offending row into the pivot row and go again
            M[t] = [a + b for a, b in zip(M[t], M[bad[0]])]
            continue
        divisors.append(abs(p))
        t += 1
    return divisors


def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


_FIELDS = {}


def _prime_fields(order):
    """Two primes q = 1 mod order above 2^30, each with a primitive
    order-th root of unity."""
    fields = _FIELDS.get(order)
    if fields is None:
        fields = []
        q = (2**30 // order + 1) * order + 1
        while len(fields) < 2:
            if is_prime(q):
                for g in range(2, 200):
                    w = pow(g, (q - 1) // order, q)
                    if all(pow(w, order // f, q) != 1 for f in _prime_factors(order)):
                        fields.append((q, w))
                        break
            q += order
        _FIELDS[order] = fields
    return fields


def _rank_mod(rows, q):
    M = [list(r) for r in rows]
    rank = 0
    ncols = len(M[0]) if M else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][col] % q), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], q - 2, q)
        M[rank] = [e * inv % q for e in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][col] % q:
                f = M[i][col]
                M[i] = [(a - f * b) % q for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def fox_h1(relators, ngens, order, exponents):
    """Twisted h1 of a presented group at a rank one character.

    ``relators`` are sequences of (generator index, sign) letters, and
    the character sends generator g to the exponents[g]-th power of a
    primitive order-th root of unity.  The Fox Jacobian is evaluated in
    two prime fields that contain that root; its rank there is a lower
    bound on the rank over the cyclotomic field, exact for all but
    finitely many primes, so the larger of the two is taken.
    """
    rank = 0
    for q, w in _prime_fields(order):
        plus = [pow(w, e % order, q) for e in exponents]
        minus = [pow(v, q - 2, q) for v in plus]
        rows = []
        for rel in relators:
            deriv = [0] * ngens
            prefix = 1
            for g, s in rel:
                if s == 1:
                    deriv[g] = (deriv[g] + prefix) % q
                    prefix = prefix * plus[g] % q
                else:
                    prefix = prefix * minus[g] % q
                    deriv[g] = (deriv[g] - prefix) % q
            rows.append(deriv)
        rank = max(rank, _rank_mod(rows, q) if rows else 0)
    h0 = 1 if all(e % order == 0 for e in exponents) else 0
    return (ngens - rank) - (1 - h0)


def parse_pres(text):
    """(generator names, relators as letter lists) from the line format."""
    names, rels = None, []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("gens:"):
            names = line[5:].split()
        elif line.startswith("rel:"):
            index = {name: k for k, name in enumerate(names)}
            word = []
            for tok in line[4:].split():
                name, _, exp = tok.partition("^")
                word.append((index[name], -1 if exp == "-1" else 1))
            rels.append(word)
    return names, rels


def abelian_invariants(names, rels):
    """(free rank, torsion) of a presented group's abelianization."""
    rows = [[sum(s for g, s in r if g == i) for r in rels] for i in range(len(names))]
    divisors = smith_divisors(rows) if rels else []
    return len(names) - len(divisors), [d for d in divisors if d > 1]


def kunneth(profiles):
    """h1 of a product from factor (h0, h1) pairs."""
    total = 0
    for i, (_, h1) in enumerate(profiles):
        term = h1
        for j, (h0, _) in enumerate(profiles):
            if j != i:
                term *= h0
        total += term
    return total


def surface_profile(genus, trivial):
    """(h0, h1) of the genus g surface group at a unitary character: the
    Euler characteristic 2 - 2g fixes h1 once h0 = h2 is known."""
    return (1, 2 * genus) if trivial else (0, 2 * genus - 2)


def kn_incidence(n):
    """Unsigned vertex-edge incidence matrix of the complete graph K_n."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[1 if v in e else 0 for e in edges] for v in range(n)]


# ---------------------------------------------------------------------------
# jumploci


def check_twisted(out, expected):
    """``expected`` is an independent h1, or None where no route exists."""
    if not isinstance(out.get("h1"), int):
        return "no integer h1"
    if expected is not None and out["h1"] != expected:
        return "h1 %d, independent route gives %d" % (out["h1"], expected)
    return None


def check_membership(out, twisted_h1, expected, trivial):
    h1 = out.get("h1")
    if not isinstance(h1, int):
        return "no integer h1"
    if h1 != twisted_h1:
        return "membership h1 %d differs from twisted h1 %r" % (h1, twisted_h1)
    if out.get("member") != (h1 > 0):
        return "member %r but h1 %d" % (out.get("member"), h1)
    if out.get("member") != bool(out.get("components")):
        return "member %r with components %r" % (out.get("member"), out.get("components"))
    if out.get("trivial") != trivial:
        return "trivial flag %r for a tuple that is %s" % (out.get("trivial"), trivial)
    if expected is not None and h1 != expected:
        return "h1 %d, independent route gives %d" % (h1, expected)
    return None


def tuple_expected(space, comps, order, oracle_pres):
    """Independent h1 of P_n(X) at a character tuple, or None.

    ``comps`` are exponent lists on the factor alphabet; ``oracle_pres``
    maps "p2_torus" and "artin_pure:m" to (names, relators).
    """
    n = len(comps)
    trivial = [all(e % order == 0 for e in c) for c in comps]
    if space == "genus:2":
        return kunneth([surface_profile(2, t) for t in trivial])
    if space == "genus:1":
        if all(trivial):
            return 2 * n
        if n == 2 and "p2_torus" in oracle_pres:
            (a1, b1), (a2, b2) = comps
            names, rels = oracle_pres["p2_torus"]
            return fox_h1(rels, len(names), order, [a1 + a2, b1 + b2, a2, b2])
        return None
    if space == "c-star":
        names, rels = oracle_pres["artin_pure:%d" % (n + 1)]
        exps = [0] * len(names)
        for j, (e,) in enumerate(comps):
            exps[names.index("A1_%d" % (j + 2))] = e
        return fox_h1(rels, len(names), order, exps)
    raise ValueError(space)


# ---------------------------------------------------------------------------
# fragments


def check_b1_genus(out, g, n):
    if out.get("h1_rank") != 2 * g * n:
        return "b1 %r, expected 2gn = %d" % (out.get("h1_rank"), 2 * g * n)
    if out.get("torsion") != [] or out.get("divisors_all_one") is not True:
        return "torsion %r on a closed surface" % (out.get("torsion"),)
    return None


def check_verdict_genus(out, g, n):
    if out.get("status") != "NotKahler":
        return "status %r" % out.get("status")
    w = out.get("witnesses", {})
    key, want = ("b1", 2 * g * n) if g >= 2 else ("ambient_dim", 2 * n)
    if w.get(key) != want:
        return "witness %s = %r, expected %d" % (key, w.get(key), want)
    return None


def check_b1_sphere(out, n, kn_torsion):
    want = math.comb(n, 2) - n if n >= 3 else 0
    if out.get("h1_rank") != want:
        return "sphere b1 %r, expected %d" % (out.get("h1_rank"), want)
    if n >= 3 and out.get("torsion") != kn_torsion:
        return "sphere torsion %r, K_n incidence gives %r" % (out.get("torsion"), kn_torsion)
    return None


def check_abelian(out, rank, torsion):
    if out.get("rank") != rank or out.get("torsion") != list(torsion):
        return "Z^%r + %r, expected Z^%d + %r" % (
            out.get("rank"), out.get("torsion"), rank, list(torsion))
    return None


def check_verdict_table(out, spec, n):
    want = "Kahler" if spec == "sphere" and n <= 3 else "NotKahler"
    if out.get("status") != want:
        return "%s n=%d: status %r, expected %s" % (spec, n, out.get("status"), want)
    if not out.get("trace"):
        return "empty trace"
    return None


# ---------------------------------------------------------------------------
# fields


def check_surface_h1(out, g, trivial):
    want = surface_profile(g, trivial)[1]
    if out.get("h1") != want:
        return "surface:%d h1 %r, expected %d" % (g, out.get("h1"), want)
    return None


def check_product_h1(out, g, trivial_a, trivial_b):
    want = kunneth([surface_profile(g, trivial_a), surface_profile(g, trivial_b)])
    if out.get("h1") != want:
        return "product h1 %r, Kunneth gives %d" % (out.get("h1"), want)
    return None


def check_tangent(out, g):
    z1, h1, h0 = out.get("z1"), out.get("h1"), out.get("h0_ad")
    if not all(isinstance(v, int) for v in (z1, h1, h0)):
        return "missing dimensions"
    if out.get("gate_passed") != (h0 == 0):
        return "gate flag %r with h0_ad %d" % (out.get("gate_passed"), h0)
    if h0 == 0 and (h1 != 6 * g - 6 or z1 != h1 + 3):
        return "gated point with h1 %d, z1 %d; expected %d, %d" % (h1, z1, 6 * g - 6, 6 * g - 3)
    if z1 - h1 != 3 - h0:
        return "z1 - h1 = %d, expected 3 - h0_ad = %d" % (z1 - h1, 3 - h0)
    return None


# ---------------------------------------------------------------------------
# planted matrices


def random_unimodular(rng, n):
    """Row-permuted product of unit lower and unit upper triangular
    matrices, each off-diagonal entry +-1 with probability 2/n, so the
    entries stay small."""
    p = min(1.0, 2.0 / n)

    def triangle(lower):
        return [[1 if i == j else (rng.choice((-1, 1)) if (i > j) == lower and i != j
                                   and rng.random() < p else 0)
                 for j in range(n)] for i in range(n)]

    U = matmul(triangle(True), triangle(False))
    rng.shuffle(U)
    return U


def matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def planted_matrix(rng, k, m):
    """(A, chain, rank) with A = L D R, D diagonal with the chain d1 | d2 | ...

    A is k x m with no zero column, so every column is a relator.
    """
    r = rng.randint(max(1, min(k, m) - 3), min(k, m))
    chain, d = [], 1
    for _ in range(r):
        if d < 30 and rng.random() < 0.25:
            d *= rng.choice((2, 3, 2, 5))
        chain.append(d)
    if chain[-1] == 1:
        chain[-1] = rng.choice((2, 3))
    D = [[chain[i] if i == j and i < r else 0 for j in range(m)] for i in range(k)]
    L = random_unimodular(rng, k)
    while True:
        R = random_unimodular(rng, m)
        A = matmul(matmul(L, D), R)
        if all(any(A[i][j] for i in range(k)) for j in range(m)):
            return A, chain, r


def planted_text(rng, A):
    """Presentation text whose relator exponent matrix is A (columns)."""
    k, m = len(A), len(A[0])
    lines = ["gens: " + " ".join("x%d" % (i + 1) for i in range(k))]
    for j in range(m):
        order = list(range(k))
        rng.shuffle(order)
        toks = []
        for i in order:
            e = A[i][j]
            toks.extend(["x%d" % (i + 1) if e > 0 else "x%d^-1" % (i + 1)] * abs(e))
        lines.append("rel: " + " ".join(toks))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# self tests: every check must accept a right answer and reject a wrong one


def self_test(oracle_pres):
    """Raise AssertionError if a check accepts a wrong answer or the
    arithmetic helpers disagree with known values."""

    def accepts(r):
        assert r is None, r

    def rejects(r):
        assert r is not None, "a wrong answer was accepted"

    assert smith_divisors(kn_incidence(4)) == [1, 1, 1, 2]
    assert smith_divisors([[2, 4], [6, 8]]) == [2, 4]
    assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]
    rng = random.Random(5)
    A, chain, r = planted_matrix(rng, 7, 6)
    assert smith_divisors(A) == chain
    names, rels = parse_pres(planted_text(rng, A))
    assert abelian_invariants(names, rels) == (7 - r, [d for d in chain if d > 1])

    # Fox over prime fields: the free group of rank 1 and Z^2
    assert fox_h1([], 1, 5, [0]) == 1 and fox_h1([], 1, 5, [2]) == 0
    z2 = [[(0, 1), (1, 1), (0, -1), (1, -1)]]
    assert fox_h1(z2, 2, 6, [0, 0]) == 2 and fox_h1(z2, 2, 6, [1, 0]) == 0

    # jumploci
    accepts(check_twisted({"h1": 2}, 2))
    rejects(check_twisted({"h1": 3}, 2))
    accepts(check_twisted({"h1": 3}, None))
    good = {"h1": 1, "member": True, "components": ["T_1_2"], "trivial": False}
    accepts(check_membership(good, 1, 1, False))
    rejects(check_membership(dict(good, h1=2), 1, None, False))
    rejects(check_membership(dict(good, member=False), 1, 1, False))
    rejects(check_membership(dict(good, components=[]), 1, 1, False))
    rejects(check_membership(dict(good, trivial=True), 1, 1, False))
    rejects(check_membership(good, 1, 0, False))
    assert tuple_expected("genus:2", [[0, 0], [1, 2]], 3, oracle_pres) == 2
    assert tuple_expected("genus:2", [[1, 0], [1, 2]], 3, oracle_pres) == 0
    assert tuple_expected("genus:1", [[0, 0]] * 3, 4, oracle_pres) == 6
    assert tuple_expected("c-star", [[0], [0]], 5, oracle_pres) == 3
    assert tuple_expected("c-star", [[1], [4]], 5, oracle_pres) == 1
    if "p2_torus" in oracle_pres:
        assert tuple_expected("genus:1", [[1, 2], [2, 1]], 3, oracle_pres) == 1
        assert tuple_expected("genus:1", [[1, 2], [1, 1]], 3, oracle_pres) == 0

    # fragments
    accepts(check_b1_genus({"h1_rank": 12, "torsion": [], "divisors_all_one": True}, 2, 3))
    rejects(check_b1_genus({"h1_rank": 11, "torsion": [], "divisors_all_one": True}, 2, 3))
    rejects(check_b1_genus({"h1_rank": 12, "torsion": [2], "divisors_all_one": False}, 2, 3))
    accepts(check_verdict_genus({"status": "NotKahler", "witnesses": {"b1": 12}}, 2, 3))
    rejects(check_verdict_genus({"status": "NotKahler", "witnesses": {"b1": 13}}, 2, 3))
    rejects(check_verdict_genus({"status": "Kahler", "witnesses": {"b1": 12}}, 2, 3))
    accepts(check_verdict_genus({"status": "NotKahler", "witnesses": {"ambient_dim": 6}}, 1, 3))
    accepts(check_b1_sphere({"h1_rank": 2, "torsion": [2]}, 4, [2]))
    rejects(check_b1_sphere({"h1_rank": 2, "torsion": []}, 4, [2]))
    rejects(check_b1_sphere({"h1_rank": 3, "torsion": [2]}, 4, [2]))
    accepts(check_abelian({"rank": 1, "torsion": [2, 6]}, 1, (2, 6)))
    rejects(check_abelian({"rank": 1, "torsion": [2, 2]}, 1, (2, 6)))
    rejects(check_abelian({"rank": 2, "torsion": [2, 6]}, 1, (2, 6)))
    accepts(check_verdict_table({"status": "Kahler", "trace": [{}]}, "sphere", 3))
    rejects(check_verdict_table({"status": "Kahler", "trace": [{}]}, "sphere", 4))
    rejects(check_verdict_table({"status": "NotKahler", "trace": [{}]}, "sphere", 2))

    # fields
    accepts(check_surface_h1({"h1": 2}, 2, False))
    rejects(check_surface_h1({"h1": 3}, 2, False))
    rejects(check_surface_h1({"h1": 2}, 1, False))
    accepts(check_surface_h1({"h1": 6}, 3, True))
    accepts(check_product_h1({"h1": 2}, 2, True, False))
    rejects(check_product_h1({"h1": 0}, 2, True, False))
    rejects(check_product_h1({"h1": 4}, 2, True, True))
    accepts(check_product_h1({"h1": 4}, 1, True, True))
    ok = {"z1": 9, "h1": 6, "h0_ad": 0, "gate_passed": True}
    accepts(check_tangent(ok, 2))
    rejects(check_tangent(dict(ok, h1=5), 2))
    rejects(check_tangent(dict(ok, z1=10), 2))
    rejects(check_tangent(dict(ok, gate_passed=False), 2))
    accepts(check_tangent({"z1": 10, "h1": 8, "h0_ad": 1, "gate_passed": False}, 2))
    rejects(check_tangent({"z1": 10, "h1": 9, "h0_ad": 1, "gate_passed": False}, 2))
