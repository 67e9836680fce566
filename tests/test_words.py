import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhom.cohomology import fox_jacobian
from braidhom.errors import AlphabetMismatchError, PresentationParseError
from braidhom.presentations import Character, Presentation
from braidhom.cohomology import seeded_rng
from braidhom.words import Alphabet, Word, free_reduce, generator_word
from wordtools import commutator, exponent_sum, parse_word

AB = Alphabet(["x", "y"])
X = generator_word(0)
Y = generator_word(1)


def word(*letters):
    return free_reduce(letters)


raw_letters = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from([1, -1])), max_size=120
)


class TestFreeReduction:
    def test_simple_cancellation(self):
        assert word((0, 1), (0, -1)) == Word()
        assert word((0, 1), (1, 1), (1, -1), (0, -1)) == Word()

    def test_no_overcancellation(self):
        w = word((0, 1), (0, 1), (0, -1))
        assert w == word((0, 1))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            free_reduce([(0, 2)])

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(AlphabetMismatchError):
            Presentation(AB, [free_reduce([(7, 1)])])

    @given(raw_letters)
    def test_idempotent(self, raw):
        w = free_reduce(raw)
        assert free_reduce(w.letters) == w
        assert len(w) <= len(raw)

    @given(raw_letters)
    def test_no_adjacent_cancelling_pair(self, raw):
        w = free_reduce(raw)
        for (g1, s1), (g2, s2) in zip(w.letters, w.letters[1:]):
            assert not (g1 == g2 and s1 == -s2)

    @given(raw_letters)
    def test_inverse_cancels(self, raw):
        w = free_reduce(raw)
        assert w * w.inverse() == Word()
        assert w.inverse() * w == Word()

    @given(raw_letters, raw_letters, raw_letters)
    def test_multiplication_associative(self, a, b, c):
        u, v, w = free_reduce(a), free_reduce(b), free_reduce(c)
        assert (u * v) * w == u * (v * w)


class TestAlphabet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(["a", ""])

    def test_parse_round_trip(self):
        w = AB.parse_word("x y^-1 x")
        assert w.letters == ((0, 1), (1, -1), (0, 1))
        assert AB.format_word(w) == "x y^-1 x"

    def test_parse_reduces(self):
        assert AB.parse_word("x x^-1") == Word()

    def test_parse_rejects_unknown_generator(self):
        with pytest.raises(PresentationParseError):
            AB.parse_word("x z")

    def test_parse_rejects_general_exponents(self):
        for bad in ("x^2", "x^1", "x^-2", "x^"):
            with pytest.raises(PresentationParseError):
                AB.parse_word(bad)


def _outcome(parse, text, line):
    """The parsed word, or the exception's type, message and line."""
    try:
        return parse(text, line)
    except PresentationParseError as exc:
        return type(exc), str(exc), exc.line


# tokens the table accepts, and tokens it lacks that the reference loop
# must diagnose: unknown names, other exponents, a bare ^-1
GOOD_TOKENS = ["x", "x^-1", "y", "y^-1", "zz", "zz^-1"]
BAD_TOKENS = ["w", "x^2", "x^-1^-1", "^-1", "x^", "X", "y^+1"]


class TestParseAgainstReference:
    ZZ = Alphabet(["x", "y", "zz"])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "x x^-1 y",
            "x y y^-1 zz",
            "x y zz^-1 zz",
            "x x^-1 x^-1 x y",
            "zz y^-1 y zz^-1 x",
            "x^2",
            "x^-1^-1",
            "^-1",
            "x y w",
            "x\ty\n zz^-1",
        ],
    )
    def test_fixed_texts(self, text):
        for line in (None, 7):
            assert _outcome(self.ZZ.parse_word, text, line) == _outcome(
                lambda t, ln: parse_word(self.ZZ, t, ln), text, line
            )

    def test_seeded_texts(self):
        rng = seeded_rng(4401)
        for trial in range(600):
            length = rng.randint(0, 14)
            toks = [rng.choice(GOOD_TOKENS) for _ in range(length)]
            if length and rng.random() < 0.6:
                # plant a cancelling pair at the start, middle or end
                k = rng.choice((0, length // 2, length))
                tok = rng.choice(GOOD_TOKENS)
                partner = tok[:-3] if tok.endswith("^-1") else tok + "^-1"
                toks[k:k] = [tok, partner]
            if rng.random() < 0.15:
                toks.insert(rng.randint(0, len(toks)), rng.choice(BAD_TOKENS))
            text = " ".join(toks)
            line = rng.choice((None, trial + 1))
            assert _outcome(self.ZZ.parse_word, text, line) == _outcome(
                lambda t, ln: parse_word(self.ZZ, t, ln), text, line
            ), text


# Fox derivatives are tested in evaluated form, on the rows of the
# production Jacobian: at a character a row is a list of terms (j, e, c),
# c * zeta^e in column j, which ``fox_row`` gathers into one element of
# the group ring Z[Z/N] per generator, a map from exponents e to the
# coefficient of zeta^e.

SIX = Alphabet(["x%d" % j for j in range(6)])


def fox_row(w, chi):
    """d(w)/dx_j at ``chi`` for every generator j, by ``fox_jacobian``.
    Each (j, e) appears in at most one term, and no term is zero."""
    row = [{} for _ in chi.exponents]
    if w.is_identity:
        return row
    p = Presentation(chi.alphabet, (w,))
    for j, e, c in fox_jacobian(p, chi).rows[0]:
        assert c and e not in row[j]
        row[j][e] = c
    return row


def ring_add(*terms):
    out = {}
    for t in terms:
        for e, c in t.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ring_scale(t, shift, n, sign=1):
    """sign * zeta^shift * t in Z[Z/n]."""
    return {(e + shift) % n: sign * c for e, c in t.items()}


characters = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=6, max_size=6).map(
        lambda exps: Character(SIX, n, exps)
    )
)


class TestFoxDerivative:
    # worked examples at x -> zeta^a, y -> zeta^b
    N, A, B = 7, 2, 3
    CHI = Character(AB, N, {"x": A, "y": B})

    def test_single_generator(self):
        assert fox_row(X, self.CHI) == [{0: 1}, {}]

    def test_inverse_generator(self):
        # d(x^-1)/dx = -x^-1
        assert fox_row(X.inverse(), self.CHI) == [{-self.A % self.N: -1}, {}]

    def test_product_rule_example(self):
        # d(xy)/dx = 1, d(xy)/dy = x
        assert fox_row(X * Y, self.CHI) == [{0: 1}, {self.A: 1}]

    def test_commutator_example(self):
        # d([x,y])/dx = 1 - xyx^-1, d([x,y])/dy = x - [x,y]
        row = fox_row(commutator(X, Y), self.CHI)
        assert row == [{0: 1, self.B: -1}, {self.A: 1, 0: -1}]

    @given(raw_letters, characters)
    def test_fundamental_identity(self, raw, chi):
        # sum_j d(w)/dx_j * (chi(x_j) - 1) == chi(w) - 1
        w = free_reduce(raw)
        n = chi.order
        total = ring_add(
            *(
                ring_add(ring_scale(d, e, n), ring_scale(d, 0, n, -1))
                for d, e in zip(fox_row(w, chi), chi.exponents)
            )
        )
        assert total == ring_add({chi.word_exponent(w): 1}, {0: -1})

    @given(raw_letters, characters)
    def test_inverse_rule(self, raw, chi):
        # d(w^-1)/dx = -w^-1 * d(w)/dx
        w = free_reduce(raw)
        back = -chi.word_exponent(w)
        rhs = [ring_scale(d, back, chi.order, -1) for d in fox_row(w, chi)]
        assert fox_row(w.inverse(), chi) == rhs

    @given(raw_letters, raw_letters, characters)
    def test_product_rule(self, a, b, chi):
        # d(uv)/dx = d(u)/dx + u * d(v)/dx
        u, v = free_reduce(a), free_reduce(b)
        shift = chi.word_exponent(u)
        rhs = [
            ring_add(du, ring_scale(dv, shift, chi.order))
            for du, dv in zip(fox_row(u, chi), fox_row(v, chi))
        ]
        assert fox_row(u * v, chi) == rhs

    @given(raw_letters)
    def test_trivial_character_gives_exponent_sums(self, raw):
        # at N = 1 every derivative collapses to its augmentation
        w = free_reduce(raw)
        row = fox_row(w, Character(SIX, 1))
        for j in range(6):
            s = exponent_sum(w, j)
            assert row[j] == ({0: s} if s else {})
