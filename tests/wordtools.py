"""Word helpers that only the tests use.

``commutator`` builds [u, v] = u v u^-1 v^-1 by free-group products, the
oracle for relators that the library writes out letter by letter,
``exponent_sum`` counts one generator's signed letters, the oracle for
the one-pass abelianization, and ``parse_word`` reads one token at a
time and reduces with the validating ``free_reduce``, the oracle for
the table-driven ``Alphabet.parse_word``.
"""

from braidhom.errors import PresentationParseError
from braidhom.words import Alphabet, Word, free_reduce


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def exponent_sum(w: Word, gen: int) -> int:
    return sum(s for g, s in w.letters if g == gen)


def parse_word(alphabet: Alphabet, text: str, line=None) -> Word:
    letters = []
    for tok in text.split():
        name, sign = tok, 1
        if "^" in tok:
            name, _, exp = tok.partition("^")
            if exp != "-1":
                raise PresentationParseError(
                    "unsupported exponent in token %r (only ^-1 is allowed)" % tok,
                    line,
                )
            sign = -1
        if name not in alphabet.names:
            raise PresentationParseError("unknown generator %r" % name, line)
        letters.append((alphabet.names.index(name), sign))
    return free_reduce(letters)
