"""Word helpers that only the tests use.

``commutator`` builds [u, v] = u v u^-1 v^-1 by free-group products, the
oracle for relators that the library writes out letter by letter, and
``exponent_sum`` counts one generator's signed letters, the oracle for
the one-pass abelianization.
"""

from braidhom.words import Word


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def exponent_sum(w: Word, gen: int) -> int:
    return sum(s for g, s in w.letters if g == gen)
