"""Free group words over named alphabets.

Everything downstream (abelianizations, twisted cohomology, jump loci) is
computed from finite presentations, and this module is the carrier for
that: words over an alphabet, kept freely reduced at all times.  Fox
derivatives are taken only in evaluated form, by the prefix scan behind
:func:`braidhom.cohomology.fox_jacobian`.

Generators are addressed by index into an :class:`Alphabet`.  Names exist
for parsing and printing only, so words over two alphabets of the same
size are interchangeable; validation against a concrete alphabet happens
where words enter the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, PresentationParseError

# A letter is (generator index, sign), sign in {+1, -1}.
Letter = tuple[int, int]


class Alphabet:
    """An ordered tuple of distinct, nonempty generator names."""

    __slots__ = ("names", "_index", "_tokens")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if any(not isinstance(n, str) or not n for n in names):
            raise ValueError("generator names must be nonempty strings")
        if any(" " in n or "^" in n or "#" in n for n in names):
            raise ValueError("generator names may not contain spaces, '^' or '#'")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._tokens: dict[str, Letter] | None = None

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return "Alphabet(%r)" % (self.names,)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlphabetMismatchError("unknown generator %r" % name) from None

    def check_word(self, word: "Word") -> "Word":
        """Validate that every letter of ``word`` points into this alphabet."""
        k = len(self.names)
        for g, _ in word.letters:
            if not 0 <= g < k:
                raise AlphabetMismatchError(
                    "letter index %d outside alphabet of size %d" % (g, k)
                )
        return word

    def parse_word(self, text: str, line: int | None = None) -> "Word":
        """Parse whitespace separated tokens ``name`` or ``name^-1``.

        No other exponent syntax is accepted.  Each token is one lookup in
        a table of the accepted tokens, built on first use; text with a
        token the table lacks goes through :meth:`_parse_tokens`, which
        names the first bad token.
        """
        tokens = self._tokens
        if tokens is None:
            tokens = self._tokens = {}
            for i, name in enumerate(self.names):
                tokens[name] = (i, 1)
                tokens[name + "^-1"] = (i, -1)
        try:
            letters = [tokens[tok] for tok in text.split()]
        except KeyError:
            letters = self._parse_tokens(text, line)
        k = _first_cancellation(letters)
        return _push_reduced(letters[:k], islice(letters, k, None))

    def _parse_tokens(self, text: str, line: int | None) -> list[Letter]:
        """The token-by-token parse, raising on the first token that is
        not ``name`` or ``name^-1``."""
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
            if name not in self._index:
                raise PresentationParseError("unknown generator %r" % name, line)
            letters.append((self._index[name], sign))
        return letters

    def format_word(self, word: "Word") -> str:
        self.check_word(word)
        parts = []
        for g, s in word.letters:
            parts.append(self.names[g] if s == 1 else self.names[g] + "^-1")
        return " ".join(parts)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Construct through :func:`free_reduce`."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return _reduce_concat(self.letters, other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))


def free_reduce(letters: Sequence[Letter]) -> Word:
    """Freely reduce a raw letter sequence into a :class:`Word`.

    Every letter's sign and index are checked first; cancellation is
    then done with a stack in one pass, so the result carries no
    ``x x^-1`` pairs.  Indices are checked against an alphabet where the
    word meets one, in :meth:`Alphabet.check_word`.
    """
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError("letter sign must be +1 or -1, got %r" % (s,))
        if not isinstance(g, int) or g < 0:
            raise AlphabetMismatchError("letter index must be a nonnegative int")
    return _push_reduced([], letters)


def _first_cancellation(letters: Sequence[Letter]) -> int:
    """Index of the first letter that its successor cancels, or
    ``len(letters)`` when no two neighbours cancel."""
    pg, ps = -1, 0
    for k, (g, s) in enumerate(letters):
        if g == pg and s != ps:
            return k - 1
        pg, ps = g, s
    return len(letters)


def _push_reduced(stack: list[Letter], letters: Iterable[Letter]) -> Word:
    """Push valid ``letters`` onto the reduced ``stack``, cancelling as
    they come, and return the result as a :class:`Word`."""
    for g, s in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return Word(tuple(stack))


def _reduce_concat(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> Word:
    # Both halves are reduced, so only the seam can cancel.
    left = list(a)
    i = 0
    nb = len(b)
    while left and i < nb and left[-1][0] == b[i][0] and left[-1][1] == -b[i][1]:
        left.pop()
        i += 1
    return Word(tuple(left) + b[i:])


def generator_word(index: int, sign: int = 1) -> Word:
    return Word(((index, sign),))
