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
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, PresentationParseError

# A letter is (generator index, sign), sign in {+1, -1}.
Letter = tuple[int, int]


class Alphabet:
    """An ordered tuple of distinct, nonempty generator names."""

    __slots__ = ("names", "_index")

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

        No other exponent syntax is accepted.
        """
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
        return free_reduce(letters)

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


def free_reduce(letters: Sequence[Letter], alphabet: Alphabet | None = None) -> Word:
    """Freely reduce a raw letter sequence into a :class:`Word`.

    Cancellation is done with a stack in one pass, so the result carries
    no ``x x^-1`` pairs.  When ``alphabet`` is given, letter indices are
    validated against it.
    """
    k = len(alphabet) if alphabet is not None else None
    stack: list[Letter] = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError("letter sign must be +1 or -1, got %r" % (s,))
        if not isinstance(g, int) or g < 0:
            raise AlphabetMismatchError("letter index must be a nonnegative int")
        if k is not None and g >= k:
            raise AlphabetMismatchError(
                "letter index %d outside alphabet of size %d" % (g, k)
            )
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
