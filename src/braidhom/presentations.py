"""Group presentations, a catalog of the groups the toolkit computes with,
and the representation objects that feed twisted cohomology.

The catalog covers closed orientable surface groups, free groups, planar
pure braid groups, and finite direct products.  Pure braid relators are
not transcribed from a book: they are derived at call time from the braid
action on a free group and each one is verified inside Aut(F_n), where
the braid group embeds faithfully.  A frozen snapshot in the test suite
pins the derived table.

Representation objects come in two flavours: one dimensional characters
with values zeta_N^e, stored as integer exponents, and rational matrix
representations, the adjoint action of one among them.  The Fox calculus
in :mod:`braidhom.cohomology` evaluates relators through them: characters
by exponent sums, matrix representations through the columns of their
images, built once on construction.
"""

from __future__ import annotations

import string
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    AlphabetMismatchError,
    InputError,
    OutOfRangeError,
    PresentationParseError,
)
from .exactlin import QMat, _times
from .words import Alphabet, Word, generator_word

__all__ = [
    "Presentation",
    "surface_presentation",
    "free_presentation",
    "artin_pure_presentation",
    "artin_pure_relators",
    "product_presentation",
    "catalog",
    "parse_presentation",
    "serialize_presentation",
    "Character",
    "CharacterTuple",
    "CharacterCheck",
    "validate_character",
    "MatrixRep",
    "validate_matrix_rep",
    "SpaceSpec",
]


class Presentation:
    """A finite presentation: an alphabet plus freely reduced relators.

    Instances are immutable.  ``source`` carries free-text provenance for
    externally loaded files, and ``product_factors`` is populated by
    :func:`product_presentation` so downstream code can split a character
    on the product back into factor characters.
    """

    __slots__ = ("alphabet", "relators", "source", "product_factors")

    def __init__(
        self,
        alphabet: Alphabet,
        relators: Iterable[Word] = (),
        source: str | None = None,
        product_factors=None,
    ):
        relators = tuple(relators)
        for r in relators:
            alphabet.check_word(r)
            if r.is_identity:
                raise ValueError("identity relator is not allowed")
        self.alphabet = alphabet
        self.relators = relators
        self.source = source
        self.product_factors = product_factors

    @property
    def num_generators(self) -> int:
        return len(self.alphabet)

    @property
    def num_relators(self) -> int:
        return len(self.relators)

    def __eq__(self, other) -> bool:
        # provenance does not affect identity of the group data
        return (
            isinstance(other, Presentation)
            and self.alphabet == other.alphabet
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.relators))

    def __repr__(self) -> str:
        return "Presentation(gens=%r, relators=%d)" % (
            list(self.alphabet.names),
            len(self.relators),
        )


# ---------------------------------------------------------------------------
# catalog constructions


def surface_presentation(g: int) -> Presentation:
    """Closed orientable genus g surface group.

    One relator, the product of the g handle commutators.  Genus zero
    yields the trivial group, an empty presentation, instead of an error,
    so space descriptors stay uniform downstream.
    """
    if g < 0:
        raise InputError("genus must be nonnegative, got %d" % g)
    if g == 0:
        return Presentation(Alphabet(()))
    if g == 1:
        alphabet = Alphabet(("a", "b"))
    else:
        names = []
        for i in range(1, g + 1):
            names.append("a%d" % i)
            names.append("b%d" % i)
        alphabet = Alphabet(names)
    # distinct handle commutators share no generator, so their product
    # is reduced as written
    handle = ((0, 1), (1, 1), (0, -1), (1, -1))
    rel = Word(tuple((2 * i + j, s) for i in range(g) for j, s in handle))
    return Presentation(alphabet, (rel,))


def free_presentation(k: int) -> Presentation:
    """Free group of rank k; single letters up to rank 26, x1..xk beyond."""
    if k < 1:
        raise InputError("free rank must be positive, got %d" % k)
    if k <= 26:
        names = tuple(string.ascii_lowercase[:k])
    else:
        names = tuple("x%d" % i for i in range(1, k + 1))
    return Presentation(Alphabet(names), ())


# --- planar pure braid groups ----------------------------------------------
#
# Strands are 0-indexed internally.  The generator for strands r < s is the
# braid word sigma_{s-1} ... sigma_{r+1} sigma_r^2 sigma_{r+1}^-1 ...
# sigma_{s-1}^-1, and the public generator name for the pair is A{r+1}_{s+1}.
#
# An endomorphism of the free group F_m is a tuple of m Words, the images
# of the generators.  The braid group acts through the usual rule on a
# punctured disk fundamental group: a letter braiding punctures k, k+1
# moves only the images of x_k and x_{k+1}, so a braid word is applied by
# updating those two words letter by letter.  The calculus is exact and
# convention-stable, and the action is faithful, so "this word acts
# trivially on F_n" decides triviality in the braid group.

Endo = tuple[Word, ...]


def _identity_endo(m: int) -> Endo:
    return tuple(generator_word(i) for i in range(m))


def _braid_endo(letters: Sequence[tuple[int, int]], m: int) -> Endo:
    """The endomorphism x -> b_1(b_2(...(x))) of F_m for the braid word
    b_1 b_2 ..., each letter (k, sign) braiding punctures k, k+1."""
    images = list(_identity_endo(m))
    for k, sign in letters:
        a, b = images[k], images[k + 1]
        if sign == 1:
            images[k], images[k + 1] = a * b * a.inverse(), a
        else:
            images[k], images[k + 1] = b, b.inverse() * a * b
    return tuple(images)


def _pure_gen_letters(r: int, s: int) -> list[tuple[int, int]]:
    """Braid word for the generator braiding strands r < s (0-indexed)."""
    pre = [(k, 1) for k in range(s - 1, r, -1)]
    post = [(k, -1) for k in range(r + 1, s)]
    return pre + [(r, 1), (r, 1)] + post


def _invert_letters(letters: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(k, -sign) for k, sign in reversed(letters)]


def _mirror_letters(letters: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Flip every crossing, keeping the order."""
    return [(k, -sign) for k, sign in letters]


def _pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _acts_trivially(word: Word, pairs: Sequence[tuple[int, int]], n: int) -> bool:
    """Decide triviality of a word in the pair generators inside Aut(F_n)."""
    letters: list[tuple[int, int]] = []
    for g, sign in word.letters:
        bw = _pure_gen_letters(*pairs[g])
        letters.extend(bw if sign == 1 else _invert_letters(bw))
    return _braid_endo(letters, n) == _identity_endo(n)


@lru_cache(maxsize=None)
def artin_pure_relators(n: int) -> tuple[Word, ...]:
    """Relators for the planar pure braid group on n strands.

    The alphabet is the pair generators ordered lexicographically.  The
    group is an iterated extension: adding strand j gives a free fiber on
    the pairs (i, j), i < j, acted on by the subgroup on the first j
    strands.  For each lower generator q and fiber generator f we compute
    the conjugate q f q^-1 as a word in fiber letters by applying the
    braid automorphisms of the fiber free group, which produces one
    relator per pair.  In this composition convention conjugation by the
    pair generator acts on the fiber as the mirrored braid word (every
    crossing flipped, order kept).  Every emitted relator is checked to
    act trivially on F_n; the faithfulness of that action makes the
    check a proof, whatever the convention.
    """
    if n < 1:
        raise InputError("strand count must be positive, got %d" % n)
    pairs = _pair_list(n)
    index = {p: k for k, p in enumerate(pairs)}
    rels: list[Word] = []
    for j in range(2, n):
        # fiber letters x_i <-> pair (i, j), free group of rank j
        for r in range(j):
            for s in range(r + 1, j):
                act = _braid_endo(_mirror_letters(_pure_gen_letters(r, s)), j)
                for i in range(j):
                    rel = _conjugation_relator(r, s, j, i, act, index)
                    if not _acts_trivially(rel, pairs, n):
                        raise AssertionError(
                            "derived relator failed the Aut(F_n) check at "
                            "level %d, pair (%d, %d), fiber %d" % (j, r, s, i)
                        )
                    rels.append(rel)
    return tuple(rels)


def _conjugation_relator(r, s, j, i, act: Endo, index) -> Word:
    """q f q^-1 (image)^-1 with f the i-th fiber letter."""
    image = act[i]
    translated = Word(tuple((index[(g, j)], sign) for g, sign in image.letters))
    q = generator_word(index[(r, s)])
    f = generator_word(index[(i, j)])
    return q * f * q.inverse() * translated.inverse()


def artin_pure_presentation(n: int) -> Presentation:
    """Planar pure braid group on n strands, generators A{i}_{j}."""
    if n < 1:
        raise InputError("strand count must be positive, got %d" % n)
    names = tuple("A%d_%d" % (i + 1, j + 1) for i, j in _pair_list(n))
    return Presentation(Alphabet(names), artin_pure_relators(n))


def product_presentation(*factors: Presentation) -> Presentation:
    """Direct product: disjoint union of alphabets plus cross commutators.

    Factor generators are renamed with a _k suffix (k the 1-based factor
    position) to keep names distinct.  The factor layout is recorded on
    the result so characters can be split back into components.
    """
    if len(factors) < 2:
        raise InputError("product needs at least two factors")
    names: list[str] = []
    offsets: list[int] = []
    for k, p in enumerate(factors, start=1):
        offsets.append(len(names))
        names.extend("%s_%d" % (name, k) for name in p.alphabet.names)
    alphabet = Alphabet(names)

    def shift(w: Word, off: int) -> Word:
        return Word(tuple((g + off, s) for g, s in w.letters))

    relators: list[Word] = []
    for off, p in zip(offsets, factors):
        relators.extend(shift(r, off) for r in p.relators)
    # a b a^-1 b^-1 for generators a != b is already reduced
    for ka in range(len(factors)):
        for kb in range(ka + 1, len(factors)):
            for a in range(offsets[ka], offsets[ka] + len(factors[ka].alphabet)):
                for b in range(offsets[kb], offsets[kb] + len(factors[kb].alphabet)):
                    relators.append(Word(((a, 1), (b, 1), (a, -1), (b, -1))))
    return Presentation(alphabet, relators, product_factors=tuple(zip(offsets, factors)))


# Catalog ids arrive from the command line, so their sizes are bounded
# before anything is built: the artin_pure:n derivation grows steeply with
# n (about a second at n=12, four at n=15), free:k takes memory linear in k,
# surface:g gives every command 2g generators to work on (its relator is
# built in linear time; `tangent --genus 2000` takes about 0.5 s), and a
# product has one cross commutator per pair of generators from different
# factors.  Products are built by recursion, so their nesting is bounded
# too: surface:0 factors have no generators, and a product of them never
# reaches the size bound however deep it is nested.
_CATALOG_MAX_STRANDS = 12
_CATALOG_MAX_FREE_RANK = 10**5
_CATALOG_MAX_GENUS = 2000
_CATALOG_MAX_PRODUCT_SIZE = 2 * 10**6
_CATALOG_MAX_NESTING = 16


@lru_cache(maxsize=16)
def catalog(spec: str) -> Presentation:
    """Build a catalog presentation from a string id.

    Grammar: ``surface:g`` | ``free:k`` | ``artin_pure:n`` |
    ``product(id,id,...)`` with ids nested recursively.  ``artin_pure:n``
    with n > 12, ``free:k`` with k > 10^5, ``surface:g`` with g > 2000,
    products whose generator count times relator count exceeds 2 * 10^6
    and products nested more than 16 deep raise
    :class:`OutOfRangeError`; the builders themselves take any size.
    Presentations never change, so one memo keeps the last 16 ids as
    spelled, factors of products included; an id that raises keeps none.
    """
    spec = spec.strip()
    if spec.startswith("product(") and spec.endswith(")"):
        inner = spec[len("product(") : -1]
        parts: list[str] = []
        depth = deepest = 0
        current = []
        for ch in inner:
            if ch == "(":
                depth += 1
                deepest = max(deepest, depth)
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(current))
                current = []
            else:
                current.append(ch)
        parts.append("".join(current))
        if any(not p.strip() for p in parts):
            raise InputError("empty factor in product id %r" % spec)
        if deepest >= _CATALOG_MAX_NESTING:
            raise OutOfRangeError(
                "a product id nested %d deep: the catalog is limited to "
                "products nested %d deep" % (deepest + 1, _CATALOG_MAX_NESTING)
            )
        factors = [catalog(p) for p in parts]
        gens = [p.num_generators for p in factors]
        relators = sum(p.num_relators for p in factors) + sum(
            a * b for k, a in enumerate(gens) for b in gens[k + 1 :]
        )
        if sum(gens) * relators > _CATALOG_MAX_PRODUCT_SIZE:
            raise OutOfRangeError(
                "%s has %d generators and %d relators: the catalog is limited "
                "to products of at most %d generators x relators"
                % (spec, sum(gens), relators, _CATALOG_MAX_PRODUCT_SIZE)
            )
        return product_presentation(*factors)
    kind, sep, param = spec.partition(":")
    if not sep:
        raise InputError("catalog id %r needs a :parameter" % spec)
    try:
        value = int(param)
    except ValueError:
        raise InputError("catalog parameter %r is not an integer" % param) from None
    if kind == "surface":
        if value > _CATALOG_MAX_GENUS:
            raise OutOfRangeError(
                "surface:%d: the catalog is limited to genus %d"
                % (value, _CATALOG_MAX_GENUS)
            )
        return surface_presentation(value)
    if kind == "free":
        if value > _CATALOG_MAX_FREE_RANK:
            raise OutOfRangeError(
                "free:%d: the catalog is limited to rank %d"
                % (value, _CATALOG_MAX_FREE_RANK)
            )
        return free_presentation(value)
    if kind == "artin_pure":
        if value > _CATALOG_MAX_STRANDS:
            raise OutOfRangeError(
                "artin_pure:%d: the catalog is limited to %d strands"
                % (value, _CATALOG_MAX_STRANDS)
            )
        return artin_pure_presentation(value)
    raise InputError("unknown catalog kind %r" % kind)


# ---------------------------------------------------------------------------
# file format

_GENS_PREFIX = "gens:"
_REL_PREFIX = "rel:"
_SOURCE_PREFIX = "source:"


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    A ``gens:`` line must precede any ``rel:`` line; ``#`` starts a
    comment; ``source:`` lines carry provenance.  All errors report the
    offending line number.
    """
    alphabet: Alphabet | None = None
    relators: list[Word] = []
    sources: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(_GENS_PREFIX):
            if alphabet is not None:
                raise PresentationParseError("duplicate gens line", lineno)
            names = line[len(_GENS_PREFIX) :].split()
            if not names:
                raise PresentationParseError("empty generator list", lineno)
            try:
                alphabet = Alphabet(names)
            except ValueError as exc:
                raise PresentationParseError(str(exc), lineno) from None
        elif line.startswith(_REL_PREFIX):
            if alphabet is None:
                raise PresentationParseError(
                    "rel line before the gens line", lineno
                )
            word = alphabet.parse_word(line[len(_REL_PREFIX) :], line=lineno)
            if word.is_identity:
                raise PresentationParseError(
                    "relator reduces to the identity", lineno
                )
            relators.append(word)
        elif line.startswith(_SOURCE_PREFIX):
            sources.append(line[len(_SOURCE_PREFIX) :].strip())
        else:
            raise PresentationParseError("unrecognized line %r" % line, lineno)
    if alphabet is None:
        raise PresentationParseError("missing gens line", None)
    return Presentation(alphabet, relators, source="; ".join(sources) or None)


def serialize_presentation(p: Presentation) -> str:
    lines = [_GENS_PREFIX + (" " + " ".join(p.alphabet.names) if p.alphabet.names else "")]
    if p.source:
        lines.append("%s %s" % (_SOURCE_PREFIX, p.source))
    for r in p.relators:
        lines.append("%s %s" % (_REL_PREFIX, p.alphabet.format_word(r)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# characters


class Character:
    """One dimensional representation with values zeta_N^e.

    Every value is a root of unity of order dividing N, stored as an
    exponent per generator, so relators and Fox derivatives are checked
    and evaluated on integers.
    """

    __slots__ = ("alphabet", "order", "exponents", "_hash")

    def __init__(
        self,
        alphabet: Alphabet,
        order: int,
        values: Mapping[str, int] | Sequence[int] | None = None,
    ):
        # ints only: a bool is not one, though Python counts it as an int
        if type(order) is not int:
            raise InputError("cyclotomic order must be an integer, got %r" % (order,))
        if order < 1:
            raise InputError("cyclotomic order must be positive, got %r" % order)
        k = len(alphabet)
        if values is None:
            exps = [0] * k
        elif isinstance(values, Mapping):
            exps = [0] * k
            for name, e in values.items():
                if type(e) is not int:
                    raise InputError("character values.%s must be an integer, got %r" % (name, e))
                exps[alphabet.index_of(name)] = e
        else:
            exps = list(values)
            if len(exps) != k:
                raise InputError("expected %d exponents, got %d" % (k, len(exps)))
            for j, e in enumerate(exps):
                if type(e) is not int:
                    raise InputError("character exponent %d must be an integer, got %r" % (j, e))
        self.alphabet = alphabet
        self.order = order
        self.exponents = tuple(e % order for e in exps)

    # -- structure

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def word_exponent(self, w: Word) -> int:
        """The exponent e, reduced mod N, with chi(w) = zeta_N^e."""
        exps = self.exponents
        return sum(s * exps[g] for g, s in w.letters) % self.order

    # -- algebra

    def rescale(self, order: int) -> "Character":
        """The same character presented in the cyclotomy of ``order``;
        the character itself when the order is already ``order``, since
        a character never changes after construction."""
        if order == self.order:
            return self
        if order % self.order:
            raise InputError(
                "cannot rescale order %d to non-multiple %d" % (self.order, order)
            )
        f = order // self.order
        return Character(self.alphabet, order, [e * f for e in self.exponents])

    def inverse(self) -> "Character":
        return Character(self.alphabet, self.order, [-e for e in self.exponents])

    def __mul__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise InputError("characters live on different alphabets")
        n = lcm(self.order, other.order)
        a, b = self.rescale(n), other.rescale(n)
        return Character(
            self.alphabet,
            n,
            [x + y for x, y in zip(a.exponents, b.exponents)],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.alphabet == other.alphabet
            and self.order == other.order
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        # a character never changes after construction, so its hash is
        # taken once, on first use
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.alphabet, self.order, self.exponents))
            return self._hash

    def __repr__(self) -> str:
        vals = ", ".join(
            "%s:%d" % (n, e) for n, e in zip(self.alphabet.names, self.exponents)
        )
        return "Character(N=%d, %s)" % (self.order, vals)

    # -- serialization, format {"N":, "values": {...}}

    def to_json(self) -> dict:
        return {
            "N": self.order,
            "values": {
                name: e for name, e in zip(self.alphabet.names, self.exponents)
            },
        }

    @classmethod
    def from_json(cls, alphabet: Alphabet, data: Mapping) -> "Character":
        if not isinstance(data, Mapping):
            raise InputError("character JSON must be an object")
        if "N" not in data:
            raise InputError("character JSON needs an N field")
        order = data["N"]
        if type(order) is not int:  # and so not a bool
            raise InputError("character N must be an integer, got %r" % (order,))
        if "radial" in data:
            raise InputError(
                "character field 'radial' is not supported: character values "
                "are roots of unity zeta_N^e"
            )
        values = data.get("values", {})
        if not isinstance(values, Mapping):
            raise InputError("character values must be an object")
        return cls(alphabet, order, values)


@dataclass(frozen=True)
class CharacterCheck:
    """Result of validating a character or representation on a presentation."""

    ok: bool
    failing_relator: Word | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_character(p: Presentation, chi: Character) -> CharacterCheck:
    """Check that every relator evaluates to 1 under the character, that
    is, that its exponent sum vanishes mod N."""
    if chi.alphabet != p.alphabet:
        raise InputError("character alphabet does not match the presentation")
    for r in p.relators:
        if chi.word_exponent(r):
            return CharacterCheck(False, r)
    return CharacterCheck(True)


class CharacterTuple:
    """A tuple of characters of one factor group, rescaled to a common order.

    Used for character data on n-fold products: component i is the
    character of the i-th factor.  Pairwise product triviality is the
    membership condition the jump locus formulas consume.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Character]):
        components = tuple(components)
        if not components:
            raise InputError("character tuple needs at least one component")
        alphabet = components[0].alphabet
        if any(c.alphabet != alphabet for c in components):
            raise InputError("tuple components live on different alphabets")
        n = 1
        for c in components:
            n = lcm(n, c.order)
        self.components = tuple(c.rescale(n) for c in components)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        return self.components[0].order

    @property
    def factor_alphabet(self) -> Alphabet:
        return self.components[0].alphabet

    @property
    def is_trivial(self) -> bool:
        return all(c.is_trivial for c in self.components)

    def component(self, i: int) -> Character:
        return self.components[i]

    def component_trivial(self, i: int) -> bool:
        return self.components[i].is_trivial

    def pair_product_trivial(self, i: int, j: int) -> bool:
        # the components share one order, so the product is trivial
        # exactly when every pair of exponents sums to 0 mod that order
        n = self.order
        return not any(
            (a + b) % n
            for a, b in zip(self.components[i].exponents, self.components[j].exponents)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharacterTuple)
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "CharacterTuple(%d components, N=%d)" % (
            len(self.components),
            self.order,
        )

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, alphabet: Alphabet, data: Mapping) -> "CharacterTuple":
        if not isinstance(data, Mapping) or "components" not in data:
            raise InputError("character tuple JSON needs a components list")
        items = data["components"]
        if not isinstance(items, Sequence) or isinstance(items, (str, bytes)):
            raise InputError("character tuple components must be a list")
        return cls(Character.from_json(alphabet, item) for item in items)


def product_character(product: Presentation, *components: Character) -> Character:
    """Splice one character per factor into a character of the product.

    Unlike CharacterTuple this allows the factors to have different
    alphabets; each component must live exactly on its factor's
    alphabet.  Orders are rescaled to their lcm.
    """
    if product.product_factors is None:
        raise InputError("presentation carries no product structure")
    factors = product.product_factors
    if len(components) != len(factors):
        raise InputError(
            "got %d characters for a product with %d factors"
            % (len(components), len(factors))
        )
    order = 1
    for (off, fac), c in zip(factors, components):
        if c.alphabet != fac.alphabet:
            raise AlphabetMismatchError(
                "character alphabet does not match factor at offset %d" % off
            )
        order = lcm(order, c.order)
    exps: list[int] = []
    for c in components:
        exps.extend(c.rescale(order).exponents)
    return Character(product.alphabet, order, exps)


# ---------------------------------------------------------------------------
# matrix representations


class MatrixRep:
    """A representation by invertible rational matrices.

    ``flavor`` is "SL" (unit determinant enforced per generator) or "GL"
    (any nonzero determinant).  The columns of the image of every
    generator and of its inverse are built once, on construction, as the
    plain lists :func:`exactlin._times` reads: ``columns`` hands them to
    the Fox scan and H^0, and ``word_value``, ``image`` and
    ``inverse_image`` are read off them.  ``inverses``, when the caller
    already holds them, lists the inverse images in generator order;
    each is checked by one product against the identity.  Otherwise each
    image is inverted here.
    """

    __slots__ = ("alphabet", "flavor", "dim", "_images", "_inverses")

    def __init__(
        self,
        alphabet: Alphabet,
        images: Mapping[str, QMat] | Sequence[QMat],
        flavor: str = "SL",
        inverses: Sequence[QMat] | None = None,
    ):
        if flavor not in ("SL", "GL"):
            raise InputError("flavor must be SL or GL, got %r" % flavor)
        k = len(alphabet)
        if isinstance(images, Mapping):
            if set(images) != set(alphabet.names):
                raise InputError("images must cover exactly the generators")
            mats = [images[name] for name in alphabet.names]
        else:
            mats = list(images)
            if len(mats) != k:
                raise InputError("expected %d images, got %d" % (k, len(mats)))
        if not mats:
            raise InputError("matrix representation needs at least one generator")
        d = mats[0].n
        for m in mats:
            if not isinstance(m, QMat):
                raise InputError("images must be QMat instances")
            if m.n != d:
                raise InputError("image sizes disagree")
            det = m.determinant()
            if det == 0:
                raise InputError("image matrix is singular")
            if flavor == "SL" and det != 1:
                raise InputError("SL flavor requires determinant 1, got %s" % det)
        if inverses is None:
            inverses = [m.inverse() for m in mats]
        else:
            inverses = list(inverses)
            if len(inverses) != k:
                raise InputError("expected %d inverse images, got %d" % (k, len(inverses)))
            one = QMat.identity(d)
            for i, (m, minv) in enumerate(zip(mats, inverses)):
                if not isinstance(minv, QMat) or minv.n != d or m * minv != one:
                    raise InputError(
                        "inverse image of %s is not its inverse" % alphabet.names[i]
                    )
        self.alphabet = alphabet
        self.flavor = flavor
        self.dim = d
        self._images = [list(zip(*m.rows)) for m in mats]
        self._inverses = [list(zip(*m.rows)) for m in inverses]

    def image(self, gen: int | str) -> QMat:
        i = gen if isinstance(gen, int) else self.alphabet.index_of(gen)
        return QMat.from_exact(zip(*self._images[i]))

    def inverse_image(self, gen: int | str) -> QMat:
        """The image of the inverse generator."""
        i = gen if isinstance(gen, int) else self.alphabet.index_of(gen)
        return QMat.from_exact(zip(*self._inverses[i]))

    def columns(self, gen: int, sign: int) -> list:
        """The columns of the image of the generator (``sign`` 1) or of
        its inverse (``sign`` -1), ready for :func:`exactlin._times`."""
        return self._images[gen] if sign == 1 else self._inverses[gen]

    def word_value(self, w: Word) -> QMat:
        out = QMat.identity(self.dim).rows
        for g, s in w.letters:
            out = _times(out, self.columns(g, s))
        return QMat.from_exact(out)

    def adjoint_rep(self) -> "MatrixRep":
        """The conjugation action on trace zero matrices, a (d^2 - 1)
        dimensional SL representation whose cohomology computes tangent
        spaces of character varieties at this point.

        The columns of Ad of each generator and of its inverse are read
        off the columns held here (see :func:`_adjoint_columns`), with no
        matrix built and no word evaluated.  The constructor's checks
        hold by construction and are not run: Ad(a) and Ad(a^-1) are
        inverse, and Ad(a) has determinant 1.
        """
        ad = MatrixRep.__new__(MatrixRep)
        ad.alphabet = self.alphabet
        ad.flavor = "SL"
        ad.dim = self.dim * self.dim - 1
        pairs = list(zip(self._images, self._inverses))
        ad._images = [_adjoint_columns(a, ainv) for a, ainv in pairs]
        ad._inverses = [_adjoint_columns(ainv, a) for a, ainv in pairs]
        return ad

    def __repr__(self) -> str:
        return "MatrixRep(%s_%d on %d generators)" % (
            self.flavor,
            self.dim,
            len(self._images),
        )


def _adjoint_columns(a: list, ainv: list) -> list[list]:
    """The columns of Ad(a) on trace zero d x d matrices, in closed form,
    from the columns of a and of ``ainv``.

    The basis is H_1 .. H_(d-1), H_i = E_ii - E_(i+1)(i+1), then E_ij
    for i != j in row-major order; the coordinates of a trace zero
    matrix are the partial sums of its diagonal, then its off-diagonal
    entries in that order.  The (k, l) entry of a E_ij a^-1 is
    a_ki (a^-1)_jl, so each column is read off column i of a and row j
    of ``ainv`` with no d x d product.  A column whose trace does not
    vanish means ``ainv`` is not the inverse of ``a``.
    """
    d = len(a)
    B = list(zip(*ainv))
    off = [(k, l) for k in range(d) for l in range(d) if k != l]

    def conjugate(i: int, j: int) -> tuple[list, int | Fraction]:
        # coordinates of a E_ij a^-1 and its trace
        Ai, Bj = a[i], B[j]
        coords = []
        acc = 0
        for t in range(d - 1):
            acc += Ai[t] * Bj[t]
            coords.append(acc)
        coords.extend(Ai[k] * Bj[l] for k, l in off)
        return coords, acc + Ai[d - 1] * Bj[d - 1]

    diagonal = [conjugate(i, i) for i in range(d)]
    cols = []
    for (c1, t1), (c2, t2) in zip(diagonal, diagonal[1:]):
        if t1 != t2:
            raise ValueError("matrix has nonzero trace")
        cols.append([x - y for x, y in zip(c1, c2)])
    for i, j in off:
        col, trace = conjugate(i, j)
        if trace:
            raise ValueError("matrix has nonzero trace")
        cols.append(col)
    return cols


def validate_matrix_rep(p: Presentation, rep: MatrixRep) -> CharacterCheck:
    """Check that every relator maps to the identity matrix."""
    if rep.alphabet != p.alphabet:
        raise InputError("representation alphabet does not match the presentation")
    for r in p.relators:
        if not rep.word_value(r).is_identity():
            return CharacterCheck(False, r)
    return CharacterCheck(True)


# ---------------------------------------------------------------------------
# space descriptors

_SURFACE_KINDS = ("sphere", "plane", "disk", "c-star", "genus", "hyperbolic")


@dataclass(frozen=True)
class SpaceSpec:
    """A description of the space whose braid groups are under study.

    Surface kinds: sphere, plane, disk, c-star, genus (closed orientable,
    ``genus`` >= 1), hyperbolic (noncompact with free nonabelian or small
    fundamental group, ``free_rank`` the rank).  The higher-dim kind
    carries the real dimension and a coarse description of the base
    fundamental group for wreath product reporting.
    """

    kind: str
    genus: int | None = None
    free_rank: int | None = None
    real_dim: int | None = None
    base_kind: str = "trivial"
    base_b1: int = 0
    base_torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _SURFACE_KINDS + ("higher-dim",):
            raise InputError("unknown space kind %r" % self.kind)
        if self.kind == "genus":
            if self.genus is None or self.genus < 1:
                raise InputError("genus kind needs genus >= 1")
        if self.kind == "hyperbolic":
            if self.free_rank is None or self.free_rank < 0:
                raise InputError("hyperbolic kind needs a free rank >= 0")
        if self.kind == "higher-dim":
            if self.real_dim is None or self.real_dim < 3:
                raise InputError("higher-dim kind needs real dimension >= 3")
            if self.base_kind not in ("trivial", "finite", "projective", "other"):
                raise InputError("unknown base kind %r" % self.base_kind)

    @classmethod
    def parse(cls, text: str) -> "SpaceSpec":
        text = text.strip()
        parts = text.split(":")
        kind = parts[0]
        if kind == "noncompact-hyperbolic":
            kind = "hyperbolic"
        if kind == "compact-genus":
            kind = "genus"
        if kind in ("sphere", "plane", "disk", "c-star"):
            if len(parts) > 1:
                raise InputError("space kind %r takes no parameter" % kind)
            return cls(kind)
        if kind == "genus":
            if len(parts) != 2:
                raise InputError("genus space needs one parameter, e.g. genus:2")
            return cls("genus", genus=_parse_int(parts[1]))
        if kind == "hyperbolic":
            if len(parts) != 2:
                raise InputError(
                    "hyperbolic space needs one parameter, e.g. hyperbolic:2"
                )
            return cls("hyperbolic", free_rank=_parse_int(parts[1]))
        if kind == "higher-dim":
            if len(parts) < 2 or len(parts) > 4:
                raise InputError(
                    "higher-dim space is higher-dim:<real-dim>[:<base>[:<b1>]]"
                )
            real_dim = _parse_int(parts[1])
            base_kind = parts[2] if len(parts) > 2 else "trivial"
            base_b1 = _parse_int(parts[3]) if len(parts) > 3 else 0
            return cls(
                "higher-dim",
                real_dim=real_dim,
                base_kind=base_kind,
                base_b1=base_b1,
            )
        raise InputError("unknown space kind %r" % kind)

    @property
    def complex_dim(self) -> int | None:
        if self.real_dim is not None and self.real_dim % 2 == 0:
            return self.real_dim // 2
        return None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError("expected an integer, got %r" % text) from None
