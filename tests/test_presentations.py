"""Tests for the presentation catalog, derived braid relators, the file
format, and the representation objects."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhom import presentations
from braidhom.cohomology import random_surface_sl2, seeded_rng, tangent_dim_at
from braidhom.errors import (
    AlphabetMismatchError,
    InputError,
    OutOfRangeError,
    PreconditionError,
    PresentationParseError,
)
from braidhom.exactlin import IntMatrix, cokernel_profile
from braidhom.presentations import (
    Character,
    CharacterTuple,
    MatrixRep,
    Presentation,
    SpaceSpec,
    _acts_trivially,
    _pair_list,
    artin_pure_presentation,
    artin_pure_relators,
    catalog,
    free_presentation,
    parse_presentation,
    product_character,
    product_presentation,
    serialize_presentation,
    surface_presentation,
    validate_character,
    validate_matrix_rep,
)
from braidhom.verify import (
    _adjoint_by_conjugation,
    _random_unimodular,
    _traceless_basis,
    _traceless_coords,
)
from braidhom.words import Word, free_reduce, generator_word
from wordtools import commutator, exponent_sum


def abelianization_oracle(p: Presentation):
    """First homology via the relator exponent matrix, independent of any
    cohomology machinery: generators index rows, relators index columns."""
    k = p.num_generators
    rows = [[exponent_sum(r, i) for r in p.relators] for i in range(k)]
    return cokernel_profile(IntMatrix(rows, ncols=p.num_relators))


class TestCatalogSurfaces:
    def test_surface_one_exact(self):
        p = surface_presentation(1)
        assert p.alphabet.names == ("a", "b")
        assert len(p.relators) == 1
        assert p.alphabet.format_word(p.relators[0]) == "a b a^-1 b^-1"

    def test_surface_two_shape(self):
        p = surface_presentation(2)
        assert p.alphabet.names == ("a1", "b1", "a2", "b2")
        assert len(p.relators) == 1
        assert len(p.relators[0]) == 8

    def test_surface_relator_is_the_commutator_product(self):
        # the relator is written down letter by letter; multiplying the
        # handle commutators as words gives the same reduced word
        for g in range(1, 41):
            product = Word()
            for i in range(g):
                product = product * commutator(generator_word(2 * i), generator_word(2 * i + 1))
            assert surface_presentation(g).relators == (product,)

    def test_surface_zero_is_trivial(self):
        p = surface_presentation(0)
        assert p.num_generators == 0
        assert p.num_relators == 0

    def test_surface_negative_rejected(self):
        with pytest.raises(InputError):
            surface_presentation(-1)

    @pytest.mark.parametrize("g", range(1, 7))
    def test_surface_abelianization_free_rank_2g(self, g):
        profile = abelianization_oracle(surface_presentation(g))
        assert profile.rank == 2 * g
        assert profile.torsion == ()

    def test_free_groups(self):
        p = free_presentation(2)
        assert p.alphabet.names == ("a", "b")
        assert p.relators == ()
        with pytest.raises(InputError):
            free_presentation(0)

    def test_free_large_rank_names_distinct(self):
        p = free_presentation(30)
        assert len(set(p.alphabet.names)) == 30


class TestCatalogProducts:
    def test_product_of_two_tori(self):
        p = product_presentation(surface_presentation(1), surface_presentation(1))
        assert p.alphabet.names == ("a_1", "b_1", "a_2", "b_2")
        # one surface relator per factor plus four cross commutators
        assert p.num_relators == 6
        assert len(p.product_factors) == 2

    def test_cross_commutators_match_the_word_product(self):
        # built directly as (a, b, a^-1, b^-1), in factor-pair order
        factors = (surface_presentation(1), free_presentation(2), artin_pure_presentation(3))
        p = product_presentation(*factors)
        sizes = [len(f.alphabet) for f in factors]
        offsets = [0, sizes[0], sizes[0] + sizes[1]]
        cross = [
            commutator(generator_word(offsets[ka] + i), generator_word(offsets[kb] + j))
            for ka, kb in ((0, 1), (0, 2), (1, 2))
            for i in range(sizes[ka])
            for j in range(sizes[kb])
        ]
        own = sum(len(f.relators) for f in factors)
        assert p.relators[own:] == tuple(cross)

    def test_product_needs_two_factors(self):
        with pytest.raises(InputError):
            product_presentation(surface_presentation(1))

    def test_product_abelianization_adds(self):
        a = surface_presentation(2)
        b = free_presentation(3)
        pa, pb = abelianization_oracle(a), abelianization_oracle(b)
        pp = abelianization_oracle(product_presentation(a, b))
        assert pp.rank == pa.rank + pb.rank
        assert pp.torsion == pa.torsion + pb.torsion

    def test_catalog_string_ids(self):
        assert catalog("surface:2") == surface_presentation(2)
        assert catalog("free:3") == free_presentation(3)
        assert catalog("artin_pure:3") == artin_pure_presentation(3)
        p = catalog("product(surface:1,free:2)")
        assert p.num_generators == 4

    def test_catalog_nested_product(self):
        p = catalog("product(product(free:1,free:1),free:1)")
        assert p.num_generators == 3
        assert abelianization_oracle(p).rank == 3

    @pytest.mark.parametrize(
        "bad",
        ["surface", "surface:x", "banana:2", "product(free:1)", "product(,free:1)"],
    )
    def test_catalog_bad_ids(self, bad):
        with pytest.raises(InputError):
            catalog(bad)

    @pytest.mark.parametrize(
        "spec, builder, inside",
        [
            ("artin_pure:12", "artin_pure_presentation", True),
            ("artin_pure:13", "artin_pure_presentation", False),
            ("free:100000", "free_presentation", True),
            ("free:100001", "free_presentation", False),
            ("surface:2000", "surface_presentation", True),
            ("surface:2001", "surface_presentation", False),
        ],
    )
    def test_catalog_size_bounds(self, monkeypatch, spec, builder, inside):
        # the builder is a stub (deriving artin_pure:12 takes seconds), so
        # an id past the bound must be refused before the builder runs
        calls = []
        monkeypatch.setattr(
            presentations, builder, lambda n: calls.append(n) or "built"
        )
        size = int(spec.split(":")[1])
        if inside:
            assert catalog(spec) == "built"
            assert calls == [size]
        else:
            with pytest.raises(OutOfRangeError, match="limited to .*%d" % (size - 1)):
                catalog(spec)
            assert calls == []

    @pytest.mark.parametrize(
        "spec, inside",
        [
            # 200 generators x 10^4 cross commutators = 2 * 10^6
            ("product(free:100,free:100)", True),
            ("product(free:100,free:101)", False),
            # 1414 x 1413 and 1415 x 1414
            ("product(free:1,free:1413)", True),
            ("product(free:1,free:1414)", False),
            # 4004 generators x (2 + 4000 * 4) relators; 12 x (3 + 48)
            ("product(surface:2000,surface:2)", False),
            ("product(surface:2,surface:2,surface:2)", True),
        ],
    )
    def test_catalog_product_bound(self, monkeypatch, spec, inside):
        # the product builder is a stub, so no cross commutator is built
        calls = []
        monkeypatch.setattr(
            presentations,
            "product_presentation",
            lambda *factors: calls.append(len(factors)) or "built",
        )
        if inside:
            assert catalog(spec) == "built"
            assert len(calls) == 1
        else:
            with pytest.raises(OutOfRangeError, match="limited to .*2000000"):
                catalog(spec)
            assert calls == []


# Frozen snapshot of the derived relator tables.  Regenerate with
# scripts/derive_pure_braid_relations.py if the derivation convention is
# deliberately changed; any unintentional drift should fail here.
PURE_BRAID_3 = """\
gens: A1_2 A1_3 A2_3
rel: A1_2 A1_3 A1_2^-1 A2_3^-1 A1_3^-1 A2_3
rel: A1_2 A2_3 A1_2^-1 A2_3^-1 A1_3^-1 A2_3^-1 A1_3 A2_3
"""

PURE_BRAID_4 = """\
gens: A1_2 A1_3 A1_4 A2_3 A2_4 A3_4
rel: A1_2 A1_3 A1_2^-1 A2_3^-1 A1_3^-1 A2_3
rel: A1_2 A2_3 A1_2^-1 A2_3^-1 A1_3^-1 A2_3^-1 A1_3 A2_3
rel: A1_2 A1_4 A1_2^-1 A2_4^-1 A1_4^-1 A2_4
rel: A1_2 A2_4 A1_2^-1 A2_4^-1 A1_4^-1 A2_4^-1 A1_4 A2_4
rel: A1_2 A3_4 A1_2^-1 A3_4^-1
rel: A1_3 A1_4 A1_3^-1 A3_4^-1 A1_4^-1 A3_4
rel: A1_3 A2_4 A1_3^-1 A3_4^-1 A1_4^-1 A3_4 A1_4 A2_4^-1 A1_4^-1 A3_4^-1 A1_4 A3_4
rel: A1_3 A3_4 A1_3^-1 A3_4^-1 A1_4^-1 A3_4^-1 A1_4 A3_4
rel: A2_3 A1_4 A2_3^-1 A1_4^-1
rel: A2_3 A2_4 A2_3^-1 A3_4^-1 A2_4^-1 A3_4
rel: A2_3 A3_4 A2_3^-1 A3_4^-1 A2_4^-1 A3_4^-1 A2_4 A3_4
"""

PURE_BRAID_5_SHA = "4b5aec7523a84810907632da93ec665fa8458d2cb558698fab34fb47933b08f1"
PURE_BRAID_SHA = {
    5: PURE_BRAID_5_SHA,
    6: "333d601985a1c0e34586825750a9ea7219953481f6c2af559d08881e18330d63",
    7: "0b74dbbbf70dfdf70dadebf1436dea67572c31dbce50df389e1fc91bde50fe42",
    8: "35496abf297571683f9e189ae8a29b22831ac865753718517a27d2e8e821d9b2",
    9: "4fc0f12439460ad4d12c0d24387fcbaa4987157aa6c79ecaa973f703d9ce2db2",
    10: "215b143eb4db0c88c2ee7233976477d2f962f1ca5b8decdc6fb37b401bf232e7",
}


class TestArtinPureBraid:
    @pytest.mark.parametrize(
        "n,gens,rels", [(1, 0, 0), (2, 1, 0), (3, 3, 2), (4, 6, 11), (5, 10, 35)]
    )
    def test_shape(self, n, gens, rels):
        p = artin_pure_presentation(n)
        assert p.num_generators == gens
        assert p.num_relators == rels

    def test_frozen_table_three(self):
        assert serialize_presentation(artin_pure_presentation(3)) == PURE_BRAID_3

    def test_frozen_table_four(self):
        assert serialize_presentation(artin_pure_presentation(4)) == PURE_BRAID_4

    def test_frozen_table_five_hash(self):
        text = serialize_presentation(artin_pure_presentation(5))
        assert hashlib.sha256(text.encode()).hexdigest() == PURE_BRAID_5_SHA

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_frozen_table_hash(self, n):
        text = serialize_presentation(artin_pure_presentation(n))
        assert hashlib.sha256(text.encode()).hexdigest() == PURE_BRAID_SHA[n]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_relators_act_trivially(self, n):
        # independent re-run of the faithfulness gate
        pairs = _pair_list(n)
        for rel in artin_pure_relators(n):
            assert _acts_trivially(rel, pairs, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_abelianization_free_of_pair_rank(self, n):
        profile = abelianization_oracle(artin_pure_presentation(n))
        assert profile.rank == n * (n - 1) // 2
        assert profile.torsion == ()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_relators_are_commutator_type(self, n):
        p = artin_pure_presentation(n)
        for rel in p.relators:
            for g in range(p.num_generators):
                assert exponent_sum(rel, g) == 0

    def test_full_twist_is_central_in_p3(self):
        pairs = _pair_list(3)
        # product of all three pair generators, in lexicographic order
        twist = generator_word(0) * generator_word(1) * generator_word(2)
        for g in range(3):
            comm = (
                twist
                * generator_word(g)
                * twist.inverse()
                * generator_word(g, -1)
            )
            assert _acts_trivially(comm, pairs, 3)

    def test_disjoint_and_nested_pairs_commute(self):
        pairs = _pair_list(4)
        index = {p: k for k, p in enumerate(pairs)}

        def comm(p, q):
            u, v = generator_word(index[p]), generator_word(index[q])
            return u * v * u.inverse() * v.inverse()

        assert _acts_trivially(comm((0, 1), (2, 3)), pairs, 4)
        assert _acts_trivially(comm((1, 2), (0, 3)), pairs, 4)
        # interleaved pairs do not commute
        assert not _acts_trivially(comm((0, 2), (1, 3)), pairs, 4)

    def test_bad_strand_count(self):
        with pytest.raises(InputError):
            artin_pure_presentation(0)


class TestFileFormat:
    @pytest.mark.parametrize(
        "spec",
        [
            "surface:1",
            "surface:2",
            "surface:3",
            "free:1",
            "free:3",
            "artin_pure:2",
            "artin_pure:4",
            "product(surface:1,surface:1)",
        ],
    )
    def test_round_trip(self, spec):
        p = catalog(spec)
        assert parse_presentation(serialize_presentation(p)) == p

    def test_serialize_free_two(self):
        assert serialize_presentation(free_presentation(2)) == "gens: a b\n"

    def test_parse_surface_one(self):
        p = parse_presentation("gens: a b\nrel: a b a^-1 b^-1")
        assert p == surface_presentation(1)

    def test_comments_blanks_and_source(self):
        text = "# a comment\n\ngens: a b\nsource: somewhere\n# more\nrel: a b a^-1 b^-1\n"
        p = parse_presentation(text)
        assert p == surface_presentation(1)
        assert p.source == "somewhere"

    def test_unknown_generator_reports_line(self):
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation("gens: a b\nrel: a c")
        assert "c" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_rel_before_gens(self):
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation("rel: a\ngens: a")
        assert "line 1" in str(exc.value)

    def test_empty_generator_list(self):
        with pytest.raises(PresentationParseError):
            parse_presentation("gens:\nrel: a")

    def test_duplicate_generator_name(self):
        with pytest.raises(PresentationParseError):
            parse_presentation("gens: a a")

    def test_duplicate_gens_line(self):
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation("gens: a\ngens: b")
        assert "line 2" in str(exc.value)

    def test_bad_exponent(self):
        with pytest.raises(PresentationParseError):
            parse_presentation("gens: a\nrel: a^2")

    def test_identity_relator_rejected(self):
        with pytest.raises(PresentationParseError):
            parse_presentation("gens: a\nrel: a a^-1")

    def test_unrecognized_line(self):
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation("gens: a\nrelator: a")
        assert "line 2" in str(exc.value)

    def test_missing_gens(self):
        with pytest.raises(PresentationParseError):
            parse_presentation("# nothing here\n")

    def test_readme_example_parses(self):
        import pathlib

        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("## File formats", 1)[1]
        example = section.split("```")[1]
        p = parse_presentation(example)
        assert p.alphabet.names == ("a1", "b1", "a2", "b2")
        assert p == surface_presentation(2)
        assert p.source == "optional provenance note"


class TestShippedTorusData:
    def test_p2_torus_file_gate(self):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "data" / "p2_torus.pres"
        p = parse_presentation(path.read_text(encoding="utf-8"))
        assert p.alphabet.names == ("c1", "c2", "u1", "u2")
        assert p.num_relators == 5
        profile = abelianization_oracle(p)
        assert profile.rank == 4
        assert profile.torsion == ()
        for rel in p.relators:
            for g in range(4):
                assert exponent_sum(rel, g) == 0


class TestCharacter:
    def test_exponents_reduced_mod_order(self):
        p = surface_presentation(1)
        chi = Character(p.alphabet, 6, {"a": 7, "b": -1})
        assert chi.exponents == (1, 5)

    def test_surface_characters_always_validate(self):
        p = surface_presentation(2)
        chi = Character(p.alphabet, 5, {"a1": 1, "b1": 2, "a2": 3, "b2": 4})
        assert validate_character(p, chi)

    def test_free_characters_always_validate(self):
        p = free_presentation(2)
        assert validate_character(p, Character(p.alphabet, 7, {"a": 3}))

    def test_torsion_relator_detects_bad_character(self):
        p = parse_presentation("gens: a\nrel: a a a")
        bad = Character(p.alphabet, 4, {"a": 1})
        check = validate_character(p, bad)
        assert not check
        assert check.failing_relator == p.relators[0]
        good = Character(p.alphabet, 3, {"a": 1})
        assert validate_character(p, good)

    def test_word_value_exact(self):
        p = surface_presentation(1)
        chi = Character(p.alphabet, 6, {"a": 2, "b": 3})
        assert chi.word_exponent(p.alphabet.parse_word("a b")) == 5
        assert chi.word_exponent(p.alphabet.parse_word("a^-1")) == 4
        assert chi.word_exponent(Word()) == 0

    def test_radial_field_rejected(self):
        p = free_presentation(1)
        data = {"N": 4, "values": {"a": 1}, "radial": {"a": "2"}}
        with pytest.raises(InputError, match="radial"):
            Character.from_json(p.alphabet, data)

    def test_trivial_and_inverse(self):
        p = surface_presentation(1)
        assert Character(p.alphabet, 1).is_trivial
        assert Character(p.alphabet, 5).is_trivial
        chi = Character(p.alphabet, 5, {"a": 2})
        assert not chi.is_trivial
        assert (chi * chi.inverse()).is_trivial

    def test_product_rescales_to_lcm(self):
        p = free_presentation(1)
        a = Character(p.alphabet, 4, {"a": 1})
        b = Character(p.alphabet, 6, {"a": 1})
        c = a * b
        assert c.order == 12
        assert c.exponents == ((3 + 2) % 12,)

    def test_rescale_rejects_non_multiple(self):
        p = free_presentation(1)
        with pytest.raises(InputError):
            Character(p.alphabet, 4, {"a": 1}).rescale(6)

    def test_json_round_trip(self):
        p = surface_presentation(1)
        chi = Character(p.alphabet, 8, {"a": 3})
        data = chi.to_json()
        assert data == {"N": 8, "values": {"a": 3, "b": 0}}
        assert Character.from_json(p.alphabet, data) == chi

    def test_json_rejects_garbage(self):
        p = surface_presentation(1)
        with pytest.raises(InputError):
            Character.from_json(p.alphabet, {"values": {"a": 1}})
        with pytest.raises(InputError):
            Character.from_json(p.alphabet, {"N": "six", "values": {}})
        with pytest.raises(AlphabetMismatchError):
            Character.from_json(p.alphabet, {"N": 3, "values": {"zz": 1}})

    @pytest.mark.parametrize(
        "values",
        [[1.5, True], [1, True], [1, 2.0], [1, "2"], [1, Fraction(2)], {"a": 1.0}, {"b": False}],
    )
    def test_constructor_refuses_non_int_exponents(self, values):
        # int() would read 1.5 and True as 1, so exponents are refused
        # unless they are ints, by position and by name alike
        p = surface_presentation(1)
        with pytest.raises(InputError, match="must be an integer"):
            Character(p.alphabet, 3, values)

    @pytest.mark.parametrize("order", [3.0, True, "3", Fraction(3)])
    def test_constructor_refuses_non_int_order(self, order):
        p = surface_presentation(1)
        with pytest.raises(InputError, match="order must be an integer"):
            Character(p.alphabet, order, [1, 2])

    def test_constructor_takes_int_exponents_either_way(self):
        p = surface_presentation(1)
        by_position = Character(p.alphabet, 3, [4, -1])
        assert by_position.exponents == (1, 2)
        assert by_position == Character(p.alphabet, 3, {"a": 4, "b": -1})
        assert Character(p.alphabet, 3, (e for e in [0, 5])).exponents == (0, 2)
        with pytest.raises(InputError, match="expected 2 exponents, got 1"):
            Character(p.alphabet, 3, [1])
        with pytest.raises(InputError, match="must be positive"):
            Character(p.alphabet, 0, [1, 2])

    @given(
        exps=st.tuples(*(st.integers(0, 11) for _ in range(4))),
        raw=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=16
        ),
        g=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_characters_kill_conjugation(self, exps, raw, g):
        p = surface_presentation(2)
        chi = Character(p.alphabet, 12, list(exps))
        u = free_reduce(raw)
        target = generator_word(g)
        conj = u * target * u.inverse()
        assert chi.word_exponent(conj) == chi.word_exponent(target)


class TestCharacterTuple:
    def test_common_order(self):
        p = surface_presentation(1)
        t = CharacterTuple(
            [Character(p.alphabet, 4, {"a": 1}), Character(p.alphabet, 6, {"b": 1})]
        )
        assert t.order == 12
        assert t.components[0].exponents == (3, 0)
        assert t.components[1].exponents == (0, 2)

    def test_shared_order_keeps_components(self):
        p = surface_presentation(1)
        chis = [Character(p.alphabet, 6, {"a": 1}), Character(p.alphabet, 6, {"b": 5})]
        t = CharacterTuple(chis)
        assert all(c is chi for c, chi in zip(t.components, chis))
        assert chis[0].rescale(6) is chis[0]
        mixed = CharacterTuple([chis[0], Character(p.alphabet, 4, {"b": 1})])
        assert mixed.order == 12
        assert mixed.components[0] is not chis[0]
        assert [c.exponents for c in mixed.components] == [(2, 0), (0, 3)]

    def test_pair_product_trivial(self):
        p = surface_presentation(1)
        chi = Character(p.alphabet, 5, {"a": 2, "b": 1})
        t = CharacterTuple([chi, chi.inverse(), chi])
        assert t.pair_product_trivial(0, 1)
        assert not t.pair_product_trivial(0, 2)
        assert not t.is_trivial

    def test_pair_product_trivial_matches_the_product(self):
        # components drawn at mixed orders, so the tuple rescales them;
        # about half the tuples plant an inverse pair
        alphabet = surface_presentation(2).alphabet
        rng = seeded_rng(18)
        trivial = 0
        for _ in range(300):
            chis = []
            for _ in range(rng.randint(2, 4)):
                order = rng.choice((1, 2, 3, 4, 6, 12))
                chis.append(Character(alphabet, order, [rng.randrange(order) for _ in range(4)]))
            if rng.random() < 0.5:
                chis[-1] = rng.choice(chis[:-1]).inverse()
            t = CharacterTuple(chis)
            for i in range(len(chis)):
                for j in range(len(chis)):
                    product = (t.component(i) * t.component(j)).is_trivial
                    assert t.pair_product_trivial(i, j) == product
                    assert product == (chis[i] * chis[j]).is_trivial
                    trivial += product
        assert trivial >= 100

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(InputError):
            CharacterTuple(
                [
                    Character(surface_presentation(1).alphabet, 2),
                    Character(free_presentation(3).alphabet, 2),
                ]
            )

    def test_product_character_round_trip(self):
        p = surface_presentation(1)
        prod = product_presentation(p, p, p)
        t = CharacterTuple(
            [
                Character(p.alphabet, 4, {"a": 1}),
                Character(p.alphabet, 4, {"b": 3}),
                Character(p.alphabet, 4),
            ]
        )
        chi = product_character(prod, *t.components)
        assert chi.alphabet == prod.alphabet
        assert validate_character(prod, chi)
        assert chi.exponents == (1, 0, 0, 3, 0, 0)

    def test_non_product_rejected(self):
        p = surface_presentation(1)
        with pytest.raises(InputError):
            product_character(p, Character(p.alphabet, 2))


def _unimodular(d):
    """Seeded d x d integer matrices of determinant +-1."""
    return st.randoms(use_true_random=False).map(lambda rng: _random_unimodular(rng, d))


class TestMatrixRep:
    def unipotents(self):
        a = IntMatrix([[1, 1], [0, 1]])
        b = IntMatrix([[1, 0], [2, 1]])
        return a, b

    def test_sl_flavor_enforces_determinant(self):
        p = free_presentation(1)
        flip = IntMatrix([[-1, 0], [0, 1]])
        with pytest.raises(InputError, match="determinant 1, got -1"):
            MatrixRep(p.alphabet, [flip], flavor="SL")
        rep = MatrixRep(p.alphabet, [flip], flavor="GL")
        assert rep.inverse_image(0) == flip
        # GL is the integer matrices with an integral inverse
        with pytest.raises(InputError, match="determinant 1 or -1, got 2"):
            MatrixRep(p.alphabet, [IntMatrix([[2, 0], [0, 1]])], flavor="GL")

    def test_singular_rejected(self):
        p = free_presentation(1)
        with pytest.raises(InputError):
            MatrixRep(p.alphabet, [IntMatrix([[1, 0], [0, 0]])], flavor="GL")
        for bad in ([IntMatrix([[1, 0]])], [[[1, 0], [0, 1]]]):
            with pytest.raises(InputError):
                MatrixRep(p.alphabet, bad, flavor="GL")

    def test_given_inverses_are_checked_and_kept(self):
        p = free_presentation(2)
        a, b = self.unipotents()
        ainv, binv = IntMatrix([[1, -1], [0, 1]]), IntMatrix([[1, 0], [-2, 1]])
        rep = MatrixRep(p.alphabet, [a, b], inverses=[ainv, binv])
        assert rep.inverse_image(0) == ainv and rep.inverse_image(1) == binv
        assert rep.image(0) == a and rep.image(1) == b
        for wrong in ([ainv, ainv], [ainv], [ainv, IntMatrix.identity(3)]):
            with pytest.raises(InputError):
                MatrixRep(p.alphabet, [a, b], inverses=wrong)
        # the determinant check stays
        with pytest.raises(InputError, match="determinant"):
            MatrixRep(p.alphabet, [a, IntMatrix([[2, 0], [0, 1]])], inverses=[ainv, binv])

    def test_word_value(self):
        p = free_presentation(2)
        a, b = self.unipotents()
        rep = MatrixRep(p.alphabet, [a, b])
        w = p.alphabet.parse_word("a b a^-1")
        assert rep.word_value(w) == a @ b @ a.inverse()

    def test_validate_commutator_relator(self):
        p = surface_presentation(1)
        a, b = self.unipotents()
        rep = MatrixRep(p.alphabet, [a, b])
        check = validate_matrix_rep(p, rep)
        assert not check
        assert check.failing_relator == p.relators[0]
        # commuting GL images: a diagonal of determinant -1 and a power
        # of a unipotent in the same torus
        diag = IntMatrix([[-1, 0], [0, 1]])
        diag2 = IntMatrix([[1, 0], [0, -1]])
        assert validate_matrix_rep(p, MatrixRep(p.alphabet, [diag, diag2], flavor="GL"))
        assert validate_matrix_rep(p, MatrixRep(p.alphabet, [a, a @ a @ a]))

    def test_verified_relators_cover_only_themselves(self, monkeypatch):
        # a rep that passed on surface:2 is checked in full against a
        # presentation with the same alphabet and another relator
        p = surface_presentation(2)
        rho = random_surface_sl2(2, seeded_rng(3), presentation=p)
        evaluated = []
        value = MatrixRep.word_value

        def spy(self, w):
            evaluated.append(w)
            return value(self, w)

        monkeypatch.setattr(MatrixRep, "word_value", spy)
        assert validate_matrix_rep(p, rho)
        assert evaluated == list(p.relators)
        handle = p.alphabet.parse_word("a1 b1 a1^-1 b1^-1")
        other = Presentation(p.alphabet, [handle])
        check = validate_matrix_rep(other, rho)
        assert not check and check.failing_relator == handle
        assert evaluated[-1] == handle
        with pytest.raises(PreconditionError):
            tangent_dim_at(other, rho)
        # the inverse relator holds
        inverse = Presentation(p.alphabet, [p.relators[0].inverse()])
        assert validate_matrix_rep(inverse, rho)
        assert evaluated[-1] == p.relators[0].inverse()

    def test_adjoint_dimension_and_identity(self):
        p = free_presentation(2)
        a, b = self.unipotents()
        ad = MatrixRep(p.alphabet, [a, b]).adjoint_rep()
        assert ad.dim == 3
        assert ad.word_value(Word()) == IntMatrix.identity(3)

    def test_adjoint_multiplicative(self):
        p = free_presentation(2)
        a, b = self.unipotents()
        ad = MatrixRep(p.alphabet, [a, b]).adjoint_rep()
        wa = p.alphabet.parse_word("a")
        wb = p.alphabet.parse_word("b")
        wab = p.alphabet.parse_word("a b")
        assert ad.word_value(wab) == ad.word_value(wa) @ ad.word_value(wb)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(_unimodular))
    def test_closed_form_adjoint_matches_conjugation(self, a):
        p = free_presentation(1)
        ad = MatrixRep(p.alphabet, [a], flavor="GL").adjoint_rep()
        image, inverse = ad.image(0), ad.inverse_image(0)
        assert image == _adjoint_by_conjugation(a, a.inverse())
        assert inverse == _adjoint_by_conjugation(a.inverse(), a)
        one = IntMatrix.identity(ad.dim)
        assert image @ inverse == one
        assert inverse @ image == one

    def test_wrong_inverse_has_nonzero_trace(self):
        a, _ = self.unipotents()
        cols = list(zip(*a.rows))
        with pytest.raises(ValueError, match="nonzero trace"):
            presentations._adjoint_columns(cols, cols)

    def test_traceless_coords_round_trip(self):
        for d in (2, 3):
            basis = _traceless_basis(d)
            assert len(basis) == d * d - 1
            m = IntMatrix.zeros(d, d)
            coeffs = [(-1) ** i * (i + 1) for i in range(d * d - 1)]
            for c, bmat in zip(coeffs, basis):
                m = m + IntMatrix([[c * e for e in r] for r in bmat.rows])
            assert _traceless_coords(m) == coeffs


class TestSpaceSpec:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("sphere", "sphere"),
            ("plane", "plane"),
            ("disk", "disk"),
            ("c-star", "c-star"),
            ("genus:3", "genus"),
            ("compact-genus:3", "genus"),
            ("hyperbolic:2", "hyperbolic"),
            ("noncompact-hyperbolic:2", "hyperbolic"),
            ("higher-dim:4", "higher-dim"),
            ("higher-dim:6:projective:4", "higher-dim"),
        ],
    )
    def test_parse_kinds(self, text, kind):
        assert SpaceSpec.parse(text).kind == kind

    def test_parse_parameters(self):
        assert SpaceSpec.parse("genus:2").genus == 2
        assert SpaceSpec.parse("hyperbolic:5").free_rank == 5
        sp = SpaceSpec.parse("higher-dim:6:projective:4")
        assert sp.real_dim == 6
        assert sp.complex_dim == 3
        assert sp.base_kind == "projective"
        assert sp.base_b1 == 4

    @pytest.mark.parametrize(
        "bad",
        [
            "genus:0",
            "genus",
            "sphere:3",
            "hyperbolic",
            "higher-dim:2",
            "torus",
            "genus:x",
            "higher-dim:4:weird",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            SpaceSpec.parse(bad)

    def test_complex_dim_odd_real_dim(self):
        assert SpaceSpec.parse("higher-dim:5").complex_dim is None
