"""Code-core: parsing, trunks, morphism checks, elementary maps, families."""

import random
import re
from functools import reduce
from itertools import permutations, product
from operator import or_

import pytest

from code_orbits import small_codes
from neurocode.codes import (
    Code,
    CodeMap,
    CodeParseError,
    ElementaryMap,
    INCLUSION,
    SimplicialComplex,
    apply_elementary_map,
    cc_family,
    check_monotone,
    complete_iso,
    cr_family,
    indices_of,
    is_isomorphism,
    is_morphism,
    is_trunk,
    mask_from_indices,
    parse_code,
    simplicial_complex,
    submasks,
    subset_bitsets,
    trunk,
    union_closure_condition,
    word_label,
)
from neurocode.ideal import PseudoMonomial, canonical_form, predict_cf


def code(n, *words):
    return Code.from_indices(n, words)


def word(n, *indices):
    return mask_from_indices(indices, n)


@pytest.mark.parametrize("n", range(7))
def test_subset_bitsets_hold_the_submasks(n):
    sub = subset_bitsets(n)
    assert len(sub) == 1 << n
    for x, bitset in enumerate(sub):
        assert [y for y in range(1 << n) if bitset >> y & 1] == sorted(submasks(x))


class TestCodeword:
    def test_subset_relations(self):
        a, b = word(3, 1), word(3, 1, 2)
        assert (a, b) == (0b001, 0b011)
        assert a & b == a != b  # {1} is a proper subset of {1,2}
        assert a & b != b  # ... and {1,2} is not a subset of {1}
        assert (a | b, a & b) == (b, a)

    def test_validation(self):
        with pytest.raises(ValueError):
            word(2, 3)
        with pytest.raises(ValueError):
            word(2, 0)

    def test_labels(self):
        assert word_label(word(3, 1, 3)) == "{1,3}"
        assert word_label(0) == "{}"
        assert indices_of(word(5, 2, 5)) == (2, 5)

    def test_negative_mask_rejected_not_looped(self):
        for call in (lambda: indices_of(-1), lambda: word_label(-1),
                     lambda: PseudoMonomial(-1, 0).to_text()):
            with pytest.raises(ValueError, match="^mask -1 is negative$"):
                call()


class TestCode:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Code(2, frozenset())

    def test_display_order(self):
        c = code(3, (1, 2), (), (3,), (1,))
        assert c.to_text() == str(c) == "{};{1};{3};{1,2}"
        assert c.to_json_obj() == {"n": 3, "words": [[], [1], [3], [1, 2]]}

    def test_json_roundtrip(self):
        c = code(4, (1, 3), (2,), ())
        assert Code.from_json_obj(c.to_json_obj()) == c

    @pytest.mark.parametrize("obj", [
        {"n": 2.7, "words": [[1]]},
        {"n": "3", "words": [[1]]},
        {"n": True, "words": [[1]]},
        {"n": 0, "words": [[]]},
        {"n": 65, "words": [[1]]},
        {"words": [[1]]},
        {"n": 2},
        {"n": 2, "words": 5},
        {"n": 2, "words": [[True]]},
        {"n": 2, "words": [[1.5]]},
        {"n": 2, "words": ["12"]},
        {"n": 2, "words": [[3]]},
        {"n": 2, "words": []},
        [2, [[1]]],
    ], ids=repr)
    def test_json_rejects_malformed(self, obj):
        with pytest.raises(CodeParseError):
            Code.from_json_obj(obj)

    def test_rejects_mixed_neuron_counts(self):
        with pytest.raises(ValueError):
            Code(2, [word(2, 1), word(3, 3)])
        with pytest.raises(ValueError):
            Code.from_indices(2, [(1,), (3,)])

    def test_sorted_words_and_masks_fixed_at_construction(self):
        c = code(3, (1, 2), (), (3,), (1,))
        assert c.masks == (0b000, 0b001, 0b100, 0b011)
        assert list(c.masks) == sorted(c.masks, key=lambda m: (m.bit_count(), m))
        assert c.masks is c.masks
        assert c == Code(3, reversed(c.masks))
        assert hash(c) == hash(Code(3, frozenset(c.masks)))

    def test_masks_deduplicated_sorted_and_checked(self):
        masks = (0b011, 0b000, 0b100, 0b001, 0b011)
        c = Code(3, masks)
        assert c.masks == (0b000, 0b001, 0b100, 0b011)
        assert c.masks == (word(3), word(3, 1), word(3, 3), word(3, 1, 2))
        for order in permutations(masks):
            assert Code(3, order) == c and hash(Code(3, order)) == hash(c)
        for n, bad, message in [
            (3, [], "a code must contain at least one codeword"),
            (3, [1, -1], "codeword -0x1 has neurons outside 1..3"),
            (3, [1, 0b1000], "codeword 0x8 has neurons outside 1..3"),
            (0, [0], "neuron count must be in 1..64, got 0"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                Code(n, bad)
        assert SimplicialComplex(3, (0b110, 0b001, 0b110)).facets == (0b001, 0b110)
        with pytest.raises(ValueError, match=re.escape("facet {1} is contained in facet {1,2}")):
            SimplicialComplex(2, (0b11, 0b01))
        with pytest.raises(ValueError, match="codeword 0x4 has neurons outside 1..2"):
            SimplicialComplex(2, (0b01, 0b100))

    @pytest.mark.parametrize("bad", [[1.5], [1, 1.5], ["a"], [2, "a"], [None], [2, None, 3]],
                             ids=repr)
    def test_non_int_mask_fails_as_it_would_alone(self, bad):
        # the mask is asked for its size, which only an int can give
        name = type(next(m for m in bad if type(m) is not int)).__name__
        message = f"'{name}' object has no attribute 'bit_count'"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            Code(3, bad)
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            SimplicialComplex(3, bad)


class TestParseCode:
    def test_brace_form(self):
        c = parse_code("{};{1};{1,2}")
        assert c.n == 2
        assert c == code(2, (), (1,), (1, 2))

    def test_compact_with_header(self):
        c = parse_code("n=3\n12;23")
        assert c.n == 3
        assert c == code(3, (1, 2), (2, 3))

    def test_zero_index_rejected(self):
        with pytest.raises(CodeParseError):
            parse_code("{0}")

    def test_empty_rejected(self):
        with pytest.raises(CodeParseError):
            parse_code("  \n ")
        with pytest.raises(CodeParseError):
            parse_code("n=3")

    def test_dedup_and_n_inference(self):
        c = parse_code("{1,2};12;{}")
        assert len(c) == 2 and c.n == 2

    def test_header_bounds(self):
        with pytest.raises(CodeParseError):
            parse_code("n=2;{3}")
        with pytest.raises(CodeParseError):
            parse_code("{1};n=2")

    def test_bad_tokens(self):
        with pytest.raises(CodeParseError):
            parse_code("{1,a}")
        with pytest.raises(CodeParseError):
            parse_code("hello")

    def test_empty_word_alone(self):
        c = parse_code("{}")
        assert c.n == 1 and len(c) == 1


class TestSimplicialComplex:
    def test_chain_code(self):
        sc = simplicial_complex(code(2, (), (1,), (1, 2)))
        assert {indices_of(f) for f in sc.facets} == {(1, 2)}

    def test_fig1a_code(self):
        c = code(3, (1,), (2,), (1, 3), (1, 2, 3))
        sc = simplicial_complex(c)
        assert {indices_of(f) for f in sc.facets} == {(1, 2, 3)}
        assert word(3, 2, 3) in sc

    def test_fig1b_code(self):
        c = code(5, (1, 3), (1, 2, 5), (1, 2, 3, 5), (1, 2, 4, 5))
        sc = simplicial_complex(c)
        assert {indices_of(f) for f in sc.facets} == {(1, 2, 3, 5), (1, 2, 4, 5)}
        assert word(5, 1, 2, 3, 4, 5) not in sc

    def test_facets_are_the_maximal_codewords(self):
        # by value, so the facets' order and n are checked too
        codes = small_codes()
        rng = random.Random(59)
        for _ in range(500):
            n = rng.randint(5, 8)
            codes.append(Code.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 32))))
        for c in codes:
            maximal = [w for w in c.masks if not any(v != w and v & w == w for v in c.masks)]
            assert simplicial_complex(c) == SimplicialComplex(c.n, maximal), c.to_text()

    def test_facet_antichain_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, (0b01, 0b11))


class TestTrunk:
    def test_simple(self):
        c = code(2, (), (1,), (1, 2))
        assert trunk(c, word(2, 1)) == frozenset({word(2, 1), word(2, 1, 2)})

    def test_empty_sigma_gives_whole_code(self):
        c = code(2, (), (1,), (1, 2))
        assert trunk(c, word(2)) == frozenset(c.masks)

    def test_chain_trunk_is_tail(self):
        # in the chain code, the trunk of any word is the tail above it
        c = cc_family(6)
        for k, w in enumerate(c.masks):
            assert trunk(c, w) == frozenset(c.masks[k:])

    @pytest.mark.parametrize("sigma, message", [
        (-1, "codeword -0x1 has neurons outside 1..2"),
        (0b100, "codeword 0x4 has neurons outside 1..2"),
    ], ids=["negative", "beyond-n"])
    def test_rejects_seed_outside_the_neurons(self, sigma, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trunk(code(2, (), (1,), (1, 2)), sigma)

    def test_antitone(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 5)
            c = Code.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))
            s1 = rng.randrange(1 << n)
            s2 = s1 & rng.randrange(1 << n)  # s2 subset of s1
            t1 = trunk(c, s1)
            t2 = trunk(c, s2)
            assert t1 <= t2

    def test_trunk_is_whole_code_iff_sigma_in_every_word(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 5)
            c = Code.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))
            sigma = rng.randrange(1 << n)
            everywhere = all(m & sigma == sigma for m in c.masks)
            assert (trunk(c, sigma) == frozenset(c.masks)) == everywhere


def mask_trunks(c):
    """Every trunk of c as a frozenset of masks, the empty one included,
    from every sigma over the neuron set."""
    return {frozenset()} | {frozenset(m for m in c.masks if m & sigma == sigma)
                            for sigma in range(1 << c.n)}


def is_trunk_oracle(c, ws):
    """Exhaustive reference on masks, sharing no code with `is_trunk`."""
    return frozenset(ws) in mask_trunks(c)


class TestIsTrunk:
    def test_examples(self):
        c = code(2, (), (1,), (1, 2))
        assert is_trunk(c, {word(2, 1), word(2, 1, 2)})
        assert not is_trunk(c, {word(2), word(2, 1, 2)})
        assert is_trunk(c, set())

    def test_requires_subset(self):
        c = code(2, (), (1,))
        for masks in ({word(2, 1, 2)}, {word(2, 1), 0b100}, {-1}):
            with pytest.raises(ValueError, match="^candidate trunk must be a subset "
                                                 "of the code's words$"):
                is_trunk(c, masks)

    def test_against_sigma_enumeration(self):
        # every subset of every code on 3 neurons, versus the exhaustive check
        for idx in range(1, 1 << 8):
            masks = [p for p in range(8) if idx >> p & 1]
            c = Code.from_masks(3, masks)
            words = c.masks
            for sub in range(1 << len(words)):
                ws = frozenset(w for i, w in enumerate(words) if sub >> i & 1)
                assert is_trunk(c, ws) == is_trunk_oracle(c, ws)


class TestMorphisms:
    def test_delete_map_is_morphism(self):
        c = code(3, (1,), (3,), (1, 2))
        image, cmap = apply_elementary_map(c, ElementaryMap.delete(3))
        assert image == code(2, (), (1,), (1, 2))
        assert is_morphism(cmap)

    def test_identity_is_morphism(self):
        c = code(3, (1,), (2, 3))
        assert is_morphism(CodeMap(c, c, c.masks))

    def test_two_point_codomain_cases(self):
        dom = code(2, (1,), (2,))
        cod = code(2, (), (1, 2))
        send_up = CodeMap(dom, cod, [0b11, 0b00])  # {1} -> {1,2}, {2} -> {}
        assert is_morphism(send_up)
        constant = CodeMap(dom, cod, [0b11, 0b11])
        assert is_morphism(constant)  # preimage is the whole code, a trunk of ∅

    def test_negative_examples_found_by_search(self):
        dom = code(2, (1,), (2,), (1, 2))
        cod = code(2, (1,), (2,))
        # f(12)=2: preimage of Tk(1) is {{1}}, not a trunk (its closure is {1,12})
        f = CodeMap(dom, cod, [0b01, 0b10, 0b10])
        assert not is_morphism(f)
        # f(12)=1: now the preimage of Tk(2) is {{2}}, equally not a trunk
        g = CodeMap(dom, cod, [0b01, 0b10, 0b01])
        assert not is_morphism(g)

    def test_inverse_needs_a_bijection(self):
        c = code(2, (1,), (1, 2))
        with pytest.raises(ValueError, match="only bijective code maps have an inverse"):
            CodeMap(c, c, [0b01, 0b01]).inverse()

    def test_isomorphism_example(self):
        c = code(4, (1, 2), (1, 2, 3), (1, 2, 3, 4))
        f = complete_iso(c)
        assert f.codomain == cc_family(3)
        assert f(word(4, 1, 2)) == 0
        assert is_isomorphism(f)

    def test_identity_is_isomorphism(self):
        c = code(3, (1,), (1, 3))
        assert is_isomorphism(CodeMap(c, c, c.masks))

    def test_non_injective_is_not_isomorphism(self):
        dom = code(2, (1,), (1, 2))
        cod = code(2, (1,), (1, 2))
        f = CodeMap(dom, cod, [0b01, 0b01])  # {1} and {1,2} both go to {1}
        assert not is_isomorphism(f)

    def test_monotone_negative(self):
        dom = code(2, (1,), (1, 2))
        cod = code(2, (1,), (2,))
        f = CodeMap(dom, cod, [0b10, 0b01])  # {1} -> {2}, {1,2} -> {1}
        assert not check_monotone(f)

    def test_constant_map_is_monotone(self):
        dom = code(2, (1,), (2,), (1, 2))
        cod = code(1, (1,))
        f = CodeMap(dom, cod, [0b1] * len(dom))
        assert check_monotone(f)

    def test_constructor_rejects_wrong_image_count(self):
        dom = code(2, (1,), (2,))
        with pytest.raises(ValueError, match="^assignment must cover exactly "
                                             "the domain codewords$"):
            CodeMap(dom, dom, [0b01])
        with pytest.raises(ValueError, match="^assignment must cover exactly "
                                             "the domain codewords$"):
            CodeMap(dom, dom, [0b01, 0b10, 0b01])

    def test_constructor_rejects_image_outside_codomain(self):
        dom = code(2, (1,), (2,))
        cod = code(2, (), (1, 2))
        with pytest.raises(ValueError, match=re.escape(
                "image {1} of {2} is not in the codomain")):
            CodeMap(dom, cod, [0b11, 0b01])
        with pytest.raises(ValueError, match=re.escape(
                "image {3} of {1} is not in the codomain")):
            CodeMap(dom, cod, [0b100, 0b00])
        with pytest.raises(ValueError, match=re.escape(
                "image -1 of {1} is not in the codomain")):
            CodeMap(dom, cod, [-1, 0b00])

    def test_call_rejects_words_outside_the_domain(self):
        dom = code(2, (1,), (1, 2))
        f = CodeMap(dom, dom, dom.masks)
        assert f(word(2, 1, 2)) == word(2, 1, 2)
        for mask, shown in [(word(2, 2), "{2}"), (0, "{}"), (0b100, "{3}"), (-1, "-1")]:
            with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not a "
                                                 "codeword of the domain$"):
                f(mask)


def is_morphism_by_definition(f):
    """Reference check on masks: preimages of *all* trunks of the codomain
    are trunks, not just the simple ones."""
    image = dict(zip(f.domain.masks, f.images))
    domain_trunks = mask_trunks(f.domain)
    return all(frozenset(m for m in f.domain.masks if image[m] in t) in domain_trunks
               for t in mask_trunks(f.codomain))


def test_simple_trunk_criterion_matches_definition():
    rng = random.Random(29)
    morphisms = 0
    for _ in range(400):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        dom = Code.from_masks(n1, rng.sample(range(1 << n1), rng.randint(1, 1 << n1)))
        cod = Code.from_masks(n2, rng.sample(range(1 << n2), rng.randint(1, 1 << n2)))
        f = CodeMap(dom, cod, [rng.choice(cod.masks) for _ in dom.masks])
        expected = is_morphism_by_definition(f)
        assert is_morphism(f) == expected
        morphisms += expected
    assert morphisms > 0


def all_codes(n):
    for idx in range(1, 1 << (1 << n)):
        yield Code.from_masks(n, [p for p in range(1 << n) if idx >> p & 1])


def all_small_maps():
    """Every function between every pair of codes on up to 2 neurons."""
    codes = [c for n in (1, 2) for c in all_codes(n)]
    for dom in codes:
        for cod in codes:
            for images in product(cod.masks, repeat=len(dom)):
                yield CodeMap(dom, cod, images)


def test_is_morphism_matches_definition_exhaustively():
    morphisms = 0
    for f in all_small_maps():
        expected = is_morphism_by_definition(f)
        assert is_morphism(f) == expected
        morphisms += expected
    assert morphisms > 0


class TestMorphismImpliesMonotone:
    def test_exhaustive_small(self):
        for f in all_small_maps():
            if is_morphism(f):
                assert check_monotone(f)

    def test_randomized_three_neurons(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(4000):
            dom = Code.from_masks(3, rng.sample(range(8), rng.randint(1, 8)))
            cod = Code.from_masks(3, rng.sample(range(8), rng.randint(1, 8)))
            f = CodeMap(dom, cod, [rng.choice(cod.masks) for _ in dom.masks])
            if is_morphism(f):
                checked += 1
                assert check_monotone(f)
        assert checked > 0


class TestElementaryMaps:
    def test_delete_example(self):
        image, _ = apply_elementary_map(code(3, (1,), (3,), (1, 2)),
                                        ElementaryMap.delete(3))
        assert image == code(2, (), (1,), (1, 2))

    def test_add_trivial_on(self):
        image, _ = apply_elementary_map(code(1, (), (1,)), ElementaryMap.add_trivial_on())
        assert image == code(2, (2,), (1, 2))

    def test_add_trivial_off(self):
        image, _ = apply_elementary_map(code(1, (), (1,)), ElementaryMap.add_trivial_off())
        assert image == code(2, (), (1,))

    def test_duplicate(self):
        image, _ = apply_elementary_map(code(2, (), (1,), (1, 2)),
                                        ElementaryMap.duplicate(1))
        assert image == code(3, (), (1, 3), (1, 2, 3))

    def test_permutation(self):
        image, cmap = apply_elementary_map(code(2, (1,), (1, 2)),
                                           ElementaryMap.permutation([2, 1]))
        assert image == code(2, (2,), (1, 2))
        assert cmap(word(2, 1)) == word(2, 2)

    def test_delete_collapses_words(self):
        image, cmap = apply_elementary_map(code(2, (1,), (1, 2)), ElementaryMap.delete(2))
        assert image == code(1, (1,))
        assert not cmap.is_bijective()

    def test_inclusion(self):
        c = code(2, (1,))
        target = code(2, (1,), (2,))
        image, cmap = apply_elementary_map(c, ElementaryMap.inclusion(target))
        assert image == c
        assert cmap.codomain == target

    def test_invalid_specs(self):
        c = code(2, (1,))
        with pytest.raises(ValueError):
            apply_elementary_map(c, ElementaryMap.permutation([1, 1]))
        with pytest.raises(ValueError):
            apply_elementary_map(c, ElementaryMap.duplicate(3))
        with pytest.raises(ValueError):
            apply_elementary_map(c, ElementaryMap.delete(0))
        with pytest.raises(ValueError):
            apply_elementary_map(c, ElementaryMap.inclusion(code(2, (2,))))
        with pytest.raises(ValueError):
            apply_elementary_map(code(1, (1,)), ElementaryMap.delete(1))

    @pytest.mark.parametrize("n, spec, message", [
        (2, ElementaryMap.duplicate(3), "duplicate index 3 out of range 1..2"),
        (2, ElementaryMap.duplicate(None), "duplicate index None out of range 1..2"),
        (2, ElementaryMap.delete(0), "delete index 0 out of range 1..2"),
        (1, ElementaryMap.delete(1), "cannot delete the only neuron"),
        (2, ElementaryMap("rotate"), "unknown elementary map kind 'rotate'"),
    ], ids=["duplicate-3", "duplicate-None", "delete-0", "delete-only", "unknown-kind"])
    def test_neuron_index_messages_shared_with_predict_cf(self, n, spec, message):
        c = Code.from_masks(n, [1])
        with pytest.raises(ValueError) as applied:
            apply_elementary_map(c, spec)
        with pytest.raises(ValueError) as predicted:
            predict_cf(canonical_form(c), spec)
        assert str(applied.value) == str(predicted.value) == message

    def test_every_elementary_map_is_a_morphism(self):
        rng = random.Random(17)
        from neurocode.verify import _random_code, _random_spec
        for _ in range(200):
            c = _random_code(rng, rng.randint(1, 5))
            spec = _random_spec(rng, c)
            _, cmap = apply_elementary_map(c, spec)
            assert is_morphism(cmap), (c.to_text(), spec.describe())
            if spec.kind == INCLUSION:
                assert cmap.images == c.masks
            else:  # onto its image code, as the preservation theorem needs
                assert set(cmap.images) == set(cmap.codomain.masks)


class TestFamilies:
    def test_cc_small(self):
        assert cc_family(3) == code(2, (), (1,), (1, 2))
        assert cc_family(1) == code(1, ())
        assert cc_family(4) == code(3, (), (1,), (1, 2), (1, 2, 3))

    def test_cc_error(self):
        with pytest.raises(ValueError):
            cc_family(0)

    def test_cr_small(self):
        assert cr_family(4) == code(4, (1,), (2,), (3,), (4,),
                                    (1, 2), (2, 3), (3, 4), (1, 4))
        assert cr_family(3) == code(3, (1,), (2,), (3,), (1, 2), (2, 3), (1, 3))
        assert cr_family(5) == code(5, (1,), (2,), (3,), (4,), (5,),
                                    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5))

    def test_cr_error(self):
        with pytest.raises(ValueError):
            cr_family(2)


class TestCompleteIso:
    def test_example(self):
        f = complete_iso(code(4, (1, 2), (1, 2, 3), (1, 2, 3, 4)))
        assert indices_of(f(word(4, 1, 2))) == ()
        assert indices_of(f(word(4, 1, 2, 3))) == (1,)
        assert indices_of(f(word(4, 1, 2, 3, 4))) == (1, 2)

    def test_chain_maps_to_itself_shape(self):
        c = cc_family(5)
        f = complete_iso(c)
        assert all(f(w) == w for w in c.masks)

    def test_incomparable_rejected(self):
        with pytest.raises(ValueError):
            complete_iso(code(2, (1,), (2,)))


class TestUnionClosure:
    def test_examples(self):
        assert union_closure_condition(code(3, (1,), (2,), (1, 3), (1, 2, 3)))
        assert not union_closure_condition(
            code(5, (1, 3), (1, 2, 5), (1, 2, 3, 5), (1, 2, 4, 5)))
        assert union_closure_condition(code(3, (1, 3)))

    def test_matches_definition(self):
        # every code on n <= 3, the smallest code of each relabeling orbit
        # at n = 4, and 1000 random codes on 5..8 neurons, half of them
        # given the OR of their words so that both answers occur often
        codes = small_codes()
        rng = random.Random(67)
        for i in range(1000):
            n = rng.randint(5, 8)
            masks = rng.sample(range(1 << n), rng.randint(1, 24))
            if i % 2:
                masks.append(reduce(or_, masks))
            codes.append(Code.from_masks(n, masks))
        answers = [union_closure_condition(c) for c in codes]
        assert answers == [unions_in_codewords(c.masks) for c in codes]
        assert 0.2 < sum(answers[-1000:]) / 1000 < 0.8


def unions_in_codewords(masks):
    """The definition: every pairwise union lies inside some codeword."""
    return all(any(a | b | w == w for w in masks) for a in masks for b in masks)
