"""Neural ideal: pseudo-monomial arithmetic, canonical forms, transforms."""

import itertools
import random
import re

import pytest

from code_orbits import orbits, small_codes
from neurocode import ideal
from neurocode._space import code_from_index
from neurocode.codes import (
    Code,
    ElementaryMap,
    apply_elementary_map,
    cc_family,
    cr_family,
    mask_from_indices,
    permute_mask,
)
from neurocode.ideal import (
    CanonicalForm,
    PseudoMonomial,
    canonical_form,
    canonical_form_oracle,
    cf_cc_formula,
    cf_cr_formula,
    predict_cf,
    rho,
)


def pm(n, plus=(), minus=()):
    return PseudoMonomial.from_indices(n, plus, minus)


def cf_of(n, *elements):
    return CanonicalForm.from_indices(n, elements)


# fold work of cr:64: the form's size plus |grow| * |kept|, summed over its
# update steps, with the subcubes taken in ascending order of low vertex
CR64_WORK = 129026
# the same for a sparse code: 32 random words on 10 neurons
SPARSE_N10 = Code.from_masks(10, random.Random(1).sample(range(1 << 10), 32))
SPARSE_N10_WORK = 117277


def random_code(rng, n):
    return Code.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))


def oracle_by_definition(code):
    """Reference: test every nonconstant (plus, minus) pair against the
    codewords one by one, stopping at the first on which it is 1, and keep
    the divisibility-minimal pairs that vanish on all of them. Vanishing is
    closed under multiples, so a vanishing pair is minimal iff no pair one
    neuron smaller vanishes."""
    full = (1 << code.n) - 1
    vanishing = set()
    for plus in range(full + 1):
        for minus in range(full + 1):
            if plus & minus or plus == minus == 0:
                continue
            for w in code.masks:
                if w & plus == plus and w & minus == 0:
                    break
            else:
                vanishing.add((plus, minus))
    bits = [1 << j for j in range(code.n)]
    return CanonicalForm(code.n, [
        (p, m) for p, m in vanishing
        if not any((p ^ b, m) in vanishing for b in bits if p & b)
        and not any((p, m ^ b) in vanishing for b in bits if m & b)])


class TestPseudoMonomial:
    def test_validation(self):
        # the pair holds no n; the container rejects overlapping and
        # out-of-range masks
        with pytest.raises(ValueError, match="both plain and complemented"):
            CanonicalForm(2, [PseudoMonomial(0b01, 0b01)])
        with pytest.raises(ValueError, match="outside neurons 1..2"):
            CanonicalForm(2, [PseudoMonomial(0b100, 0)])

    def test_degree_and_support(self):
        f = pm(3, (1,), (2, 3))
        assert f.degree == 3
        assert f.support == 0b111

    def test_text(self):
        assert pm(3, (2,), (1, 3)).to_text() == "(1-x1)*x2*(1-x3)"
        assert pm(3, (1, 3)).to_text() == "x1*x3"
        assert PseudoMonomial(0, 0).to_text() == "1"
        for f in (pm(3, (2,), (1, 3)), PseudoMonomial(0, 0)):
            assert str(f) == f.to_text()


class TestRho:
    def test_empty_word(self):
        assert rho(2, 0) == pm(2, (), (1, 2))

    def test_partial_word(self):
        assert rho(3, mask_from_indices((1, 2), 3)) == pm(3, (1, 2), (3,))

    def test_full_word(self):
        assert rho(3, 0b111) == pm(3, (1, 2, 3))

    def test_characteristic_property(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 6)
            v = rng.randrange(1 << n)
            f = rho(n, v)
            for c in range(1 << n):
                assert f.evaluate(c) == (1 if c == v else 0)

    @pytest.mark.parametrize("n, mask, message", [
        (2, 0b100, "codeword 0x4 has neurons outside 1..2"),
        (2, -1, "codeword -0x1 has neurons outside 1..2"),
        (0, 0, "neuron count must be in 1..64, got 0"),
    ], ids=["beyond-n", "negative", "no-neurons"])
    def test_rejects_words_outside_the_neurons(self, n, mask, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rho(n, mask)


class TestEvaluate:
    def test_direct_substitution(self):
        f = pm(2, (1,), (2,))
        assert f.evaluate(0b01) == 1
        assert f.evaluate(0b11) == 0

    def test_three_variable(self):
        f = pm(3, (2,), (1, 3))
        assert f.evaluate(0b010) == 1

    def test_codeword_argument(self):
        f = pm(2, (1,))
        assert f.evaluate(mask_from_indices((1,), 2)) == 1


class TestDividesMultiply:
    def test_divides(self):
        assert pm(3, (1, 2)).divides(pm(3, (1, 2, 3)))
        f = pm(3, (1,), (2,))
        assert f.divides(f)
        assert not pm(3, (1,)).divides(pm(3, (), (1,)))


class TestCanonicalForm:
    def test_section41_example(self):
        c = Code.from_indices(3, [(), (1, 2), (2, 3)])
        expected = cf_of(3,
                         ((1,), (2,)),
                         ((1, 3), ()),
                         ((3,), (2,)),
                         ((2,), (1, 3)))
        assert canonical_form(c) == expected

    def test_full_code_zero_ideal(self):
        c = Code.from_masks(2, range(4))
        assert canonical_form(c) == CanonicalForm(2, frozenset())

    def test_chain_code_four(self):
        expected = cf_of(3, ((2,), (1,)), ((3,), (1,)), ((3,), (2,)))
        assert canonical_form(cc_family(4)) == expected

    def test_degree_two_example(self):
        # the cyclic code plus the empty word; its canonical form is the two
        # diagonal products (the word {2,4} in place of {3,4} would break
        # vanishing of x2*x4, so the cyclic word list is the right one)
        c = Code.from_indices(4, [(), (1,), (2,), (3,), (4,),
                                  (1, 2), (2, 3), (3, 4), (1, 4)])
        got = canonical_form(c)
        assert got == cf_of(4, ((1, 3), ()), ((2, 4), ()))
        assert got == canonical_form_oracle(c)

    def test_singleton_empty_code(self):
        c = Code.from_masks(2, [0])
        assert canonical_form_oracle(c) == cf_of(2, ((1,), ()), ((2,), ()))

    def test_incremental_matches_oracle_small(self):
        rng = random.Random(7)
        for _ in range(150):
            c = random_code(rng, rng.randint(1, 4))
            assert canonical_form(c) == canonical_form_oracle(c)

    def test_incremental_matches_oracle_sample(self):
        rng = random.Random(9)
        for _ in range(100):
            c = random_code(rng, rng.randint(1, 5))
            assert canonical_form(c) == canonical_form_oracle(c)

    def test_matches_oracle_at_benchmark_sizes(self):
        rng = random.Random(29)
        codes = [Code.from_masks(n, rng.sample(range(1 << n), m))
                 for n in (7, 8) for m in (32, 64, 128)]
        codes += [Code.from_masks(10, rng.sample(range(1 << 10), m)) for m in (32, 64)]
        # twelve random codes on 11 and 12 neurons, up to the oracle's cap
        rng = random.Random(37)
        codes += [Code.from_masks(n, rng.sample(range(1 << n), m))
                  for n in (11, 12) for m in (32, 64, 128) for _ in range(2)]
        # the random codes of a seed-3 cf-large pass, drawn as it draws them
        rng = random.Random("cf-large:3")
        codes += [Code.from_masks(n, rng.sample(range(1 << n), m))
                  for n, m, count in ((8, 32, 8), (8, 64, 8), (8, 128, 8), (10, 32, 3))
                  for _ in range(count)]
        for c in codes:
            assert canonical_form(c) == canonical_form_oracle(c)
        for m in range(3, 29):
            assert canonical_form(cc_family(m)) == cf_cc_formula(m)
            assert canonical_form(cr_family(m)) == cf_cr_formula(m)

    def test_subcube_cover_partitions_the_code(self):
        # every codeword in exactly one cube, every vertex of a cube a
        # codeword, low vertices ascending: every code on n <= 3 and the
        # smallest code of each relabeling orbit at n = 4
        codes = small_codes()
        for c in codes:
            full = (1 << c.n) - 1
            cubes = ideal._subcube_cover(c.n, c.masks)
            assert [q for q, _ in cubes] == sorted({q for q, _ in cubes})
            covered = []
            for q, fixed in cubes:
                free = full ^ fixed
                assert q & free == 0, c.to_text()
                covered += [q | s for s in range(free + 1) if s & free == s]
            assert sorted(covered) == sorted(c.masks), c.to_text()
        cr28 = cr_family(28)
        assert (len(cr28), len(ideal._subcube_cover(28, cr28.masks))) == (56, 29)

    def test_divisor_test_compares_signs_on_free_neurons(self):
        # a kept element that disagrees with the cube's low vertex at one
        # fixed neuron but has the other sign on a free neuron divides no
        # product; without that sign test this is the first code at n = 4
        # whose form comes out wrong
        c = Code.from_indices(4, [(), (4,), (1, 3), (2, 3), (1, 4), (2, 4), (1, 2, 4)])
        assert canonical_form(c) == canonical_form_oracle(c)

    def test_matches_oracle_on_every_small_code(self):
        # every code on n <= 3 and the smallest code of each relabeling
        # orbit at n = 4: 4256 codes
        codes = small_codes()
        assert len(codes) == 4256
        for c in codes:
            assert canonical_form(c) == canonical_form_oracle(c), c.to_text()

    @pytest.mark.parametrize("code, work, reference", [
        pytest.param(cr_family(64), CR64_WORK, lambda code: cf_cr_formula(64), id="cr64"),
        pytest.param(SPARSE_N10, SPARSE_N10_WORK, canonical_form_oracle, id="random-n10"),
    ])
    def test_work_limit_is_exact(self, monkeypatch, code, work, reference):
        # the code takes exactly `work` units; pinning the count keeps a
        # change to the fold from silently changing what the limit admits
        monkeypatch.setattr(ideal, "CF_MAX_WORK", work - 1)
        with pytest.raises(ValueError, match=f"fold passed {work - 1} units"):
            canonical_form(code)
        monkeypatch.setattr(ideal, "CF_MAX_WORK", work)
        assert canonical_form(code) == reference(code)

    def test_matches_oracle_on_dense_codes(self):
        # dense codes are where the fold's order and its cubes move its work
        # most: random codes holding at least 3/4 of all words, at n = 8..10
        # at least 7/8, whose cubes are large, and every full code with one
        # word removed
        rng = random.Random(31)
        codes = [Code.from_masks(n, rng.sample(range(1 << n), rng.randint(3 << n >> 2, 1 << n)))
                 for n in (5, 6, 7) for _ in range(6)]
        rng = random.Random(47)
        codes += [Code.from_masks(n, rng.sample(range(1 << n), rng.randint(7 << n >> 3, 1 << n)))
                  for n in (8, 9, 10) for _ in range(3)]
        codes += [Code.from_masks(n, [w for w in range(1 << n) if w != v])
                  for n in range(1, 8) for v in range(1 << n)]
        for c in codes:
            assert canonical_form(c) == canonical_form_oracle(c), c.to_text()

    @pytest.mark.parametrize("n", [1, 4, 8, 10])
    def test_closed_form_edge_cases(self, n):
        # at the last word of the full code nothing is kept and no neuron is
        # free; a single word never updates its n linear generators
        full = (1 << n) - 1
        assert canonical_form(Code.from_masks(n, range(full + 1))) == CanonicalForm(n, frozenset())
        for v in {0, full, 0b0110 & full}:
            missing = Code.from_masks(n, [w for w in range(full + 1) if w != v])
            assert canonical_form(missing) == CanonicalForm(n, frozenset({rho(n, v)}))
            linear = {(0, 1 << j) if v >> j & 1 else (1 << j, 0) for j in range(n)}
            assert canonical_form(Code.from_masks(n, [v])) == CanonicalForm(n, frozenset(linear))

    def test_oracle_matches_definition(self):
        # every code on n <= 3, then 300 seeded codes on 4 to 6 neurons
        codes = [code_from_index(n, idx)
                 for n in (1, 2, 3) for idx in range(1, 1 << (1 << n))]
        rng = random.Random(43)
        codes += [random_code(rng, rng.randint(4, 6)) for _ in range(300)]
        for c in codes:
            assert canonical_form_oracle(c) == oracle_by_definition(c), c.to_text()

    def test_oracle_neuron_cap(self):
        with pytest.raises(ValueError):
            canonical_form_oracle(Code.from_masks(13, [0]))

    def test_elements_vanish_and_cover_missing_words(self):
        rng = random.Random(13)
        for _ in range(100):
            c = random_code(rng, rng.randint(1, 5))
            cf = canonical_form(c)
            for f in cf.elements:
                assert all(f.evaluate(m) == 0 for m in c.masks)
            in_code = set(c.masks)
            for v in range(1 << c.n):
                if v not in in_code:
                    r = rho(c.n, v)
                    assert any(f.divides(r) for f in cf.elements)

    def test_antichain(self):
        rng = random.Random(15)
        for _ in range(100):
            cf = canonical_form(random_code(rng, rng.randint(1, 5)))
            for f in cf.elements:
                for g in cf.elements:
                    assert f == g or not f.divides(g)

    def test_permutation_equivariance(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 5)
            c = random_code(rng, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            image, _ = apply_elementary_map(c, ElementaryMap.permutation(perm))
            moved = CanonicalForm(n, [(permute_mask(p, perm), permute_mask(m, perm))
                                      for p, m in canonical_form(c).elements])
            assert canonical_form(image) == moved


class TestCanonicalFormContainer:
    def test_pairs_deduplicated_sorted_and_checked(self):
        pairs = [(0b100, 0b001), (0b010, 0), (0b001, 0b010), (0b010, 0), (0, 0b101), (0b011, 0)]
        cf = CanonicalForm(3, pairs)
        # (degree, plus, minus) order, duplicates dropped, items are pairs
        assert cf.elements == ((0b010, 0), (0, 0b101), (0b001, 0b010), (0b011, 0), (0b100, 0b001))
        assert all(type(f) is PseudoMonomial for f in cf.elements)
        assert (cf.elements[1].plus, cf.elements[1].minus) == (0, 0b101)
        assert tuple(cf) == cf.elements and len(cf) == 5
        for same in (pairs[::-1], frozenset(pairs), [PseudoMonomial(p, m) for p, m in pairs],
                     iter(pairs)):
            other = CanonicalForm(3, same)
            assert other == cf and hash(other) == hash(cf)
        assert CanonicalForm(4, pairs) != cf
        for n, bad, message in [
            (3, [(0b001, 0), (0b1000, 0)], "masks 0x8/0x0 outside neurons 1..3"),
            (3, [(0, -1)], "masks 0x0/-0x1 outside neurons 1..3"),
            (3, [(0b011, 0b010)], "a variable cannot appear both plain and complemented"),
            (3, [(0b001, 0), (0, 0)], "the constant 1 cannot appear in a canonical form"),
            (0, [], "neuron count must be in 1..64, got 0"),
            (100, [], "neuron count must be in 1..64, got 100"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                CanonicalForm(n, bad)
        # adding a neuron to a 64-neuron form leaves the neuron range
        with pytest.raises(ValueError, match="neuron count must be in 1..64, got 65"):
            predict_cf(canonical_form(Code(64, [0, 1])), ElementaryMap.add_trivial_on())

    def test_names_the_first_invalid_pair(self):
        messages = {(0, 0): "the constant 1 cannot appear in a canonical form",
                    (0b011, 0b010): "a variable cannot appear both plain and complemented",
                    (0b1000, 0): "masks 0x8/0x0 outside neurons 1..3"}
        for first, second in itertools.permutations(messages, 2):
            with pytest.raises(ValueError, match=re.escape(messages[first])):
                CanonicalForm(3, [(0b001, 0), first, second, (0b010, 0)])

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            CanonicalForm(2, frozenset({PseudoMonomial(0, 0)}))

    def test_rejects_mixed_n(self):
        # pairs carry no n, so an element from a larger n shows up as a mask
        # beyond the form's neurons, or as overlapping masks
        with pytest.raises(ValueError, match="outside neurons 1..2"):
            CanonicalForm(2, [pm(3, (3,))])
        with pytest.raises(ValueError, match="outside neurons 1..2"):
            CanonicalForm(2, [pm(3, (1,), (2, 3))])
        with pytest.raises(ValueError, match="both plain and complemented"):
            CanonicalForm(3, [(0b011, 0b110)])

    def test_allows_redundant_generators(self):
        # non-minimal generating sets are accepted so the relationship
        # complex can be built from them
        cf = cf_of(3, ((1, 2, 3), ()), ((1, 2), ()))
        assert len(cf) == 2

    def test_json_roundtrip(self):
        cf = cf_of(3, ((2,), (1, 3)), ((1, 3), ()))
        assert CanonicalForm.from_json_obj(cf.to_json_obj()) == cf

    def test_sorted_rendering(self):
        cf = cf_of(3, ((2,), (1, 3)), ((1, 3), ()), ((1,), (2,)))
        assert cf.to_text_lines() == ["x1*(1-x2)", "x1*x3", "(1-x1)*x2*(1-x3)"]


class TestPredictCf:
    def test_add_on_example(self):
        cf = cf_of(2, ((2,), (1,)))
        assert predict_cf(cf, ElementaryMap.add_trivial_on()) == \
            cf_of(3, ((2,), (1,)), ((), (3,)))

    def test_add_off(self):
        cf = cf_of(2, ((2,), (1,)))
        assert predict_cf(cf, ElementaryMap.add_trivial_off()) == \
            cf_of(3, ((2,), (1,)), ((3,), ()))

    def test_duplicate_example(self):
        cf = cf_of(2, ((2,), (1,)))
        got = predict_cf(cf, ElementaryMap.duplicate(1))
        want = cf_of(3, ((2,), (1,)), ((2,), (3,)), ((1,), (3,)), ((3,), (1,)))
        assert got == want
        image, _ = apply_elementary_map(cc_family(3), ElementaryMap.duplicate(1))
        assert got == canonical_form_oracle(image)

    def test_projection_example(self):
        cf = canonical_form(cr_family(4))
        got = predict_cf(cf, ElementaryMap.delete(4))
        assert got == cf_of(3, ((1, 3), ()))
        image, _ = apply_elementary_map(cr_family(4), ElementaryMap.delete(4))
        assert got == canonical_form_oracle(image)

    def test_permutation(self):
        cf = cf_of(2, ((2,), (1,)))
        assert predict_cf(cf, ElementaryMap.permutation([2, 1])) == cf_of(2, ((1,), (2,)))

    def test_inclusion_rejected(self):
        cf = cf_of(2, ((2,), (1,)))
        with pytest.raises(ValueError):
            predict_cf(cf, ElementaryMap.inclusion(cc_family(3)))

    def test_delete_middle_neuron(self):
        # deleting an inner neuron relabels the ones above it
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 5)
            c = random_code(rng, n)
            i = rng.randint(1, n)
            predicted = predict_cf(canonical_form(c), ElementaryMap.delete(i))
            image, _ = apply_elementary_map(c, ElementaryMap.delete(i))
            assert predicted == canonical_form(image)

    def test_duplicate_prunes_redundant_parts(self):
        # duplicating the only neuron of {∅}: the rule's degree-two parts
        # are multiples of the linear survivors
        cf = canonical_form(Code.from_masks(1, [0]))
        got = predict_cf(cf, ElementaryMap.duplicate(1))
        assert got == cf_of(2, ((1,), ()), ((2,), ()))

    def test_every_code_on_three_neurons_matches_oracle(self):
        # every code on n <= 3 under add-on, add-off, a cyclic relabeling,
        # every duplicate and every delete
        pairs = 0
        for n in (1, 2, 3):
            specs = [ElementaryMap.add_trivial_on(), ElementaryMap.add_trivial_off(),
                     ElementaryMap.permutation([*range(2, n + 1), 1])]
            specs += [ElementaryMap.duplicate(i) for i in range(1, n + 1)]
            specs += [ElementaryMap.delete(i) for i in range(1, n + 1) if n >= 2]
            for idx in range(1, 1 << (1 << n)):
                c = code_from_index(n, idx)
                cf = canonical_form(c)
                for spec in specs:
                    image, _ = apply_elementary_map(c, spec)
                    assert predict_cf(cf, spec) == canonical_form_oracle(image), \
                        (c.to_text(), spec.describe())
                    pairs += 1
        assert pairs == 2412

    def test_duplicate_matches_oracle_on_every_orbit(self):
        # every duplicate of the smallest code of each relabeling orbit at
        # n = 4, constant neurons included: the cross terms go exactly when
        # the duplicated neuron is constant
        pairs = 0
        for idx, _ in orbits(4):
            c = code_from_index(4, idx)
            cf = canonical_form(c)
            for i in range(1, 5):
                spec = ElementaryMap.duplicate(i)
                image, _ = apply_elementary_map(c, spec)
                assert predict_cf(cf, spec) == canonical_form_oracle(image), (c.to_text(), i)
                pairs += 1
        assert pairs == 15932


class TestClosedForms:
    def test_cc_formula_small(self):
        assert cf_cc_formula(3) == cf_of(2, ((2,), (1,)))
        assert cf_cc_formula(5) == cf_of(4,
                                         ((2,), (1,)), ((3,), (1,)), ((3,), (2,)),
                                         ((4,), (1,)), ((4,), (2,)), ((4,), (3,)))

    def test_cr_formula_small(self):
        assert cf_cr_formula(4) == cf_of(4, ((), (1, 2, 3, 4)),
                                         ((1, 3), ()), ((2, 4), ()))
        assert cf_cr_formula(3) == cf_of(3, ((), (1, 2, 3)), ((1, 2, 3), ()))

    def test_formulas_match_computation(self):
        for m in range(3, 8):
            assert cf_cc_formula(m) == canonical_form(cc_family(m))
        for k in range(3, 8):
            assert cf_cr_formula(k) == canonical_form(cr_family(k))

    def test_bounds(self):
        with pytest.raises(ValueError):
            cf_cc_formula(2)
        with pytest.raises(ValueError):
            cf_cr_formula(2)
