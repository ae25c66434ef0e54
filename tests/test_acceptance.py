"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from contextlib import contextmanager

from neurocode import cli
from neurocode.codes import Code, cc_family, cr_family, indices_of, parse_code
from neurocode.graphs import ccg, gr_complex, grg, is_connected, is_regular
from neurocode.ideal import (
    CanonicalForm,
    canonical_form,
    canonical_form_oracle,
    cf_cc_formula,
    cf_cr_formula,
)
from neurocode.verify import (
    DEFAULT_SEED,
    cf_theorems_suite,
    complete_iso_suite,
    grg_families_suite,
    parity_suite,
    preserve_complete_suite,
    preserve_connected_suite,
    realizations_suite,
    union_closure_suite,
)


@contextmanager
def criterion(num, title, seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {title}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"criterion {num} exceeded {seconds}s budget ({elapsed:.1f}s)"
    print(f"criterion {num:2d} PASS in {elapsed:6.2f}s (< {seconds:g}s): {title}")


def cf_of(n, *elements):
    return CanonicalForm.from_indices(n, elements)


def ccg_edges(c):
    return {frozenset(map(indices_of, e)) for e in ccg(c).edges}


def pairs(*edge_list):
    return {frozenset((tuple(a), tuple(b))) for a, b in edge_list}


def test_c01_cf_fixture(capsys):
    with criterion(1, "section 4.1 canonical form via the cf command", 1.0):
        status = cli.main(["cf", "{};{1,2};{2,3}", "--json"])
        out = capsys.readouterr().out
        assert status == 0
        report = json.loads(out)
        got = CanonicalForm.from_json_obj(report["outputs"]["cf"])
        expected = cf_of(3,
                         ((1,), (2,)),
                         ((1, 3), ()),
                         ((3,), (2,)),
                         ((2,), (1, 3)))
        assert got == expected


# the eight section-6 lists, frozen verbatim
CC_LISTS = {
    3: cf_of(2, ((2,), (1,))),
    4: cf_of(3, ((2,), (1,)), ((3,), (1,)), ((3,), (2,))),
    5: cf_of(4, ((2,), (1,)), ((3,), (1,)), ((3,), (2,)),
             ((4,), (1,)), ((4,), (2,)), ((4,), (3,))),
    6: cf_of(5, ((2,), (1,)), ((3,), (1,)), ((3,), (2,)),
             ((4,), (1,)), ((4,), (2,)), ((4,), (3,)),
             ((5,), (1,)), ((5,), (2,)), ((5,), (3,)), ((5,), (4,))),
}
CR_LISTS = {
    3: cf_of(3, ((), (1, 2, 3)), ((1, 2, 3), ())),
    4: cf_of(4, ((), (1, 2, 3, 4)), ((1, 3), ()), ((2, 4), ())),
    5: cf_of(5, ((), (1, 2, 3, 4, 5)),
             ((1, 3), ()), ((1, 4), ()), ((2, 4), ()), ((2, 5), ()), ((3, 5), ())),
    6: cf_of(6, ((), (1, 2, 3, 4, 5, 6)),
             ((1, 3), ()), ((1, 4), ()), ((2, 4), ()), ((2, 6), ()), ((3, 6), ()),
             ((4, 6), ()), ((1, 5), ()), ((2, 5), ()), ((3, 5), ())),
}


def test_c02_section6_cf_lists():
    with criterion(2, "section 6 canonical form lists, m,k = 3..6", 1.0):
        for m, expected in CC_LISTS.items():
            assert canonical_form(cc_family(m)) == expected, f"chain m={m}"
        for k, expected in CR_LISTS.items():
            assert canonical_form(cr_family(k)) == expected, f"cycle k={k}"


def test_c03_closed_form_lemmas():
    with criterion(3, "closed forms equal computed forms, sizes 3..10", 30.0):
        for m in range(3, 11):
            assert cf_cc_formula(m) == canonical_form(cc_family(m)), f"chain m={m}"
        for k in range(3, 11):
            assert cf_cr_formula(k) == canonical_form(cr_family(k)), f"cycle k={k}"


def test_c04_oracle_equivalence():
    with criterion(4, "incremental vs 3^n oracle: 255 exhaustive + 500 random", 120.0):
        for idx in range(1, 1 << 8):
            c = Code.from_masks(3, [p for p in range(8) if idx >> p & 1])
            assert canonical_form(c) == canonical_form_oracle(c), c.to_text()
        rng = random.Random(DEFAULT_SEED)
        for _ in range(500):
            n = rng.choice((4, 5, 6))
            c = Code.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))
            assert canonical_form(c) == canonical_form_oracle(c), c.to_text()


def test_c05_transform_theorems():
    with criterion(5, "five transform rules x 200 randomized codes", 120.0):
        result = cf_theorems_suite(trials=200, seed=DEFAULT_SEED, max_n=6)
        for check in result.checks:
            assert check.passed, (check.name, check.counterexample)
        assert len(result.checks) == 5


def test_c06_grg_fixtures():
    with criterion(6, "relationship graph and complex fixtures", 1.0):
        g = grg(cf_of(4, ((1, 3), ()), ((2, 4), ())))
        assert g.vertices == (1, 2, 3, 4)
        assert g.edges == {frozenset(e) for e in [(1, 2), (2, 3), (3, 4), (1, 4)]}
        cases = [
            (3, [((1, 2, 3), ()), ((1, 2), ())], {(1, 3), (2, 3)}),
            (3, [((1, 2), ()), ((1, 3), ())], {(1,), (2, 3)}),
            (4, [((1, 2), ()), ((2, 4), ())], {(1, 3, 4), (2, 3)}),
        ]
        for n, elements, facets in cases:
            sc = gr_complex(CanonicalForm.from_indices(n, elements))
            assert {indices_of(f) for f in sc.facets} == facets


def test_c07_duality_propositions():
    with criterion(7, "family relationship graphs: edgeless chains, 2-regular cycles", 30.0):
        result = grg_families_suite(max_m=10, max_k=10)
        for check in result.checks:
            assert check.passed, (check.name, check.counterexample)


def test_c08_ccg_fixtures():
    with criterion(8, "containment graph figures reproduced exactly", 1.0):
        assert ccg_edges(Code.from_indices(3, [(1,), (2,), (1, 3), (1, 2, 3)])) == pairs(
            ((1,), (1, 3)), ((2,), (1, 2, 3)), ((1,), (1, 2, 3)), ((1, 3), (1, 2, 3)))
        assert ccg_edges(Code.from_indices(5, [(1, 3), (1, 2, 5), (1, 2, 3, 5),
                                               (1, 2, 4, 5)])) == pairs(
            ((1, 3), (1, 2, 3, 5)), ((1, 2, 5), (1, 2, 3, 5)), ((1, 2, 5), (1, 2, 4, 5)))
        assert ccg_edges(Code.from_indices(4, [(), (1,), (2,), (1, 2, 3), (4,)])) == pairs(
            ((), (1,)), ((), (2,)), ((), (1, 2, 3)), ((), (4,)),
            ((1,), (1, 2, 3)), ((2,), (1, 2, 3)))
        assert ccg_edges(Code.from_indices(3, [(1,), (1, 2), (3,)])) == pairs(
            ((1,), (1, 2)))
        assert not is_connected(ccg(Code.from_indices(3, [(1,), (1, 2), (3,)])))
        # complete examples: every pair joined
        assert ccg_edges(Code.from_indices(4, [(), (1,), (1, 2, 3), (1, 2, 3, 4)])) == pairs(
            ((), (1,)), ((), (1, 2, 3)), ((), (1, 2, 3, 4)),
            ((1,), (1, 2, 3)), ((1,), (1, 2, 3, 4)), ((1, 2, 3), (1, 2, 3, 4)))
        assert ccg_edges(Code.from_indices(3, [(1,), (1, 2), (1, 2, 3)])) == pairs(
            ((1,), (1, 2)), ((1,), (1, 2, 3)), ((1, 2), (1, 2, 3)))
        # 2-regular examples: the drawn 4-cycle and the cyclic code's 8-cycle
        assert ccg_edges(Code.from_indices(4, [(1,), (2,), (1, 2, 3), (1, 2, 4)])) == pairs(
            ((1,), (1, 2, 3)), ((1,), (1, 2, 4)), ((2,), (1, 2, 3)), ((2,), (1, 2, 4)))
        assert ccg_edges(cr_family(4)) == pairs(
            ((1,), (1, 2)), ((2,), (1, 2)), ((2,), (2, 3)), ((3,), (2, 3)),
            ((3,), (3, 4)), ((4,), (3, 4)), ((4,), (1, 4)), ((1,), (1, 4)))
        twelve = parse_code("12;16;56;45;34;23;123;126;156;456;345;234")
        g = ccg(twelve)
        assert is_regular(g, 2) and is_connected(g)


def test_c09_parity_sweeps():
    with criterion(9, "parity of connected 2-regular codes, exhaustive n=3 and n=4", 300.0):
        r3 = parity_suite(n=3, exhaustive=True)
        assert r3.passed and "255 codes" in r3.checks[0].detail
        r4 = parity_suite(n=4, exhaustive=True)
        assert r4.passed and "65535 codes" in r4.checks[0].detail


def test_c10_union_closure_sweeps():
    with criterion(10, "union-closure implies connected with diameter <= 2", 300.0):
        r3 = union_closure_suite(n=3, exhaustive=True)
        assert r3.passed and "255 codes" in r3.checks[0].detail
        r4 = union_closure_suite(n=4, exhaustive=True)
        assert r4.passed and "65535 codes" in r4.checks[0].detail


def test_c11_morphism_preservation():
    with criterion(11, "500 random (code, map) pairs preserve connected/complete", 60.0):
        rc = preserve_connected_suite(trials=250, seed=DEFAULT_SEED, max_n=6)
        assert rc.passed, rc.checks[0].counterexample
        rk = preserve_complete_suite(trials=250, seed=DEFAULT_SEED, max_n=6)
        assert rk.passed, rk.checks[0].counterexample


def test_c12_complete_code_classification():
    with criterion(12, "every complete code on <= 5 neurons is isomorphic to its chain", 60.0):
        result = complete_iso_suite(max_n=5)
        assert result.passed, result.checks[0].counterexample
        assert "complete codes enumerated" in result.checks[0].detail


def test_c13_realizations():
    with criterion(13, "interval and polygon realizations, plus 100 random covers", 60.0):
        result = realizations_suite(max_family=12, random_covers=100, seed=DEFAULT_SEED)
        for check in result.checks:
            assert check.passed, (check.name, check.counterexample)
