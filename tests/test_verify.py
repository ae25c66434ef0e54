"""Sweeps against brute force: the chordless-cycle and the code-space bitset
exhaustive ones over every code, sampled ones over the seeded draws, for
every `jobs` value; the orbit enumeration; and each suite's failure count,
first counterexample and its replayable rerun."""

import ast
import concurrent.futures
import hashlib
import inspect
import json
import math
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from functools import lru_cache, reduce
from operator import or_
from itertools import islice, permutations
from pathlib import Path

import pytest

from code_orbits import orbits
from neurocode import _space, cli, ideal, verify
from neurocode.codes import (
    ADD_TRIVIAL_ON,
    INCLUSION,
    Code,
    ElementaryMap,
    apply_elementary_map,
    cc_family,
    cr_family,
    union_closure_condition,
)
from neurocode.graphs import _diameter, ccg, diameter, is_complete, is_connected, is_regular
from neurocode.realization import (
    AMBIENT_UNION,
    cc_m_intervals,
    code_of_intervals,
    cover_to_json_obj,
    cr_k_polygon,
)
from neurocode.verify import (
    _parity_everyone,
    _parity_violation,
    _random_spec,
    _sweep_suite,
    _union_closure_sets,
    _union_closure_violation,
)


def brute_code(n, idx):
    return Code.from_masks(n, [p for p in range(1 << n) if idx >> p & 1])


def brute_orbit(n, idx):
    """Images of a code index under every neuron permutation, computed
    word by word."""
    orbit = set()
    for perm in permutations(range(n)):
        image = 0
        for p in range(1 << n):
            if idx >> p & 1:
                image |= 1 << sum(1 << perm[i] for i in range(n) if p >> i & 1)
        orbit.add(image)
    return orbit


# Predicates that do have violations. Like the sweep predicates they test a
# code index against the comparability table; CODE_TESTS holds the same test
# on a Code, which brute force runs through brute_code and ccg.
def small_connected(idx, comparable):
    if idx.bit_count() not in (3, 5, 6):
        return False
    reached = idx & -idx
    while True:
        grown = reached
        for w, around in enumerate(comparable):
            if reached >> w & 1:
                grown |= around & idx
        if grown == reached:
            return reached == idx
        reached = grown


def odd_size(idx, comparable):
    return idx.bit_count() % 2 == 1


CODE_TESTS = {
    small_connected: lambda code: len(code) in (3, 5, 6) and is_connected(ccg(code)),
    odd_size: lambda code: len(code) % 2 == 1,
}


def brute_suite(predicate):
    """A sweep suite on `predicate` whose exhaustive run tests every index."""
    def everyone(n):
        return _space.violations(predicate, _space.comparable(n), range(1, 1 << (1 << n)))

    return _sweep_suite(predicate.__name__.replace("_", "-"), predicate, "", 4, everyone)


@pytest.mark.parametrize("n, count", [(1, 3), (2, 11), (3, 79), (4, 3983)])
def test_orbit_counts(n, count):
    found = list(orbits(n))
    assert len(found) == count
    assert sum(size for _, size in found) == (1 << (1 << n)) - 1
    assert [rep for rep, _ in found] == sorted({rep for rep, _ in found})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbits_partition_codes_with_smallest_representative(n):
    for rep, size in orbits(n):
        if n <= 3 or rep % 97 == 0:
            orbit = brute_orbit(n, rep)
            assert (rep, size) == (min(orbit), len(orbit))
    if n <= 3:
        minima = {min(brute_orbit(n, idx)) for idx in range(1, 1 << (1 << n))}
        assert {rep for rep, _ in orbits(n)} == minima


def test_orbits_capped_at_the_exhaustive_cap():
    with pytest.raises(ValueError, match="n must be at most 4, got 5"):
        next(orbits(5))


def test_orbits_reject_n_below_one():
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        list(orbits(0))


# sha256 of repr(list(orbits(n))), recorded from the byte-table enumeration
# that the direct one replaced
ORBIT_DIGESTS = {
    1: "5eb2fa25352be47e4310899a988d8ce1de1302c3d850343210be03f9c37e1a91",
    2: "634925c3a20b20d8b65d1fc3a21e471d1d26c4a53ad05c71edaf00f10aafb006",
    3: "12fa0c9142550685e00e4ab004ddd88ce3dab10848f58c415746b64b4706e6a4",
    4: "92d0afa681e46cd4e11dad2b999bb67f6f4ce10982a9c9d0e764976fad1eb0e4",
}


@pytest.mark.parametrize("n", sorted(ORBIT_DIGESTS))
def test_orbits_pinned(n):
    text = repr(list(orbits(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == ORBIT_DIGESTS[n]


PREDICATES = (small_connected, odd_size)


@lru_cache(maxsize=None)
def brute_violations(n):
    """Per predicate, the violating code indices of a test of every code."""
    bad = {p: [] for p in PREDICATES}
    for idx in range(1, 1 << (1 << n)):
        code = brute_code(n, idx)
        for predicate in PREDICATES:
            if CODE_TESTS[predicate](code):
                bad[predicate].append(idx)
    return bad


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_violations_match_brute_force(n, predicate):
    bad = brute_violations(n)[predicate]
    # Codes on 1 neuron have at most 2 codewords, so only odd_size fires.
    assert bad or (n, predicate) == (1, small_connected)
    assert _space.violations(predicate, _space.comparable(n), range(1, 1 << (1 << n))) == \
        (len(bad), min(bad, default=None))


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("n, sample, seed", [(2, 60, 5), (3, 500, 5), (4, 3000, 11)])
def test_sampled_sweep_same_for_every_jobs(n, sample, seed, predicate):
    rng = random.Random(seed)
    draws = [rng.randrange(1, 1 << (1 << n)) for _ in range(sample)]
    bad = [idx for idx in draws if CODE_TESTS[predicate](brute_code(n, idx))]
    assert bad
    for jobs in (1, 2, 3):
        check, = brute_suite(predicate)(n=n, sample=sample, seed=seed, jobs=jobs).checks
        assert check.detail == f"{sample} codes scanned, {len(bad)} violations"
        assert check.counterexample["code"] == f"n={n};{brute_code(n, min(bad)).to_text()}"


def test_known_violation_counts():
    for n, scanned, count in [(3, 255, 126), (4, 65535, 10279)]:
        check, = brute_suite(small_connected)(n=n).checks
        assert check.detail == f"{scanned} codes scanned, {count} violations"


@lru_cache(maxsize=None)
def cycle_codes(n):
    """The code indices on n neurons whose CCG, built by `ccg`, is connected
    and 2-regular on at least 4 codewords, in ascending order."""
    return [idx for idx in range(1, 1 << (1 << n)) if idx.bit_count() >= 4
            for g in [ccg(brute_code(n, idx))] if is_regular(g, 2) and is_connected(g)]


def six_words(idx, comparable):
    return idx.bit_count() == 6


@pytest.mark.parametrize("n, count", [(1, 0), (2, 0), (3, 1), (4, 78)])
def test_chordless_cycle_search_yields_each_cycle_code_once(n, count):
    assert len(cycle_codes(n)) == count
    # one more than expected, so a search that repeats codes without end stops
    found = list(islice(_space.chordless_cycles(n, _space.comparable(n)), count + 1))
    assert len(set(found)) == len(found)
    assert set(found) == set(cycle_codes(n))


@pytest.mark.parametrize("predicate", [_parity_violation, six_words],
                         ids=lambda p: p.__name__)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_searched_sweep_matches_brute_force(monkeypatch, n, predicate):
    """`_parity_violation` against every index, so no code outside the
    search's cycle codes may violate; `six_words`, which holds off them too,
    in its place against the cycle codes."""
    comparable = _space.comparable(n)
    codes = range(1, 1 << (1 << n)) if predicate is _parity_violation else cycle_codes(n)
    bad = [idx for idx in codes if predicate(idx, comparable)]
    assert bool(bad) == (predicate is six_words and n >= 3)
    monkeypatch.setattr(verify, "_parity_violation", predicate)
    assert _parity_everyone(n) == (len(bad), min(bad, default=None))


def test_chordless_cycle_search_on_five_neurons():
    """The codes the n=5 parity sweep tests: each a connected 2-regular
    CCG, and every length even."""
    cycles = list(_space.chordless_cycles(5, _space.comparable(5)))
    assert len(set(cycles)) == len(cycles) == 5191
    assert Counter(idx.bit_count() for idx in cycles) == \
        {4: 150, 6: 2725, 8: 2070, 10: 216, 12: 30}
    for idx in cycles:
        g = ccg(brute_code(5, idx))
        assert is_regular(g, 2) and is_connected(g), idx


@pytest.mark.parametrize("n, longest", [(3, 6), (4, 8), (5, 12)])
def test_longest_cycle_ccg(n, longest):
    """The most codewords of a code on n neurons whose CCG is a cycle of 4
    or more words. The crown code {i}, {i, i+1 mod n}, a 2n-cycle, is
    longest at n = 3 and 4 but not at n = 5."""
    cycles = _space.chordless_cycles(n, _space.comparable(n))
    assert max(idx.bit_count() for idx in cycles) == longest
    if n <= 4:
        assert max(idx.bit_count() for idx in cycle_codes(n)) == longest


def test_failing_sweep_builds_one_code(monkeypatch):
    built = []

    def code_from_index(n, idx):
        built.append(idx)
        return brute_code(n, idx)

    monkeypatch.setattr(_space, "code_from_index", code_from_index)
    check, = brute_suite(odd_size)(n=4).checks
    assert built == [1]
    assert check.detail == "65535 codes scanned, 32768 violations"
    assert check.counterexample["code"] == "n=4;{}"


def structure(code):
    g = ccg(code)
    idx, comparable = sum(1 << w for w in code.masks), _space.comparable(code.n)
    return (_parity_violation(idx, comparable), _union_closure_violation(idx, comparable),
            len(code), union_closure_condition(code), is_connected(g), is_regular(g, 2),
            diameter(g))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_predicates_invariant_under_permutation(n):
    maps = [ElementaryMap.permutation([i + 1 for i in perm])
            for perm in permutations(range(n))]
    for idx in range(1, 1 << (1 << n)):
        code = brute_code(n, idx)
        expected = structure(code)
        for spec in maps:
            image, _ = apply_elementary_map(code, spec)
            assert structure(image) == expected, (code.to_text(), spec.describe())


@pytest.mark.parametrize("n", range(1, 9))
def test_comparable_table_matches_definition(n):
    words = range(1 << n)
    assert _space.comparable(n) == [sum(1 << v for v in words if v != w and v & w in (v, w))
                                    for w in words]


def oracle(n, idx):
    """(parity violation, union-closure violation, diameter) of the code
    with index `idx`, from the definitions alone: an edge wherever one
    codeword strictly contains another, distances by Floyd-Warshall, and a
    top codeword as one containing every codeword."""
    words = [w for w in range(1 << n) if idx >> w & 1]
    dist = [[0 if v == w else 1 if v & w in (v, w) else math.inf for w in words]
            for v in words]
    degrees = [row.count(1) for row in dist]
    for k, through in enumerate(dist):
        for row in dist:
            for j, d in enumerate(through):
                if row[k] + d < row[j]:
                    row[j] = row[k] + d
    diam = max(max(row) for row in dist)
    m = len(words)
    top = any(all(v & w == v for v in words) for w in words)
    return m > 3 and m % 2 == 1 and set(degrees) == {2} and diam < math.inf, \
        top and diam > 2, diam


def shifted(code, by):
    return [w << by for w in code.masks]


def differential_codes(n):
    """Code indices for the oracle test on n neurons: every code for n <= 3,
    every orbit representative at n = 4, and for larger n the cycle code,
    two cycle codes on disjoint neurons and a 3-word chain beside a cycle
    code (2-regular but disconnected, evenly and oddly many words), chain
    codes, and seeded random codes, every other one with the OR of its
    words added."""
    if n <= 3:
        return range(1, 1 << (1 << n))
    if n == 4:
        return [rep for rep, _ in orbits(4)]
    rng = random.Random(f"differential:{n}")
    codes = [cr_family(n).masks, [(1 << i) - 1 for i in range(n + 1)]]
    codes += [verify._random_chain_code(rng, n).masks for _ in range(20)]
    if n >= 6:
        codes.append([*cr_family(3).masks, *shifted(cr_family(n - 3), 3)])
        codes.append([1, 3, 7, *shifted(cr_family(n - 3), 3)])
    for i in range(200):
        words = rng.sample(range(1 << n), rng.randint(1, 24))
        if i % 2:
            words.append(reduce(or_, words))
        codes.append(words)
    return [sum(1 << w for w in set(words)) for words in codes]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_sweep_predicates_match_definitions(n):
    comparable = _space.comparable(n)
    seen = set()
    for idx in differential_codes(n):
        parity, union, diam = oracle(n, idx)
        assert _parity_violation(idx, comparable) == parity, (n, idx)
        assert _union_closure_violation(idx, comparable) == union, (n, idx)
        assert _diameter([c & idx for c in comparable], idx) == diam, (n, idx)
        seen.add(diam)
    # the codes reach disconnected graphs from n = 2 on and, from n = 3 on,
    # finite diameters above 2, which the union-closure check must not report
    assert n == 1 or math.inf in seen
    assert n <= 2 or max(seen - {math.inf}) > 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_columns_match_definitions(n):
    """Every code on n <= 3, the empty one included, and 2000 seeded codes
    at n = 4, word mask by word mask against the codewords themselves."""
    has, around, inside = _space.columns(n)
    rng = random.Random(f"columns:{n}")
    indices = range(1 << (1 << n)) if n <= 3 else \
        [rng.randrange(1 << (1 << n)) for _ in range(2000)]
    words = range(1 << n)
    for idx in indices:
        code = [w for w in words if idx >> w & 1]
        for u in words:
            assert (has[u] >> idx & 1, around[u] >> idx & 1, inside[u] >> idx & 1) == \
                (u in code, any(w & u == u for w in code), any(w & u == w for w in code)), \
                (n, idx, u)


@pytest.mark.parametrize("n", [0, 5])
def test_columns_capped(n):
    with pytest.raises(ValueError, match=f"^n must be in 1..4, got {n}$"):
        _space.columns(n)


def meets_union_condition(n, idx):
    """Every union of two codewords of the code with index `idx` lies in
    one of its codewords, pair by pair."""
    words = [w for w in range(1 << n) if idx >> w & 1]
    return all(any(a | b | w == w for w in words) for a in words for b in words)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_union_closure_sets_match_definitions(n):
    union, far = _union_closure_sets(n)
    for idx in range(1, 1 << (1 << n)):
        assert union >> idx & 1 == meets_union_condition(n, idx), (n, idx)
        assert far >> idx & 1 == (oracle(n, idx)[2] > 2), (n, idx)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_union_closure_sets_match_per_code_tests(n):
    """Against the top-codeword reduction (union_closure_condition),
    _diameter and the sampled sweep's predicate, on every code; the empty
    index 0 has no two codewords apart and is never reported."""
    comparable = _space.comparable(n)
    union, far = _union_closure_sets(n)
    assert not far & 1
    for idx in range(1, 1 << (1 << n)):
        expected = (union_closure_condition(brute_code(n, idx)),
                    _diameter([c & idx for c in comparable], idx) > 2,
                    _union_closure_violation(idx, comparable))
        assert (union >> idx & 1, far >> idx & 1, (union & far) >> idx & 1) == expected, idx


def test_union_closure_sweep_fails_on_a_wrong_column(monkeypatch):
    """A column around[{1, 2}] that forgets the codewords strictly around
    {1, 2} hides the common neighbours of {1} and {2} above them. The codes
    that then look far apart and have a top codeword are those with {1} and
    {2}, without {} and {1, 2}, and with a top around {1, 2}: 2^3 = 8 at
    n=3, with top {1, 2, 3}; 8 + 8 + 2^11 = 2064 at n=4, with top {1, 2, 3},
    {1, 2, 4} or {1, 2, 3, 4}. The exhaustive sweep must count every one."""
    columns = _space.columns

    def wrong_columns(n):
        has, around, inside = columns(n)
        around[0b0011] = has[0b0011]
        return has, around, inside

    monkeypatch.setattr(_space, "columns", wrong_columns)
    for n, bad in [(3, 8), (4, 2064)]:
        check, = verify.union_closure_suite(n=n).checks
        assert (check.passed, check.detail) == \
            (False, f"{(1 << (1 << n)) - 1} codes scanned, {bad} violations"), n


@pytest.mark.parametrize("func", [verify._union_closure_sets, ideal.canonical_form_oracle])
def test_set_differences_take_no_complement(func):
    """A difference of two 2^(2^n)-bit columns, or of two subset-lattice
    bitsets, is written x ^ (x & y), never x & ~y: CPython stores an int as
    sign and magnitude, so ~y builds a new negative int and & converts it to
    two's complement first. On 65536-bit ints (2 vCPUs, Python 3.11.7),
    a & b took 0.47 us, ~a 1.9 us, a & ~b 6.7 us and a ^ (a & b) 1.6 us;
    union_closure_suite(n=4) fell from 542 to 340 us, best of 5x200 calls."""
    tree = ast.parse(inspect.getsource(func))
    assert not any(isinstance(node, ast.Invert) for node in ast.walk(tree))


def test_parity_sweep_fails_on_a_wrong_table(monkeypatch):
    """Without the edge between {1} and {1, 2, 3} the comparability table
    makes 12 codes at n=4 odd connected 2-regular, the smallest (index 1958)
    a 7-cycle through both words; a brute-force count over every code with
    the same edge removed finds the same 12. The exhaustive sweep must
    report them."""
    comparable = _space.comparable

    def wrong_table(n):
        table = comparable(n)
        table[0b0001] &= ~(1 << 0b0111)
        table[0b0111] &= ~(1 << 0b0001)
        return table

    monkeypatch.setattr(_space, "comparable", wrong_table)
    check, = verify.parity_suite(n=4, exhaustive=True).checks
    assert (check.passed, check.detail) == (False, "65535 codes scanned, 12 violations")
    assert check.counterexample["code"] == f"n=4;{brute_code(4, 1958).to_text()}"


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("suite, params", [
    (verify.parity_suite, {"n": 4, "exhaustive": True}),
    (verify.parity_suite, {"n": 5, "exhaustive": True}),
    (verify.parity_suite, {"n": 8, "sample": 2000, "seed": 3}),
    (verify.union_closure_suite, {"n": 4}),
    (verify.union_closure_suite, {"n": 8, "sample": 2000, "seed": 3}),
], ids=lambda p: p.__name__ if callable(p) else "-".join(f"{k}{v}" for k, v in p.items()))
def test_sweep_starts_no_worker(monkeypatch, suite, params, jobs):
    expected = suite(**params, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert suite(**params, jobs=jobs) == expected


def test_sampled_sweep_loads_no_process_pool():
    """In a fresh interpreter, so that no other test has loaded the pool."""
    check = ("import sys; from neurocode import cli; "
             "status = cli.main(['verify', 'union-closure', '--n', '8', "
             "'--sample', '2000', '--jobs', '2']); "
             "sys.exit(status or 'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("n", [1, 2, 5, 62, 63, 64])
def test_random_inclusion_adds_distinct_words(n):
    # below 63 neurons the seeded draw is rng.sample over every word, as
    # the pinned reports were recorded with; from 63 on that range cannot
    # be sampled, and the words are distinct getrandbits(n) draws
    code = Code.from_masks(n, [0])
    for seed in range(40):
        target = _random_spec(random.Random(seed), code, [INCLUSION]).target
        rng = random.Random(seed)
        rng.choice([INCLUSION])
        k = min(1 << n, rng.randint(1, 4))
        if n < 63:
            assert set(target.masks) == {0, *rng.sample(range(1 << n), k)}
        else:
            assert len(target.masks) == k + 1
            assert all(0 <= w < 1 << n for w in target.masks)


def test_random_chain_codes_are_complete():
    rng = random.Random(5)
    for _ in range(300):
        assert is_complete(ccg(verify._random_chain_code(rng, rng.randint(1, 8))))


def run_rerun(capsys, rerun):
    """Run a counterexample's `rerun` line in process and return its status
    and `--json` report."""
    argv = shlex.split(rerun)
    assert argv[0] == "neurocode"
    capsys.readouterr()
    status = cli.main(argv[1:] + ["--json"])
    out, err = capsys.readouterr()
    assert status != 2, err
    return status, json.loads(out)


SILENT_TOP = Code(3, [0, 1])  # neurons 2 and 3 never fire
SILENT_TOP_MAPS = [
    ElementaryMap.permutation([2, 3, 1]),
    ElementaryMap.add_trivial_on(),
    ElementaryMap.add_trivial_off(),
    ElementaryMap.duplicate(3),
    ElementaryMap.delete(3),
    ElementaryMap.inclusion(Code(3, [0, 1, 2])),
]


@pytest.mark.parametrize("spec", SILENT_TOP_MAPS, ids=lambda spec: spec.kind)
def test_map_counterexample_reruns_with_silent_top_neuron(capsys, spec):
    counter = verify._counterexample(SILENT_TOP, "map", spec, SILENT_TOP)
    assert counter["code"] == "n=3;{};{1}"
    assert counter["map"] == spec.describe()
    status, report = run_rerun(capsys, counter["rerun"])
    assert status == 0
    assert report["outputs"]["code"] == SILENT_TOP.to_json_obj()
    assert report["outputs"]["map"] == spec.describe()


def test_sweep_tally_counts_every_violation_and_reruns_the_first(capsys):
    (check,) = brute_suite(odd_size)(n=2).checks
    expected = brute_violations(2)[odd_size]
    assert check.detail == f"15 codes scanned, {len(expected)} violations"
    first = brute_code(2, expected[0])
    assert check.counterexample["code"] == f"n=2;{first.to_text()}"
    assert check.counterexample["suite"] == "odd-size"
    _, report = run_rerun(capsys, check.counterexample["rerun"])
    assert report["outputs"]["code"] == first.to_json_obj()


def test_complete_iso_tally_counts_every_failure_and_keeps_the_first(capsys, monkeypatch):
    real = verify.is_isomorphism
    monkeypatch.setattr(verify, "is_isomorphism", lambda f: real(f) and len(f.domain) != 2)
    (check,) = verify.complete_iso_suite(max_n=3).checks
    two_word_chains = sum(3 ** n - 2 ** n for n in range(1, 4))
    assert check.detail.endswith(f", {two_word_chains} failures")
    assert not check.passed
    first = next(code for n in range(1, 4) for code in verify._all_chain_codes(n)
                 if len(code) == 2)
    assert check.counterexample["code"] == f"n={first.n};{first.to_text()}"
    _, report = run_rerun(capsys, check.counterexample["rerun"])
    assert report["outputs"]["code"] == first.to_json_obj()


def test_cf_theorems_tally_counts_every_mismatch_of_a_broken_rule(capsys, monkeypatch):
    real = verify.predict_cf
    monkeypatch.setattr(verify, "predict_cf",
                        lambda cf, spec: None if spec.kind == ADD_TRIVIAL_ON else real(cf, spec))
    trials, seed, max_n = 60, 11, 2
    result = verify.cf_theorems_suite(trials=trials, seed=seed, max_n=max_n)
    bad = {c.name: int(c.detail.split(", ")[1].split()[0]) for c in result.checks}
    assert bad == {f"cf-{kind}": trials if kind == ADD_TRIVIAL_ON else 0
                   for kind in verify.CF_THEOREM_KINDS}
    rng = random.Random(f"{seed}:{ADD_TRIVIAL_ON}")
    draws = []
    for _ in range(trials):
        draws.append(verify._random_code(rng, rng.randint(1, max_n)))
        verify._random_spec(rng, draws[-1], [ADD_TRIVIAL_ON])
    # repeated and distinct draws, so a tally that dropped duplicates or
    # kept the last counterexample would not match
    assert len(set(draws)) < trials and draws[0] != draws[-1]
    (check,) = [c for c in result.checks if c.name == f"cf-{ADD_TRIVIAL_ON}"]
    assert check.counterexample["code"] == f"n={draws[0].n};{draws[0].to_text()}"
    status, report = run_rerun(capsys, check.counterexample["rerun"])
    assert status == 0
    assert report["outputs"]["code"] == draws[0].to_json_obj()
    assert report["outputs"]["map"] == ElementaryMap.add_trivial_on().describe()


def test_realizations_tally_and_reruns(capsys, monkeypatch):
    monkeypatch.setattr(verify, "cc_family", lambda m: cc_family(m + (m == 4)))
    monkeypatch.setattr(verify, "cr_family", lambda k: cr_family(k + (k >= 5)))
    # the suite hands each realized code to the oracle; a union cover's code
    # is the only kind without the empty word, so this fails exactly those
    real = verify.canonical_form_oracle
    monkeypatch.setattr(verify, "canonical_form_oracle",
                        lambda code: None if 0 not in code.masks else real(code))
    covers, seed = 40, 3
    chain, cycle, interval_cf = verify.realizations_suite(
        max_family=6, random_covers=covers, seed=seed).checks
    assert chain.counterexample == {"m": 4, "rerun": "neurocode realize --family cc:4"}
    assert cycle.counterexample == {"k": 5, "rerun": "neurocode realize --family cr:5"}
    rng = random.Random(seed)
    drawn = [verify._random_interval_cover(rng) for _ in range(covers)]
    union = [cover for cover in drawn if cover.ambient == AMBIENT_UNION]
    assert 1 < len(union) < covers
    assert interval_cf.detail == f"{covers} random covers, {len(union)} canonical-form mismatches"
    for check, cover in [(chain, cc_m_intervals(4)), (cycle, cr_k_polygon(5))]:
        assert not check.passed
        _, report = run_rerun(capsys, check.counterexample["rerun"])
        assert report["outputs"]["cover"] == cover_to_json_obj(cover)
    realized = code_of_intervals(union[0])
    assert interval_cf.counterexample["code"] == f"n={realized.n};{realized.to_text()}"
    status, report = run_rerun(capsys, interval_cf.counterexample["rerun"])
    assert status == 0
    assert report["outputs"]["cover"] == cover_to_json_obj(union[0])
    assert report["outputs"]["code"] == realized.to_json_obj()
