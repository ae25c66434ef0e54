"""Sweeps against brute force: the degree-pruned and the code-space bitset
exhaustive ones over every code, sampled ones over the seeded draws, for
every worker count; the orbit enumeration; and each suite's failure count,
first counterexample and its replayable rerun."""

import concurrent.futures
import hashlib
import json
import math
import random
import shlex
from functools import lru_cache, reduce
from operator import or_
from itertools import islice, permutations

import pytest

from neurocode import cli, verify
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
    _comparable,
    _degree_pruned,
    _orbits,
    _parity_violation,
    _random_spec,
    _run_sweep,
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


# Predicates that do have violations, at module level so that `jobs=2`
# workers can unpickle them. Like the sweep predicates they test a code
# index against the comparability table; CODE_TESTS holds the same test on
# a Code, which brute force runs through brute_code and ccg.
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
    return _sweep_suite(predicate.__name__.replace("_", "-"), predicate, "", 4,
                        lambda n, jobs: _run_sweep(predicate, n, range(1, 1 << (1 << n)), jobs))


@pytest.mark.parametrize("n, count", [(1, 3), (2, 11), (3, 79), (4, 3983)])
def test_orbit_counts(n, count):
    orbits = list(_orbits(n))
    assert len(orbits) == count
    assert sum(size for _, size in orbits) == (1 << (1 << n)) - 1
    assert [rep for rep, _ in orbits] == sorted({rep for rep, _ in orbits})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbits_partition_codes_with_smallest_representative(n):
    for rep, size in _orbits(n):
        if n <= 3 or rep % 97 == 0:
            orbit = brute_orbit(n, rep)
            assert (rep, size) == (min(orbit), len(orbit))
    if n <= 3:
        minima = {min(brute_orbit(n, idx)) for idx in range(1, 1 << (1 << n))}
        assert {rep for rep, _ in _orbits(n)} == minima


def test_orbits_capped_at_the_exhaustive_cap():
    with pytest.raises(ValueError, match="n must be at most 4, got 5"):
        next(_orbits(5))


def test_orbits_reject_n_below_one():
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        list(_orbits(0))


# sha256 of repr(list(_orbits(n))), recorded from the byte-table enumeration
# that the direct one replaced
ORBIT_DIGESTS = {
    1: "5eb2fa25352be47e4310899a988d8ce1de1302c3d850343210be03f9c37e1a91",
    2: "634925c3a20b20d8b65d1fc3a21e471d1d26c4a53ad05c71edaf00f10aafb006",
    3: "12fa0c9142550685e00e4ab004ddd88ce3dab10848f58c415746b64b4706e6a4",
    4: "92d0afa681e46cd4e11dad2b999bb67f6f4ce10982a9c9d0e764976fad1eb0e4",
}


@pytest.mark.parametrize("n", sorted(ORBIT_DIGESTS))
def test_orbits_pinned(n):
    text = repr(list(_orbits(n)))
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
def test_run_sweep_matches_brute_force(n, predicate):
    bad = brute_violations(n)[predicate]
    # Codes on 1 neuron have at most 2 codewords, so only odd_size fires.
    assert bad or (n, predicate) == (1, small_connected)
    for jobs in (1, 2):
        assert _run_sweep(predicate, n, range(1, 1 << (1 << n)), jobs) == \
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


class InlinePool:
    """Stands in for concurrent.futures.ProcessPoolExecutor, which
    `verify._run_sweep` imports when it runs, and records the worker count
    it is asked for and the chunks it is given."""
    chunks = []
    workers = None

    def __init__(self, max_workers):
        InlinePool.workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        InlinePool.chunks = [task[2] for task in tasks]
        return map(fn, tasks)


def test_sampled_sweep_splits_draws_between_workers(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    suite = brute_suite(odd_size)
    result = suite(n=3, sample=500, seed=7, jobs=2)
    rng = random.Random(7)
    assert [draw for chunk in InlinePool.chunks for draw in chunk] == \
        [rng.randrange(1, 256) for _ in range(500)]
    assert InlinePool.workers == 2
    assert len(InlinePool.chunks) > 1
    assert result == suite(n=3, sample=500, seed=7, jobs=1)


def test_pool_asks_for_no_more_workers_than_tasks(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "workers", None)
    result = verify.parity_suite(n=1, exhaustive=True, jobs=8)
    assert result.checks[0].detail == "3 codes scanned, 0 violations"
    assert InlinePool.workers <= 3


def test_known_violation_counts():
    for n, scanned, count in [(3, 255, 126), (4, 65535, 10279)]:
        check, = brute_suite(small_connected)(n=n).checks
        assert check.detail == f"{scanned} codes scanned, {count} violations"


def degrees(idx, comparable):
    """The number of neighbours of each codeword in the containment graph."""
    bits = idx
    while bits:
        low = bits & -bits
        yield (comparable[low.bit_length() - 1] & idx).bit_count()
        bits ^= low


def low_degree(idx, comparable):
    return all(d <= 2 for d in degrees(idx, comparable))


def odd_low_degree(idx, comparable):
    return idx.bit_count() % 2 == 1 and low_degree(idx, comparable)


@pytest.mark.parametrize("n, count", [(1, 3), (2, 14), (3, 114), (4, 3384)])
def test_degree_pruned_search_reaches_each_low_degree_code_once(n, count):
    comparable = _comparable(n)
    expected = [idx for idx in range(1, 1 << (1 << n)) if low_degree(idx, comparable)]
    assert len(expected) == count
    # one more than expected, so a search that repeats codes without end stops
    reached = list(islice(_degree_pruned(n, comparable, range(1 << n)), count + 1))
    assert sorted(reached) == expected


@pytest.mark.parametrize("predicate", [_parity_violation, odd_low_degree],
                         ids=lambda p: p.__name__)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_searched_sweep_matches_brute_force(n, predicate):
    comparable = _comparable(n)
    bad = [idx for idx in range(1, 1 << (1 << n)) if predicate(idx, comparable)]
    assert bool(bad) == (predicate is odd_low_degree)
    for jobs in (1, 2):
        assert _run_sweep(predicate, n, range(1 << n), jobs, _degree_pruned) == \
            (len(bad), min(bad, default=None))


def test_degree_pruned_search_on_five_neurons():
    """The codes the n=5 parity sweep tests, and among them the connected
    2-regular ones on more than 3 codewords, every one of them even."""
    comparable = _comparable(5)
    reached, two_regular = 0, []
    for idx in _degree_pruned(5, comparable, range(32)):
        reached += 1
        if idx.bit_count() > 3 and all(d == 2 for d in degrees(idx, comparable)):
            two_regular.append(idx)
    cycles = [idx for idx in two_regular if is_connected(ccg(brute_code(5, idx)))]
    assert (reached, len(cycles)) == (1102069, 5191)
    assert all(idx.bit_count() % 2 == 0 for idx in cycles)


def test_failing_sweep_builds_one_code(monkeypatch):
    built = []

    def code_from_index(n, idx):
        built.append(idx)
        return brute_code(n, idx)

    monkeypatch.setattr(verify, "_code_from_index", code_from_index)
    check, = brute_suite(odd_size)(n=4).checks
    assert built == [1]
    assert check.detail == "65535 codes scanned, 32768 violations"
    assert check.counterexample["code"] == "n=4;{}"


def structure(code):
    g = ccg(code)
    idx, comparable = sum(1 << w for w in code.masks), _comparable(code.n)
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
    assert _comparable(n) == [sum(1 << v for v in words if v != w and v & w in (v, w))
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
        return [rep for rep, _ in _orbits(4)]
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
    comparable = _comparable(n)
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
    comparable = _comparable(n)
    union, far = _union_closure_sets(n)
    assert not far & 1
    for idx in range(1, 1 << (1 << n)):
        expected = (union_closure_condition(brute_code(n, idx)),
                    _diameter([c & idx for c in comparable], idx) > 2,
                    _union_closure_violation(idx, comparable))
        assert (union >> idx & 1, far >> idx & 1, (union & far) >> idx & 1) == expected, idx


def test_exhaustive_union_closure_starts_no_worker(monkeypatch):
    expected = verify.union_closure_suite(n=4, jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert verify.union_closure_suite(n=4, jobs=2) == expected


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
