"""Sweeps against brute force: orbit-reduced exhaustive ones over every
code, sampled ones over the seeded draws, for every worker count."""

import random
from functools import lru_cache
from itertools import permutations

import pytest

from neurocode import verify
from neurocode.codes import INCLUSION, Code, ElementaryMap, apply_elementary_map, union_closure_condition
from neurocode.graphs import ccg, diameter, is_connected, is_regular
from neurocode.verify import (
    _orbit,
    _orbit_representatives,
    _orbit_tables,
    _parity_violation,
    _random_spec,
    _run_sweep,
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


# Permutation-invariant predicates that do have violations, at module level
# so that `jobs=2` workers can unpickle them.
def small_connected(code):
    return len(code) in (3, 5, 6) and is_connected(ccg(code))


def odd_size(code):
    return len(code) % 2 == 1


@pytest.mark.parametrize("n, count", [(1, 3), (2, 11), (3, 79), (4, 3983)])
def test_orbit_counts(n, count):
    assert sum(1 for _ in _orbit_representatives(n, _orbit_tables(n))) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbits_partition_codes_with_smallest_representative(n):
    tables = _orbit_tables(n)
    covered = set()
    for rep in _orbit_representatives(n, tables):
        orbit = _orbit(rep, tables)
        assert min(orbit) == rep
        assert not orbit & covered
        covered |= orbit
        if n <= 3 or rep % 97 == 0:
            assert orbit == brute_orbit(n, rep)
    assert covered == set(range(1, 1 << (1 << n)))


PREDICATES = (small_connected, odd_size)


@lru_cache(maxsize=None)
def brute_violations(n):
    """Per predicate, the violating code indices of a test of every code."""
    bad = {p: [] for p in PREDICATES}
    for idx in range(1, 1 << (1 << n)):
        code = brute_code(n, idx)
        for predicate in PREDICATES:
            if predicate(code):
                bad[predicate].append(idx)
    return bad


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_sweep_matches_brute_force(n, predicate):
    expected = brute_violations(n)[predicate]
    # Codes on 1 neuron have at most 2 codewords, so only odd_size fires.
    assert expected or (n, predicate) == (1, small_connected)
    for jobs in (1, 2):
        assert _run_sweep(predicate, n, True, None, 0, jobs) == ((1 << (1 << n)) - 1, expected)


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("n, sample, seed", [(2, 60, 5), (3, 500, 5), (4, 3000, 11)])
def test_sampled_sweep_same_for_every_jobs(n, sample, seed, predicate):
    rng = random.Random(seed)
    draws = [rng.randrange(1, 1 << (1 << n)) for _ in range(sample)]
    expected = sorted(idx for idx in draws if predicate(brute_code(n, idx)))
    assert expected
    for jobs in (1, 2, 3):
        assert _run_sweep(predicate, n, False, sample, seed, jobs) == (sample, expected)


class InlinePool:
    """Stands in for ProcessPoolExecutor and records the chunks it is given."""
    chunks = []

    def __init__(self, max_workers):
        assert max_workers == 2

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        InlinePool.chunks = [task[2] for task in tasks]
        return map(fn, tasks)


def test_sampled_sweep_splits_draws_between_workers(monkeypatch):
    monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
    scanned, bad = _run_sweep(odd_size, 3, False, 500, 7, 2)
    rng = random.Random(7)
    assert [idx for chunk in InlinePool.chunks for idx in chunk] == \
        [rng.randrange(1, 256) for _ in range(500)]
    assert len(InlinePool.chunks) > 1
    assert (scanned, bad) == _run_sweep(odd_size, 3, False, 500, 7, 1)


def test_known_violation_counts():
    assert len(_run_sweep(small_connected, 3, True, None, 0, 1)[1]) == 126
    assert len(_run_sweep(small_connected, 4, True, None, 0, 1)[1]) == 10279


def structure(code):
    g = ccg(code)
    return (_parity_violation(code), _union_closure_violation(code), len(code),
            union_closure_condition(code), is_connected(g), is_regular(g, 2), diameter(g))


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
