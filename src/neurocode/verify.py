"""Batch verifiers: exhaustive and randomized sweeps over code space that
exercise the library's propositions and report violations with replayable
counterexamples."""

from __future__ import annotations

import json
import random
import shlex
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .codes import (
    ADD_TRIVIAL_OFF,
    ADD_TRIVIAL_ON,
    DELETE,
    DUPLICATE,
    INCLUSION,
    MAX_NEURONS,
    PERMUTATION,
    Code,
    ElementaryMap,
    apply_elementary_map,
    cc_family,
    complete_iso,
    cr_family,
    is_isomorphism,
    permute_mask,
    submasks,
)
from .graphs import _diameter, _layers, ccg, grg, is_connected, is_complete, is_regular
from .ideal import canonical_form, predict_cf
from .realization import (
    AMBIENT_LINE,
    AMBIENT_UNION,
    IntervalCover,
    cc_m_intervals,
    cf_from_intervals,
    code_of_intervals,
    code_of_segments,
    cover_to_json_obj,
    cr_k_polygon,
)

DEFAULT_SEED = 1729
EXHAUSTIVE_MAX_NEURONS = 4
# A sampled sweep draws indices below 2^(2^n) and decodes each over 2^n words.
SAMPLED_MAX_NEURONS = 8
# A sampled code costs about 1-2 us for parity at any n (most codes fail the
# degree test on their first word) and 5 us (n=4) to 75-90 us (n=8) for
# union-closure, on Python 3.11, 2 vCPUs, so the largest sampled sweep runs
# from about 2 s to about 1.5 minutes.
MAX_SAMPLE = 1_000_000
# A fixed bound, not os.cpu_count(), so the exit status does not depend on
# the machine: a pool forks all its workers at the first task.
MAX_JOBS = 64
# Largest max_n where a suite's cost explodes: there its default run takes
# 3-12 s on 2 vCPUs, one neuron higher 29-52 s (measurements in README).
COMPLETE_ISO_MAX_NEURONS = 6
PRESERVE_CONNECTED_MAX_NEURONS = 11
CF_THEOREMS_MAX_NEURONS = 9


def _in_range(low: int, high: int | None = None, /, **values) -> None:
    """Reject the first given parameter below `low` or above `high`, naming it."""
    for name, value in values.items():
        if value is not None and value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
        if value is not None and high is not None and value > high:
            raise ValueError(f"{name} must be at most {high}, got {value}")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None


@dataclass
class SuiteResult:
    suite: str
    params: dict
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _code_from_index(n: int, idx: int) -> Code:
    masks = [p for p in range(1 << n) if idx >> p & 1]
    return Code.from_masks(n, masks)


# map kind -> the `neurocode map` arguments that apply a map of that kind
_MAP_ARGS = {
    PERMUTATION: lambda spec: ["--permute", ",".join(map(str, spec.perm))],
    ADD_TRIVIAL_ON: lambda spec: ["--add-on"],
    ADD_TRIVIAL_OFF: lambda spec: ["--add-off"],
    DUPLICATE: lambda spec: ["--duplicate", str(spec.neuron)],
    DELETE: lambda spec: ["--delete", str(spec.neuron)],
    INCLUSION: lambda spec: ["--include", spec.target],
}


def _counterexample(code: Code, *command, **fields) -> dict:
    """A failing case on `code`, with `fields` and as `rerun` the shell line
    `neurocode <command>`. An ElementaryMap in `command` stands for its
    `map` arguments and fills the `map` field. Each Code, `code` and an
    --include target too, is written with its n= header, which keeps the
    neurons that never fire."""
    argv = ["neurocode"]
    for part in command:
        if isinstance(part, ElementaryMap):
            fields["map"] = part.describe()
            argv += _MAP_ARGS[part.kind](part)
        else:
            argv.append(part)
    code, *argv = [f"n={part.n};{part.to_text()}" if isinstance(part, Code) else part
                   for part in (code, *argv)]
    return {"code": code, **fields, "rerun": shlex.join(argv)}


def _tally(counterexamples) -> tuple[int, dict | None]:
    """The number of counterexamples, one per failing case, and the first
    (None when every case passed)."""
    it = iter(counterexamples)
    first = next(it, None)
    return (0 if first is None else 1 + sum(1 for _ in it)), first


def _comparable(n: int) -> list[int]:
    """Per word mask w on n neurons, the bitset of the other word masks
    comparable to w, that is, strictly inside or strictly around it. Masking
    entry w with a code index (bit w set when word mask w is a codeword)
    gives the neighbours of w in the code's containment graph."""
    comparable = [0] * (1 << n)
    for w in range(1 << n):
        for s in submasks(w):
            if s != w:
                comparable[w] |= 1 << s
                comparable[s] |= 1 << w
    return comparable


def _parity_violation(idx: int, comparable: list[int]) -> bool:
    """The code with index `idx` has an odd number of codewords above 3 and
    a connected 2-regular containment graph."""
    m = idx.bit_count()
    if m <= 3 or m % 2 == 0:
        return False
    bits = idx
    while bits:
        low = bits & -bits
        if (comparable[low.bit_length() - 1] & idx).bit_count() != 2:
            return False
        bits ^= low
    nbrs = [c & idx for c in comparable]
    return sum(_layers(nbrs, (idx & -idx).bit_length() - 1)) == idx


def _union_closure_violation(idx: int, comparable: list[int]) -> bool:
    """The code with index `idx` has a top codeword, one containing all the
    others, and a containment graph of diameter above 2 (inf when it is
    disconnected). A top codeword is the OR of the codewords, so it is the
    largest mask present; that mask is the top iff it is comparable to
    every other codeword, since a word strictly around it would be larger."""
    top = idx.bit_length() - 1
    if comparable[top] & idx != idx ^ 1 << top:
        return False
    return _diameter([c & idx for c in comparable], idx) > 2


def _orbits(n: int):
    """Yield (smallest index, size) for each orbit of the code indices
    1..2^(2^n)-1 (bit p set when word mask p is a codeword) under neuron
    permutations, in ascending index order; the sizes sum to 2^(2^n)-1.

    Every permutation fixes the empty word and the full word, so the
    orbits are those of the 2^n - 2 middle words (bits 1..2^n-2 of the
    index), each taken with the four settings of those two bits. Each
    permutation maps a middle index, the index shifted right by one,
    through a low-byte and a high-byte table of OR-ed word images:
    lo[mid & 0xFF] | hi[mid >> 8]."""
    _in_range(1, EXHAUSTIVE_MAX_NEURONS, n=n)
    full = (1 << n) - 1
    tables = []
    for perm in permutations(range(1, n + 1)):
        lo, hi = [0], [0]
        for p in range(1, full):
            part, image = lo if p <= 8 else hi, 1 << (permute_mask(p, perm) - 1)
            part += [v | image for v in part]
        tables.append((lo, hi))
    middle = []
    seen = bytearray(1 << (full - 1))
    mid = 0
    while mid >= 0:
        orbit = {lo[mid & 0xFF] | hi[mid >> 8] for lo, hi in tables}
        for j in orbit:
            seen[j] = 1
        middle.append((mid << 1, len(orbit)))
        mid = seen.find(0, mid + 1)
    for top in (0, 1 << full):
        for idx, size in middle:
            if idx | top:
                yield idx | top, size
            yield idx | top | 1, size


def _sweep_chunk(args: tuple) -> tuple[int, int | None]:
    """(summed weight, smallest index) of the (index, weight) draws on
    which `violation(idx, comparable)` holds, with the comparability table
    of n neurons built once; the index is None when none does."""
    violation, n, draws = args
    comparable = _comparable(n)
    hits = [(idx, weight) for idx, weight in draws if violation(idx, comparable)]
    return sum(weight for _, weight in hits), min((idx for idx, _ in hits), default=None)


def _run_sweep(violation, n: int, exhaustive: bool, sample: int | None,
               seed: int, jobs: int) -> tuple[int, int, int | None]:
    """Run an all-codes sweep; returns (scanned, violating codes, smallest
    violating index or None).

    An exhaustive sweep tests one code per orbit under neuron permutations,
    its smallest index, and a violating orbit counts by its size, so the
    result is the one a test of every code would give. A sampled sweep
    tests `sample` seeded indices, each counting once. With `jobs > 1` the
    parent draws the indices in the same order and splits them between
    workers, so the result does not depend on `jobs`."""
    cap = EXHAUSTIVE_MAX_NEURONS if exhaustive else SAMPLED_MAX_NEURONS
    if n > cap:
        kind = "exhaustive" if exhaustive else "sampled"
        raise ValueError(f"{kind} sweeps are capped at n={cap}, got n={n}")
    total = 1 << (1 << n)
    if exhaustive:
        scanned = total - 1
        draws = _orbits(n)
    else:
        scanned = sample if sample is not None else 10000
        rng = random.Random(seed)
        draws = ((rng.randrange(1, total), 1) for _ in range(scanned))
    if jobs > 1:
        draws = list(draws)
        chunk = len(draws) // (jobs * 8) + 1
        tasks = [(violation, n, draws[lo:lo + chunk]) for lo in range(0, len(draws), chunk)]
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            parts = list(pool.map(_sweep_chunk, tasks))
    else:
        parts = [_sweep_chunk((violation, n, draws))]
    firsts = [first for _, first in parts if first is not None]
    return scanned, sum(bad for bad, _ in parts), min(firsts, default=None)


def _sweep_suite(name: str, violation, doc: str):
    """Build the suite that sweeps the codes on n neurons for `violation`:
    all of them when `exhaustive`, which by default means no `sample` and
    n <= EXHAUSTIVE_MAX_NEURONS, else `sample` (default 10000) seeded ones.

    `violation(idx, comparable)` tests the code with index `idx` against
    the `_comparable(n)` table, with no Code built; only the smallest
    violating code becomes a Code, for the counterexample. It must give the
    same answer on a code and on every code a neuron permutation maps it
    to: an exhaustive sweep tests one code per orbit, and a violating orbit
    counts by its size. This weighted count, not `_tally`, is the sweeps'
    failure count, since one failing case stands for a whole orbit."""
    def suite(n: int = 3, exhaustive: bool | None = None, sample: int | None = None,
              seed: int = DEFAULT_SEED, jobs: int = 1) -> SuiteResult:
        _in_range(1, n=n)
        _in_range(1, MAX_SAMPLE, sample=sample)
        _in_range(1, MAX_JOBS, jobs=jobs)
        if exhaustive is None:
            exhaustive = sample is None and n <= EXHAUSTIVE_MAX_NEURONS
        scanned, bad, first = _run_sweep(violation, n, exhaustive, sample, seed, jobs)
        counter = None
        if first is not None:
            code = _code_from_index(n, first)
            counter = _counterexample(code, "graph", "ccg", code, suite=name)
        params = {"n": n, "exhaustive": exhaustive, "sample": sample, "seed": seed}
        return SuiteResult(name, params, [Check(
            f"{name}-n{n}", bad == 0, f"{scanned} codes scanned, {bad} violations", counter)])

    suite.__name__ = suite.__qualname__ = name.replace("-", "_") + "_suite"
    suite.__doc__ = doc
    return suite


parity_suite = _sweep_suite(
    "parity", _parity_violation,
    "Connected 2-regular containment graphs on more than 3 codewords must\n"
    "have evenly many codewords.")

union_closure_suite = _sweep_suite(
    "union-closure", _union_closure_violation,
    "Pairwise unions landing in the code's complex force a connected\n"
    "containment graph of diameter at most 2. The codes that meet the union\n"
    "condition are exactly those with a top codeword, one containing all the\n"
    "others (see codes.union_closure_condition). So no violation can occur: a\n"
    "top codeword is adjacent to every other codeword, so the diameter is at\n"
    "most 2. _diameter settles every such graph from its degrees, with no\n"
    "breadth-first search, so the sweep checks _comparable and that degree\n"
    "rule; the search branch is checked against brute force by\n"
    "tests/test_verify.py::test_sweep_predicates_match_definitions and\n"
    "tests/test_graphs.py::TestQueriesAgainstFloydWarshall.")


def _random_code(rng: random.Random, n: int) -> Code:
    m = rng.randint(1, 1 << n)
    return Code.from_masks(n, rng.sample(range(1 << n), m))


def _random_chain_code(rng: random.Random, n: int) -> Code:
    order = list(range(n))
    rng.shuffle(order)
    m = rng.randint(1, n + 1)
    sizes = sorted(rng.sample(range(n + 1), m))
    masks = []
    for s in sizes:
        mask = 0
        for i in order[:s]:
            mask |= 1 << i
        masks.append(mask)
    return Code.from_masks(n, masks)


def _random_spec(rng: random.Random, code: Code,
                 kinds: list[str] | None = None) -> ElementaryMap:
    n = code.n
    if kinds is None:
        kinds = [PERMUTATION, ADD_TRIVIAL_ON, ADD_TRIVIAL_OFF, DUPLICATE, INCLUSION]
        if n >= 2:
            kinds.append(DELETE)
    kind = rng.choice(kinds)
    if kind == PERMUTATION:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        return ElementaryMap.permutation(perm)
    if kind == ADD_TRIVIAL_ON:
        return ElementaryMap.add_trivial_on()
    if kind == ADD_TRIVIAL_OFF:
        return ElementaryMap.add_trivial_off()
    if kind == DUPLICATE:
        return ElementaryMap.duplicate(rng.randint(1, n))
    if kind == DELETE:
        return ElementaryMap.delete(rng.randint(1, n))
    k = min(1 << n, rng.randint(1, 4))
    if n < 63:
        extra = set(rng.sample(range(1 << n), k))
    else:  # len(range(1 << 63)) overflows; k distinct draws instead
        extra = set()
        while len(extra) < k:
            extra.add(rng.getrandbits(n))
    words = set(code.masks) | extra
    return ElementaryMap.inclusion(Code.from_masks(n, words))


def _map_pairs(rng: random.Random, trials: int, draw_code,
               kinds: list[str] | None = None):
    """Yield `trials` (code, map) pairs: `draw_code()`, then a map from `rng`."""
    for _ in range(trials):
        code = draw_code()
        yield code, _random_spec(rng, code, kinds)


def _map_failures(pairs, fails) -> tuple[int, dict | None]:
    """`_tally` of the (code, map) pairs on which `fails(code, spec, image)`
    holds, `image` being the code's image under the map; each failure
    reruns as `neurocode map`."""
    return _tally(_counterexample(code, "map", spec, code) for code, spec in pairs
                  if fails(code, spec, apply_elementary_map(code, spec)[0]))


def preserve_connected_suite(trials: int = 250, seed: int = DEFAULT_SEED,
                             max_n: int = 6) -> SuiteResult:
    """Elementary maps are morphisms, so connected containment graphs must
    stay connected in the image."""
    _in_range(1, trials=trials)
    _in_range(1, PRESERVE_CONNECTED_MAX_NEURONS, max_n=max_n)
    rng = random.Random(seed)
    pairs = _map_pairs(rng, trials, lambda: _random_code(rng, rng.randint(1, max_n)))
    connected = [(code, spec) for code, spec in pairs if is_connected(ccg(code))]
    bad, counter = _map_failures(connected, lambda code, spec, image: not is_connected(ccg(image)))
    return SuiteResult("preserve-connected", {"trials": trials, "seed": seed, "max_n": max_n}, [
        Check("preserve-connected", bad == 0,
              f"{trials} pairs, {len(connected)} with connected domain, {bad} violations",
              counter)])


def preserve_complete_suite(trials: int = 250, seed: int = DEFAULT_SEED,
                            max_n: int = 6) -> SuiteResult:
    """Images of complete codes under elementary maps stay complete."""
    _in_range(1, trials=trials)
    _in_range(1, MAX_NEURONS - 1, max_n=max_n)  # a map may add a neuron
    rng = random.Random(seed)
    pairs = _map_pairs(rng, trials, lambda: _random_chain_code(rng, rng.randint(1, max_n)))
    bad, counter = _map_failures(pairs, lambda code, spec, image: not is_complete(ccg(image)))
    return SuiteResult("preserve-complete", {"trials": trials, "seed": seed, "max_n": max_n}, [
        Check("preserve-complete", bad == 0,
              f"{trials} complete codes mapped, {bad} violations", counter)])


def _all_chain_codes(n: int):
    """Every strictly increasing sequence of subsets of [n], as a code on n."""
    full = (1 << n) - 1
    stack = [(mask, (mask,)) for mask in range(full + 1)]
    while stack:
        last, chain = stack.pop()
        yield Code.from_masks(n, chain)
        rest = full ^ last
        for t in submasks(rest):
            if t:
                stack.append((last | t, chain + (last | t,)))


def complete_iso_suite(max_n: int = 5) -> SuiteResult:
    """Every complete code is isomorphic to the chain code of its size via
    the constructed sorting map."""
    _in_range(1, COMPLETE_ISO_MAX_NEURONS, max_n=max_n)
    codes = [code for n in range(1, max_n + 1) for code in _all_chain_codes(n)]
    bad, counter = _tally(_counterexample(code, "graph", "ccg", code, suite="complete-iso")
                          for code in codes if not is_isomorphism(complete_iso(code)))
    return SuiteResult("complete-iso", {"max_n": max_n}, [
        Check(f"complete-iso-n{max_n}", bad == 0,
              f"{len(codes)} complete codes enumerated, {bad} failures", counter)])


CF_THEOREM_KINDS = (PERMUTATION, ADD_TRIVIAL_ON, ADD_TRIVIAL_OFF, DUPLICATE, DELETE)


def cf_theorems_suite(trials: int = 200, seed: int = DEFAULT_SEED,
                      max_n: int = 6) -> SuiteResult:
    """The five canonical-form transformation rules, replayed against the
    canonical form of the actual image code."""
    _in_range(1, trials=trials)
    _in_range(2, CF_THEOREMS_MAX_NEURONS, max_n=max_n)

    def mismatches(kind):
        rng = random.Random(f"{seed}:{kind}")
        min_n = 2 if kind == DELETE else 1
        pairs = _map_pairs(rng, trials, lambda: _random_code(rng, rng.randint(min_n, max_n)),
                           [kind])
        return _map_failures(pairs, lambda code, spec, image:
                             predict_cf(canonical_form(code), spec) != canonical_form(image))

    return SuiteResult("cf-theorems", {"trials": trials, "seed": seed, "max_n": max_n}, [
        Check(f"cf-{kind}", bad == 0, f"{trials} trials, {bad} mismatches", counter)
        for kind in CF_THEOREM_KINDS for bad, counter in [mismatches(kind)]])


def grg_families_suite(max_m: int = 10, max_k: int = 10) -> SuiteResult:
    """Relationship graphs of the named families: edgeless for chains,
    a single cycle for the cyclic codes."""
    _in_range(3, MAX_NEURONS + 1, max_m=max_m)  # cc:m has m - 1 neurons
    _in_range(4, MAX_NEURONS, max_k=max_k)
    chains = ((m, grg(canonical_form(cc_family(m)))) for m in range(3, max_m + 1))
    cycles = ((k, grg(canonical_form(cr_family(k)))) for k in range(4, max_k + 1))
    bad_m, counter_m = _tally({"m": m, "rerun": f"neurocode graph grg --family cc:{m}"}
                              for m, g in chains
                              if any(g.nbrs) or list(g.vertices) != list(range(1, m)))
    bad_k, counter_k = _tally({"k": k, "rerun": f"neurocode graph grg --family cr:{k}"}
                              for k, g in cycles if not (len(g.vertices) == k
                                                         and is_connected(g) and is_regular(g, 2)))
    return SuiteResult("grg-families", {"max_m": max_m, "max_k": max_k}, [
        Check("chain-grg-disconnected", bad_m == 0,
              f"m=3..{max_m}: edgeless graph on m-1 vertices", counter_m),
        Check("cycle-grg-2regular", bad_k == 0,
              f"k=4..{max_k}: connected 2-regular graph on k vertices", counter_k)])


def _random_interval_cover(rng: random.Random, max_n: int = 6) -> IntervalCover:
    n = rng.randint(1, max_n)
    intervals = []
    for _ in range(n):
        a = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        width = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        intervals.append((a, a + width))
    ambient = rng.choice((AMBIENT_LINE, AMBIENT_UNION))
    return IntervalCover(tuple(intervals), ambient)


def realizations_suite(max_family: int = 12, random_covers: int = 100,
                       seed: int = DEFAULT_SEED) -> SuiteResult:
    """Exact realized codes of the two constructive families, plus the
    cover-to-canonical-form theorem on random interval covers."""
    _in_range(3, MAX_NEURONS, max_family=max_family)
    _in_range(1, random_covers=random_covers)
    bad_m, counter_m = _tally({"m": m, "rerun": f"neurocode realize --family cc:{m}"}
                              for m in range(2, max_family + 1)
                              if code_of_intervals(cc_m_intervals(m)) != cc_family(m))
    bad_k, counter_k = _tally({"k": k, "rerun": f"neurocode realize --family cr:{k}"}
                              for k in range(3, max_family + 1)
                              if code_of_segments(cr_k_polygon(k)) != cr_family(k))
    rng = random.Random(seed)
    covers = (_random_interval_cover(rng) for _ in range(random_covers))
    bad, counter = _tally(
        _counterexample(code_of_intervals(cover), "realize",
                        json.dumps(cover_to_json_obj(cover)), "--cf")
        for cover in covers
        if cf_from_intervals(cover) != canonical_form(code_of_intervals(cover)))
    return SuiteResult("realizations", {"max_family": max_family,
                                        "random_covers": random_covers, "seed": seed}, [
        Check("interval-chain-family", bad_m == 0,
              f"m=2..{max_family}: interval covers realize the chain codes", counter_m),
        Check("segment-cycle-family", bad_k == 0,
              f"k=3..{max_family}: polygon edges realize the cyclic codes", counter_k),
        Check("random-interval-cf", bad == 0,
              f"{random_covers} random covers, {bad} canonical-form mismatches", counter)])


SUITES = {
    "parity": parity_suite,
    "union-closure": union_closure_suite,
    "preserve-connected": preserve_connected_suite,
    "preserve-complete": preserve_complete_suite,
    "complete-iso": complete_iso_suite,
    "cf-theorems": cf_theorems_suite,
    "grg-families": grg_families_suite,
    "realizations": realizations_suite,
}
