"""Batch verifiers: exhaustive and randomized sweeps over code space that
exercise the library's propositions and report violations with replayable
counterexamples."""

from __future__ import annotations

import json
import random
import shlex
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
    _set,
    _Value,
    apply_elementary_map,
    cc_family,
    complete_iso,
    cr_family,
    is_isomorphism,
    permute_mask,
    submasks,
    subset_bitsets,
)
from .graphs import _diameter, _layers, ccg, grg, is_connected, is_complete, is_regular
from .ideal import canonical_form, canonical_form_oracle, predict_cf
from .realization import (
    AMBIENT_LINE,
    AMBIENT_UNION,
    IntervalCover,
    cc_m_intervals,
    code_of_intervals,
    code_of_segments,
    cover_to_json_obj,
    cr_k_polygon,
)

DEFAULT_SEED = 1729
# Cap of the default exhaustive rule, of the union-closure bitsets (one bit per
# code index for each word mask: 8 KB at n=4, 512 MB at n=5) and of the seen
# array of _orbits (one byte per code index: 64 KB at n=4, 4 GB at n=5).
EXHAUSTIVE_MAX_NEURONS = 4
PARITY_SEARCH_MAX_NEURONS = 5  # about 2 s at n=5 on 2 vCPUs, over 60 s at n=6
# A sampled sweep draws indices below 2^(2^n) and decodes each over 2^n words.
SAMPLED_MAX_NEURONS = 8
# A sampled code costs about 1-3 us for parity at any n (most codes fail the
# degree test on their first word) and 3 us (n=4) to 25-35 us (n=8) for
# union-closure, on Python 3.11, 2 vCPUs, so the largest sampled sweep runs
# from about 1.5 s to about 30 s.
MAX_SAMPLE = 1_000_000
DEFAULT_SAMPLE = 10_000
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


class Check(_Value):
    """One named check of a command or suite: whether it passed, a detail
    line, and the first counterexample (None when it passed)."""

    __slots__ = ("name", "passed", "detail", "counterexample")

    def __init__(self, name: str, passed: bool, detail: str,
                 counterexample: dict | None = None) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "detail", detail)
        _set(self, "counterexample", counterexample)

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail,
                "counterexample": self.counterexample}


class SuiteResult(_Value):
    """A suite's name, the parameters it ran with and its checks."""

    __slots__ = ("suite", "params", "checks")

    def __init__(self, suite: str, params: dict, checks: list[Check]) -> None:
        _set(self, "suite", suite)
        _set(self, "params", params)
        _set(self, "checks", checks)

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
    gives the neighbours of w in the code's containment graph. The masks
    around w are w | s for the submasks s of its complement, and w | s is
    w + s, so their bitset is that of those submasks shifted left by w."""
    sub, full = subset_bitsets(n), (1 << n) - 1
    return [(sub[w] | sub[full ^ w] << w) ^ 1 << w for w in range(1 << n)]


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
    A permutation sends an index to the sum of 1 << (image of w) over its w."""
    _in_range(1, EXHAUSTIVE_MAX_NEURONS, n=n)
    words = range(1 << n)
    images = [[1 << permute_mask(w, perm) for w in words]
              for perm in permutations(range(1, n + 1))]
    seen = bytearray(1 << (1 << n))
    for idx in range(1, len(seen)):
        if not seen[idx]:
            members = [w for w in words if idx >> w & 1]
            orbit = {sum(image[w] for w in members) for image in images}
            for j in orbit:
                seen[j] = 1
            yield idx, len(orbit)


def _degree_pruned(n: int, comparable: list[int], roots):
    """Yield once each code index on n neurons with its smallest word in
    `roots` and maximum containment-graph degree 2, adding words in ascending
    mask order but none that would get or give a third neighbour: adding a
    word never removes an edge, so no skipped branch holds such a code."""
    # index, its words of degree 1 and of degree 2, the next word to try
    stack = [(1 << root, 0, 0, root + 1) for root in roots]
    while stack:
        idx, one, two, start = stack.pop()
        yield idx
        for w in range(start, 1 << n):
            nbrs = comparable[w] & idx
            degree = nbrs.bit_count()
            if degree <= 2 and not nbrs & two:
                bit = 1 << w
                stack.append((idx | bit, one ^ nbrs | bit * (degree == 1),
                              two | one & nbrs | bit * (degree == 2), w + 1))


def _union_closure_sets(n: int) -> tuple[int, int]:
    """(union, far): bitsets over the code indices on n neurons, bit idx for
    the code with index idx. `union` holds the codes that meet the paper's
    union condition, every union of two codewords lying in a codeword; `far`
    those with two codewords more than 2 apart, or unconnected, in the CCG.
    has[w] marks the codes with codeword w; around[u] (inside[u]) ORs it over
    the w around (inside) u: the codes in whose complex u is a face (with a
    codeword inside u). Incomparable codewords a, b have a common neighbour
    iff a codeword lies inside a & b or around a | b. For a < b, b is never
    inside a, so the two are comparable iff a & b == a."""
    _in_range(1, EXHAUSTIVE_MAX_NEURONS, n=n)
    words, span = 1 << n, 1 << (1 << n)
    has = []
    for w in range(words):  # runs of 2^w zeros and 2^w ones, alternating
        period, col = 2 << w, (1 << (2 << w)) - (1 << (1 << w))
        while period < span:
            col, period = col | col << period, period << 1
        has.append(col)
    around, inside = has[:], has[:]
    for i in range(n):
        for u in range(words):
            if not u >> i & 1:
                around[u] |= around[u | 1 << i]
                inside[u | 1 << i] |= inside[u]
    fail = far = 0
    for b in range(words):
        for a in range(b):
            if a & b != a:
                both = has[a] & has[b]
                fail |= both & ~around[a | b]
                far |= both & ~(inside[a & b] | around[a | b])
    return ((1 << span) - 1) ^ fail, far


def _union_closure_everyone(n: int, jobs: int) -> tuple[int, int | None]:
    """(count, smallest index or None) of the codes that meet the union
    condition at diameter above 2, in this process whatever `jobs` is."""
    union, far = _union_closure_sets(n)
    bad = union & far
    return bad.bit_count(), (bad & -bad).bit_length() - 1 if bad else None


def _sweep_chunk(args: tuple) -> tuple[int, int | None]:
    """(count, smallest) of the indices in `draws` on which
    `violation(idx, comparable)` holds, with the comparability table of n
    neurons built once; the smallest is None when none does. A `search`
    expands the draws, its roots, by `search(n, comparable, draws)`."""
    violation, n, draws, search = args
    comparable = _comparable(n)
    if search is not None:
        draws = search(n, comparable, draws)
    hits = [idx for idx in draws if violation(idx, comparable)]
    return len(hits), min(hits, default=None)


def _run_sweep(violation, n: int, draws, jobs: int, search=None) -> tuple[int, int | None]:
    """(violating codes, smallest violating index or None) among the code
    indices `draws`, or among the codes `search` reaches from the roots
    `draws` (see _sweep_chunk). With `jobs > 1` the parent lists the draws
    in order and splits them between workers, so the result does not
    depend on `jobs`."""
    if jobs > 1:
        # imported here: the pool's modules take about 12 ms to load
        from concurrent.futures import ProcessPoolExecutor

        draws = list(draws)
        chunk = len(draws) // (jobs * 8) + 1
        tasks = [(violation, n, draws[i:i + chunk], search) for i in range(0, len(draws), chunk)]
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            parts = list(pool.map(_sweep_chunk, tasks))
    else:
        parts = [_sweep_chunk((violation, n, draws, search))]
    firsts = [first for _, first in parts if first is not None]
    return sum(bad for bad, _ in parts), min(firsts, default=None)


def _sweep_suite(name: str, violation, doc: str, cap: int, everyone):
    """Build the suite that sweeps the codes on n neurons for `violation`:
    all of them when `exhaustive`, which by default means no `sample` and
    n <= EXHAUSTIVE_MAX_NEURONS, else `sample` (DEFAULT_SAMPLE) seeded ones.

    `violation(idx, comparable)` tests the code with index `idx` against
    the `_comparable(n)` table, with no Code built; a sampled sweep runs it
    on each seeded index. An exhaustive sweep, for n up to `cap`, is
    `everyone(n, jobs)`, which must return the (violating codes, smallest
    violating index) of that test of every code. Only the smallest
    violating code becomes a Code, for the counterexample."""
    def suite(n: int = 3, exhaustive: bool | None = None, sample: int | None = None,
              seed: int = DEFAULT_SEED, jobs: int = 1) -> SuiteResult:
        _in_range(1, n=n)
        _in_range(1, MAX_SAMPLE, sample=sample)
        _in_range(1, MAX_JOBS, jobs=jobs)
        if exhaustive is None:
            exhaustive = sample is None and n <= EXHAUSTIVE_MAX_NEURONS
        kind, limit = ("exhaustive", cap) if exhaustive else ("sampled", SAMPLED_MAX_NEURONS)
        if n > limit:
            raise ValueError(f"{kind} sweeps are capped at n={limit}, got n={n}")
        total, rng = 1 << (1 << n), random.Random(seed)
        scanned = total - 1 if exhaustive else sample or DEFAULT_SAMPLE
        bad, first = everyone(n, jobs) if exhaustive else _run_sweep(
            violation, n, (rng.randrange(1, total) for _ in range(scanned)), jobs)
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
    "have evenly many codewords. A CCG is a comparability graph; those are\n"
    "perfect, and an odd cycle on 5 or more vertices is not. So a violation\n"
    "is a bug in the sweep or in _comparable, not a counterexample.",
    PARITY_SEARCH_MAX_NEURONS,
    lambda n, jobs: _run_sweep(_parity_violation, n, range(1 << n), jobs, _degree_pruned))

union_closure_suite = _sweep_suite(
    "union-closure", _union_closure_violation,
    "Pairwise unions landing in the code's complex force a connected\n"
    "containment graph of diameter at most 2. An exhaustive sweep decides the\n"
    "union condition by its definition and the diameter from common\n"
    "neighbours, for every code at once on bitsets over the code indices\n"
    "(_union_closure_sets), with no worker process. A sampled sweep tests\n"
    "each code for a top codeword, one containing all the others, which is\n"
    "equivalent (see codes.union_closure_condition), and then its _diameter.\n"
    "No violation can occur: a top codeword is adjacent to every other\n"
    "codeword, so the diameter is at most 2.",
    EXHAUSTIVE_MAX_NEURONS, _union_closure_everyone)


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
    cover's canonical form on random interval covers: `cf_from_intervals`
    is the oracle on the realized code, so `random-interval-cf` builds each
    cover's realized code once and compares the fold against the oracle on
    it."""
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
        _counterexample(code, "realize", json.dumps(cover_to_json_obj(cover)), "--cf")
        for cover in covers for code in [code_of_intervals(cover)]
        if canonical_form_oracle(code) != canonical_form(code))
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
