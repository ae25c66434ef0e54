"""The three seeded workloads of the neurocode benchmark.

A workload turns a seed into inputs (set-up), runs passes over them one
call at a time (each call timed on its own), records what each call
returned outside its timed interval, and finally gates the recorded
outputs against references that share no code with the path under test.

Every call reaches the library through a module attribute looked up at
call time (``self.nc.ideal.canonical_form``), so the traced run sees it
when `spans.Tracer` patches that attribute.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("cli_digests.json")


def indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def cf_pairs(cf) -> frozenset:
    """A canonical form as a set of (plus, minus) masks, for comparison."""
    return frozenset((f.plus, f.minus) for f in cf.elements)


class Workload:
    """One pass is `len(self.calls)` timed calls; call i counts `self.ops[i]`
    ops. `check` runs untimed after each call and returns the number of
    failed ops it can already tell; `gate` runs once after all passes and
    returns the failures only the references reveal."""

    name = ""

    def __init__(self, nc, seed: int, size: str, corrupt: bool = False):
        self.nc = nc
        self.seed = seed
        self.size = size
        self.corrupt = corrupt
        self.calls: list = []
        self.ops: list[int] = []

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> int:
        raise NotImplementedError

    def end_pass(self) -> None:
        pass

    def gate(self) -> int:
        return 0


class CfLarge(Workload):
    """One op is one `ideal.canonical_form` call on a prebuilt code."""

    name = "cf-large"
    # (n, codewords, codes per pass). The cost of one random code varies with
    # the seed, by about 2x (1.8-3.7 s) at n=10 with 64 codewords and by
    # 20-40% at n=10 with 32, so the pass holds many cheap n=8 codes, few
    # n=10 codes and none with 64 codewords, to keep the seed from moving it.
    FULL_SHAPES = ((8, 32, 8), (8, 64, 8), (8, 128, 8), (10, 32, 3))
    FULL_FAMILIES = (16, 19, 22, 25, 28)
    TINY_SHAPES = ((5, 8, 2), (6, 12, 2))
    TINY_FAMILIES = (5, 6)

    def __init__(self, nc, seed, size, corrupt=False):
        super().__init__(nc, seed, size, corrupt)
        codes = nc.codes
        rng = random.Random(f"cf-large:{seed}")
        shapes = self.FULL_SHAPES if size == "full" else self.TINY_SHAPES
        families = self.FULL_FAMILIES if size == "full" else self.TINY_FAMILIES
        self.labels = []
        for n, m, count in shapes:
            for _ in range(count):
                masks = rng.sample(range(1 << n), m)
                self.calls.append(codes.Code.from_masks(n, masks))
                self.labels.append(("random", n, m))
        for m in families:
            self.calls.append(codes.cc_family(m))
            self.labels.append(("cc", m))
            self.calls.append(codes.cr_family(m))
            self.labels.append(("cr", m))
        self.ops = [1] * len(self.calls)
        self.first: dict[int, frozenset] = {}
        self.repeats = [0] * len(self.calls)

    def run(self, i):
        return self.nc.ideal.canonical_form(self.calls[i])

    def check(self, i, out):
        pairs = cf_pairs(out)
        if self.corrupt and i == 0:
            pairs = frozenset(sorted(pairs)[1:])
        if i not in self.first:
            self.first[i] = pairs
        if pairs != self.first[i]:
            return 1
        self.repeats[i] += 1
        return 0

    def gate(self):
        ideal = self.nc.ideal
        failed = 0
        for i, label in enumerate(self.labels):
            if label[0] == "random":
                ref = ideal.canonical_form_oracle(self.calls[i])
            elif label[0] == "cc":
                ref = ideal.cf_cc_formula(label[1])
            else:
                ref = ideal.cf_cr_formula(label[1])
            if self.first.get(i) != cf_pairs(ref):
                failed += self.repeats[i]
        return failed


class SweepN4(Workload):
    """One call is one exhaustive suite over all codes on n neurons; each
    code scanned is one op."""

    name = "sweep-n4"

    def __init__(self, nc, seed, size, corrupt=False):
        super().__init__(nc, seed, size, corrupt)
        self.n = 4 if size == "full" else 3
        suites = ["parity_suite", "union_closure_suite"]
        random.Random(f"sweep-n4:{seed}").shuffle(suites)
        self.calls = suites
        codes_total = (1 << (1 << self.n)) - 1
        self.ops = [codes_total] * len(suites)
        self.expected = f"{codes_total} codes scanned, 0 violations"

    def run(self, i):
        suite = getattr(self.nc.verify, self.calls[i])
        return suite(n=self.n, exhaustive=True, seed=self.seed, jobs=1)

    def check(self, i, out):
        details = [c.detail for c in out.checks]
        if self.corrupt and i == 0:
            details = ["corrupted"]
        if out.passed and details == [self.expected]:
            return 0
        return self.ops[i]


def _word(mask: int) -> str:
    return "{" + ",".join(str(i) for i in indices(mask)) + "}"


def code_text(n: int, masks) -> str:
    """Code text with an explicit n=<n> header, so a neuron that never fires
    still counts (``Code.to_text`` drops n)."""
    return ";".join([f"n={n}"] + [_word(m) for m in sorted(masks)])


def _random_masks(rng: random.Random, n: int, most: int = 12) -> list[int]:
    return sorted(rng.sample(range(1 << n), rng.randint(1, min(1 << n, most))))


def _random_cf_json(rng: random.Random) -> str:
    n = rng.randint(2, 6)
    elements = []
    for _ in range(rng.randint(1, 5)):
        plus = minus = 0
        while plus == 0 and minus == 0:
            for i in range(n):
                pick = rng.random()
                if pick < 0.3:
                    plus |= 1 << i
                elif pick < 0.5:
                    minus |= 1 << i
        elements.append({"plus": indices(plus), "minus": indices(minus)})
    return json.dumps({"n": n, "cf": elements}, separators=(",", ":"))


def _random_cover_json(rng: random.Random, sets: int) -> str:
    intervals = []
    for _ in range(sets):
        a = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        width = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        intervals.append([str(a), str(a + width)])
    ambient = rng.choice(("line", "union"))
    return json.dumps({"kind": "intervals", "ambient": ambient, "sets": intervals},
                      separators=(",", ":"))


def _map_flag(rng: random.Random, kind: str, n: int, masks: list[int]) -> list[str]:
    if kind == "permute":
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        return ["--permute", ",".join(map(str, perm))]
    if kind in ("add-on", "add-off"):
        return [f"--{kind}"]
    if kind in ("duplicate", "delete"):
        return [f"--{kind}", str(rng.randint(1, n))]
    extra = rng.sample(range(1 << n), min(1 << n, rng.randint(1, 4)))
    return ["--include", code_text(n, set(masks) | set(extra))]


# Commands per pass, by kind. The counts are fixed so that every seed runs
# the same mix; the seed picks the codes, covers and parameters.
CLI_MIX = {
    "cf": 300, "cf-oracle": 100, "cf-family": 40,
    "ccg": 120, "ccg-dot": 30,
    "grg": 80, "grg-family": 20, "grg-cf": 20,
    "gr-complex": 60, "gr-complex-cf": 20,
    "map-permute": 40, "map-add-on": 40, "map-add-off": 40,
    "map-duplicate": 40, "map-delete": 40, "map-include": 40,
    "realize": 40, "realize-cf": 50, "realize-cr": 15, "realize-cc": 15,
    "family": 20,
    "verify-cf-theorems": 8, "verify-realizations": 4,
    "verify-grg-families": 4, "verify-complete-iso": 4,
}


def cli_commands(seed: int, size: str) -> list[tuple[list[str], dict | None]]:
    """Seeded command lines for `cli.main`, each ending in --json, with the
    code each `cf` command must produce the canonical form of.

    Uses the standard library only, so the inputs do not depend on the
    library under test.
    """
    rng = random.Random(f"cli-mix:{seed}")
    scale = 1 if size == "full" else 30
    out = []
    for kind, count in CLI_MIX.items():
        for j in range(max(1, count // scale)):
            meta = None
            n = rng.randint(2 if kind == "map-delete" else 1, 6)
            masks = _random_masks(rng, n)
            text = code_text(n, masks)
            if kind in ("cf", "cf-oracle"):
                argv = ["cf", text] + (["--oracle"] if kind == "cf-oracle" else [])
                meta = {"n": n, "masks": masks}
            elif kind == "cf-family":
                fam = rng.choice(("cc", "cr"))
                value = rng.randint(3, 12 if fam == "cc" else 9)
                argv = ["cf", "--family", f"{fam}:{value}"]
                meta = {"family": [fam, value]}
            elif kind in ("ccg", "ccg-dot", "grg", "gr-complex"):
                which = kind.removesuffix("-dot")
                argv = ["graph", which, text] + (["--dot"] if kind == "ccg-dot" else [])
            elif kind == "grg-family":
                fam = rng.choice(("cc", "cr"))
                argv = ["graph", "grg", "--family", f"{fam}:{rng.randint(3, 10)}"]
            elif kind in ("grg-cf", "gr-complex-cf"):
                argv = ["graph", kind.removesuffix("-cf"), "--cf", _random_cf_json(rng)]
            elif kind.startswith("map-"):
                argv = ["map"] + _map_flag(rng, kind[4:], n, masks) + [text]
            elif kind in ("realize", "realize-cf"):
                # Fixed set counts per pass: the subset sweep behind --cf costs
                # 2^sets, and a 10-set cover costs 0.15-0.42 s, so a seeded
                # count would make the pass time follow the seed.
                sets = 1 + j % (8 if kind == "realize-cf" else 10)
                argv = ["realize", _random_cover_json(rng, sets)]
                argv += ["--cf"] if kind == "realize-cf" else []
            elif kind in ("realize-cr", "realize-cc"):
                low = 3 if kind == "realize-cr" else 2
                argv = ["realize", "--family", f"{kind[-2:]}:{rng.randint(low, 12)}"]
            elif kind == "family":
                fam = rng.choice(("cc", "cr"))
                argv = ["family", f"{fam}:{rng.randint(3, 12)}"]
            elif kind == "verify-cf-theorems":
                argv = ["verify", "cf-theorems", "--n", "4", "--trials", "4",
                        "--seed", str(rng.randint(0, 10**6))]
            elif kind == "verify-realizations":
                argv = ["verify", "realizations", "--max", "6", "--trials", "4",
                        "--seed", str(rng.randint(0, 10**6))]
            elif kind == "verify-grg-families":
                argv = ["verify", "grg-families", "--max", str(rng.randint(5, 7))]
            else:
                argv = ["verify", "complete-iso", "--n", "3"]
            out.append((argv + ["--json"], meta))
    rng.shuffle(out)
    return out


class CliMix(Workload):
    """One op is one in-process `cli.main([..., "--json"])` call with its
    stdout captured."""

    name = "cli-mix"

    def __init__(self, nc, seed, size, corrupt=False):
        super().__init__(nc, seed, size, corrupt)
        commands = cli_commands(seed, size)
        if corrupt:
            commands[0] = (["map", "--delete", "99", "n=2;{1}", "--json"], None)
        self.calls = [argv for argv, _ in commands]
        self.meta = [meta for _, meta in commands]
        self.ops = [1] * len(self.calls)
        self.hasher = hashlib.sha256()
        self.digests: list[str] = []
        self.pass_bytes = 0
        self.bytes_per_pass: list[int] = []
        self.cf_out: dict[int, dict] = {}
        self.repeats = [0] * len(self.calls)

    def run(self, i):
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            status = self.nc.cli.main(self.calls[i])
        return status, buf.getvalue()

    def check(self, i, out):
        status, text = out
        data = text.encode()
        self.hasher.update(data)
        self.pass_bytes += len(data)
        if status != 0:
            return 1
        report = json.loads(text)
        if not all(c["passed"] for c in report["checks"]):
            return 1
        if self.meta[i] is not None:
            self.cf_out.setdefault(i, report["outputs"]["cf"])
            self.repeats[i] += 1
        return 0

    def end_pass(self):
        self.digests.append(self.hasher.hexdigest())
        self.hasher = hashlib.sha256()
        self.bytes_per_pass.append(self.pass_bytes)
        self.pass_bytes = 0

    def gate(self):
        codes, ideal = self.nc.codes, self.nc.ideal
        failed = sum(1 for d in self.digests if d != self.digests[0])
        recorded = None
        if self.size == "full":
            recorded = json.loads(DIGESTS_FILE.read_text())["digests"].get(str(self.seed))
        if recorded is not None and self.digests[0] != recorded:
            failed += 1
        for i, got in self.cf_out.items():
            meta = self.meta[i]
            if "family" in meta:
                fam, value = meta["family"]
                code = codes.cc_family(value) if fam == "cc" else codes.cr_family(value)
            else:
                code = codes.Code.from_masks(meta["n"], meta["masks"])
            ref = {(tuple(indices(f.plus)), tuple(indices(f.minus)))
                   for f in ideal.canonical_form_oracle(code).elements}
            pairs = {(tuple(e["plus"]), tuple(e["minus"])) for e in got["cf"]}
            if got["n"] != code.n or pairs != ref:
                failed += self.repeats[i]
        return failed


WORKLOADS = {w.name: w for w in (CfLarge, SweepN4, CliMix)}
