"""Neural codes as bitmask combinatorics.

A codeword is a subset of the neurons 1..n held as an integer mask, a code
is a nonempty set of codewords, and everything downstream (trunks,
morphism checks, elementary code maps, the named chain/cycle families)
reduces to integer mask arithmetic. All types are immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

MAX_NEURONS = 64


class CodeParseError(ValueError):
    """Raised when code text or JSON does not match the input grammar."""


def _json_neuron_count(obj: dict, what: str) -> int:
    n = obj.get("n")
    if type(n) is not int or not 1 <= n <= MAX_NEURONS:
        raise CodeParseError(f"bad {what} JSON: n must be an integer in "
                             f"1..{MAX_NEURONS}, got {n!r}")
    return n


def _is_index_list(value) -> bool:
    """True for a JSON list of integers; `true` and `1.5` are not integers."""
    return isinstance(value, list) and all(type(i) is int for i in value)


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"neuron index {i} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True, slots=True)
class Codeword:
    """A subset of neurons 1..n; bit i-1 of `bits` holds neuron i."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_NEURONS:
            raise ValueError(f"neuron count must be in 1..{MAX_NEURONS}, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"codeword {self.bits:#x} has neurons outside 1..{self.n}")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "Codeword":
        return cls(n, mask_from_indices(indices, n))

    @property
    def indices(self) -> tuple[int, ...]:
        return indices_of(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, neuron: int) -> bool:
        return 1 <= neuron <= self.n and bool(self.bits >> (neuron - 1) & 1)

    def issubset(self, other: "Codeword") -> bool:
        return self.bits & other.bits == self.bits

    def ispropersubset(self, other: "Codeword") -> bool:
        return self.bits != other.bits and self.bits & other.bits == self.bits

    def union(self, other: "Codeword") -> "Codeword":
        return Codeword(self.n, self.bits | other.bits)

    def intersection(self, other: "Codeword") -> "Codeword":
        return Codeword(self.n, self.bits & other.bits)

    def sort_key(self) -> tuple[int, int]:
        return (self.bits.bit_count(), self.bits)

    @property
    def label(self) -> str:
        return "{%s}" % ",".join(str(i) for i in self.indices)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Code:
    """A nonempty set of distinct codewords on a common neuron set; the words
    sorted by (size, mask) and their masks are computed once."""

    n: int
    words: frozenset[Codeword]
    sorted_words: tuple[Codeword, ...] = field(init=False, repr=False, compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        words = frozenset(self.words)
        object.__setattr__(self, "words", words)
        if not 1 <= self.n <= MAX_NEURONS:
            raise ValueError(f"neuron count must be in 1..{MAX_NEURONS}, got {self.n}")
        if not words:
            raise ValueError("a code must contain at least one codeword")
        for w in words:
            if w.n != self.n:
                raise ValueError(f"codeword {w} is on {w.n} neurons, code is on {self.n}")
        ordered = tuple(sorted(words, key=Codeword.sort_key))
        object.__setattr__(self, "sorted_words", ordered)
        object.__setattr__(self, "masks", tuple(w.bits for w in ordered))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Code":
        return cls(n, frozenset(Codeword(n, m) for m in masks))

    @classmethod
    def from_indices(cls, n: int, words: Iterable[Iterable[int]]) -> "Code":
        return cls(n, frozenset(Codeword.from_indices(n, ix) for ix in words))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Codeword]:
        return iter(self.sorted_words)

    def __contains__(self, word: Codeword) -> bool:
        return word in self.words

    def to_text(self) -> str:
        return ";".join(str(w) for w in self.sorted_words)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "words": [list(w.indices) for w in self.sorted_words]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Code":
        """Read `{"n": n, "words": [[...], ...]}`, n an integer in
        1..MAX_NEURONS and each word a list of integers; else CodeParseError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("words"), list):
            raise CodeParseError('bad code JSON: expected {"n": ..., "words": [[...], ...]}')
        n = _json_neuron_count(obj, "code")
        bad = next((w for w in obj["words"] if not _is_index_list(w)), None)
        if bad is not None:
            raise CodeParseError(f"bad code JSON: word {bad!r} is not a list of integers")
        try:
            return cls.from_indices(n, obj["words"])
        except ValueError as exc:
            raise CodeParseError(str(exc)) from exc

    def __str__(self) -> str:
        return self.to_text()


_HEADER_RE = re.compile(r"^n\s*=\s*(\d+)$")
_BRACE_RE = re.compile(r"^\{([^{}]*)\}$")


def _parse_word_token(tok: str) -> tuple[int, ...]:
    m = _BRACE_RE.match(tok)
    if m:
        inner = m.group(1).strip()
        if not inner:
            return ()
        try:
            ix = tuple(int(p.strip()) for p in inner.split(","))
        except ValueError as exc:
            raise CodeParseError(f"bad codeword token {tok!r}") from exc
    elif tok.isdigit():
        # compact digit form: each character is one neuron index
        ix = tuple(int(ch) for ch in tok)
    else:
        raise CodeParseError(f"bad codeword token {tok!r}")
    for i in ix:
        if i < 1:
            raise CodeParseError(f"neuron index {i} out of range (indices start at 1)")
    return ix


def parse_code(text: str) -> Code:
    """Parse the code text grammar.

    An optional leading ``n=<int>`` header fixes the neuron count; codewords
    are brace lists like ``{1,3}`` (``{}`` for the empty word) or compact
    digit strings like ``13``, separated by ``;`` or newlines. Without a
    header, n is the largest neuron mentioned (at least 1).
    """
    tokens = [t.strip() for t in re.split(r"[;\n]+", text)]
    tokens = [t for t in tokens if t]
    header = None
    if tokens:
        m = _HEADER_RE.match(tokens[0])
        if m:
            header = int(m.group(1))
            tokens = tokens[1:]
    if not tokens:
        raise CodeParseError("empty code: no codewords given")
    word_indices = []
    for tok in tokens:
        if _HEADER_RE.match(tok):
            raise CodeParseError("header n=... must be the first entry")
        word_indices.append(_parse_word_token(tok))
    mentioned = max((max(ix) for ix in word_indices if ix), default=0)
    if mentioned > MAX_NEURONS:
        raise CodeParseError(f"neuron index {mentioned} exceeds the cap of {MAX_NEURONS}")
    n = header if header is not None else max(mentioned, 1)
    if not 1 <= n <= MAX_NEURONS:
        raise CodeParseError(f"neuron count must be in 1..{MAX_NEURONS}, got {n}")
    if mentioned > n:
        raise CodeParseError(f"neuron index {mentioned} exceeds declared n={n}")
    return Code.from_indices(n, word_indices)


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal masks, sorted descending by popcount then value."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    kept: list[int] = []
    for m in ordered:
        if not any(m & k == m for k in kept):
            kept.append(m)
    return kept


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed face set on neurons 1..n, stored by maximal faces."""

    n: int
    facets: frozenset[Codeword]

    def __post_init__(self) -> None:
        facets = frozenset(self.facets)
        object.__setattr__(self, "facets", facets)
        if not 1 <= self.n <= MAX_NEURONS:
            raise ValueError(f"neuron count must be in 1..{MAX_NEURONS}, got {self.n}")
        for f in facets:
            if f.n != self.n:
                raise ValueError(f"facet {f} is on {f.n} neurons, complex is on {self.n}")
        for f in facets:
            for g in facets:
                if f is not g and f.bits != g.bits and f.bits & g.bits == f.bits:
                    raise ValueError(f"facet {f} is contained in facet {g}")

    @property
    def sorted_facets(self) -> tuple[Codeword, ...]:
        return tuple(sorted(self.facets, key=Codeword.sort_key))

    def __contains__(self, face: Codeword) -> bool:
        return any(face.bits & f.bits == face.bits for f in self.facets)

    def faces(self) -> Iterator[Codeword]:
        """All faces; exponential in facet size, intended for small n."""
        seen: set[int] = set()
        for f in self.facets:
            for sub in submasks(f.bits):
                if sub not in seen:
                    seen.add(sub)
                    yield Codeword(self.n, sub)


def simplicial_complex(code: Code) -> SimplicialComplex:
    """The complex of all subsets of codewords, by its maximal codewords."""
    masks = _maximal_masks(code.masks)
    return SimplicialComplex(code.n, frozenset(Codeword(code.n, m) for m in masks))


def trunk(code: Code, sigma: Codeword) -> frozenset[Codeword]:
    """All codewords containing sigma; the whole code when sigma is empty."""
    if sigma.n != code.n:
        raise ValueError(f"trunk seed is on {sigma.n} neurons, code is on {code.n}")
    s = sigma.bits
    return frozenset(w for w in code.words if w.bits & s == s)


def is_trunk(code: Code, words: Iterable[Codeword]) -> bool:
    """Decide whether a subset of the code is empty or a trunk.

    A nonempty trunk always equals the trunk of the intersection of its
    members, so a single trunk computation settles the question.
    """
    ws = frozenset(words)
    if not ws <= code.words:
        raise ValueError("candidate trunk must be a subset of the code's words")
    if not ws:
        return True
    inter = (1 << code.n) - 1
    for w in ws:
        inter &= w.bits
    return trunk(code, Codeword(code.n, inter)) == ws


@dataclass(frozen=True)
class CodeMap:
    """A total function from the codewords of one code into another."""

    domain: Code
    codomain: Code
    assignment: Mapping[Codeword, Codeword]

    def __post_init__(self) -> None:
        assignment = dict(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if set(assignment) != set(self.domain.words):
            raise ValueError("assignment must cover exactly the domain codewords")
        for w, img in assignment.items():
            if img not in self.codomain.words:
                raise ValueError(f"image {img} of {w} is not in the codomain")

    @classmethod
    def from_function(cls, domain: Code, codomain: Code,
                      fn: Callable[[Codeword], Codeword]) -> "CodeMap":
        return cls(domain, codomain, {w: fn(w) for w in domain.words})

    @classmethod
    def identity(cls, code: Code) -> "CodeMap":
        return cls(code, code, {w: w for w in code.words})

    def __call__(self, word: Codeword) -> Codeword:
        return self.assignment[word]

    def is_bijective(self) -> bool:
        images = set(self.assignment.values())
        return len(images) == len(self.domain.words) and images == set(self.codomain.words)

    def inverse(self) -> "CodeMap":
        if not self.is_bijective():
            raise ValueError("only bijective code maps have an inverse")
        return CodeMap(self.codomain, self.domain,
                       {img: w for w, img in self.assignment.items()})


def is_morphism(f: CodeMap) -> bool:
    """True iff the preimage of every simple trunk of the codomain is a trunk."""
    for i in range(1, f.codomain.n + 1):
        bit = 1 << (i - 1)
        pre = frozenset(w for w in f.domain.words if f.assignment[w].bits & bit)
        if not is_trunk(f.domain, pre):
            return False
    return True


def is_isomorphism(f: CodeMap) -> bool:
    """True iff f is a bijective morphism whose inverse is also a morphism."""
    return f.is_bijective() and is_morphism(f) and is_morphism(f.inverse())


def check_monotone(f: CodeMap) -> bool:
    words = list(f.domain.words)
    for w1 in words:
        im1 = f.assignment[w1]
        for w2 in words:
            if w1.bits & w2.bits == w1.bits and not im1.issubset(f.assignment[w2]):
                return False
    return True


PERMUTATION = "permutation"
ADD_TRIVIAL_ON = "add-trivial-on"
ADD_TRIVIAL_OFF = "add-trivial-off"
DUPLICATE = "duplicate"
DELETE = "delete"
INCLUSION = "inclusion"


@dataclass(frozen=True)
class ElementaryMap:
    """Descriptor for one of the elementary code maps."""

    kind: str
    perm: tuple[int, ...] | None = None
    neuron: int | None = None
    target: Code | None = None

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "ElementaryMap":
        return cls(PERMUTATION, perm=tuple(perm))

    @classmethod
    def add_trivial_on(cls) -> "ElementaryMap":
        return cls(ADD_TRIVIAL_ON)

    @classmethod
    def add_trivial_off(cls) -> "ElementaryMap":
        return cls(ADD_TRIVIAL_OFF)

    @classmethod
    def duplicate(cls, neuron: int) -> "ElementaryMap":
        return cls(DUPLICATE, neuron=neuron)

    @classmethod
    def delete(cls, neuron: int) -> "ElementaryMap":
        return cls(DELETE, neuron=neuron)

    @classmethod
    def inclusion(cls, target: Code) -> "ElementaryMap":
        return cls(INCLUSION, target=target)

    def describe(self) -> str:
        if self.kind == PERMUTATION:
            return "permute(%s)" % ",".join(str(i) for i in self.perm)
        if self.kind in (DUPLICATE, DELETE):
            return f"{self.kind}({self.neuron})"
        if self.kind == INCLUSION:
            return f"inclusion(into {self.target.to_text()})"
        return self.kind


def permute_mask(bits: int, perm: Sequence[int]) -> int:
    new = 0
    i = 1
    while bits:
        if bits & 1:
            new |= 1 << (perm[i - 1] - 1)
        bits >>= 1
        i += 1
    return new


def delete_shift_mask(bits: int, neuron: int) -> int:
    """Drop the given neuron from a mask and shift higher neurons down."""
    low = bits & ((1 << (neuron - 1)) - 1)
    high = (bits >> neuron) << (neuron - 1)
    return low | high


def _validate_perm(perm: Sequence[int] | None, n: int) -> tuple[int, ...]:
    if perm is None or len(perm) != n or sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"permutation must be a bijection on 1..{n}, got {perm}")
    return tuple(perm)


def _validate_neuron(spec: ElementaryMap, n: int) -> int:
    """The neuron a duplicate or delete map acts on, checked against 1..n."""
    i = spec.neuron
    if i is None or not 1 <= i <= n:
        raise ValueError(f"{spec.kind} index {i} out of range 1..{n}")
    if spec.kind == DELETE and n < 2:
        raise ValueError("cannot delete the only neuron")
    return i


def apply_elementary_map(code: Code, spec: ElementaryMap) -> tuple[Code, CodeMap]:
    """Apply an elementary code map; returns the image code and the induced map.

    The image code is f(C).  For every variant except inclusion the code map's
    codomain is the image; for inclusion it is the (larger) target code.
    """
    n = code.n
    if spec.kind == PERMUTATION:
        perm = _validate_perm(spec.perm, n)
        move = lambda w: Codeword(n, permute_mask(w.bits, perm))
    elif spec.kind == ADD_TRIVIAL_ON:
        move = lambda w: Codeword(n + 1, w.bits | (1 << n))
    elif spec.kind == ADD_TRIVIAL_OFF:
        move = lambda w: Codeword(n + 1, w.bits)
    elif spec.kind == DUPLICATE:
        bit = 1 << (_validate_neuron(spec, n) - 1)
        move = lambda w: Codeword(n + 1, w.bits | (1 << n) if w.bits & bit else w.bits)
    elif spec.kind == DELETE:
        i = _validate_neuron(spec, n)
        move = lambda w: Codeword(n - 1, delete_shift_mask(w.bits, i))
    elif spec.kind == INCLUSION:
        target = spec.target
        if target is None or target.n != n or not code.words <= target.words:
            raise ValueError("inclusion target must contain the source code on the same neurons")
        image = code
        cmap = CodeMap(code, target, {w: w for w in code.words})
        return image, cmap
    else:
        raise ValueError(f"unknown elementary map kind {spec.kind!r}")
    assignment = {w: move(w) for w in code.words}
    images = frozenset(assignment.values())
    image = Code(next(iter(images)).n, images)
    return image, CodeMap(code, image, assignment)


def cc_family(m: int) -> Code:
    """The chain code {∅, {1}, {1,2}, ..., {1..m-1}} on max(m-1, 1) neurons."""
    if m < 1:
        raise ValueError(f"chain family needs m >= 1, got {m}")
    n = max(m - 1, 1)
    return Code(n, frozenset(Codeword(n, (1 << i) - 1) for i in range(m)))


def cr_family(k: int) -> Code:
    """Singletons plus cyclically consecutive pairs on k neurons, 2k words."""
    if k < 3:
        raise ValueError(f"cycle family needs k >= 3, got {k}")
    words = [Codeword(k, 1 << i) for i in range(k)]
    words += [Codeword(k, (1 << i) | (1 << (i + 1))) for i in range(k - 1)]
    words.append(Codeword(k, 1 | (1 << (k - 1))))
    return Code(k, frozenset(words))


def complete_iso(code: Code) -> CodeMap:
    """The isomorphism from a complete code onto the chain code of its size.

    The codewords of a complete code are strictly ordered by inclusion; the
    i-th smallest is sent to {1,...,i-1}.
    """
    words = code.sorted_words
    for a, b in zip(words, words[1:]):
        if not a.ispropersubset(b):
            raise ValueError(f"code is not complete: {a} and {b} are incomparable")
    target = cc_family(len(words))
    return CodeMap(code, target, dict(zip(words, target.sorted_words)))


def union_closure_condition(code: Code) -> bool:
    """True iff the union of every codeword pair lies in the code's complex."""
    masks = code.masks
    facets = _maximal_masks(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            u = a | b
            if not any(u & f == u for f in facets):
                return False
    return True
