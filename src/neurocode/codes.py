"""Neural codes as bitmask combinatorics.

A codeword is a subset of the neurons 1..n held as an integer mask, and a
code is n plus a nonempty tuple of distinct masks sorted by (size, mask).
A code map holds the image mask of each domain mask, in the domain's
order. Everything downstream (trunks, morphism checks, elementary code maps,
the named chain/cycle families) is integer mask arithmetic; `Codeword`
objects are built only at the API edge, when a code is iterated, or a map is
called, or a trunk is returned. All types are immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_NEURONS = 64


class CodeParseError(ValueError):
    """Raised when code text or JSON does not match the input grammar."""


def _neuron_count(n: int) -> int:
    if not 1 <= n <= MAX_NEURONS:
        raise ValueError(f"neuron count must be in 1..{MAX_NEURONS}, got {n}")
    return n


def _sorted_masks(n: int, masks: Iterable[int]) -> tuple[int, ...]:
    """Distinct masks sorted by (size, mask), each checked against 1..n."""
    _neuron_count(n)
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if ordered and (min(ordered) < 0 or max(ordered) >> n):
        bad = next(m for m in ordered if m < 0 or m >> n)
        raise ValueError(f"codeword {bad:#x} has neurons outside 1..{n}")
    return tuple(ordered)


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


def _label(mask: int) -> str:
    return "{%s}" % ",".join(str(i) for i in indices_of(mask))


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
        _neuron_count(self.n)
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

    @property
    def label(self) -> str:
        return _label(self.bits)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Code:
    """A nonempty set of codewords on neurons 1..n, held as distinct masks
    sorted by (size, mask); iterating yields them as `Codeword`s."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        masks = _sorted_masks(self.n, self.masks)
        if not masks:
            raise ValueError("a code must contain at least one codeword")
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Code":
        return cls(n, masks)

    @classmethod
    def from_indices(cls, n: int, words: Iterable[Iterable[int]]) -> "Code":
        return cls(n, [mask_from_indices(ix, n) for ix in words])

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Codeword]:
        return (Codeword(self.n, m) for m in self.masks)

    def __contains__(self, word: Codeword) -> bool:
        return word.n == self.n and word.bits in self.masks

    def to_text(self) -> str:
        return ";".join(str(w) for w in self)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "words": [list(indices_of(m)) for m in self.masks]}

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
    """A downward-closed face set on neurons 1..n, held as its facets: an
    antichain of masks sorted by (size, mask)."""

    n: int
    facets: tuple[int, ...]

    def __post_init__(self) -> None:
        facets = _sorted_masks(self.n, self.facets)
        object.__setattr__(self, "facets", facets)
        # a facet can only lie inside a later one, which is at least as large
        for i, f in enumerate(facets):
            for g in facets[i + 1:]:
                if g & f == f:
                    raise ValueError(f"facet {Codeword(self.n, f)} is contained "
                                     f"in facet {Codeword(self.n, g)}")

    def __contains__(self, face: Codeword) -> bool:
        return any(face.bits & f == face.bits for f in self.facets)


def simplicial_complex(code: Code) -> SimplicialComplex:
    """The complex of all subsets of codewords, by its maximal codewords."""
    return SimplicialComplex(code.n, _maximal_masks(code.masks))


def trunk(code: Code, sigma: Codeword) -> frozenset[Codeword]:
    """All codewords containing sigma; the whole code when sigma is empty."""
    if sigma.n != code.n:
        raise ValueError(f"trunk seed is on {sigma.n} neurons, code is on {code.n}")
    s = sigma.bits
    return frozenset(Codeword(code.n, m) for m in code.masks if m & s == s)


def _is_trunk(masks: Sequence[int], members: Sequence[int]) -> bool:
    """Distinct masks of a code form a trunk, or are empty, iff exactly
    len(members) codewords contain their intersection: the trunk of that
    intersection holds them all. No mask contains the empty intersection -1."""
    inter = -1
    for m in members:
        inter &= m
    return sum(m & inter == inter for m in masks) == len(members)


def is_trunk(code: Code, words: Iterable[Codeword]) -> bool:
    """Decide whether a subset of the code is empty or a trunk."""
    words = frozenset(words)
    members = [w.bits for w in words]
    if any(w.n != code.n for w in words) or not set(members) <= set(code.masks):
        raise ValueError("candidate trunk must be a subset of the code's words")
    return _is_trunk(code.masks, members)


@dataclass(frozen=True)
class CodeMap:
    """A total function from the codewords of one code into another:
    `images[k]` is the codomain mask that `domain.masks[k]` goes to."""

    domain: Code
    codomain: Code
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != len(self.domain.masks):
            raise ValueError("assignment must cover exactly the domain codewords")
        targets = set(self.codomain.masks)
        for m, img in zip(self.domain.masks, images):
            if img not in targets:
                shown = _label(img) if isinstance(img, int) and img >= 0 else repr(img)
                raise ValueError(f"image {shown} of {_label(m)} is not in the codomain")

    def __call__(self, word: Codeword) -> Codeword:
        if word not in self.domain:
            raise ValueError(f"{word} is not a codeword of the domain")
        return Codeword(self.codomain.n, self.images[self.domain.masks.index(word.bits)])

    def is_bijective(self) -> bool:
        # the images lie in the codomain, so onto means as many as it has
        return len(set(self.images)) == len(self.domain) == len(self.codomain)

    def inverse(self) -> "CodeMap":
        if not self.is_bijective():
            raise ValueError("only bijective code maps have an inverse")
        back = dict(zip(self.images, self.domain.masks))
        return CodeMap(self.codomain, self.domain, [back[m] for m in self.codomain.masks])


def is_morphism(f: CodeMap) -> bool:
    """True iff the preimage of every simple trunk of the codomain is a trunk."""
    pairs = list(zip(f.domain.masks, f.images))
    return all(_is_trunk(f.domain.masks, [w for w, img in pairs if img >> i & 1])
               for i in range(f.codomain.n))


def is_isomorphism(f: CodeMap) -> bool:
    """True iff f is a bijective morphism whose inverse is also a morphism."""
    return f.is_bijective() and is_morphism(f) and is_morphism(f.inverse())


def check_monotone(f: CodeMap) -> bool:
    pairs = list(zip(f.domain.masks, f.images))
    return all(a & b != a or ia & ib == ia for a, ia in pairs for b, ib in pairs)


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
    n = out = code.n
    if spec.kind == PERMUTATION:
        perm = _validate_perm(spec.perm, n)
        move = lambda m: permute_mask(m, perm)
    elif spec.kind == ADD_TRIVIAL_ON:
        out, move = n + 1, lambda m: m | (1 << n)
    elif spec.kind == ADD_TRIVIAL_OFF:
        out, move = n + 1, lambda m: m
    elif spec.kind == DUPLICATE:
        bit = 1 << (_validate_neuron(spec, n) - 1)
        out, move = n + 1, lambda m: m | (1 << n) if m & bit else m
    elif spec.kind == DELETE:
        i = _validate_neuron(spec, n)
        out, move = n - 1, lambda m: delete_shift_mask(m, i)
    elif spec.kind == INCLUSION:
        target = spec.target
        if target is None or target.n != n or not set(code.masks) <= set(target.masks):
            raise ValueError("inclusion target must contain the source code on the same neurons")
        return code, CodeMap(code, target, code.masks)
    else:
        raise ValueError(f"unknown elementary map kind {spec.kind!r}")
    moved = [move(m) for m in code.masks]
    image = Code(out, moved)
    return image, CodeMap(code, image, moved)


def cc_family(m: int) -> Code:
    """The chain code {∅, {1}, {1,2}, ..., {1..m-1}} on max(m-1, 1) neurons."""
    if m < 1:
        raise ValueError(f"chain family needs m >= 1, got {m}")
    n = _neuron_count(max(m - 1, 1))
    return Code(n, [(1 << i) - 1 for i in range(m)])


def cr_family(k: int) -> Code:
    """Singletons plus cyclically consecutive pairs on k neurons, 2k words."""
    if k < 3:
        raise ValueError(f"cycle family needs k >= 3, got {k}")
    _neuron_count(k)
    pairs = [(1 << i) | (1 << (i + 1)) for i in range(k - 1)]
    return Code(k, [1 << i for i in range(k)] + pairs + [1 | (1 << (k - 1))])


def complete_iso(code: Code) -> CodeMap:
    """The isomorphism from a complete code onto the chain code of its size.

    The codewords of a complete code are strictly ordered by inclusion; the
    i-th smallest is sent to {1,...,i-1}.
    """
    masks = code.masks
    for a, b in zip(masks, masks[1:]):
        if a & b != a:
            raise ValueError(f"code is not complete: {Codeword(code.n, a)} and "
                             f"{Codeword(code.n, b)} are incomparable")
    target = cc_family(len(masks))
    return CodeMap(code, target, target.masks)


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
