"""Neural codes as bitmask combinatorics.

A codeword is a subset of the neurons 1..n held as an integer mask (bit i-1
for neuron i) at every layer; `word_label` turns a mask into text like
``{1,3}`` only where it is printed. A code is n plus a nonempty tuple of
distinct masks sorted by (size, mask), and a code map holds the image mask of
each domain mask, in the domain's order. Trunks, morphism checks, elementary
code maps and the chain/cycle families are integer mask arithmetic on them.
All types are immutable values, built on `_Value`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from operator import attrgetter, or_

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
    distinct = set(masks)
    try:
        # by mask, then stably by size: (size, mask) order with no key tuples
        ordered = sorted(sorted(distinct), key=int.bit_count)
    except TypeError:
        # a mask that is not an int fails as it would on its own
        for m in distinct:
            m.bit_count()
        raise
    if ordered and (min(ordered) < 0 or max(ordered) >> n):
        bad = next(m for m in ordered if m < 0 or m >> n)
        raise ValueError(f"codeword {bad:#x} has neurons outside 1..{n}")
    return tuple(ordered)


def _clip(value, show=repr) -> str:
    """show(value) for an error message, cut after 80 characters, so that a
    message stays short whatever the size of the input it echoes."""
    text = show(value)
    return text if len(text) <= 80 else text[:80] + "..."


def _json_neuron_count(obj: dict, what: str) -> int:
    n = obj.get("n")
    if type(n) is not int or not 1 <= n <= MAX_NEURONS:
        raise CodeParseError(f"bad {what} JSON: n must be an integer in "
                             f"1..{MAX_NEURONS}, got {_clip(n)}")
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
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def word_label(mask: int) -> str:
    """The text form of a codeword mask: ``{1,3}``, or ``{}`` for 0."""
    return "{%s}" % ",".join(str(i) for i in indices_of(mask))


def _shown(mask) -> str:
    """A mask as a label when it is one, else as its repr."""
    return word_label(mask) if isinstance(mask, int) and mask >= 0 else repr(mask)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_bitsets(n: int) -> list[int]:
    """sub[x] for every mask x on n neurons: the bitset whose bit y is set
    exactly when y is a submask of x. The submasks of x are those of x less
    its lowest bit, with and without that bit."""
    sub = [1] * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        s = sub[x ^ low]
        sub[x] = s | s << low
    return sub


_set = object.__setattr__


class _Value:
    """Base of the package's value types. A subclass names its fields in
    `__slots__` and sets each once, through `_set`, in its own validating
    `__init__`. Equality (with an object of the same class only), hash,
    repr and pickling go by the field values in slot order; pickling and
    copying rebuild the object through its constructor. Setting or
    deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # `cls._values(obj)`: obj's field values as a tuple, one field too
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Code(_Value):
    """A nonempty set of codewords on neurons 1..n, held as distinct masks
    sorted by (size, mask)."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: Iterable[int]) -> None:
        masks = _sorted_masks(n, masks)
        if not masks:
            raise ValueError("a code must contain at least one codeword")
        _set(self, "n", n)
        _set(self, "masks", masks)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Code":
        return cls(n, masks)

    @classmethod
    def from_indices(cls, n: int, words: Iterable[Iterable[int]]) -> "Code":
        return cls(n, [mask_from_indices(ix, n) for ix in words])

    def __len__(self) -> int:
        return len(self.masks)

    def to_text(self) -> str:
        return ";".join(map(word_label, self.masks))

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
            raise CodeParseError(f"bad code JSON: word {_clip(bad)} is not a list of integers")
        try:
            return cls.from_indices(n, obj["words"])
        except ValueError as exc:
            raise CodeParseError(str(exc)) from exc

    def __str__(self) -> str:
        return self.to_text()


# Neuron indices and the header are ASCII digits only: int() alone would
# also read signs, underscores and other scripts' digits.
_HEADER_RE = re.compile(r"^n\s*=\s*([0-9]+)$")
_BRACE_RE = re.compile(r"^\{([0-9,\s]*)\}$")


def _parse_word_token(tok: str) -> tuple[int, ...]:
    m = _BRACE_RE.match(tok)
    if m:
        inner = m.group(1).strip()
        if not inner:
            return ()
        try:
            ix = tuple(int(p.strip()) for p in inner.split(","))
        except ValueError as exc:
            raise CodeParseError(f"bad codeword token {_clip(tok)}") from exc
    elif tok.isascii() and tok.isdigit():
        # compact digit form: each character is one neuron index
        ix = tuple(int(ch) for ch in tok)
    else:
        raise CodeParseError(f"bad codeword token {_clip(tok)}")
    if 0 in ix:
        raise CodeParseError("neuron index 0 out of range (indices start at 1)")
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


class SimplicialComplex(_Value):
    """A downward-closed face set on neurons 1..n, held as its facets: an
    antichain of masks sorted by (size, mask)."""

    __slots__ = ("n", "facets")

    def __init__(self, n: int, facets: Iterable[int]) -> None:
        facets = _sorted_masks(n, facets)
        # a facet can only lie inside a later one, which is at least as large
        for i, f in enumerate(facets):
            for g in facets[i + 1:]:
                if g & f == f:
                    raise ValueError(f"facet {word_label(f)} is contained in facet {word_label(g)}")
        self._fill(n, facets)

    def _fill(self, n: int, facets: Iterable[int]) -> None:
        """Set n and the facets, sorted by (size, mask), from an antichain
        of masks on 1..n."""
        _set(self, "n", n)
        _set(self, "facets", tuple(sorted(sorted(facets), key=int.bit_count)))

    def __contains__(self, face: int) -> bool:
        return any(face & f == face for f in self.facets)


def _complex_of(n: int, faces: Iterable[int]) -> SimplicialComplex:
    """The complex generated by `faces`, masks on 1..n. A face lies only
    inside larger ones, so taking them largest first and keeping each that
    no kept face contains leaves the maximal faces: an antichain, which
    needs no constructor check."""
    kept: list[int] = []
    for m in sorted(set(faces), key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    sc = object.__new__(SimplicialComplex)
    sc._fill(n, kept)
    return sc


def simplicial_complex(code: Code) -> SimplicialComplex:
    """The complex of all subsets of codewords, by its maximal codewords."""
    return _complex_of(code.n, code.masks)


def trunk(code: Code, sigma: int) -> frozenset[int]:
    """The codeword masks containing sigma; the whole code when sigma is 0."""
    _sorted_masks(code.n, (sigma,))
    return frozenset(m for m in code.masks if m & sigma == sigma)


def _is_trunk(masks: Sequence[int], members: Sequence[int]) -> bool:
    """Distinct masks of a code form a trunk, or are empty, iff exactly
    len(members) codewords contain their intersection: the trunk of that
    intersection holds them all. No mask contains the empty intersection -1."""
    inter = -1
    for m in members:
        inter &= m
    return sum(m & inter == inter for m in masks) == len(members)


def is_trunk(code: Code, masks: Iterable[int]) -> bool:
    """Decide whether a set of the code's masks is empty or a trunk."""
    members = set(masks)
    if not members <= set(code.masks):
        raise ValueError("candidate trunk must be a subset of the code's words")
    return _is_trunk(code.masks, list(members))


class CodeMap(_Value):
    """A total function from the codewords of one code into another:
    `images[k]` is the codomain mask that `domain.masks[k]` goes to."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: Code, codomain: Code, images: Iterable[int]) -> None:
        images = tuple(images)
        if len(images) != len(domain.masks):
            raise ValueError("assignment must cover exactly the domain codewords")
        targets = set(codomain.masks)
        for m, img in zip(domain.masks, images):
            if img not in targets:
                raise ValueError(f"image {_shown(img)} of {word_label(m)} is not in the codomain")
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "images", images)

    def __call__(self, mask: int) -> int:
        if mask not in self.domain.masks:
            raise ValueError(f"{_shown(mask)} is not a codeword of the domain")
        return self.images[self.domain.masks.index(mask)]

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


class ElementaryMap(_Value):
    """Descriptor for one of the elementary code maps: its `kind`, and the
    `perm`, `neuron` or `target` that kind takes (None for the others)."""

    __slots__ = ("kind", "perm", "neuron", "target")

    def __init__(self, kind: str, perm: tuple[int, ...] | None = None,
                 neuron: int | None = None, target: Code | None = None) -> None:
        _set(self, "kind", kind)
        _set(self, "perm", perm)
        _set(self, "neuron", neuron)
        _set(self, "target", target)

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
        raise ValueError(f"permutation must be a bijection on 1..{n}, got {_clip(perm)}")
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
            raise ValueError(f"code is not complete: {word_label(a)} and {word_label(b)} "
                             "are incomparable")
    target = cc_family(len(masks))
    return CodeMap(code, target, target.masks)


def union_closure_condition(code: Code) -> bool:
    """True iff the union of every codeword pair lies in the code's complex.

    That is, iff one codeword contains all the others. The facets of the
    complex are the maximal codewords, and the union of two distinct facets
    F and G lies in no facet H: F, G <= H would give F = H = G. So the
    condition holds iff there is one facet; it then contains every codeword,
    and every union lies in it. A word containing all the others is the
    largest, the last of `code.masks`, and it contains all iff it equals
    their OR."""
    return reduce(or_, code.masks) == code.masks[-1]
