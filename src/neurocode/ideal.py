"""Pseudo-monomials and canonical forms of neural ideals.

A pseudo-monomial is a product of plain variables and complemented
variables over disjoint index sets, held as a (plus, minus) pair of masks
with no neuron count of its own; a `CanonicalForm` is n plus its distinct
pairs sorted by (degree, plus, minus), checked against n once. The
canonical form of a code's neural ideal has one production path, the
update of Petersen et al. (Neural ideals in SageMath, 2018) taken a subcube
of codewords at a time: the code is covered by disjoint subcubes, codewords
that differ in one neuron entering together, and each step intersects the
form with the ideal of one cube, which its linear generators span. It works
on literal masks (plus above minus in one int), is bounded by CF_MAX_WORK,
and its divisor index holds only the kept elements that disagree with the
cube at a single fixed neuron. It starts from the empty code's ideal
J(empty) = (1), the constant. The one independent check is the
definition-based oracle, which shares no code with it: it decides all 3^n
pseudo-monomials, a bitset of minus masks per plus mask over the subset
lattice, in O(n 2^n) big-int operations. The oracle also serves
`realize --cf`: the canonical form of an interval cover is the oracle's
form of its realized code.

Every producer of a canonical form returns a divisibility antichain by
proof, and none runs a minimization pass: the fold (see `canonical_form`),
the oracle (a vanishing pair is kept only when no pair one neuron smaller
vanishes), each kind of `predict_cf` (see there) and the closed forms
`cf_cc_formula` (distinct products of degree two) and `cf_cr_formula`
(the all-complemented product and plain products, all of one degree).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .codes import (
    ADD_TRIVIAL_OFF,
    ADD_TRIVIAL_ON,
    DELETE,
    DUPLICATE,
    INCLUSION,
    PERMUTATION,
    Code,
    ElementaryMap,
    _clip,
    _is_index_list,
    _json_neuron_count,
    _neuron_count,
    _set,
    _sorted_masks,
    _validate_neuron,
    _validate_perm,
    _Value,
    delete_shift_mask,
    indices_of,
    mask_from_indices,
    permute_mask,
    subset_bitsets,
)

ORACLE_MAX_NEURONS = 12

# Fold work, counted before each update: the form's size plus |grow| * |kept|,
# a bound on the divisor tests, which scan only the kept elements that
# disagree with the cube at one fixed neuron; 110-320M units/s near the
# limit (2 vCPUs, Python 3.11.7), so a rejection comes within about 0.2 s
# (0.08 s for random n=16 codes of 64 words). cr:64 takes 129k, cf-theorems
# at its --n cap 521k, random n=16 codes of 64 words 180-220M; no pinned
# input comes near the limit. The form's size alone misses the divisor
# tests: a random n=32 code of 64 words passes the limit while its forms
# sum to 38k elements, and runs for minutes without it.
CF_MAX_WORK = 20_000_000


class PseudoMonomial(namedtuple("PseudoMonomial", ("plus", "minus"))):
    """Product of x_i over `plus` and (1-x_j) over `minus`, disjoint masks.

    plus = minus = 0 encodes the constant 1; it is legal as a value but is
    never emitted in a canonical form. The pair carries no neuron count;
    `CanonicalForm` checks its elements against its own n.
    """

    __slots__ = ()

    @classmethod
    def from_indices(cls, n: int, plus: Iterable[int] = (),
                     minus: Iterable[int] = ()) -> "PseudoMonomial":
        return cls(mask_from_indices(plus, n), mask_from_indices(minus, n))

    @property
    def degree(self) -> int:
        return (self.plus | self.minus).bit_count()

    @property
    def support(self) -> int:
        return self.plus | self.minus

    def evaluate(self, mask: int) -> int:
        return 1 if (mask & self.plus == self.plus and mask & self.minus == 0) else 0

    def divides(self, other: "PseudoMonomial") -> bool:
        return (self.plus & other.plus == self.plus
                and self.minus & other.minus == self.minus)

    def to_text(self) -> str:
        factors = [f"x{i}" if self.plus >> (i - 1) & 1 else f"(1-x{i})"
                   for i in indices_of(self.plus | self.minus)]
        return "*".join(factors) or "1"

    def __str__(self) -> str:
        return self.to_text()


def rho(n: int, mask: int) -> PseudoMonomial:
    """The pseudo-monomial on n neurons that is 1 exactly at `mask`."""
    _sorted_masks(n, (mask,))
    return PseudoMonomial(mask, ((1 << n) - 1) ^ mask)


class CanonicalForm(_Value):
    """Pseudo-monomials on neurons 1..n, held as distinct `PseudoMonomial`
    pairs sorted by (degree, plus, minus).

    The constructor takes any iterable of (plus, minus) int pairs. Every
    producer in this module (the fold, the oracle, each `predict_cf` kind
    and the closed forms) returns a divisibility antichain by proof; the
    container itself only checks that each pair is in range, disjoint and
    not the constant 1, raising at the first that is not, so that redundant
    generating sets can still be fed to the graph builders. It then sorts
    the distinct pairs as packed int keys degree << 2n | plus << n | minus,
    which order as (degree, plus, minus).
    """

    __slots__ = ("n", "elements")

    def __init__(self, n: int, elements: Iterable[tuple[int, int]]) -> None:
        _neuron_count(n)
        keys = set()
        for p, m in elements:
            s = p | m
            if s >> n or p & m or not s:
                # a negative mask shifts to -1, so it counts as outside
                if s >> n:
                    raise ValueError(f"masks {p:#x}/{m:#x} outside neurons 1..{n}")
                if p & m:
                    raise ValueError("a variable cannot appear both plain and complemented")
                raise ValueError("the constant 1 cannot appear in a canonical form")
            keys.add(s.bit_count() << 2 * n | p << n | m)
        self._fill(n, keys)

    def _fill(self, n: int, keys: Iterable[int]) -> None:
        """Set n and the elements from distinct valid packed keys."""
        full = (1 << n) - 1
        pair = tuple.__new__
        _set(self, "n", n)
        _set(self, "elements", tuple([pair(PseudoMonomial, (k >> n & full, k & full))
                                      for k in sorted(keys)]))

    @classmethod
    def from_indices(cls, n: int,
                     elements: Iterable[tuple[Iterable[int], Iterable[int]]]) -> "CanonicalForm":
        return cls(n, [PseudoMonomial.from_indices(n, p, m) for p, m in elements])

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[PseudoMonomial]:
        return iter(self.elements)

    def to_text_lines(self) -> list[str]:
        return [f.to_text() for f in self.elements]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "cf": [{"plus": list(indices_of(p)), "minus": list(indices_of(m))}
                   for p, m in self.elements],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CanonicalForm":
        """Read `{"n": n, "cf": [{"plus": [...], "minus": [...]}, ...]}`.

        Anything else raises ValueError: n outside 1..MAX_NEURONS, an
        element that is not an object, or indices that are not a list of
        integers (JSON `true` and `1.5` included).
        """
        if not isinstance(obj, dict) or not isinstance(obj.get("cf"), list):
            raise ValueError('bad canonical form JSON: expected {"n": ..., "cf": [...]}')
        n = _json_neuron_count(obj, "canonical form")
        elements = []
        for el in obj["cf"]:
            if not isinstance(el, dict):
                raise ValueError(f"bad canonical form JSON: element {_clip(el)} is not an object")
            pair = (el.get("plus", []), el.get("minus", []))
            for indices in pair:
                if not _is_index_list(indices):
                    raise ValueError(f"bad canonical form JSON: element {_clip(el)} needs "
                                     f"lists of integer neuron indices")
            elements.append(pair)
        return cls.from_indices(n, elements)


def _subcube_cover(n: int, masks: Iterable[int]) -> list[tuple[int, int]]:
    """Disjoint subcubes that cover the code, as (low vertex, fixed mask)
    pairs sorted by low vertex.

    Starts from one cube per codeword; then, for neurons 1..n in turn, merges
    each two cubes that have the same fixed mask and differ only in that
    neuron. Every vertex of each cube is a codeword.
    """
    cubes = dict.fromkeys(masks, (1 << n) - 1)
    for bit in (1 << j for j in range(n)):
        for q in [q for q, fixed in cubes.items()
                  if not q & bit and cubes.get(q | bit) == fixed]:
            cubes[q] ^= bit
            del cubes[q | bit]
    return sorted(cubes.items())


def canonical_form(code: Code) -> CanonicalForm:
    """Canonical form of the neural ideal, by a subcube-at-a-time update.

    The code is covered by disjoint subcubes (see `_subcube_cover`). A cube
    Q with low vertex q and fixed mask F is the set of words that agree with
    q on F; its ideal is spanned by the linear generators x_b - q_b, b in F,
    and J(C u Q) = J(C) n J(Q). The fold starts from J(empty) = (1), the
    element 0. At each cube the elements f that vanish on Q, those that
    disagree with q at a neuron of F, are kept; each other g is replaced by
    g*(x_b - q_b) for every b in F outside its support, unless a kept element
    divides that product. The constant vanishes nowhere, so the first cube
    replaces it by its linear generators, none if F is empty (the code is all
    of {0,1}^n). Three facts make the update cheap and keep the form an
    antichain with no minimization pass:

    - A kept divisor of g*(x_b - q_b) cannot divide g, so it holds x_b - q_b.
    - No new product divides another: every g agrees with q on F, every
      x_b - q_b does not, and b is in F.
    - A kept divisor h disagrees with q on F at b alone, since the product
      does, so it divides exactly when its literals other than x_b - q_b are
      literals of g.

    The last test compares signs, not only supports. At a neuron of F, h and
    g both agree with q, so once h's support less b lies in g's their
    literals there match. At a free neuron of Q agreeing with q says
    nothing: h may hold x_j where g holds 1 - x_j, and then h divides no
    multiple of g although its support less b lies in g's. For a single
    codeword (F the full mask) no neuron is free and the supports decide.

    Each element is the int plus << n | minus, its set of literals. The
    literals that vanish at q on F, x_b for q_b = 0 and 1 - x_b for q_b = 1,
    form the mask `against`: f vanishes on Q when it holds one of them, and
    x_b - q_b is the one at b. Kept elements are indexed only when they hold
    exactly one, by that literal and as their other literals.

    The cubes are taken in ascending order of their low vertices: a prefix of
    the code then stays inside a subcube for longer, so the form keeps its
    linear generators and stays small. Codewords that differ in one neuron
    enter together, shortening the fold: cr:28's 56 codewords are 29 cubes.
    Raises ValueError before an update would take the work past CF_MAX_WORK.
    """
    n = code.n
    form, work = [0], 0
    for q, fixed in _subcube_cover(n, code.masks):
        against = (fixed & ~q) << n | (fixed & q)
        kept = []
        grow = []
        by_literal: dict[int, list[int]] = {}
        for f in form:
            bad = f & against
            if not bad:
                grow.append(f)
                continue
            kept.append(f)
            if not bad & (bad - 1):
                by_literal.setdefault(bad, []).append(f ^ bad)
        work += len(form) + len(grow) * len(kept)
        if work > CF_MAX_WORK:
            raise ValueError(f"canonical form too large: its fold passed {CF_MAX_WORK} "
                             f"units of work")
        form = kept
        for g in grow:
            free = fixed & ~(g | g >> n)
            while free:
                b = free & -free
                free ^= b
                lit = b & q or b << n
                for r in by_literal.get(lit, ()):
                    if r & g == r:
                        break
                else:
                    form.append(g | lit)
    # distinct valid pairs by proof, so the constructor's checks are skipped;
    # a literal mask's popcount is its degree
    cf = object.__new__(CanonicalForm)
    cf._fill(n, [f.bit_count() << 2 * n | f for f in form])
    return cf


def canonical_form_oracle(code: Code) -> CanonicalForm:
    """Definition-based oracle over all 3^n - 1 nonconstant pseudo-monomials,
    as bitsets over the subset lattice: bit m stands for the minus mask m.

    The pair (plus p, minus m) fails to vanish when a codeword w contains p
    and misses m; bad[p], the union of sub[~w] over the w that contain p,
    holds those m. Vanishing is closed under multiples, so a vanishing pair
    is minimal when removing any one neuron from m or p leaves a pair that
    does not vanish.
    """
    n = code.n
    if n > ORACLE_MAX_NEURONS:
        raise ValueError(f"oracle sweep is 3^n; n={n} exceeds the cap of {ORACLE_MAX_NEURONS}")
    full = (1 << n) - 1
    sub = subset_bitsets(n)
    bits = [1 << j for j in range(n)]
    bad = [0] * (full + 1)
    for w in code.masks:
        bad[w] = sub[full ^ w]
    for p in range(full, -1, -1):
        for b in bits:
            if not b & p:
                bad[p] |= bad[p | b]
    pairs = []
    for p in range(full + 1):
        rest = full ^ p
        vanishing = keep = sub[rest] & ~bad[p]
        for b in bits:
            if not keep:
                break
            if b & p:
                keep &= bad[p ^ b]
            else:
                keep &= ~((vanishing & sub[rest ^ b]) << b)
        while keep:
            low = keep & -keep
            pairs.append((p, low.bit_length() - 1))
            keep ^= low
    return CanonicalForm(n, pairs)


def predict_cf(cf: CanonicalForm, spec: ElementaryMap) -> CanonicalForm:
    """Transform a canonical form along an elementary code map.

    `cf` must be a canonical form, an antichain: each kind applies its rule
    element by element, so a redundant element list gives a redundant
    result. Each kind has a proven closed-form rule whose output is again an
    antichain; inclusion has none and is rejected.

    - Permutation relabels the neurons, a bijection on the elements.
    - Add-trivial appends x_new or 1 - x_new, the only element with the new
      neuron.
    - Delete keeps the elements without neuron i, a subset, shifted down.
    - Duplicate of neuron i into the new neuron i' keeps the old elements,
      adds a copy f' of each f that holds i, with i' in place of i on the
      same side, and adds the cross terms x_i(1 - x_i') and x_i'(1 - x_i)
      unless {i} is a support, that is, unless neuron i is constant.

    The duplicate union is an antichain. The old elements form one, and
    none of them holds i'. A divisor of a copy f' that lacks i' would properly
    divide f, so no old element divides a copy, and no copy divides an old
    element, which lacks i'. A copy g' divides f' only if g divides f, and
    the two kinds of copy put i' on opposite sides, so neither divides the
    other. The only possible divisors of a cross term have support inside
    {i, i'}: x_i, 1 - x_i or their copies, which are elements exactly when
    neuron i is constant, and then each cross term has one. A cross term
    divides no copy, since that would need i on both sides of one old
    element, nor any old element, which lacks i'.
    """
    n = cf.n
    if spec.kind == PERMUTATION:
        perm = _validate_perm(spec.perm, n)
        return CanonicalForm(n, [(permute_mask(p, perm), permute_mask(m, perm))
                                 for p, m in cf.elements])
    if spec.kind in (ADD_TRIVIAL_ON, ADD_TRIVIAL_OFF):
        hi = 1 << n
        return CanonicalForm(n + 1, [*cf.elements,
                                     (0, hi) if spec.kind == ADD_TRIVIAL_ON else (hi, 0)])
    if spec.kind == DUPLICATE:
        bit = 1 << (_validate_neuron(spec, n) - 1)
        hi = 1 << n
        elements = list(cf.elements)
        for p, m in cf.elements:
            if p & bit:
                elements.append(((p ^ bit) | hi, m))
            if m & bit:
                elements.append((p, (m ^ bit) | hi))
        if {(bit, 0), (0, bit)}.isdisjoint(cf.elements):
            elements += [(bit, hi), (hi, bit)]
        return CanonicalForm(n + 1, elements)
    if spec.kind == DELETE:
        i = _validate_neuron(spec, n)
        bit = 1 << (i - 1)
        return CanonicalForm(n - 1, [(delete_shift_mask(p, i), delete_shift_mask(m, i))
                                     for p, m in cf.elements if not (p | m) & bit])
    if spec.kind == INCLUSION:
        raise ValueError("no canonical-form transform is defined for inclusion maps")
    raise ValueError(f"unknown elementary map kind {spec.kind!r}")


def cf_cc_formula(m: int) -> CanonicalForm:
    """Closed-form canonical form of the chain code: x_i*(1-x_j) for j < i."""
    if m < 3:
        raise ValueError(f"chain closed form needs m >= 3, got {m}")
    n = m - 1
    return CanonicalForm(n, [(1 << (i - 1), 1 << (j - 1))
                             for i in range(2, n + 1) for j in range(1, i)])


def cf_cr_formula(k: int) -> CanonicalForm:
    """Closed-form canonical form of the cycle family.

    The all-complemented product is always present. For k >= 4 the rest are
    the products x_i*x_j over cyclically non-adjacent pairs; for k = 3 every
    pair is adjacent and the extra element is x1*x2*x3.
    """
    if k < 3:
        raise ValueError(f"cycle closed form needs k >= 3, got {k}")
    full = (1 << k) - 1
    if k == 3:
        return CanonicalForm(k, [(0, full), (full, 0)])
    return CanonicalForm(k, [(0, full)] + [
        ((1 << (i - 1)) | (1 << (j - 1)), 0)
        for i in range(2, k + 1) for j in range(1, i) if (i - j) % k not in (1, k - 1)])
