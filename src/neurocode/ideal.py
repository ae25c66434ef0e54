"""Pseudo-monomial arithmetic and canonical forms of neural ideals.

A pseudo-monomial is a product of plain variables and complemented
variables over disjoint index sets, held as a pair of masks. The canonical
form of a code's neural ideal has one production path, the codeword-at-a-time
update of Petersen et al. (Neural ideals in SageMath, 2018) on (plus, minus)
mask pairs, and one independent check, a full 3^n vanishing sweep (the
definition-based oracle) that shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .codes import (
    ADD_TRIVIAL_OFF,
    ADD_TRIVIAL_ON,
    DELETE,
    DUPLICATE,
    INCLUSION,
    PERMUTATION,
    Code,
    Codeword,
    ElementaryMap,
    _is_index_list,
    _json_neuron_count,
    _validate_neuron,
    _validate_perm,
    delete_shift_mask,
    indices_of,
    mask_from_indices,
    permute_mask,
    submasks,
)

ORACLE_MAX_NEURONS = 12


class _ZeroPolynomial:
    """Sentinel for a product that collapsed to zero; never stored in sets."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"

    def __bool__(self) -> bool:
        return False


ZERO = _ZeroPolynomial()


@dataclass(frozen=True, slots=True)
class PseudoMonomial:
    """Product of x_i over `plus` and (1-x_j) over `minus`, disjoint masks.

    plus = minus = 0 encodes the constant 1; it is legal as a value but is
    never emitted in a canonical form.
    """

    n: int
    plus: int
    minus: int

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if self.plus < 0 or self.plus & ~full or self.minus < 0 or self.minus & ~full:
            raise ValueError(f"masks {self.plus:#x}/{self.minus:#x} outside neurons 1..{self.n}")
        if self.plus & self.minus:
            raise ValueError("a variable cannot appear both plain and complemented")

    @classmethod
    def from_indices(cls, n: int, plus: Iterable[int] = (),
                     minus: Iterable[int] = ()) -> "PseudoMonomial":
        return cls(n, mask_from_indices(plus, n), mask_from_indices(minus, n))

    @property
    def degree(self) -> int:
        return (self.plus | self.minus).bit_count()

    @property
    def support(self) -> int:
        return self.plus | self.minus

    def evaluate(self, word: Codeword | int) -> int:
        bits = word.bits if isinstance(word, Codeword) else word
        return 1 if (bits & self.plus == self.plus and bits & self.minus == 0) else 0

    def divides(self, other: "PseudoMonomial") -> bool:
        return (self.plus & other.plus == self.plus
                and self.minus & other.minus == self.minus)

    def __mul__(self, other: "PseudoMonomial"):
        if self.n != other.n:
            raise ValueError("cannot multiply pseudo-monomials on different neuron counts")
        plus = self.plus | other.plus
        minus = self.minus | other.minus
        if plus & minus:
            return ZERO
        return PseudoMonomial(self.n, plus, minus)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.degree, self.plus, self.minus)

    def to_text(self) -> str:
        factors = []
        for i in range(1, self.n + 1):
            bit = 1 << (i - 1)
            if self.plus & bit:
                factors.append(f"x{i}")
            elif self.minus & bit:
                factors.append(f"(1-x{i})")
        return "*".join(factors) if factors else "1"

    def __str__(self) -> str:
        return self.to_text()


def rho(word: Codeword) -> PseudoMonomial:
    """The characteristic pseudo-monomial of a codeword: 1 exactly there."""
    full = (1 << word.n) - 1
    return PseudoMonomial(word.n, word.bits, full ^ word.bits)


@dataclass(frozen=True)
class CanonicalForm:
    """A set of pseudo-monomials on a common neuron count.

    Outputs of the canonical-form algorithms are divisibility-minimal
    antichains; the container itself only enforces per-element validity so
    that redundant generating sets can still be fed to the graph builders.
    """

    n: int
    elements: frozenset[PseudoMonomial]

    def __post_init__(self) -> None:
        elements = frozenset(self.elements)
        object.__setattr__(self, "elements", elements)
        for f in elements:
            if f.n != self.n:
                raise ValueError(f"element {f} is on {f.n} neurons, form is on {self.n}")
            if f.plus == 0 and f.minus == 0:
                raise ValueError("the constant 1 cannot appear in a canonical form")

    @classmethod
    def from_indices(cls, n: int,
                     elements: Iterable[tuple[Iterable[int], Iterable[int]]]) -> "CanonicalForm":
        return cls(n, frozenset(PseudoMonomial.from_indices(n, p, m) for p, m in elements))

    @property
    def sorted_elements(self) -> tuple[PseudoMonomial, ...]:
        return tuple(sorted(self.elements, key=PseudoMonomial.sort_key))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted_elements)

    def to_text_lines(self) -> list[str]:
        return [f.to_text() for f in self.sorted_elements]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "cf": [{"plus": list(indices_of(f.plus)), "minus": list(indices_of(f.minus))}
                   for f in self.sorted_elements],
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
                raise ValueError(f"bad canonical form JSON: element {el!r} is not an object")
            pair = (el.get("plus", []), el.get("minus", []))
            for indices in pair:
                if not _is_index_list(indices):
                    raise ValueError(f"bad canonical form JSON: element {el!r} needs "
                                     f"lists of integer neuron indices")
            elements.append(pair)
        return cls.from_indices(n, elements)


def _minimal_pairs(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Divisibility-minimal (plus, minus) pairs, ascending-degree scan."""
    ordered = sorted(set(pairs), key=lambda pm: ((pm[0] | pm[1]).bit_count(), pm[0], pm[1]))
    kept: list[tuple[int, int]] = []
    for p, m in ordered:
        if not any(kp & p == kp and km & m == km for kp, km in kept):
            kept.append((p, m))
    return kept


def canonical_form(code: Code) -> CanonicalForm:
    """Canonical form of the neural ideal, by the codeword-at-a-time update.

    Starts from the linear generators x_j - c_j of the first codeword c. At
    each next codeword c, the elements f with f(c) = 0 are kept; each g with
    g(c) = 1 is replaced by g*(x_b - c_b) for every neuron b outside its
    support, unless a kept element divides that product. Kept elements are
    indexed by the neurons where they disagree with c. Two facts make the
    update cheap and keep the form an antichain with no minimization pass:

    - A kept divisor of g*(x_b - c_b) cannot divide g, so it holds x_b - c_b.
    - No new product divides another: every g agrees with c, every x_b - c_b does not.
    """
    n = code.n
    full = (1 << n) - 1
    first, *rest = code.masks
    form = [(0, bit) if first & bit else (bit, 0) for bit in (1 << j for j in range(n))]
    for c in rest:
        kept = []
        grow = []
        by_literal: dict[int, list[tuple[int, int]]] = {}
        for p, m in form:
            disagree = (p & ~c) | (m & c)
            if not disagree:
                grow.append((p, m))
                continue
            kept.append((p, m))
            while disagree:
                b = disagree & -disagree
                disagree ^= b
                by_literal.setdefault(b, []).append((p, m))
        form = kept
        for p, m in grow:
            free = full & ~(p | m)
            while free:
                b = free & -free
                free ^= b
                plus, minus = (p, m | b) if c & b else (p | b, m)
                for kp, km in by_literal.get(b, ()):
                    if kp & plus == kp and km & minus == km:
                        break
                else:
                    form.append((plus, minus))
    return CanonicalForm(n, frozenset(PseudoMonomial(n, p, m) for p, m in form))


def canonical_form_oracle(code: Code) -> CanonicalForm:
    """Definition-based oracle: sweep all 3^n - 1 nonconstant pseudo-monomials,
    keep those vanishing on every codeword, return the divisibility-minimal
    ones."""
    n = code.n
    if n > ORACLE_MAX_NEURONS:
        raise ValueError(f"oracle sweep is 3^n; n={n} exceeds the cap of {ORACLE_MAX_NEURONS}")
    full = (1 << n) - 1
    words = code.masks
    vanishing = []
    for plus in range(full + 1):
        rest = full ^ plus
        for minus in submasks(rest):
            if plus == 0 and minus == 0:
                continue
            for w in words:
                if w & plus == plus and w & minus == 0:
                    break
            else:
                vanishing.append((plus, minus))
    pairs = _minimal_pairs(vanishing)
    return CanonicalForm(n, frozenset(PseudoMonomial(n, p, m) for p, m in pairs))


def predict_cf(cf: CanonicalForm, spec: ElementaryMap) -> CanonicalForm:
    """Transform a canonical form along an elementary code map.

    Each variant has a proven closed-form rule; inclusion has none and is
    rejected. The duplication rule's four-part union may contain multiples
    in degenerate cases, so it is pruned before being returned.
    """
    n = cf.n
    if spec.kind == PERMUTATION:
        perm = _validate_perm(spec.perm, n)
        return CanonicalForm(n, frozenset(
            PseudoMonomial(n, permute_mask(f.plus, perm), permute_mask(f.minus, perm))
            for f in cf.elements))
    if spec.kind == ADD_TRIVIAL_ON:
        lifted = {PseudoMonomial(n + 1, f.plus, f.minus) for f in cf.elements}
        lifted.add(PseudoMonomial(n + 1, 0, 1 << n))
        return CanonicalForm(n + 1, frozenset(lifted))
    if spec.kind == ADD_TRIVIAL_OFF:
        lifted = {PseudoMonomial(n + 1, f.plus, f.minus) for f in cf.elements}
        lifted.add(PseudoMonomial(n + 1, 1 << n, 0))
        return CanonicalForm(n + 1, frozenset(lifted))
    if spec.kind == DUPLICATE:
        bit = 1 << (_validate_neuron(spec, n) - 1)
        hi = 1 << n
        parts = {(f.plus, f.minus) for f in cf.elements}
        for f in cf.elements:
            if f.plus & bit:
                parts.add(((f.plus ^ bit) | hi, f.minus))
            if f.minus & bit:
                parts.add((f.plus, (f.minus ^ bit) | hi))
        parts.add((bit, hi))
        parts.add((hi, bit))
        pairs = _minimal_pairs(parts)
        return CanonicalForm(n + 1, frozenset(PseudoMonomial(n + 1, p, m) for p, m in pairs))
    if spec.kind == DELETE:
        i = _validate_neuron(spec, n)
        bit = 1 << (i - 1)
        kept = {f for f in cf.elements if not (f.plus | f.minus) & bit}
        return CanonicalForm(n - 1, frozenset(
            PseudoMonomial(n - 1, delete_shift_mask(f.plus, i), delete_shift_mask(f.minus, i))
            for f in kept))
    if spec.kind == INCLUSION:
        raise ValueError("no canonical-form transform is defined for inclusion maps")
    raise ValueError(f"unknown elementary map kind {spec.kind!r}")


def cf_cc_formula(m: int) -> CanonicalForm:
    """Closed-form canonical form of the chain code: x_i*(1-x_j) for j < i."""
    if m < 3:
        raise ValueError(f"chain closed form needs m >= 3, got {m}")
    n = m - 1
    elements = {PseudoMonomial(n, 1 << (i - 1), 1 << (j - 1))
                for i in range(2, n + 1) for j in range(1, i)}
    return CanonicalForm(n, frozenset(elements))


def cf_cr_formula(k: int) -> CanonicalForm:
    """Closed-form canonical form of the cycle family.

    The all-complemented product is always present. For k >= 4 the rest are
    the products x_i*x_j over cyclically non-adjacent pairs; for k = 3 every
    pair is adjacent and the extra element is x1*x2*x3.
    """
    if k < 3:
        raise ValueError(f"cycle closed form needs k >= 3, got {k}")
    full = (1 << k) - 1
    elements = {PseudoMonomial(k, 0, full)}
    if k == 3:
        elements.add(PseudoMonomial(k, full, 0))
    else:
        for i in range(2, k + 1):
            for j in range(1, i):
                if (i - j) % k not in (1, k - 1):
                    elements.add(PseudoMonomial(k, (1 << (i - 1)) | (1 << (j - 1)), 0))
    return CanonicalForm(k, frozenset(elements))
