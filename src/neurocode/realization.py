"""Exact verification of convex cover realizations.

Covers are families of 1D open intervals or 2D closed segments with
rational endpoints, at most one set per neuron. The realized code of a
cover is computed from the exact arrangement of endpoints and
intersections; no floating point anywhere, so realized codes are invariant
under rational rescaling.

An interval arrangement is sampled once, on endpoint ranks, and reduced to
the membership masks of its cells.

A segment cover is scaled to integer coordinates and each segment sampled
on the ranks of the parameters where the others' meets with it begin and
end; the only division is the `Fraction` of each parameter.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from .codes import MAX_NEURONS, Code, _clip, _set, _Value
from .ideal import ORACLE_MAX_NEURONS, CanonicalForm, canonical_form_oracle

AMBIENT_LINE = "line"
AMBIENT_UNION = "union"

Point = tuple[Fraction, Fraction]
# Fraction's grammar less the exponent, in ASCII: Fraction itself reads "1_0"
# from Python 3.11 on, "2 / 3" from 3.12 on and non-ASCII digits everywhere.
_RATIONAL_RE = re.compile(r"\s*[-+]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)\s*", re.ASCII)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and "e" in value.lower():
        # Fraction("1e<k>") builds 10**k first: hours and gigabytes for a large k
        raise ValueError(f"exponents are not allowed in a rational, got {_clip(value)}")
    if isinstance(value, str) and not _RATIONAL_RE.fullmatch(value):
        raise ValueError(f"a rational is ASCII digits as p, p/q or a decimal, got {_clip(value)}")
    if type(value) is int or isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"exact rational required, got {_clip(value)} ({type(value).__name__})")


def _check_set_count(sets: tuple) -> None:
    # one neuron per set: reject an oversize cover before reading its geometry
    if len(sets) > MAX_NEURONS:
        raise ValueError(f"cover has {len(sets)} sets; at most {MAX_NEURONS} are allowed")


class IntervalCover(_Value):
    """Open intervals U_1..U_n with exact endpoints; the stimulus space is
    either the whole line or the union of the intervals."""

    __slots__ = ("intervals", "ambient")

    def __init__(self, intervals: tuple[tuple[Fraction, Fraction], ...],
                 ambient: str = AMBIENT_LINE) -> None:
        _check_set_count(intervals)
        fixed = []
        for a, b in intervals:
            a, b = _as_fraction(a), _as_fraction(b)
            if not a < b:
                raise ValueError(f"interval ({a}, {b}) is empty")
            fixed.append((a, b))
        if not fixed:
            raise ValueError("a cover needs at least one interval")
        if ambient not in (AMBIENT_LINE, AMBIENT_UNION):
            raise ValueError(f"ambient must be {AMBIENT_LINE!r} or {AMBIENT_UNION!r}")
        _set(self, "intervals", tuple(fixed))
        _set(self, "ambient", ambient)

    @property
    def n(self) -> int:
        return len(self.intervals)


class SegmentCover(_Value):
    """Closed 2D segments U_1..U_k with exact endpoints; the stimulus space
    is their union."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[tuple[Point, Point], ...]) -> None:
        _check_set_count(segments)
        fixed = []
        for p, q in segments:
            p = (_as_fraction(p[0]), _as_fraction(p[1]))
            q = (_as_fraction(q[0]), _as_fraction(q[1]))
            if p == q:
                raise ValueError(f"degenerate segment at {p}")
            fixed.append((p, q))
        if not fixed:
            raise ValueError("a cover needs at least one segment")
        _set(self, "segments", tuple(fixed))

    @property
    def k(self) -> int:
        return len(self.segments)


def code_of_intervals(cover: IntervalCover) -> Code:
    """Realized code of an open interval cover, by exact arrangement.

    Membership is constant between neighbouring endpoints, so one sample at
    every endpoint and one between each neighbouring pair sees every cell.
    The samples work on endpoint ranks r: sample 2r sits on an endpoint,
    2r + 1 between ranks r and r + 1, and interval i holds the samples
    strictly between twice the ranks of its ends. Sample 0, on the lowest
    endpoint, lies in no interval: the empty word is a codeword on the whole
    line, which reaches past every interval, and not on their union.
    """
    rank = {e: 2 * r for r, e in enumerate(sorted({e for iv in cover.intervals for e in iv}))}
    spans = [(rank[a], rank[b]) for a, b in cover.intervals]
    masks = set()
    for x in range(len(rank) * 2 - 1):
        mask = 0
        for i, (a, b) in enumerate(spans):
            if a < x < b:
                mask |= 1 << i
        masks.add(mask)
    if cover.ambient != AMBIENT_LINE:
        masks.discard(0)
    return Code.from_masks(cover.n, masks)


def cc_m_intervals(m: int) -> IntervalCover:
    """The nested cover (i, m) for i = 1..m-1 realizing the chain code on
    the whole line."""
    if not 2 <= m <= MAX_NEURONS + 1:
        raise ValueError(f"chain cover needs 2 <= m <= {MAX_NEURONS + 1}, got {m}")
    return IntervalCover(tuple((Fraction(i), Fraction(m)) for i in range(1, m)),
                         AMBIENT_LINE)


def cf_from_intervals(cover: IntervalCover) -> CanonicalForm:
    """Canonical form of the cover: its minimal relationships U_sigma = empty,
    U_sigma in the union of the U_i over tau, and (only when the stimulus
    space is the union) tau covering the whole space.

    Every point of U_sigma lies in a cell of the arrangement whose mask
    contains sigma, so U_sigma lies in the union over tau exactly when every
    cell that contains sigma meets tau, and tau covers the space when every
    cell meets tau, which the empty cell of the whole line never does. The
    cells are the codewords of the realized code, so these relationships are
    the code's vanishing pseudo-monomials, and the oracle's sweep over them
    is the cover's canonical form.
    """
    return _cf_of_realized(code_of_intervals(cover))


def _cf_of_realized(realized: Code) -> CanonicalForm:
    """`cf_from_intervals` of the interval cover whose realized code is
    `realized`, for a caller that already holds that code."""
    if realized.n > ORACLE_MAX_NEURONS:
        raise ValueError(f"cover has {realized.n} sets; the subset sweep is capped at "
                         f"{ORACLE_MAX_NEURONS}")
    return canonical_form_oracle(realized)


def cr_k_polygon(k: int) -> SegmentCover:
    """Closed polygon-edge cover realizing the cycle family.

    Vertices sit at (j, j^2) on a parabola: integer coordinates in strictly
    convex position, so consecutive edges share exactly one point and
    non-consecutive edges are disjoint, like the regular k-gon.
    """
    if not 3 <= k <= MAX_NEURONS:
        raise ValueError(f"polygon cover needs 3 <= k <= {MAX_NEURONS}, got {k}")
    pts = [(Fraction(j), Fraction(j * j)) for j in range(k)]
    segments = tuple((pts[i], pts[(i + 1) % k]) for i in range(k))
    return SegmentCover(segments)


def _meet_range(p: tuple[int, int], d: tuple[int, int],
                q: tuple[int, int], e: tuple[int, int]) -> tuple[Fraction, Fraction] | None:
    """Closed range [lo, hi] of the t in [0, 1] with p + t*d on the segment
    q + s*e, s in [0, 1], or None: lo == hi for a crossing or touching point,
    the clipped ends of a collinear overlap. Integer cross and dot products
    decide; each end is one `Fraction`."""
    (px, py), (dx, dy), (qx, qy), (ex, ey) = p, d, q, e
    wx, wy = qx - px, qy - py
    den = dx * ey - dy * ex
    if den:
        t = wx * ey - wy * ex
        s = wx * dy - wy * dx
        if den < 0:
            den, t, s = -den, -t, -s
        if 0 <= t <= den and 0 <= s <= den:
            t = Fraction(t, den)
            return t, t
        return None
    if wx * dy - wy * dx:
        return None
    dd = dx * dx + dy * dy
    a = wx * dx + wy * dy
    b = a + ex * dx + ey * dy
    lo, hi = max(min(a, b), 0), min(max(a, b), dd)
    if lo > hi:
        return None
    return Fraction(lo, dd), Fraction(hi, dd)


def code_of_segments(cover: SegmentCover) -> Code:
    """Realized code of a closed segment cover over the union of the segments.

    Coordinates are scaled by the LCM of their denominators to plain ints,
    which realizes the same code. Along segment i the mask changes only where
    another segment's meet with it begins or ends, so the samples work on
    the ranks r of those parameters, 0 and 1: sample 2r sits on a parameter,
    2r + 1 between ranks r and r + 1, and segment j holds the samples over
    twice the ranks of its meet's ends.
    """
    coords = [c for p, q in cover.segments for c in (*p, *q)]
    scale = math.lcm(*(c.denominator for c in coords))
    x = [c.numerator * (scale // c.denominator) for c in coords]
    segs = [((x[i], x[i + 1]), (x[i + 2] - x[i], x[i + 3] - x[i + 1]))
            for i in range(0, len(x), 4)]
    masks = set()
    for i, (p, d) in enumerate(segs):
        meets = [(span, 1 << j) for j, (q, e) in enumerate(segs)
                 if j != i and (span := _meet_range(p, d, q, e))]
        params = sorted({0, 1, *(t for span, _ in meets for t in span)})
        rank = {t: 2 * r for r, t in enumerate(params)}
        samples = [1 << i] * (2 * len(params) - 1)
        for (lo, hi), bit in meets:
            for s in range(rank[lo], rank[hi] + 1):
                samples[s] |= bit
        masks.update(samples)
    return Code.from_masks(cover.k, masks)


def cover_to_json_obj(cover: IntervalCover | SegmentCover) -> dict:
    if isinstance(cover, IntervalCover):
        return {
            "kind": "intervals",
            "ambient": cover.ambient,
            "sets": [[str(a), str(b)] for a, b in cover.intervals],
        }
    return {
        "kind": "segments",
        "ambient": AMBIENT_UNION,
        "sets": [[[str(p[0]), str(p[1])], [str(q[0]), str(q[1])]]
                 for p, q in cover.segments],
    }


def _pairs(value) -> list:
    if not isinstance(value, list) or any(not isinstance(v, list) or len(v) != 2 for v in value):
        raise ValueError(f"expected a list of pairs, got {_clip(value)}")
    return value


def cover_from_json_obj(obj: dict) -> IntervalCover | SegmentCover:
    """Read `{"kind": ..., "sets": [...]}`: intervals `[a, b]` or segments
    `[[x, y], [x, y]]` of JSON integers or rational strings; else ValueError."""
    if not isinstance(obj, dict):
        raise ValueError('bad cover JSON: expected {"kind": ..., "sets": [...]}')
    try:
        kind = obj["kind"]
        sets = _pairs(obj["sets"])
        if kind == "intervals":
            return IntervalCover(tuple(sets), obj.get("ambient", AMBIENT_LINE))
        if kind == "segments":
            if obj.get("ambient", AMBIENT_UNION) != AMBIENT_UNION:
                raise ValueError("segment covers only support the union stimulus space")
            return SegmentCover(tuple(_pairs(s) for s in sets))
        raise ValueError(f"unknown cover kind {_clip(kind)}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad cover JSON: {exc}") from exc
