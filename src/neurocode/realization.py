"""Exact verification of convex cover realizations.

Covers are families of 1D open intervals or 2D closed segments with
rational endpoints. The realized code of a cover is computed from the exact
arrangement of endpoints and intersections; no floating point anywhere, so
realized codes are invariant under rational rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .codes import Code
from .ideal import CanonicalForm, PseudoMonomial
from .codes import submasks

AMBIENT_LINE = "line"
AMBIENT_UNION = "union"

CF_MAX_SETS = 12

Point = tuple[Fraction, Fraction]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) is int or isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"exact rational required, got {value!r} ({type(value).__name__})")


@dataclass(frozen=True)
class IntervalCover:
    """Open intervals U_1..U_n with exact endpoints; the stimulus space is
    either the whole line or the union of the intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    ambient: str = AMBIENT_LINE

    def __post_init__(self) -> None:
        fixed = []
        for a, b in self.intervals:
            a, b = _as_fraction(a), _as_fraction(b)
            if not a < b:
                raise ValueError(f"interval ({a}, {b}) is empty")
            fixed.append((a, b))
        if not fixed:
            raise ValueError("a cover needs at least one interval")
        if self.ambient not in (AMBIENT_LINE, AMBIENT_UNION):
            raise ValueError(f"ambient must be {AMBIENT_LINE!r} or {AMBIENT_UNION!r}")
        object.__setattr__(self, "intervals", tuple(fixed))

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class SegmentCover:
    """Closed 2D segments U_1..U_k with exact endpoints; the stimulus space
    is their union."""

    segments: tuple[tuple[Point, Point], ...]

    def __post_init__(self) -> None:
        fixed = []
        for p, q in self.segments:
            p = (_as_fraction(p[0]), _as_fraction(p[1]))
            q = (_as_fraction(q[0]), _as_fraction(q[1]))
            if p == q:
                raise ValueError(f"degenerate segment at {p}")
            fixed.append((p, q))
        if not fixed:
            raise ValueError("a cover needs at least one segment")
        object.__setattr__(self, "segments", tuple(fixed))

    @property
    def k(self) -> int:
        return len(self.segments)


def code_of_intervals(cover: IntervalCover) -> Code:
    """Realized code of an open interval cover, by exact arrangement.

    Membership masks are constant on the open cells between consecutive
    endpoints, so sampling every endpoint, every cell midpoint, and (on the
    whole line) one point beyond each extreme captures every codeword.
    """
    pts = sorted({e for iv in cover.intervals for e in iv})
    samples = list(pts)
    samples.extend((a + b) / 2 for a, b in zip(pts, pts[1:]))
    if cover.ambient == AMBIENT_LINE:
        samples.append(pts[0] - 1)
        samples.append(pts[-1] + 1)
    masks = set()
    for x in samples:
        mask = 0
        for i, (a, b) in enumerate(cover.intervals):
            if a < x < b:
                mask |= 1 << i
        if mask or cover.ambient == AMBIENT_LINE:
            masks.add(mask)
    return Code.from_masks(cover.n, masks)


def cc_m_intervals(m: int) -> IntervalCover:
    """The nested cover (i, m) for i = 1..m-1 realizing the chain code on
    the whole line."""
    if m < 2:
        raise ValueError(f"chain cover needs m >= 2, got {m}")
    return IntervalCover(tuple((Fraction(i), Fraction(m)) for i in range(1, m)),
                         AMBIENT_LINE)


def _sigma_intersection(cover: IntervalCover, sigma: int):
    """Common part of the intervals in sigma as (lo, hi); None when empty.
    sigma = 0 is the caller's business."""
    lo = None
    hi = None
    for i, (a, b) in enumerate(cover.intervals):
        if sigma >> i & 1:
            lo = a if lo is None else max(lo, a)
            hi = b if hi is None else min(hi, b)
    if lo is None or not lo < hi:
        return None
    return (lo, hi)


def _merged_components(cover: IntervalCover, tau: int) -> list[tuple[Fraction, Fraction]]:
    """Connected components of the union over tau. Open intervals merge only
    on strict overlap: touching endpoints leave the shared point uncovered."""
    ivs = sorted(cover.intervals[i] for i in range(cover.n) if tau >> i & 1)
    comps: list[list[Fraction]] = []
    for a, b in ivs:
        if comps and a < comps[-1][1]:
            comps[-1][1] = max(comps[-1][1], b)
        else:
            comps.append([a, b])
    return [(a, b) for a, b in comps]


def cf_from_intervals(cover: IntervalCover) -> CanonicalForm:
    """Canonical form of the realized code straight from the cover geometry.

    Three generator families: empty intersections, intersections covered by
    other intervals' unions, and (only when the stimulus space is the union)
    subfamilies covering the whole space. Each condition is monotone, so
    minimality reduces to single-element removals.
    """
    n = cover.n
    if n > CF_MAX_SETS:
        raise ValueError(f"cover has {n} sets; the subset sweep is capped at {CF_MAX_SETS}")
    full = (1 << n) - 1
    inter = {sigma: _sigma_intersection(cover, sigma) for sigma in range(1, full + 1)}
    comps = {tau: _merged_components(cover, tau) for tau in range(1, full + 1)}

    def covered(interval, tau: int) -> bool:
        lo, hi = interval
        return any(a <= lo and hi <= b for a, b in comps[tau])

    def covers_space(tau: int) -> bool:
        if cover.ambient == AMBIENT_LINE:
            return False
        return all(covered(cover.intervals[i], tau) for i in range(n))

    elements = set()
    for sigma in range(1, full + 1):
        if inter[sigma] is not None:
            continue
        low_bits = [sigma & ~(1 << i) for i in range(n) if sigma >> i & 1]
        if all(sub == 0 or inter[sub] is not None for sub in low_bits):
            elements.add(PseudoMonomial(n, sigma, 0))

    for sigma in range(1, full + 1):
        u_sigma = inter[sigma]
        if u_sigma is None:
            continue
        rest = full ^ sigma
        for tau in submasks(rest):
            if tau == 0 or covers_space(tau) or not covered(u_sigma, tau):
                continue
            sigma_min = all(
                sub == 0 or inter[sub] is None or not covered(inter[sub], tau)
                for sub in (sigma & ~(1 << i) for i in range(n) if sigma >> i & 1))
            if not sigma_min:
                continue
            tau_min = all(
                sub == 0 or not covered(u_sigma, sub)
                for sub in (tau & ~(1 << i) for i in range(n) if tau >> i & 1))
            if tau_min:
                elements.add(PseudoMonomial(n, sigma, tau))

    if cover.ambient == AMBIENT_UNION:
        for tau in range(1, full + 1):
            if not covers_space(tau):
                continue
            subs = [tau & ~(1 << i) for i in range(n) if tau >> i & 1]
            if all(sub == 0 or not covers_space(sub) for sub in subs):
                elements.add(PseudoMonomial(n, 0, tau))

    return CanonicalForm(n, frozenset(elements))


def cr_k_polygon(k: int) -> SegmentCover:
    """Closed polygon-edge cover realizing the cycle family.

    Vertices sit at (j, j^2) on a parabola: integer coordinates in strictly
    convex position, so consecutive edges share exactly one point and
    non-consecutive edges are disjoint, like the regular k-gon.
    """
    if k < 3:
        raise ValueError(f"polygon cover needs k >= 3, got {k}")
    pts = [(Fraction(j), Fraction(j * j)) for j in range(k)]
    segments = tuple((pts[i], pts[(i + 1) % k]) for i in range(k))
    return SegmentCover(segments)


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(pt: Point, seg: tuple[Point, Point]) -> bool:
    p, q = seg
    if _cross(p, q, pt) != 0:
        return False
    dx, dy = q[0] - p[0], q[1] - p[1]
    t_num = (pt[0] - p[0]) * dx + (pt[1] - p[1]) * dy
    return 0 <= t_num <= dx * dx + dy * dy


def _intersection_params(seg: tuple[Point, Point], other: tuple[Point, Point]) -> list[Fraction]:
    """Parameters on `seg` where its intersection with `other` begins/ends.

    Empty when disjoint, one value for a transversal or touching point, two
    for the ends of a collinear overlap.
    """
    p, pq = seg
    q, qd = other
    d1 = (pq[0] - p[0], pq[1] - p[1])
    d2 = (qd[0] - q[0], qd[1] - q[1])
    diff = (q[0] - p[0], q[1] - p[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom != 0:
        t = (diff[0] * d2[1] - diff[1] * d2[0]) / denom
        s = (diff[0] * d1[1] - diff[1] * d1[0]) / denom
        if 0 <= t <= 1 and 0 <= s <= 1:
            return [t]
        return []
    if diff[0] * d1[1] - diff[1] * d1[0] != 0:
        return []
    dd = d1[0] * d1[0] + d1[1] * d1[1]
    t0 = (diff[0] * d1[0] + diff[1] * d1[1]) / dd
    t1 = ((diff[0] + d2[0]) * d1[0] + (diff[1] + d2[1]) * d1[1]) / dd
    lo, hi = min(t0, t1), max(t0, t1)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return []
    if lo == hi:
        return [lo]
    return [lo, hi]


def code_of_segments(cover: SegmentCover) -> Code:
    """Realized code of a closed segment cover over the union of the segments.

    Along each segment the membership mask changes only where another
    segment's intersection begins or ends, so sampling those parameters and
    the midpoints between them captures every codeword.
    """
    segs = cover.segments
    k = cover.k
    masks = set()
    for i, seg in enumerate(segs):
        ts = {Fraction(0), Fraction(1)}
        for j, other in enumerate(segs):
            if j != i:
                ts.update(_intersection_params(seg, other))
        tlist = sorted(ts)
        samples = list(tlist)
        samples.extend((a + b) / 2 for a, b in zip(tlist, tlist[1:]))
        (px, py), (qx, qy) = seg
        for t in samples:
            pt = (px + t * (qx - px), py + t * (qy - py))
            mask = 0
            for j, other in enumerate(segs):
                if _on_segment(pt, other):
                    mask |= 1 << j
            masks.add(mask)
    return Code.from_masks(k, masks)


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
        raise ValueError(f"expected a list of pairs, got {value!r}")
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
        raise ValueError(f"unknown cover kind {kind!r}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad cover JSON: {exc}") from exc
