"""Exact cover realizations: interval arrangements, segment intersections,
and the cover-to-canonical-form path."""

import json
import random
from fractions import Fraction

import pytest

from neurocode import cli
from neurocode.codes import MAX_NEURONS, Code, cc_family, cr_family
from neurocode.ideal import canonical_form, cf_cc_formula
from neurocode.realization import (
    AMBIENT_LINE,
    AMBIENT_UNION,
    IntervalCover,
    SegmentCover,
    cc_m_intervals,
    cf_from_intervals,
    code_of_intervals,
    code_of_segments,
    cover_from_json_obj,
    cover_to_json_obj,
    cr_k_polygon,
)


def intervals(pairs, ambient=AMBIENT_LINE):
    return IntervalCover(tuple((Fraction(a), Fraction(b)) for a, b in pairs), ambient)


class TestIntervalCover:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            intervals([(1, 1)])

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            IntervalCover(((0.5, 1.5),))

    def test_reads_rational_strings_without_exponent(self):
        cover = IntervalCover((("-4", "0.5"), ("1/3", "3/2")))
        assert cover.intervals == ((-4, Fraction(1, 2)), (Fraction(1, 3), Fraction(3, 2)))
        for text in ("1e3", "1E-2", "0.5e1"):
            with pytest.raises(ValueError, match="exponents are not allowed"):
                IntervalCover((("0", text),))

    def test_rejects_no_sets(self):
        with pytest.raises(ValueError):
            IntervalCover((), AMBIENT_LINE)

    def test_rejects_more_sets_than_neurons(self):
        assert intervals([(i, i + 1) for i in range(MAX_NEURONS)]).n == MAX_NEURONS
        with pytest.raises(ValueError, match=f"65 sets; at most {MAX_NEURONS}"):
            intervals([(i, i + 1) for i in range(MAX_NEURONS + 1)])


class TestCodeOfIntervals:
    def test_chain_three(self):
        assert code_of_intervals(cc_m_intervals(3)) == cc_family(3)

    def test_single_interval_whole_line(self):
        c = code_of_intervals(intervals([(0, 1)]))
        assert c == Code.from_indices(1, [(), (1,)])

    def test_two_overlapping_union(self):
        c = code_of_intervals(intervals([(0, 2), (1, 3)], AMBIENT_UNION))
        assert c == Code.from_indices(2, [(1,), (1, 2), (2,)])

    def test_union_drops_empty_word(self):
        c = code_of_intervals(intervals([(0, 1), (2, 3)], AMBIENT_UNION))
        assert c == Code.from_indices(2, [(1,), (2,)])

    def test_touching_open_intervals_leave_a_gap(self):
        # the shared endpoint belongs to neither open interval
        c = code_of_intervals(intervals([(0, 1), (1, 2)]))
        assert c == Code.from_indices(2, [(), (1,), (2,)])


class TestCcIntervals:
    def test_construction(self):
        cov = cc_m_intervals(3)
        assert cov.intervals == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(3)))
        assert cc_m_intervals(2).intervals == ((Fraction(1), Fraction(2)),)

    def test_bound(self):
        with pytest.raises(ValueError):
            cc_m_intervals(1)
        assert cc_m_intervals(MAX_NEURONS + 1).n == MAX_NEURONS
        with pytest.raises(ValueError, match=f"m <= {MAX_NEURONS + 1}, got {MAX_NEURONS + 2}"):
            cc_m_intervals(MAX_NEURONS + 2)

    def test_family_range(self):
        for m in range(2, 13):
            assert code_of_intervals(cc_m_intervals(m)) == cc_family(m)


class TestCfFromIntervals:
    def test_chain_three(self):
        assert cf_from_intervals(cc_m_intervals(3)) == cf_cc_formula(3)

    def test_chain_five(self):
        got = cf_from_intervals(cc_m_intervals(5))
        assert got == cf_cc_formula(5)
        assert len(got) == 6

    def test_disjoint_pair_contains_product(self):
        cov = intervals([(0, 1), (2, 3)])
        cf = cf_from_intervals(cov)
        from neurocode.ideal import PseudoMonomial
        assert PseudoMonomial.from_indices(2, (1, 2)) in cf.elements
        assert cf == canonical_form(code_of_intervals(cov))

    def test_cap(self):
        message = "cover has 13 sets; the subset sweep is capped at 12"
        with pytest.raises(ValueError, match=message):
            cf_from_intervals(intervals([(i, i + 1) for i in range(13)]))

    def test_matches_canonical_form_on_random_covers(self):
        rng = random.Random(53)
        for _ in range(120):
            n = rng.randint(1, 5)
            ivs = []
            for _ in range(n):
                a = Fraction(rng.randint(-10, 10), rng.randint(1, 3))
                ivs.append((a, a + Fraction(rng.randint(1, 9), rng.randint(1, 3))))
            cov = IntervalCover(tuple(ivs), rng.choice((AMBIENT_LINE, AMBIENT_UNION)))
            assert cf_from_intervals(cov) == canonical_form(code_of_intervals(cov))

    def test_duplicated_intervals(self):
        cov = intervals([(0, 1), (0, 1)])
        cf = cf_from_intervals(cov)
        assert cf == canonical_form(code_of_intervals(cov))


# The Fraction-geometry cf_from_intervals, the only geometric check of the
# cover-to-canonical-form theorem: the library computes the cover's form as
# the oracle's form of the realized code, and this reference shares no code
# with either. It is an old library version without its docstrings, type
# hints and size cap; it yields (plus, minus) mask pairs where the library
# built PseudoMonomials, and it has its own submasks.
def reference_submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def reference_sigma_intersection(cover, sigma):
    lo = None
    hi = None
    for i, (a, b) in enumerate(cover.intervals):
        if sigma >> i & 1:
            lo = a if lo is None else max(lo, a)
            hi = b if hi is None else min(hi, b)
    if lo is None or not lo < hi:
        return None
    return (lo, hi)


def reference_merged_components(cover, tau):
    ivs = sorted(cover.intervals[i] for i in range(cover.n) if tau >> i & 1)
    comps = []
    for a, b in ivs:
        if comps and a < comps[-1][1]:
            comps[-1][1] = max(comps[-1][1], b)
        else:
            comps.append([a, b])
    return [(a, b) for a, b in comps]


def reference_cf_from_intervals(cover):
    n = cover.n
    full = (1 << n) - 1
    inter = {sigma: reference_sigma_intersection(cover, sigma) for sigma in range(1, full + 1)}
    comps = {tau: reference_merged_components(cover, tau) for tau in range(1, full + 1)}

    def covered(interval, tau):
        lo, hi = interval
        return any(a <= lo and hi <= b for a, b in comps[tau])

    def covers_space(tau):
        if cover.ambient == AMBIENT_LINE:
            return False
        return all(covered(cover.intervals[i], tau) for i in range(n))

    elements = set()
    for sigma in range(1, full + 1):
        if inter[sigma] is not None:
            continue
        low_bits = [sigma & ~(1 << i) for i in range(n) if sigma >> i & 1]
        if all(sub == 0 or inter[sub] is not None for sub in low_bits):
            elements.add((sigma, 0))

    for sigma in range(1, full + 1):
        u_sigma = inter[sigma]
        if u_sigma is None:
            continue
        rest = full ^ sigma
        for tau in reference_submasks(rest):
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
                elements.add((sigma, tau))

    if cover.ambient == AMBIENT_UNION:
        for tau in range(1, full + 1):
            if not covers_space(tau):
                continue
            subs = [tau & ~(1 << i) for i in range(n) if tau >> i & 1]
            if all(sub == 0 or not covers_space(sub) for sub in subs):
                elements.add((0, tau))

    return elements


def reference_code_of_intervals(cover):
    """Membership masks at every endpoint, every midpoint between
    neighbouring endpoints and, on the whole line, a point past each end."""
    pts = sorted({e for iv in cover.intervals for e in iv})
    samples = pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    if cover.ambient == AMBIENT_LINE:
        samples += [pts[0] - 1, pts[-1] + 1]
    masks = {sum(1 << i for i, (a, b) in enumerate(cover.intervals) if a < x < b)
             for x in samples}
    if cover.ambient == AMBIENT_UNION:
        masks.discard(0)
    return masks


def random_cover(rng, n, ambient):
    """Intervals on a small grid of rationals, so that endpoints often
    touch; some copy an earlier interval and some nest inside one."""
    grid = sorted({Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3)})
    ivs = []
    while len(ivs) < n:
        roll = rng.random()
        if ivs and roll < 0.15:
            ivs.append(rng.choice(ivs))
            continue
        if ivs and roll < 0.3:
            lo, hi = rng.choice(ivs)
            inside = [x for x in grid if lo <= x <= hi]
        else:
            inside = grid
        a, b = sorted(rng.sample(inside, 2))
        ivs.append((a, b))
    return IntervalCover(tuple(ivs), ambient)


# Covers per set count, in each ambient; the reference costs up to 3^n
# Fraction comparisons per cover.
DIFFERENTIAL_COVERS = {1: 40, 2: 60, 3: 60, 4: 60, 5: 40, 6: 25, 7: 12, 8: 6}


def differential_covers():
    rng = random.Random(83)
    for n, count in DIFFERENTIAL_COVERS.items():
        for ambient in (AMBIENT_LINE, AMBIENT_UNION):
            for _ in range(count):
                yield random_cover(rng, n, ambient)


class TestCellMasksAgainstFractionGeometry:
    def test_covers_have_the_shapes_named(self):
        covers = list(differential_covers())
        ends = [[e for iv in cov.intervals for e in iv] for cov in covers]
        assert any(len(set(e)) < len(e) for e in ends)  # touching or shared ends
        assert any(len(set(cov.intervals)) < cov.n for cov in covers)  # duplicates
        assert any(a < c and d < b for cov in covers
                   for a, b in cov.intervals for c, d in cov.intervals)  # strictly nested
        assert any(e.denominator > 1 for row in ends for e in row)

    def test_cf_from_intervals(self):
        for cov in differential_covers():
            got = {(e.plus, e.minus) for e in cf_from_intervals(cov).elements}
            assert got == reference_cf_from_intervals(cov), cover_to_json_obj(cov)

    def test_code_of_intervals(self):
        for cov in differential_covers():
            got = code_of_intervals(cov)
            assert got == Code.from_masks(cov.n, reference_code_of_intervals(cov)), \
                cover_to_json_obj(cov)


class TestPolygon:
    def test_triangle_coordinates(self):
        cov = cr_k_polygon(3)
        assert cov.segments == (
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),
            ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(4))),
            ((Fraction(2), Fraction(4)), (Fraction(0), Fraction(0))),
        )

    def test_realizes_cycle_codes(self):
        for k in range(3, 13):
            assert code_of_segments(cr_k_polygon(k)) == cr_family(k)

    def test_bound(self):
        with pytest.raises(ValueError):
            cr_k_polygon(2)
        assert cr_k_polygon(MAX_NEURONS).k == MAX_NEURONS
        with pytest.raises(ValueError, match=f"k <= {MAX_NEURONS}, got {MAX_NEURONS + 1}"):
            cr_k_polygon(MAX_NEURONS + 1)


class TestCodeOfSegments:
    def seg(self, a, b, c, d):
        return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))

    def test_two_crossing(self):
        cov = SegmentCover((self.seg(0, 0, 2, 2), self.seg(0, 2, 2, 0)))
        assert code_of_segments(cov) == Code.from_indices(2, [(1,), (2,), (1, 2)])

    def test_two_disjoint(self):
        cov = SegmentCover((self.seg(0, 0, 1, 0), self.seg(0, 1, 1, 1)))
        assert code_of_segments(cov) == Code.from_indices(2, [(1,), (2,)])

    def test_touching_at_endpoint(self):
        cov = SegmentCover((self.seg(0, 0, 1, 1), self.seg(1, 1, 2, 0)))
        assert code_of_segments(cov) == Code.from_indices(2, [(1,), (2,), (1, 2)])

    def test_collinear_overlap(self):
        cov = SegmentCover((self.seg(0, 0, 2, 0), self.seg(1, 0, 3, 0)))
        assert code_of_segments(cov) == Code.from_indices(2, [(1,), (2,), (1, 2)])

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            SegmentCover((self.seg(1, 1, 1, 1),))

    def test_rejects_more_sets_than_neurons(self):
        assert SegmentCover(tuple(self.seg(i, 0, i, 1) for i in range(MAX_NEURONS))).k == MAX_NEURONS
        with pytest.raises(ValueError, match=f"65 sets; at most {MAX_NEURONS}"):
            SegmentCover(tuple(self.seg(i, 0, i, 1) for i in range(MAX_NEURONS + 1)))

    def test_t_junction(self):
        cov = SegmentCover((self.seg(0, 0, 2, 0), self.seg(1, 0, 1, 2)))
        assert code_of_segments(cov) == Code.from_indices(2, [(1,), (2,), (1, 2)])

    def test_near_miss_stays_disjoint(self):
        horizontal = self.seg(0, 0, 2, 0)
        raised = ((Fraction(1), Fraction(1, 3)), (Fraction(1), Fraction(2)))
        cov = SegmentCover((horizontal, raised))
        assert code_of_segments(cov) == Code.from_indices(2, [(1,), (2,)])

    def test_star_through_common_point(self):
        # distinct slopes through the origin: the only shared point is the
        # origin, where every segment meets
        for k in range(2, 6):
            segs = tuple(((Fraction(-1), Fraction(-j)), (Fraction(2), Fraction(2 * j)))
                         for j in range(k))
            code = code_of_segments(SegmentCover(segs))
            expected = {1 << i for i in range(k)} | {(1 << k) - 1}
            assert set(code.masks) == expected


class TestCollinearSegmentsAgainst1dReference:
    def test_matches_closed_interval_arrangement(self):
        # segments dropped on the x-axis are closed intervals; compare against
        # a direct endpoint/midpoint evaluation of those intervals
        rng = random.Random(67)
        for _ in range(300):
            k = rng.randint(1, 5)
            segs, ivs = [], []
            for _ in range(k):
                a = rng.randint(0, 8)
                b = a + rng.randint(1, 4)
                p, q = (Fraction(a), Fraction(0)), (Fraction(b), Fraction(0))
                if rng.random() < 0.5:
                    p, q = q, p
                segs.append((p, q))
                ivs.append((Fraction(a), Fraction(b)))
            got = code_of_segments(SegmentCover(tuple(segs)))
            pts = sorted({e for iv in ivs for e in iv})
            samples = list(pts)
            samples.extend((p + q) / 2 for p, q in zip(pts, pts[1:]))
            masks = set()
            for x in samples:
                m = 0
                for i, (a, b) in enumerate(ivs):
                    if a <= x <= b:
                        m |= 1 << i
                if m:
                    masks.add(m)
            assert got == Code.from_masks(k, masks)


# The Fraction point sampler that the integer rank sampler replaced, kept as
# a reference that shares no code with the library: the old helpers and
# sampling loop without their docstrings and type hints, returning the set
# of realized masks.
def reference_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_on_segment(pt, seg):
    p, q = seg
    if reference_cross(p, q, pt) != 0:
        return False
    dx, dy = q[0] - p[0], q[1] - p[1]
    t_num = (pt[0] - p[0]) * dx + (pt[1] - p[1]) * dy
    return 0 <= t_num <= dx * dx + dy * dy


def reference_intersection_params(seg, other):
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


def reference_code_of_segments(cover):
    segs = cover.segments
    masks = set()
    for i, seg in enumerate(segs):
        ts = {Fraction(0), Fraction(1)}
        for j, other in enumerate(segs):
            if j != i:
                ts.update(reference_intersection_params(seg, other))
        tlist = sorted(ts)
        samples = list(tlist)
        samples.extend((a + b) / 2 for a, b in zip(tlist, tlist[1:]))
        (px, py), (qx, qy) = seg
        for t in samples:
            pt = (px + t * (qx - px), py + t * (qy - py))
            mask = 0
            for j, other in enumerate(segs):
                if reference_on_segment(pt, other):
                    mask |= 1 << j
            masks.add(mask)
    return masks


SEGMENT_GRIDS = ([Fraction(j) for j in range(-2, 3)],
                 [Fraction(j, 3) for j in range(-4, 5)])
ON_LINE_PARAMS = [Fraction(j, 6) for j in range(-6, 13)]


def random_segment_cover(rng, k):
    """Segments on a coarse grid of integers or of thirds; some copy an
    earlier segment, start at one of its ends, at a point inside it, or lie
    on its line, so that the meets of every kind occur."""
    grid = rng.choice(SEGMENT_GRIDS)
    segs = []
    while len(segs) < k:
        fresh = (rng.choice(grid), rng.choice(grid)), (rng.choice(grid), rng.choice(grid))
        if segs and rng.random() < 0.4:
            a, b = rng.choice(segs)
            on = [tuple(a[c] + t * (b[c] - a[c]) for c in (0, 1))
                  for t in rng.sample(ON_LINE_PARAMS, 2)]
            p, q = rng.choice([(a, b), (a, fresh[1]), (on[0], fresh[1]), tuple(on)])
        else:
            p, q = fresh
        if p != q:
            segs.append((p, q) if rng.random() < 0.5 else (q, p))
    return SegmentCover(tuple(segs))


# Covers per segment count; the reference costs O(k^3) Fraction operations.
DIFFERENTIAL_SEGMENT_COVERS = {1: 20, 2: 60, 3: 60, 4: 60, 5: 50, 6: 40, 7: 30, 8: 30}


def differential_segment_covers():
    rng = random.Random(89)
    for k, count in DIFFERENTIAL_SEGMENT_COVERS.items():
        for _ in range(count):
            yield random_segment_cover(rng, k)


def meet_kinds(s1, s2):
    """Names of the ways two segments meet, by plain Fraction geometry."""
    (p, q), (r, t) = s1, s2
    kinds = set()
    side = reference_cross

    def inside(pt, a, b):  # strictly between a and b on their line
        return side(a, b, pt) == 0 and min(a, b) < pt < max(a, b)

    if {p, q} == {r, t}:
        return {"identical"}
    if {p, q} & {r, t}:
        kinds.add("shared endpoint")
    if side(p, q, r) == 0 and side(p, q, t) == 0:
        if max(min(p, q), min(r, t)) < min(max(p, q), max(r, t)):
            kinds.add("collinear overlap")
        return kinds
    if any(inside(e, a, b) for e, (a, b) in ((r, s1), (t, s1), (p, s2), (q, s2))):
        kinds.add("T-junction")
    den = side((0, 0), (q[0] - p[0], q[1] - p[1]), (t[0] - r[0], t[1] - r[1]))
    if den:
        u = side(p, r, t) / den
        if 0 < u < 1 and side(p, q, r) * side(p, q, t) < 0:
            x, y = p[0] + u * (q[0] - p[0]), p[1] + u * (q[1] - p[1])
            if x.denominator > 1 or y.denominator > 1:
                kinds.add("crossing off the integers")
    return kinds


class TestRankSamplerAgainstFractionSampler:
    def test_covers_have_the_meets_named(self):
        kinds = set()
        for cov in differential_segment_covers():
            for i, s1 in enumerate(cov.segments):
                for s2 in cov.segments[i + 1:]:
                    kinds |= meet_kinds(s1, s2)
        assert kinds == {"identical", "shared endpoint", "collinear overlap",
                         "T-junction", "crossing off the integers"}

    def test_random_covers(self):
        for cov in differential_segment_covers():
            assert code_of_segments(cov) == \
                Code.from_masks(cov.k, reference_code_of_segments(cov)), cover_to_json_obj(cov)

    def test_scaled_polygons(self):
        rng = random.Random(97)
        for k in range(3, 13):
            scale = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            cov = SegmentCover(tuple(((p[0] * scale, p[1] * scale), (q[0] * scale, q[1] * scale))
                                     for p, q in cr_k_polygon(k).segments))
            assert code_of_segments(cov) == Code.from_masks(k, reference_code_of_segments(cov))


class TestScalingInvariance:
    def test_intervals(self):
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(1, 4)
            ivs = []
            for _ in range(n):
                a = Fraction(rng.randint(-6, 6))
                ivs.append((a, a + rng.randint(1, 5)))
            ambient = rng.choice((AMBIENT_LINE, AMBIENT_UNION))
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            base = IntervalCover(tuple(ivs), ambient)
            scaled = IntervalCover(tuple((a * scale, b * scale) for a, b in ivs), ambient)
            assert code_of_intervals(base) == code_of_intervals(scaled)

    def test_segments(self):
        rng = random.Random(61)
        for k in range(3, 9):
            base = cr_k_polygon(k)
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = SegmentCover(tuple(
                ((p[0] * scale, p[1] * scale), (q[0] * scale, q[1] * scale))
                for p, q in base.segments))
            assert code_of_segments(base) == code_of_segments(scaled)


class TestCoverJson:
    def test_interval_roundtrip(self):
        cov = intervals([(Fraction(1, 2), Fraction(5, 2)), (1, 3)], AMBIENT_UNION)
        obj = cover_to_json_obj(cov)
        assert obj["kind"] == "intervals"
        assert obj["sets"][0] == ["1/2", "5/2"]
        assert cover_from_json_obj(obj) == cov

    def test_segment_roundtrip(self):
        cov = cr_k_polygon(4)
        obj = cover_to_json_obj(cov)
        assert obj["kind"] == "segments"
        assert cover_from_json_obj(obj) == cov

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            cover_from_json_obj({"kind": "disks", "sets": []})


# A cover with an empty interval or a degenerate segment exits 2 and echoes
# each endpoint cut after 80 characters: a short one stays whole, and two
# 4000-digit endpoints, within Python's 4300-digit limit on int strings, give
# a message of about 200 bytes rather than 8 KB.
BIG = "7" * 4000
BAD_ENDPOINTS = [
    ([["3/2", "1.5"]], "intervals", "interval (3/2, 3/2) is empty"),
    ([[BIG, BIG]], "intervals", f"interval ({BIG[:80]}..., {BIG[:80]}...) is empty"),
    ([[[BIG, BIG], [BIG, BIG]]], "segments", f"degenerate segment at (Fraction({BIG[:70]}..."),
]


@pytest.mark.parametrize("sets, kind, message", BAD_ENDPOINTS, ids=["short", "interval", "segment"])
def test_bad_endpoints_give_a_short_message(capsys, sets, kind, message):
    status = cli.main(["realize", json.dumps({"kind": kind, "sets": sets})])
    out, err = capsys.readouterr()
    assert (status, out, err) == (2, "", f"error: bad cover JSON: {message}\n")
    assert len(err.encode()) < 1024
