"""Exact cover realizations: interval arrangements, segment intersections,
and the cover-to-canonical-form path."""

import random
from fractions import Fraction

import pytest

from neurocode.codes import Code, cc_family, cr_family
from neurocode.ideal import CanonicalForm, canonical_form, cf_cc_formula
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

    def test_rejects_no_sets(self):
        with pytest.raises(ValueError):
            IntervalCover((), AMBIENT_LINE)


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
        with pytest.raises(ValueError):
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


# The Fraction-geometry cf_from_intervals that the cell-mask version
# replaced, kept as a reference that shares no code with the library. It is
# the old code without its docstrings, type hints and size cap; it yields
# (plus, minus) mask pairs where the library built PseudoMonomials, and it
# has its own submasks.
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
