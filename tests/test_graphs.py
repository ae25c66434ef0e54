"""Code graphs: containment graph fixtures from the figures, relationship
complex/graph, and the graph predicates."""

import math
import random
from itertools import product as iproduct

import pytest

from neurocode import graphs
from neurocode.codes import (
    Code,
    ElementaryMap,
    indices_of,
    mask_from_indices,
    parse_code,
    word_label,
)
from neurocode.graphs import (
    CodeGraph,
    ccg,
    diameter,
    distance,
    gr_complex,
    grg,
    is_complete,
    is_connected,
    is_regular,
    to_dot,
)
from neurocode.ideal import CanonicalForm, canonical_form, predict_cf


def code(n, *words):
    return Code.from_indices(n, words)


def cf_of(n, *elements):
    return CanonicalForm.from_indices(n, elements)


def ccg_edges(c):
    return {frozenset(map(indices_of, e)) for e in ccg(c).edges}


def pair(a, b):
    return frozenset((tuple(a), tuple(b)))


def random_code(rng, n):
    return Code.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))


class TestCcgFixtures:
    def test_fig_1a(self):
        c = code(3, (1,), (2,), (1, 3), (1, 2, 3))
        assert ccg_edges(c) == {pair((1,), (1, 3)), pair((2,), (1, 2, 3)),
                                pair((1,), (1, 2, 3)), pair((1, 3), (1, 2, 3))}
        assert is_connected(ccg(c))

    def test_fig_1b(self):
        c = code(5, (1, 3), (1, 2, 5), (1, 2, 3, 5), (1, 2, 4, 5))
        assert ccg_edges(c) == {pair((1, 3), (1, 2, 3, 5)),
                                pair((1, 2, 5), (1, 2, 3, 5)),
                                pair((1, 2, 5), (1, 2, 4, 5))}
        assert is_connected(ccg(c))

    def test_fig_2_empty_word_dominates(self):
        c = code(4, (), (1,), (2,), (1, 2, 3), (4,))
        assert ccg_edges(c) == {pair((), (1,)), pair((), (2,)),
                                pair((), (1, 2, 3)), pair((), (4,)),
                                pair((1,), (1, 2, 3)), pair((2,), (1, 2, 3))}
        assert is_connected(ccg(c))

    def test_fig_3a_disconnected(self):
        g = ccg(code(3, (1,), (1, 2), (3,)))
        assert not is_connected(g)
        assert len(g.edges) == 1

    def test_fig_4_complete(self):
        assert is_complete(ccg(code(4, (), (1,), (1, 2, 3), (1, 2, 3, 4))))
        assert is_complete(ccg(code(3, (1,), (1, 2), (1, 2, 3))))

    def test_fig_5a_two_regular_four_cycle(self):
        # the figure's drawn labels; its caption misprints 124 as 1234
        c = code(4, (1,), (2,), (1, 2, 3), (1, 2, 4))
        g = ccg(c)
        assert is_regular(g, 2) and is_connected(g)
        assert ccg_edges(c) == {pair((1,), (1, 2, 3)), pair((1,), (1, 2, 4)),
                                pair((2,), (1, 2, 3)), pair((2,), (1, 2, 4))}

    def test_fig_5a_caption_code_is_not_two_regular(self):
        g = ccg(code(4, (1,), (2,), (1, 2, 3), (1, 2, 3, 4)))
        assert not is_regular(g, 2)

    def test_fig_5b_cycle_code(self):
        c = code(4, (1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (1, 4))
        g = ccg(c)
        assert is_regular(g, 2) and is_connected(g)

    def test_twelve_word_two_regular(self):
        c = parse_code("12;16;56;45;34;23;123;126;156;456;345;234")
        g = ccg(c)
        assert is_regular(g, 2) and is_connected(g)


class TestPredicates:
    def test_distance_on_cycle(self):
        from neurocode.codes import cr_family
        g = ccg(cr_family(4))
        u = mask_from_indices((1,), 4)
        v = mask_from_indices((3,), 4)
        assert distance(g, u, v) == 4
        assert diameter(g) == 4

    def test_distance_unreachable(self):
        g = ccg(code(3, (1,), (1, 2), (3,)))
        assert distance(g, mask_from_indices((3,), 3),
                        mask_from_indices((1,), 3)) == math.inf
        assert diameter(g) == math.inf

    def test_distance_unknown_vertex(self):
        g = ccg(code(2, (1,)))
        with pytest.raises(ValueError):
            distance(g, mask_from_indices((2,), 2), mask_from_indices((1,), 2))

    def test_single_vertex(self):
        g = ccg(code(2, (1,)))
        assert is_connected(g)
        assert diameter(g) == 0
        assert is_complete(g)
        assert is_regular(g, 0)

    def test_ccg_edge_iff_strict_containment(self):
        rng = random.Random(31)
        codes = [Code.from_masks(n, [p for p in range(1 << n) if idx >> p & 1])
                 for n in range(1, 4) for idx in range(1, 1 << (1 << n))]
        codes += [random_code(rng, rng.randint(1, 6)) for _ in range(60)]
        for c in codes:
            assert ccg(c).edges == {frozenset((a, b)) for a in c.masks for b in c.masks
                                    if a & b == a != b}

    def test_ccg_vertices_are_the_code_masks(self):
        for c in (code(3, (1, 2), (), (3,)), parse_code("12;16;56;45"), code(1, ())):
            assert ccg(c).vertices == c.masks

    def test_complete_iff_pairwise_comparable(self):
        rng = random.Random(37)
        for _ in range(200):
            c = random_code(rng, rng.randint(1, 4))
            comparable = all(a & b in (a, b) for a in c.masks for b in c.masks)
            assert is_complete(ccg(c)) == comparable


class TestCodeGraphContainer:
    def test_rejects_loops_and_strangers(self):
        for vertices, nbrs, why in [
            ((1, 1), (0, 0), "1 of them distinct"),
            ((1, 2), (0b10,), "1 neighbour bitsets for 2 vertices"),
            ((1, 2), (0b01, 0), "bitset 1 of vertex 0"),
            ((1, 2), (0b100, 0b000), "bitset 4 of vertex 0"),
            ((1, 2), (-2, 0b01), "bitset -2 of vertex 0"),
            ((1, 2), (0b10, 0b00), "edge 0-1 is set on one side only"),
        ]:
            with pytest.raises(ValueError, match=why):
                CodeGraph(vertices, nbrs)

    def test_vertex_order_is_kept(self):
        g = CodeGraph(("b", "a", "c"), (0b010, 0b001, 0b000))
        assert g.vertices == ("b", "a", "c")
        assert g.adjacent("a", "b") and not g.adjacent("a", "c")
        assert g.edges == {frozenset(("a", "b"))}
        assert g == CodeGraph(("b", "a", "c"), (0b010, 0b001, 0b000))
        assert g != CodeGraph(("a", "b", "c"), (0b010, 0b001, 0b000))


def floyd_warshall(g):
    """All-pairs distances read from `g.edges` alone; inf when unreachable."""
    verts = g.vertices
    dist = {(u, v): 0 if u == v else math.inf for u in verts for v in verts}
    for e in g.edges:
        u, v = tuple(e)
        dist[u, v] = dist[v, u] = 1
    for w in verts:
        for u in verts:
            for v in verts:
                if dist[u, w] + dist[w, v] < dist[u, v]:
                    dist[u, v] = dist[u, w] + dist[w, v]
    return dist


def assert_queries_match_floyd_warshall(g):
    dist = floyd_warshall(g)
    degrees = [sum(1 for e in g.edges if v in e) for v in g.vertices]
    assert is_connected(g) == all(d < math.inf for d in dist.values())
    for k in range(len(g.vertices) + 1):
        assert is_regular(g, k) == all(d == k for d in degrees)
    for (u, v), d in dist.items():
        assert distance(g, u, v) == d
    assert diameter(g) == max(dist.values(), default=0)
    pos = {v: i for i, v in enumerate(g.vertices)}
    pairs = [tuple(sorted(e, key=pos.get)) for e in g.edges]
    assert g.sorted_edges() == sorted(pairs, key=lambda p: (pos[p[0]], pos[p[1]]))


class TestQueriesAgainstFloydWarshall:
    def test_ccg_of_random_codes(self):
        rng = random.Random(53)
        for _ in range(150):
            assert_queries_match_floyd_warshall(ccg(random_code(rng, rng.randint(1, 5))))

    def test_ccg_of_cycle_and_chain_families(self):
        from neurocode.codes import cc_family, cr_family
        for k in range(3, 9):
            assert_queries_match_floyd_warshall(ccg(cr_family(k)))
            assert_queries_match_floyd_warshall(ccg(cc_family(k)))

    def test_grg_of_random_canonical_forms(self):
        rng = random.Random(59)
        for _ in range(150):
            n = rng.randint(1, 6)
            assert_queries_match_floyd_warshall(grg(random_cf(rng, n, max_elements=6)))
            assert_queries_match_floyd_warshall(grg(canonical_form(random_code(rng, n))))

    def test_random_and_named_graphs(self):
        # 0-14 vertices, sparse to dense, with and without a universal
        # vertex, in two components, and paths, cycles and complete graphs
        rng = random.Random(61)
        for m in range(15):
            path = [(i, i + 1) for i in range(m - 1)]
            cycle = path + [(m - 1, 0)] if m >= 3 else path
            complete = [(i, j) for i in range(m) for j in range(i + 1, m)]
            for edges in (path, cycle, complete):
                assert_queries_match_floyd_warshall(graph_of(m, edges))
            for density in (0.1, 0.25, 0.5, 0.8):
                for _ in range(3):
                    edges = [e for e in complete if rng.random() < density]
                    assert_queries_match_floyd_warshall(graph_of(m, edges))
                    if m:
                        hub = rng.randrange(m)
                        star = [(hub, v) for v in range(m) if v != hub]
                        assert_queries_match_floyd_warshall(graph_of(m, edges + star))
                    cut = rng.randint(0, m)
                    apart = [(u, v) for u, v in edges if (u < cut) == (v < cut)]
                    assert_queries_match_floyd_warshall(graph_of(m, apart))


class TestNamedDiameters:
    """Diameters known by name. A universal vertex, adjacent to every other
    one, settles the diameter from the degrees with no search; the star and
    the complete graph less an edge are where that gives 2, not 1."""

    @staticmethod
    def complete(m):
        return [(i, j) for i in range(m) for j in range(i + 1, m)]

    @staticmethod
    def no_search(nbrs, start):
        raise AssertionError(f"a breadth-first search ran from {start}")

    def test_empty_bitset_and_single_vertex(self):
        assert graphs._diameter([], 0) == 0
        assert diameter(graph_of(0, [])) == 0
        assert diameter(graph_of(1, [])) == 0

    @pytest.mark.parametrize("m", range(2, 8))
    def test_complete_graph(self, m, monkeypatch):
        monkeypatch.setattr(graphs, "_layers", self.no_search)
        assert diameter(graph_of(m, self.complete(m))) == 1

    @pytest.mark.parametrize("m", range(2, 8))
    def test_star(self, m, monkeypatch):
        monkeypatch.setattr(graphs, "_layers", self.no_search)
        for hub in (0, m // 2, m):
            star = [(hub, v) for v in range(m + 1) if v != hub]
            assert diameter(graph_of(m + 1, star)) == 2, (m, hub)

    @pytest.mark.parametrize("m", range(3, 8))
    def test_universal_vertex_beside_one_missing_edge(self, m, monkeypatch):
        monkeypatch.setattr(graphs, "_layers", self.no_search)
        for missing in [(1, 2), (m - 2, m - 1)]:
            edges = [e for e in self.complete(m) if e != missing]
            assert diameter(graph_of(m, edges)) == 2, (m, missing)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_two_components(self, m):
        # two complete graphs, and a star beside an isolated vertex
        assert diameter(graph_of(m, self.complete(m - 1))) == math.inf
        edges = self.complete(m // 2) + [(u + m // 2, v + m // 2)
                                         for u, v in self.complete(m - m // 2)]
        assert diameter(graph_of(m, edges)) == math.inf
        assert diameter(graph_of(m, [(0, v) for v in range(1, m - 1)])) == math.inf


def graph_of(m, edges):
    """The graph on vertices 0..m-1 with the given edges."""
    nbrs = [0] * m
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return CodeGraph(tuple(range(m)), tuple(nbrs))


def gr_member_by_gamma_products(cf, sigma_mask):
    """Reference membership: no subset of the sigma literals multiplies to a
    canonical-form element."""
    idxs = [i for i in range(1, cf.n + 1) if sigma_mask >> (i - 1) & 1]
    elements = {(f.plus, f.minus) for f in cf.elements}
    for roles in iproduct(range(4), repeat=len(idxs)):
        plus = minus = 0
        for role, i in zip(roles, idxs):
            bit = 1 << (i - 1)
            if role & 1:
                plus |= bit
            if role & 2:
                minus |= bit
        if plus & minus or (plus == 0 and minus == 0):
            continue
        if (plus, minus) in elements:
            return False
    return True


def random_cf(rng, n, max_elements=4):
    els = set()
    for _ in range(rng.randint(0, max_elements)):
        plus = rng.randrange(1 << n)
        minus = rng.randrange(1 << n) & ~plus
        if plus or minus:
            els.add((plus, minus))
    return CanonicalForm(n, els)


class TestGrComplex:
    def test_example_one(self):
        sc = gr_complex(cf_of(3, ((1, 2, 3), ()), ((1, 2), ())))
        assert {indices_of(f) for f in sc.facets} == {(1, 3), (2, 3)}

    def test_example_two(self):
        sc = gr_complex(cf_of(3, ((1, 2), ()), ((1, 3), ())))
        assert {indices_of(f) for f in sc.facets} == {(1,), (2, 3)}

    def test_example_three(self):
        sc = gr_complex(cf_of(4, ((1, 2), ()), ((2, 4), ())))
        assert {indices_of(f) for f in sc.facets} == {(1, 3, 4), (2, 3)}

    def test_membership_matches_gamma_product_oracle(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 4)
            cf = random_cf(rng, n)
            sc = gr_complex(cf)
            for sigma in range(1 << n):
                member = sigma in sc
                assert member == gr_member_by_gamma_products(cf, sigma)

    def test_one_skeleton_equals_grg(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(1, 5)
            cf = random_cf(rng, n)
            sc = gr_complex(cf)
            g = grg(cf)
            verts = {i for i in range(1, n + 1) if 1 << (i - 1) in sc}
            assert set(g.vertices) == verts
            edges = set()
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if (1 << (i - 1)) | (1 << (j - 1)) in sc:
                        edges.add(frozenset((i, j)))
            assert g.edges == edges


class TestGrg:
    def test_four_cycle(self):
        g = grg(cf_of(4, ((1, 3), ()), ((2, 4), ())))
        assert g.vertices == (1, 2, 3, 4)
        assert g.edges == {frozenset(e) for e in [(1, 2), (2, 3), (3, 4), (1, 4)]}
        assert is_regular(g, 2) and is_connected(g)

    def test_fig_7_edges(self):
        g = grg(cf_of(4, ((1, 2), ()), ((2, 4), ())))
        assert g.edges == {frozenset(e) for e in [(1, 3), (1, 4), (3, 4), (2, 3)]}

    def test_empty_cf_gives_complete_graph(self):
        g = grg(CanonicalForm(3, frozenset()))
        assert is_complete(g) and len(g.vertices) == 3

    def test_linear_element_kills_vertex(self):
        g = grg(cf_of(3, ((), (3,))))
        assert g.vertices == (1, 2)
        assert is_complete(g)

    def test_families_duality(self):
        from neurocode.codes import cc_family, cr_family
        g = grg(canonical_form(cc_family(5)))
        assert g.vertices == (1, 2, 3, 4) and not g.edges
        g = grg(canonical_form(cr_family(5)))
        assert len(g.vertices) == 5 and is_connected(g) and is_regular(g, 2)
        g3 = grg(canonical_form(cr_family(3)))
        assert is_complete(g3) and len(g3.vertices) == 3


class TestGrgUnderElementaryMaps:
    def test_transform_rules(self):
        rng = random.Random(47)
        for _ in range(120):
            n = rng.randint(1, 5)
            c = random_code(rng, n)
            cf = canonical_form(c)
            g = grg(cf)
            verts = set(g.vertices)
            edges = {tuple(sorted(e)) for e in g.edges}
            for spec in (ElementaryMap.add_trivial_on(), ElementaryMap.add_trivial_off()):
                g2 = grg(predict_cf(cf, spec))
                assert set(g2.vertices) == verts
                assert {tuple(sorted(e)) for e in g2.edges} == edges
            i = rng.randint(1, n)
            g3 = grg(predict_cf(cf, ElementaryMap.duplicate(i)))
            want_verts = verts | ({n + 1} if i in verts else set())
            want_edges = edges | {tuple(sorted((j, n + 1)))
                                  for j in verts if tuple(sorted((j, i))) in edges}
            assert set(g3.vertices) == want_verts
            assert {tuple(sorted(e)) for e in g3.edges} == want_edges
            if n >= 2:
                g4 = grg(predict_cf(cf, ElementaryMap.delete(n)))
                assert set(g4.vertices) == verts - {n}
                assert {tuple(sorted(e)) for e in g4.edges} == \
                    {e for e in edges if n not in e}


class TestDot:
    def test_two_vertex_edge(self):
        # the CLI's relabelled CCG gives the text of the labelled vertices
        g = ccg(code(1, (), (1,)))
        assert to_dot(g) == 'graph {\n  "0";\n  "1";\n  "0" -- "1";\n}'
        g = CodeGraph(tuple(map(word_label, g.vertices)), g.nbrs)
        assert to_dot(g) == '\n'.join([
            "graph {",
            '  "{}";',
            '  "{1}";',
            '  "{}" -- "{1}";',
            "}",
        ])

    def test_plain_labels(self):
        g = CodeGraph(("a", "b"), (0b10, 0b01))
        assert to_dot(g) == 'graph {\n  "a";\n  "b";\n  "a" -- "b";\n}'

    def test_vertex_only(self):
        g = CodeGraph((1, 2), (0, 0))
        assert to_dot(g) == 'graph {\n  "1";\n  "2";\n}'
