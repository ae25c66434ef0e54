"""Graphs attached to a code: the codeword containment graph, the general
relationship complex built from a canonical form, and its 1-skeleton."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import Code, SimplicialComplex, _maximal_masks, indices_of
from .ideal import CanonicalForm, _minimal_pairs


@dataclass(frozen=True)
class CodeGraph:
    """Undirected graph on unique hashable vertex labels, kept in the order
    given; `nbrs[i]` is the bitset of the positions adjacent to `vertices[i]`."""

    vertices: tuple
    nbrs: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.vertices)
        if len(set(self.vertices)) != m or len(self.nbrs) != m:
            raise ValueError(f"{len(self.nbrs)} neighbour bitsets for {m} vertices, "
                             f"{len(set(self.vertices))} of them distinct")
        for i, bits in enumerate(self.nbrs):
            if bits >> m or bits >> i & 1:
                raise ValueError(f"neighbour bitset {bits} of vertex {i} is negative, "
                                 f"has a bit beyond {m - 1} or a loop")
            while bits:
                j = (bits & -bits).bit_length() - 1
                if not self.nbrs[j] >> i & 1:
                    raise ValueError(f"edge {i}-{j} is set on one side only")
                bits &= bits - 1

    @property
    def edges(self) -> frozenset[frozenset]:
        """The edge set, as vertex pairs, derived from `nbrs`."""
        return frozenset(frozenset(e) for e in self.sorted_edges())

    def adjacent(self, u, v) -> bool:
        return bool(self.nbrs[self.vertices.index(u)] >> self.vertices.index(v) & 1)

    def sorted_edges(self) -> list[tuple]:
        verts = self.vertices
        return [(u, verts[j]) for i, u in enumerate(verts)
                for j in range(i + 1, len(verts)) if self.nbrs[i] >> j & 1]


def ccg(code: Code) -> CodeGraph:
    """Codeword containment graph on the code's masks: an edge wherever one
    word strictly contains the other. `code.masks` ascend by (size, mask), so
    only a later word can strictly contain an earlier one."""
    masks = code.masks
    nbrs = [0] * len(masks)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if masks[j] & a == a:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    return CodeGraph(masks, tuple(nbrs))


def _layers(nbrs, start: int) -> list[int]:
    """Breadth-first layers from position `start`, each a bitset of
    positions; `nbrs[i]` is the bitset of the positions adjacent to i, and
    layer d holds the positions at distance d."""
    seen = frontier = 1 << start
    layers = []
    while frontier:
        layers.append(frontier)
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        seen |= frontier
    return layers


def is_connected(g: CodeGraph) -> bool:
    # the layers are disjoint, so their sum is the bitset of reached positions
    return not g.vertices or sum(_layers(g.nbrs, 0)) == (1 << len(g.vertices)) - 1


def is_complete(g: CodeGraph) -> bool:
    return is_regular(g, len(g.vertices) - 1)


def is_regular(g: CodeGraph, k: int) -> bool:
    return all(bits.bit_count() == k for bits in g.nbrs)


def distance(g: CodeGraph, u, v) -> int | float:
    """Shortest path length between two vertices; inf when unreachable."""
    if u not in g.vertices or v not in g.vertices:
        raise ValueError(f"unknown vertex in distance query: {u!r}, {v!r}")
    target = 1 << g.vertices.index(v)
    for d, layer in enumerate(_layers(g.nbrs, g.vertices.index(u))):
        if layer & target:
            return d
    return math.inf


def diameter(g: CodeGraph) -> int | float:
    """Largest pairwise distance; 0 for a single vertex, inf if disconnected."""
    return _diameter(g.nbrs, (1 << len(g.vertices)) - 1)


def _diameter(nbrs, everyone: int) -> int | float:
    """Diameter of the graph on the positions in the bitset `everyone`, whose
    neighbours `nbrs[i]` all lie in `everyone`; 0 when it has at most one
    position, inf if it is disconnected.

    A universal vertex, of degree m - 1 on m >= 2 positions, is adjacent to
    every other one, so the graph is connected with diameter 1 when every
    vertex is universal and 2 otherwise; no search runs. Else one
    breadth-first search runs from each position: the first that misses a
    position gives inf, and otherwise the diameter is the largest
    eccentricity.
    """
    m = everyone.bit_count()
    if m <= 1:
        return 0
    positions = [i for i in range(everyone.bit_length()) if everyone >> i & 1]
    degrees = {nbrs[i].bit_count() for i in positions}
    if m - 1 in degrees:
        return 1 if len(degrees) == 1 else 2
    diam = 0
    for i in positions:
        layers = _layers(nbrs, i)
        if sum(layers) != everyone:
            return math.inf
        diam = max(diam, len(layers) - 1)
    return diam


# cr:64 and cc:65, the largest built-in inputs, visit 3970 and 2080 masks.
# n/2 disjoint supports x_{2i-1}x_{2i} visit 2^(n/2+1) - 1, and the facet
# pass is quadratic in them: 2.6 s at n=24 (Python 3.11); n=64 never ends.
GR_COMPLEX_MAX_VISITS = 5000


def gr_complex(cf: CanonicalForm) -> SimplicialComplex:
    """General relationship complex: all neuron sets supporting no element.

    A set sigma is a face iff no canonical-form element has its variable
    support inside sigma, so the complex is the independence complex of the
    support hypergraph. Facets are found by descending from the full set,
    branching on one violated support at a time; a descent that visits more
    than GR_COMPLEX_MAX_VISITS masks raises ValueError.
    """
    n = cf.n
    supports = sorted(s for s, _ in _minimal_pairs((p | m, 0) for p, m in cf.elements))
    full = (1 << n) - 1
    visited: set[int] = set()
    independent: list[int] = []
    stack = [full]
    while stack:
        mask = stack.pop()
        if mask in visited:
            continue
        visited.add(mask)
        if len(visited) > GR_COMPLEX_MAX_VISITS:
            raise ValueError(f"general relationship complex too large: its facet search "
                             f"passed {GR_COMPLEX_MAX_VISITS} neuron sets")
        violated = next((s for s in supports if s & mask == s), None)
        if violated is None:
            independent.append(mask)
            continue
        bits = violated
        while bits:
            low = bits & -bits
            stack.append(mask & ~low)
            bits ^= low
    return SimplicialComplex(n, _maximal_masks(independent))


def grg(cf: CanonicalForm) -> CodeGraph:
    """General relationship graph, the 1-skeleton of the relationship complex,
    computed directly from element supports."""
    n = cf.n
    supports = sorted(s for s, _ in _minimal_pairs((p | m, 0) for p, m in cf.elements))
    vertices = [i for i in range(1, n + 1)
                if not any(s & ~(1 << (i - 1)) == 0 for s in supports)]
    nbrs = [0] * len(vertices)
    for a, i in enumerate(vertices):
        for b in range(a + 1, len(vertices)):
            pair = (1 << (i - 1)) | (1 << (vertices[b] - 1))
            if not any(s & ~pair == 0 for s in supports):
                nbrs[a] |= 1 << b
                nbrs[b] |= 1 << a
    return CodeGraph(tuple(vertices), tuple(nbrs))


def to_dot(g: CodeGraph) -> str:
    """Deterministic DOT text: all vertices first, then edges, in vertex order."""
    lines = [f'  "{v}";' for v in g.vertices]
    lines += [f'  "{u}" -- "{v}";' for u, v in g.sorted_edges()]
    return "\n".join(["graph {", *lines, "}"])


def graph_to_json_obj(g: CodeGraph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.sorted_edges()]}


def complex_to_json_obj(sc: SimplicialComplex) -> dict:
    return {"n": sc.n, "facets": [list(indices_of(f)) for f in sc.facets]}
