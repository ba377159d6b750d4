"""Graph types and small-graph constructions.

Oriented graphs are loopless digraphs with no anti-parallel edge pair
(no digons), and a tournament is an oriented graph with an edge on every
vertex pair; bipartite graphs carry a fixed bipartition.  Vertices are
always indices ``0..n-1``; named vertices exist only in the file-format
layer.  All types are immutable after construction and every operation
here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from math import comb
from typing import Callable, Iterable, Iterator, Optional

DEFAULT_ORIENTED_ENUM_CAP = 6
DEFAULT_TOURNAMENT_ENUM_CAP = 7


class EnumerationCapExceeded(ValueError):
    """An exhaustive enumeration would exceed its configured vertex cap."""


def _validate_endpoint(v: int, n: int, part: Optional[int] = None) -> None:
    if not isinstance(v, int) or not 0 <= v < n:
        where = f"{n} vertices" if part is None else f"part {part} of size {n}"
        raise ValueError(f"vertex {v!r} out of range for {where}")


@dataclass(frozen=True)
class _Graph:
    """The edge accessors of every graph kind.  Each kind declares its size
    fields and then ``edges``, a frozenset of index pairs."""

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class OrientedGraph(_Graph):
    """Loopless digraph in which at most one of (u,v), (v,u) is an edge."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset((int(u), int(v)) for u, v in edges))
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in self.edges:
            _validate_endpoint(u, vertex_count)
            _validate_endpoint(v, vertex_count)
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if (v, u) in self.edges:
                raise ValueError(f"anti-parallel pair {(u, v)}/{(v, u)} not allowed")

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def out_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(w for (u, w) in self.edges if u == v)

    def in_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u for (u, w) in self.edges if w == v)

    def out_degree(self, v: int) -> int:
        return sum(1 for (u, _) in self.edges if u == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for (_, w) in self.edges if w == v)

    def degree(self, v: int) -> int:
        return self.out_degree(v) + self.in_degree(v)

    def reverse(self) -> "OrientedGraph":
        return type(self)(self.vertex_count, ((v, u) for u, v in self.edges))

    def relabel(self, mapping: Iterable[int]) -> "OrientedGraph":
        """Apply a vertex permutation; ``mapping[old] = new``."""
        perm = list(mapping)
        if sorted(perm) != list(range(self.vertex_count)):
            raise ValueError("mapping is not a permutation of the vertices")
        return type(self)(self.vertex_count, ((perm[u], perm[v]) for u, v in self.edges))


@dataclass(frozen=True)
class UndirectedGraph(_Graph):
    """Simple undirected graph; edges are stored as (min, max) pairs."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "vertex_count", vertex_count)
        norm = frozenset((min(int(u), int(v)), max(int(u), int(v))) for u, v in edges)
        object.__setattr__(self, "edges", norm)
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in self.edges:
            _validate_endpoint(u, vertex_count)
            _validate_endpoint(v, vertex_count)
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        out = set()
        for u, w in self.edges:
            if u == v:
                out.add(w)
            elif w == v:
                out.add(u)
        return frozenset(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


@dataclass(frozen=True)
class BipartiteGraph(_Graph):
    """Undirected graph with a fixed bipartition.

    Edges are pairs ``(i, j)`` with ``i`` indexing part 1 and ``j`` part 2;
    each part has its own 0-based index space.
    """

    part1_count: int
    part2_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, part1_count: int, part2_count: int,
                 edges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "part1_count", part1_count)
        object.__setattr__(self, "part2_count", part2_count)
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in edges))
        if part1_count < 0 or part2_count < 0:
            raise ValueError("part sizes must be nonnegative")
        for i, j in self.edges:
            _validate_endpoint(i, part1_count, 1)
            _validate_endpoint(j, part2_count, 2)

    @property
    def vertex_count(self) -> int:
        return self.part1_count + self.part2_count

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges


@dataclass(frozen=True)
class Tournament(OrientedGraph):
    """Oriented graph in which every vertex pair carries exactly one edge."""

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        super().__init__(vertex_count, edges)
        if len(self.edges) != comb(vertex_count, 2):
            raise ValueError("a tournament needs exactly C(n,2) edges")

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Tournament":
        """Decode an orientation bitmask over the C(n,2) pairs in
        lexicographic order; bit 0 keeps (u,v) with u < v, bit 1 flips it."""
        return _from_index(cls, n, bits, _TOURNAMENT_STATES)

    def as_oriented(self) -> OrientedGraph:
        """The same edges as a plain `OrientedGraph`.  Equality compares
        classes, so a tournament never equals that graph."""
        return OrientedGraph(self.vertex_count, self.edges)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def underlying(graph: OrientedGraph) -> UndirectedGraph:
    """Forget edge directions; the edge count is preserved (no digons)."""
    return UndirectedGraph(graph.vertex_count, graph.edges)


def hom_to_edge_bipartition(graph: OrientedGraph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Two-color the vertices so every edge runs part1 -> part2, if possible.

    Equivalent to the graph admitting a homomorphism onto a single directed
    edge.  A vertex with both an in- and an out-edge blocks this.  Isolated
    vertices go to part1 by convention, which keeps round-trips with
    :func:`to_part_oriented` deterministic.
    """
    part1, part2 = set(), set()
    for u, v in graph.edges:
        part1.add(u)
        part2.add(v)
    if part1 & part2:
        return None
    for v in range(graph.vertex_count):
        if v not in part1 and v not in part2:
            part1.add(v)
    return frozenset(part1), frozenset(part2)


def to_part_oriented(bip: BipartiteGraph) -> OrientedGraph:
    """Concatenate the parts and direct every edge from part 1 to part 2."""
    n1 = bip.part1_count
    return OrientedGraph(bip.vertex_count, ((i, n1 + j) for i, j in bip.edges))


def double_cover(graph: UndirectedGraph) -> BipartiteGraph:
    """Bipartite double cover: two vertex copies, (u1, v2) an edge iff {u,v} is."""
    edges = []
    for u, v in graph.edges:
        edges.append((u, v))
        edges.append((v, u))
    return BipartiteGraph(graph.vertex_count, graph.vertex_count, edges)


def oriented_knn(n: int) -> OrientedGraph:
    """Complete balanced bipartite oriented graph on 2n vertices, all edges
    directed from the first part to the second."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return OrientedGraph(2 * n, ((i, n + j) for i in range(n) for j in range(n)))


def underlying_has_cycle(graph: OrientedGraph) -> bool:
    """True iff the underlying undirected graph is not a forest (union-find)."""
    parent = list(range(graph.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def disjoint_union(a: OrientedGraph, b: OrientedGraph) -> OrientedGraph:
    off = a.vertex_count
    edges = list(a.edges) + [(u + off, v + off) for u, v in b.edges]
    return OrientedGraph(a.vertex_count + b.vertex_count, edges)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# Pair states of the two index encodings, as (u->v present, v->u present)
# for the pair u < v; the state is the pair's digit of the index.  These are
# the encodings of `oriented_graph_from_index` and `tournament_from_index`,
# and `_mask_range` is their only reader: the graph decoders and the
# callback enumerations build graphs from its out-neighbour masks.
_ORIENTED_STATES = ((0, 0), (1, 0), (0, 1))
_TOURNAMENT_STATES = ((1, 0), (0, 1))
# (out-neighbour masks, in-neighbour masks, edge count) per host of a range.
_Masks = Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]


def _graph(cls: type, n: int, out_masks: tuple[int, ...]) -> OrientedGraph:
    """The ``cls`` graph on n vertices with these out-neighbour masks, its
    edges listed pair by pair in lexicographic order, forward edge first."""
    edges = []
    for u, v in combinations(range(n), 2):
        if out_masks[u] >> v & 1:
            edges.append((u, v))
        if out_masks[v] >> u & 1:
            edges.append((v, u))
    return cls(n, edges)


def _from_index(cls: type, n: int, index: int,
                states: tuple[tuple[int, int], ...]) -> OrientedGraph:
    """The ``cls`` graph of one index, read by `_mask_range`."""
    return _graph(cls, n, next(_mask_range(n, index, index + 1, states))[0])


def oriented_graph_from_index(n: int, index: int) -> OrientedGraph:
    """Decode a base-3 pair-state index (0 absent, 1 forward, 2 backward)
    over the C(n,2) vertex pairs in lexicographic order."""
    return _from_index(OrientedGraph, n, index, _ORIENTED_STATES)


def tournament_from_index(n: int, index: int) -> Tournament:
    return Tournament.from_bits(n, index)


def _mask_range(n: int, lo: int, hi: int, states: tuple[tuple[int, int], ...]) -> _Masks:
    """Yield ``(out_masks, in_masks, edge_count)`` for the indices lo..hi-1 of
    the encoding whose k-th digit, base ``len(states)``, is the state of the
    k-th vertex pair in lexicographic order.

    No graph object is built.  The digits of lo are read once; consecutive
    indices differ only in their low digits, so each step toggles the edges
    of the pairs whose digit changed (at most two pairs per step on
    average).  A range with lo or hi - 1 outside [0, base^C(n,2)) raises
    ``ValueError``; an empty range decodes nothing, so lo may equal the
    index count.
    """
    if lo >= hi:
        return
    base = len(states)
    pairs = list(combinations(range(n), 2))
    count = base ** len(pairs)
    for index in (lo, hi - 1):
        if not 0 <= index < count:
            raise ValueError(f"index {index} outside [0, {count}) for n = {n}")
    out = [0] * n
    inn = [0] * n
    edges = 0
    digits = []
    index = lo
    for u, v in pairs:
        index, digit = divmod(index, base)
        digits.append(digit)
        forward, backward = states[digit]
        out[u] |= forward << v
        inn[v] |= forward << u
        out[v] |= backward << u
        inn[u] |= backward << v
        edges += forward + backward
    yield tuple(out), tuple(inn), edges
    # moves[k][s]: the bits that take pair k from state s to state s+1 mod
    # base, built only once a second host is asked for.
    moves = []
    for u, v in pairs:
        row = []
        for s in range(base):
            (f0, b0), (f1, b1) = states[s], states[(s + 1) % base]
            df, db = f0 ^ f1, b0 ^ b1
            row.append((u, v, df << v, df << u, db << u, db << v, f1 + b1 - f0 - b0))
        moves.append(row)
    for _ in range(lo + 1, hi):
        for k, s in enumerate(digits):
            u, v, out_u, in_v, out_v, in_u, delta = moves[k][s]
            out[u] ^= out_u
            inn[v] ^= in_v
            out[v] ^= out_v
            inn[u] ^= in_u
            edges += delta
            if s + 1 < base:
                digits[k] = s + 1
                break
            digits[k] = 0
        yield tuple(out), tuple(inn), edges


def oriented_graph_count(n: int) -> int:
    return 3 ** comb(n, 2)


def tournament_count(n: int) -> int:
    return 2 ** comb(n, 2)


def enumerate_oriented_graphs(
    n: int,
    callback: Optional[Callable[[OrientedGraph], None]] = None,
    *,
    cap: int = DEFAULT_ORIENTED_ENUM_CAP,
    dedup: bool = False,
) -> int:
    """Visit labeled oriented graphs on ``n`` vertices; return the visit count.

    Each unordered pair has three states (absent / forward / backward), so
    the scan visits exactly 3^C(n,2) graphs.  With ``dedup=True`` only one
    representative per isomorphism class is visited (canonical-form filter;
    off by default since labeled enumeration is what the density definitions
    count).  With neither a callback nor ``dedup`` nothing is decoded.
    """
    return _visit(n, cap, _ORIENTED_STATES, OrientedGraph, callback, dedup)


def enumerate_tournaments(
    n: int,
    callback: Optional[Callable[[Tournament], None]] = None,
    *,
    cap: int = DEFAULT_TOURNAMENT_ENUM_CAP,
) -> int:
    """Visit all 2^C(n,2) labeled tournaments on ``n`` vertices; return the
    visit count.  Without a callback nothing is decoded."""
    return _visit(n, cap, _TOURNAMENT_STATES, Tournament, callback, False)


def _visit(n: int, cap: int, states: tuple[tuple[int, int], ...], cls: type,
           callback: Optional[Callable], dedup: bool) -> int:
    """The visit loop of both enumerations, one walk of `_mask_range` over
    the indices of the ``states`` encoding in order."""
    if n > cap:
        raise EnumerationCapExceeded(f"n={n} exceeds enumeration cap {cap}")
    count = len(states) ** comb(n, 2)
    if callback is None and not dedup:
        return count
    seen: set = set()
    visits = 0
    for out_masks, _, _ in _mask_range(n, 0, count, states):
        g = _graph(cls, n, out_masks)
        if dedup:
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
        visits += 1
        if callback is not None:
            callback(g)
    return visits


# ---------------------------------------------------------------------------
# Canonical form (small-scale isomorphism key)
# ---------------------------------------------------------------------------

def canonical_form(graph: OrientedGraph) -> tuple:
    """Isomorphism-invariant key for a small oriented graph.

    Iterated degree refinement colors the vertices, then a pass over every
    color-class-respecting vertex ordering picks the lexicographically
    smallest edge encoding.  Adequate for the enumeration caps used here;
    not intended for large graphs.
    """
    n = graph.vertex_count
    if n == 0:
        return (0, ())
    out_adj = [graph.out_neighbors(v) for v in range(n)]
    in_adj = [graph.in_neighbors(v) for v in range(n)]

    colors = [(graph.out_degree(v), graph.in_degree(v)) for v in range(n)]
    classes = len(set(colors))
    # Refinement only splits classes, so the partition is stable once the
    # class count stops growing.
    while True:
        refined = [
            (colors[v],
             tuple(sorted(colors[w] for w in out_adj[v])),
             tuple(sorted(colors[w] for w in in_adj[v])))
            for v in range(n)
        ]
        rank = {c: i for i, c in enumerate(sorted(set(refined)))}
        colors = [rank[refined[v]] for v in range(n)]
        if len(rank) == classes:
            break
        classes = len(rank)

    def encoding(order) -> tuple:
        position = {v: i for i, v in enumerate(chain.from_iterable(order))}
        return tuple(sorted((position[u], position[v]) for u, v in graph.edges))

    members = [[v for v in range(n) if colors[v] == c] for c in range(classes)]
    best = min(map(encoding, product(*map(permutations, members))))
    return (n, tuple(sorted(colors)), best)
