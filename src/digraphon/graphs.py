"""Graph types and small-graph constructions.

Oriented graphs are loopless digraphs with no anti-parallel edge pair
(no digons); bipartite graphs carry a fixed bipartition.  Vertices are
always indices ``0..n-1``; named vertices exist only in the file-format
layer.  All types are immutable after construction and every operation
here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Callable, Iterable, Iterator, Optional

DEFAULT_ORIENTED_ENUM_CAP = 6
DEFAULT_TOURNAMENT_ENUM_CAP = 7


class EnumerationCapExceeded(ValueError):
    """An exhaustive enumeration would exceed its configured vertex cap."""


def _validate_endpoint(v: int, n: int) -> None:
    if not isinstance(v, int) or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} out of range for {n} vertices")


@dataclass(frozen=True)
class OrientedGraph:
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

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
        return OrientedGraph(self.vertex_count, ((v, u) for u, v in self.edges))

    def relabel(self, mapping: Iterable[int]) -> "OrientedGraph":
        """Apply a vertex permutation; ``mapping[old] = new``."""
        perm = list(mapping)
        if sorted(perm) != list(range(self.vertex_count)):
            raise ValueError("mapping is not a permutation of the vertices")
        return OrientedGraph(self.vertex_count, ((perm[u], perm[v]) for u, v in self.edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class UndirectedGraph:
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

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class BipartiteGraph:
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
            _validate_endpoint(i, part1_count)
            _validate_endpoint(j, part2_count)

    @property
    def vertex_count(self) -> int:
        return self.part1_count + self.part2_count

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Tournament:
    """Oriented complete graph: every vertex pair carries exactly one edge."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset((int(u), int(v)) for u, v in edges))
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if len(self.edges) != comb(vertex_count, 2):
            raise ValueError("a tournament needs exactly C(n,2) edges")
        for u, v in self.edges:
            _validate_endpoint(u, vertex_count)
            _validate_endpoint(v, vertex_count)
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if (v, u) in self.edges:
                raise ValueError(f"both orientations of {{{u},{v}}} present")

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Tournament":
        """Decode an orientation bitmask over the C(n,2) pairs in
        lexicographic order; bit 0 keeps (u,v) with u < v, bit 1 flips it."""
        edges = []
        for idx, (u, v) in enumerate(combinations(range(n), 2)):
            edges.append((v, u) if (bits >> idx) & 1 else (u, v))
        return cls(n, edges)

    def as_oriented(self) -> OrientedGraph:
        return OrientedGraph(self.vertex_count, self.edges)

    def reverse(self) -> "Tournament":
        return Tournament(self.vertex_count, ((v, u) for u, v in self.edges))


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

def oriented_graph_from_index(n: int, index: int) -> OrientedGraph:
    """Decode a base-3 pair-state index (0 absent, 1 forward, 2 backward)
    over the C(n,2) vertex pairs in lexicographic order."""
    edges = []
    for u, v in combinations(range(n), 2):
        index, state = divmod(index, 3)
        if state == 1:
            edges.append((u, v))
        elif state == 2:
            edges.append((v, u))
    return OrientedGraph(n, edges)


def tournament_from_index(n: int, index: int) -> Tournament:
    return Tournament.from_bits(n, index)


# Pair states of the two index encodings, as (u->v present, v->u present)
# for the pair u < v; the state is the pair's digit of the index.  These are
# the encodings of `oriented_graph_from_index` and `tournament_from_index`.
_ORIENTED_STATES = ((0, 0), (1, 0), (0, 1))
_TOURNAMENT_STATES = ((1, 0), (0, 1))
# (out-neighbour masks, in-neighbour masks, edge count) per host of a range.
_Masks = Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]


def _mask_range(n: int, lo: int, hi: int, states: tuple[tuple[int, int], ...]) -> _Masks:
    """Yield ``(out_masks, in_masks, edge_count)`` for the indices lo..hi-1 of
    the encoding whose k-th digit, base ``len(states)``, is the state of the
    k-th vertex pair in lexicographic order.

    No graph object is built.  Consecutive indices differ only in their low
    digits, so each step toggles the edges of the pairs whose digit changed
    (at most two pairs per step on average).
    """
    base = len(states)
    pairs = list(combinations(range(n), 2))
    # moves[k][s]: the bits that take pair k from state s to state s+1 mod base.
    moves = []
    for u, v in pairs:
        row = []
        for s in range(base):
            (f0, b0), (f1, b1) = states[s], states[(s + 1) % base]
            df, db = f0 ^ f1, b0 ^ b1
            row.append((u, v, df << v, df << u, db << u, db << v, f1 + b1 - f0 - b0))
        moves.append(row)
    out = [0] * n
    inn = [0] * n
    edges = 0
    digits = []
    index = lo
    for u, v in pairs:
        index, s = divmod(index, base)
        digits.append(s)
        forward, backward = states[s]
        if forward:
            out[u] |= 1 << v
            inn[v] |= 1 << u
        if backward:
            out[v] |= 1 << u
            inn[u] |= 1 << v
        edges += forward + backward
    for _ in range(lo, hi):
        yield tuple(out), tuple(inn), edges
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


def oriented_graph_count(n: int) -> int:
    return 3 ** comb(n, 2)


def tournament_count(n: int) -> int:
    return 2 ** comb(n, 2)


def enumerate_oriented_graphs(
    n: int,
    callback: Optional[Callable[[OrientedGraph], None]] = None,
    *,
    cap: int = DEFAULT_ORIENTED_ENUM_CAP,
    start: int = 0,
    stop: Optional[int] = None,
    dedup: bool = False,
) -> int:
    """Visit labeled oriented graphs on ``n`` vertices; return the visit count.

    Each unordered pair has three states (absent / forward / backward), so the
    full range visits exactly 3^C(n,2) graphs.  ``start``/``stop`` restrict
    the visit to an index sub-range so callers may shard the space across
    workers.  With ``dedup=True`` only one representative per isomorphism
    class is visited (canonical-form filter; off by default since labeled
    enumeration is what the density definitions count).  With neither a
    callback nor ``dedup`` nothing is decoded: the range size is returned.
    """
    if n > cap:
        raise EnumerationCapExceeded(f"n={n} exceeds enumeration cap {cap}")
    total = oriented_graph_count(n)
    stop = total if stop is None else min(stop, total)
    if callback is None and not dedup:
        return len(range(start, stop))
    seen: set = set()
    visits = 0
    for index in range(start, stop):
        g = oriented_graph_from_index(n, index)
        if dedup:
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
        visits += 1
        if callback is not None:
            callback(g)
    return visits


def enumerate_tournaments(
    n: int,
    callback: Optional[Callable[[Tournament], None]] = None,
    *,
    cap: int = DEFAULT_TOURNAMENT_ENUM_CAP,
    start: int = 0,
    stop: Optional[int] = None,
) -> int:
    """Visit all 2^C(n,2) labeled tournaments on ``n`` vertices (or the
    index sub-range ``start``/``stop``); return the visit count.  Without a
    callback nothing is decoded."""
    if n > cap:
        raise EnumerationCapExceeded(f"n={n} exceeds enumeration cap {cap}")
    total = tournament_count(n)
    stop = total if stop is None else min(stop, total)
    if callback is not None:
        for index in range(start, stop):
            callback(Tournament.from_bits(n, index))
    return len(range(start, stop))


# ---------------------------------------------------------------------------
# Canonical form (small-scale isomorphism key)
# ---------------------------------------------------------------------------

def canonical_form(graph: OrientedGraph) -> tuple:
    """Isomorphism-invariant key for a small oriented graph.

    Iterated degree refinement colors the vertices, then a backtracking pass
    over color-class-respecting vertex orderings picks the lexicographically
    smallest edge encoding.  Adequate for the enumeration caps used here;
    not intended for large graphs.
    """
    n = graph.vertex_count
    if n == 0:
        return (0, ())
    out_adj = [graph.out_neighbors(v) for v in range(n)]
    in_adj = [graph.in_neighbors(v) for v in range(n)]

    colors = [(graph.out_degree(v), graph.in_degree(v)) for v in range(n)]
    while True:
        refined = [
            (colors[v],
             tuple(sorted(colors[w] for w in out_adj[v])),
             tuple(sorted(colors[w] for w in in_adj[v])))
            for v in range(n)
        ]
        rank = {c: i for i, c in enumerate(sorted(set(refined)))}
        new_colors = [rank[refined[v]] for v in range(n)]
        if _partition_of(new_colors) == _partition_of(colors):
            colors = new_colors
            break
        colors = new_colors

    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]

    best = None
    for perm_parts in _class_orderings(ordered_classes):
        position = {v: i for i, v in enumerate(perm_parts)}
        enc = tuple(sorted((position[u], position[v]) for u, v in graph.edges))
        if best is None or enc < best:
            best = enc
    return (n, tuple(sorted(colors)), best)


def _partition_of(colors: list) -> frozenset:
    groups: dict = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    return frozenset(tuple(g) for g in groups.values())


def _class_orderings(classes: list[list[int]]):
    if not classes:
        yield []
        return
    head, rest = classes[0], classes[1:]
    for head_perm in permutations(head):
        for tail in _class_orderings(rest):
            yield list(head_perm) + tail
