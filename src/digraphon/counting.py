"""Exact homomorphism and labeled-copy counting.

Counts are plain Python integers (arbitrary precision); densities are
`fractions.Fraction`, so every equality downstream can be asserted exactly.
Every count here follows one cached plan per pattern (`_plan`): a fixed
vertex order (vertices adjacent to the placed prefix first, then descending
degree, ties broken by smallest index), which prunes early and is
deterministic, and each position's edges back to earlier positions
(`_back_edges`; the step-graphon density sum builds its own order, chosen
for small keys, and shares this form).  One backtracking kernel,
`_count_maps`, counts maps along a plan's back edges (`_compile`) into a
host given as out- and in-neighbour bitmasks: directed counts and labeled
copies use the host's masks, and undirected counts use the adjacency mask
for both.  Part-respecting bipartite counts are directed counts of the
part-oriented pattern in the part-oriented host, whose edges all run from
part 1 to part 2; only the pattern's isolated vertices need their part, and
each adds a factor of its host part's size.  The exhaustive scans in
`sidorenko` and `tournaments` share one tally engine, `_tally`: it compiles
the pattern once, counts the hosts of an index range on masks decoded
straight from the indices and tallies them by (count, edge count) with each
key's first index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .graphs import BipartiteGraph, OrientedGraph, UndirectedGraph, _mask_range, to_part_oriented
from .parallel import map_tasks, resolve_workers, split_range

_PLAN_CACHE_SIZE = 4096


def _neighbours(v: int, edges: Sequence[tuple[int, int]]) -> list[set[int]]:
    """The neighbours of each vertex 0..v-1, ignoring edge directions."""
    adj: list[set[int]] = [set() for _ in range(v)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _back_edges(order: Sequence[int], edges: Sequence[tuple[int, int]]
                ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per position i of a placement order, ``(j, t)`` for every edge
    between position i and an earlier position j: t is 0 when the edge runs
    from j to i and 1 when it runs the other way."""
    pos = {x: i for i, x in enumerate(order)}
    back: list[list[tuple[int, int]]] = [[] for _ in order]
    for a, b in edges:
        i, j = pos[a], pos[b]
        back[max(i, j)].append((min(i, j), int(i > j)))
    return tuple(tuple(bk) for bk in back)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(v: int, edges: tuple[tuple[int, int], ...]
          ) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The hom counters' placement order of the vertices 0..v-1 and its
    back edges (`_back_edges`).

    The order prunes early: each next vertex is adjacent to a placed one
    when any is, and of the highest degree among those, ties broken by the
    smallest index.  Callers pass ``edges`` sorted so that equal patterns
    share a cache entry.
    """
    adj = _neighbours(v, edges)
    order: list[int] = []
    rest = list(range(v))
    while rest:
        frontier = [x for x in rest if not adj[x].isdisjoint(order)]
        best = max(frontier or rest, key=lambda x: (len(adj[x]), -x))
        order.append(best)
        rest.remove(best)
    return tuple(order), _back_edges(order, edges)


def _masks(host: OrientedGraph | UndirectedGraph) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks of every host vertex."""
    out_mask = [0] * host.vertex_count
    in_mask = [0] * host.vertex_count
    for u, v in host.edges:
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    return out_mask, in_mask


def _compile(pattern: OrientedGraph | UndirectedGraph
             ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The pattern's back edges for `_count_maps`, per position of its plan.
    Scans compile once and count many hosts."""
    return _plan(pattern.vertex_count, tuple(pattern.sorted_edges()))[1]


def _count_maps(back: Sequence[Sequence[tuple[int, int]]],
                out_mask: Sequence[int], in_mask: Sequence[int],
                injective: bool = False) -> int:
    """Count maps f of a pattern, given as its plan's back edges
    (``_compile``), into a host with every pattern edge (a, b) sent into the host's edges: f(b) in
    ``out_mask[f(a)]``, equivalently f(a) in ``in_mask[f(b)]``.
    """
    v = len(back)
    if v == 0:
        return 1
    full = (1 << len(out_mask)) - 1
    masks = (out_mask, in_mask)
    images = [0] * v
    last = v - 1

    def rec(i: int, used: int) -> int:
        cand = full & ~used if injective else full
        for j, t in back[i]:
            cand &= masks[t][images[j]]
            if not cand:
                return 0
        if i == last:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            cand ^= bit
            images[i] = bit.bit_length() - 1
            total += rec(i + 1, used | bit)
        return total

    return rec(0, 0)


# (count, edge count) -> [hosts, first index] over a range of host indices.
_Tally = dict[tuple[int, int], list[int]]


def _tally_chunk(task) -> _Tally:
    """Tally the hosts with indices in [lo, hi) of the ``states`` encoding
    (see `graphs._mask_range`) by their map count and edge count."""
    back, n, lo, hi, states, injective = task
    tally: _Tally = {}
    for index, (out_mask, in_mask, edges) in enumerate(_mask_range(n, lo, hi, states), lo):
        key = (_count_maps(back, out_mask, in_mask, injective), edges)
        tally.setdefault(key, [0, index])[0] += 1
    return tally


def _tally(pattern: OrientedGraph, n: int, count: int, states: tuple[tuple[int, int], ...],
           injective: bool, workers: Optional[int]) -> _Tally:
    """Tally of the hosts with indices in [0, count) on n vertices, split
    over ``workers`` (`parallel.resolve_workers`).  Chunks are merged in
    index order, so each key keeps its earliest index whatever the worker
    count."""
    workers = resolve_workers(workers)
    back = _compile(pattern)
    tasks = [(back, n, lo, hi, states, injective)
             for lo, hi in split_range(0, count, workers * 4)]
    merged: _Tally = {}
    for part in map_tasks(_tally_chunk, tasks, workers):
        for key, (hosts, first) in part.items():
            merged.setdefault(key, [0, first])[0] += hosts
    return merged


def hom_count_directed(pattern: OrientedGraph, host: OrientedGraph) -> int:
    """Number of maps f with (x,y) an edge of the pattern implying
    (f(x),f(y)) an edge of the host."""
    return _count_maps(_compile(pattern), *_masks(host))


def labeled_copies(pattern: OrientedGraph, host: OrientedGraph) -> int:
    """Injective edge-preserving maps (labeled copies of the pattern)."""
    if pattern.vertex_count > host.vertex_count:
        return 0
    return _count_maps(_compile(pattern), *_masks(host), injective=True)


def t_directed(pattern: OrientedGraph, host: OrientedGraph) -> Fraction:
    """Homomorphism density h(pattern, host) / v(host)^v(pattern)."""
    if host.vertex_count == 0:
        raise ValueError("empty host graph has no density")
    return Fraction(hom_count_directed(pattern, host),
                    host.vertex_count ** pattern.vertex_count)


def hom_count_undirected(pattern: UndirectedGraph, host: UndirectedGraph) -> int:
    adj_mask = [out | into for out, into in zip(*_masks(host))]
    return _count_maps(_compile(pattern), adj_mask, adj_mask)


def t_undirected(pattern: UndirectedGraph, host: UndirectedGraph) -> Fraction:
    if host.vertex_count == 0:
        raise ValueError("empty host graph has no density")
    return Fraction(hom_count_undirected(pattern, host),
                    host.vertex_count ** pattern.vertex_count)


def hom_count_bip(pattern: BipartiteGraph, host: BipartiteGraph) -> int:
    """Part-respecting homomorphisms: part-1 vertices land in the host's
    part 1, part-2 vertices in part 2, edges on edges."""
    # Every part-oriented host edge runs from part 1 to part 2, so a directed
    # map already sends each vertex with an edge into its own part, and each
    # isolated vertex may go anywhere in its part: an empty host part gives
    # 0 ** k, which is 0 for k >= 1 isolated vertices and 1 for none.
    tails = sorted({i for i, _ in pattern.edges})
    heads = sorted({j for _, j in pattern.edges})
    core = BipartiteGraph(len(tails), len(heads),
                          ((tails.index(i), heads.index(j)) for i, j in pattern.edges))
    return (hom_count_directed(to_part_oriented(core), to_part_oriented(host))
            * host.part1_count ** (pattern.part1_count - len(tails))
            * host.part2_count ** (pattern.part2_count - len(heads)))


def t_bip(pattern: BipartiteGraph, host: BipartiteGraph) -> Fraction:
    """Part-respecting homomorphism density: divides by |U1|^|A1| * |U2|^|A2|."""
    if host.part1_count == 0 or host.part2_count == 0:
        raise ValueError("empty host part has no density")
    denom = host.part1_count ** pattern.part1_count * host.part2_count ** pattern.part2_count
    return Fraction(hom_count_bip(pattern, host), denom)
