"""Exact homomorphism and labeled-copy counting.

Counts are plain Python integers (arbitrary precision); densities are
`fractions.Fraction`, so every equality downstream can be asserted exactly.
Every count here, and the step-graphon density sum in `stepgraphon`, follows
one cached plan per pattern (`_plan`): a fixed vertex order (vertices
adjacent to the placed prefix first, then descending degree, ties broken by
smallest index), which prunes early and is deterministic, and each
position's edges back to earlier positions.  One masked backtracking kernel,
`_count_maps`, counts maps of a compiled pattern (`_compile`: the plan as
per-position steps) into a host given as out- and in-neighbour bitmasks:
directed counts and labeled copies use the host's masks, undirected counts
use the adjacency mask for both, and part-respecting bipartite counts are
the directed counts of the part-oriented pattern in the part-oriented host,
with each pattern vertex kept to its host part.  The exhaustive scans in
`sidorenko` and `tournaments` share one tally engine, `_tally`: it counts
the hosts of an index range on masks decoded straight from the indices and
tallies them by (count, edge count) with each key's first index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .graphs import BipartiteGraph, OrientedGraph, UndirectedGraph, _mask_range, to_part_oriented
from .parallel import map_tasks, split_range

_PLAN_CACHE_SIZE = 4096


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(v: int, edges: tuple[tuple[int, int], ...], free: tuple[int, ...] = ()
          ) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """Placement order of the vertices 0..v-1 and the back edges of each
    position.

    The ``free`` vertices take the first positions, in order.  ``back[i]``
    holds ``(j, t)`` for every edge between position i and an earlier
    position j: t is 0 when the edge runs from j to i and 1 when it runs the
    other way.  Callers pass ``edges`` sorted so that equal patterns share a
    cache entry.
    """
    adj: list[set[int]] = [set() for _ in range(v)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    order = list(free)
    rest = [x for x in range(v) if x not in free]
    while rest:
        frontier = [x for x in rest if not adj[x].isdisjoint(order)]
        best = max(frontier or rest, key=lambda x: (len(adj[x]), -x))
        order.append(best)
        rest.remove(best)
    pos = {x: i for i, x in enumerate(order)}
    back: list[list[tuple[int, int]]] = [[] for _ in range(v)]
    for a, b in edges:
        i, j = pos[a], pos[b]
        back[max(i, j)].append((min(i, j), int(i > j)))
    return tuple(order), tuple(tuple(bk) for bk in back)


def _masks(host: OrientedGraph | UndirectedGraph) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks of every host vertex."""
    out_mask = [0] * host.vertex_count
    in_mask = [0] * host.vertex_count
    for u, v in host.edges:
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    return out_mask, in_mask


def _compile(pattern: OrientedGraph | UndirectedGraph
             ) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The pattern's steps for `_count_maps`: per position of its plan, the
    pattern vertex placed there and its back edges ``(j, t)``.  Scans
    compile once and count many hosts."""
    order, back = _plan(pattern.vertex_count, tuple(pattern.sorted_edges()))
    return tuple(zip(order, back))


def _count_maps(steps: Sequence[tuple[int, Sequence[tuple[int, int]]]],
                out_mask: Sequence[int], in_mask: Sequence[int],
                allowed: Optional[Sequence[int]] = None, injective: bool = False) -> int:
    """Count maps f of a compiled pattern (``_compile``) into a host with
    every pattern edge (a, b) sent into the host's edges: f(b) in
    ``out_mask[f(a)]``, equivalently f(a) in ``in_mask[f(b)]``.
    ``allowed[x]`` is the host-vertex bitmask pattern vertex x may use at
    all (default: any).
    """
    v = len(steps)
    if v == 0:
        return 1
    full = (1 << len(out_mask)) - 1
    masks = (out_mask, in_mask)
    images = [0] * v
    last = v - 1

    def rec(i: int, used: int) -> int:
        x, checks = steps[i]
        cand = full if allowed is None else allowed[x]
        if injective:
            cand &= ~used
        for j, t in checks:
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
    pattern, n, lo, hi, states, injective = task
    steps = _compile(pattern)
    tally: _Tally = {}
    for index, (out_mask, in_mask, edges) in enumerate(_mask_range(n, lo, hi, states), lo):
        key = (_count_maps(steps, out_mask, in_mask, injective=injective), edges)
        tally.setdefault(key, [0, index])[0] += 1
    return tally


def _tally(pattern: OrientedGraph, n: int, count: int,
           states: tuple[tuple[int, int], ...], injective: bool, workers: int) -> _Tally:
    """Tally of the hosts with indices in [0, count) on n vertices, split
    over ``workers``.  Chunks are merged in index order, so each key keeps
    its earliest index whatever the worker count."""
    tasks = [(pattern, n, lo, hi, states, injective)
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
    # Host vertices share one index space: part 1 first, then part 2.
    part1_mask = (1 << host.part1_count) - 1
    part2_mask = ((1 << host.vertex_count) - 1) ^ part1_mask
    allowed = [part1_mask] * pattern.part1_count + [part2_mask] * pattern.part2_count
    return _count_maps(_compile(to_part_oriented(pattern)),
                       *_masks(to_part_oriented(host)), allowed)


def t_bip(pattern: BipartiteGraph, host: BipartiteGraph) -> Fraction:
    """Part-respecting homomorphism density: divides by |U1|^|A1| * |U2|^|A2|."""
    if host.part1_count == 0 or host.part2_count == 0:
        raise ValueError("empty host part has no density")
    denom = host.part1_count ** pattern.part1_count * host.part2_count ** pattern.part2_count
    return Fraction(hom_count_bip(pattern, host), denom)
