"""Exact homomorphism and labeled-copy counting.

Counts are plain Python integers (arbitrary precision); densities are
`fractions.Fraction`, so every equality downstream can be asserted exactly.
The search core is a masked backtracking over a fixed pattern-vertex
ordering: descending degree with connectivity-first tie-breaking by index,
which prunes early and is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import BipartiteGraph, OrientedGraph, UndirectedGraph


def _search_order(n: int, degree, adjacent) -> list[int]:
    """Order pattern vertices: vertices adjacent to the prefix first, then by
    descending degree, ties broken by smallest index."""
    order: list[int] = []
    placed: set[int] = set()
    while len(order) < n:
        frontier = [v for v in range(n) if v not in placed and any(w in placed for w in adjacent(v))]
        pool = frontier or [v for v in range(n) if v not in placed]
        best = max(pool, key=lambda v: (degree(v), -v))
        order.append(best)
        placed.add(best)
    return order


def _count_maps(
    order: list[int],
    constraints: list[list[tuple[int, int]]],
    allowed: list[int],
    masks: list[list[int]],
    injective: bool,
) -> int:
    """Count maps of the ordered pattern vertices into a masked host.

    ``constraints[i]`` lists ``(j, kind)`` pairs: the image of position ``i``
    must lie in ``masks[kind][image_of_position_j]``.  ``allowed[i]`` is the
    host-vertex bitmask position ``i`` may use at all.
    """
    n = len(order)
    if n == 0:
        return 1
    images = [0] * n
    last = n - 1

    def rec(i: int, used: int) -> int:
        cand = allowed[i]
        if injective:
            cand &= ~used
        for j, kind in constraints[i]:
            cand &= masks[kind][images[j]]
            if not cand:
                return 0
        if i == last:
            return cand.bit_count()
        total = 0
        m = cand
        while m:
            bit = m & -m
            m ^= bit
            w = bit.bit_length() - 1
            images[i] = w
            total += rec(i + 1, used | bit)
        return total

    return rec(0, 0)


def _oriented_masks(g: OrientedGraph) -> tuple[list[int], list[int]]:
    out_mask = [0] * g.vertex_count
    in_mask = [0] * g.vertex_count
    for u, v in g.edges:
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    return out_mask, in_mask


def _count_oriented(pattern: OrientedGraph, host: OrientedGraph, injective: bool) -> int:
    n = pattern.vertex_count
    adj = {v: pattern.out_neighbors(v) | pattern.in_neighbors(v) for v in range(n)}
    order = _search_order(n, pattern.degree, lambda v: adj[v])
    pos = {v: i for i, v in enumerate(order)}
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in pattern.edges:
        # kind 0: image must be an out-neighbor of the earlier image;
        # kind 1: an in-neighbor.
        if pos[u] < pos[v]:
            constraints[pos[v]].append((pos[u], 0))
        else:
            constraints[pos[u]].append((pos[v], 1))
    out_mask, in_mask = _oriented_masks(host)
    full = (1 << host.vertex_count) - 1
    return _count_maps(order, constraints, [full] * n, [out_mask, in_mask], injective)


def hom_count_directed(pattern: OrientedGraph, host: OrientedGraph) -> int:
    """Number of maps f with (x,y) an edge of the pattern implying
    (f(x),f(y)) an edge of the host."""
    return _count_oriented(pattern, host, injective=False)


def labeled_copies(pattern: OrientedGraph, host: OrientedGraph) -> int:
    """Injective edge-preserving maps (labeled copies of the pattern)."""
    if pattern.vertex_count > host.vertex_count:
        return 0
    return _count_oriented(pattern, host, injective=True)


def t_directed(pattern: OrientedGraph, host: OrientedGraph) -> Fraction:
    """Homomorphism density h(pattern, host) / v(host)^v(pattern)."""
    if host.vertex_count == 0:
        raise ValueError("empty host graph has no density")
    return Fraction(hom_count_directed(pattern, host),
                    host.vertex_count ** pattern.vertex_count)


def hom_count_undirected(pattern: UndirectedGraph, host: UndirectedGraph) -> int:
    n = pattern.vertex_count
    adj_mask = [0] * host.vertex_count
    for u, v in host.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    order = _search_order(n, pattern.degree, pattern.neighbors)
    pos = {v: i for i, v in enumerate(order)}
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in pattern.edges:
        i, j = pos[u], pos[v]
        constraints[max(i, j)].append((min(i, j), 0))
    full = (1 << host.vertex_count) - 1
    return _count_maps(order, constraints, [full] * n, [adj_mask], injective=False)


def t_undirected(pattern: UndirectedGraph, host: UndirectedGraph) -> Fraction:
    if host.vertex_count == 0:
        raise ValueError("empty host graph has no density")
    return Fraction(hom_count_undirected(pattern, host),
                    host.vertex_count ** pattern.vertex_count)


def hom_count_bip(pattern: BipartiteGraph, host: BipartiteGraph) -> int:
    """Part-respecting homomorphisms: part-1 vertices land in the host's
    part 1, part-2 vertices in part 2, edges on edges."""
    a1, a2 = pattern.part1_count, pattern.part2_count
    h1, h2 = host.part1_count, host.part2_count
    n = a1 + a2
    # Host vertices share one index space: part 1 first, then part 2.
    adj_mask = [0] * (h1 + h2)
    for i, j in host.edges:
        adj_mask[i] |= 1 << (h1 + j)
        adj_mask[h1 + j] |= 1 << i
    part1_mask = (1 << h1) - 1
    part2_mask = ((1 << (h1 + h2)) - 1) ^ part1_mask

    deg = [0] * n
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in pattern.edges:
        adj[i].add(a1 + j)
        adj[a1 + j].add(i)
        deg[i] += 1
        deg[a1 + j] += 1
    order = _search_order(n, lambda v: deg[v], lambda v: adj[v])
    pos = {v: i for i, v in enumerate(order)}
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j in pattern.edges:
        u, w = pos[i], pos[a1 + j]
        constraints[max(u, w)].append((min(u, w), 0))
    allowed = [part1_mask if order[i] < a1 else part2_mask for i in range(n)]
    return _count_maps(order, constraints, allowed, [adj_mask], injective=False)


def t_bip(pattern: BipartiteGraph, host: BipartiteGraph) -> Fraction:
    """Part-respecting homomorphism density: divides by |U1|^|A1| * |U2|^|A2|."""
    if host.part1_count == 0 or host.part2_count == 0:
        raise ValueError("empty host part has no density")
    denom = host.part1_count ** pattern.part1_count * host.part2_count ** pattern.part2_count
    return Fraction(hom_count_bip(pattern, host), denom)
