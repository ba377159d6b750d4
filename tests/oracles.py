"""Independent brute-force oracles for the test suite.

Everything here enumerates the full search space directly (all vertex maps,
all subset pairs, all permutations), deliberately avoiding the library's
backtracking / incremental-sum implementations so the two sides can check
each other.  The ``reference_*`` functions instead restate one of the
library's algorithms in plain loops; they pin what the full space leaves
open, such as the witness chosen on ties or the order of float operations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import floor, lcm

import numpy as np

from digraphon import BipartiteGraph, OrientedGraph, StepGraphon, UndirectedGraph, w_lambda
from digraphon.stepgraphon import HEURISTIC_RESTARTS, _exact_bilinear_max, _mass_array


def brute_hom_directed(pattern: OrientedGraph, host: OrientedGraph) -> int:
    count = 0
    for f in product(range(host.vertex_count), repeat=pattern.vertex_count):
        if all((f[u], f[v]) in host.edges for u, v in pattern.edges):
            count += 1
    return count


def brute_copies_directed(pattern: OrientedGraph, host: OrientedGraph) -> int:
    count = 0
    for f in product(range(host.vertex_count), repeat=pattern.vertex_count):
        if len(set(f)) != pattern.vertex_count:
            continue
        if all((f[u], f[v]) in host.edges for u, v in pattern.edges):
            count += 1
    return count


def brute_hom_undirected(pattern: UndirectedGraph, host: UndirectedGraph) -> int:
    count = 0
    for f in product(range(host.vertex_count), repeat=pattern.vertex_count):
        if all(host.has_edge(f[u], f[v]) for u, v in pattern.edges):
            count += 1
    return count


def brute_hom_bip(pattern: BipartiteGraph, host: BipartiteGraph) -> int:
    count = 0
    for f1 in product(range(host.part1_count), repeat=pattern.part1_count):
        for f2 in product(range(host.part2_count), repeat=pattern.part2_count):
            if all((f1[i], f2[j]) in host.edges for i, j in pattern.edges):
                count += 1
    return count


def brute_t_step(pattern: OrientedGraph, w: StepGraphon) -> Fraction:
    """Direct rational sum over all part assignments (no integer-core trick)."""
    k = w.num_parts
    total = Fraction(0)
    for g in product(range(k), repeat=pattern.vertex_count):
        term = Fraction(1)
        for i in g:
            term *= w.part_lengths[i]
        for u, v in pattern.edges:
            term *= w.values[g[u]][g[v]]
        total += term
    return total


def brute_t_gradient(pattern: OrientedGraph, w: StepGraphon) -> dict[tuple[int, int], Fraction]:
    """Partial derivative of t(pattern, W) in every cell value W[a][b]: over
    all maps and all edges landing on the cell, the term without that edge."""
    k = w.num_parts
    edges = list(pattern.edges)
    grad = {(a, b): Fraction(0) for a in range(k) for b in range(k)}
    for g in product(range(k), repeat=pattern.vertex_count):
        weight = Fraction(1)
        for i in g:
            weight *= w.part_lengths[i]
        for skip, (u, v) in enumerate(edges):
            term = weight
            for other, (x, y) in enumerate(edges):
                if other != skip:
                    term *= w.values[g[x]][g[y]]
            grad[(g[u], g[v])] += term
    return grad


def reference_find_lambda0(pattern: OrientedGraph, precision: Fraction, grid: int
                           ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...],
                                      Fraction, Fraction]:
    """The grid-then-bisect rule of `find_lambda0`, with one `brute_t_step`
    on `w_lambda` per grid point and per bisection step.

    Returns (lambda_grid, densities, target, lambda0): the points i/grid,
    the density at each, (1/16)^e, and the first grid point that is a root,
    else the first bisection midpoint within ``precision`` of the target in
    the first bracket [i/grid, (i+1)/grid] whose ends differ in sign.
    """
    target = Fraction(1, 16) ** pattern.edge_count
    lambda_grid = tuple(Fraction(i, grid) for i in range(grid + 1))
    densities = tuple(brute_t_step(pattern, w_lambda(lam)) for lam in lambda_grid)
    for i, lam in enumerate(lambda_grid):
        f = densities[i] - target
        if f == 0:
            return lambda_grid, densities, target, lam
        if i < grid and (densities[i + 1] - target) * f < 0:
            lo, hi, f_lo = lam, lambda_grid[i + 1], f
            for _ in range(80 + floor(1 / precision).bit_length()):
                mid = (lo + hi) / 2
                f_mid = brute_t_step(pattern, w_lambda(mid)) - target
                if abs(f_mid) <= precision:
                    return lambda_grid, densities, target, mid
                if (f_mid < 0) == (f_lo < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            raise ArithmeticError("bisection failed to meet the precision")
    raise ValueError("no sign change bracketed on the grid")


def brute_t_bip_step(pattern: BipartiteGraph, w: StepGraphon) -> Fraction:
    k = w.num_parts
    total = Fraction(0)
    for gx in product(range(k), repeat=pattern.part1_count):
        for gy in product(range(k), repeat=pattern.part2_count):
            term = Fraction(1)
            for i in gx:
                term *= w.part_lengths[i]
            for j in gy:
                term *= w.part_lengths[j]
            for i, j in pattern.edges:
                term *= w.values[gx[i]][gy[j]]
            total += term
    return total


def reference_integral(w: StepGraphon) -> Fraction:
    """The mean of W as a plain sum of rational cell masses."""
    total = Fraction(0)
    for i, li in enumerate(w.part_lengths):
        for j, lj in enumerate(w.part_lengths):
            total += w.values[i][j] * li * lj
    return total


def reference_rectangle_integral(w: StepGraphon, parts_s, parts_t, center) -> Fraction:
    """The integral of (W - center) over S x T as a plain rational sum."""
    total = Fraction(0)
    for i in parts_s:
        for j in parts_t:
            total += (w.values[i][j] - center) * w.part_lengths[i] * w.part_lengths[j]
    return total


def reference_cut_distance_upper(w: StepGraphon, u: StepGraphon) -> Fraction:
    """min over permutations pi of ||W - U^pi||_cut on the common equal
    refinement, one permutation at a time: each difference of integer
    numerators goes through the single-matrix exact search (itself checked
    against `brute_bilinear_max`)."""
    def ends(g):
        return [sum(g.part_lengths[:i + 1], Fraction(0)) for i in range(g.num_parts)]

    parts = lcm(*(x.denominator for x in ends(w) + ends(u)))

    def refined(g):
        bounds = ends(g)
        owner = [next(i for i, b in enumerate(bounds) if Fraction(2 * a + 1, 2 * parts) < b)
                 for a in range(parts)]
        return [[g.values[owner[a]][owner[b]] for b in range(parts)] for a in range(parts)]

    wv, uv = refined(w), refined(u)
    d = lcm(*(x.denominator for row in wv + uv for x in row))
    wn = [[int(x * d) for x in row] for row in wv]
    un = [[int(x * d) for x in row] for row in uv]
    best = None
    for perm in permutations(range(parts)):
        diff = [[wn[a][b] - un[perm[a]][perm[b]] for b in range(parts)] for a in range(parts)]
        value = Fraction(_exact_bilinear_max(_mass_array(diff))[0], d * parts ** 2)
        if best is None or value < best:
            best = value
    return best


def brute_cut_norm_centered(w: StepGraphon, center: Fraction) -> Fraction:
    """Full double enumeration over all 2^k x 2^k subset pairs."""
    lengths = w.part_lengths
    return brute_bilinear_max([[(x - center) * li * lj for x, lj in zip(row, lengths)]
                               for row, li in zip(w.values, lengths)])


def brute_bilinear_max(mass) -> Fraction:
    """Max |sum over S x T| for an arbitrary signed rational matrix, over
    all subset pairs, summed as integer numerators over one denominator."""
    k = len(mass)
    d = lcm(*(Fraction(x).denominator for row in mass for x in row))
    num = [[int(Fraction(x) * d) for x in row] for row in mass]
    best = 0
    for s_mask in range(1 << k):
        rows = [num[i] for i in range(k) if (s_mask >> i) & 1]
        for t_mask in range(1 << k):
            total = sum(row[j] for row in rows for j in range(k) if (t_mask >> j) & 1)
            best = max(best, abs(total))
    return Fraction(best, d)


def rectangle_sum(mass: list[list[int]], s_mask: int, t_mask: int) -> int:
    """Sum of ``mass`` over the rows in ``s_mask`` and columns in ``t_mask``."""
    k = len(mass)
    return sum(mass[i][j] for i in range(k) if (s_mask >> i) & 1
               for j in range(k) if (t_mask >> j) & 1)


def reference_bilinear_max(mass: list[list[int]]) -> tuple[int, int, int]:
    """(value, S mask, T mask) of the exact cut-norm search, one subset at a
    time in Python integers.  This fixes the witness on ties: S runs
    through Gray-code order with its column sums updated by one row per
    step, and a strict ``>`` keeps the first maximum, the positive side
    before the negative one at the same S."""
    k = len(mass)
    best = best_s = best_t = 0
    col = [0] * k
    prev = 0
    for i in range(1, 1 << k):
        gray = i ^ (i >> 1)
        bit = gray ^ prev
        prev = gray
        mrow = mass[bit.bit_length() - 1]
        sign = 1 if gray & bit else -1
        for j in range(k):
            col[j] += sign * mrow[j]
        pos = sum(c for c in col if c > 0)
        neg = -sum(c for c in col if c < 0)
        if pos > best:
            best, best_s = pos, gray
            best_t = sum(1 << j for j in range(k) if col[j] > 0)
        if neg > best:
            best, best_s = neg, gray
            best_t = sum(1 << j for j in range(k) if col[j] < 0)
    return best, best_s, best_t


def reference_heuristic_bilinear_max(mass: list[list[int]], seed: int
                                     ) -> tuple[int, int, int]:
    """(value, S mask, T mask) of the heuristic cut-norm search with plain
    loops: per restart one ``getrandbits(k)`` start, then for each sign
    alternate T = columns whose S-sums have that sign, S = rows whose
    T-sums do (strict ``> 0``), until S repeats or 4k + 4 steps ran; a
    strict ``>`` keeps the first best rectangle."""
    k = len(mass)
    rng = random.Random(seed)
    best = best_s = best_t = 0
    for _ in range(HEURISTIC_RESTARTS):
        start = rng.getrandbits(k)
        for sign in (1, -1):
            s_mask = start
            t_mask = 0
            for _ in range(4 * k + 4):
                col = [sum(mass[i][j] for i in range(k) if (s_mask >> i) & 1)
                       for j in range(k)]
                t_mask = sum(1 << j for j in range(k) if sign * col[j] > 0)
                row = [sum(mass[i][j] for j in range(k) if (t_mask >> j) & 1)
                       for i in range(k)]
                new_s = sum(1 << i for i in range(k) if sign * row[i] > 0)
                if new_s == s_mask:
                    break
                s_mask = new_s
            val = abs(rectangle_sum(mass, s_mask, t_mask))
            if val > best:
                best, best_s, best_t = val, s_mask, t_mask
    return best, best_s, best_t


def reference_float_t_and_grad(pattern: OrientedGraph,
                                x: np.ndarray) -> tuple[float, np.ndarray]:
    """The witness search's float density and gradient on equal parts,
    as the plain cumulative-product formula over a (maps, edges) table.

    This fixes the floating-point operations of the fast kernel: the left
    and right products of every map accumulate edge by edge, t is the sum of
    the maps' full products, and each cell's gradient adds the products
    around its edges map by map, edge by edge.
    """
    k = x.shape[0]
    edges = pattern.sorted_edges()
    rows, cols = [], []
    for g in product(range(k), repeat=pattern.vertex_count):
        rows.append([g[u] for u, _ in edges])
        cols.append([g[v] for _, v in edges])
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    scale = 1.0 / k ** pattern.vertex_count
    vals = x[rows, cols]
    pre = np.ones_like(vals)
    suf = np.ones_like(vals)
    if vals.shape[1] > 1:
        pre[:, 1:] = np.cumprod(vals[:, :-1], axis=1)
        suf[:, :-1] = np.cumprod(vals[:, :0:-1], axis=1)[:, ::-1]
    t = float(vals.prod(axis=1).sum()) * scale
    grad = np.bincount((rows * k + cols).ravel(), weights=(pre * suf).ravel(),
                       minlength=k * k).reshape(k, k)
    return t, grad * scale


def are_isomorphic(a: OrientedGraph, b: OrientedGraph) -> bool:
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False
    n = a.vertex_count
    for perm in permutations(range(n)):
        if all((perm[u], perm[v]) in b.edges for u, v in a.edges):
            return True
    return False


def iso_class_count(graphs: list[OrientedGraph]) -> int:
    reps: list[OrientedGraph] = []
    for g in graphs:
        if not any(are_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def brute_index_edges(n: int, index: int, tournament: bool = False) -> list[tuple[int, int]]:
    """Sorted edges of labeled host ``index`` on n vertices, read one digit
    per vertex pair in lexicographic order, lowest digit first.  Oriented
    hosts use base 3 (0 absent, 1 forward u->v, 2 backward v->u) and
    tournaments base 2 (0 forward, 1 backward)."""
    base = 2 if tournament else 3
    edges = []
    for u, v in combinations(range(n), 2):
        index, digit = divmod(index, base)
        if tournament:
            digit += 1
        if digit == 1:
            edges.append((u, v))
        elif digit == 2:
            edges.append((v, u))
    return sorted(edges)


def min_boundary_order(v: int, edges) -> list[int]:
    """The density sum's former placement order, a greedy minimum-boundary
    order: each next vertex x minimises (the placed vertices, x included,
    with a neighbour still unplaced; minus x's placed neighbours; x)."""
    adj = [{b for a, b in edges if a == x} | {a for a, b in edges if b == x} for x in range(v)]
    order: list[int] = []
    while len(order) < v:
        def rank(x):
            now = set(order) | {x}
            return sum(1 for y in now if not adj[y] <= now), -len(adj[x] & set(order)), x
        order.append(min((x for x in range(v) if x not in order), key=rank))
    return order


def table_credited_cost(v: int, edges, order, k: int) -> int:
    """The steps a density-sum kernel runs along ``order`` at k parts, with
    no memo hit: sum over positions of k^(|key| + 1), where the key is the
    earlier vertices with a neighbour at this position or later, and
    k^|key| at a position with one or two back edges that reads a table
    instead of looping: one whose later neighbours, if it has any, are
    leaves (vertices of one neighbour) right after it.  Its table takes
    those leaves in, and they run no step."""
    pos = {x: i for i, x in enumerate(order)}
    adj = [{b for a, b in edges if a == x} | {a for a, b in edges if b == x} for x in range(v)]
    total, taken = 0, set()
    for i, x in enumerate(order):
        if x in taken:
            continue
        key = {a if pos[a] < i else b for a, b in edges
               if min(pos[a], pos[b]) < i <= max(pos[a], pos[b])}
        back = sum(1 for y in adj[x] if pos[y] < i)
        later = sorted(pos[y] for y in adj[x] if pos[y] > i)
        reads = 1 <= back <= 2 and later == list(range(i + 1, i + 1 + len(later))) \
            and all(len(adj[order[j]]) == 1 for j in later)
        if reads:
            taken.update(order[j] for j in later)
        total += k ** (len(key) + 1 - reads)
    return total
