"""Step graphons: piecewise-constant [0,1]^2 -> [0,1] functions on a common
interval partition, with exact density functionals and cut norms.

All arithmetic is rational.  Every density, mean and rectangle integral
is a sum of integer numerators over one common denominator, reduced once.
A density sums over the maps of pattern vertices to parts.  It places
vertices in a cached order of its own (`_sum_order`) and prunes at zero
cell values.  It caches suffix sums: the sum over the vertices from
position i of the order on depends only on the images of position i's
key, the earlier vertices with an edge to position i or later.  So each
suffix sum is computed once per image of its key, and the work is at most
sum_i (#parts)^(|key_i| + 1) steps instead of (#parts)^v(pattern).  Each
memo is read by the caller before it recurses, so a hit costs no call.  A
position that no later key holds is detached: its factor is summed over
its parts first and the next suffix sum multiplied in once.  Every other
position is in the next key, as its last entry, so that memo keeps one
row of #parts suffix sums per image of the rest of the key: the caller
fetches the row once and reads its parts' entries by index.  The order
places next the vertex that keeps the next key smallest, so a path costs
about (#parts)^2 steps per vertex.  The hom counters in `counting` keep an
order chosen for pruning instead.  The keys are computed once per pattern
(`_sum_plan`).  The value tables depend on W alone
(`_value_tables`): a density builds them once per graphon form and keeps
the last form's, so the two densities of a margin bridge share them; a
caller that passes plain cell lists, which it may change between sums,
gets new tables every call.  Only the memo is built per call of the sum.
A position's first back edge selects a table row of nonzero (part,
weight * value) pairs, parts of weight 0 left out; its loop is chosen by
its number of further back edges: none (each entry goes straight to the
memo), one (its value row is read once per call and multiplied in), or
two and more (a loop over their rows).
The sum returns totals only.  Besides the densities here it gives
`forcing` its exact residuals; the witness polish ranks its moves by the
float kernel's gradient, so no gradient is summed exactly.
A graphon builds its integer form once, when it is constructed: its part
lengths over their least common denominator and its values over theirs.
The densities, the mean, the cut norms and the cut-distance bound read W
through it.  The exact cut norms and the cut-distance bound share one
Gray-block subset search over a stack of integer matrices
(`_exact_bilinear_maxes`).
"""

from __future__ import annotations

import random
import warnings
from bisect import bisect_right
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, permutations
from math import floor, lcm
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .counting import _PLAN_CACHE_SIZE, _back_edges, _neighbours
from .graphs import BipartiteGraph, OrientedGraph, to_part_oriented

TERM_WARNING_THRESHOLD = 10**7
EXACT_CUT_NORM_CAP = 20
HEURISTIC_RESTARTS = 32
CUT_DISTANCE_PART_CAP = 7
# `_mass_array` holds a cut-norm mass in int64 below _INT64_EXACT_BOUND.
# The exact search takes _GRAY_BLOCK subsets per numpy step: small blocks
# keep each temporary array near 28 KiB at 14 parts; blocks of 1024 save
# about 2 ms per 14-part norm but leave about 0.25 MiB more in the
# process's peak RSS.  `cut_distance_upper` stacks as many permuted
# matrices per search as keep each temporary near _STACK_BYTES.
_INT64_EXACT_BOUND = 2**62
_GRAY_BLOCK = 256
_STACK_BYTES = 2**20

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class StepGraphon:
    """Square step function on an interval partition of [0,1].

    ``values[i][j]`` is the value on the rectangle I_i x I_j (first index is
    the x coordinate).  Part lengths are positive rationals summing to 1 and
    all values lie in [0,1].  The constructor checks both on the integer
    form it keeps in ``_form``, which is not a field: (the lengths over
    their least common denominator, that denominator, the values over
    theirs, that denominator).
    """

    part_lengths: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __init__(self, part_lengths: Sequence, values: Sequence[Sequence]):
        lengths = tuple(_as_fraction(x) for x in part_lengths)
        matrix = tuple(tuple(_as_fraction(x) for x in row) for row in values)
        object.__setattr__(self, "part_lengths", lengths)
        object.__setattr__(self, "values", matrix)
        if not lengths:
            raise ValueError("a step graphon needs at least one part")
        (lnum,), dl = _numerators([lengths])
        if any(l <= 0 for l in lnum):
            raise ValueError("part lengths must be positive")
        if sum(lnum) != dl:
            raise ValueError("part lengths must sum to exactly 1")
        k = len(lengths)
        if len(matrix) != k or any(len(row) != k for row in matrix):
            raise ValueError("values must be a square matrix matching the parts")
        vnum, dv = _numerators(matrix)
        for row, nums in zip(matrix, vnum):
            for x, n in zip(row, nums):
                if not 0 <= n <= dv:
                    raise ValueError(f"value {x} outside [0,1]")
        object.__setattr__(self, "_form", (tuple(lnum), dl, tuple(map(tuple, vnum)), dv))

    @classmethod
    def constant(cls, p, parts: int = 1) -> "StepGraphon":
        if parts < 1:
            raise ValueError(f"parts must be at least 1, got {parts}")
        p = _as_fraction(p)
        lengths = [Fraction(1, parts)] * parts
        return cls(lengths, [[p] * parts for _ in range(parts)])

    @property
    def num_parts(self) -> int:
        return len(self.part_lengths)

    def integral(self) -> Fraction:
        """The mean of the graphon (its single-edge density)."""
        mass, denom = _signed_numerators(self, _ZERO)
        return Fraction(sum(map(sum, mass)), denom)

    def scale(self, c) -> "StepGraphon":
        """Pointwise multiply by c in [0,1]."""
        c = _as_fraction(c)
        if not 0 <= c <= 1:
            raise ValueError("scale factor must lie in [0,1]")
        return StepGraphon(self.part_lengths,
                           [[x * c for x in row] for row in self.values])


def from_oriented(graph: OrientedGraph) -> StepGraphon:
    """Edge-indicator step graphon on v(G) equal parts."""
    n = graph.vertex_count
    if n == 0:
        raise ValueError("empty graph has no step graphon")
    values = [[_ONE if (i, j) in graph.edges else _ZERO for j in range(n)]
              for i in range(n)]
    return StepGraphon([Fraction(1, n)] * n, values)


def from_bipartite(graph: BipartiteGraph) -> StepGraphon:
    """Bipartite edge-indicator graphon, stored as a square step function.

    Rows follow the part-1 equipartition (n blocks) and columns the part-2
    equipartition (m blocks); the result lives on the common refinement of
    the two partitions so that one square representation serves both.
    """
    n, m = graph.part1_count, graph.part2_count
    if n == 0 or m == 0:
        raise ValueError("both parts must be nonempty")
    cuts = sorted(set(Fraction(i, n) for i in range(1, n + 1))
                  | set(Fraction(j, m) for j in range(1, m + 1)))
    # Each segment lies in one block of each equipartition: its left end's.
    lengths, row_block, col_block = [], [], []
    lo = _ZERO
    for hi in cuts:
        lengths.append(hi - lo)
        row_block.append(floor(lo * n))
        col_block.append(floor(lo * m))
        lo = hi
    k = len(lengths)
    values = [[_ONE if (row_block[a], col_block[b]) in graph.edges else _ZERO
               for b in range(k)] for a in range(k)]
    return StepGraphon(lengths, values)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def _numerators(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer numerators of a rational matrix over its least common
    denominator, and that denominator."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


# True while a caller that has already warned of its large sums runs them.
_WARNED = ContextVar("_WARNED", default=False)


def _warn_if_large(terms: int, stacklevel: int = 4) -> bool:
    """Warn, ``stacklevel`` frames up, that a density sum prices at
    ``terms`` steps when that is above the threshold, unless a caller has
    already warned of it (`_WARNED`); return whether it is above."""
    large = terms > TERM_WARNING_THRESHOLD
    if large and not _WARNED.get():
        warnings.warn(
            f"density sum has {terms} terms; expect a long exact computation",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    return large


def _priced_terms(pattern: OrientedGraph, k: int) -> int:
    """The work bound of `_map_sum` for ``pattern`` on k parts,
    sum_i k^(|key_i| + 1), not the k^v maps it sums over, where it can be
    above the warning threshold, and 0 elsewhere.  Every key i holds at
    most i < v positions, so the bound is at most v * k^v, and below the
    threshold the plan is not priced."""
    v = pattern.vertex_count
    if v * k ** v <= TERM_WARNING_THRESHOLD:
        return 0
    keys = _sum_plan(v, tuple(pattern.sorted_edges()))[1]
    return sum(k ** (len(key) + 1) for key in keys)


def _sum_order(v: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """The density sum's placement order of the vertices 0..v-1, a greedy
    minimum-boundary order.

    Each next vertex x minimises (the number of placed vertices, x
    included, with a neighbour still unplaced once x is placed; minus the
    number of x's neighbours already placed; x).  The first term is the
    size of the next position's key, so the order keeps the priced work
    sum_i k^(|key_i| + 1) small: a path keeps one earlier vertex in every
    key.  The second prefers vertices whose back edges prune at zero
    values.  It costs O(v^3) set operations, once per cached plan.
    """
    adj = _neighbours(v, edges)
    order: list[int] = []
    placed: set[int] = set()
    rest = list(range(v))

    def rank(x: int) -> tuple[int, int, int]:
        now = placed | {x}
        return sum(1 for y in now if not adj[y] <= now), -len(adj[x] & placed), x

    while rest:
        best = min(rest, key=rank)
        order.append(best)
        placed.add(best)
        rest.remove(best)
    return order


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _sum_plan(v: int, edges: tuple[tuple[int, int], ...]
              ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[int, ...], ...],
                         tuple[Optional[Callable], ...], tuple[bool, ...],
                         tuple[Optional[Callable], ...]]:
    """The back edges of `_sum_order`, the key of every position, the
    getter of its key's images where `_map_sum` memoises, whether each
    position is detached, and the getter of its key prefix's images where
    `_map_sum` keeps memo rows.

    The key of position i holds the earlier positions with an edge to
    position i or later: the sum over the images of positions i..v-1
    depends on the earlier images only through them.  A position whose key
    is every earlier position gets no getter, as no key can repeat there;
    nor does a position whose key equals that of the detached position
    before it, as every call of that position brings a new image of the
    key.
    A position is detached when the next key does not hold it (the last
    position always is): no later factor reads its image, so its factor
    summed over its parts multiplies the next suffix sum once.  Otherwise
    the next position is attached: its key ends with this position, and
    its prefix is that key without its last entry (it gets a prefix getter
    only where it has a getter).  Callers pass ``edges`` sorted so that
    equal patterns share a cache entry.
    """
    back = _back_edges(_sum_order(v, edges), edges)
    reach = list(range(v))  # the latest position each position has an edge to
    for i, bk in enumerate(back):
        for j, _ in bk:
            reach[j] = i
    keys = tuple(tuple(j for j in range(i) if reach[j] >= i) for i in range(v))
    detached = tuple(reach[i] == i for i in range(v))
    getters = tuple(_images(key) if len(key) < i and not (detached[i - 1] and key == keys[i - 1])
                    else None for i, key in enumerate(keys))
    prefixes = tuple(_images(key[:-1]) if getter and not detached[i - 1] else None
                     for i, (key, getter) in enumerate(zip(keys, getters)))
    return back, keys, getters, detached, prefixes


def _images(key: tuple[int, ...]) -> Callable:
    """A getter of the images of ``key``'s positions: a tuple, a single
    image for a one-entry key, and () for the empty key."""
    return itemgetter(*key) if key else _no_key


def _no_key(img: Sequence[int]) -> tuple[()]:
    return ()


def _value_tables(weights: Sequence[int], values: Sequence[Sequence[int]]
                  ) -> tuple[tuple, list, list[tuple[int, int]]]:
    """The tables `_map_sum` reads, which depend on the weights and values
    alone: the value matrix and its transpose, each matrix's table rows of
    nonzero (part, weight * value) pairs, and the (part, weight) pairs of
    the first position.  Parts of weight 0 are left out of every table."""
    # An edge is checked when its later endpoint is placed: it reads the
    # value matrix at (earlier image, new image), or the transpose there.
    matrices = (values, [list(col) for col in zip(*values)])
    parts = [c for c in range(len(weights)) if weights[c]]
    tables = [[[(c, weights[c] * row[c]) for c in parts if row[c]] for row in m]
              for m in matrices]
    return matrices, tables, [(c, weights[c]) for c in parts]


@lru_cache(maxsize=1)
def _form_tables(form: tuple) -> tuple:
    """`_value_tables` of a graphon's integer form.  The last form's are
    kept: the two densities of a margin bridge read the same W one after
    the other."""
    lnum, _, vnum, _ = form
    return _value_tables(lnum, vnum)


def _map_sum(v: int, edges: Sequence[tuple[int, int]], weights: Sequence[int],
             values: Sequence[Sequence[int]], plan: Optional[tuple] = None,
             tables: Optional[tuple] = None) -> int:
    """Sum, over all maps g of the vertices 0..v-1 to parts, of
    prod_x weights[g(x)] * prod_{(a,b) in edges} values[g(a)][g(b)].

    Variable elimination along the pattern's cached order
    (`_sum_order`): a depth-first search places one vertex at a time,
    multiplies in its part weight and the values of its edges back to
    placed vertices, and drops a branch at its first zero factor.  The sum
    over the positions i..v-1 depends only on the images of position i's
    key (`_sum_plan`), so it is memoised per call on them.  An attached
    position's key ends with the position before it, so its memo keeps one
    row of k suffix sums per image of the key's prefix, indexed by that
    last image: the caller fetches the row once and reads each part's
    entry before it recurses, and sets the new image only on a miss.  A
    detached position, one whose image no later factor reads, sums its
    factor over its parts first and multiplies the next suffix sum in
    once, or not at all when that factor sums to 0.  Each position runs
    one of three loops, attached or detached, by its back edges beyond
    the first: with none it reads its table's entries as they are, with
    one it multiplies in that edge's value row, fetched once per call,
    and with two or more it multiplies in each of their rows and stops at
    the first 0.  Parts of weight 0 are left out of every table, so no
    loop places them.  With k parts the work is at most
    sum_i k^(|key_i| + 1) steps rather than k^v.  ``plan`` is `_sum_plan`
    of the sorted edges and ``tables`` is `_value_tables` of the weights
    and values, for a caller that already holds them; only the memo is
    built on every call.
    """
    if v == 0:
        return 1
    if plan is None:
        plan = _sum_plan(v, tuple(sorted(edges)))
    back, _, getters, detached, prefixes = plan
    # The first back edge of a position selects a table row; the other
    # back edges, its extra rows, multiply in.
    matrices, tables, first = tables or _value_tables(weights, values)
    k = len(weights)
    last = v - 1
    memos: list[dict] = [{} for _ in range(v)]
    # Per position: its first back edge's earlier position and table, its
    # count of extra rows (0, 1, or 2 for two or more) and their (earlier
    # position, matrix) pairs (the pair itself when there is one), whether
    # it is detached, and the next position's memo, getter and prefix
    # getter.
    steps = []
    for i, (bk, det) in enumerate(zip(back, detached)):
        if bk:
            j0, table = bk[0][0], tables[bk[0][1]]
        else:
            j0, table = -1, first
        rest = [(j, matrices[t]) for j, t in bk[1:]]
        extra = min(len(rest), 2)
        nxt = (memos[i + 1], getters[i + 1], prefixes[i + 1]) if i < last else (None, None, None)
        steps.append((j0, table, extra, rest[0] if extra == 1 else rest, det) + nxt)
    img = [0] * v

    def suffix(i: int) -> int:
        """The sum over the images of positions i..v-1, given the earlier
        images in ``img``."""
        j0, table, extra, rest, alone, memo, getter, prefix = steps[i]
        entries = table[img[j0]] if j0 >= 0 else table
        total = 0
        if alone:
            if not extra:
                for _, f in entries:
                    total += f
            elif extra == 1:
                r1 = rest[1][img[rest[0]]]
                for c, f in entries:
                    total += f * r1[c]
            else:
                rows = [mat[img[j]] for j, mat in rest]
                for c, f in entries:
                    for row in rows:
                        f *= row[c]
                        if not f:
                            break
                    total += f
            if not total or i == last:
                return total
            # The next suffix sum, through its memo where it has a getter.
            if getter is None:
                return total * suffix(i + 1)
            key = getter(img)
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = suffix(i + 1)
            return total * sub
        # Position i + 1's memo row for the earlier images; a position
        # whose key is every earlier one gets a fresh row, as no key
        # repeats there.
        if prefix is None:
            subs = [None] * k
        else:
            pre = prefix(img)
            subs = memo.get(pre)
            if subs is None:
                subs = memo[pre] = [None] * k
        if not extra:
            for c, f in entries:
                sub = subs[c]
                if sub is None:
                    img[i] = c
                    sub = subs[c] = suffix(i + 1)
                total += f * sub
            return total
        if extra == 1:
            r1 = rest[1][img[rest[0]]]
            for c, f in entries:
                f *= r1[c]
                if f:
                    sub = subs[c]
                    if sub is None:
                        img[i] = c
                        sub = subs[c] = suffix(i + 1)
                    total += f * sub
            return total
        rows = [mat[img[j]] for j, mat in rest]
        for c, f in entries:
            for row in rows:
                f *= row[c]
                if not f:
                    break
            if f:
                sub = subs[c]
                if sub is None:
                    img[i] = c
                    sub = subs[c] = suffix(i + 1)
                total += f * sub
        return total

    try:
        return suffix(0)
    finally:
        # suffix refers to itself; unbinding it breaks that cycle, so the
        # tables and memos go as soon as the call returns instead of
        # waiting for the cyclic garbage collector.
        del suffix


def _density(pattern: OrientedGraph, w: StepGraphon) -> Fraction:
    _warn_if_large(_priced_terms(pattern, w.num_parts))
    v, edges = pattern.vertex_count, pattern.sorted_edges()
    lnum, dl, vnum, dv = form = w._form
    total = _map_sum(v, edges, lnum, vnum, _sum_plan(v, tuple(edges)), _form_tables(form))
    return Fraction(total, dl ** v * dv ** pattern.edge_count)


def t_step(pattern: OrientedGraph, w: StepGraphon) -> Fraction:
    """Density of an oriented pattern in a step graphon.

    Sums, over all maps g of pattern vertices to parts, the product of the
    part lengths of the images times the product of W over the edge cells.
    """
    return _density(pattern, w)


def t_bip_step(pattern: BipartiteGraph, w: StepGraphon) -> Fraction:
    """Bipartite density of a two-part pattern in a step graphon.

    Part-1 vertices pick x-coordinate parts and part-2 vertices pick
    y-coordinate parts; each edge (i,j) contributes the value of W at the
    cell (image of i, image of j).  That is the density of the pattern with
    every edge directed from part 1 to part 2.
    """
    return _density(_part_oriented(pattern), w)


# The part-oriented form of each bipartite pattern, built and validated once
# and shared by `t_bip_step` and the margin bridge.
_part_oriented = lru_cache(maxsize=_PLAN_CACHE_SIZE)(to_part_oriented)


# ---------------------------------------------------------------------------
# Cut norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutNormResult:
    """Cut-norm value with the part subsets that realize it.

    ``exact`` marks a proven supremum (full subset maximization); heuristic
    results still report the exact rectangle integral of their witness, so
    the value is always a valid lower bound.
    """

    value: Fraction
    witness_s: tuple[int, ...]
    witness_t: tuple[int, ...]
    exact: bool


def _mask_to_parts(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _mass_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """An integer matrix as a numpy array: ``int64`` while its absolute
    entries sum to less than 2^62, a bound on every subset sum of it, and
    Python integers (``dtype=object``) from there up."""
    small = sum(abs(x) for row in rows for x in row) < _INT64_EXACT_BOUND
    return np.array(rows, dtype=np.int64 if small else object)


def _exact_bilinear_maxes(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize |sum_{i in S, j in T} m[i, j]| over subsets S, T, for each
    matrix m of a stack ``ms`` of shape (matrices, k, k).  Returns, per
    matrix, the maximum and the first Gray rank of S that reaches it (0,
    the empty S, when the maximum is 0).

    For a fixed S the optimal T keeps exactly the columns whose S-restricted
    sums share a sign, so it suffices to enumerate S and read off both
    signed optima.  S runs through Gray-code order.  Gray rank r adds or
    removes row ctz(r), the number of trailing zero bits of r, so the column
    sums of a block of ``_GRAY_BLOCK`` ranks are the previous block's last
    sums plus a running sum of signed rows: k additions per subset and
    matrix, in the number type of ``ms``.  Every temporary holds at most
    matrices x block x k numbers.
    """
    n, k = ms.shape[:2]
    signed = np.concatenate([ms, -ms], axis=1)  # row k + i removes row i
    carry = signed[:, 0] * 0
    every = np.arange(n)
    starts = np.arange(1, 1 << k, _GRAY_BLOCK)
    # Per matrix and block, the block's maximum and its first rank.
    tops = np.empty((n, len(starts)), dtype=ms.dtype)
    top_ranks = np.empty((n, len(starts)), dtype=np.int64)
    for b, start in enumerate(starts.tolist()):
        ranks = np.arange(start, min(start + _GRAY_BLOCK, 1 << k), dtype=np.int64)
        row = np.frexp(ranks & -ranks)[1] - 1
        # Row ctz(r) leaves the Gray code of r when bit ctz(r) + 1 of r is set.
        cols = np.cumsum(signed[:, row + k * (ranks >> (row + 1) & 1)], axis=1)
        cols += carry[:, None]
        carry = cols[:, -1]
        pos = np.maximum(cols, 0).sum(axis=2)
        top = np.maximum(pos, pos - cols.sum(axis=2))
        top_ranks[:, b] = i = top.argmax(axis=1)
        tops[:, b] = top[every, i]
    # The first block that holds a matrix's maximum holds its first maximal rank.
    block = tops.argmax(axis=1)
    best = tops[every, block]
    return best, np.where(best > 0, starts[block] + top_ranks[every, block], 0)


def _exact_bilinear_max(m: np.ndarray) -> tuple[int, int, int]:
    """`_exact_bilinear_maxes` on the single matrix ``m``, with its S and T
    masks: S at the first maximal Gray rank, and T the columns whose
    S-sums are positive when that side reaches the maximum, else the
    negative ones."""
    (best,), (rank,) = _exact_bilinear_maxes(m[None])
    s_mask = int(rank ^ rank >> 1)
    cols = m[[i for i in range(len(m)) if s_mask >> i & 1]].sum(axis=0)
    if np.maximum(cols, 0).sum() != best:
        cols = -cols
    return int(best), s_mask, _bool_mask(cols > 0)


def _bool_mask(flags: np.ndarray) -> int:
    return sum(1 << j for j, f in enumerate(flags.tolist()) if f)


def _heuristic_bilinear_max(m: np.ndarray, seed: int) -> tuple[int, int, int]:
    """Alternating sign-greedy improvement from seeded random subsets: for
    each side's sign, T takes the columns whose S-sums have that sign and S
    the rows whose T-sums do, until S repeats or 4k + 4 steps have run."""
    k = len(m)
    rng = random.Random(seed)
    best = best_s = best_t = 0
    for _ in range(HEURISTIC_RESTARTS):
        start = rng.getrandbits(k)
        for sign in (1, -1):
            s = np.array([start >> i & 1 for i in range(k)], dtype=bool)
            for _ in range(4 * k + 4):
                t = sign * (s @ m) > 0
                new_s = sign * (m @ t) > 0
                if (new_s == s).all():
                    break
                s = new_s
            val = abs(int(s @ m @ t))
            if val > best:
                best, best_s, best_t = val, _bool_mask(s), _bool_mask(t)
    return best, best_s, best_t


def _signed_numerators(w: StepGraphon, center: Fraction) -> tuple[list[list[int]], int]:
    """Integer numerators of (W - center) * length_i * length_j over one
    common positive denominator, and that denominator."""
    lnum, dl, vnum, dv = w._form
    d = lcm(dv, center.denominator)
    scale, cnum = d // dv, center.numerator * (d // center.denominator)
    mass = [[(x * scale - cnum) * li * lj for x, lj in zip(row, lnum)]
            for row, li in zip(vnum, lnum)]
    return mass, d * dl * dl


def _signed_mass(w: StepGraphon, center: Fraction) -> tuple[np.ndarray, int]:
    """`_signed_numerators` as a `_mass_array`, and their denominator."""
    mass, denom = _signed_numerators(w, center)
    return _mass_array(mass), denom


def _cut_norm_impl(w: StepGraphon, center: Fraction, heuristic: bool,
                   seed: int) -> CutNormResult:
    if not heuristic and w.num_parts > EXACT_CUT_NORM_CAP:
        raise ValueError(
            f"exact cut norm is capped at {EXACT_CUT_NORM_CAP} parts "
            f"(got {w.num_parts}); pass heuristic=True (--heuristic on the "
            f"command line)")
    mass, denom = _signed_mass(w, center)
    if heuristic:
        num, s_mask, t_mask = _heuristic_bilinear_max(mass, seed)
    else:
        num, s_mask, t_mask = _exact_bilinear_max(mass)
    return CutNormResult(Fraction(num, denom), _mask_to_parts(s_mask),
                         _mask_to_parts(t_mask), exact=not heuristic)


def cut_norm(w: StepGraphon, *, heuristic: bool = False, seed: int = 0) -> CutNormResult:
    """Cut norm: sup over rectangles S x T of |integral of W over S x T|.

    For step functions the supremum is attained on unions of parts, so exact
    mode enumerates part subsets, up to ``EXACT_CUT_NORM_CAP`` parts; beyond
    that only ``heuristic=True`` runs.
    """
    return _cut_norm_impl(w, _ZERO, heuristic, seed)


def cut_norm_centered(w: StepGraphon, p, *, heuristic: bool = False,
                      seed: int = 0) -> CutNormResult:
    """Cut norm of the signed step function W - p."""
    return _cut_norm_impl(w, _as_fraction(p), heuristic, seed)


def rectangle_integral(w: StepGraphon, parts_s: Iterable[int],
                       parts_t: Iterable[int], center=0) -> Fraction:
    """Integral of (W - center) over the union-of-parts rectangle S x T.

    S and T are sets of parts: a part listed twice counts once, and a part
    outside [0, k) raises ``ValueError``.
    """
    parts_s, parts_t = set(parts_s), set(parts_t)
    for i in parts_s | parts_t:
        if not 0 <= i < w.num_parts:
            raise ValueError(f"part {i} outside [0, {w.num_parts})")
    mass, denom = _signed_numerators(w, _as_fraction(center))
    return Fraction(sum(mass[i][j] for i in parts_s for j in parts_t), denom)


# ---------------------------------------------------------------------------
# Cut distance (permutation upper bound)
# ---------------------------------------------------------------------------

def cut_distance_upper(w: StepGraphon, u: StepGraphon) -> Fraction:
    """Upper bound on the cut distance: min over part permutations pi of
    ||W - U^pi||_cut on the common equal-length refinement.

    The true cut distance takes an infimum over all measure-preserving maps;
    permutations of equal parts are a measure-preserving subfamily, so this
    value dominates it.  On k refined parts the search costs up to
    k! * 2^k Gray-code steps (about 0.6 million at the cap
    ``CUT_DISTANCE_PART_CAP`` = 7, growing about 12x per extra part); a
    common refinement above the cap raises ``ValueError`` before any of
    that work.  The permuted differences go through the Gray-block kernel
    in stacks, and the search stops after the first stack that reaches 0.

    Both graphons are refined from their integer forms.  W's breakpoints,
    its cumulative length numerators over the length denominator dl, are
    multiples of 1/dl, and of no coarser 1/n: each length is a difference
    of two breakpoints, so its denominator would divide n.  Each equal part
    takes the values of the first part that ends beyond its start.
    """
    parts = lcm(w._form[1], u._form[1])
    if parts > CUT_DISTANCE_PART_CAP:
        raise ValueError(
            f"common refinement needs {parts} equal parts, above the cap "
            f"{CUT_DISTANCE_PART_CAP}")
    dv = lcm(w._form[3], u._form[3])
    num = []
    for lnum, dl, vnum, d in (w._form, u._form):
        ends = [c * parts // dl for c in accumulate(lnum)]
        owner = [bisect_right(ends, a) for a in range(parts)]
        num += [[vnum[i][j] * (dv // d) for j in owner] for i in owner]
    # The numerators are nonnegative, so W's and U's together bound the
    # absolute sum of every difference below.
    both = _mass_array(num)
    wn, un = both[:parts], both[parts:]
    # Each temporary of a search holds stack x block x parts numbers.
    stack = max(1, _STACK_BYTES // (8 * parts * min(_GRAY_BLOCK, 1 << parts)))
    perms = permutations(range(parts))
    best = None
    while batch := list(islice(perms, stack)):
        p = np.array(batch)
        values, _ = _exact_bilinear_maxes(wn - un[p[:, :, None], p[:, None, :]])
        low = values.min()
        if best is None or low < best:
            best = low
            if best == 0:
                break
    return Fraction(int(best), dv * parts * parts)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_graphon(parts: int, *, seed: Optional[int] = None,
                   rng: Optional[random.Random] = None,
                   denominator: int = 64) -> StepGraphon:
    """Seeded random step graphon on equal parts with values r/denominator."""
    if parts < 1:
        raise ValueError(f"parts must be at least 1, got {parts}")
    if denominator < 1:
        raise ValueError(f"denominator must be at least 1, got {denominator}")
    if rng is None:
        rng = random.Random(seed)
    values = [[Fraction(rng.randint(0, denominator), denominator)
               for _ in range(parts)] for _ in range(parts)]
    return StepGraphon([Fraction(1, parts)] * parts, values)
