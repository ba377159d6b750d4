"""Step graphons: piecewise-constant [0,1]^2 -> [0,1] functions on a common
interval partition, with exact density functionals and cut norms.

All arithmetic is rational.  Every density, mean and rectangle integral
is a sum of integer numerators over one common denominator, reduced once.
A density sums over the maps of pattern vertices to parts along a cached
order of its own (`_sum_order`), pruning at zero cell values.  The sum
over positions i.. of the order depends only on the images of position
i's key, the earlier vertices with an edge to position i or later, so it
is memoised on them: the work is at most sum_i (#parts)^(|key_i| + 1)
steps, not (#parts)^v(pattern).  The order prices each step as the
kernel runs it, a table read at one power of #parts less than a loop,
and then keeps the next key small, so a path costs about (#parts)^2
steps per vertex; the hom counters in `counting` keep an order chosen
for pruning.  Each pattern's plan (`_sum_plan`) decides every
position's step, its loop or table read, and its memo; its sum is one
generated function (`_kernel_source`) that only prints the plan,
compiled once and cached on the vertex count and edge set
(`_sum_kernel`): a loop per position with the images as locals, each
memo read before it descends, and one row of #parts sums per image of
the rest of an attached position's key.  A detached position (one no
later key holds) with one back edge reads its sum from a table
D[c] = sum_x w_x M[c][x], one with two from a table
P[c][c'] = sum_x w_x M[c][x] M'[c'][x], where M and M' are W's values
or their transpose by the edges' directions; one with none or more sums
its loop inline.  A leaf (a vertex with one neighbour) follows the
vertex it hangs from, and when that vertex reads a table the leaf is no
step of its own: it weights w_x in the table by its own D table at x,
as in P00_1[c][c'] = sum_x w_x D1[x] M[c][x] M[c'][x].  A run of
positions that read one table entry reads it once, raised to the run's
length.  No memo is kept from a position on whose every position reads
a table, as no loop runs there, nor where the key holds every earlier
loop, as no key repeats there.
A plan too deep for one function runs as a chain of functions passed
the images they read.  Only integers of the plan go into the source.
The tables depend on W alone (`_value_tables`): each graphon builds its
own at its first density and keeps them, each D or P table, weighted or
not, built at its first read, so every later density on that W reads
them, whatever graphons were read in between; plain cell lists, which a
caller may change between sums, get new tables on every call.
`_density` never warns.  Each public entry (`t_step`, `t_bip_step` and
the graphon checks in `sidorenko`) prices its sums once with
`_priced_terms` and warns at its caller's line, through `_warn_if_large`,
when the price is above `TERM_WARNING_THRESHOLD`.
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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, islice, permutations
from math import floor, lcm, prod
from operator import mul
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
    theirs, that denominator).  Its first density builds the tables that
    every density on it reads, kept in ``_tables``, and its first mean the
    mean's numerator, kept in ``_mean``; neither is a field.
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

    @cached_property
    def _tables(self) -> "_ValueTables":
        """`_value_tables` of the integer form, built at the first density
        and kept, like ``_form``, on the instance and not as a field."""
        lnum, _, vnum, _ = self._form
        return _value_tables(lnum, vnum)

    @cached_property
    def _mean(self) -> int:
        """The mean's numerator over dl^2 * dv, for the integer form's
        length denominator dl and value denominator dv, kept like
        ``_tables``: `integral()` and the graphon checks read it."""
        lnum, _, vnum, _ = self._form
        return sum(li * sum(map(mul, row, lnum)) for li, row in zip(lnum, vnum))

    def integral(self) -> Fraction:
        """The mean of the graphon (its single-edge density)."""
        _, dl, _, dv = self._form
        return Fraction(self._mean, dl * dl * dv)

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
    return _equal_parts_graphon([[int((i, j) in graph.edges) for j in range(n)]
                                 for i in range(n)], 1)


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


def _warn_if_large(terms: int, stacklevel: int = 3) -> None:
    """Warn, ``stacklevel`` frames up, that a density sum prices at
    ``terms`` steps when that is above the threshold.  The default names
    the caller of a public entry that calls this itself."""
    if terms > TERM_WARNING_THRESHOLD:
        warnings.warn(
            f"density sum has {terms} terms; expect a long exact computation",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _priced_terms(pattern: OrientedGraph, k: int) -> int:
    """The work bound of `_map_sum` for ``pattern`` on k parts,
    sum_i k^(|key_i| + 1), not the k^v maps it sums over, where it can be
    above the warning threshold, and 0 elsewhere.  Every key i holds at
    most i < v positions, so the bound is at most v * k^v, and below the
    threshold the plan is not priced.

    The bound covers a graphon's first density, which also builds the D
    and P tables its plan reads: the back edges of a position that reads
    a table start in its key, at two positions for a P table, so its term
    k^(|key_i| + 1) is at least the k^2 additions of a D table or the k^3
    of a P table, weighted by leaves or not.  A taken leaf, which runs no
    step, keeps its vertex as its key, so its term k^2 covers the D table
    that weights its vertex's table.  `_sum_order` ranks a table read one
    power of k lower, as a graphon keeps its tables once built; pricing
    those cheaper reads plus the builds would price higher than this bound
    on 468 of the 656 oriented patterns on 3-4 vertices at k = 8, so the
    price keeps the plain bound."""
    v = pattern.vertex_count
    if v * k ** v <= TERM_WARNING_THRESHOLD:
        return 0
    keys = _sum_plan(v, tuple(pattern.sorted_edges()))[1]
    return sum(k ** (len(key) + 1) for key in keys)


def _hangs(v: int, edges: Sequence[tuple[int, int]]) -> list[Optional[int]]:
    """The vertex each leaf of the pattern hangs from, and None for every
    other vertex: a leaf has one neighbour, and that neighbour has more
    (so neither end of an isolated edge is a leaf).  A vertex whose every
    neighbour would hang from it, a star's centre, keeps its least one
    out of its leaves, so that it has an edge back to read a table with."""
    adj = _neighbours(v, edges)
    hangs = [y if len(n) == 1 and len(adj[y := min(n)]) > 1 else None for n in adj]
    for y, n in enumerate(adj):
        if n and all(hangs[x] == y for x in n):
            hangs[min(n)] = None
    return hangs


def _sum_order(v: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """The density sum's placement order of the vertices 0..v-1, greedy
    on the steps its compiled kernel runs (`_kernel_source`), with each
    leaf (`_hangs`) right after the vertex it hangs from.

    The greedy places the core, the vertices that are no leaf, by their
    edges among themselves.  Placing x after the placed set S costs k^a
    steps at k parts, where a is the step's exponent: x's loop runs once
    per image of S's key (the vertices of S with a neighbour still
    unplaced), so a = |key(S)| + 1.  A detached x (every core neighbour
    placed) with one or two back edges reads its sum from a D or P table
    (`_table_read`) that takes its leaves in, so there a = |key(S)|.  Let
    b be the least exponent of a step after x.  Each next vertex x
    minimises (max(a, b), min(a, b); the size of the next key; minus the
    number of x's neighbours already placed; x).  A leaf costs no step of
    its own: its vertex's table takes it in, or it reads a D table at its
    vertex's image, inside that vertex's loop.

    The exponents are what the kernel pays, so the order trades a loop
    for a table read where it can.  The lookahead lets it take a dear step
    when that makes the next one a table read: on the 4-cycle 0-2-1-3 it
    places 0, then 1, so that 2 and 3 each read a P table, where the next
    key's size alone places 2 next and loops 1 under the images of 0 and
    2.  The next key's size then keeps the priced work
    sum_i k^(|key_i| + 1) small (a path keeps one earlier vertex in every
    key), and the back edges prune at zero values.  The rank depends on
    no k.  The exponents count no memo hits, so an order minimising
    sum k^a over all orders measured slower than this greedy.  Each vertex
    keeps its count of unplaced neighbours, so no step recomputes a key:
    the order costs O(v * (v + e)) steps, once per cached plan.
    """
    hangs = _hangs(v, edges)
    adj = _neighbours(v, [(a, b) for a, b in edges
                           if hangs[a] is None and hangs[b] is None])
    # A core vertex with one or two core edges reads a table once its core
    # neighbours are placed, as its core edges are then all back edges.
    reads = [0 < len(n) <= 2 for n in adj]
    free = [len(n) for n in adj]  # each vertex's unplaced core neighbours
    leaves: list[list[int]] = [[] for _ in range(v)]
    for x, y in enumerate(hangs):
        if y is not None:
            leaves[y].append(x)
    placed = [False] * v
    order: list[int] = []
    rest = [x for x in range(v) if hangs[x] is None]

    def rank(x: int) -> tuple[int, int, int, int, int, int]:
        # Every exponent and key size less |key(S)|, which all candidates
        # share.  The next key gains x if it has an unplaced neighbour and
        # loses each placed neighbour whose last unplaced one x is.
        a = 1 - (reads[x] and not free[x])
        grow = (free[x] > 0) - sum(1 for y in adj[x] if placed[y] and free[y] == 1)
        # Some step after x reads a table: a vertex that reads one now,
        # or one whose last unplaced neighbour is x.
        read = ready - (reads[x] and not free[x]) > 0 or any(
            reads[y] and free[y] == 1 and not placed[y] for y in adj[x])
        b = grow + 1 - read
        return max(a, b), min(a, b), grow, free[x] - len(adj[x]), len(leaves[x]), x

    while rest:
        ready = sum(1 for y in rest if reads[y] and not free[y])  # read by rank
        best = min(rest, key=rank)
        order.append(best)
        placed[best] = True
        rest.remove(best)
        for y in adj[best]:
            free[y] -= 1
    return [x for y in order for x in (y, *leaves[y])]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _sum_plan(v: int, edges: tuple[tuple[int, int], ...]
              ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[int, ...], ...],
                         tuple[Optional[tuple[int, ...]], ...], tuple[bool, ...],
                         tuple[Optional[tuple[str, str, int]], ...]]:
    """The back edges of `_sum_order`, the key of every position, the key
    where `_map_sum` memoises each position, whether each position is
    detached, and the table read of each position (`_table_read`) with
    the number of times the kernel takes it there.  `_kernel_source`
    prints this plan and decides nothing of its own.

    The key of position i holds the earlier positions with an edge to
    position i or later: the sum over the images of positions i..v-1
    depends on the earlier images only through them.  A position is
    detached when no later key holds it but those of the leaves it takes
    in (the last position always is): no later step reads its image, so
    its factor summed over its parts multiplies the next suffix sum once.
    A detached core position with one or two back edges reads that sum
    from a table, and takes in the leaves that hang from it, which follow
    it: its table weights each part by their D tables.  A taken leaf reads
    its D table 0 times, and its key is its vertex alone, as that table is
    summed once per image of the vertex; so the price covers it.  A
    position whose read is the one of the position the kernel runs before
    it reads it 0 times too, and that position once per position of the
    run.  The kernel skips a position read 0 times, which keeps no memo.
    Every other position sums its loop (None).  After an attached
    position, the next position's key ends with it, and its memo keeps
    one row of sums per image of the key without its last entry, its
    prefix.  A position is not memoised (None) when its key holds every
    earlier attached position, as only their loops run its code again, so
    no key repeats there; when its key equals that of the detached
    position the kernel runs before it, as every sum from that position
    brings a new image of the key; or when it and every later position
    read a table, as no loop runs there.  Callers pass ``edges`` sorted so
    that equal patterns share a cache entry.
    """
    order = _sum_order(v, edges)
    back = _back_edges(order, edges)
    hangs = _hangs(v, edges)
    leaf = [hangs[x] is not None for x in order]

    def reach(skip: list[bool]) -> list[int]:
        # The latest position with an edge to each position, over the
        # back edges of the positions not skipped.
        latest = list(range(v))
        for i, bk in enumerate(back):
            if not skip[i]:
                for j, _ in bk:
                    latest[j] = i
        return latest

    core = reach(leaf)
    takes = [core[i] == i and 0 < len(bk) <= 2 for i, bk in enumerate(back)]
    # A leaf's one back edge comes from the core vertex it hangs from.
    taken = [leaf[i] and takes[bk[0][0]] for i, bk in enumerate(back)]
    latest = reach(taken)
    # A taken leaf's D table is summed once per image of its vertex, so
    # that vertex alone is its key.
    keys = tuple((back[i][0][0],) if taken[i] else tuple(j for j in range(i) if latest[j] >= i)
                 for i in range(v))
    detached = tuple(latest[i] == i for i in range(v))
    # The orientations of the leaves each position takes in.
    leaves: list[list[int]] = [[] for _ in range(v)]
    for bk, take in zip(back, taken):
        if take:
            (j, t), = bk
            leaves[j].append(t)
    reads: list[Optional[tuple[str, str, int]]] = []
    head = 0  # the last position the kernel runs; position 0 has no back edge
    for i, bk in enumerate(back):
        read = None
        if taken[i]:
            read = (*_table_read(bk, ()), 0)
        elif detached[i] and 0 < len(bk) <= 2:
            table = _table_read(bk, leaves[i])
            if reads[head] and reads[head][:2] == table:
                reads[head] = (*table, reads[head][2] + 1)
                read = (*table, 0)
            else:
                read = (*table, 1)
        if not read or read[2]:
            head = i
        reads.append(read)
    # Every position from ``tail`` on reads a table, so no loop runs there.
    tail = max((i + 1 for i, read in enumerate(reads) if read is None), default=0)
    memos: list[Optional[tuple[int, ...]]] = []
    before = None  # the last position the kernel runs before i
    for i, key in enumerate(keys):
        if reads[i] and not reads[i][2]:
            memos.append(None)
            continue
        loops = {j for j in range(i) if not detached[j]}
        repeats = i < tail and not loops <= set(key) and not (
            before is not None and detached[before] and key == keys[before])
        memos.append(key if repeats else None)
        before = i
    return back, keys, tuple(memos), detached, tuple(reads)


# CPython compiles at most 20 nested loops into one function.  A kernel
# function passes the rest of its plan on once its code is nested this
# deep, so it holds at most one loop more than this many.
_KERNEL_DEPTH = 16


def _images(key: tuple[int, ...]) -> str:
    """The source of the images of ``key``'s positions: a tuple, a single
    image for a one-entry key, and () for the empty key."""
    return f"c{key[0]}" if len(key) == 1 else f"({''.join(f'c{j}, ' for j in key)})"


def _table_read(bk: tuple[tuple[int, int], ...], leaves: Sequence[int]) -> tuple[str, str]:
    """The sum table (`_ValueTables`) a detached position with one or two
    back edges ``bk`` reads its sum from, and the source of its index: D{t}
    at [c{j}] for one back edge (j, t), and P{t1}{t2} at [c{j1}][c{j2}] for
    two, ordered so that t1 <= t2.  The leaves it takes in, by the
    orientation t of each leaf's edge as a back edge, name the table's
    weights after an underscore, in increasing order: P00_1 weights part c
    by D1[c]."""
    name = "".join(map(str, sorted(leaves)))
    name = f"_{name}" if name else ""
    if len(bk) == 1:
        (j, t), = bk
        return f"D{t}{name}", f"[c{j}]"
    (j1, t1), (j2, t2) = sorted(bk, key=lambda edge: edge[1])
    return f"P{t1}{t2}{name}", f"[c{j1}][c{j2}]"


def _kernel_source(plan: tuple) -> str:
    """The source of `_map_sum`'s kernel for a `_sum_plan`: a function
    ``kernel(k, tables)`` of the part count and `_value_tables`, which it
    reads by name: F the first position's pairs, T0 and T1 the table rows
    of the value matrix and its transpose, M0 and M1 those matrices, and
    the D and P sum tables its detached positions read, weighted by leaves
    or not.  It prints the
    plan's steps and memos as they are and decides none of them.

    The kernel runs every position the plan does not read 0 times.
    Position i's code nests in the loop of the position the kernel runs
    before it and leaves the sum over positions i..v-1 in ``s{i}``.  Its
    loop binds its image ``c{i}`` and factor ``f{i}`` from the row its
    first back edge selects; the value rows of its other back edges,
    fetched before the loop, multiply in.  A detached position for which
    the plan names a table read (`_table_read`) reads its sum from that
    table entry once, and raises it to the power the plan gives; any
    other detached position only sums its factor.  The memo of the next
    position the kernel runs, where the plan keeps one, is keyed on the
    images of its key after a detached position, and of its prefix, the
    key less its last entry i, after an attached one, where it holds rows
    of k sums indexed by ``c{i}``.  Once a function's code is nested
    `_KERNEL_DEPTH` levels deep, position i's sum is a call of a new
    function ``g{i}`` of the images of its key.
    """
    back, keys, memos, detached, reads = plan
    if not back:
        return "def kernel(k, tables):\n    return 1\n"
    # The positions the kernel runs, each with the next one.
    runs = [i for i, read in enumerate(reads) if not read or read[2]]
    kernel = ["def kernel(k, tables):"]
    names: set[str] = set()  # the tables the kernel reads
    done: list[list[str]] = []  # the closed functions, the kernel's body first
    # The open function's first position, lines and base indentation, the
    # lines that close each of its positions, innermost last, and how deep
    # its code is nested.
    start, body, base, tails, depth = 0, [], 1, [], 0
    for i, nxt in zip(runs, runs[1:] + [None]):
        bk = back[i]
        if depth > _KERNEL_DEPTH:
            args = ", ".join(f"c{j}" for j in keys[i])
            body.append(f"{'    ' * (base + depth)}s{i} = g{i}({args})")
            done.append(_close(body, tails, base, start))
            start, body, base, tails, depth = i, [f"    def g{i}({args}):"], 2, [], 0
        pad = "    " * (base + depth)
        if reads[i]:
            name, index, times = reads[i]
            names.add(name)
            body.append(f"{pad}s{i} = {name}{index}")
            if times > 1:
                body.append(f"{pad}s{i} *= {' * '.join([f's{i}'] * (times - 1))}")
        else:
            table = f"T{bk[0][1]}" if bk else "F"
            rows = [f"x{i}_{n}" for n in range(len(bk) - 1)]
            names.update([table] + [f"M{t}" for _, t in bk[1:]])
            if bk:
                table += f"[c{bk[0][0]}]"
            body += [f"{pad}{x} = M{t}[c{j}]" for x, (j, t) in zip(rows, bk[1:])]
            factor = "".join(f" * {x}[c{i}]" for x in rows)
            body.append(f"{pad}s{i} = 0")
        # How the next suffix sum s{nxt} joins s{i}, and the memo slot it
        # is read from (get) and stored in (put), if any.
        if detached[i]:
            if not reads[i]:
                body += [f"{pad}for c{i}, f{i} in {table}:", f"{pad}    s{i} += f{i}{factor}"]
            if nxt is None:
                break
            body.append(f"{pad}if s{i}:")
            join, get = f"s{i} *=", None
            if memos[nxt] is not None:
                key = _images(memos[nxt])
                kernel.append(f"    m{nxt} = {{}}")
                get, put = f"m{nxt}.get({key})", f"m{nxt}[{key}]"
        else:
            pre = None if memos[nxt] is None else memos[nxt][:-1]
            if pre == ():
                kernel.append(f"    r{nxt} = [None] * k")
            elif pre is not None:
                kernel.append(f"    m{nxt} = {{}}")
                body += [f"{pad}r{nxt} = m{nxt}.get({_images(pre)})", f"{pad}if r{nxt} is None:",
                         f"{pad}    r{nxt} = m{nxt}[{_images(pre)}] = [None] * k"]
            body.append(f"{pad}for c{i}, f{i} in {table}:")
            if rows:
                body += [f"{pad}    f{i} = f{i}{factor}", f"{pad}    if not f{i}:",
                         f"{pad}        continue"]
            join, get = f"s{i} += f{i} *", None
            if pre is not None:
                get = put = f"r{nxt}[c{i}]"
        pad += "    "
        depth += 1
        if get is None:
            tails.append([f"{pad}{join} s{nxt}"])
        else:
            body += [f"{pad}u{nxt} = {get}", f"{pad}if u{nxt} is None:"]
            tails.append([f"{pad}    u{nxt} = {put} = s{nxt}", f"{pad}{join} u{nxt}"])
            depth += 1
    done.append(_close(body, tails, base, start))
    kernel[1:1] = [f"    {name} = tables[{name!r}]" for name in sorted(names)]
    # Each function is defined before the kernel's body calls the first.
    for lines in done[1:] + done[:1]:
        kernel += lines
    return "\n".join(kernel) + "\n"


def _close(body: list[str], tails: list[list[str]], base: int, start: int) -> list[str]:
    """A kernel function's body, closed: its positions' closing lines,
    innermost first, and the return of its first position's sum."""
    for tail in reversed(tails):
        body += tail
    return body + [f"{'    ' * base}return s{start}"]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _sum_kernel(v: int, edges: frozenset[tuple[int, int]]) -> Callable:
    """`_map_sum`'s kernel of the pattern, `_kernel_source` of its plan
    compiled, cached on the vertex count and the edge set.  A pattern
    keeps its edges as a frozenset, whose hash Python caches, so a density
    finds its kernel without sorting or hashing the edges again."""
    scope: dict = {}
    source = _kernel_source(_sum_plan(v, tuple(sorted(edges))))
    exec(compile(source, "<density sum>", "exec"), scope)
    return scope.pop("kernel")


class _ValueTables(dict):
    """`_value_tables`: the tables `_map_sum`'s kernels read, by name.  A
    D or P sum table is built on its first read and kept with the rest."""

    def __missing__(self, name: str) -> list:
        # D{t}[a] = sum_c w_c * M{t}[a][c], the sum over T{t}[a]'s factors;
        # P{t1}{t2}[a][b] = sum_c w_c * M{t1}[a][c] * M{t2}[b][c].  Each
        # leaf type s after an underscore multiplies w_c by D{s}[c].  Plain
        # loops build a table about twice as fast as sums of generators.
        base, _, leaves = name.partition("_")
        rows = self[f"T{base[1]}"]
        if leaves:
            weight = [prod(ds) for ds in zip(*(self[f"D{s}"] for s in leaves))]
            rows = [[(c, f * weight[c]) for c, f in row if weight[c]] for row in rows]
        table: list = []
        if base[0] == "D":
            for row in rows:
                total = 0
                for _, f in row:
                    total += f
                table.append(total)
        else:
            other = self[f"M{base[2]}"]
            for row in rows:
                sums = []
                for m in other:
                    total = 0
                    for c, f in row:
                        total += f * m[c]
                    sums.append(total)
                table.append(sums)
        self[name] = table
        return table


def _value_tables(weights: Sequence[int], values: Sequence[Sequence[int]]) -> _ValueTables:
    """The tables `_map_sum` reads, which depend on the weights and values
    alone: the value matrix M0 and its transpose M1, each matrix's table
    rows T0 and T1 of nonzero (part, weight * value) pairs, and the (part,
    weight) pairs F of the first position.  The sum tables D0, D1, P00,
    P01 and P11 of detached positions (`_table_read`), and those weighted
    by the leaves they take in, such as P00_1, are built on their first
    read, so only the ones a kernel reads are.  Parts of weight 0 are left
    out of every table."""
    # An edge is checked when its later endpoint is placed: it reads the
    # value matrix at (earlier image, new image), or the transpose there.
    matrices = (values, [list(col) for col in zip(*values)])
    parts = [c for c in range(len(weights)) if weights[c]]
    tables = _ValueTables(F=[(c, weights[c]) for c in parts])
    for t, m in enumerate(matrices):
        tables[f"M{t}"] = m
        tables[f"T{t}"] = [[(c, weights[c] * row[c]) for c in parts if row[c]] for row in m]
    return tables


def _map_sum(v: int, edges: Sequence[tuple[int, int]], weights: Sequence[int],
             values: Sequence[Sequence[int]], tables: Optional[_ValueTables] = None) -> int:
    """Sum, over all maps g of the vertices 0..v-1 to parts, of
    prod_x weights[g(x)] * prod_{(a,b) in edges} values[g(a)][g(b)].

    Variable elimination along the pattern's cached order (`_sum_order`),
    run by its generated kernel (`_kernel_source`), compiled once and
    cached on the vertex count and edge set (`_sum_kernel`): one nested
    loop per position multiplies in its part weight and the values of its
    edges back to placed vertices, and skips a part at a zero factor.  The
    sum over positions i..v-1 depends only on the images of position i's
    key, so it is memoised per call on them where the plan (`_sum_plan`)
    keeps a memo, and read before the loops below run.  A detached
    position reads its sum from a table of the weights and values when it
    has one back edge (D) or two (P), weighted by the D tables of the
    leaves it takes in, and sums its loop inline otherwise.  A plan
    nested deeper than one function may hold runs as a chain of
    functions, each passed the images it reads, and only integers of the
    plan go into the source.  Parts of weight 0 are left out of every
    table.  With k parts the work is at most sum_i k^(|key_i| + 1) steps
    rather than k^v.  ``tables`` (`_value_tables` of the weights and
    values) is for a caller that already holds them, such as a graphon's
    densities; without it the call builds its own.  The memo is built on
    every call.
    """
    # frozenset() returns a frozenset argument itself.
    kernel = _sum_kernel(v, frozenset(edges))
    return kernel(len(weights), _value_tables(weights, values) if tables is None else tables)


def _density_total(pattern: OrientedGraph, w: StepGraphon) -> int:
    """t(pattern, W) * dl^v * dv^e, unpriced, for W's integer form with
    length denominator dl and value denominator dv."""
    lnum, _, vnum, _ = w._form
    return _map_sum(pattern.vertex_count, pattern.edges, lnum, vnum, w._tables)


def _exact_density(pattern: OrientedGraph, cells: Sequence[Sequence[int]]) -> int:
    """t(pattern, W) * d^e * parts^v, for the step graphon W on len(cells)
    equal parts whose values are the integer numerators ``cells`` over d.
    Its tables are built for the call, as the cells may change between
    calls."""
    return _map_sum(pattern.vertex_count, pattern.edges, [1] * len(cells), cells)


def _density(pattern: OrientedGraph, w: StepGraphon) -> Fraction:
    """t(pattern, W), unpriced: each public entry warns of its sums once,
    before it runs them."""
    _, dl, _, dv = w._form
    return Fraction(_density_total(pattern, w),
                    dl ** pattern.vertex_count * dv ** pattern.edge_count)


def t_step(pattern: OrientedGraph, w: StepGraphon) -> Fraction:
    """Density of an oriented pattern in a step graphon.

    Sums, over all maps g of pattern vertices to parts, the product of the
    part lengths of the images times the product of W over the edge cells.
    """
    _warn_if_large(_priced_terms(pattern, w.num_parts))
    return _density(pattern, w)


def t_bip_step(pattern: BipartiteGraph, w: StepGraphon) -> Fraction:
    """Bipartite density of a two-part pattern in a step graphon.

    Part-1 vertices pick x-coordinate parts and part-2 vertices pick
    y-coordinate parts; each edge (i,j) contributes the value of W at the
    cell (image of i, image of j).  That is the density of the pattern with
    every edge directed from part 1 to part 2.
    """
    oriented = _part_oriented(pattern)
    _warn_if_large(_priced_terms(oriented, w.num_parts))
    return _density(oriented, w)


# The part-oriented form of each bipartite pattern, built and validated once
# and shared by `t_bip_step`, the asymmetric checks and the margin bridge.
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
    cells = _random_cells(parts, denominator, random.Random(seed) if rng is None else rng)
    return _equal_parts_graphon(cells, denominator)


def _random_cells(parts: int, denominator: int, rng: random.Random) -> list[list[int]]:
    """The value numerators over ``denominator`` of one random graphon on
    ``parts`` equal parts, drawn row by row from ``rng``: the one stream
    that `random_graphon` and the random Sidorenko batches read."""
    if parts < 1:
        raise ValueError(f"parts must be at least 1, got {parts}")
    if denominator < 1:
        raise ValueError(f"denominator must be at least 1, got {denominator}")
    return [[rng.randint(0, denominator) for _ in range(parts)] for _ in range(parts)]


def _equal_parts_graphon(cells: Sequence[Sequence[int]], d: int) -> StepGraphon:
    """The step graphon on len(cells) equal parts with values ``cells``
    over d."""
    return StepGraphon([Fraction(1, len(cells))] * len(cells),
                       [[Fraction(c, d) for c in row] for row in cells])
