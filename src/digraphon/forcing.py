"""The interpolating block family W^(lambda), density root-finding, and a
search for step-graphon witnesses against directed forcing.

W^(lambda) lives on four equal parts: value 1-lambda on the single cell
(row 2, column 1), lambda/4 on the bottom-right 2x2 block, zero elsewhere.
Its mean is 1/16 for every lambda, while the density of a fixed pattern
moves continuously in lambda, which is what the root-finder exploits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, gcd, lcm
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graphs import OrientedGraph, hom_to_edge_bipartition, underlying_has_cycle
from .stepgraphon import (
    StepGraphon,
    _as_fraction,
    _equal_parts_graphon,
    _exact_density,
    cut_norm_centered,
    from_oriented,
)

LAMBDA_FAMILY_MEAN = Fraction(1, 16)
DEFAULT_PRECISION = Fraction(1, 2**40)
DEFAULT_GRID = 256
# find_lambda0's first-crossing scan is linear in the grid: about 0.7 s at
# 10^6 points for the directed 4-cycle plus a chord (Xeon, Python 3.11).
MAX_LAMBDA_GRID = 2**20
# Its bisection runs about log2(1/precision) steps on integers that grow
# with them: about 0.6 s at 2^-4096 for the same pattern, 19 s at 2^-16384.
MIN_PRECISION = Fraction(1, 2**4096)
RATIONALIZE_DENOMINATOR = 2**16
PGD_STEP_SIZE = 0.05
# The float descent indexes parts^v x e cells; larger searches are refused.
MAX_PGD_INDICES = 2**20


def _lambda_numerators(lam: Fraction) -> tuple[list[list[int]], int]:
    """The values of W^(lambda) as integer numerators over their common
    denominator 4b, for lambda = a/b."""
    a, b = lam.numerator, lam.denominator
    return [[0, 0, 0, 0], [4 * (b - a), 0, 0, 0], [0, 0, a, a], [0, 0, a, a]], 4 * b


def w_lambda(lam) -> StepGraphon:
    """The four-part interpolating graphon; mean 1/16 for every lambda."""
    lam = _as_fraction(lam)
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0,1]")
    values, d = _lambda_numerators(lam)
    return _equal_parts_graphon(values, d)


def _homogeneous(poly: Sequence[int], a: int, b: int) -> int:
    """b^deg * poly(a/b) for integer coefficients, lowest degree first."""
    acc, power = poly[-1], 1
    for c in poly[-2::-1]:
        power *= b
        acc = acc * a + c * power
    return acc


@dataclass(frozen=True)
class LambdaProfile:
    """t(B, W^(lambda)) as a polynomial in lambda, with the located root.

    Stored: the grid size, the e(B)+1 exact monomial coefficients of the
    density in lambda (lowest degree first), the target (1/16)^e(B) and
    lambda0.  ``lambda_grid`` (the points i/grid) and ``densities`` (the
    exact density at each of them) are derived from these on every access.
    """

    grid: int
    coefficients: tuple[Fraction, ...]
    target: Fraction
    lambda0: Fraction

    @property
    def lambda_grid(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(i, self.grid) for i in range(self.grid + 1))

    @property
    def densities(self) -> tuple[Fraction, ...]:
        scale = lcm(*(c.denominator for c in self.coefficients))
        poly = [int(c * scale) for c in self.coefficients]
        den = scale * self.grid ** (len(poly) - 1)
        return tuple(Fraction(_homogeneous(poly, i, self.grid), den)
                     for i in range(self.grid + 1))


def find_lambda0(
    pattern: OrientedGraph,
    precision: Fraction = DEFAULT_PRECISION,
    *,
    grid: int = DEFAULT_GRID,
) -> LambdaProfile:
    """Locate lambda0 with t(B, W^(lambda0)) = (1/16)^e(B) up to ``precision``.

    Requires a pattern with no isolated vertices and no homomorphism onto a
    single edge, ``precision >= MIN_PRECISION`` (2^-4096) and 1 <= grid <=
    ``MAX_LAMBDA_GRID`` (2^20), all checked before any density is computed.
    Then the density is 0 at lambda = 0 and (1/2)^v * (1/4)^e >= (1/16)^e
    at lambda = 1, so a root exists.

    Every cell of W^(lambda) is 0, 1-lambda or lambda/4, so
    4^(v+e) * t(B, W^(lambda)) = sum_k D_k (1-lambda)^k lambda^(e-k), with
    v = v(B), e = e(B) and D_k = 4^k times the number of maps with k edges
    on the cell (1, 0) and the rest in the lambda/4 block.  Every
    D_k < 4^(v+e) < B = 2^(2(v+e)+1).  One map sum, on the family's cells
    at lambda = 1/(B+1) (4B on (1, 0), 1 on the block), returns
    sum_k D_k B^k, and its base-B digits are the D_k.  The two endpoint
    facts above are checked on them: D_e = 0 and D_0 = 2^v.  Expanding
    the powers of 1-lambda gives the monomial coefficients.  Subtracting
    the target and scaling by the lcm L of 4^(v+e) and the target and
    precision denominators gives an integer polynomial P = L * (t - target),
    and every test below is exact in integers: b^e * P(a/b) by homogeneous
    Horner for its sign, and |P(mid)| <= L * precision for the stop.

    The density starts below the target and ends at or above it.  The scan
    takes the first point i/grid where it reaches the target: a root, or
    the right end of the bracket [(i-1)/grid, i/grid], which is then
    bisected at its midpoints until the density sits within ``precision``
    of the target.  Returns the smallest root located this way.
    """
    precision = _as_fraction(precision)
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    if precision < MIN_PRECISION:
        raise ValueError("precision must be at least MIN_PRECISION = 2^-4096")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    if grid > MAX_LAMBDA_GRID:
        raise ValueError(f"grid must be at most {MAX_LAMBDA_GRID}, got {grid}")
    v, e = pattern.vertex_count, pattern.edge_count
    if v == 0 or e == 0:
        raise ValueError("pattern must have at least one edge")
    if any(pattern.degree(x) == 0 for x in range(v)):
        raise ValueError("pattern must have no isolated vertices")
    if hom_to_edge_bipartition(pattern) is not None:
        raise ValueError(
            "pattern maps onto a single edge; its density in the family "
            "equals the target for every lambda, so no isolated root exists")

    target = LAMBDA_FAMILY_MEAN ** e
    # The digits D_k of one density at lambda = 1/(B+1), B = 2^bits.
    unit, bits = 4 ** (v + e), 2 * (v + e) + 1
    cells, _ = _lambda_numerators(Fraction(1, 2 ** bits + 1))
    total = _exact_density(pattern, cells)
    digits = [total >> (k * bits) & (2 ** bits - 1) for k in range(e + 1)]
    if digits[e] != 0:
        raise AssertionError("density at lambda=0 should vanish")
    if digits[0] != 2 ** v or Fraction(digits[0], unit) < target:
        raise AssertionError("density at lambda=1 should be the closed form above the target")
    # unit * t = sum_k D_k (1-lambda)^k lambda^(e-k), expanded in lambda.
    numerators = [0] * (e + 1)
    for k, digit in enumerate(digits):
        for j in range(k + 1):
            numerators[e - k + j] += (-1) ** j * comb(k, j) * digit
    coefficients = tuple(Fraction(c, unit) for c in numerators)

    scale = lcm(unit, target.denominator, precision.denominator)
    poly = [c * (scale // unit) for c in numerators]
    poly[0] -= int(target * scale)
    tolerance = int(precision * scale)

    i = next(i for i in range(grid + 1) if _homogeneous(poly, i, grid) >= 0)
    if _homogeneous(poly, i, grid) == 0:
        lambda0 = Fraction(i, grid)
    else:
        # The bracket [lo/den, hi/den], with P(lo/den) < 0 < P(hi/den), is
        # halved by doubling den.  The density is Lipschitz on [0,1], so
        # halving it drives |P| below the tolerance within
        # ~log2(1/precision) steps plus slack for the Lipschitz constant.
        lo, hi, den = i - 1, i, grid
        for _ in range(80 + floor(1 / precision).bit_length()):
            mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
            f_mid = _homogeneous(poly, mid, den)
            if abs(f_mid) <= tolerance * den ** e:
                lambda0 = Fraction(mid, den)
                break
            if f_mid < 0:
                lo = mid
            else:
                hi = mid
        else:
            raise ArithmeticError("bisection failed to meet the precision")
    return LambdaProfile(grid, coefficients, target, lambda0)


class NecessaryConditions(NamedTuple):
    hom_to_edge: bool
    underlying_cycle: bool


def necessary_conditions(pattern: OrientedGraph) -> NecessaryConditions:
    """Both must hold for the pattern to be directed forcing: a homomorphism
    onto a single edge, and a cycle in the underlying graph."""
    return NecessaryConditions(
        hom_to_edge=hom_to_edge_bipartition(pattern) is not None,
        underlying_cycle=underlying_has_cycle(pattern),
    )


def quasirandom_trace(
    graphs: Sequence[OrientedGraph],
    p,
    *,
    heuristic: bool = False,
    seed: int = 0,
) -> list[Fraction]:
    """Centered cut norm ||W_G - p||_cut per graph; a sequence is
    p-quasirandom exactly when this trace tends to zero."""
    p = _as_fraction(p)
    out = []
    for g in graphs:
        w = from_oriented(g)
        res = cut_norm_centered(w, p, heuristic=heuristic, seed=seed)
        out.append(res.value)
    return out


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def _map_cells(pattern: OrientedGraph, parts: int) -> np.ndarray:
    """Flat cell index row * parts + col of every edge under every map of
    the pattern's vertices to parts: an (edges, maps) integer array, with
    the maps in ``itertools.product`` order (vertex 0 most significant)."""
    v = pattern.vertex_count
    place = parts ** np.arange(v - 1, -1, -1, dtype=np.intp)
    images = np.arange(parts ** v, dtype=np.intp) // place[:, None] % parts
    tails, heads = np.array(pattern.sorted_edges(), dtype=np.intp).T
    return images[tails] * parts + images[heads]


def _float_kernel(cells: np.ndarray, parts: int, scale: float):
    """The float density t(B, W) and its gradient in the cell values, for the
    (edges, maps) cell indices of ``_map_cells``.  The descent minimises
    with both, and the polish ranks its moves by the gradient.

    Returns ``t_and_grad(x)`` for a (parts, parts) array x.  Each map's
    products of the edge values before and after every edge are formed
    left to right and right to left, into buffers allocated once here; t
    sums the full left products, and the gradient adds up the products
    around each edge map by map, edge by edge.
    """
    e, m = cells.shape
    flat = np.ascontiguousarray(cells.T).ravel()
    size = parts * parts
    vals = np.empty((e, m))
    left = np.ones((e + 1, m))
    right = np.ones((e, m))
    others = np.empty((m, e))
    weights = others.ravel()
    # The in-place multiplications, on views made once: left[j+1] =
    # left[j] * vals[j] ascending, then right[j] = right[j+1] * vals[j+1]
    # descending.
    steps = ([(left[j], vals[j], left[j + 1]) for j in range(e)]
             + [(right[j + 1], vals[j + 1], right[j]) for j in range(e - 2, -1, -1)])
    left_t, right_t, full = left[:e].T, right.T, left[e]

    def t_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        # The indices are in range; mode "clip" lets take write into vals
        # without the buffer that mode "raise" uses.
        x.take(cells, out=vals, mode="clip")
        for a, b, out in steps:
            np.multiply(a, b, out=out)
        np.multiply(left_t, right_t, out=others)
        t = float(full.sum()) * scale
        grad = np.bincount(flat, weights=weights, minlength=size).reshape(parts, parts)
        return t, grad * scale

    return t_and_grad


# numpy's SeedSequence hash constants and PCG64 multiplier.
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _start_point(seed: int, parts: int) -> np.ndarray:
    """numpy's ``default_rng(seed).uniform(0.0, 1.0, (parts, parts))``, bit
    for bit, in pure Python, so that no process imports numpy's random
    module for it.  numpy's SeedSequence mixes the seed's 32-bit words into
    a pool of four and expands it into PCG64's 128-bit state and increment;
    each draw steps the generator, takes its XSL-RR output x and yields
    (x >> 11) * 2^-53, in C order.  ``seed`` is a nonnegative integer."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, uint64): eight words read in pairs,
    # low word first; then PCG64 takes (state, increment) as two 128-bit
    # numbers, high half first.
    out, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    s0, s1, i0, i1 = (out[j] | out[j + 1] << 32 for j in range(0, 8, 2))
    # PCG64's seeding: from state 0, one step, add the seed, one step.
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
    draws = []
    for _ in range(parts * parts):
        state = (state * _PCG64_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        draws.append((((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0 ** -53)
    return np.array(draws).reshape(parts, parts)


def _pgd_candidate(t_and_grad, parts: int, e: int, p: float, seed: int,
                   max_iterations: int) -> np.ndarray:
    """One projected-gradient restart on the squared constraint residuals,
    with the density kernel ``t_and_grad`` of ``_float_kernel``.  It starts
    from numpy's ``default_rng(seed).uniform(0, 1, (parts, parts))``
    stream, reproduced in pure Python by ``_start_point``, so the start
    does not depend on the installed numpy."""
    target_t = p ** e
    mean_coeff = 1.0 / parts ** 2

    def objective(x):
        t, grad_t = t_and_grad(x)
        mean = x.sum() * mean_coeff
        f = (t - target_t) ** 2 + (mean - p) ** 2
        grad = 2.0 * (t - target_t) * grad_t + 2.0 * (mean - p) * mean_coeff
        return f, grad

    x = _start_point(seed, parts)
    f, grad = objective(x)
    step = PGD_STEP_SIZE
    for _ in range(max_iterations):
        if f < 1e-26 or step < 1e-14:
            break
        x_new = (x - step * grad).clip(0.0, 1.0)
        f_new, grad_new = objective(x_new)
        if f_new < f:
            x, f, grad = x_new, f_new, grad_new
        else:
            step *= 0.5
    return x


def _rationalize(x: np.ndarray, unit: int) -> list[list[int]]:
    """The cells rounded to the 1/2^16 grid, clamped to [0, 1], as
    numerators over d = unit * 2^16."""
    denom = RATIONALIZE_DENOMINATOR
    return [[min(max(int(round(float(c) * denom)), 0), denom) * unit for c in row]
            for row in x]


def _repair_mean(cells: list[list[int]], target_sum: int, d: int) -> None:
    """Shift cell numerators in place, each within [0, d], until they sum
    exactly to ``target_sum``.  It always can: every numerator starts in
    [0, d], and the target lies in [0, d * parts^2]."""
    deficit = target_sum - sum(map(sum, cells))
    for row in cells:
        for j, c in enumerate(row):
            row[j] = min(max(c + deficit, 0), d)
            deficit -= row[j] - c


def _scaled_gradient(t_and_grad, cells: list[list[int]], d: int, factor: int) -> list[int]:
    """The float gradient of ``t_and_grad`` at the cell numerators ``cells``
    over d, each partial times ``factor`` and rounded to an integer, row by
    row.  The product is taken on the partial's exact Fraction, as
    ``factor`` may lie past the float range."""
    _, grad = t_and_grad(np.array([[c / d for c in row] for row in cells]))
    return [round(Fraction(g) * factor) for g in grad.ravel().tolist()]


def _polish_density(pattern: OrientedGraph, t_and_grad, cells: list[list[int]],
                    p: Fraction, tol: Fraction, d: int, rounds: int = 60) -> bool:
    """Drive |t(B, W) - p^e| below ``tol`` with mean-preserving two-cell
    moves on the 1/2^16 grid, for W with cell numerators ``cells`` over d.

    Each move shifts one cell by +delta and another by -delta, so the mean
    stays exact; delta is the linearized correction rounded down or up to a
    multiple of unit = d / 2^16.  The linearization reads the float
    gradient of the search's density kernel ``t_and_grad`` (`_float_kernel`)
    in the units of the residual, d^(e-1) * parts^v, rounded to integers.
    It only ranks the moves: a move is accepted only if the exactly
    recomputed residual shrinks.  Pairs with nearly equal sensitivities
    provide arbitrarily fine knobs, which is what lets the residual cross
    the tolerance despite the grid quantization.  Densities are integers
    over d^e * parts^v; the residual is one too, so comparing it with
    floor(tol * d^e * parts^v) is exact.
    """
    parts, v, e = len(cells), pattern.vertex_count, pattern.edge_count
    unit = d // RATIONALIZE_DENOMINATOR
    scale = d ** e * parts ** v
    target = int(p * d) ** e * parts ** v
    tol_scaled = floor(tol * scale)
    all_cells = [(i, j) for i in range(parts) for j in range(parts)]
    residual = _exact_density(pattern, cells) - target
    for _ in range(rounds):
        if abs(residual) <= tol_scaled:
            return True
        grad = dict(zip(all_cells, _scaled_gradient(t_and_grad, cells, d, scale // d)))
        candidates = []
        for c_up in all_cells:
            g_up = grad[c_up]
            for c_down in all_cells:
                if c_down == c_up:
                    continue
                slope = g_up - grad[c_down]
                if slope == 0:
                    continue
                lo = -residual // (slope * unit)
                for m in (lo, lo + 1):
                    delta = m * unit
                    if delta == 0:
                        continue
                    if not (0 <= cells[c_up[0]][c_up[1]] + delta <= d):
                        continue
                    if not (0 <= cells[c_down[0]][c_down[1]] - delta <= d):
                        continue
                    candidates.append((abs(residual + slope * delta), c_up, c_down, delta))
        if not candidates:
            return False
        candidates.sort()
        improved = False
        for _, c_up, c_down, delta in candidates[:12]:
            cells[c_up[0]][c_up[1]] += delta
            cells[c_down[0]][c_down[1]] -= delta
            new_residual = _exact_density(pattern, cells) - target
            if abs(new_residual) < abs(residual):
                residual = new_residual
                improved = True
                break
            cells[c_up[0]][c_up[1]] -= delta
            cells[c_down[0]][c_down[1]] += delta
        if not improved:
            return False
    return abs(residual) <= tol_scaled


def forcing_witness_search(
    pattern: OrientedGraph,
    p,
    parts: int = 4,
    tol=Fraction(1, 10**8),
    seed: int = 0,
    *,
    restarts: int = 16,
    max_iterations: int = 2000,
) -> Optional[StepGraphon]:
    """Search for a non-constant step graphon W with mean p whose pattern
    density equals p^e(B), certifying the candidate in exact arithmetic.

    Pipeline per restart: a projected-gradient descent on the squared float
    residuals, restart r starting from numpy's
    ``default_rng(seed + r).uniform(0, 1, (parts, parts))`` stream,
    reproduced in pure Python so that it does not depend on the installed
    numpy; rationalization of the candidate to the 1/2^16 grid, an exact
    mean repair, and an exact polish of the density residual by moves on the
    grid.  The descent and the polish share one float density kernel: the
    polish ranks its moves by its gradient and accepts a move only on the
    exact residual.  The exact stages keep every cell as an integer
    numerator over d = lcm(2^16, denominator of p).  Every cell of a witness
    lies on the 1/2^16 grid except at most one, which absorbs the exact mean
    remainder: when p * parts^2 is not a multiple of 1/2^16, no matrix on
    the grid has mean exactly p.  A candidate counts as a witness only if
    its mean is p, |t(B,W) - p^e| <= tol and its centered cut norm is
    positive and at least 10*tol, so that it is not the constant p even at
    tol = 0, each certified exactly by one stage: the mean repair
    makes the cell numerators sum to p * d * parts^2, and every polish
    move keeps that sum; the polish returns True only when the integer
    density residual on these cells is within floor(tol * d^e * parts^v);
    and the cut norm is computed with rationals on the graphon, built only
    once the polish passes, so a returned witness carries no density
    tables.  Returns the lexicographically smallest certified witness across
    restarts, or None if every restart fails.

    The descent indexes the pattern's edge cells under every map of its
    vertices to parts, so a search with parts^v * e above
    ``MAX_PGD_INDICES`` (2^20) raises ``ValueError`` before any work, as
    do ``restarts < 1``, ``max_iterations < 0``, ``tol < 0`` and a negative
    ``seed``.  Any integer type is accepted as the seed (``operator.index``).
    """
    p_exact = _as_fraction(p)
    if not 0 < p_exact < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    # The upper end bounds the exact polish: each of its up to 60 rounds
    # scores parts^2 * (parts^2 - 1) ordered cell pairs, 4,032 at 8 parts
    # and 65,280 at 16.  The lower end keeps 1.0 / parts**v defined.
    if not 1 <= parts <= 8:
        raise ValueError(f"witness search needs 1..8 parts (got {parts})")
    tol_exact = _as_fraction(tol)
    if tol_exact < 0:
        raise ValueError(f"tol must be nonnegative, got {tol_exact}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    v, e = pattern.vertex_count, pattern.edge_count
    if v == 0 or e == 0:
        raise ValueError("pattern must have at least one edge")
    if parts ** v * e > MAX_PGD_INDICES:
        raise ValueError(
            f"witness search is capped at parts^v * e <= {MAX_PGD_INDICES} "
            f"(got {parts}^{v} * {e})")

    unit = p_exact.denominator // gcd(p_exact.denominator, RATIONALIZE_DENOMINATOR)
    d = unit * RATIONALIZE_DENOMINATOR
    target_sum = int(p_exact * d) * parts * parts
    separation_floor = 10 * tol_exact

    t_and_grad = _float_kernel(_map_cells(pattern, parts), parts, 1.0 / parts ** v)
    witnesses = []
    for r in range(restarts):
        x = _pgd_candidate(t_and_grad, parts, e, float(p_exact), seed + r, max_iterations)
        cells = _rationalize(x, unit)
        _repair_mean(cells, target_sum, d)
        if not _polish_density(pattern, t_and_grad, cells, p_exact, tol_exact, d):
            continue
        w = _equal_parts_graphon(cells, d)
        separation = cut_norm_centered(w, p_exact).value
        if separation == 0 or separation < separation_floor:
            continue
        witnesses.append(w)
    if not witnesses:
        return None
    return min(witnesses, key=lambda w: tuple(x for row in w.values for x in row))
