"""The interpolating block family W^(lambda), density root-finding, and a
search for step-graphon witnesses against directed forcing.

W^(lambda) lives on four equal parts: value 1-lambda on the single cell
(row 2, column 1), lambda/4 on the bottom-right 2x2 block, zero elsewhere.
Its mean is 1/16 for every lambda, while the density of a fixed pattern
moves continuously in lambda, which is what the root-finder exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graphs import OrientedGraph, hom_to_edge_bipartition, underlying_has_cycle
from .stepgraphon import (
    StepGraphon,
    _map_sum,
    _numerators,
    cut_norm_centered,
    from_oriented,
    t_step,
)

LAMBDA_FAMILY_MEAN = Fraction(1, 16)
DEFAULT_PRECISION = Fraction(1, 2**40)
DEFAULT_GRID = 256
RATIONALIZE_DENOMINATOR = 2**16

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def w_lambda(lam) -> StepGraphon:
    """The four-part interpolating graphon; mean 1/16 for every lambda."""
    lam = _as_fraction(lam)
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0,1]")
    values = [[_ZERO] * 4 for _ in range(4)]
    values[1][0] = 1 - lam
    for i in (2, 3):
        for j in (2, 3):
            values[i][j] = lam / 4
    return StepGraphon([Fraction(1, 4)] * 4, values)


@dataclass(frozen=True)
class LambdaProfile:
    """Grid trace of t(B, W^(lambda)) with the located root, if any."""

    lambda_grid: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]
    target: Fraction
    lambda0: Optional[Fraction]


def find_lambda0(
    pattern: OrientedGraph,
    precision: Fraction = DEFAULT_PRECISION,
    *,
    grid: int = DEFAULT_GRID,
) -> LambdaProfile:
    """Locate lambda0 with t(B, W^(lambda0)) = (1/16)^e(B) up to ``precision``.

    Requires a pattern with no isolated vertices and no homomorphism onto a
    single edge; then the density is 0 at lambda = 0 and
    (1/2)^v * (1/4)^e >= (1/16)^e at lambda = 1, so a root exists.  The
    density is a polynomial in lambda and every grid evaluation is exact, so
    the scan brackets a genuine sign change (or hits a root exactly); the
    bracket is then bisected until the density sits within ``precision`` of
    the target.  Returns the smallest root located this way.
    """
    precision = _as_fraction(precision)
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
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

    def density(lam: Fraction) -> Fraction:
        return t_step(pattern, w_lambda(lam))

    grid_points = tuple(Fraction(i, grid) for i in range(grid + 1))
    densities = tuple(density(lam) for lam in grid_points)
    end0, end1 = densities[0], densities[-1]
    if end0 != 0:
        raise AssertionError("density at lambda=0 should vanish")
    if end1 != Fraction(1, 2) ** v * Fraction(1, 4) ** e or end1 < target:
        raise AssertionError("density at lambda=1 should be the closed form above the target")

    lambda0: Optional[Fraction] = None
    for i, (lam, val) in enumerate(zip(grid_points, densities)):
        f = val - target
        if f == 0:
            lambda0 = lam
            break
        if i + 1 <= grid and (densities[i + 1] - target) * f < 0:
            lo, f_lo = lam, f
            hi = grid_points[i + 1]
            # The density is Lipschitz on [0,1], so halving the bracket
            # drives |f| below the precision within ~log2(1/precision)
            # steps plus slack for the Lipschitz constant.
            inverse = _ONE / precision
            step_limit = 80 + (inverse.numerator // inverse.denominator).bit_length()
            for _ in range(step_limit):
                mid = (lo + hi) / 2
                f_mid = density(mid) - target
                if abs(f_mid) <= precision:
                    lambda0 = mid
                    break
                if (f_mid < 0) == (f_lo < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            if lambda0 is None:
                raise ArithmeticError("bisection failed to meet the precision")
            break
    if lambda0 is None:
        raise ValueError("no sign change bracketed on the grid; refine the grid")
    return LambdaProfile(grid_points, densities, target, lambda0)


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

def _map_cells(pattern: OrientedGraph, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge-cell indices for every assignment of pattern vertices to parts:
    two (maps, edges) integer arrays of row and column part indices."""
    edges = pattern.sorted_edges()
    rows, cols = [], []
    for g in product(range(parts), repeat=pattern.vertex_count):
        rows.append([g[u] for u, _ in edges])
        cols.append([g[v] for _, v in edges])
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def _float_t_and_grad(x: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                      scale: float) -> tuple[float, np.ndarray]:
    vals = x[rows, cols]
    m, e = vals.shape
    pre = np.ones_like(vals)
    if e > 1:
        pre[:, 1:] = np.cumprod(vals[:, :-1], axis=1)
        suf = np.ones_like(vals)
        suf[:, :-1] = np.cumprod(vals[:, :0:-1], axis=1)[:, ::-1]
    else:
        suf = np.ones_like(vals)
    others = pre * suf
    t = float(vals.prod(axis=1).sum()) * scale
    grad = np.zeros_like(x)
    np.add.at(grad, (rows, cols), others)
    return t, grad * scale


def _pgd_candidate(pattern: OrientedGraph, parts: int, p: float, seed: int,
                   step_size: float, max_iterations: int) -> np.ndarray:
    """One projected-gradient restart on the squared constraint residuals."""
    rng = np.random.default_rng(seed)
    rows, cols = _map_cells(pattern, parts)
    scale = 1.0 / parts ** pattern.vertex_count
    e = pattern.edge_count
    target_t = p ** e
    mean_coeff = 1.0 / parts ** 2

    def objective(x):
        t, grad_t = _float_t_and_grad(x, rows, cols, scale)
        mean = x.sum() * mean_coeff
        f = (t - target_t) ** 2 + (mean - p) ** 2
        grad = 2.0 * (t - target_t) * grad_t + 2.0 * (mean - p) * mean_coeff
        return f, grad

    x = rng.uniform(0.0, 1.0, size=(parts, parts))
    f, grad = objective(x)
    step = step_size
    for _ in range(max_iterations):
        if f < 1e-26 or step < 1e-14:
            break
        x_new = np.clip(x - step * grad, 0.0, 1.0)
        f_new, grad_new = objective(x_new)
        if f_new < f:
            x, f, grad = x_new, f_new, grad_new
        else:
            step *= 0.5
    return x


def _exact_density(pattern: OrientedGraph, values: list[list[Fraction]]) -> Fraction:
    """t(B, W) for the step graphon W on len(values) equal parts."""
    parts, v, edges = len(values), pattern.vertex_count, pattern.sorted_edges()
    num, d = _numerators(values)
    return Fraction(_map_sum(v, edges, [1] * parts, num), d ** len(edges) * parts ** v)


def _exact_density_gradient(pattern: OrientedGraph,
                            values: list[list[Fraction]]) -> dict[tuple[int, int], Fraction]:
    """Nonzero partial derivatives of ``_exact_density`` in the cell values.

    The derivative in a cell sums, over the edges, the density sum with that
    edge left out and its two endpoints mapped onto the cell.
    """
    parts, v, edges = len(values), pattern.vertex_count, pattern.sorted_edges()
    num, d = _numerators(values)
    sums: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate(edges):
        rest = edges[:i] + edges[i + 1:]
        for cell, sub in _map_sum(v, rest, [1] * parts, num, free=(a, b)).items():
            sums[cell] = sums.get(cell, 0) + sub
    scale = d ** (len(edges) - 1) * parts ** v
    return {cell: Fraction(sub, scale) for cell, sub in sums.items()}


def _rationalize(x: np.ndarray, denom: int) -> list[list[Fraction]]:
    k = x.shape[0]
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            q = Fraction(min(max(int(round(float(x[i, j]) * denom)), 0), denom), denom)
            row.append(q)
        out.append(row)
    return out


def _repair_mean(values: list[list[Fraction]], target_sum: Fraction) -> bool:
    """Shift cell values in place until they sum exactly to ``target_sum``."""
    k = len(values)
    deficit = target_sum - sum(sum(row) for row in values)
    for i in range(k):
        for j in range(k):
            if deficit == 0:
                return True
            new_val = min(max(values[i][j] + deficit, _ZERO), _ONE)
            deficit -= new_val - values[i][j]
            values[i][j] = new_val
    return deficit == 0


def _polish_density(pattern: OrientedGraph, values: list[list[Fraction]],
                    target_t: Fraction, tol: Fraction, denom: int,
                    rounds: int = 60) -> bool:
    """Drive the exact density residual below ``tol`` with mean-preserving
    two-cell moves on the 1/denom grid.

    Each move shifts one cell by +delta and another by -delta, so the mean
    stays exact; delta is the linearized correction rounded to the grid, and
    candidate moves are accepted only if the exactly recomputed residual
    shrinks.  Pairs with nearly equal sensitivities provide arbitrarily fine
    knobs, which is what lets the residual cross the tolerance despite the
    grid quantization.
    """
    parts = len(values)
    step = Fraction(1, denom)
    all_cells = [(i, j) for i in range(parts) for j in range(parts)]
    residual = _exact_density(pattern, values) - target_t
    for _ in range(rounds):
        if abs(residual) <= tol:
            return True
        grad = _exact_density_gradient(pattern, values)
        candidates = []
        for c_up in all_cells:
            g_up = grad.get(c_up, _ZERO)
            for c_down in all_cells:
                if c_down == c_up:
                    continue
                slope = g_up - grad.get(c_down, _ZERO)
                if slope == 0:
                    continue
                ideal = -residual / slope
                lo = floor(ideal * denom)
                for m in (lo, lo + 1):
                    delta = Fraction(m) * step
                    if delta == 0:
                        continue
                    if not (0 <= values[c_up[0]][c_up[1]] + delta <= 1):
                        continue
                    if not (0 <= values[c_down[0]][c_down[1]] - delta <= 1):
                        continue
                    predicted = abs(residual + slope * delta)
                    candidates.append((predicted, c_up, c_down, delta))
        if not candidates:
            return False
        candidates.sort(key=lambda item: (item[0], item[1], item[2], item[3]))
        improved = False
        for _, c_up, c_down, delta in candidates[:12]:
            values[c_up[0]][c_up[1]] += delta
            values[c_down[0]][c_down[1]] -= delta
            new_residual = _exact_density(pattern, values) - target_t
            if abs(new_residual) < abs(residual):
                residual = new_residual
                improved = True
                break
            values[c_up[0]][c_up[1]] -= delta
            values[c_down[0]][c_down[1]] += delta
        if not improved:
            return False
    return abs(residual) <= tol


def forcing_witness_search(
    pattern: OrientedGraph,
    p,
    parts: int = 4,
    tol=Fraction(1, 10**8),
    seed: int = 0,
    *,
    restarts: int = 16,
    step_size: float = 0.05,
    max_iterations: int = 2000,
) -> Optional[StepGraphon]:
    """Search for a non-constant step graphon W with mean p whose pattern
    density equals p^e(B), certifying the candidate in exact arithmetic.

    Pipeline per restart: a projected-gradient descent on the squared float
    residuals, rationalization of the candidate to the 1/2^16 grid, an exact
    mean repair, and an exact polish of the density residual by moves on the
    grid.  Every cell of a witness lies on the 1/2^16 grid except at most
    one, which absorbs the exact mean remainder: when p * parts^2 is not a
    multiple of 1/2^16, no matrix on the grid has mean exactly p.  A candidate
    counts as a witness only if, after rationalization, |t(B,W) - p^e| <= tol,
    |mean(W) - p| <= tol, and the centered cut norm is at least 10*tol, all
    verified with rationals.  Returns the lexicographically smallest certified
    witness across restarts, or None if every restart fails.
    """
    p_exact = _as_fraction(p)
    if not 0 < p_exact < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if not 1 <= parts <= 8:
        raise ValueError(f"witness search needs 1..8 parts (got {parts})")
    tol_exact = _as_fraction(tol)
    v, e = pattern.vertex_count, pattern.edge_count
    if v == 0 or e == 0:
        raise ValueError("pattern must have at least one edge")

    target_t = p_exact ** e
    target_sum = p_exact * parts * parts
    separation_floor = 10 * tol_exact

    witnesses = []
    for r in range(restarts):
        x = _pgd_candidate(pattern, parts, float(p_exact), seed + r,
                           step_size, max_iterations)
        values = _rationalize(x, RATIONALIZE_DENOMINATOR)
        if not _repair_mean(values, target_sum):
            continue
        if not _polish_density(pattern, values, target_t, tol_exact,
                               RATIONALIZE_DENOMINATOR):
            continue
        w = StepGraphon([Fraction(1, parts)] * parts, values)
        if abs(t_step(pattern, w) - target_t) > tol_exact:
            continue
        if abs(w.integral() - p_exact) > tol_exact:
            continue
        if cut_norm_centered(w, p_exact).value < separation_floor:
            continue
        witnesses.append(w)
    if not witnesses:
        return None
    return min(witnesses, key=lambda w: tuple(x for row in w.values for x in row))
