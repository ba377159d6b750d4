"""Checkers for the directed and asymmetric Sidorenko properties.

Every comparison is exact; reports carry the margin (how far the instance
is from violating the inequality) so a verdict can always be recomputed
from its witness.  The directed and asymmetric checks are one inequality,
t(H, W) >= (integral W)^e, decided in one place: `_margin` is its
integer numerator from a density's and a mean's integer totals over
their host's denominators, and `_witness` builds the fractions of one
violating instance.  A graph host on n vertices is the case of n equal
parts with 0/1 values: its hom count over n^v and its edge count over
n^2.  The exhaustive scan reads both from its tally keys, the graphon
checks and the bridge from W's integer form, and the random batches from
each instance's integer cells, so only a violation builds fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .counting import _tally, t_directed, t_undirected
from .graphs import (
    _ORIENTED_STATES,
    BipartiteGraph,
    OrientedGraph,
    oriented_graph_count,
    oriented_graph_from_index,
    underlying,
)
from .stepgraphon import (
    StepGraphon,
    _density_total,
    _equal_parts_graphon,
    _exact_density,
    _part_oriented,
    _priced_terms,
    _random_cells,
    _warn_if_large,
)

HOLDS = "holds-on-family"
VIOLATED = "violated"

DEFAULT_SEED = 0
DEFAULT_BATCH_DENOMINATOR = 64
INSTANCE_CAP = 10**6


@dataclass(frozen=True)
class CheckWitness:
    """One concrete instance: host object, both sides of the inequality,
    and the slack ``margin`` (negative exactly when the instance violates).

    ``relation`` records which way the checked inequality points, so the
    margin is lhs - rhs for ">=" checks and rhs - lhs for "<=" checks.
    """

    host: object
    lhs: Fraction
    rhs: Fraction
    margin: Fraction
    relation: str = ">="


@dataclass(frozen=True)
class CheckReport:
    property_name: str
    verdict: str
    witness: Optional[CheckWitness]
    instances_checked: int
    complete: bool = True  # False when a cap cut the family short

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED


def _report(name: str, witness: Optional[CheckWitness], checked: int,
            complete: bool = True) -> CheckReport:
    """The report of a check that is violated, by ``witness``, or that
    holds when ``witness`` is None."""
    return CheckReport(name, HOLDS if witness is None else VIOLATED, witness, checked, complete)


# ---------------------------------------------------------------------------
# Directed Sidorenko: t(B, G) >= t(edge, G)^e(B) on graphs, and
# t(B, W) >= (integral W)^e(B) on graphons, decided in integers
# ---------------------------------------------------------------------------

def _margin(total: int, mean: int, d: int, v: int, e: int) -> int:
    """The margin t - m^e times d^(v+2e) * dv^e, for a density t = total /
    (d^v * dv^e) and a mean m = mean / (d^2 * dv): negative exactly when
    the instance violates.  A graph host on n vertices is d = n, dv = 1,
    its hom count and its edge count."""
    return total * d ** (2 * e) - mean ** e * d ** v


def _witness(host: object, total: int, mean: int, d: int, dv: int, v: int, e: int) -> CheckWitness:
    """The witness of the instance whose `_margin` is read from ``total``
    and ``mean``: t, m^e and their difference as fractions."""
    lhs, rhs = Fraction(total, d ** v * dv ** e), Fraction(mean, d * d * dv) ** e
    return CheckWitness(host, lhs, rhs, lhs - rhs)


def check_directed_sidorenko_exhaustive(
    pattern: OrientedGraph,
    n_max: int,
    *,
    instance_cap: int = INSTANCE_CAP,
    workers: Optional[int] = None,
) -> CheckReport:
    """Test t(B,G) >= t(edge,G)^e(B) over all labeled oriented hosts with
    1..``n_max`` vertices (up to ``instance_cap`` hosts; the report is
    marked incomplete when the cap cuts the scan short).  ``n_max`` and
    ``instance_cap`` must be at least 1.

    The reported witness is the host with the most negative margin, scanning
    hosts by vertex count and then by enumeration index; ties keep the
    earliest host, so results do not depend on the worker count.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if instance_cap < 1:
        raise ValueError(f"instance_cap must be at least 1, got {instance_cap}")
    v, e = pattern.vertex_count, pattern.edge_count
    remaining = instance_cap
    complete = True
    checked = 0
    best = None
    for n in range(1, n_max + 1):
        total = oriented_graph_count(n)
        count = min(total, remaining)
        remaining -= count
        tally = _tally(pattern, n, count, _ORIENTED_STATES, False, workers)
        if tally:
            checked += sum(hosts for hosts, _ in tally.values())
            # Every host on n vertices shares the denominator n^(v+2e) of its
            # margin, so the minimum is taken over the `_margin` numerators;
            # ties keep the earliest index.
            numerator, index, hom, edges = min(
                (_margin(hom, edges, n, v, e), first, hom, edges)
                for (hom, edges), (_, first) in tally.items())
            margin = Fraction(numerator, n ** (v + 2 * e))
            if best is None or margin < best[0]:
                best = (margin, n, index, hom, edges)
        if count < total:
            # The cap cut this size short; larger sizes are not even counted.
            complete = False
            break
    witness = None
    if best is not None and best[0] < 0:
        # The tally key holds the witness's hom and edge counts.
        _, n, index, hom, edges = best
        witness = _witness(oriented_graph_from_index(n, index), hom, edges, n, 1, v, e)
    return _report("directed-sidorenko", witness, checked, complete)


@lru_cache(maxsize=None)
def _holding_report(name: str) -> CheckReport:
    """The one report of a graphon check ``name`` that holds: reports are
    frozen, so every check that holds returns it."""
    return CheckReport(name, HOLDS, None, 1)


def _graphon_check(name: str, pattern: OrientedGraph, w: StepGraphon) -> CheckReport:
    """Test t(pattern, W) >= (integral W)^e on one graphon: one priced sum,
    W's kept mean and the sign of their `_margin`, with a witness only for
    a violation."""
    # Frames up from the warning: `_warn_if_large`, this, the public
    # check, its caller.
    _warn_if_large(_priced_terms(pattern, w.num_parts), 4)
    v, e = pattern.vertex_count, pattern.edge_count
    _, dl, _, dv = w._form
    total, mean = _density_total(pattern, w), w._mean
    if _margin(total, mean, dl, v, e) >= 0:
        return _holding_report(name)
    return _report(name, _witness(w, total, mean, dl, dv, v, e), 1)


def check_directed_sidorenko_graphon(pattern: OrientedGraph, w: StepGraphon) -> CheckReport:
    """Test t(B, W) >= (integral W)^e(B) for a single step graphon."""
    return _graphon_check("directed-sidorenko-graphon", pattern, w)


def _random_batch(name: str, pattern: OrientedGraph, instances: int, parts: int,
                  seed: int, denominator: int) -> CheckReport:
    """The graphon check over seeded random graphons on equal parts, its
    sums priced once.  Each instance is the integer cells that
    `random_graphon` would draw from the same stream, summed without
    building a graphon; all instances share d = parts and dv =
    denominator, so the least `_margin` numerator is the least margin
    (earliest instance on ties), and only a violated batch builds a
    graphon, for its witness."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    _warn_if_large(_priced_terms(pattern, parts), 4)
    v, e = pattern.vertex_count, pattern.edge_count
    rng = random.Random(seed)
    best = None
    for _ in range(instances):
        cells = _random_cells(parts, denominator, rng)
        total, mean = _exact_density(pattern, cells), sum(map(sum, cells))
        margin = _margin(total, mean, parts, v, e)
        if best is None or margin < best[0]:
            best = (margin, cells, total, mean)
    margin, cells, total, mean = best
    if margin >= 0:
        return _report(name, None, instances)
    w = _equal_parts_graphon(cells, denominator)
    return _report(name, _witness(w, total, mean, parts, denominator, v, e), instances)


def check_directed_sidorenko_random(
    pattern: OrientedGraph,
    *,
    instances: int = 1000,
    parts: int = 4,
    seed: int = DEFAULT_SEED,
    denominator: int = DEFAULT_BATCH_DENOMINATOR,
) -> CheckReport:
    """Batch the graphon check over seeded random rational graphons."""
    return _random_batch("directed-sidorenko-random", pattern, instances, parts, seed,
                         denominator)


# ---------------------------------------------------------------------------
# Asymmetric Sidorenko: t_bip(A, W) >= (integral W)^e(A)
# ---------------------------------------------------------------------------

def check_asym_sidorenko(pattern: BipartiteGraph, w: StepGraphon) -> CheckReport:
    return _graphon_check("asymmetric-sidorenko", _part_oriented(pattern), w)


def check_asym_sidorenko_random(
    pattern: BipartiteGraph,
    *,
    instances: int = 1000,
    parts: int = 4,
    seed: int = DEFAULT_SEED,
    denominator: int = DEFAULT_BATCH_DENOMINATOR,
) -> CheckReport:
    return _random_batch("asymmetric-sidorenko-random", _part_oriented(pattern), instances,
                         parts, seed, denominator)


# ---------------------------------------------------------------------------
# Bridge: the directed margin of the part-oriented pattern is the bipartite
# margin of the pattern, so one density sum decides both
# ---------------------------------------------------------------------------

def check_equivalence_bridge(pattern: BipartiteGraph, w: StepGraphon) -> CheckReport:
    """Decide the margin that the directed check of the part-oriented
    pattern and the asymmetric check of ``pattern`` share on W, with one
    density sum.

    The part-oriented pattern H directs every edge of B from part 1 to
    part 2, so t(H, W) = t_bip(B, W) by definition, and both margins
    subtract the same (integral W)^e: they are one number.  The bridge sums
    it once, as the density of H (the sum `t_bip_step` runs), and decides
    it as `check_asym_sidorenko` does, by the sign of its `_margin`: the
    density's numerator over W's integer form against the mean's, which W
    keeps.  A margin of at least 0 HOLDS, and returns the one report that
    every holding bridge shares, with no witness; a negative one is
    VIOLATED, and only then are t_bip, (integral W)^e, their difference
    and the witness built as fractions.  The sum reads the integer form
    that W built when it was constructed, the tables that W keeps from
    its first density and the cached part-oriented pattern, and a large
    one is warned of once, at the caller.  The brute-force sums in
    ``tests/oracles.py`` check the density and the mean independently.
    """
    return _graphon_check("directed-bipartite-margin-bridge", _part_oriented(pattern), w)


# ---------------------------------------------------------------------------
# Second directed Sidorenko: t(B,G) >= 2^-e(B) * t(underlying B, underlying G)
# ---------------------------------------------------------------------------

def check_second_sidorenko(pattern: OrientedGraph, host: OrientedGraph) -> CheckReport:
    lhs = t_directed(pattern, host)
    rhs = Fraction(1, 2) ** pattern.edge_count * t_undirected(underlying(pattern), underlying(host))
    wit = CheckWitness(host, lhs, rhs, lhs - rhs)
    return _report("second-directed-sidorenko", wit if wit.margin < 0 else None, 1)
