"""Checkers for the directed and asymmetric Sidorenko properties.

Every comparison is exact rational arithmetic; reports carry the margin
(how far the instance is from violating the inequality) so a verdict can
always be recomputed from its witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
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
    _WARNED,
    StepGraphon,
    _part_oriented,
    _priced_terms,
    _warn_if_large,
    random_graphon,
    t_bip_step,
    t_step,
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


def _report(name: str, min_margin: Optional[Fraction], witness: Optional[CheckWitness],
            checked: int, complete: bool = True) -> CheckReport:
    violated = min_margin is not None and min_margin < 0
    return CheckReport(
        property_name=name,
        verdict=VIOLATED if violated else HOLDS,
        witness=witness if violated else None,
        instances_checked=checked,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# Directed Sidorenko: t(B, G) >= t(edge, G)^e(B)
# ---------------------------------------------------------------------------

def directed_sidorenko_margin(pattern: OrientedGraph, host: OrientedGraph) -> CheckWitness:
    lhs = t_directed(pattern, host)
    edge_density = Fraction(host.edge_count, host.vertex_count ** 2)
    rhs = edge_density ** pattern.edge_count
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
    best_margin: Optional[Fraction] = None
    best_host = (0, 0)
    for n in range(1, n_max + 1):
        total = oriented_graph_count(n)
        count = min(total, remaining)
        remaining -= count
        tally = _tally(pattern, n, count, _ORIENTED_STATES, False, workers)
        if tally:
            checked += sum(hosts for hosts, _ in tally.values())
            # Every host on n vertices shares the denominator n^(v+2e) of its
            # margin t(B,G) - (e_G/n^2)^e, so the minimum is taken over the
            # integer numerators hom*n^(2e) - e_G^e*n^v; ties keep the
            # earliest index.
            hom_scale, edge_scale = n ** (2 * e), n ** v
            numerator, index = min((hom * hom_scale - edges ** e * edge_scale, first)
                                   for (hom, edges), (_, first) in tally.items())
            margin = Fraction(numerator, n ** (v + 2 * e))
            if best_margin is None or margin < best_margin:
                best_margin = margin
                best_host = (n, index)
        if count < total:
            # The cap cut this size short; larger sizes are not even counted.
            complete = False
            break
    witness = None
    if best_margin is not None and best_margin < 0:
        witness = directed_sidorenko_margin(pattern, oriented_graph_from_index(*best_host))
    return _report("directed-sidorenko", best_margin, witness, checked, complete)


def _graphon_witness(density, pattern, w: StepGraphon) -> CheckWitness:
    lhs = density(pattern, w)
    rhs = w.integral() ** pattern.edge_count
    return CheckWitness(w, lhs, rhs, lhs - rhs)


def check_directed_sidorenko_graphon(pattern: OrientedGraph, w: StepGraphon) -> CheckReport:
    """Test t(B, W) >= (integral W)^e(B) for a single step graphon."""
    wit = _graphon_witness(t_step, pattern, w)
    return _report("directed-sidorenko-graphon", wit.margin, wit, 1)


def _random_batch(name: str, density, pattern, instances: int, parts: int,
                  seed: int, denominator: int) -> CheckReport:
    """The graphon check over seeded random rational graphons, reporting
    the minimal margin (earliest graphon on ties)."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = random.Random(seed)
    best: Optional[CheckWitness] = None
    for _ in range(instances):
        w = random_graphon(parts, rng=rng, denominator=denominator)
        wit = _graphon_witness(density, pattern, w)
        if best is None or wit.margin < best.margin:
            best = wit
    return _report(name, None if best is None else best.margin, best, instances)


def check_directed_sidorenko_random(
    pattern: OrientedGraph,
    *,
    instances: int = 1000,
    parts: int = 4,
    seed: int = DEFAULT_SEED,
    denominator: int = DEFAULT_BATCH_DENOMINATOR,
) -> CheckReport:
    """Batch the graphon check over seeded random rational graphons."""
    return _random_batch("directed-sidorenko-random", t_step, pattern, instances,
                         parts, seed, denominator)


# ---------------------------------------------------------------------------
# Asymmetric Sidorenko: t_bip(A, W) >= (integral W)^e(A)
# ---------------------------------------------------------------------------

def check_asym_sidorenko(pattern: BipartiteGraph, w: StepGraphon) -> CheckReport:
    wit = _graphon_witness(t_bip_step, pattern, w)
    return _report("asymmetric-sidorenko", wit.margin, wit, 1)


def check_asym_sidorenko_random(
    pattern: BipartiteGraph,
    *,
    instances: int = 1000,
    parts: int = 4,
    seed: int = DEFAULT_SEED,
    denominator: int = DEFAULT_BATCH_DENOMINATOR,
) -> CheckReport:
    return _random_batch("asymmetric-sidorenko-random", t_bip_step, pattern, instances,
                         parts, seed, denominator)


# ---------------------------------------------------------------------------
# Bridge: the directed and bipartite margins agree instance by instance
# ---------------------------------------------------------------------------

def check_equivalence_bridge(pattern: BipartiteGraph, w: StepGraphon) -> CheckReport:
    """Assert the directed check on the part-oriented pattern and the
    bipartite check on the pattern itself produce identical margins on W.

    This evaluates the paper's margin identity on W.  Both margins subtract
    the same (integral W)^e, so they are equal exactly when the two
    densities are: the bridge compares the densities, and computes the
    mean and the margins only for the witness of a violation.  Both sides
    run through the same exact map-sum engine, so it is not a cross-check
    of two implementations: the brute-force sums in ``tests/oracles.py``
    check each.  Both densities read the integer form that W built when it
    was constructed and share its value tables and one cached
    part-oriented pattern, so none of them is rebuilt here.  Their sums
    price alike, so a large one is warned of once, at the caller.
    """
    oriented = _part_oriented(pattern)
    warned = _warn_if_large(_priced_terms(oriented, w.num_parts), 3) and _WARNED.set(True)
    try:
        d = t_step(oriented, w)
        b = t_bip_step(pattern, w)
    finally:
        if warned:
            _WARNED.reset(warned)
    witness = None
    if d != b:
        bound = w.integral() ** pattern.edge_count
        witness = CheckWitness(w, d - bound, b - bound, -abs(d - b))
    return CheckReport(
        property_name="directed-bipartite-margin-bridge",
        verdict=HOLDS if witness is None else VIOLATED,
        witness=witness,
        instances_checked=1,
    )


# ---------------------------------------------------------------------------
# Second directed Sidorenko: t(B,G) >= 2^-e(B) * t(underlying B, underlying G)
# ---------------------------------------------------------------------------

def check_second_sidorenko(pattern: OrientedGraph, host: OrientedGraph) -> CheckReport:
    lhs = t_directed(pattern, host)
    rhs = Fraction(1, 2) ** pattern.edge_count * t_undirected(underlying(pattern), underlying(host))
    wit = CheckWitness(host, lhs, rhs, lhs - rhs)
    return _report("second-directed-sidorenko", wit.margin, wit, 1)
