"""Brute-force tournament statistics: impartiality and anti-Sidorenko checks.

"Copies" means labeled copies (injective edge-preserving maps), matching the
copy-count form of the density definitions; impartiality over labeled
tournaments is equivalent to impartiality over isomorphism classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import parallel
from .counting import _compile, _count_maps, labeled_copies
from .graphs import (
    EnumerationCapExceeded,
    OrientedGraph,
    Tournament,
    _tournament_mask_range,
    tournament_count,
    tournament_from_index,
)
from .sidorenko import HOLDS, VIOLATED, CheckReport, CheckWitness

DEFAULT_IMPARTIALITY_CAP = 6
DEFAULT_ANTI_SIDORENKO_CAP = 5


def copies_in_tournament(pattern: OrientedGraph, tournament: Tournament) -> int:
    """Labeled copies of the pattern in the tournament."""
    return labeled_copies(pattern, tournament.as_oriented())


@dataclass(frozen=True)
class TournamentStats:
    """Distribution of a pattern's copy count across all labeled tournaments.

    ``counts`` is a histogram mapping copy count to the number of labeled
    tournaments attaining it; its total is 2^C(n,2).
    """

    n: int
    counts: dict[int, int]
    min: int
    max: int
    constant: bool

    @property
    def tournaments_checked(self) -> int:
        return sum(self.counts.values())


def _impartiality_chunk(task) -> dict[int, int]:
    """Copy-count histogram of the tournaments with indices in [lo, hi),
    counted on their decoded masks."""
    pattern, n, lo, hi = task
    steps = _compile(pattern)
    hist: dict[int, int] = {}
    for out_mask, in_mask, _ in _tournament_mask_range(n, lo, hi):
        c = _count_maps(steps, out_mask, in_mask, injective=True)
        hist[c] = hist.get(c, 0) + 1
    return hist


def impartiality_check(
    pattern: OrientedGraph,
    n: int,
    *,
    cap: int = DEFAULT_IMPARTIALITY_CAP,
    workers: Optional[int] = None,
) -> TournamentStats:
    """Copy-count histogram over every labeled tournament on n vertices;
    ``constant=True`` certifies impartiality at this n."""
    if n > cap:
        raise EnumerationCapExceeded(f"n={n} exceeds impartiality cap {cap}")
    workers = parallel.resolve_workers(workers)
    total = tournament_count(n)
    tasks = [(pattern, n, lo, hi)
             for lo, hi in parallel.split_range(0, total, workers * 4)]
    hist: dict[int, int] = {}
    for part in parallel.map_tasks(_impartiality_chunk, tasks, workers):
        for value, times in part.items():
            hist[value] = hist.get(value, 0) + times
    lo, hi = min(hist), max(hist)
    return TournamentStats(n=n, counts=hist, min=lo, max=hi, constant=lo == hi)


def _anti_sidorenko_chunk(task) -> tuple[int, int]:
    """Return (max hom count, index of the first maximizer) over a range."""
    pattern, n, lo, hi = task
    steps = _compile(pattern)
    best = -1
    best_index = -1
    for index, (out_mask, in_mask, _) in enumerate(_tournament_mask_range(n, lo, hi), lo):
        c = _count_maps(steps, out_mask, in_mask)
        if c > best:
            best = c
            best_index = index
    return best, best_index


def anti_sidorenko_check(
    pattern: OrientedGraph,
    n: int,
    *,
    cap: int = DEFAULT_ANTI_SIDORENKO_CAP,
    workers: Optional[int] = None,
) -> CheckReport:
    """Verify t(B,T) <= (1/2)^e(B) over all labeled tournaments on n vertices.

    The witness always carries the maximizing tournament (earliest index on
    ties), its density as ``lhs``, and the random-orientation bound as
    ``rhs``; the margin is the slack rhs - lhs, negative exactly on
    violation.
    """
    if n > cap:
        raise EnumerationCapExceeded(f"n={n} exceeds anti-Sidorenko cap {cap}")
    if n < 1:
        raise ValueError("need at least one vertex")
    workers = parallel.resolve_workers(workers)
    total = tournament_count(n)
    tasks = [(pattern, n, lo, hi)
             for lo, hi in parallel.split_range(0, total, workers * 4)]
    best = -1
    best_index = -1
    for chunk_best, chunk_index in parallel.map_tasks(_anti_sidorenko_chunk, tasks, workers):
        if chunk_best > best:
            best = chunk_best
            best_index = chunk_index
    max_density = Fraction(best, n ** pattern.vertex_count)
    bound = Fraction(1, 2) ** pattern.edge_count
    margin = bound - max_density
    witness = CheckWitness(
        host=tournament_from_index(n, best_index),
        lhs=max_density,
        rhs=bound,
        margin=margin,
        relation="<=",
    )
    return CheckReport(
        property_name="tournament-anti-sidorenko",
        verdict=VIOLATED if margin < 0 else HOLDS,
        witness=witness,
        instances_checked=total,
    )
