"""Brute-force tournament statistics: impartiality and anti-Sidorenko checks.

"Copies" means labeled copies (injective edge-preserving maps), matching the
copy-count form of the density definitions; impartiality over labeled
tournaments is equivalent to impartiality over isomorphism classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .counting import _tally, labeled_copies
from .graphs import (
    _TOURNAMENT_STATES,
    EnumerationCapExceeded,
    OrientedGraph,
    Tournament,
    tournament_count,
    tournament_from_index,
)
from .sidorenko import CheckReport, CheckWitness, _report

DEFAULT_IMPARTIALITY_CAP = 6
DEFAULT_ANTI_SIDORENKO_CAP = 5


def copies_in_tournament(pattern: OrientedGraph, tournament: Tournament) -> int:
    """Labeled copies of the pattern in the tournament."""
    return labeled_copies(pattern, tournament)


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
    tally = _tally(pattern, n, tournament_count(n), _TOURNAMENT_STATES, True, workers)
    # Every tournament on n vertices has the same edge count, so the tally
    # keys differ only in the copy count.
    hist = {copies: hosts for (copies, _), (hosts, _) in tally.items()}
    lo, hi = min(hist), max(hist)
    return TournamentStats(n=n, counts=hist, min=lo, max=hi, constant=lo == hi)


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
    ``rhs``; the margin is the slack rhs - lhs, and `sidorenko._report`
    reads the verdict from its sign.
    """
    if n > cap:
        raise EnumerationCapExceeded(f"n={n} exceeds anti-Sidorenko cap {cap}")
    if n < 1:
        raise ValueError("need at least one vertex")
    total = tournament_count(n)
    tally = _tally(pattern, n, total, _TOURNAMENT_STATES, False, workers)
    # The densest tournament: the most homomorphisms, earliest index on ties.
    least, first = min((-hom, first) for (hom, _), (_, first) in tally.items())
    lhs, rhs = Fraction(-least, n ** pattern.vertex_count), Fraction(1, 2) ** pattern.edge_count
    witness = CheckWitness(tournament_from_index(n, first), lhs, rhs, rhs - lhs, "<=")
    return _report("tournament-anti-sidorenko", witness, total)
