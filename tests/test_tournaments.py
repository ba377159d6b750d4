from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphon import (
    HOLDS,
    VIOLATED,
    EnumerationCapExceeded,
    OrientedGraph,
    Tournament,
    anti_sidorenko_check,
    copies_in_tournament,
    impartiality_check,
)
from digraphon.counting import labeled_copies
from digraphon.graphs import (
    oriented_graph_count,
    oriented_graph_from_index,
    tournament_count,
    tournament_from_index,
)

from oracles import brute_copies_directed, brute_hom_directed

EDGE = OrientedGraph(2, [(0, 1)])
PATH3 = OrientedGraph(3, [(0, 1), (1, 2)])
PATH4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
TRIANGLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
IMPARTIAL4 = OrientedGraph(4, [(0, 1), (2, 3), (0, 2)])
STAR3 = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])

CYCLIC_T3 = Tournament(3, [(0, 1), (1, 2), (2, 0)])
TRANSITIVE_T3 = Tournament(3, [(0, 1), (0, 2), (1, 2)])


class TestCopies:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_edge_counts_pairs(self, n):
        for idx in (0, tournament_count(n) - 1):
            t = tournament_from_index(n, idx)
            assert copies_in_tournament(EDGE, t) == comb(n, 2)

    def test_triangle_in_cyclic(self):
        assert copies_in_tournament(TRIANGLE, CYCLIC_T3) == 3

    def test_triangle_in_transitive(self):
        assert copies_in_tournament(TRIANGLE, TRANSITIVE_T3) == 0

    @pytest.mark.parametrize("pattern", [EDGE, PATH3, TRIANGLE, IMPARTIAL4])
    def test_tournament_is_counted_as_its_oriented_graph(self, pattern):
        for idx in range(tournament_count(4)):
            t = tournament_from_index(4, idx)
            assert labeled_copies(pattern, t) == labeled_copies(pattern, t.as_oriented())

    def test_reversal_duality(self):
        # copies(B,T) + copies(B, rev T) is unchanged when B is reversed.
        patterns = [PATH3, TRIANGLE, IMPARTIAL4]
        for pattern in patterns:
            rev = pattern.reverse()
            for idx in range(tournament_count(4)):
                t = tournament_from_index(4, idx)
                lhs = copies_in_tournament(pattern, t) + \
                    copies_in_tournament(pattern, t.reverse())
                rhs = copies_in_tournament(rev, t) + \
                    copies_in_tournament(rev, t.reverse())
                assert lhs == rhs


class TestImpartiality:
    def test_known_impartial_pattern(self):
        stats = impartiality_check(IMPARTIAL4, 4)
        assert stats.constant
        assert stats.tournaments_checked == 64

    def test_triangle_not_impartial(self):
        stats = impartiality_check(TRIANGLE, 3)
        assert not stats.constant
        assert stats.min == 0 and stats.max == 3
        assert stats.counts == {0: 6, 3: 2}

    def test_single_vertex(self):
        stats = impartiality_check(OrientedGraph(1), 5)
        assert stats.constant and stats.min == stats.max == 5

    def test_histogram_totals(self):
        stats = impartiality_check(PATH3, 4)
        assert stats.tournaments_checked == 2 ** comb(4, 2)

    def test_reversal_closure(self):
        for pattern in (PATH3, TRIANGLE, IMPARTIAL4):
            a = impartiality_check(pattern, 4).constant
            b = impartiality_check(pattern.reverse(), 4).constant
            assert a == b

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            impartiality_check(EDGE, 7)

    def test_workers_agree(self):
        seq = impartiality_check(PATH3, 4, workers=1)
        par = impartiality_check(PATH3, 4, workers=2)
        assert seq == par


class TestAntiSidorenko:
    def test_path_on_three(self):
        report = anti_sidorenko_check(PATH3, 3)
        assert report.verdict == HOLDS
        assert report.witness.lhs == Fraction(3, 27)
        assert report.witness.rhs == Fraction(1, 4)
        assert report.witness.margin == report.witness.rhs - report.witness.lhs

    def test_triangle_small_sizes(self):
        for n in (3, 4, 5):
            report = anti_sidorenko_check(TRIANGLE, n)
            assert report.verdict == HOLDS

    def test_single_edge(self):
        report = anti_sidorenko_check(EDGE, 2)
        assert report.verdict == HOLDS
        assert report.witness.lhs == Fraction(1, 4)
        assert report.witness.rhs == Fraction(1, 2)

    def test_out_star_violated_on_five(self):
        # In the transitive tournament on 5 vertices the out-star with three
        # leaves has 4^3 + 3^3 + 2^3 + 1^3 = 100 homomorphisms: 100/5^4 =
        # 4/25 is above 2^-3.  It is index 0, the earliest densest one.
        report = anti_sidorenko_check(STAR3, 5)
        assert report.verdict == VIOLATED and report.violated
        assert report.instances_checked == 1024 and report.complete
        wit = report.witness
        assert wit.host == tournament_from_index(5, 0)
        assert wit.host == Tournament(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert (wit.lhs, wit.rhs, wit.margin, wit.relation) == \
            (Fraction(4, 25), Fraction(1, 8), Fraction(-7, 200), "<=")

    def test_witness_is_maximizer(self):
        report = anti_sidorenko_check(PATH3, 3)
        host = report.witness.host
        from digraphon import t_directed

        assert t_directed(PATH3, host.as_oriented()) == report.witness.lhs

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            anti_sidorenko_check(PATH3, 6)

    def test_workers_agree(self):
        seq = anti_sidorenko_check(PATH4, 4, workers=1)
        par = anti_sidorenko_check(PATH4, 4, workers=2)
        assert seq.witness.lhs == par.witness.lhs
        assert seq.witness.host == par.witness.host


@st.composite
def small_patterns(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return oriented_graph_from_index(n, draw(st.integers(0, oriented_graph_count(n) - 1)))


class TestScansAgainstBruteForce:
    """Both tournament scans against a loop that builds every tournament
    and counts by brute force, at one, two and three workers."""

    @settings(max_examples=12, deadline=None)
    @given(small_patterns())
    def test_impartiality_histogram(self, pattern):
        n = 4
        expected: dict[int, int] = {}
        for bits in range(tournament_count(n)):
            c = brute_copies_directed(pattern, Tournament.from_bits(n, bits).as_oriented())
            expected[c] = expected.get(c, 0) + 1
        for workers in (1, 2, 3):
            stats = impartiality_check(pattern, n, workers=workers)
            assert stats.counts == expected
            assert (stats.min, stats.max) == (min(expected), max(expected))

    @settings(max_examples=12, deadline=None)
    @given(small_patterns())
    def test_anti_sidorenko_maximiser(self, pattern):
        n = 4
        best, best_bits = -1, -1
        for bits in range(tournament_count(n)):
            c = brute_hom_directed(pattern, Tournament.from_bits(n, bits).as_oriented())
            if c > best:
                best, best_bits = c, bits
        for workers in (1, 2, 3):
            report = anti_sidorenko_check(pattern, n, workers=workers)
            assert report.witness.host == Tournament.from_bits(n, best_bits)
            assert report.witness.lhs == Fraction(best, n ** pattern.vertex_count)
            assert report.instances_checked == tournament_count(n)
