import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphon import (
    OrientedGraph,
    StepGraphon,
    cut_norm_centered,
    find_lambda0,
    forcing_witness_search,
    necessary_conditions,
    oriented_knn,
    quasirandom_trace,
    t_step,
    w_lambda,
)
from digraphon.forcing import _exact_density, _exact_density_gradient

from oracles import brute_t_gradient, brute_t_step

EDGE = OrientedGraph(2, [(0, 1)])
PATH3 = OrientedGraph(3, [(0, 1), (1, 2)])
TRIANGLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
DIRECTED_C4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
ALT_C4 = OrientedGraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])

SIXTEENTH = Fraction(1, 16)
PRECISION = Fraction(1, 2**40)


def closed_form_at_one(pattern):
    return Fraction(1, 2) ** pattern.vertex_count * Fraction(1, 4) ** pattern.edge_count


class TestLambdaFamily:
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 4), Fraction(1, 3),
                                     Fraction(1, 2), Fraction(3, 4), Fraction(1)])
    def test_mean_is_constant(self, lam):
        assert w_lambda(lam).integral() == SIXTEENTH

    def test_lambda_zero_shape(self):
        w = w_lambda(0)
        assert w.values[1][0] == 1
        assert sum(1 for row in w.values for x in row if x != 0) == 1

    def test_lambda_one_shape(self):
        w = w_lambda(1)
        assert w.values[1][0] == 0
        for i in (2, 3):
            for j in (2, 3):
                assert w.values[i][j] == Fraction(1, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            w_lambda(Fraction(3, 2))
        with pytest.raises(ValueError):
            w_lambda(Fraction(-1, 2))

    @pytest.mark.parametrize("pattern", [TRIANGLE, PATH3, DIRECTED_C4])
    def test_closed_form_at_one(self, pattern):
        assert t_step(pattern, w_lambda(1)) == closed_form_at_one(pattern)

    @pytest.mark.parametrize("pattern", [TRIANGLE, PATH3, DIRECTED_C4])
    def test_density_vanishes_at_zero(self, pattern):
        assert t_step(pattern, w_lambda(0)) == 0

    def test_triangle_density_polynomial(self):
        # Only all-in-block maps survive, so t = lambda^3 / 512.
        for num in range(5):
            lam = Fraction(num, 4)
            assert t_step(TRIANGLE, w_lambda(lam)) == lam ** 3 / 512

    def test_never_constant(self):
        for num in range(0, 9):
            lam = Fraction(num, 8)
            assert cut_norm_centered(w_lambda(lam), SIXTEENTH).value > 0


class TestFindLambda0:
    def test_triangle_has_exact_rational_root(self):
        profile = find_lambda0(TRIANGLE, PRECISION)
        assert profile.lambda0 == Fraction(1, 2)
        assert profile.target == SIXTEENTH ** 3
        assert t_step(TRIANGLE, w_lambda(profile.lambda0)) == profile.target

    def test_triangle_endpoints_bracket(self):
        profile = find_lambda0(TRIANGLE, PRECISION)
        assert profile.densities[0] == 0
        assert profile.densities[-1] == Fraction(1, 512)
        assert profile.densities[-1] >= profile.target

    def test_path_root_by_bisection(self):
        # t(path, W^(lambda)) = lambda^2 / 128, so the root is irrational
        # (1/sqrt(2)) and only reachable by bisection.
        profile = find_lambda0(PATH3, PRECISION)
        lam = profile.lambda0
        assert abs(t_step(PATH3, w_lambda(lam)) - Fraction(1, 256)) <= PRECISION
        assert abs(lam * lam - Fraction(1, 2)) < Fraction(1, 2**30)

    def test_separation_at_root(self):
        profile = find_lambda0(TRIANGLE, PRECISION)
        assert cut_norm_centered(w_lambda(profile.lambda0), SIXTEENTH).value > 0

    def test_grid_and_densities_align(self):
        profile = find_lambda0(TRIANGLE, PRECISION, grid=32)
        assert len(profile.lambda_grid) == len(profile.densities) == 33
        for lam, d in zip(profile.lambda_grid, profile.densities):
            assert t_step(TRIANGLE, w_lambda(lam)) == d

    def test_rejects_pattern_with_edge_hom(self):
        with pytest.raises(ValueError):
            find_lambda0(EDGE, PRECISION)
        with pytest.raises(ValueError):
            find_lambda0(ALT_C4, PRECISION)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            find_lambda0(OrientedGraph(4, [(0, 1), (1, 2)]), PRECISION)

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            find_lambda0(OrientedGraph(1), PRECISION)

    @pytest.mark.parametrize("grid", [0, -2])
    def test_rejects_empty_grid(self, grid):
        # The endpoint checks read the grid's first and last densities.
        with pytest.raises(ValueError, match="grid must be"):
            find_lambda0(TRIANGLE, PRECISION, grid=grid)

    def test_every_valid_three_vertex_pattern_has_root(self):
        from digraphon import hom_to_edge_bipartition
        from digraphon.graphs import oriented_graph_count, oriented_graph_from_index

        target_tol = Fraction(1, 2**30)
        found = 0
        for i in range(oriented_graph_count(3)):
            pattern = oriented_graph_from_index(3, i)
            if pattern.edge_count == 0 or hom_to_edge_bipartition(pattern) is not None:
                continue
            if any(pattern.degree(v) == 0 for v in range(3)):
                continue
            profile = find_lambda0(pattern, target_tol)
            assert abs(t_step(pattern, w_lambda(profile.lambda0)) - profile.target) \
                <= target_tol
            found += 1
        assert found > 0


class TestNecessaryConditions:
    def test_alternating_cycle(self):
        assert necessary_conditions(ALT_C4) == (True, True)

    def test_trees_lack_cycles(self):
        assert necessary_conditions(PATH3).underlying_cycle is False
        assert necessary_conditions(OrientedGraph(2, [(0, 1)])).underlying_cycle is False

    def test_triangle(self):
        cond = necessary_conditions(TRIANGLE)
        assert cond.hom_to_edge is False
        assert cond.underlying_cycle is True


def _random_oriented(n, rng):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, edges)


class TestQuasirandomTrace:
    def test_empty_graphs_at_zero(self):
        graphs = [OrientedGraph(n) for n in (2, 3, 4)]
        assert quasirandom_trace(graphs, 0) == [0, 0, 0]

    def test_knn_sequence_is_not_quasirandom(self):
        graphs = [oriented_knn(2)] * 3
        trace = quasirandom_trace(graphs, Fraction(1, 4))
        assert trace == [Fraction(3, 16)] * 3

    def test_random_orientations_decrease_on_pinned_seed(self):
        rng = random.Random(0)
        graphs = [_random_oriented(n, rng) for n in (4, 8, 12)]
        trace = quasirandom_trace(graphs, Fraction(1, 4))
        assert all(a > b for a, b in zip(trace, trace[1:]))

    def test_large_graph_needs_heuristic(self):
        big = OrientedGraph(21, [(0, 1)])
        with pytest.raises(ValueError):
            quasirandom_trace([big], Fraction(1, 4))
        trace = quasirandom_trace([big], Fraction(1, 4), heuristic=True)
        assert trace[0] >= 0


class TestWitnessSearch:
    def test_triangle_witness_certifies(self):
        tol = Fraction(1, 10**6)
        w = forcing_witness_search(TRIANGLE, SIXTEENTH, 4, tol, seed=0, restarts=4)
        assert w is not None
        assert abs(t_step(TRIANGLE, w) - SIXTEENTH ** 3) <= tol
        assert w.integral() == SIXTEENTH
        assert cut_norm_centered(w, SIXTEENTH).value >= 10 * tol

    def test_directed_path_witness_certifies(self):
        tol = Fraction(1, 10**8)
        w = forcing_witness_search(PATH3, SIXTEENTH, 4, tol, seed=0, restarts=4)
        assert w is not None
        assert abs(t_step(PATH3, w) - SIXTEENTH ** 2) <= tol
        assert cut_norm_centered(w, SIXTEENTH).value >= 10 * tol

    def test_single_edge_not_forcing(self):
        # Any non-constant graphon with the right mean already matches the
        # single edge's expected count, so a witness must exist.
        p = Fraction(1, 2)
        tol = Fraction(1, 10**8)
        w = forcing_witness_search(EDGE, p, 2, tol, seed=0, restarts=4)
        assert w is not None
        assert abs(w.integral() - p) <= tol
        assert cut_norm_centered(w, p).value >= 10 * tol

    def test_deterministic_given_seed(self):
        tol = Fraction(1, 10**6)
        a = forcing_witness_search(TRIANGLE, SIXTEENTH, 4, tol, seed=5, restarts=2)
        b = forcing_witness_search(TRIANGLE, SIXTEENTH, 4, tol, seed=5, restarts=2)
        assert a == b

    def test_rationalized_denominators_bounded(self):
        # All cells lie on the 1/2^16 grid but the one that absorbs the mean
        # remainder, which exists exactly when p * parts^2 is off the grid.
        tol = Fraction(1, 10**6)
        for p in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                  Fraction(1, 2)):
            w = forcing_witness_search(TRIANGLE, p, 4, tol, seed=0, restarts=2)
            assert w is not None
            assert w.integral() == p
            off_grid = sum(x.denominator > 2**16 for row in w.values for x in row)
            assert off_grid == (0 if (p * 16 * 2**16).denominator == 1 else 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            forcing_witness_search(TRIANGLE, 0, 4, Fraction(1, 100), 0)
        for parts in (0, 9):
            with pytest.raises(ValueError, match=r"1\.\.8 parts"):
                forcing_witness_search(TRIANGLE, Fraction(1, 2), parts, Fraction(1, 100), 0)
        with pytest.raises(ValueError):
            forcing_witness_search(OrientedGraph(2), Fraction(1, 2), 4, Fraction(1, 100), 0)


@st.composite
def grid_instances(draw, max_n=4, max_parts=3, denominator=16):
    """An oriented pattern and the cell values of an equal-part graphon on
    the 1/denominator grid."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) if s == 1 else (v, u) for (u, v), s in zip(pairs, states) if s]
    parts = draw(st.integers(1, max_parts))
    nums = draw(st.lists(st.integers(0, denominator), min_size=parts * parts,
                         max_size=parts * parts))
    values = [[Fraction(nums[i * parts + j], denominator) for j in range(parts)]
              for i in range(parts)]
    return OrientedGraph(n, edges), values


class TestExactPolishSums:
    @settings(max_examples=60, deadline=None)
    @given(grid_instances())
    def test_density_matches_brute_force(self, instance):
        pattern, values = instance
        w = StepGraphon([Fraction(1, len(values))] * len(values), values)
        assert _exact_density(pattern, values) == brute_t_step(pattern, w)

    @settings(max_examples=60, deadline=None)
    @given(grid_instances())
    def test_gradient_matches_brute_force(self, instance):
        pattern, values = instance
        w = StepGraphon([Fraction(1, len(values))] * len(values), values)
        brute = {cell: g for cell, g in brute_t_gradient(pattern, w).items() if g}
        assert _exact_density_gradient(pattern, values) == brute
