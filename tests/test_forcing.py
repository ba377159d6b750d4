import hashlib
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digraphon import (
    OrientedGraph,
    StepGraphon,
    cut_norm_centered,
    find_lambda0,
    forcing_witness_search,
    hom_to_edge_bipartition,
    necessary_conditions,
    oriented_knn,
    quasirandom_trace,
    t_step,
    w_lambda,
)
from digraphon.forcing import (
    MAX_LAMBDA_GRID,
    MAX_PGD_INDICES,
    MIN_PRECISION,
    RATIONALIZE_DENOMINATOR,
    _exact_density,
    _float_kernel,
    _map_cells,
    _polish_density,
    _repair_mean,
    _scaled_gradient,
)
from digraphon.stepgraphon import _map_sum

import digraphon.forcing as forcing
from oracles import (
    brute_t_gradient,
    brute_t_step,
    reference_find_lambda0,
    reference_float_t_and_grad,
)

EDGE = OrientedGraph(2, [(0, 1)])
PATH3 = OrientedGraph(3, [(0, 1), (1, 2)])
TRIANGLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
DIRECTED_C4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PATH12 = OrientedGraph(12, [(i, i + 1) for i in range(11)])
ALT_C4 = OrientedGraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
TT6 = OrientedGraph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])

SIXTEENTH = Fraction(1, 16)
PRECISION = Fraction(1, 2**40)


def _edge_hom_free_patterns():
    """The benchmark's 600 edge-hom-free patterns, in its order: the oriented
    graphs on 3 and 4 vertices with no isolated vertex, stably sorted by
    edge count, keeping those where some vertex has an out- and an in-edge."""
    patterns = []
    for v in (3, 4):
        pairs = list(combinations(range(v), 2))
        for states in product(range(3), repeat=len(pairs)):
            edges = tuple((a, b) if s == 1 else (b, a) for (a, b), s in zip(pairs, states) if s)
            if {x for edge in edges for x in edge} == set(range(v)):
                patterns.append((v, edges))
    patterns.sort(key=lambda p: len(p[1]))
    return [(v, edges) for v, edges in patterns
            if {a for a, _ in edges} & {b for _, b in edges}]


EDGE_HOM_FREE = _edge_hom_free_patterns()


def closed_form_at_one(pattern):
    return Fraction(1, 2) ** pattern.vertex_count * Fraction(1, 4) ** pattern.edge_count


@st.composite
def oriented_patterns(draw, max_n=4, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) if s == 1 else (v, u) for (u, v), s in zip(pairs, states) if s]
    return OrientedGraph(n, edges)


@st.composite
def edge_hom_free_patterns(draw, max_n=5):
    """A pattern that `find_lambda0` accepts: no isolated vertex and no
    homomorphism onto a single edge."""
    pattern = draw(oriented_patterns(max_n, min_n=3))
    assume(all(pattern.degree(x) for x in range(pattern.vertex_count)))
    assume(hom_to_edge_bipartition(pattern) is None)
    return pattern


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

    def test_rejects_grid_above_cap(self, monkeypatch):
        # Checked before any density is summed: the first-crossing scan is
        # linear in the grid.
        def no_map_sum(*args, **kwargs):
            raise AssertionError("a density was summed")

        monkeypatch.setattr(forcing, "_map_sum", no_map_sum)
        with pytest.raises(ValueError, match=f"grid must be at most {MAX_LAMBDA_GRID}"):
            find_lambda0(TRIANGLE, PRECISION, grid=MAX_LAMBDA_GRID + 1)

    def test_grid_cap_is_accepted(self):
        profile = find_lambda0(TRIANGLE, PRECISION, grid=MAX_LAMBDA_GRID)
        assert profile.lambda0 == Fraction(1, 2)

    @pytest.mark.parametrize("pattern", [PATH3, TRIANGLE])
    def test_rejects_precision_below_floor(self, pattern, monkeypatch):
        # Checked before any density is summed: the bisection runs about
        # log2(1/precision) steps on integers that grow with them.
        def no_map_sum(*args, **kwargs):
            raise AssertionError("a density was summed")

        monkeypatch.setattr(forcing, "_map_sum", no_map_sum)
        with pytest.raises(ValueError, match="precision must be at least MIN_PRECISION"):
            find_lambda0(pattern, MIN_PRECISION / 2)

    def test_precision_floor_is_accepted(self):
        # The directed 4-vertex path has no grid root, so this bisects down
        # to the floor.
        path4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
        profile = find_lambda0(path4, MIN_PRECISION)
        assert MIN_PRECISION == Fraction(1, 2**4096)
        assert profile.lambda0.denominator > 2**4000
        density = t_step(path4, w_lambda(profile.lambda0))
        assert 0 < abs(density - profile.target) <= MIN_PRECISION

    @pytest.mark.parametrize("pattern", [PATH3, TRIANGLE])
    @pytest.mark.parametrize("precision", [0, Fraction(-1, 8)])
    def test_rejects_nonpositive_precision(self, pattern, precision, monkeypatch):
        # Checked before any density is summed: on the path the bisection
        # used to divide by zero or give up, on the triangle its grid root
        # was returned.
        def no_map_sum(*args, **kwargs):
            raise AssertionError("a density was summed")

        monkeypatch.setattr(forcing, "_map_sum", no_map_sum)
        with pytest.raises(ValueError, match="precision must be positive"):
            find_lambda0(pattern, precision)

    def test_every_valid_three_vertex_pattern_has_root(self):
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


class TestLambdaPolynomial:
    def test_profile_digest(self):
        # Every 6th edge-hom-free pattern at the default grid and precision;
        # the digest was taken with one map sum per grid point and per
        # bisection step.
        lines = []
        for v, edges in EDGE_HOM_FREE[::6]:
            profile = find_lambda0(OrientedGraph(v, edges))
            lines.append(f"{v} {edges} {[str(x) for x in profile.lambda_grid]} "
                         f"{[str(x) for x in profile.densities]} "
                         f"{profile.target} {profile.lambda0}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "361aaaa02ba22d45af23067a194d6e012168dc26f3e0f9dbb713115bde119ee0"

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(EDGE_HOM_FREE),
           st.one_of(st.integers(1, 6), st.integers(1, 64)), st.integers(1, 40))
    def test_matches_reference(self, pattern, grid, k):
        v, edges = pattern
        pattern = OrientedGraph(v, edges)
        precision = Fraction(1, 2**k)
        profile = find_lambda0(pattern, precision, grid=grid)
        assert (profile.lambda_grid, profile.densities, profile.target, profile.lambda0) \
            == reference_find_lambda0(pattern, precision, grid)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(EDGE_HOM_FREE),
           st.fractions(min_value=0, max_value=1, max_denominator=10**4))
    def test_coefficients_reproduce_density(self, pattern, lam):
        v, edges = pattern
        pattern = OrientedGraph(v, edges)
        coefficients = find_lambda0(pattern, Fraction(1, 2), grid=1).coefficients
        assert len(coefficients) == pattern.edge_count + 1
        assert sum(c * lam**k for k, c in enumerate(coefficients)) \
            == brute_t_step(pattern, w_lambda(lam))

    @pytest.mark.parametrize("pattern", [PATH3, TRIANGLE, DIRECTED_C4, TT6])
    def test_one_map_sum_per_call(self, pattern, monkeypatch):
        # Every coefficient is read from the digits of one exact density.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _map_sum(*args, **kwargs)

        monkeypatch.setattr(forcing, "_map_sum", counted)
        find_lambda0(pattern)
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(edge_hom_free_patterns(max_n=5),
           st.fractions(min_value=0, max_value=1, max_denominator=10**4))
    def test_digit_read_matches_density(self, pattern, lam):
        coefficients = find_lambda0(pattern, Fraction(1, 2), grid=1).coefficients
        horner = Fraction(0)
        for c in reversed(coefficients):
            horner = horner * lam + c
        w = w_lambda(lam)
        assert horner == t_step(pattern, w) == brute_t_step(pattern, w)

    def test_digit_at_its_largest(self):
        # K33 oriented from one side to the other, beside a cyclic
        # triangle: 4^(v+e) t has the digit D_9 = 4^9 * 2^3 = 2^(v+e) at
        # (1-lambda)^9 lambda^3, so it needs the base 2^(2(v+e)+1) > 2^(v+e).
        pattern = OrientedGraph(9, [(a, b) for a in range(3) for b in range(3, 6)]
                                + [(6, 7), (7, 8), (8, 6)])
        coefficients = find_lambda0(pattern).coefficients
        for lam in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1)):
            closed_form = ((1 - lam) ** 9 / 4**6 + (lam / 4) ** 9 / 2**6) * lam**3 / 512
            horner = Fraction(0)
            for c in reversed(coefficients):
                horner = horner * lam + c
            assert horner == closed_form == t_step(pattern, w_lambda(lam))

    def test_dense_pattern_matches_reference(self):
        # TT6 has 15 edges: its digits run up to 4^21.  Grid 4 brackets
        # the root in [1/4, 1/2], and a precision below the target 2^-60
        # makes the bisection run.
        precision = Fraction(1, 2**64)
        profile = find_lambda0(TT6, precision, grid=4)
        assert (profile.lambda_grid, profile.densities, profile.target, profile.lambda0) \
            == reference_find_lambda0(TT6, precision, 4)
        assert profile.lambda0 == Fraction(169, 512)


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

    @pytest.mark.parametrize("kwargs,message", [
        ({"restarts": 0}, "restarts must be at least 1, got 0"),
        ({"restarts": -2}, "restarts must be at least 1, got -2"),
        ({"max_iterations": -1}, "max_iterations must be nonnegative, got -1"),
        ({"tol": Fraction(-1, 10**8)}, "tol must be nonnegative, got -1/100000000"),
        ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
    ])
    def test_rejects_empty_search_before_any_work(self, kwargs, message, monkeypatch):
        # No restart, or no tolerance a residual can meet: a None here would
        # read as "no witness found".
        def no_work(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(forcing, "_map_cells", no_work)
        with pytest.raises(ValueError, match=message):
            forcing_witness_search(TRIANGLE, Fraction(1, 4), **kwargs)

    def test_seed_of_any_integer_type(self):
        # A numpy integer seed gives the same witness as the Python int; a
        # seed past 2^64 still runs.
        p, tol = Fraction(1, 4), Fraction(1, 10**6)
        w = forcing_witness_search(TRIANGLE, p, 2, tol, seed=5, restarts=2)
        assert w is not None
        assert forcing_witness_search(TRIANGLE, p, 2, tol, seed=np.int64(5), restarts=2).values \
            == w.values
        forcing_witness_search(TRIANGLE, p, 2, tol, seed=2**64, restarts=1, max_iterations=10)

    def test_zero_tol_and_zero_iterations_stay_valid(self):
        # No descent, and a tolerance only an exact solution meets: the search
        # runs, and anything it returns is exact.
        p = Fraction(1, 4)
        w = forcing_witness_search(TRIANGLE, p, 2, 0, restarts=1, max_iterations=0)
        assert w is None or (t_step(TRIANGLE, w) == p ** 3 and w.integral() == p)

    def test_oversized_search_fails_fast(self):
        # 4^12 * 11 edge-cell indices would take gigabytes to build.
        assert 4 ** 12 * 11 > MAX_PGD_INDICES
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"parts\^v \* e"):
            forcing_witness_search(PATH12, Fraction(1, 2), 4, Fraction(1, 100), 0)
        assert time.perf_counter() - start < 1.0

    # Lines 1 and 10 of the 45-line witness script in CHANGES.md; at p = 1/3
    # the cells are numerators over d = 3 * 2^16 and one lies off the grid.
    @pytest.mark.parametrize("p,expected", [
        (Fraction(1, 16), [['0', '0', '0', '0'],
                           ['53/32768', '13857/65536', '0', '1557/32768'],
                           ['0', '15401/65536', '8101/65536', '4385/32768'],
                           ['6405/32768', '0', '3377/65536', '0']]),
        (Fraction(1, 3), [['77899/196608', '611/32768', '231/65536', '1121/65536'],
                          ['31903/65536', '44171/65536', '23971/65536', '31937/65536'],
                          ['21881/65536', '52943/65536', '38345/65536', '0'],
                          ['42405/65536', '0', '33429/65536', '0']]),
    ])
    def test_pinned_triangle_witnesses(self, p, expected):
        w = forcing_witness_search(TRIANGLE, p, seed=0, restarts=1)
        assert [[str(x) for x in row] for row in w.values] == expected

    def test_witness_digest(self):
        # The 15 seed-0 lines of the 45-line witness script in CHANGES.md.
        patterns = {"C3": TRIANGLE, "C4": DIRECTED_C4,
                    "C4+chord": OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])}
        lines = []
        for name, pattern in patterns.items():
            for p in ("1/16", "1/8", "1/4", "1/3", "1/2"):
                w = forcing_witness_search(pattern, Fraction(p), seed=0, restarts=1)
                cells = None if w is None else [[str(x) for x in row] for row in w.values]
                lines.append(f"{name} {p} 0 {cells}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "69986247caadb0fdb5881b7f35cb758ab726ddfdd1f163950f189ca7591a06ca"

    def test_witness_script_digest(self):
        # The 45-line witness script: seeds 0-2, then C3, C4 and C4+chord,
        # then p = 1/16, 1/8, 1/4, 1/3, 1/2, one restart each.  Its seed-0
        # lines are the 15 that test_witness_digest hashes.
        patterns = {"C3": TRIANGLE, "C4": DIRECTED_C4,
                    "C4+chord": OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])}
        lines = []
        for seed in range(3):
            for name, pattern in patterns.items():
                for p in ("1/16", "1/8", "1/4", "1/3", "1/2"):
                    w = forcing_witness_search(pattern, Fraction(p), seed=seed, restarts=1)
                    cells = None if w is None else [[str(x) for x in row] for row in w.values]
                    lines.append(f"{name} {p} {seed} {cells}\n")
        assert len(lines) == 45
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "1a996c5cada57dc241abcd0ab5827c5f430154fee6ab63f40af9a14ef7762d1b"


@st.composite
def grid_instances(draw, max_n=4, max_parts=3, denominator=16):
    """An oriented pattern and the cell numerators over ``denominator`` of
    an equal-part graphon."""
    pattern = draw(oriented_patterns(max_n))
    parts = draw(st.integers(1, max_parts))
    nums = draw(st.lists(st.integers(0, denominator), min_size=parts * parts,
                         max_size=parts * parts))
    return pattern, [nums[i * parts:(i + 1) * parts] for i in range(parts)]


def _equal_parts(cells, d):
    return StepGraphon([Fraction(1, len(cells))] * len(cells),
                       [[Fraction(c, d) for c in row] for row in cells])


class TestStartPoint:
    # The test may import numpy.random; the library draws without it.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3])
    def test_equals_numpy_stream(self, seed):
        for parts in range(1, 9):
            expected = np.random.default_rng(seed).uniform(0.0, 1.0, size=(parts, parts))
            assert np.array_equal(forcing._start_point(seed, parts), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**160), st.integers(1, 8))
    def test_equals_numpy_stream_on_any_seed(self, seed, parts):
        expected = np.random.default_rng(seed).uniform(0.0, 1.0, size=(parts, parts))
        assert np.array_equal(forcing._start_point(seed, parts), expected)

    def test_no_layer_imports_numpy_random(self):
        # One call into each layer in a fresh interpreter, then a look at
        # sys.modules.  The first line tells whether numpy loaded its random
        # module by itself, as some numpy versions do on import.
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction
            import numpy
            print("numpy.random" in sys.modules)
            import digraphon as dg
            tri = dg.OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
            path = dg.OrientedGraph(3, [(0, 1), (1, 2)])
            dg.check_directed_sidorenko_exhaustive(path, 3)
            dg.impartiality_check(path, 4)
            b22 = dg.BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
            dg.check_equivalence_bridge(b22, dg.random_graphon(3, seed=1))
            dg.find_lambda0(tri)
            dg.forcing_witness_search(tri, Fraction(1, 4), 2, seed=0, restarts=1)
            dg.quasirandom_trace([tri, path], Fraction(1, 4))
            print("numpy.random" in sys.modules)
        """)
        src = str(Path(forcing.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        if out[0] == "True":
            pytest.skip("this numpy imports numpy.random when numpy is imported")
        assert out == ["False", "False"]


class TestExactPolishSums:
    @settings(max_examples=60, deadline=None)
    @given(grid_instances())
    def test_density_matches_brute_force(self, instance):
        pattern, cells = instance
        scale = 16 ** pattern.edge_count * len(cells) ** pattern.vertex_count
        assert Fraction(_exact_density(pattern, cells), scale) == \
            brute_t_step(pattern, _equal_parts(cells, 16))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gradient_matches_brute_force(self, data):
        # The polish's gradient: the float kernel's partials in units of
        # d^(e-1) * parts^v, rounded to integers, in which the exact partials
        # are integers.
        d = data.draw(st.sampled_from([16, 3 * RATIONALIZE_DENOMINATOR]))
        pattern, cells = data.draw(grid_instances(denominator=d))
        assume(pattern.edge_count > 0)
        parts, v = len(cells), pattern.vertex_count
        factor = d ** (pattern.edge_count - 1) * parts ** v
        t_and_grad = _float_kernel(_map_cells(pattern, parts), parts, 1.0 / parts ** v)
        brute = brute_t_gradient(pattern, _equal_parts(cells, d))
        exact = [brute[i, j] * factor for i in range(parts) for j in range(parts)]
        for g, x in zip(_scaled_gradient(t_and_grad, cells, d, factor), exact, strict=True):
            assert x.denominator == 1
            assert abs(g - x) <= abs(x) * 1e-9


class TestIntegerPolish:
    @settings(max_examples=40, deadline=None)
    @given(oriented_patterns(),
           st.integers(2, 3),
           st.sampled_from([Fraction(1, 16), Fraction(1, 8), Fraction(1, 4),
                            Fraction(1, 3), Fraction(1, 2)]),
           st.sampled_from([Fraction(1, 10**3), Fraction(1, 10**6), Fraction(1, 10**8)]),
           st.data())
    def test_polish_keeps_sum_and_range_and_meets_tol(self, pattern, parts, p, tol, data):
        assume(pattern.edge_count > 0)
        unit = p.denominator // gcd(p.denominator, RATIONALIZE_DENOMINATOR)
        d = unit * RATIONALIZE_DENOMINATOR
        grid = data.draw(st.lists(st.integers(0, RATIONALIZE_DENOMINATOR),
                                  min_size=parts * parts, max_size=parts * parts))
        cells = [[m * unit for m in grid[i * parts:(i + 1) * parts]] for i in range(parts)]
        target_sum = int(p * parts * parts * d)
        assert _repair_mean(cells, target_sum, d)
        t_and_grad = _float_kernel(_map_cells(pattern, parts), parts,
                                   1.0 / parts ** pattern.vertex_count)
        ok = _polish_density(pattern, t_and_grad, cells, p, tol, d)
        assert sum(map(sum, cells)) == target_sum
        assert all(0 <= c <= d for row in cells for c in row)
        if ok:
            t = brute_t_step(pattern, _equal_parts(cells, d))
            assert abs(t - p ** pattern.edge_count) <= tol

    def test_gradient_units_past_float_range(self):
        # The 13-vertex transitive tournament at 2 parts: 78 edges, so the
        # gradient's units d^77 * 2^13 are about 2^1245, far past the float
        # range.  The scaling goes through exact Fractions.  A zero tolerance
        # keeps every round going, as t is near 2^-78 here.
        tt13 = OrientedGraph(13, [(u, w) for u in range(13) for w in range(u + 1, 13)])
        d = RATIONALIZE_DENOMINATOR
        assert d ** 77 * 2 ** 13 > 2 ** 1024
        cells = [[40000, 25000], [30000, 36072]]
        t_and_grad = _float_kernel(_map_cells(tt13, 2), 2, 1.0 / 2 ** 13)
        scaled = _scaled_gradient(t_and_grad, cells, d, d ** 77 * 2 ** 13)
        assert all(g > 2 ** 1024 for g in scaled)
        _polish_density(tt13, t_and_grad, cells, Fraction(1, 2), Fraction(0), d, rounds=3)
        assert sum(map(sum, cells)) == 2 * d
        assert all(0 <= c <= d for row in cells for c in row)


class TestFloatKernel:
    @settings(max_examples=80, deadline=None)
    @given(oriented_patterns(), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.3]))
    def test_bit_identical_to_reference(self, pattern, parts, seed, zero_share):
        assume(pattern.edge_count > 0)
        t_and_grad = _float_kernel(_map_cells(pattern, parts), parts,
                                   1.0 / parts ** pattern.vertex_count)
        rng = np.random.default_rng(seed)
        # Two calls in a row: the second must not see the first's buffers.
        for _ in range(2):
            x = rng.uniform(0.0, 1.0, size=(parts, parts))
            x[rng.uniform(size=x.shape) < zero_share] = 0.0
            t, grad = t_and_grad(x)
            t_ref, grad_ref = reference_float_t_and_grad(pattern, x)
            assert t == t_ref
            assert np.array_equal(grad, grad_ref)
