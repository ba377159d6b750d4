from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphon import (
    HOLDS,
    VIOLATED,
    BipartiteGraph,
    OrientedGraph,
    StepGraphon,
    check_asym_sidorenko,
    check_asym_sidorenko_random,
    check_directed_sidorenko_exhaustive,
    check_directed_sidorenko_graphon,
    check_directed_sidorenko_random,
    check_equivalence_bridge,
    check_second_sidorenko,
    from_oriented,
    oriented_knn,
    random_graphon,
    t_directed,
    t_step,
    w_lambda,
)
from digraphon.graphs import oriented_graph_count, oriented_graph_from_index

from oracles import brute_hom_directed

EDGE = OrientedGraph(2, [(0, 1)])
PATH3 = OrientedGraph(3, [(0, 1), (1, 2)])
TRIANGLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
TRANSITIVE = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])
ALT_C4 = OrientedGraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])

K2_BIP = BipartiteGraph(1, 1, [(0, 0)])
P3_BIP = BipartiteGraph(2, 1, [(0, 0), (1, 0)])
C4_BIP = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
TREE4_BIP = BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)])


@st.composite
def step_graphons(draw, parts=3, denominator=8):
    vals = draw(st.lists(st.integers(0, denominator),
                         min_size=parts * parts, max_size=parts * parts))
    matrix = [[Fraction(vals[i * parts + j], denominator) for j in range(parts)]
              for i in range(parts)]
    return StepGraphon([Fraction(1, parts)] * parts, matrix)


class TestExhaustive:
    def test_single_edge_holds_everywhere(self):
        report = check_directed_sidorenko_exhaustive(EDGE, 3)
        assert report.verdict == HOLDS
        assert report.witness is None
        assert report.instances_checked == 1 + 3 + 27

    def test_directed_path_violated(self):
        report = check_directed_sidorenko_exhaustive(PATH3, 2)
        assert report.verdict == VIOLATED
        assert report.witness is not None
        assert report.witness.margin == Fraction(-1, 16)
        assert report.witness.host.edge_count == 1

    def test_path_zero_density_in_knn2(self):
        assert t_directed(PATH3, oriented_knn(2)) == 0

    def test_alternating_cycle_holds_to_four(self):
        report = check_directed_sidorenko_exhaustive(ALT_C4, 4)
        assert report.verdict == HOLDS
        assert report.instances_checked == 1 + 3 + 27 + 729
        assert report.complete is True

    def test_instance_cap(self):
        report = check_directed_sidorenko_exhaustive(EDGE, 4, instance_cap=10)
        assert report.instances_checked == 10
        assert report.complete is False

    def test_workers_agree_with_sequential(self):
        seq = check_directed_sidorenko_exhaustive(PATH3, 3, workers=1)
        par = check_directed_sidorenko_exhaustive(PATH3, 3, workers=2)
        assert seq.verdict == par.verdict
        assert seq.witness.margin == par.witness.margin
        assert seq.witness.host == par.witness.host
        assert seq.instances_checked == par.instances_checked

    def test_necessity_samples(self):
        # Patterns without a homomorphism onto an edge must be flagged, with
        # the oriented K_{2,2} giving zero density (the full sweep over all
        # small patterns lives in the acceptance suite).
        for pattern in (PATH3, TRIANGLE, TRANSITIVE):
            report = check_directed_sidorenko_exhaustive(pattern, 4)
            assert report.verdict == VIOLATED
            assert report.witness.margin < 0
            assert t_directed(pattern, oriented_knn(2)) == 0

    def test_ties_across_sizes_keep_the_smaller_host(self):
        # The single edge gives margin 0 - (1/4)^3; so does its blow-up, the
        # oriented K_{2,2} on 4 vertices, and no host on <= 4 vertices beats it.
        pattern = OrientedGraph(4, [(0, 1), (0, 3), (1, 2)])
        assert t_directed(pattern, oriented_knn(2)) == 0
        for workers in (1, 2):
            report = check_directed_sidorenko_exhaustive(pattern, 4, workers=workers)
            assert report.witness.margin == Fraction(-1, 64)
            assert report.witness.host == OrientedGraph(2, [(0, 1)])

    def test_empty_hosts_never_false_violations(self):
        # Hosts with zero edge density contribute margin t(B,G) >= 0.
        report = check_directed_sidorenko_exhaustive(PATH3, 1)
        assert report.verdict == HOLDS


@st.composite
def small_patterns(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return oriented_graph_from_index(n, draw(st.integers(0, oriented_graph_count(n) - 1)))


def brute_min_margin(pattern, n_max):
    """Minimal margin over every labeled host up to n_max (earliest host on
    ties), each host built and counted by brute force."""
    best = None
    for n in range(1, n_max + 1):
        for index in range(oriented_graph_count(n)):
            host = oriented_graph_from_index(n, index)
            margin = (Fraction(brute_hom_directed(pattern, host), n ** pattern.vertex_count)
                      - Fraction(host.edge_count, n * n) ** pattern.edge_count)
            if best is None or margin < best[0]:
                best = (margin, host)
    return best


class TestExhaustiveDifferential:
    @settings(max_examples=12, deadline=None)
    @given(small_patterns())
    def test_margin_and_witness_match_brute_force(self, pattern):
        margin, host = brute_min_margin(pattern, 3)
        for workers in (1, 2, 3):
            report = check_directed_sidorenko_exhaustive(pattern, 3, workers=workers)
            assert report.instances_checked == 1 + 3 + 27
            if margin < 0:
                assert report.verdict == VIOLATED
                assert report.witness.host == host
                assert report.witness.margin == margin
                assert report.witness.lhs - report.witness.rhs == margin
            else:
                assert report.verdict == HOLDS and report.witness is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_decodes_one_witness(self, monkeypatch, workers):
        decoded = []

        def decoding(n, index):
            decoded.append((n, index))
            return oriented_graph_from_index(n, index)

        monkeypatch.setattr("digraphon.sidorenko.oriented_graph_from_index", decoding)
        report = check_directed_sidorenko_exhaustive(PATH3, 3, workers=workers)
        assert report.verdict == VIOLATED and len(decoded) == 1
        assert report.witness.host == oriented_graph_from_index(*decoded[0])
        # A scan that holds reports no witness and decodes none.
        check_directed_sidorenko_exhaustive(EDGE, 3, workers=workers)
        assert len(decoded) == 1

    def test_cap_bounds_the_sizes_it_counts(self, monkeypatch):
        asked = []

        def counting(n):
            asked.append(n)
            return oriented_graph_count(n)

        monkeypatch.setattr("digraphon.sidorenko.oriented_graph_count", counting)
        report = check_directed_sidorenko_exhaustive(EDGE, 50, instance_cap=10)
        assert report.complete is False and report.instances_checked == 10
        assert asked == [1, 2, 3]

    def test_cap_equal_to_the_family_is_complete(self):
        report = check_directed_sidorenko_exhaustive(EDGE, 3, instance_cap=31)
        assert report.complete is True and report.instances_checked == 31
        report = check_directed_sidorenko_exhaustive(EDGE, 3, instance_cap=30)
        assert report.complete is False and report.instances_checked == 30

    @pytest.mark.parametrize("cap", [0, -5])
    def test_nonpositive_cap_checks_nothing(self, cap):
        report = check_directed_sidorenko_exhaustive(PATH3, 3, instance_cap=cap)
        assert report.instances_checked == 0 and report.complete is False
        assert report.verdict == HOLDS and report.witness is None

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_empty_family(self, n_max):
        with pytest.raises(ValueError, match="n_max"):
            check_directed_sidorenko_exhaustive(EDGE, n_max)


class TestGraphonCheck:
    def test_constant_gives_equality(self):
        for pattern in (EDGE, PATH3, TRIANGLE):
            report = check_directed_sidorenko_graphon(
                pattern, StepGraphon.constant(Fraction(2, 7), parts=2))
            assert report.verdict == HOLDS
            assert t_step(pattern, StepGraphon.constant(Fraction(2, 7), parts=2)) == \
                Fraction(2, 7) ** pattern.edge_count

    def test_path_violated_on_knn_graphon(self):
        w = from_oriented(oriented_knn(2))
        report = check_directed_sidorenko_graphon(PATH3, w)
        assert report.verdict == VIOLATED
        assert report.witness.margin == Fraction(-1, 16)

    def test_single_edge_margin_zero_any_graphon(self):
        for seed in range(5):
            w = random_graphon(4, seed=seed)
            report = check_directed_sidorenko_graphon(EDGE, w)
            assert report.verdict == HOLDS
            assert t_step(EDGE, w) == w.integral()

    def test_random_batch_deterministic(self):
        a = check_directed_sidorenko_random(PATH3, instances=50, seed=3)
        b = check_directed_sidorenko_random(PATH3, instances=50, seed=3)
        assert a.instances_checked == b.instances_checked == 50
        assert a.verdict == b.verdict

    @settings(max_examples=40, deadline=None)
    @given(step_graphons(), st.integers(0, 8))
    def test_scaling_consistency_of_margin(self, w, num):
        # Margin after scaling equals c^e times the original margin.
        c = Fraction(num, 8)
        for pattern in (PATH3, TRIANGLE):
            e = pattern.edge_count
            original = t_step(pattern, w) - w.integral() ** e
            scaled = t_step(pattern, w.scale(c)) - (c * w.integral()) ** e
            assert scaled == c ** e * original


class TestAsymmetric:
    def test_k2_always_equality(self):
        for seed in range(5):
            w = random_graphon(4, seed=seed)
            report = check_asym_sidorenko(K2_BIP, w)
            assert report.verdict == HOLDS

    def test_star_path_holds_on_random_batch(self):
        report = check_asym_sidorenko_random(P3_BIP, instances=1000, parts=4, seed=0)
        assert report.verdict == HOLDS
        assert report.instances_checked == 1000

    def test_c4_on_matching_graphon(self):
        from digraphon import from_bipartite

        w = from_bipartite(BipartiteGraph(2, 2, [(0, 0), (1, 1)]))
        report = check_asym_sidorenko(C4_BIP, w)
        assert report.verdict == HOLDS


class TestBridge:
    @settings(max_examples=40, deadline=None)
    @given(step_graphons())
    def test_c4_margins_identical(self, w):
        report = check_equivalence_bridge(C4_BIP, w)
        assert report.verdict == HOLDS

    def test_k2_margins_zero(self):
        w = random_graphon(3, seed=1)
        report = check_equivalence_bridge(K2_BIP, w)
        assert report.verdict == HOLDS

    def test_tree_on_lambda_family(self):
        for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
            report = check_equivalence_bridge(TREE4_BIP, w_lambda(lam))
            assert report.verdict == HOLDS


class TestSecondSidorenko:
    def test_single_edge_equality(self):
        for host in (TRIANGLE, TRANSITIVE, oriented_knn(2)):
            report = check_second_sidorenko(EDGE, host)
            assert report.verdict == HOLDS
            assert report.witness is None
            # Equality: t(edge, G) = e/v^2 and t(K2, underlying) = 2e/v^2.
            n, e = host.vertex_count, host.edge_count
            assert t_directed(EDGE, host) == Fraction(e, n * n)

    def test_path_violated_on_transitive_triangle(self):
        report = check_second_sidorenko(PATH3, TRANSITIVE)
        assert report.verdict == VIOLATED
        assert report.witness.lhs == Fraction(1, 27)
        assert report.witness.rhs == Fraction(1, 9)

    def test_path_equality_on_cyclic_triangle(self):
        report = check_second_sidorenko(PATH3, TRIANGLE)
        assert report.verdict == HOLDS
        assert t_directed(PATH3, TRIANGLE) == Fraction(1, 9)
        assert Fraction(1, 4) * Fraction(12, 27) == Fraction(1, 9)


class TestReportShape:
    def test_violated_reports_expose_margin(self):
        report = check_directed_sidorenko_exhaustive(PATH3, 2)
        wit = report.witness
        assert wit.margin == wit.lhs - wit.rhs
        assert report.violated

    def test_holds_reports_have_no_witness(self):
        report = check_directed_sidorenko_exhaustive(EDGE, 2)
        assert report.witness is None
        assert not report.violated
