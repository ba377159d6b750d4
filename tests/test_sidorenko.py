import hashlib
import random
import sys
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphon import (
    HOLDS,
    VIOLATED,
    BipartiteGraph,
    CheckWitness,
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
    t_bip_step,
    t_directed,
    t_step,
    to_part_oriented,
    w_lambda,
)
from digraphon import sidorenko, stepgraphon
from digraphon.graphs import oriented_graph_count, oriented_graph_from_index

from oracles import brute_hom_directed, brute_t_bip_step, brute_t_step, reference_integral

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

    @pytest.mark.parametrize("cap", [0, -3, -5])
    def test_rejects_nonpositive_cap(self, monkeypatch, cap):
        # A cap below 1 used to report holds-on-family with 0 hosts checked.
        def no_count(n):
            raise AssertionError("a host size was counted")

        monkeypatch.setattr("digraphon.sidorenko.oriented_graph_count", no_count)
        for pattern in (EDGE, PATH3, TRIANGLE):
            with pytest.raises(ValueError, match=f"instance_cap must be at least 1, got {cap}"):
                check_directed_sidorenko_exhaustive(pattern, 3, instance_cap=cap)

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

    @pytest.mark.parametrize("check,pattern", [(check_directed_sidorenko_random, PATH3),
                                               (check_asym_sidorenko_random, P3_BIP)],
                             ids=["directed", "asymmetric"])
    @pytest.mark.parametrize("instances", [0, -3])
    def test_random_batch_rejects_empty_family(self, check, pattern, instances):
        # A batch over no graphons would report "holds" over nothing.
        with pytest.raises(ValueError, match="instances must be at least 1"):
            check(pattern, instances=instances)

    @pytest.mark.parametrize("check,pattern", [(check_directed_sidorenko_random, PATH3),
                                               (check_asym_sidorenko_random, P3_BIP)],
                             ids=["directed", "asymmetric"])
    @pytest.mark.parametrize("denominator", [0, -4])
    def test_random_batch_rejects_denominator_below_one(self, check, pattern, denominator):
        with pytest.raises(ValueError, match="denominator must be at least 1"):
            check(pattern, instances=3, denominator=denominator)

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

    def test_one_conversion_and_two_map_sums_per_bridge(self, monkeypatch):
        # The mean and both densities read the integer form that W built when
        # it was constructed, and both map sums still run.
        w = random_graphon(4, seed=3)
        calls = Counter()

        def counted(name):
            real = getattr(stepgraphon, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(stepgraphon, "_map_sum", counted("_map_sum"))
        monkeypatch.setattr(stepgraphon, "_numerators", counted("_numerators"))
        report = check_equivalence_bridge(C4_BIP, w)
        assert report.verdict == HOLDS
        assert calls == {"_map_sum": 2}

    def test_violated_reports_both_margins(self, monkeypatch):
        # A bipartite density off by 2^-20: the witness carries both
        # margins against (integral W)^e and their gap, computed here by
        # the brute-force sums.
        w = StepGraphon([Fraction(3, 16), Fraction(5, 16), Fraction(1, 16), Fraction(7, 16)],
                        random_graphon(4, seed=9).values)
        off = Fraction(1, 2**20)
        real = sidorenko.t_bip_step
        monkeypatch.setattr(sidorenko, "t_bip_step", lambda pattern, w: real(pattern, w) + off)
        report = check_equivalence_bridge(C4_BIP, w)
        d = brute_t_step(to_part_oriented(C4_BIP), w)
        b = brute_t_bip_step(C4_BIP, w) + off
        bound = reference_integral(w) ** C4_BIP.edge_count
        assert report.verdict == VIOLATED
        assert report.witness == CheckWitness(w, d - bound, b - bound, -abs(d - b))
        assert report.witness.margin == -off

    def test_holds_never_reads_the_mean(self, monkeypatch):
        # Equal densities give equal margins, so a bridge that holds
        # computes neither the mean nor its power.
        def never(self):
            raise AssertionError("the mean was computed")

        monkeypatch.setattr(StepGraphon, "integral", never)
        for pattern in (K2_BIP, C4_BIP, TREE4_BIP):
            assert check_equivalence_bridge(pattern, random_graphon(3, seed=4)).verdict == HOLDS

    def test_large_sum_warns_once_at_the_caller(self, monkeypatch):
        # Both densities of K_{5,5} on 8 parts price above the threshold:
        # the bridge warns once, at its caller's line, as each density
        # does on its own.
        monkeypatch.setattr(stepgraphon, "_map_sum", lambda *args, **kwargs: 0)
        k55 = BipartiteGraph(5, 5, [(i, j) for i in range(5) for j in range(5)])
        w = random_graphon(8, seed=21)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            assert check_equivalence_bridge(k55, w).verdict == HOLDS
            t_step(to_part_oriented(k55), w)
            t_bip_step(k55, w)
            check_equivalence_bridge(k55, w)
        assert [(x.category, x.filename, x.lineno) for x in caught] \
            == [(RuntimeWarning, __file__, line + i) for i in range(4)]

    def test_part_oriented_pattern_built_once_over_repeated_bridges(self, monkeypatch):
        # Both densities of every bridge share one part-oriented pattern.
        stepgraphon._part_oriented.cache_clear()
        w = random_graphon(3, seed=5)
        built = Counter()
        real = OrientedGraph.__init__

        def counted(self, *args, **kwargs):
            built["OrientedGraph"] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(OrientedGraph, "__init__", counted)
        for _ in range(3):
            for pattern in (C4_BIP, TREE4_BIP):
                assert check_equivalence_bridge(pattern, w).verdict == HOLDS
        assert built == {"OrientedGraph": 2}

    def test_density_digest(self):
        # 200 seeded 3+3 patterns on 6-part graphons with unequal parts and
        # zero values; the digest was taken with one map sum per density
        # that converted W on every call.
        rng = random.Random(2024)
        cells = [(i, j) for i in range(3) for j in range(3)]
        lines = []
        for _ in range(200):
            pattern = BipartiteGraph(3, 3, rng.sample(cells, rng.randint(1, 9)))
            weights = [rng.randint(1, 16) for _ in range(6)]
            values = [[Fraction(rng.choice((0, rng.randint(0, 64))), rng.choice((64, 3, 12)))
                       for _ in range(6)] for _ in range(6)]
            w = StepGraphon([Fraction(x, sum(weights)) for x in weights],
                            [[min(x, Fraction(1)) for x in row] for row in values])
            lines.append(f"{sorted(pattern.edges)} {t_step(to_part_oriented(pattern), w)} "
                         f"{t_bip_step(pattern, w)} {w.integral()} "
                         f"{check_equivalence_bridge(pattern, w)}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "bcc4da6aba473086cdb35e91512be99afb049d6fc2155704301dbe8e31d05c99"


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
