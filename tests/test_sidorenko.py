import hashlib
import random
import sys
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digraphon import (
    HOLDS,
    VIOLATED,
    BipartiteGraph,
    CheckWitness,
    OrientedGraph,
    StepGraphon,
    anti_sidorenko_check,
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
from digraphon import counting, sidorenko, stepgraphon
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
STAR3 = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])


@st.composite
def step_graphons(draw, parts=3, denominator=8):
    vals = draw(st.lists(st.integers(0, denominator),
                         min_size=parts * parts, max_size=parts * parts))
    matrix = [[Fraction(vals[i * parts + j], denominator) for j in range(parts)]
              for i in range(parts)]
    return StepGraphon([Fraction(1, parts)] * parts, matrix)


@st.composite
def small_bipartite_graphs(draw, max_part=3):
    """Bipartite patterns with parts of 0..max_part vertices and any edge
    set, so some vertices or whole parts may be isolated or empty."""
    n1, n2 = draw(st.integers(0, max_part)), draw(st.integers(0, max_part))
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    return BipartiteGraph(n1, n2, draw(st.lists(st.sampled_from(cells), unique=True))
                          if cells else [])


@st.composite
def unequal_step_graphons(draw, max_parts=3, denominator=16):
    """Step graphons on 1..max_parts parts of unequal integer weights."""
    parts = draw(st.integers(1, max_parts))
    weights = draw(st.lists(st.integers(1, 8), min_size=parts, max_size=parts))
    vals = draw(st.lists(st.integers(0, denominator), min_size=parts * parts,
                         max_size=parts * parts))
    return StepGraphon([Fraction(x, sum(weights)) for x in weights],
                       [[Fraction(vals[i * parts + j], denominator) for j in range(parts)]
                        for i in range(parts)])


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_witness_runs_no_count_after_the_tally(self, monkeypatch, workers):
        # The witness reads its hom and edge counts from the tally key, so
        # no hom count runs once the scan has its minimum.
        def never(*args, **kwargs):
            raise AssertionError("a hom count ran after the tally")

        monkeypatch.setattr(sidorenko, "t_directed", never)
        monkeypatch.setattr(counting, "hom_count_directed", never)
        report = check_directed_sidorenko_exhaustive(PATH3, 4, workers=workers)
        host = OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        lhs = Fraction(brute_hom_directed(PATH3, host), 4 ** 3)
        assert report == sidorenko.CheckReport(
            "directed-sidorenko", VIOLATED,
            CheckWitness(host, lhs, Fraction(9, 64), lhs - Fraction(9, 64)), 760)
        assert (lhs, lhs - Fraction(9, 64)) == (Fraction(1, 16), Fraction(-5, 64))

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


class TestRandomBatch:
    def test_random_batch_digest(self):
        # Directed batches (the paths and triangles are violated on some
        # graphons) and asymmetric ones over seeds 0-2, parts 1-4 and
        # denominators up to 2^70; the digest was taken when each instance
        # was a StepGraphon decided on Fractions.
        directed = (PATH3, TRIANGLE, TRANSITIVE, ALT_C4, to_part_oriented(C4_BIP))
        asymmetric = (P3_BIP, C4_BIP, TREE4_BIP, BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]))
        lines = []
        for seed in range(3):
            for parts in range(1, 5):
                for denominator in (1, 6, 64, 2**70):
                    reports = [check_directed_sidorenko_random(
                        p, instances=6, parts=parts, seed=seed, denominator=denominator)
                        for p in directed]
                    reports += [check_asym_sidorenko_random(
                        p, instances=6, parts=parts, seed=seed, denominator=denominator)
                        for p in asymmetric]
                    for r in reports:
                        lines.append(f"{r.property_name} {seed} {parts} {denominator} "
                                     f"{r.verdict} {r.instances_checked}")
                        if r.witness is not None:
                            wit = r.witness
                            lines.append(f" {wit.host.part_lengths} {wit.host.values} "
                                         f"{wit.lhs} {wit.rhs} {wit.margin}")
                        lines.append("\n")
        text = "".join(lines)
        assert text.count(VIOLATED) == 83
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "8ff54892ab352466c94942f1d8aa21d26e22ba80521d1bbe0c0f936a7bd82abb"

    def test_violated_batch_builds_one_graphon(self, monkeypatch):
        # The instances are integer cells; only the witness of a violated
        # batch is built as a graphon, and no density is summed on it, so
        # it keeps no tables.  A batch that holds builds none.
        built = Counter()
        real = StepGraphon.__init__

        def counted(self, *args, **kwargs):
            built["StepGraphon"] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(StepGraphon, "__init__", counted)
        report = check_directed_sidorenko_random(PATH3, instances=5, parts=3)
        assert report.verdict == VIOLATED and built == {"StepGraphon": 1}
        assert "_tables" not in vars(report.witness.host)
        built.clear()
        report = check_asym_sidorenko_random(C4_BIP, instances=5, parts=3)
        assert report.verdict == HOLDS and not built

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_patterns(max_n=4), small_bipartite_graphs(max_part=2)),
           st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32),
           st.sampled_from((1, 2, 6, 64)))
    @example(PATH3, 5, 2, 0, 1)
    def test_batch_matches_brute_force(self, pattern, instances, parts, seed, denominator):
        # Each instance drawn cell by cell from the seeded stream, summed by
        # brute force; the batch keeps the least margin, earliest on ties.
        # In the example, instances 1 and 4 are distinct graphons that
        # share the least margin -1/16.
        if isinstance(pattern, BipartiteGraph):
            check, density = check_asym_sidorenko_random, brute_t_bip_step
        else:
            check, density = check_directed_sidorenko_random, brute_t_step
        rng = random.Random(seed)
        best = None
        for _ in range(instances):
            w = StepGraphon([Fraction(1, parts)] * parts,
                            [[Fraction(rng.randint(0, denominator), denominator)
                              for _ in range(parts)] for _ in range(parts)])
            lhs, rhs = density(pattern, w), reference_integral(w) ** pattern.edge_count
            if best is None or lhs - rhs < best.margin:
                best = CheckWitness(w, lhs, rhs, lhs - rhs)
        report = check(pattern, instances=instances, parts=parts, seed=seed,
                       denominator=denominator)
        assert report.instances_checked == instances
        if best.margin < 0:
            assert report.verdict == VIOLATED and report.witness == best
        else:
            assert report.verdict == HOLDS and report.witness is None


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

    def test_one_conversion_and_one_map_sum_per_bridge(self, monkeypatch):
        # The density and the mean read the integer form that W built when
        # it was constructed, and the bridge sums its one density once.
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
        assert calls == {"_map_sum": 1}

    def test_violated_reports_both_margins(self, monkeypatch):
        # A density 2^-20 below the bound: the witness carries the one
        # margin that is both the directed margin of the part-oriented
        # pattern and the asymmetric margin of C4, against the
        # brute-force density and mean.
        w = StepGraphon([Fraction(3, 16), Fraction(5, 16), Fraction(1, 16), Fraction(7, 16)],
                        random_graphon(4, seed=9).values)
        b = brute_t_bip_step(C4_BIP, w)
        bound = reference_integral(w) ** C4_BIP.edge_count
        off = b - bound + Fraction(1, 2**20)
        # The check decides on the integer total, the density times
        # dl^v * dv^e; the shifted total is a Fraction, which the decision
        # and the witness read exactly.
        _, dl, _, dv = w._form
        real = sidorenko._density_total
        monkeypatch.setattr(sidorenko, "_density_total",
                            lambda pattern, w: real(pattern, w) - off * dl ** 4 * dv ** 4)
        report = check_equivalence_bridge(C4_BIP, w)
        assert report.verdict == VIOLATED
        assert report.witness == CheckWitness(w, b - off, bound, b - off - bound)
        assert report.witness.margin == -Fraction(1, 2**20)

    def test_holding_report_is_shared_per_name(self):
        # A check that holds returns the one frozen report of its property
        # name; a violation returns a new report with its witness.
        ws = [random_graphon(3, seed=seed) for seed in (4, 5)]
        bridges = [check_equivalence_bridge(p, w) for p in (K2_BIP, C4_BIP) for w in ws]
        asym = [check_asym_sidorenko(p, w) for p in (K2_BIP, C4_BIP) for w in ws]
        directed = [check_directed_sidorenko_graphon(EDGE, w) for w in ws]
        for reports, name in ((bridges, "directed-bipartite-margin-bridge"),
                              (asym, "asymmetric-sidorenko"),
                              (directed, "directed-sidorenko-graphon")):
            assert all(r is reports[0] for r in reports)
            assert reports[0] == sidorenko.CheckReport(name, HOLDS, None, 1)
        # The directed 2-path on W: t = 1/16 < (5/16)^2.
        w = StepGraphon([Fraction(1, 2)] * 2, [[0, 1], [Fraction(1, 4), 0]])
        first, second = (check_directed_sidorenko_graphon(PATH3, w) for _ in range(2))
        assert first.verdict == second.verdict == VIOLATED and first is not second
        assert first.witness == second.witness == CheckWitness(
            w, Fraction(1, 16), Fraction(25, 256), Fraction(-9, 256))

    def test_holds_builds_no_witness(self, monkeypatch):
        # A margin of at least 0 holds with no witness, so a bridge that
        # holds builds neither a witness nor its margin; K2's margin is 0.
        def never(*args, **kwargs):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(sidorenko, "CheckWitness", never)
        for pattern in (K2_BIP, C4_BIP, TREE4_BIP):
            report = check_equivalence_bridge(pattern, random_graphon(3, seed=4))
            assert report.verdict == HOLDS and report.witness is None

    def test_large_sum_warns_once_at_the_caller(self, monkeypatch):
        # The sum of K_{5,5} prices at 19,698,248 steps on 8 parts, above
        # the threshold: the bridge warns once, at its caller's line, as
        # each density does on its own.  On 7 parts it prices at 6,960,898,
        # below it, and nothing warns.  The stubbed density 0 is below the
        # positive bound.
        monkeypatch.setattr(stepgraphon, "_map_sum", lambda *args, **kwargs: 0)
        k55 = BipartiteGraph(5, 5, [(i, j) for i in range(5) for j in range(5)])
        for parts, warns in ((7, False), (8, True)):
            w = random_graphon(parts, seed=21)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 1
                assert check_equivalence_bridge(k55, w).verdict == VIOLATED
                t_step(to_part_oriented(k55), w)
                t_bip_step(k55, w)
                check_equivalence_bridge(k55, w)
            assert [(x.category, x.filename, x.lineno) for x in caught] \
                == [(RuntimeWarning, __file__, line + i) for i in range(4 if warns else 0)]

    @settings(max_examples=60, deadline=None)
    @given(small_bipartite_graphs(), unequal_step_graphons())
    def test_bridge_decides_as_the_asymmetric_check(self, pattern, w):
        # One number is both margins: the bridge's report is the asymmetric
        # check's under its own name, and its verdict is the sign of the
        # brute-force margin.  Patterns include isolated vertices and empty
        # parts.
        report = check_equivalence_bridge(pattern, w)
        assert report == replace(check_asym_sidorenko(pattern, w),
                                 property_name="directed-bipartite-margin-bridge")
        margin = brute_t_bip_step(pattern, w) - reference_integral(w) ** pattern.edge_count
        assert report.verdict == (VIOLATED if margin < 0 else HOLDS)

    def test_graphon_checks_warn_once_at_the_caller(self, monkeypatch):
        # K_{5,5} on 8 parts prices above the threshold: each graphon check
        # and each 3-instance batch warns once, at its caller's line.  On 7
        # parts it prices below the threshold, and nothing warns.
        monkeypatch.setattr(stepgraphon, "_map_sum", lambda *args, **kwargs: 0)
        k55 = BipartiteGraph(5, 5, [(i, j) for i in range(5) for j in range(5)])
        oriented = to_part_oriented(k55)
        for parts, warns in ((7, False), (8, True)):
            w = random_graphon(parts, seed=21)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 1
                check_directed_sidorenko_graphon(oriented, w)
                check_asym_sidorenko(k55, w)
                check_directed_sidorenko_random(oriented, instances=3, parts=parts)
                check_asym_sidorenko_random(k55, instances=3, parts=parts)
            assert [(x.category, x.filename, x.lineno) for x in caught] \
                == [(RuntimeWarning, __file__, line + i) for i in range(4 if warns else 0)]

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


class TestVerdictRule:
    """`_report` decides every verdict: VIOLATED exactly when the report's
    witness has a negative margin."""

    # Each public check on an input it holds on and one it is violated on.
    # No small bipartite pattern violates the asymmetric inequality, so
    # those checks are violated on a density stubbed to 0 below a positive
    # bound, as in `test_graphon_checks_warn_once_at_the_caller`.
    @pytest.mark.parametrize("check,verdict,zero_density", [
        pytest.param(lambda: check_directed_sidorenko_exhaustive(EDGE, 2),
                     HOLDS, False, id="exhaustive-holds"),
        pytest.param(lambda: check_directed_sidorenko_exhaustive(PATH3, 2),
                     VIOLATED, False, id="exhaustive-violated"),
        pytest.param(lambda: check_directed_sidorenko_graphon(EDGE, random_graphon(4, seed=0)),
                     HOLDS, False, id="graphon-holds"),
        pytest.param(lambda: check_directed_sidorenko_graphon(
                         PATH3, from_oriented(oriented_knn(2))),
                     VIOLATED, False, id="graphon-violated"),
        pytest.param(lambda: check_directed_sidorenko_random(EDGE, instances=5, parts=3),
                     HOLDS, False, id="random-holds"),
        pytest.param(lambda: check_directed_sidorenko_random(PATH3, instances=5, parts=3),
                     VIOLATED, False, id="random-violated"),
        pytest.param(lambda: check_asym_sidorenko(C4_BIP, random_graphon(3, seed=4)),
                     HOLDS, False, id="asymmetric-holds"),
        pytest.param(lambda: check_asym_sidorenko(C4_BIP, random_graphon(3, seed=4)),
                     VIOLATED, True, id="asymmetric-violated"),
        pytest.param(lambda: check_asym_sidorenko_random(C4_BIP, instances=5, parts=3),
                     HOLDS, False, id="asymmetric-random-holds"),
        pytest.param(lambda: check_asym_sidorenko_random(C4_BIP, instances=5, parts=3),
                     VIOLATED, True, id="asymmetric-random-violated"),
        pytest.param(lambda: check_equivalence_bridge(C4_BIP, random_graphon(3, seed=4)),
                     HOLDS, False, id="bridge-holds"),
        pytest.param(lambda: check_equivalence_bridge(C4_BIP, random_graphon(3, seed=4)),
                     VIOLATED, True, id="bridge-violated"),
        pytest.param(lambda: check_second_sidorenko(PATH3, TRIANGLE),
                     HOLDS, False, id="second-holds"),
        pytest.param(lambda: check_second_sidorenko(PATH3, TRANSITIVE),
                     VIOLATED, False, id="second-violated"),
        pytest.param(lambda: anti_sidorenko_check(PATH3, 3),
                     HOLDS, False, id="anti-sidorenko-holds"),
        pytest.param(lambda: anti_sidorenko_check(STAR3, 5),
                     VIOLATED, False, id="anti-sidorenko-violated"),
    ])
    def test_verdict_is_read_from_the_witness(self, check, verdict, zero_density,
                                              monkeypatch):
        if zero_density:
            monkeypatch.setattr(stepgraphon, "_map_sum", lambda *args, **kwargs: 0)
        report = check()
        assert report.verdict == verdict
        assert report.violated == (report.witness is not None and report.witness.margin < 0)

    def test_zero_margin_witness_holds(self):
        # The margin is the slack of the inequality, so equality holds.
        witness = CheckWitness(EDGE, Fraction(1, 4), Fraction(1, 4), Fraction(0))
        report = sidorenko._report("edge", witness, 3)
        assert report == sidorenko.CheckReport("edge", HOLDS, witness, 3)
        assert not report.violated
        below = replace(witness, lhs=Fraction(1, 5), margin=Fraction(-1, 20))
        report = sidorenko._report("edge", below, 3, complete=False)
        assert report == sidorenko.CheckReport("edge", VIOLATED, below, 3, False)
        assert sidorenko._report("edge", None, 3).verdict == HOLDS
