"""The benchmark's workloads: seeded inputs, the timed op, and its check.

Inputs are generated here as ``.graph`` / ``.graphon`` text, without using
digraphon, and parsed through ``digraphon.io`` during set-up.  Each case
also keeps the benchmark's own plain copy of what it encodes (vertex
counts, edge lists, Fractions), from which the checks rebuild the objects
they hand to the brute-force oracles.

An op is one user-level call or study.  Inside a workload every op has
roughly the same cost, so the percentiles do not jump between cost classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import oracles

SIDORENKO_N = 4
SIDORENKO_HOSTS = 1 + 3 + 27 + 729  # labeled oriented graphs on 1..4 vertices
TOURNAMENT_N = 5
TOURNAMENT_PAIRS = TOURNAMENT_N * (TOURNAMENT_N - 1) // 2
DENSITY_PARTS = 6
DENSITY_EDGES = 6
VALUE_DENOMINATOR = 64
P_CHOICES = ("1/16", "1/8", "1/4", "1/3", "1/2")
WITNESS_PARTS = 4
WITNESS_TOL = Fraction(1, 10**8)
LAMBDA0_PRECISION = Fraction(1, 2**40)
TRACE_VERTICES = 14


class CheckFailed(Exception):
    """An op's output disagrees with the independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Case:
    """One op's input: ``texts`` is parsed through digraphon.io, ``raw`` is
    the benchmark's own copy used by the checks."""

    texts: dict
    raw: dict


def _patterns(vertex_counts) -> list[tuple[int, tuple]]:
    """Every labeled oriented graph on the given vertex counts with no
    isolated vertex, in a fixed order."""
    out = []
    for v in vertex_counts:
        pairs = list(combinations(range(v), 2))
        for states in product(range(3), repeat=len(pairs)):
            edges = tuple((a, b) if s == 1 else (b, a)
                          for (a, b), s in zip(pairs, states) if s)
            if {x for e in edges for x in e} == set(range(v)):
                out.append((v, edges))
    return out


def _edge_hom_free(edges) -> bool:
    """Some vertex has both an out- and an in-edge, so the pattern has no
    homomorphism onto a single edge."""
    return bool({a for a, _ in edges} & {b for _, b in edges})


# Sorted by edge count, which sets most of an op's cost.
PATTERNS = sorted(_patterns((3, 4)), key=lambda p: len(p[1]))  # 656 patterns
EDGE_HOM_FREE = [p for p in PATTERNS if _edge_hom_free(p[1])]  # 600 patterns
GOLDEN = (5**0.5 - 1) / 2


def _spread_over(patterns: list, rng: random.Random, count: int) -> list:
    """Patterns read at a seeded low-discrepancy sequence of quantiles.

    Every pattern is equally likely at each position, but every prefix of
    the sequence mixes the edge counts in nearly fixed proportions, so the
    upper percentiles of a run do not depend on how many slow patterns the
    seed happened to draw.
    """
    offset = rng.random()
    return [patterns[int((offset + i * GOLDEN) % 1 * len(patterns))] for i in range(count)]


def _graph_text(v: int, edges) -> str:
    return f"D {v} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def _random_oriented_edges(rng: random.Random, v: int) -> tuple:
    edges = []
    for a, b in combinations(range(v), 2):
        state = rng.randrange(3)
        if state == 1:
            edges.append((a, b))
        elif state == 2:
            edges.append((b, a))
    return tuple(edges)


class Workload:
    name = ""
    why = ""
    pool = 0  # cases generated per run; ops cycle through them
    # Ops of a traced run per second of --seconds.  Each traced op runs
    # twice, so this is under half the op rate on the baseline machine,
    # which leaves the traced run shorter than --seconds there.
    traced_ops_per_s = 0.0

    def generate(self, seed: int) -> list[Case]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.case(rng) for _ in range(self.pool)]

    def case(self, rng: random.Random) -> Case:
        raise NotImplementedError

    def parse(self, io, case: Case) -> tuple:
        raise NotImplementedError

    def run(self, dg, args: tuple, index: int):
        raise NotImplementedError

    def check(self, dg, case: Case, args: tuple, result, index: int, deep: bool) -> None:
        """Raise CheckFailed unless ``result`` is right; ``deep`` asks for
        the expensive oracles that run on one op per run only."""
        raise NotImplementedError


class PatternScan(Workload):
    """One seeded pattern on 3-4 vertices with no isolated vertex per op."""

    pool = 512

    def generate(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [Case({"pattern": _graph_text(v, edges)}, {"v": v, "edges": edges})
                for v, edges in _spread_over(PATTERNS, rng, self.pool)]

    def parse(self, io, case):
        return (io.parse_graph(case.texts["pattern"]),)


class SidorenkoScan(PatternScan):
    name = "sidorenko-scan"
    why = ("exhaustive directed Sidorenko scans over 760 hosts: the hom counter, "
           "per-host search planning and host decoding (criterion 06)")
    traced_ops_per_s = 5.0

    def run(self, dg, args, index):
        return dg.check_directed_sidorenko_exhaustive(args[0], SIDORENKO_N, workers=1)

    def check(self, dg, case, args, result, index, deep):
        v, edges = case.raw["v"], case.raw["edges"]
        _require(result.instances_checked == SIDORENKO_HOSTS,
                 f"checked {result.instances_checked} hosts, not {SIDORENKO_HOSTS}")
        if _edge_hom_free(edges):
            _require(result.violated, "an edge-hom-free pattern must be violated")
        if not result.violated:
            _require(result.witness is None, "a holding verdict carries no witness")
            return
        host = result.witness.host
        n = host.vertex_count
        lhs = Fraction(oracles.suite().brute_hom_directed(dg.OrientedGraph(v, edges), host),
                       n**v)
        rhs = Fraction(len(host.edges), n * n) ** len(edges)
        _require(result.witness.lhs == lhs and result.witness.rhs == rhs,
                 "witness densities disagree with the brute-force count")
        _require(result.witness.margin == lhs - rhs < 0, "witness margin is wrong")


class TournamentScan(PatternScan):
    name = "tournament-scan"
    why = ("impartiality and anti-Sidorenko over all 1024 tournaments on 5 "
           "vertices: injective copies, hom counts and tournament decoding "
           "(criteria 09, 10)")
    traced_ops_per_s = 4.0

    def run(self, dg, args, index):
        if index % 2 == 0:
            return dg.impartiality_check(args[0], TOURNAMENT_N, workers=1)
        return dg.anti_sidorenko_check(args[0], TOURNAMENT_N, workers=1)

    def check(self, dg, case, args, result, index, deep):
        v, edges = case.raw["v"], case.raw["edges"]
        total = 2**TOURNAMENT_PAIRS
        if index % 2 == 0:
            _require(sum(result.counts.values()) == total,
                     f"histogram total {sum(result.counts.values())}, not {total}")
            # Each injective map hits e(B) distinct pairs, each oriented
            # the right way in exactly half of the tournaments.
            copies = sum(c * times for c, times in result.counts.items())
            expected = oracles.falling(TOURNAMENT_N, v) * 2 ** (TOURNAMENT_PAIRS - len(edges))
            _require(copies == expected, f"copies sum {copies}, expected {expected}")
            _require((result.min, result.max) == (min(result.counts), max(result.counts))
                     and result.constant == (result.min == result.max),
                     "histogram summary fields disagree with the histogram")
            return
        _require(result.instances_checked == total,
                 f"checked {result.instances_checked} tournaments, not {total}")
        host = result.witness.host
        pairs = {frozenset(e) for e in host.edges}
        _require(host.vertex_count == TOURNAMENT_N and len(host.edges) == TOURNAMENT_PAIRS
                 and len(pairs) == TOURNAMENT_PAIRS, "witness is not a tournament")
        lhs = Fraction(oracles.suite().brute_hom_directed(dg.OrientedGraph(v, edges), host),
                       TOURNAMENT_N**v)
        rhs = Fraction(1, 2) ** len(edges)
        _require(result.witness.lhs == lhs and result.witness.rhs == rhs,
                 "witness density disagrees with the brute-force count")
        _require(result.witness.margin == rhs - lhs
                 and result.violated == (rhs < lhs), "margin or verdict is wrong")


class GraphonDensity(Workload):
    name = "graphon-density"
    why = ("margin bridges of 3+3 bipartite patterns on 6-part unequal-length "
           "step graphons: t_step and t_bip_step on the general path (criteria 04, 13)")
    pool = 256
    traced_ops_per_s = 4.0

    def case(self, rng):
        cells = [(i, j) for i in range(3) for j in range(3)]
        while True:
            edges = tuple(sorted(rng.sample(cells, DENSITY_EDGES)))
            if {i for i, _ in edges} == {0, 1, 2} and {j for _, j in edges} == {0, 1, 2}:
                break
        while True:
            weights = [rng.randint(1, 16) for _ in range(DENSITY_PARTS)]
            if len(set(weights)) > 1:
                break
        total = sum(weights)
        numerators = [[rng.randint(0, VALUE_DENOMINATOR) for _ in range(DENSITY_PARTS)]
                      for _ in range(DENSITY_PARTS)]
        pattern = (f"B 3 3 {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges))
        graphon = (f"W {DENSITY_PARTS}\n"
                   + " ".join(f"{w}/{total}" for w in weights) + "\n"
                   + "".join(" ".join(f"{r}/{VALUE_DENOMINATOR}" for r in row) + "\n"
                             for row in numerators))
        return Case({"pattern": pattern, "graphon": graphon}, {
            "edges": edges,
            "lengths": [Fraction(w, total) for w in weights],
            "values": [[Fraction(r, VALUE_DENOMINATOR) for r in row] for row in numerators],
        })

    def parse(self, io, case):
        return io.parse_graph(case.texts["pattern"]), io.parse_graphon(case.texts["graphon"])

    def run(self, dg, args, index):
        return dg.check_equivalence_bridge(*args)

    def check(self, dg, case, args, result, index, deep):
        _require(result.verdict == dg.HOLDS and result.witness is None,
                 "the directed and bipartite margins differ")
        if not deep:
            return
        # The bridge compares the two density engines with each other; the
        # brute-force sums catch an error the engines share.
        pattern, w = args
        edges = case.raw["edges"]
        plain = dg.StepGraphon(case.raw["lengths"], case.raw["values"])
        directed = dg.OrientedGraph(6, [(i, 3 + j) for i, j in edges])
        brute = oracles.suite()
        _require(dg.t_step(dg.to_part_oriented(pattern), w)
                 == brute.brute_t_step(directed, plain), "t_step is wrong")
        _require(dg.t_bip_step(pattern, w)
                 == brute.brute_t_bip_step(dg.BipartiteGraph(3, 3, edges), plain),
                 "t_bip_step is wrong")


class ForcingStudy(Workload):
    name = "forcing-study"
    why = ("per-pattern forcing studies: the lambda0 root, a witness search with "
           "PGD and exact polish, and a k=14 exact cut-norm trace (criteria 03, 12)")
    pool = 64
    traced_ops_per_s = 1.0

    def generate(self, seed):
        # p cycles through its values, for the same reason the patterns
        # are spread over their edge counts.
        rng = random.Random(f"{self.name}:{seed}")
        patterns = _spread_over(EDGE_HOM_FREE, rng, self.pool)
        return [self.case(rng, pattern, P_CHOICES[i % len(P_CHOICES)])
                for i, pattern in enumerate(patterns)]

    def case(self, rng, pattern, p):
        v, edges = pattern
        graph_edges = _random_oriented_edges(rng, TRACE_VERTICES)
        seed = rng.randrange(2**31)
        return Case({"pattern": _graph_text(v, edges), "p": p,
                     "graph": _graph_text(TRACE_VERTICES, graph_edges)},
                    {"v": v, "edges": edges, "p": Fraction(p), "graph_edges": graph_edges,
                     "seed": seed})

    def parse(self, io, case):
        return (io.parse_graph(case.texts["pattern"]), io.parse_rational(case.texts["p"]),
                io.parse_graph(case.texts["graph"]), case.raw["seed"])

    def run(self, dg, args, index):
        pattern, p, graph, seed = args
        return (dg.necessary_conditions(pattern),
                dg.find_lambda0(pattern),
                dg.forcing_witness_search(pattern, p, WITNESS_PARTS, WITNESS_TOL,
                                          restarts=1, seed=seed),
                dg.quasirandom_trace([graph], p))

    def check(self, dg, case, args, result, index, deep):
        v, edges, p = case.raw["v"], case.raw["edges"], case.raw["p"]
        e = len(edges)
        brute = oracles.suite()
        plain_pattern = dg.OrientedGraph(v, edges)
        necessary, profile, witness, trace = result
        _require(not necessary.hom_to_edge, "an edge-hom-free pattern maps onto an edge")
        _require(necessary.underlying_cycle == oracles.has_cycle(v, edges),
                 "underlying-cycle condition is wrong")

        target = Fraction(1, 16) ** e
        lam = profile.lambda0
        _require(profile.target == target and lam is not None and 0 <= lam <= 1,
                 "lambda0 profile is malformed")
        _require(abs(brute.brute_t_step(plain_pattern, dg.StepGraphon(*oracles.w_lambda(lam)))
                     - target)
                 <= LAMBDA0_PRECISION, f"lambda0 = {lam} misses the target")

        if witness is not None:
            lengths = list(witness.part_lengths)
            values = [list(row) for row in witness.values]
            _require(lengths == [Fraction(1, WITNESS_PARTS)] * WITNESS_PARTS,
                     "witness parts are not equal")
            plain = dg.StepGraphon(lengths, values)
            _require(abs(brute.brute_t_step(plain_pattern, plain) - p**e) <= WITNESS_TOL,
                     "witness density residual exceeds tol")
            _require(abs(oracles.mean(lengths, values) - p) <= WITNESS_TOL,
                     "witness mean residual exceeds tol")
            _require(brute.brute_cut_norm_centered(plain, p) >= 10 * WITNESS_TOL,
                     "witness is within 10*tol of the constant graphon")

        # The trace returns only values; the witness sets of the same cut
        # norm are recomputed outside the timed op and summed directly.
        _require(len(trace) == 1, "trace has the wrong length")
        graph = args[2]
        cut = dg.cut_norm_centered(dg.from_oriented(graph), p)
        n = TRACE_VERTICES
        adjacency = set(case.raw["graph_edges"])
        lengths = [Fraction(1, n)] * n
        values = [[Fraction(int((i, j) in adjacency)) for j in range(n)] for i in range(n)]
        _require(cut.value == trace[0], "trace value differs from the cut norm")
        _require(abs(oracles.rectangle(lengths, values, p, cut.witness_s, cut.witness_t))
                 == trace[0], "trace value differs from its witness rectangle")
        _require(oracles.is_local_max(lengths, values, p, cut.witness_s, cut.witness_t),
                 "cut-norm witness is not a local maximum")


WORKLOADS = {w.name: w for w in (SidorenkoScan(), TournamentScan(),
                                 GraphonDensity(), ForcingStudy())}


def warm_up(dg) -> None:
    """One small call into every layer before timing, so lazy first-call
    work lands in set-up.  It is the same for every workload."""
    path = dg.OrientedGraph(3, [(0, 1), (1, 2)])
    triangle = dg.OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    third = Fraction(1, 3)
    dg.check_directed_sidorenko_exhaustive(path, 3, workers=1)
    dg.impartiality_check(path, 3, workers=1)
    dg.anti_sidorenko_check(path, 3, workers=1)
    dg.check_equivalence_bridge(dg.BipartiteGraph(1, 2, [(0, 0), (0, 1)]),
                                dg.StepGraphon([third, 1 - third], [[third, 1], [0, third]]))
    dg.necessary_conditions(triangle)
    dg.find_lambda0(triangle, grid=4)
    dg.forcing_witness_search(triangle, Fraction(1, 4), 2, restarts=1, max_iterations=50)
    dg.quasirandom_trace([triangle], third)
