from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digraphon import (
    BipartiteGraph,
    OrientedGraph,
    UndirectedGraph,
    check_directed_sidorenko_exhaustive,
    disjoint_union,
    hom_count_bip,
    hom_count_directed,
    hom_count_undirected,
    impartiality_check,
    labeled_copies,
    oriented_knn,
    t_bip,
    t_directed,
    t_undirected,
    to_part_oriented,
)
from digraphon.counting import _back_edges, _plan
from digraphon.graphs import oriented_graph_count, oriented_graph_from_index
from digraphon.stepgraphon import _map_sum, _sum_order, _sum_plan

from oracles import (
    brute_copies_directed,
    brute_hom_bip,
    brute_hom_directed,
    brute_hom_undirected,
)

EDGE = OrientedGraph(2, [(0, 1)])
TRIANGLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
TRANSITIVE = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])
PATH3 = OrientedGraph(3, [(0, 1), (1, 2)])


@st.composite
def oriented_graphs(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    edges = []
    for (u, v), s in zip(pairs, states):
        if s == 1:
            edges.append((u, v))
        elif s == 2:
            edges.append((v, u))
    return OrientedGraph(n, edges)


@st.composite
def bipartite_graphs(draw, min_part=0, max_part=3):
    n1 = draw(st.integers(min_part, max_part))
    n2 = draw(st.integers(min_part, max_part))
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    mask = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return BipartiteGraph(n1, n2, [c for c, keep in zip(cells, mask) if keep])


class TestDirectedCounts:
    def test_edge_into_edge(self):
        assert hom_count_directed(EDGE, EDGE) == 1

    def test_edge_into_triangle(self):
        assert hom_count_directed(EDGE, TRIANGLE) == 3

    def test_path_into_triangle(self):
        assert hom_count_directed(PATH3, TRIANGLE) == 3
        assert brute_hom_directed(PATH3, TRIANGLE) == 3

    def test_density_examples(self):
        assert t_directed(EDGE, TRIANGLE) == Fraction(1, 3)
        assert t_directed(EDGE, oriented_knn(2)) == Fraction(1, 4)
        assert t_directed(PATH3, TRANSITIVE) == Fraction(1, 27)

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError):
            t_directed(EDGE, OrientedGraph(0))

    def test_empty_pattern_density_is_one(self):
        assert t_directed(OrientedGraph(0), TRIANGLE) == 1

    @settings(max_examples=80, deadline=None)
    @given(oriented_graphs(max_n=3), oriented_graphs(max_n=4))
    def test_backtracking_matches_brute_force(self, pattern, host):
        assert hom_count_directed(pattern, host) == brute_hom_directed(pattern, host)

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs(max_n=3), oriented_graphs(max_n=4))
    def test_count_bounded_by_all_maps(self, pattern, host):
        assert hom_count_directed(pattern, host) <= host.vertex_count ** pattern.vertex_count


class TestLabeledCopies:
    def test_edge_in_triangle(self):
        assert labeled_copies(EDGE, TRIANGLE) == 3

    def test_triangle_in_itself(self):
        assert labeled_copies(TRIANGLE, TRIANGLE) == 3
        assert brute_copies_directed(TRIANGLE, TRIANGLE) == 3

    def test_pattern_larger_than_host(self):
        assert labeled_copies(PATH3, EDGE) == 0

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs(max_n=3), oriented_graphs(max_n=4))
    def test_injective_matches_brute_force(self, pattern, host):
        assert labeled_copies(pattern, host) == brute_copies_directed(pattern, host)

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs(max_n=3), oriented_graphs(max_n=4))
    def test_homs_dominate_copies(self, pattern, host):
        assert hom_count_directed(pattern, host) >= labeled_copies(pattern, host)

    def test_equal_when_single_vertex(self):
        one = OrientedGraph(1)
        assert hom_count_directed(one, TRIANGLE) == labeled_copies(one, TRIANGLE) == 3


class TestBipartiteCounts:
    def test_k2_density_is_bipartite_edge_density(self):
        k2 = BipartiteGraph(1, 1, [(0, 0)])
        host = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        assert t_bip(k2, host) == Fraction(4, 6)

    def test_k2_in_complete_bipartite(self):
        k2 = BipartiteGraph(1, 1, [(0, 0)])
        host = BipartiteGraph(3, 4, [(i, j) for i in range(3) for j in range(4)])
        assert t_bip(k2, host) == 1

    def test_two_path_in_perfect_matching(self):
        # Pattern: two part-1 vertices joined to one part-2 vertex.
        path = BipartiteGraph(2, 1, [(0, 0), (1, 0)])
        matching = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        assert hom_count_bip(path, matching) == 2
        assert t_bip(path, matching) == Fraction(2, 8) == Fraction(1, 4)

    def test_empty_host_part_rejected(self):
        with pytest.raises(ValueError):
            t_bip(BipartiteGraph(1, 1, [(0, 0)]), BipartiteGraph(0, 2))

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(max_part=2), bipartite_graphs(max_part=3))
    # An edgeless pattern (4^2 * 5^3 maps), and an isolated vertex in each
    # pattern part beside an empty host part 2.
    @example(BipartiteGraph(2, 3), BipartiteGraph(4, 5, [(0, 0), (3, 4)]))
    @example(BipartiteGraph(2, 2, [(0, 0)]), BipartiteGraph(3, 0))
    def test_matches_brute_force(self, pattern, host):
        assert hom_count_bip(pattern, host) == brute_hom_bip(pattern, host)

    def test_part_oriented_density_in_knn(self):
        # For every small bipartite pattern, the directed density in the
        # oriented K_{n,n} equals the part-respecting count in K_{n,n}
        # divided by (2n)^v, with a factor 2 per isolated pattern vertex
        # (those may land in either host part on the directed side).
        for n1 in (1, 2):
            for n2 in (1, 2):
                cells = [(i, j) for i in range(n1) for j in range(n2)]
                for mask in range(1 << len(cells)):
                    pattern = BipartiteGraph(
                        n1, n2, [c for b, c in enumerate(cells) if (mask >> b) & 1])
                    directed = to_part_oriented(pattern)
                    isolated = sum(1 for v in range(directed.vertex_count)
                                   if directed.degree(v) == 0)
                    for n in (1, 2, 3):
                        host = BipartiteGraph(
                            n, n, [(i, j) for i in range(n) for j in range(n)])
                        expected = Fraction(
                            hom_count_bip(pattern, host) * 2 ** isolated,
                            (2 * n) ** pattern.vertex_count)
                        assert t_directed(directed, oriented_knn(n)) == expected


class TestUndirectedCounts:
    def test_path_in_k3(self):
        p3 = UndirectedGraph(3, [(0, 1), (1, 2)])
        k3 = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert hom_count_undirected(p3, k3) == 12
        assert t_undirected(p3, k3) == Fraction(4, 9)

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs(max_n=3), oriented_graphs(max_n=4))
    def test_matches_brute_force(self, a, b):
        from digraphon import underlying

        pa, pb = underlying(a), underlying(b)
        assert hom_count_undirected(pa, pb) == brute_hom_undirected(pa, pb)


class TestDensityInvariants:
    @settings(max_examples=50, deadline=None)
    @given(oriented_graphs(max_n=3), oriented_graphs(max_n=4),
           st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, pattern, host, rng):
        pm = list(range(pattern.vertex_count))
        hm = list(range(host.vertex_count))
        rng.shuffle(pm)
        rng.shuffle(hm)
        assert t_directed(pattern, host) == t_directed(pattern.relabel(pm), host.relabel(hm))

    @settings(max_examples=50, deadline=None)
    @given(oriented_graphs(max_n=2), oriented_graphs(max_n=2), oriented_graphs(max_n=3))
    def test_multiplicative_over_disjoint_union(self, b1, b2, host):
        assert t_directed(disjoint_union(b1, b2), host) == \
            t_directed(b1, host) * t_directed(b2, host)

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs(max_n=3), oriented_graphs(max_n=4))
    def test_density_in_unit_interval(self, pattern, host):
        t = t_directed(pattern, host)
        assert 0 <= t <= 1

    def test_full_enumeration_cross_check(self):
        # Every pattern on <=2 vertices against every host on <=3 vertices.
        patterns = [oriented_graph_from_index(n, i)
                    for n in (1, 2) for i in range(oriented_graph_count(n))]
        hosts = [oriented_graph_from_index(n, i)
                 for n in (1, 2, 3) for i in range(oriented_graph_count(n))]
        for p in patterns:
            for h in hosts:
                assert hom_count_directed(p, h) == brute_hom_directed(p, h)


class TestSharedPlan:
    @settings(max_examples=80, deadline=None)
    @given(oriented_graphs(min_n=0, max_n=5))
    def test_back_edges(self, pattern):
        # The hom counters' plan, and the density sum's order, with the back
        # edges of each.
        v = pattern.vertex_count
        edges = tuple(pattern.sorted_edges())
        sum_order = tuple(_sum_order(v, edges))
        for order, back in (_plan(v, edges), (sum_order, _back_edges(sum_order, edges))):
            assert isinstance(order, tuple) and all(isinstance(bk, tuple) for bk in back)
            assert sorted(order) == list(range(v))
            assert len(back) == v
            seen = []
            for i, bk in enumerate(back):
                for j, t in bk:
                    assert 0 <= j < i
                    earlier, later = order[j], order[i]
                    seen.append((earlier, later) if t == 0 else (later, earlier))
            assert sorted(seen) == list(edges)

    def test_each_engine_keeps_its_order(self):
        # A 4-cycle through 0, 2, 1, 3 and an isolated vertex 4.  The
        # counters grow a connected prefix by degree and leave the isolated
        # vertex, which needs no search, for last; the density sum places it
        # first, where it adds nothing to any key.
        edges = ((0, 2), (0, 3), (1, 2), (1, 3))
        assert _plan(5, edges)[0] == (0, 2, 1, 3, 4)
        assert _sum_order(5, edges) == [4, 0, 2, 1, 3]

    @pytest.mark.parametrize("pattern,parts,priced", [
        # Every key of a path holds only the vertex before it.
        (OrientedGraph(10, [(i, i + 1) for i in range(9)]), 8, 8 + 9 * 8 ** 2),
        # Keys of a cycle hold its first vertex and the one before.
        (OrientedGraph(6, [(i, (i + 1) % 6) for i in range(6)]), 8, 2120),
        # Every key of a transitive tournament is its whole prefix.
        (OrientedGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]), 8,
         sum(8 ** (i + 1) for i in range(5))),
    ])
    def test_priced_density_work(self, pattern, parts, priced):
        keys = _sum_plan(pattern.vertex_count, tuple(pattern.sorted_edges()))[1]
        assert sum(parts ** (len(key) + 1) for key in keys) == priced

    def test_scans_compile_the_pattern_once(self):
        c4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        _plan.cache_clear()
        check_directed_sidorenko_exhaustive(c4, 4, workers=1)
        assert _plan.cache_info().misses == 1
        impartiality_check(TRIANGLE, 5, workers=1)
        assert _plan.cache_info().misses == 2
