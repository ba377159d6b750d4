from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphon import (
    BipartiteGraph,
    EnumerationCapExceeded,
    OrientedGraph,
    Tournament,
    UndirectedGraph,
    canonical_form,
    double_cover,
    enumerate_oriented_graphs,
    enumerate_tournaments,
    hom_to_edge_bipartition,
    oriented_knn,
    to_part_oriented,
    underlying,
    underlying_has_cycle,
)
from digraphon.graphs import (
    _ORIENTED_STATES,
    _TOURNAMENT_STATES,
    _mask_range,
    oriented_graph_count,
    oriented_graph_from_index,
    tournament_count,
)

from oracles import iso_class_count

TRIANGLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = OrientedGraph(3, [(0, 1), (1, 2)])
ALT_PATH = OrientedGraph(3, [(0, 1), (2, 1)])


@st.composite
def oriented_graphs(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    edges = []
    for (u, v), s in zip(pairs, states):
        if s == 1:
            edges.append((u, v))
        elif s == 2:
            edges.append((v, u))
    return OrientedGraph(n, edges)


class TestValidation:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            OrientedGraph(2, [(0, 0)])

    def test_digon_rejected(self):
        with pytest.raises(ValueError):
            OrientedGraph(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            OrientedGraph(2, [(0, 2)])
        with pytest.raises(ValueError):
            BipartiteGraph(1, 1, [(1, 0)])

    def test_bipartite_edges_cross_parts_only(self):
        # Endpoints index their own parts, so a same-part edge cannot even
        # be expressed; range checks are what remains.
        g = BipartiteGraph(2, 3, [(0, 2), (1, 0)])
        assert g.edge_count == 2

    def test_tournament_needs_all_pairs(self):
        with pytest.raises(ValueError):
            Tournament(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            Tournament(2, [(0, 1), (1, 0)])


class TestUnderlying:
    def test_single_edge(self):
        assert underlying(OrientedGraph(2, [(0, 1)])).edges == frozenset({(0, 1)})

    def test_cyclic_triangle_gives_k3(self):
        assert underlying(TRIANGLE).edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_edgeless_identity(self):
        g = underlying(OrientedGraph(3))
        assert g.vertex_count == 3 and g.edge_count == 0

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs())
    def test_edge_count_preserved(self, g):
        assert underlying(g).edge_count == g.edge_count


class TestHomToEdgeBipartition:
    def test_single_edge(self):
        assert hom_to_edge_bipartition(OrientedGraph(2, [(0, 1)])) == (
            frozenset({0}), frozenset({1}))

    def test_directed_path_absent(self):
        assert hom_to_edge_bipartition(PATH3) is None

    def test_alternating_path(self):
        assert hom_to_edge_bipartition(ALT_PATH) == (frozenset({0, 2}), frozenset({1}))

    def test_isolated_vertices_to_part1(self):
        parts = hom_to_edge_bipartition(OrientedGraph(3, [(0, 1)]))
        assert parts == (frozenset({0, 2}), frozenset({1}))

    def test_exhaustive_against_two_colorings(self):
        # Independent oracle: try all 2^n colorings directly.
        for n in range(1, 4):
            for idx in range(oriented_graph_count(n)):
                g = oriented_graph_from_index(n, idx)
                expected = any(
                    all((mask >> u) & 1 == 0 and (mask >> v) & 1 == 1
                        for u, v in g.edges)
                    for mask in range(1 << n)
                )
                assert (hom_to_edge_bipartition(g) is not None) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**9 - 1))
    def test_part_oriented_always_has_bipartition(self, n1, n2, mask):
        cells = [(i, j) for i in range(n1) for j in range(n2)]
        bip = BipartiteGraph(n1, n2,
                             [c for b, c in enumerate(cells) if (mask >> b) & 1])
        assert hom_to_edge_bipartition(to_part_oriented(bip)) is not None

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs())
    def test_round_trip_through_part_oriented(self, g):
        parts = hom_to_edge_bipartition(g)
        if parts is None:
            return
        part1 = sorted(parts[0])
        part2 = sorted(parts[1])
        bip = BipartiteGraph(
            len(part1), len(part2),
            [(part1.index(u), part2.index(v)) for u, v in g.edges])
        assert hom_to_edge_bipartition(to_part_oriented(bip)) is not None


class TestConstructions:
    def test_to_part_oriented_k2(self):
        assert to_part_oriented(BipartiteGraph(1, 1, [(0, 0)])).edges == frozenset({(0, 1)})

    def test_to_part_oriented_c4(self):
        c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        g = to_part_oriented(c4)
        assert g.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_to_part_oriented_edgeless(self):
        g = to_part_oriented(BipartiteGraph(2, 2))
        assert g.vertex_count == 4 and g.edge_count == 0

    def test_double_cover_k2(self):
        cover = double_cover(UndirectedGraph(2, [(0, 1)]))
        assert cover.edges == frozenset({(0, 1), (1, 0)})

    def test_double_cover_k3_is_six_cycle(self):
        cover = double_cover(UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)]))
        assert cover.edge_count == 6
        # 2-regular on both sides.
        for i in range(3):
            assert sum(1 for e in cover.edges if e[0] == i) == 2
            assert sum(1 for e in cover.edges if e[1] == i) == 2
        # Connected: walk the bipartite adjacency.
        adj = {("a", i): set() for i in range(3)}
        adj.update({("b", j): set() for j in range(3)})
        for i, j in cover.edges:
            adj[("a", i)].add(("b", j))
            adj[("b", j)].add(("a", i))
        seen = {("a", 0)}
        frontier = [("a", 0)]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert len(seen) == 6

    def test_double_cover_isolated_vertex(self):
        cover = double_cover(UndirectedGraph(1))
        assert cover.part1_count == cover.part2_count == 1
        assert cover.edge_count == 0

    def test_double_cover_edge_count_and_degrees(self):
        h = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        cover = double_cover(h)
        assert cover.edge_count == 2 * h.edge_count
        for v in range(4):
            assert sum(1 for e in cover.edges if e[0] == v) == h.degree(v)

    def test_oriented_knn(self):
        for n in (1, 2, 3):
            g = oriented_knn(n)
            assert g.vertex_count == 2 * n
            assert g.edge_count == n * n
            assert all(g.out_degree(i) == n and g.in_degree(i) == 0 for i in range(n))
            assert hom_to_edge_bipartition(g) is not None
            assert Fraction(g.edge_count, g.vertex_count ** 2) == Fraction(1, 4)

    def test_knn_rejects_zero(self):
        with pytest.raises(ValueError):
            oriented_knn(0)


class TestCycles:
    def test_triangle_has_cycle(self):
        assert underlying_has_cycle(TRIANGLE)

    def test_path_is_forest(self):
        assert not underlying_has_cycle(PATH3)

    def test_alternating_four_cycle(self):
        g = OrientedGraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
        assert underlying_has_cycle(g)

    def test_disjoint_forest(self):
        assert not underlying_has_cycle(OrientedGraph(5, [(0, 1), (2, 3)]))


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 27)])
    def test_oriented_counts(self, n, expected):
        assert enumerate_oriented_graphs(n) == expected

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 8), (4, 64)])
    def test_tournament_counts(self, n, expected):
        assert enumerate_tournaments(n) == expected

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_oriented_graphs(7)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_tournaments(8)
        assert enumerate_oriented_graphs(4, cap=4) == 729

    def test_visits_are_distinct_and_complete(self):
        seen = set()
        enumerate_oriented_graphs(3, lambda g: seen.add(tuple(g.sorted_edges())))
        assert len(seen) == 27

    def test_sharded_ranges_cover_the_space(self):
        whole = []
        enumerate_oriented_graphs(3, lambda g: whole.append(g.sorted_edges()))
        pieces = []
        for lo, hi in [(0, 10), (10, 20), (20, 27)]:
            enumerate_oriented_graphs(
                3, lambda g: pieces.append(g.sorted_edges()), start=lo, stop=hi)
        assert pieces == whole

    def test_count_only_does_not_decode(self, monkeypatch):
        def no_decode(*args):
            raise AssertionError("a count-only enumeration decoded a graph")

        monkeypatch.setattr("digraphon.graphs.oriented_graph_from_index", no_decode)
        monkeypatch.setattr(Tournament, "from_bits", classmethod(no_decode))
        assert enumerate_oriented_graphs(6) == 3 ** 15
        assert enumerate_oriented_graphs(4, start=700, stop=10**6) == 29
        assert enumerate_tournaments(7) == 2 ** 21
        assert enumerate_tournaments(3, start=5, stop=2) == 0

    def test_tournament_bits_round_trip(self):
        ts = set()
        enumerate_tournaments(3, lambda t: ts.add(tuple(sorted(t.edges))))
        assert len(ts) == 8
        for t in map(Tournament.from_bits, [3] * 8, range(8)):
            assert tuple(sorted(t.edges)) in ts


def _reference_masks(graph):
    out_mask = [0] * graph.vertex_count
    in_mask = [0] * graph.vertex_count
    for u, v in graph.edges:
        out_mask[u] |= 1 << v
        in_mask[v] |= 1 << u
    return tuple(out_mask), tuple(in_mask), len(graph.edges)


class TestMaskDecoders:
    """The scans' range decoders against the graph-building decoders."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_oriented_every_index(self, n):
        total = oriented_graph_count(n)
        expected = [_reference_masks(oriented_graph_from_index(n, i)) for i in range(total)]
        assert list(_mask_range(n, 0, total, _ORIENTED_STATES)) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_tournament_every_index(self, n):
        total = tournament_count(n)
        expected = [_reference_masks(Tournament.from_bits(n, i)) for i in range(total)]
        assert list(_mask_range(n, 0, total, _TOURNAMENT_STATES)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sub_ranges(self, data):
        tournaments = data.draw(st.booleans())
        n = data.draw(st.integers(0, 5 if tournaments else 4))
        total = tournament_count(n) if tournaments else oriented_graph_count(n)
        lo = data.draw(st.integers(0, total))
        hi = data.draw(st.integers(lo, total))
        if tournaments:
            got = list(_mask_range(n, lo, hi, _TOURNAMENT_STATES))
            expected = [_reference_masks(Tournament.from_bits(n, i)) for i in range(lo, hi)]
        else:
            got = list(_mask_range(n, lo, hi, _ORIENTED_STATES))
            expected = [_reference_masks(oriented_graph_from_index(n, i)) for i in range(lo, hi)]
        assert got == expected


class TestDegrees:
    def test_out_degree_counts_out_neighbors(self):
        g = OrientedGraph(4, [(0, 1), (0, 2), (3, 0)])
        assert g.out_degree(0) == 2 and g.out_neighbors(0) == frozenset({1, 2})
        assert g.in_degree(0) == 1 and g.in_neighbors(0) == frozenset({3})
        assert g.degree(0) == 3

    def test_degree_sum_is_twice_edges(self):
        g = OrientedGraph(5, [(0, 1), (1, 2), (3, 1), (4, 0)])
        assert sum(g.out_degree(v) for v in range(5)) == g.edge_count
        assert sum(g.in_degree(v) for v in range(5)) == g.edge_count


class TestCanonicalForm:
    def test_dedup_matches_brute_force_iso_classes(self):
        # Oriented graphs on 3 vertices fall into 7 isomorphism classes.
        graphs = [oriented_graph_from_index(3, i) for i in range(27)]
        assert iso_class_count(graphs) == 7
        assert enumerate_oriented_graphs(3, dedup=True) == 7

    def test_dedup_on_four_vertices(self):
        # 42 classes of oriented graphs on 4 vertices.
        assert enumerate_oriented_graphs(4, dedup=True) == 42

    def test_tournament_classes_on_four_vertices(self):
        graphs = [Tournament.from_bits(4, b).as_oriented() for b in range(64)]
        expected = iso_class_count(graphs)
        assert expected == 4
        assert len({canonical_form(g) for g in graphs}) == 4

    @settings(max_examples=40, deadline=None)
    @given(oriented_graphs(max_n=4), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rng):
        mapping = list(range(g.vertex_count))
        rng.shuffle(mapping)
        assert canonical_form(g) == canonical_form(g.relabel(mapping))


class TestReversal:
    @settings(max_examples=40, deadline=None)
    @given(oriented_graphs())
    def test_double_reverse_is_identity(self, g):
        assert g.reverse().reverse() == g

    def test_tournament_reverse(self):
        t = Tournament.from_bits(3, 0)
        assert t.reverse().edges == frozenset({(1, 0), (2, 1), (2, 0)})
