import gc
import hashlib
import random
import warnings
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphon import (
    BipartiteGraph,
    OrientedGraph,
    StepGraphon,
    check_equivalence_bridge,
    cut_distance_upper,
    cut_norm,
    cut_norm_centered,
    find_lambda0,
    forcing_witness_search,
    from_bipartite,
    from_oriented,
    random_graphon,
    rectangle_integral,
    t_bip,
    t_bip_step,
    t_directed,
    t_step,
    to_part_oriented,
)
from digraphon import forcing, stepgraphon
from digraphon.graphs import oriented_graph_count, oriented_graph_from_index

from oracles import (
    brute_bilinear_max,
    brute_cut_norm_centered,
    brute_t_bip_step,
    brute_t_step,
    rectangle_sum,
    reference_bilinear_max,
    reference_cut_distance_upper,
    reference_heuristic_bilinear_max,
    reference_integral,
    reference_rectangle_integral,
)

EDGE = OrientedGraph(2, [(0, 1)])
TRIANGLE = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])


@st.composite
def oriented_graphs(draw, max_n=3):
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


@st.composite
def bipartite_graphs(draw, max_part=2):
    n1 = draw(st.integers(1, max_part))
    n2 = draw(st.integers(1, max_part))
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    mask = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return BipartiteGraph(n1, n2, [c for c, keep in zip(cells, mask) if keep])


@st.composite
def step_graphons(draw, parts=3, denominator=8):
    vals = draw(st.lists(
        st.integers(0, denominator),
        min_size=parts * parts, max_size=parts * parts))
    matrix = [[Fraction(vals[i * parts + j], denominator) for j in range(parts)]
              for i in range(parts)]
    return StepGraphon([Fraction(1, parts)] * parts, matrix)


@st.composite
def unequal_step_graphons(draw, max_parts=5, denominator=64):
    """Step graphons whose part lengths are drawn from 1-16 integer weights,
    so parts are unequal and length denominators vary."""
    parts = draw(st.integers(1, max_parts))
    weights = draw(st.lists(st.integers(1, 16), min_size=parts, max_size=parts))
    vals = draw(st.lists(st.integers(0, denominator), min_size=parts * parts,
                         max_size=parts * parts))
    return StepGraphon([Fraction(x, sum(weights)) for x in weights],
                       [[Fraction(vals[i * parts + j], denominator) for j in range(parts)]
                        for i in range(parts)])


@st.composite
def partitions(draw, total, max_parts):
    """Unequal part lengths: the gaps between distinct cuts of [0,1] at
    multiples of 1/total."""
    parts = draw(st.integers(1, min(total, max_parts)))
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=parts - 1,
                               max_size=parts - 1))) if parts > 1 else []
    return [Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]


class TestStepGraphonType:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_integer_form_reproduces_lengths_and_values(self, data):
        # Unequal parts, and length and value denominators up to 2^70.
        lengths = data.draw(st.integers(1, 2**70).flatmap(lambda n: partitions(n, 5)))
        cell = st.integers(1, 2**70).flatmap(
            lambda d: st.integers(0, d).map(lambda x: Fraction(x, d)))
        values = [[data.draw(cell) for _ in lengths] for _ in lengths]
        w = StepGraphon(lengths, values)
        lnum, dl, vnum, dv = w._form
        assert dl == lcm(*(x.denominator for x in lengths))
        assert dv == lcm(*(x.denominator for row in values for x in row))
        assert tuple(Fraction(x, dl) for x in lnum) == w.part_lengths == tuple(lengths)
        assert tuple(tuple(Fraction(x, dv) for x in row) for row in vnum) == w.values
        # The form is no field: equality, hashing and repr read the fields.
        twin = StepGraphon(w.part_lengths, w.values)
        assert twin == w and hash(twin) == hash(w) and "_form" not in repr(w)

    @pytest.mark.parametrize("lengths,values,message", [
        ([], [], "a step graphon needs at least one part"),
        ([Fraction(1, 2), 0, Fraction(1, 2)], [[0] * 3] * 3, "part lengths must be positive"),
        ([Fraction(3, 2), Fraction(-1, 2)], [[0] * 2] * 2, "part lengths must be positive"),
        ([Fraction(1, 3)] * 2, [[0] * 2] * 2, "part lengths must sum to exactly 1"),
        ([Fraction(1, 2)] * 2, [[0, 1]], "values must be a square matrix matching the parts"),
        ([Fraction(1, 2)] * 2, [[0, 0], [0, Fraction(65, 64)]], "value 65/64 outside [0,1]"),
        ([Fraction(1, 2)] * 2, [[0, Fraction(-1, 3)], [2, 0]], "value -1/3 outside [0,1]"),
        # A bad length and a non-square matrix: the lengths are checked first.
        ([Fraction(1, 3)] * 2, [[0, 1]], "part lengths must sum to exactly 1"),
    ], ids=["no-parts", "zero-length", "negative-length", "sum-not-one", "not-square",
            "value-above-one", "value-below-zero", "length-before-shape"])
    def test_invalid_input_message(self, lengths, values, message):
        with pytest.raises(ValueError) as exc:
            StepGraphon(lengths, values)
        assert str(exc.value) == message

    def test_lengths_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StepGraphon([Fraction(1, 2)], [[Fraction(1, 2)]])

    def test_values_in_unit_interval(self):
        with pytest.raises(ValueError):
            StepGraphon([1], [[Fraction(3, 2)]])

    def test_matrix_must_be_square(self):
        with pytest.raises(ValueError):
            StepGraphon([Fraction(1, 2), Fraction(1, 2)], [[0, 1]])

    def test_constant(self):
        w = StepGraphon.constant(Fraction(1, 3), parts=2)
        assert w.integral() == Fraction(1, 3)

    @pytest.mark.parametrize("parts", [0, -2])
    def test_constant_rejects_fewer_than_one_part(self, parts):
        with pytest.raises(ValueError, match=f"parts must be at least 1, got {parts}"):
            StepGraphon.constant(Fraction(1, 3), parts=parts)

    def test_scale(self):
        w = StepGraphon.constant(1).scale(Fraction(1, 2))
        assert w.values[0][0] == Fraction(1, 2)
        with pytest.raises(ValueError):
            w.scale(2)

    @settings(max_examples=80, deadline=None)
    @given(unequal_step_graphons())
    def test_integral_matches_rational_sum_and_edge_density(self, w):
        assert w.integral() == reference_integral(w) == t_step(EDGE, w)

    @settings(max_examples=80, deadline=None)
    @given(unequal_step_graphons(), st.randoms(use_true_random=False),
           st.fractions(0, 1, max_denominator=12))
    def test_rectangle_integral_matches_rational_sum(self, w, rng, center):
        k = w.num_parts
        parts_s = rng.sample(range(k), rng.randint(0, k))
        parts_t = rng.sample(range(k), rng.randint(0, k))
        assert (rectangle_integral(w, parts_s, iter(parts_t), center)
                == reference_rectangle_integral(w, parts_s, parts_t, center))

    def test_rectangle_integral_counts_each_part_once(self):
        w = StepGraphon([Fraction(1, 2)] * 2, [[1, 0], [0, Fraction(1, 2)]])
        assert rectangle_integral(w, [0], [0]) == Fraction(1, 4)
        assert rectangle_integral(w, [0, 0], [0]) == Fraction(1, 4)
        assert rectangle_integral(w, [1, 0, 1], [1, 1]) == Fraction(1, 8)

    @pytest.mark.parametrize("parts_s,parts_t,bad", [
        ([-1], [0], -1), ([0], [2], 2), ([0, 1], [1, 5], 5)])
    def test_rectangle_integral_rejects_parts_out_of_range(self, parts_s, parts_t, bad):
        w = StepGraphon([Fraction(1, 2)] * 2, [[1, 0], [0, Fraction(1, 2)]])
        with pytest.raises(ValueError, match=rf"part {bad} outside \[0, 2\)"):
            rectangle_integral(w, parts_s, parts_t)

    def test_scale_zero_kills_densities(self):
        w = random_graphon(3, seed=5).scale(0)
        assert t_step(EDGE, w) == 0


class TestEmbeddings:
    def test_from_oriented_edge(self):
        w = from_oriented(EDGE)
        assert w.part_lengths == (Fraction(1, 2), Fraction(1, 2))
        assert w.values == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))

    def test_from_oriented_triangle(self):
        w = from_oriented(TRIANGLE)
        assert sum(x for row in w.values for x in row) == 3
        assert all(w.values[i][i] == 0 for i in range(3))

    def test_from_oriented_edgeless(self):
        w = from_oriented(OrientedGraph(2))
        assert all(x == 0 for row in w.values for x in row)

    def test_from_oriented_empty_rejected(self):
        with pytest.raises(ValueError):
            from_oriented(OrientedGraph(0))

    def test_from_bipartite_single_edge(self):
        w = from_bipartite(BipartiteGraph(1, 1, [(0, 0)]))
        assert w.num_parts == 1
        assert w.integral() == 1

    def test_from_bipartite_matching(self):
        w = from_bipartite(BipartiteGraph(2, 2, [(0, 0), (1, 1)]))
        assert w.integral() == Fraction(1, 2)

    def test_from_bipartite_edgeless(self):
        w = from_bipartite(BipartiteGraph(2, 3))
        assert w.integral() == 0

    def test_from_bipartite_unequal_parts_refine(self):
        # Row partition in halves, column partition in thirds; the common
        # refinement has cuts at 1/3, 1/2, 2/3.
        h = BipartiteGraph(2, 3, [(0, 0), (1, 2)])
        w = from_bipartite(h)
        assert w.part_lengths == (Fraction(1, 3), Fraction(1, 6),
                                  Fraction(1, 6), Fraction(1, 3))
        assert w.integral() == Fraction(2, 6)
        assert t_bip_step(BipartiteGraph(1, 1, [(0, 0)]), w) == t_bip(
            BipartiteGraph(1, 1, [(0, 0)]), h)

    def test_from_bipartite_empty_part_rejected(self):
        with pytest.raises(ValueError):
            from_bipartite(BipartiteGraph(0, 2))


class TestDensities:
    def test_edge_density_is_integral(self):
        w = random_graphon(4, seed=1)
        assert t_step(EDGE, w) == w.integral()

    def test_constant_density(self):
        p = Fraction(2, 7)
        w = StepGraphon.constant(p, parts=2)
        assert t_step(EDGE, w) == p
        assert t_step(TRIANGLE, w) == p ** 3
        # 12 vertices and 66 edges: more operands than numpy's einsum takes.
        tt12 = OrientedGraph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])
        assert t_step(tt12, w) == p ** 66

    def test_empty_pattern(self):
        assert t_step(OrientedGraph(0), random_graphon(2, seed=3)) == 1

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs(), step_graphons())
    def test_matches_direct_rational_sum(self, pattern, w):
        assert t_step(pattern, w) == brute_t_step(pattern, w)

    @settings(max_examples=40, deadline=None)
    @given(bipartite_graphs(), step_graphons())
    def test_bip_matches_direct_rational_sum(self, pattern, w):
        assert t_bip_step(pattern, w) == brute_t_bip_step(pattern, w)

    def test_bip_constant_graphon(self):
        p = Fraction(3, 5)
        w = StepGraphon.constant(p, parts=2)
        c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert t_bip_step(c4, w) == p ** 4
        assert t_bip_step(BipartiteGraph(1, 1, [(0, 0)]), w) == w.integral()

    def test_unequal_part_lengths(self):
        w = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                        [[Fraction(1, 2), Fraction(1, 4)],
                         [Fraction(3, 4), Fraction(1)]])
        assert t_step(EDGE, w) == brute_t_step(EDGE, w) == w.integral()
        assert t_step(TRIANGLE, w) == brute_t_step(TRIANGLE, w)

    def test_isolated_vertices_on_uneven_partition(self):
        # Isolated pattern vertices integrate the lengths to 1 regardless of
        # how uneven the partition is.
        w = StepGraphon([Fraction(1, 5), Fraction(4, 5)],
                        [[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(1, 7), Fraction(2, 9)]])
        lonely = OrientedGraph(4, [(0, 1)])
        assert t_step(lonely, w) == brute_t_step(lonely, w) == w.integral()

    def test_integer_form_follows_the_graphon_and_keeps_none_alive(self):
        # Each graphon keeps its own integer form, and the module keeps no
        # graphon alive.
        ws = [random_graphon(3, seed=s) for s in (4, 5)]
        for w in ws + ws[::-1]:
            assert t_step(TRIANGLE, w) == brute_t_step(TRIANGLE, w)
            assert w.integral() == reference_integral(w)
        kept = weakref.ref(ws[0])
        del ws, w
        gc.collect()
        assert kept() is None

    def test_graph_consistency_exhaustive_small(self):
        # t(B, W_G) must equal t(B, G) exactly; full sweep at tiny sizes
        # (the acceptance suite runs the larger one).
        patterns = [oriented_graph_from_index(n, i)
                    for n in (1, 2) for i in range(oriented_graph_count(n))]
        hosts = [oriented_graph_from_index(n, i)
                 for n in (1, 2, 3) for i in range(oriented_graph_count(n))]
        for host in hosts:
            w = from_oriented(host)
            for pattern in patterns:
                assert t_step(pattern, w) == t_directed(pattern, host)

    @settings(max_examples=40, deadline=None)
    @given(bipartite_graphs(max_part=2), bipartite_graphs(max_part=3))
    def test_bipartite_consistency(self, pattern, host):
        assert t_bip_step(pattern, from_bipartite(host)) == t_bip(pattern, host)


@st.composite
def map_sum_instances(draw, max_n=6, max_parts=3):
    """A pattern (isolated vertices and several components allowed), integer
    part weights and cell values with zeros, as the weighted graphon the
    oracles read."""
    pattern = draw(oriented_graphs(max_n=max_n))
    k = draw(st.integers(1, max_parts))
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    values = [draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)) for _ in range(k)]
    return pattern, SimpleNamespace(num_parts=k, part_lengths=weights, values=values)


@st.composite
def detached_instances(draw, max_parts=3):
    """A pattern whose density sum has detached positions (a part-oriented
    3+3 bipartite pattern, or an out- or in-star), with isolated vertices
    up to 7 vertices in all and its labels shuffled; integer part weights
    and cell values with zeros."""
    kind = draw(st.sampled_from(("bipartite", "out-star", "in-star")))
    if kind == "bipartite":
        cells = [(i, j) for i in range(3) for j in range(3)]
        keep = draw(st.lists(st.booleans(), min_size=9, max_size=9))
        base = to_part_oriented(BipartiteGraph(3, 3, [c for c, b in zip(cells, keep) if b]))
    else:
        leaves = range(1, draw(st.integers(1, 4)) + 1)
        base = OrientedGraph(len(leaves) + 1, [(0, x) if kind == "out-star" else (x, 0)
                                               for x in leaves])
    v = draw(st.integers(base.vertex_count, 7))
    label = draw(st.permutations(range(v)))
    pattern = OrientedGraph(v, [(label[a], label[b]) for a, b in base.edges])
    k = draw(st.integers(1, max_parts))
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    values = [draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)) for _ in range(k)]
    return pattern, SimpleNamespace(num_parts=k, part_lengths=weights, values=values)


# An attached position's key ends with the position before it, and
# `_map_sum` keeps one memo row per image of the rest of the key, its
# prefix.  The prefix has no entry on a path, holds the first vertex on a
# cycle and two vertices on K_{3,3}; every key of a transitive tournament
# is its whole prefix, so its positions get no getter.
MEMO_ROW_BASES = {
    "path": OrientedGraph(5, [(i, i + 1) for i in range(4)]),
    "cycle": OrientedGraph(4, [(i, (i + 1) % 4) for i in range(4)]),
    "k33": to_part_oriented(BipartiteGraph(3, 3, [(i, j) for i in range(3) for j in range(3)])),
    "tt4": OrientedGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
}


# `_map_sum` runs one of three loops at a position, by its count of back
# edges beyond the first (0, 1, or 2 and more), in an attached or a
# detached form.  A transitive tournament's positions have 0, 1, 2, ...
# back edges, and only its last is detached; a path's last position and
# a cycle's are detached with 0 and 1 extra back edges.
LOOP_KIND_BASES = {
    **MEMO_ROW_BASES,
    "tt5": OrientedGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
}


def loop_kinds(pattern) -> set:
    """The (extra back edges, capped at 2; detached) kind of every
    position of the pattern's plan."""
    back, _, _, detached, _ = stepgraphon._sum_plan(pattern.vertex_count,
                                                    tuple(pattern.sorted_edges()))
    return {(min(max(len(bk) - 1, 0), 2), det) for bk, det in zip(back, detached)}


def attached_prefix_sizes(pattern) -> set:
    """The prefix size of every attached position of the pattern's plan,
    or "none" for one without a getter."""
    _, keys, getters, detached, _ = stepgraphon._sum_plan(pattern.vertex_count,
                                                          tuple(pattern.sorted_edges()))
    return {"none" if getters[i] is None else len(keys[i]) - 1
            for i in range(1, pattern.vertex_count) if not detached[i - 1]}


@st.composite
def memo_row_instances(draw, max_maps=4096, bases=MEMO_ROW_BASES):
    """A base pattern (a memo-row base unless ``bases`` says otherwise),
    relabelled and with its edges reversed at random; 1-6 parts (as many
    as keep k^v <= ``max_maps`` for the brute-force sum) and integer
    weights and values, about half of them 0."""
    base = bases[draw(st.sampled_from(sorted(bases)))]
    v = base.vertex_count
    label = draw(st.permutations(range(v)))
    flips = draw(st.lists(st.booleans(), min_size=base.edge_count, max_size=base.edge_count))
    edges = [(label[b], label[a]) if flip else (label[a], label[b])
             for (a, b), flip in zip(base.sorted_edges(), flips)]
    k = draw(st.integers(1, max(c for c in range(1, 7) if c ** v <= max_maps)))
    entry = st.one_of(st.just(0), st.integers(0, 4))
    weights = draw(st.lists(entry, min_size=k, max_size=k))
    values = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(k)]
    return OrientedGraph(v, edges), SimpleNamespace(num_parts=k, part_lengths=weights,
                                                    values=values)


class Counted:
    """An integer that counts the additions made with it, the steps of a
    density sum: one per (position, part) pair the search visits."""

    additions = 0

    def __init__(self, x):
        self.x = x

    def __mul__(self, other):
        return Counted(self.x * (other.x if isinstance(other, Counted) else other))

    __rmul__ = __mul__

    def __add__(self, other):
        Counted.additions += 1
        return Counted(self.x + (other.x if isinstance(other, Counted) else other))

    __radd__ = __add__

    def __bool__(self):
        return bool(self.x)


class TestMapSum:
    @settings(max_examples=80, deadline=None)
    @given(map_sum_instances())
    def test_total_matches_brute_force(self, instance):
        pattern, w = instance
        v, edges = pattern.vertex_count, pattern.sorted_edges()
        assert stepgraphon._map_sum(v, edges, w.part_lengths, w.values) == brute_t_step(pattern, w)

    @settings(max_examples=60, deadline=None)
    @given(detached_instances())
    def test_detached_positions_match_brute_force(self, instance):
        pattern, w = instance
        v, edges = pattern.vertex_count, pattern.sorted_edges()
        assert stepgraphon._map_sum(v, edges, w.part_lengths, w.values) == brute_t_step(pattern, w)

    def test_star_leaves_are_detached(self):
        # The centre goes first; no later factor reads a leaf's image.
        star = ((0, 1), (0, 2), (0, 3))
        assert stepgraphon._sum_plan(4, star)[3] == (False, True, True, True)
        assert stepgraphon._map_sum(4, star, [1, 2], [[0, 1], [1, 1]]) \
            == 1 * 2 ** 3 + 2 * 3 ** 3

    def test_no_memo_after_a_detached_position_with_its_key(self):
        # Positions 4 and 5 of the part-oriented K_{3,3} share the key
        # (0, 2, 3), and position 4 is detached: each sum from position 5
        # comes with a new image of that key, so a memo there never hits.
        k33 = MEMO_ROW_BASES["k33"]
        _, keys, getters, detached, _ = stepgraphon._sum_plan(6, tuple(k33.sorted_edges()))
        assert keys[4] == keys[5] == (0, 2, 3)
        assert detached[4]
        assert getters[4] is not None
        assert getters[5] is None

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(detached_instances(max_parts=4), map_sum_instances(max_parts=4)))
    def test_work_within_priced_bound(self, instance):
        # Each suffix sum runs once per image of its key, so the search
        # visits at most k^(|key_i| + 1) pairs at a position i.
        pattern, w = instance
        v, edges, k = pattern.vertex_count, pattern.sorted_edges(), w.num_parts
        keys = stepgraphon._sum_plan(v, tuple(edges))[1]
        Counted.additions = 0
        total = stepgraphon._map_sum(v, edges, [Counted(x) for x in w.part_lengths],
                                     [[Counted(x) for x in row] for row in w.values])
        assert Counted.additions <= sum(k ** (len(key) + 1) for key in keys)
        # The sum on plain integers, which the tests above check.
        assert getattr(total, "x", total) == stepgraphon._map_sum(v, edges, w.part_lengths,
                                                                  w.values)

    @pytest.mark.parametrize("name,sizes", [
        ("path", {0, "none"}), ("cycle", {1, "none"}), ("k33", {2, "none"}), ("tt4", {"none"}),
    ])
    def test_memo_row_bases_cover_every_prefix_size(self, name, sizes):
        assert attached_prefix_sizes(MEMO_ROW_BASES[name]) == sizes

    @settings(max_examples=80, deadline=None)
    @given(memo_row_instances())
    def test_memo_rows_match_brute_force(self, instance):
        pattern, w = instance
        v, edges = pattern.vertex_count, pattern.sorted_edges()
        assert stepgraphon._map_sum(v, edges, w.part_lengths, w.values) == brute_t_step(pattern, w)

    @pytest.mark.parametrize("name,kinds", [
        ("path", {(0, False), (0, True)}),
        ("cycle", {(0, False), (1, True)}),
        ("k33", {(0, False), (2, True)}),
        ("tt4", {(0, False), (1, False), (2, True)}),
        ("tt5", {(0, False), (1, False), (2, False), (2, True)}),
    ])
    def test_loop_kind_bases(self, name, kinds):
        assert loop_kinds(LOOP_KIND_BASES[name]) == kinds

    def test_loop_kind_bases_cover_every_kind(self):
        kinds = set().union(*map(loop_kinds, LOOP_KIND_BASES.values()))
        assert kinds == {(extra, det) for extra in (0, 1, 2) for det in (False, True)}

    @settings(max_examples=100, deadline=None)
    @given(memo_row_instances(bases=LOOP_KIND_BASES))
    def test_loop_kinds_match_brute_force(self, instance):
        # Zero weights are left out of every table, the first position's
        # included, so a part of weight 0 is never placed.
        pattern, w = instance
        v, edges = pattern.vertex_count, pattern.sorted_edges()
        assert stepgraphon._map_sum(v, edges, w.part_lengths, w.values) == brute_t_step(pattern, w)

    def test_map_sum_digest(self):
        # 3,000 seeded sums: up to 7 vertices, each pair joined with
        # probability 0.45 in a random direction, 1-6 parts, and zero
        # weights and values drawn often.  The digest was taken before
        # the memo kept rows per key prefix.
        rng = random.Random(2026)
        lines = []
        for _ in range(3000):
            v = rng.randint(1, 7)
            edges = [(a, b) if rng.random() < 0.5 else (b, a)
                     for a, b in combinations(range(v), 2) if rng.random() < 0.45]
            k = rng.randint(1, 6)
            weights = [rng.choice((0, rng.randint(1, 9))) for _ in range(k)]
            values = [[rng.choice((0, 0, rng.randint(1, 9))) for _ in range(k)]
                      for _ in range(k)]
            lines.append(f"{stepgraphon._map_sum(v, edges, weights, values)}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "7be43d86790c672ce61f4fd244a8e5c88bbe0171f605cebdfcb68d6c77be02f0"

    def test_long_path_matches_matrix_powers(self):
        # 8^10 maps, but each suffix sum depends on one earlier image, so
        # the priced work is 584 steps, far below the warning threshold.
        w = random_graphon(8, seed=21)
        path = OrientedGraph(10, [(i, i + 1) for i in range(9)])
        vec = [Fraction(1)] * 8
        for _ in range(9):
            vec = [sum(x * y for x, y in zip(row, vec)) for row in w.values]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert t_step(path, w) == sum(vec) / 8 ** 10

    def test_dense_pattern_still_warns(self, monkeypatch):
        # Every key of a transitive tournament is its whole prefix, so the
        # priced work is sum_i 8^(i+1) = 19,173,960 > 10^7; the warning,
        # raised as an error, stops the call before the sum starts.
        def never(*args, **kwargs):
            raise AssertionError("the density sum ran")

        monkeypatch.setattr(stepgraphon, "_map_sum", never)
        tt8 = OrientedGraph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning):
                t_step(tt8, random_graphon(8, seed=21))

    def test_long_path_on_many_parts_is_priced_below_the_threshold(self):
        # The plan keeps one earlier vertex in every key of a path, so 100
        # parts price the 13-vertex path at 100 + 12 * 100^2 = 120,100
        # steps, far below the threshold that 100^13 maps would cross.
        p = Fraction(3, 7)
        path = OrientedGraph(13, [(i, i + 1) for i in range(12)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert t_step(path, StepGraphon.constant(p, parts=100)) == p ** 12

    def test_warns_exactly_above_the_priced_threshold(self, monkeypatch):
        # The plan is priced only where v * k^v, which bounds the priced
        # work, is above the threshold.  Seeded patterns on up to 10
        # vertices over 2-12 parts, priced between 10^5 and 3 * 10^8,
        # mostly where the bound is above the threshold and the work is
        # not: each warns exactly when the priced work is above 10^7.
        monkeypatch.setattr(stepgraphon, "_map_sum", lambda *args, **kwargs: 0)
        rng = random.Random(24)
        seen = Counter()
        for _ in range(150):
            v = rng.randint(2, 10)
            p = rng.uniform(0.2, 0.9)
            pattern = OrientedGraph(v, [(a, b) if rng.random() < 0.5 else (b, a)
                                        for a, b in combinations(range(v), 2)
                                        if rng.random() < p])
            keys = stepgraphon._sum_plan(v, tuple(pattern.sorted_edges()))[1]
            for k in range(2, 13):
                priced = sum(k ** (len(key) + 1) for key in keys)
                if not 10**5 <= priced <= 30 * 10**7:
                    continue
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    t_step(pattern, StepGraphon.constant(Fraction(1, 2), parts=k))
                assert len(caught) == (priced > 10**7)
                seen[v * k ** v > 10**7, priced > 10**7] += 1
        assert seen[True, False] > 200 and seen[True, True] > 50 and seen[False, False] > 10


@st.composite
def graphon_families(draw, max_parts=4):
    """Two or three step graphons on the same parts: a base, and one or
    both of the base's values on other lengths and its lengths with one
    other value."""
    k = draw(st.integers(2, max_parts))
    weights = draw(st.lists(st.integers(1, 16), min_size=k, max_size=k))
    values = [draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)) for _ in range(k)]
    # Other lengths: a larger first weight changes every length.
    other_weights = [weights[0] + draw(st.integers(1, 16))] + weights[1:]
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    other_values = [row[:] for row in values]
    other_values[i][j] = (values[i][j] + draw(st.integers(1, 8))) % 9

    def graphon(ws, vs):
        return StepGraphon([Fraction(x, sum(ws)) for x in ws],
                           [[Fraction(x, 8) for x in row] for row in vs])

    family = [graphon(weights, values)]
    kinds = draw(st.sampled_from((("lengths",), ("values",), ("lengths", "values"))))
    if "lengths" in kinds:
        family.append(graphon(other_weights, values))
    if "values" in kinds:
        family.append(graphon(weights, other_values))
    return family


class TestValueTables:
    @settings(max_examples=60, deadline=None)
    @given(graphon_families(), st.lists(st.tuples(st.integers(0, 2), oriented_graphs(),
                                                  bipartite_graphs()), min_size=2, max_size=8))
    def test_interleaved_densities_match_brute_force(self, family, calls):
        # The densities keep the tables of the last graphon form they read:
        # a graphon with the same values on other lengths, or the same
        # lengths with another value, must not reuse them.
        for index, pattern, bip in calls:
            w = family[index % len(family)]
            assert t_step(pattern, w) == brute_t_step(pattern, w)
            assert t_bip_step(bip, w) == brute_t_bip_step(bip, w)

    def test_tables_built_once_per_graphon_and_per_cell_list(self, monkeypatch):
        # A bridge builds W's tables once for both its sums, a second
        # graphon builds its own, and each sum on plain cell lists (one in
        # find_lambda0, one per polish step) builds new ones.
        builds = Counter()
        real = stepgraphon._value_tables

        def counted(*args):
            builds["tables"] += 1
            return real(*args)

        monkeypatch.setattr(stepgraphon, "_value_tables", counted)
        stepgraphon._form_tables.cache_clear()
        c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        w1, w2 = random_graphon(4, seed=1), random_graphon(4, seed=2)
        check_equivalence_bridge(c4, w1)
        assert builds == {"tables": 1}
        check_equivalence_bridge(c4, w2)
        check_equivalence_bridge(c4, w1)
        assert builds == {"tables": 3}

        builds.clear()
        find_lambda0(TRIANGLE)
        find_lambda0(TRIANGLE)
        assert builds == {"tables": 2}

        sums = Counter()
        for name in ("_exact_density", "t_step"):
            def wrapped(*args, _real=getattr(forcing, name), _name=name):
                sums[_name] += 1
                return _real(*args)
            monkeypatch.setattr(forcing, name, wrapped)
        builds.clear()
        assert forcing_witness_search(TRIANGLE, Fraction(1, 4), parts=2, seed=0,
                                      restarts=1) is not None
        assert sums["_exact_density"] > 1
        assert builds["tables"] == sums["_exact_density"] + sums["t_step"]


class TestSwitchingIdentity:
    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(max_part=2), step_graphons())
    def test_switching(self, pattern, w):
        assert t_bip_step(pattern, w) == t_step(to_part_oriented(pattern), w)

    def test_switching_on_uneven_partition(self):
        w = StepGraphon([Fraction(1, 4), Fraction(3, 4)],
                        [[Fraction(1, 3), Fraction(2, 3)],
                         [Fraction(1, 8), Fraction(5, 8)]])
        c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert t_bip_step(c4, w) == t_step(to_part_oriented(c4), w)


class TestScaling:
    @settings(max_examples=50, deadline=None)
    @given(oriented_graphs(), step_graphons(), st.integers(0, 8))
    def test_scaling_identity(self, pattern, w, num):
        c = Fraction(num, 8)
        assert t_step(pattern, w.scale(c)) == c ** pattern.edge_count * t_step(pattern, w)

    def test_half_scale_example(self):
        w = from_oriented(EDGE).scale(Fraction(1, 2))
        assert t_step(EDGE, w) == Fraction(1, 8)


class TestCutNorm:
    def test_constant(self):
        p = Fraction(3, 8)
        res = cut_norm(StepGraphon.constant(p, parts=3))
        assert res.value == p
        assert res.witness_s == (0, 1, 2) and res.witness_t == (0, 1, 2)
        assert res.exact

    def test_zero(self):
        res = cut_norm(StepGraphon.constant(0, parts=2))
        assert res.value == 0

    def test_centered_edge_indicator(self):
        res = cut_norm_centered(from_oriented(EDGE), Fraction(1, 4))
        assert res.value == Fraction(3, 16)
        assert res.witness_s == (0,) and res.witness_t == (1,)

    def test_centered_constant_is_zero(self):
        p = Fraction(2, 5)
        assert cut_norm_centered(StepGraphon.constant(p, 3), p).value == 0

    def test_witness_reproduces_value(self):
        for seed in range(6):
            w = random_graphon(4, seed=seed)
            p = w.integral()
            res = cut_norm_centered(w, p)
            assert abs(rectangle_integral(w, res.witness_s, res.witness_t, p)) == res.value

    @settings(max_examples=40, deadline=None)
    @given(step_graphons(parts=3))
    def test_exact_matches_double_enumeration(self, w):
        p = w.integral()
        assert cut_norm_centered(w, p).value == brute_cut_norm_centered(w, p)

    @settings(max_examples=30, deadline=None)
    @given(step_graphons(parts=3), st.integers(0, 100))
    def test_heuristic_never_exceeds_exact(self, w, seed):
        p = Fraction(1, 2)
        exact = cut_norm_centered(w, p).value
        heur = cut_norm_centered(w, p, heuristic=True, seed=seed)
        assert heur.value <= exact
        assert not heur.exact
        assert abs(rectangle_integral(w, heur.witness_s, heur.witness_t, p)) == heur.value

    def test_heuristic_matches_exact_on_most_instances(self):
        # Seed-pinned statistical check on 8-part instances.
        hits = 0
        total = 40
        for seed in range(total):
            w = random_graphon(8, seed=1000 + seed)
            p = w.integral()
            exact = cut_norm_centered(w, p).value
            heur = cut_norm_centered(w, p, heuristic=True, seed=0).value
            assert heur <= exact
            if heur == exact:
                hits += 1
        assert hits >= 0.9 * total

    def test_exact_cap(self):
        w = StepGraphon.constant(Fraction(1, 2), parts=stepgraphon.EXACT_CUT_NORM_CAP + 1)
        with pytest.raises(ValueError, match="heuristic=True"):
            cut_norm(w)
        with pytest.raises(ValueError, match="heuristic=True"):
            cut_norm_centered(w, Fraction(1, 3))
        assert cut_norm(w, heuristic=True).value == Fraction(1, 2)


@st.composite
def masses(draw, min_k=1, max_k=5, elements=st.integers(-50, 50)):
    k = draw(st.integers(min_k, max_k))
    flat = draw(st.lists(elements, min_size=k * k, max_size=k * k))
    return [flat[i * k:(i + 1) * k] for i in range(k)]


@st.composite
def big_masses(draw, min_k=1, max_k=10):
    """Masses whose absolute entries sum to 2^62 or more."""
    mass = draw(masses(min_k, max_k, st.one_of(st.integers(-2**70, 2**70),
                                               st.integers(-3, 3))))
    i, j = draw(st.integers(0, len(mass) - 1)), draw(st.integers(0, len(mass) - 1))
    mass[i][j] = draw(st.sampled_from([2**62, -2**62, -2**63, 2**70]))
    return mass


def kernel(mass):
    return stepgraphon._exact_bilinear_max(stepgraphon._mass_array(mass))


def heuristic(mass, seed):
    return stepgraphon._heuristic_bilinear_max(stepgraphon._mass_array(mass), seed)


class TestExactBilinearMax:
    """``_exact_bilinear_max`` against the brute-force oracle and against
    ``reference_bilinear_max``, the one-subset-at-a-time loop that fixes
    the witness on ties, in both number ranges of ``_mass_array``."""

    @settings(max_examples=60, deadline=None)
    @given(masses())
    def test_blocks_match_brute_force(self, mass):
        value, s_mask, t_mask = kernel(mass)
        assert value == brute_bilinear_max(mass)
        assert abs(rectangle_sum(mass, s_mask, t_mask)) == value

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(masses(1, 14, st.integers(-1, 1)),
                     masses(1, 14, st.integers(-3, 0)),
                     masses(1, 12, st.integers(-10**6, 10**6))))
    def test_blocks_match_loop(self, mass):
        assert kernel(mass) == reference_bilinear_max(mass)

    @settings(max_examples=40, deadline=None)
    @given(big_masses())
    def test_python_integers_match_loop(self, mass):
        assert stepgraphon._mass_array(mass).dtype == object
        assert kernel(mass) == reference_bilinear_max(mass)

    @pytest.mark.parametrize("k", [1, 5, 11, 14])
    def test_zero_mass(self, k):
        assert kernel([[0] * k for _ in range(k)]) == (0, 0, 0)

    def test_negative_only_optimum(self):
        # Every row first appears together at Gray rank 42 (code 0b111111).
        mass = [[-1] * 6 for _ in range(6)]
        assert kernel(mass) == (36, 63, 63)

    def test_positive_side_wins_a_tie_at_the_same_subset(self):
        mass = [[0] * 5 for _ in range(5)]
        mass[0][:2] = [1, -1]
        assert kernel(mass) == (1, 1, 1)
        assert reference_bilinear_max(mass) == (1, 1, 1)

    @pytest.mark.parametrize("top,python_ints", [(2**62 - 1, False), (2**62, True),
                                                 (2**70, True)])
    def test_int64_bound_picks_the_path(self, top, python_ints):
        mass = [[0] * 5 for _ in range(5)]
        mass[2][3] = top
        m = stepgraphon._mass_array(mass)
        assert m.dtype == (object if python_ints else np.int64)
        assert stepgraphon._exact_bilinear_max(m) == (top, 6, 8)

    def test_sums_beyond_int64_stay_exact(self):
        big = 2**60
        mass = [[big if (i + j) % 3 else -big for j in range(6)] for i in range(6)]
        value, s_mask, t_mask = kernel(mass)
        assert value > 2**63
        assert value == brute_bilinear_max(mass)
        assert rectangle_sum(mass, s_mask, t_mask) == value


class TestHeuristicBilinearMax:
    """``_heuristic_bilinear_max`` on the mass array gives the same value
    and witness as ``reference_heuristic_bilinear_max``, its plain-loop
    form with the same random draws, steps and strict comparisons."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(masses(1, 10), masses(1, 10, st.integers(-1, 1)), big_masses()),
           st.integers(0, 2**32))
    def test_matches_reference(self, mass, seed):
        assert heuristic(mass, seed) == reference_heuristic_bilinear_max(mass, seed)

    @pytest.mark.parametrize("k", [21, 30, 64])
    def test_matches_reference_on_many_parts(self, k):
        rng = random.Random(k)
        mass = [[rng.randint(-1000, 1000) for _ in range(k)] for _ in range(k)]
        for seed in (0, 3):
            value, s_mask, t_mask = heuristic(mass, seed)
            assert (value, s_mask, t_mask) == reference_heuristic_bilinear_max(mass, seed)
            assert abs(rectangle_sum(mass, s_mask, t_mask)) == value > 0


class TestCutDistanceUpper:
    def test_self_distance_zero(self):
        w = random_graphon(4, seed=9)
        assert cut_distance_upper(w, w) == 0

    def test_relabeled_graph_distance_zero(self):
        g = OrientedGraph(4, [(0, 1), (1, 2), (3, 1)])
        h = g.relabel([2, 0, 3, 1])
        assert cut_distance_upper(from_oriented(g), from_oriented(h)) == 0

    def test_constants(self):
        p, q = Fraction(1, 3), Fraction(3, 4)
        w = StepGraphon.constant(p, parts=2)
        u = StepGraphon.constant(q, parts=2)
        assert cut_distance_upper(w, u) == abs(p - q)

    def test_mixed_partitions_refine(self):
        w = StepGraphon([Fraction(1, 2), Fraction(1, 2)],
                        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        u = StepGraphon.constant(Fraction(1, 2), parts=3)
        d = cut_distance_upper(w, u)
        assert d >= 0

    def test_refinement_cap(self):
        w = StepGraphon([Fraction(1, 7)] * 7, [[0] * 7 for _ in range(7)])
        u = StepGraphon([Fraction(1, 5)] * 5, [[0] * 5 for _ in range(5)])
        with pytest.raises(ValueError):
            cut_distance_upper(w, u)

    def test_default_cap_rejects_eight_parts_before_searching(self, monkeypatch):
        def never(masses):
            raise AssertionError("the subset search ran")

        monkeypatch.setattr(stepgraphon, "_exact_bilinear_maxes", never)
        w = StepGraphon([Fraction(1, 8)] * 8, [[Fraction(1, 2)] * 8 for _ in range(8)])
        u = StepGraphon.constant(Fraction(1, 2))
        with pytest.raises(ValueError, match="8 equal parts"):
            cut_distance_upper(w, u)

    @settings(max_examples=20, deadline=None)
    @given(step_graphons(parts=3), step_graphons(parts=3))
    def test_counting_lemma(self, w, u):
        d = cut_distance_upper(w, u)
        for pattern in (EDGE, TRIANGLE, OrientedGraph(3, [(0, 1), (1, 2)])):
            assert abs(t_step(pattern, w) - t_step(pattern, u)) <= pattern.edge_count * d

    @pytest.mark.parametrize("parts", range(1, 8))
    def test_stacked_search_matches_permutation_loop(self, parts):
        for seed in range(2 if parts == 7 else 4):
            w = random_graphon(parts, seed=100 * parts + seed)
            u = random_graphon(parts, seed=100 * parts + seed + 50)
            assert cut_distance_upper(w, u) == reference_cut_distance_upper(w, u)

    @pytest.mark.parametrize("w_parts,u_parts", [(1, 6), (2, 3), (3, 2), (2, 4)])
    def test_stacked_search_matches_loop_on_refinements(self, w_parts, u_parts):
        w = random_graphon(w_parts, seed=w_parts)
        u = random_graphon(u_parts, seed=10 + u_parts)
        assert cut_distance_upper(w, u) == reference_cut_distance_upper(w, u)

    def test_stacked_search_in_python_integers(self):
        # Numerators near 2^70 put the masses past int64.
        w = random_graphon(5, seed=3, denominator=2**70)
        u = random_graphon(5, seed=4, denominator=2**70)
        both = [list(map(int, (x * 2**70 for x in row))) for row in w.values + u.values]
        assert stepgraphon._mass_array(both).dtype == object
        assert cut_distance_upper(w, u) == reference_cut_distance_upper(w, u)

    def test_symmetry_of_bound(self):
        w = random_graphon(3, seed=2)
        u = random_graphon(3, seed=4)
        assert cut_distance_upper(w, u) == cut_distance_upper(u, w)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_unequal_refinements_match_reference(self, data):
        # Both graphons on unequal parts whose breakpoints are multiples of
        # 1/n and 1/m, with m dividing n <= 6; values over 3, 64 or 2^70.
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))

        def graphon(total):
            lengths = data.draw(partitions(total, total))
            den = data.draw(st.sampled_from([3, 64, 2**70]))
            return StepGraphon(lengths, [[Fraction(data.draw(st.integers(0, den)), den)
                                          for _ in lengths] for _ in lengths])

        w, u = graphon(n), graphon(m)
        assert cut_distance_upper(w, u) == reference_cut_distance_upper(w, u)
        assert cut_distance_upper(u, w) == reference_cut_distance_upper(u, w)


class TestRandomGraphon:
    @pytest.mark.parametrize("parts", [0, -2])
    def test_rejects_fewer_than_one_part(self, parts):
        with pytest.raises(ValueError, match="parts must be at least 1"):
            random_graphon(parts, seed=0)

    @pytest.mark.parametrize("denominator", [0, -4])
    def test_rejects_denominator_below_one(self, denominator):
        with pytest.raises(ValueError,
                           match=f"denominator must be at least 1, got {denominator}"):
            random_graphon(2, seed=0, denominator=denominator)

    def test_deterministic_given_seed(self):
        assert random_graphon(4, seed=7) == random_graphon(4, seed=7)
        assert random_graphon(4, seed=7) != random_graphon(4, seed=8)

    def test_denominator_bound(self):
        w = random_graphon(5, seed=11, denominator=64)
        assert all(x.denominator <= 64 for row in w.values for x in row)
