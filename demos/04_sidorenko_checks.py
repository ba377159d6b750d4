"""Directed and asymmetric Sidorenko checks.

A pattern has the directed property when t(B,G) >= t(edge,G)^e(B) for every
oriented host.  Patterns without a homomorphism onto a single edge fail
immediately: the oriented K_{n,n} hosts contain no copy of them at all.
The bipartite and directed formulations are two views of one inequality:
their margins are one number on every graphon, which the bridge decides.
"""

from digraphon import (
    BipartiteGraph,
    OrientedGraph,
    check_asym_sidorenko_random,
    check_directed_sidorenko_exhaustive,
    check_equivalence_bridge,
    check_second_sidorenko,
    oriented_knn,
    random_graphon,
    t_directed,
)

edge = OrientedGraph(2, [(0, 1)])
path3 = OrientedGraph(3, [(0, 1), (1, 2)])
alt_c4 = OrientedGraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])

print("The single edge holds with equality on every host:")
print(" ", check_directed_sidorenko_exhaustive(edge, 3).verdict,
      "over all labeled hosts on <= 3 vertices")

print("\nThe directed 2-edge path cannot map onto an edge, and fails:")
report = check_directed_sidorenko_exhaustive(path3, 4)
wit = report.witness
print(f"  verdict: {report.verdict}  worst host: {wit.host.vertex_count} vertices,"
      f" margin {wit.margin}")
print("  density in the oriented K_{2,2}:", t_directed(path3, oriented_knn(2)))

print("\nThe alternating 4-cycle (all edges across a bipartition) survives:")
print(" ", check_directed_sidorenko_exhaustive(alt_c4, 4).verdict,
      "over all labeled hosts on <= 4 vertices")

print("\nA star pattern holds on a seeded random-graphon batch:")
p3 = BipartiteGraph(2, 1, [(0, 0), (1, 0)])
print(" ", check_asym_sidorenko_random(p3, instances=500, seed=0).verdict)

print("\nThe bridge: the directed margin of the part-oriented C4 is the bipartite")
print("margin of C4, one density sum decided against the mean power:")
c4 = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
for seed in (0, 1, 2):
    w = random_graphon(4, seed=seed)
    print(f"  seed {seed}:", check_equivalence_bridge(c4, w).verdict)

print("\nThe second form compares against the undirected count at 2^-e(B):")
cyclic = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
transitive = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])
for name, host in (("cyclic", cyclic), ("transitive", transitive)):
    rep = check_second_sidorenko(path3, host)
    extra = "" if rep.witness is None else f"  ({rep.witness.lhs} < {rep.witness.rhs})"
    print(f"  path vs {name} triangle: {rep.verdict}{extra}")
