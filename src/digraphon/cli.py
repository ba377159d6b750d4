"""Command-line interface.

Each subcommand validates its inputs, runs the corresponding library
operation, and writes one JSON object per result line to stdout.  Exit
codes are the machine contract: 0 for holds/success, 1 for violated (or a
failed search), 2 for input errors.  Rationals are serialized as "p/q"
strings; randomized commands take --seed and are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import forcing, sidorenko, tournaments
from .counting import hom_count_bip, hom_count_directed, t_bip, t_directed
from .graphs import (
    BipartiteGraph,
    OrientedGraph,
    Tournament,
    UndirectedGraph,
    double_cover,
    enumerate_oriented_graphs,
    enumerate_tournaments,
    oriented_knn,
)
from .io import (
    _GRAPH_KINDS,
    InputFormatError,
    format_rational,
    load_graph,
    load_graphon,
    parse_rational,
    save_graph,
    save_graphon,
)
from .stepgraphon import StepGraphon, cut_norm, cut_norm_centered, t_step

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT_ERROR = 2


def _emit(obj) -> None:
    print(json.dumps(obj))


# The JSON kind of each graph class, looked up by exact class: a
# `Tournament` is also an `OrientedGraph` but prints as a tournament.
_JSON_KINDS = {Tournament: "tournament", OrientedGraph: "oriented",
               UndirectedGraph: "undirected", BipartiteGraph: "bipartite"}


def _graph_json(graph) -> dict:
    if isinstance(graph, StepGraphon):
        return _graphon_json(graph)
    kind = _JSON_KINDS.get(type(graph))
    if kind is None:
        raise TypeError(f"cannot serialize {type(graph).__name__}")
    if kind == "bipartite":
        sizes = {"part1": graph.part1_count, "part2": graph.part2_count}
    else:
        sizes = {"vertices": graph.vertex_count}
    return {"kind": kind, **sizes, "edges": [list(e) for e in graph.sorted_edges()]}


def _graphon_json(w: StepGraphon) -> dict:
    return {"kind": "step-graphon",
            "part_lengths": [format_rational(x) for x in w.part_lengths],
            "values": [[format_rational(x) for x in row] for row in w.values]}


def _report_json(report: sidorenko.CheckReport) -> dict:
    out = {"property": report.property_name,
           "verdict": report.verdict,
           "instances_checked": report.instances_checked,
           "complete": report.complete}
    if report.witness is not None:
        wit = report.witness
        out["witness"] = {
            "host": _graph_json(wit.host),
            "lhs": format_rational(wit.lhs),
            "rhs": format_rational(wit.rhs),
            "margin": format_rational(wit.margin),
            "relation": wit.relation,
        }
    return out


def _load(path: str, kind: str):
    """The graph in ``path``, which must have the header letter ``kind``."""
    g = load_graph(path)
    cls, noun, _ = _GRAPH_KINDS[kind]
    if not isinstance(g, cls):
        raise InputFormatError(f"{path}: expected {noun} graph (header '{kind}')")
    return g


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_density(args) -> int:
    pattern = _load(args.pattern, "D")
    host = _load(args.host, "D")
    _emit({"t": format_rational(t_directed(pattern, host)),
           "hom_count": str(hom_count_directed(pattern, host))})
    return EXIT_OK


def _cmd_density_bip(args) -> int:
    pattern = _load(args.pattern, "B")
    host = _load(args.host, "B")
    _emit({"t_bip": format_rational(t_bip(pattern, host)),
           "hom_count": str(hom_count_bip(pattern, host))})
    return EXIT_OK


def _cmd_density_graphon(args) -> int:
    pattern = _load(args.pattern, "D")
    w = load_graphon(args.graphon)
    _emit({"t": format_rational(t_step(pattern, w))})
    return EXIT_OK


def _cmd_cutnorm(args) -> int:
    w = load_graphon(args.graphon)
    if args.center is not None:
        res = cut_norm_centered(w, parse_rational(args.center),
                                heuristic=args.heuristic, seed=args.seed)
    else:
        res = cut_norm(w, heuristic=args.heuristic, seed=args.seed)
    _emit({"value": format_rational(res.value),
           "witness_s": list(res.witness_s),
           "witness_t": list(res.witness_t),
           "exact": res.exact})
    return EXIT_OK


def _cmd_check_sidorenko(args) -> int:
    pattern = _load(args.pattern, "D")
    if args.nmax is not None:
        report = sidorenko.check_directed_sidorenko_exhaustive(pattern, args.nmax)
    elif args.graphon is not None:
        report = sidorenko.check_directed_sidorenko_graphon(pattern, load_graphon(args.graphon))
    else:
        report = sidorenko.check_second_sidorenko(pattern, _load(args.second, "D"))
    _emit(_report_json(report))
    return EXIT_VIOLATED if report.violated else EXIT_OK


def _cmd_check_asym(args) -> int:
    pattern = _load(args.pattern, "B")
    report = sidorenko.check_asym_sidorenko(pattern, load_graphon(args.graphon))
    _emit(_report_json(report))
    return EXIT_VIOLATED if report.violated else EXIT_OK


def _cmd_bridge(args) -> int:
    pattern = _load(args.pattern, "B")
    w = load_graphon(args.graphon)
    report = sidorenko.check_equivalence_bridge(pattern, w)
    _emit(_report_json(report))
    return EXIT_VIOLATED if report.violated else EXIT_OK


def _cmd_wlambda(args) -> int:
    lam = parse_rational(args.lam)
    w = forcing.w_lambda(lam)
    if args.emit:
        save_graphon(w, args.emit)
    _emit({"lambda": format_rational(lam),
           "integral": format_rational(w.integral()),
           "graphon": _graphon_json(w)})
    return EXIT_OK


def _cmd_find_lambda0(args) -> int:
    pattern = _load(args.pattern, "D")
    precision = parse_rational(args.precision)
    profile = forcing.find_lambda0(pattern, precision, grid=args.grid)
    density = t_step(pattern, forcing.w_lambda(profile.lambda0))
    _emit({"lambda0": format_rational(profile.lambda0),
           "density": format_rational(density),
           "target": format_rational(profile.target),
           "precision": format_rational(precision),
           "grid_points": profile.grid + 1})
    return EXIT_OK


def _cmd_quasirandom_trace(args) -> int:
    p = parse_rational(args.p)
    with open(args.list_file, "r", encoding="utf-8") as fh:
        paths = [line.strip() for line in fh if line.strip()]
    graphs = [_load(path, "D") for path in paths]
    values = forcing.quasirandom_trace(graphs, p, heuristic=args.heuristic,
                                       seed=args.seed)
    # A heuristic value is only a lower bound on the cut norm.
    for path, value in zip(paths, values):
        _emit({"path": path, "cut_norm_centered": format_rational(value),
               "exact": not args.heuristic})
    return EXIT_OK


def _cmd_search_witness(args) -> int:
    pattern = _load(args.pattern, "D")
    p = parse_rational(args.p)
    tol = parse_rational(args.tol)
    witness = forcing.forcing_witness_search(pattern, p, args.parts, tol, args.seed)
    if witness is None:
        _emit({"found": False})
        return EXIT_VIOLATED
    if args.emit:
        save_graphon(witness, args.emit)
    _emit({
        "found": True,
        "witness": _graphon_json(witness),
        "t": format_rational(t_step(pattern, witness)),
        "mean": format_rational(witness.integral()),
        "cut_norm_centered": format_rational(cut_norm_centered(witness, p).value),
        # Mean-of-W convention; under the directed-host reading where the
        # underlying undirected density tends to q, the mean corresponds to
        # q/2, so both numbers are surfaced.
        "mean_convention_p": format_rational(p),
        "undirected_density_convention_q": format_rational(2 * p),
    })
    return EXIT_OK


def _cmd_impartial(args) -> int:
    pattern = _load(args.pattern, "D")
    stats = tournaments.impartiality_check(pattern, args.n)
    _emit({"n": stats.n,
           "constant": stats.constant,
           "min": str(stats.min),
           "max": str(stats.max),
           "tournaments_checked": stats.tournaments_checked,
           "distinct_counts": len(stats.counts)})
    return EXIT_OK if stats.constant else EXIT_VIOLATED


def _cmd_anti_sidorenko(args) -> int:
    pattern = _load(args.pattern, "D")
    report = tournaments.anti_sidorenko_check(pattern, args.n)
    _emit(_report_json(report))
    return EXIT_VIOLATED if report.violated else EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.oriented is not None:
        count = enumerate_oriented_graphs(args.oriented)
        _emit({"kind": "oriented", "n": args.oriented, "count": count})
    else:
        count = enumerate_tournaments(args.tournaments)
        _emit({"kind": "tournament", "n": args.tournaments, "count": count})
    return EXIT_OK


def _cmd_double_cover(args) -> int:
    graph = _load(args.graph, "U")
    cover = double_cover(graph)
    if args.emit:
        save_graph(cover, args.emit)
    _emit(_graph_json(cover))
    return EXIT_OK


def _cmd_knn(args) -> int:
    graph = oriented_knn(args.n)
    if args.emit:
        save_graph(graph, args.emit)
    _emit(_graph_json(graph))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digraphon",
        description="Homomorphism densities and directed Sidorenko/forcing checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="t(B,G) for oriented pattern and host")
    p.add_argument("pattern")
    p.add_argument("host")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("density-bip", help="part-respecting density t_bip(A,H)")
    p.add_argument("pattern")
    p.add_argument("host")
    p.set_defaults(func=_cmd_density_bip)

    p = sub.add_parser("density-graphon", help="t(B,W) for a step graphon W")
    p.add_argument("pattern")
    p.add_argument("graphon")
    p.set_defaults(func=_cmd_density_graphon)

    p = sub.add_parser("cutnorm", help="cut norm of W, optionally centered at p")
    p.add_argument("graphon")
    p.add_argument("--center", default=None, help="subtract this constant first")
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cutnorm)

    p = sub.add_parser("check-sidorenko",
                       help="directed Sidorenko check (exhaustive, graphon, or second form)")
    p.add_argument("pattern")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nmax", type=int, help="exhaust hosts up to this size")
    group.add_argument("--graphon", help="single step-graphon host")
    group.add_argument("--second", help="second-form check against this host graph")
    p.set_defaults(func=_cmd_check_sidorenko)

    p = sub.add_parser("check-asym", help="asymmetric Sidorenko check on a graphon")
    p.add_argument("pattern")
    p.add_argument("--graphon", required=True)
    p.set_defaults(func=_cmd_check_asym)

    p = sub.add_parser("bridge",
                       help="directed and bipartite margins agree on the same graphon")
    p.add_argument("pattern")
    p.add_argument("graphon")
    p.set_defaults(func=_cmd_bridge)

    p = sub.add_parser("wlambda", help="emit the interpolating family member")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--emit", default=None, help="write the graphon file here")
    p.set_defaults(func=_cmd_wlambda)

    p = sub.add_parser("find-lambda0", help="root of t(B, W^(lambda)) = (1/16)^e(B)")
    p.add_argument("pattern")
    p.add_argument("--precision", default="2^-40")
    p.add_argument("--grid", type=int, default=forcing.DEFAULT_GRID)
    p.set_defaults(func=_cmd_find_lambda0)

    p = sub.add_parser("quasirandom-trace",
                       help="centered cut norm per graph listed in a file")
    p.add_argument("list_file")
    p.add_argument("--p", required=True)
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_quasirandom_trace)

    p = sub.add_parser("search-witness",
                       help="search for a non-constant graphon meeting the forcing counts")
    p.add_argument("pattern")
    p.add_argument("--p", required=True)
    p.add_argument("--parts", type=int, default=4)
    p.add_argument("--tol", default="1/100000000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", default=None)
    p.set_defaults(func=_cmd_search_witness)

    p = sub.add_parser("impartial", help="copy-count constancy over all tournaments")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_impartial)

    p = sub.add_parser("anti-sidorenko",
                       help="t(B,T) <= (1/2)^e(B) over all tournaments on n vertices")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_anti_sidorenko)

    p = sub.add_parser("enumerate", help="count labeled oriented graphs or tournaments")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--oriented", type=int)
    group.add_argument("--tournaments", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("double-cover", help="bipartite double cover of an undirected graph")
    p.add_argument("graph")
    p.add_argument("--emit", default=None)
    p.set_defaults(func=_cmd_double_cover)

    p = sub.add_parser("knn", help="complete balanced bipartite oriented graph")
    p.add_argument("n", type=int)
    p.add_argument("--emit", default=None)
    p.set_defaults(func=_cmd_knn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (InputFormatError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
