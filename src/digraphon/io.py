"""Text file formats for graphs and step graphons.

Graph files: a header line ``D n m`` (directed), ``U n m`` (undirected), or
``B n1 n2 m`` (bipartite), followed by m whitespace-separated endpoint lines
(0-based indices; bipartite lines are ``i j`` with i in part 1, j in part 2).

Graphon files: a header ``W k``, one line of k part lengths, then k rows of
k values.  Numbers may be rationals ``p/q``, decimals, integers, or powers
``2^-40``.  Emission always uses exact rationals so round-trips are
bit-exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .graphs import BipartiteGraph, OrientedGraph, UndirectedGraph
from .stepgraphon import StepGraphon

Graph = Union[OrientedGraph, UndirectedGraph, BipartiteGraph]

DECIMAL_LENGTH_TOLERANCE = Fraction(1, 10**12)

_POWER_RE = re.compile(r"^([+-]?\d+)\^([+-]?\d+)$")


class InputFormatError(ValueError):
    """Malformed or invalid graph/graphon input."""


def parse_rational(token: str) -> Fraction:
    """Parse ``p/q``, decimal, integer, or ``b^e`` power notation exactly."""
    token = token.strip()
    m = _POWER_RE.match(token)
    if m:
        base, exp = int(m.group(1)), int(m.group(2))
        if base == 0 and exp < 0:
            raise InputFormatError(f"cannot parse {token!r}: zero base with negative exponent")
        return Fraction(base) ** exp
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse rational {token!r}") from exc


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    lines = [line for line in (raw.strip() for raw in text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise InputFormatError("empty graph file")
    header = lines[0].split()
    kind = header[0].upper()
    try:
        if kind in ("D", "U"):
            if len(header) != 3:
                raise InputFormatError(f"header {lines[0]!r} must be '{kind} n m'")
            n, m = int(header[1]), int(header[2])
            edges = _parse_edge_lines(lines[1:], m)
            cls = OrientedGraph if kind == "D" else UndirectedGraph
            graph = cls(n, edges)
        elif kind == "B":
            if len(header) != 4:
                raise InputFormatError(f"header {lines[0]!r} must be 'B n1 n2 m'")
            n1, n2, m = int(header[1]), int(header[2]), int(header[3])
            edges = _parse_edge_lines(lines[1:], m)
            graph = BipartiteGraph(n1, n2, edges)
        else:
            raise InputFormatError(f"unknown graph kind {kind!r}")
    except ValueError as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(str(exc)) from exc
    if graph.edge_count != m:
        raise InputFormatError(
            f"header announces {m} edges but {graph.edge_count} distinct edges parsed")
    return graph


def _parse_edge_lines(lines: list[str], m: int) -> list[tuple[int, int]]:
    if len(lines) != m:
        raise InputFormatError(f"expected {m} edge lines, found {len(lines)}")
    edges = []
    for line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise InputFormatError(f"edge line {line!r} must have two endpoints")
        edges.append((int(fields[0]), int(fields[1])))
    return edges


def dump_graph(graph: Graph) -> str:
    if isinstance(graph, OrientedGraph):
        header = f"D {graph.vertex_count} {graph.edge_count}"
    elif isinstance(graph, UndirectedGraph):
        header = f"U {graph.vertex_count} {graph.edge_count}"
    elif isinstance(graph, BipartiteGraph):
        header = f"B {graph.part1_count} {graph.part2_count} {graph.edge_count}"
    else:
        raise TypeError(f"cannot serialize {type(graph).__name__}")
    lines = [header]
    lines.extend(f"{u} {v}" for u, v in graph.sorted_edges())
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_graph(graph))


# ---------------------------------------------------------------------------
# Graphon files
# ---------------------------------------------------------------------------

def parse_graphon(text: str) -> StepGraphon:
    lines = [line for line in (raw.strip() for raw in text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise InputFormatError("empty graphon file")
    header = lines[0].split()
    if len(header) != 2 or header[0].upper() != "W":
        raise InputFormatError(f"header {lines[0]!r} must be 'W k'")
    try:
        k = int(header[1])
    except ValueError as exc:
        raise InputFormatError(f"header {lines[0]!r} must be 'W k' with an integer k") from exc
    if k < 1:
        raise InputFormatError(f"header {lines[0]!r} needs at least one part")
    if len(lines) != 2 + k:
        raise InputFormatError(f"expected one length line and {k} value rows")
    length_tokens = lines[1].split()
    lengths = [parse_rational(tok) for tok in length_tokens]
    if len(lengths) != k:
        raise InputFormatError(f"expected {k} part lengths, found {len(lengths)}")
    total = sum(lengths)
    if total != 1:
        # Decimal inputs may carry rounding; absorb a tiny deficit into the
        # last part so the exact sum-to-one invariant holds.  Rational
        # inputs get no such slack.
        has_decimal = any("." in tok for tok in length_tokens)
        if has_decimal and abs(total - 1) <= DECIMAL_LENGTH_TOLERANCE:
            lengths[-1] += 1 - total
        else:
            raise InputFormatError(f"part lengths sum to {total}, not 1")
    rows = []
    for line in lines[2:]:
        row = [parse_rational(tok) for tok in line.split()]
        if len(row) != k:
            raise InputFormatError(f"value row {line!r} must have {k} entries")
        rows.append(row)
    try:
        return StepGraphon(lengths, rows)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def dump_graphon(w: StepGraphon) -> str:
    lines = [f"W {w.num_parts}"]
    lines.append(" ".join(format_rational(x) for x in w.part_lengths))
    for row in w.values:
        lines.append(" ".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"


def load_graphon(path: str) -> StepGraphon:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graphon(fh.read())


def save_graphon(w: StepGraphon, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_graphon(w))
