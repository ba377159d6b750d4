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
from dataclasses import fields
from fractions import Fraction
from typing import Union

from .graphs import BipartiteGraph, OrientedGraph, UndirectedGraph
from .stepgraphon import StepGraphon

Graph = Union[OrientedGraph, UndirectedGraph, BipartiteGraph]

DECIMAL_LENGTH_TOLERANCE = Fraction(1, 10**12)

_POWER_RE = re.compile(r"^([+-]?\d+)\^([+-]?\d+)$")
_DECIMAL_EXPONENT_RE = re.compile(r"^[+-]?[\d_.]*[eE]([+-]?[\d_]+)$")
# Building b^e exactly takes about |e| * bit_length(|b|) bits.
_MAX_POWER_BITS = 2**16

# Each graph file header letter: its class, the noun that messages name it
# by, and the header fields before the edge count.  The classes are
# disjoint; a `Tournament` is an `OrientedGraph` and is written as one.
_GRAPH_KINDS = {
    "D": (OrientedGraph, "a directed", ("n",)),
    "U": (UndirectedGraph, "an undirected", ("n",)),
    "B": (BipartiteGraph, "a bipartite", ("n1", "n2")),
}


class InputFormatError(ValueError):
    """Malformed or invalid graph/graphon input."""


def parse_rational(token: str) -> Fraction:
    """Parse ``p/q``, decimal, integer, or ``b^e`` power notation exactly.

    A power b^e, or a decimal with exponent e (base 10), is refused when
    |e| * bit_length(|b|) exceeds 2^16, before the power is built."""
    token = token.strip()
    try:
        m = _POWER_RE.match(token)
        if m:
            base, exp = int(m.group(1)), int(m.group(2))
            if base == 0 and exp < 0:
                raise InputFormatError(
                    f"cannot parse {token!r}: zero base with negative exponent")
            _check_power(token, base, exp)
            return Fraction(base) ** exp
        m = _DECIMAL_EXPONENT_RE.match(token)
        if m:
            _check_power(token, 10, int(m.group(1)))
        return Fraction(token)
    except InputFormatError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse rational {token!r}") from exc


def _check_power(token: str, base: int, exp: int) -> None:
    if abs(exp) * abs(base).bit_length() > _MAX_POWER_BITS:
        raise InputFormatError(
            f"cannot parse {token!r}: exponent too large "
            f"(|e| * bit_length(|base|) above {_MAX_POWER_BITS})")


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
    if kind not in _GRAPH_KINDS:
        raise InputFormatError(f"unknown graph kind {kind!r}")
    cls, _, sizes = _GRAPH_KINDS[kind]
    shape = f"header {lines[0]!r} must be '{kind} {' '.join(sizes)} m'"
    if len(header) != len(sizes) + 2:
        raise InputFormatError(shape)
    try:
        *counts, m = map(int, header[1:])
    except ValueError as exc:
        raise InputFormatError(f"{shape} with integer fields") from exc
    try:
        graph = cls(*counts, _parse_edge_lines(lines[1:], m))
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
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError as exc:
            raise InputFormatError(f"edge line {line!r} must have two integer endpoints") from exc
    return edges


def dump_graph(graph: Graph) -> str:
    for kind, (cls, _, _) in _GRAPH_KINDS.items():
        if isinstance(graph, cls):
            # The size fields precede `edges`, in header order.
            sizes = [getattr(graph, field.name) for field in fields(cls)[:-1]]
            lines = [" ".join(map(str, [kind, *sizes, graph.edge_count]))]
            lines.extend(f"{u} {v}" for u, v in graph.sorted_edges())
            return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(graph).__name__}")


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
        # Decimal inputs, with a point or an exponent, may carry rounding;
        # absorb a tiny deficit into the last part so the exact sum-to-one
        # invariant holds.  Rational inputs get no such slack.
        has_decimal = any("." in tok or _DECIMAL_EXPONENT_RE.match(tok)
                          for tok in length_tokens)
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
