"""Reference computations for the benchmark's output checks.

The brute-force counts and densities are the test suite's own oracles in
``tests/oracles.py``: they enumerate the whole search space and read only
plain attributes (vertex counts, edge sets, part lengths, values), so a
check does not run through the code path that was timed.  The checks hand
them objects rebuilt from the benchmark's plain copies of the inputs.  The
helpers below are the ones that file lacks.
"""

from __future__ import annotations

import functools
import importlib.util
from fractions import Fraction
from pathlib import Path


@functools.cache
def suite():
    """``tests/oracles.py``, loaded on first use: it imports digraphon, which
    must not be imported before the set-up is timed."""
    path = Path(__file__).resolve().parents[1] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("suite_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mean(lengths, values) -> Fraction:
    return sum(values[i][j] * li * lj
               for i, li in enumerate(lengths) for j, lj in enumerate(lengths))


def rectangle(lengths, values, center, parts_s, parts_t) -> Fraction:
    """Integral of (W - center) over the union-of-parts rectangle S x T."""
    return sum(((values[i][j] - center) * lengths[i] * lengths[j]
                for i in parts_s for j in parts_t), Fraction(0))


def is_local_max(lengths, values, center, parts_s, parts_t) -> bool:
    """No single part added to or dropped from S or T increases |rectangle|."""
    best = abs(rectangle(lengths, values, center, parts_s, parts_t))
    k = len(lengths)
    for i in range(k):
        flipped_s = set(parts_s) ^ {i}
        flipped_t = set(parts_t) ^ {i}
        if (abs(rectangle(lengths, values, center, flipped_s, parts_t)) > best
                or abs(rectangle(lengths, values, center, parts_s, flipped_t)) > best):
            return False
    return True


def w_lambda(lam: Fraction) -> tuple[list[Fraction], list[list[Fraction]]]:
    """The four-part family: 1 - lambda on cell (1, 0), lambda/4 on the
    bottom-right 2x2 block, zero elsewhere."""
    values = [[Fraction(0)] * 4 for _ in range(4)]
    values[1][0] = 1 - lam
    for i in (2, 3):
        for j in (2, 3):
            values[i][j] = lam / 4
    return [Fraction(1, 4)] * 4, values


def has_cycle(v: int, edges) -> bool:
    """The underlying undirected graph has a cycle: edges > v - components."""
    adjacent = [set() for _ in range(v)]
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    seen: set[int] = set()
    components = 0
    for start in range(v):
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in adjacent[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
    return len(edges) > v - components


def falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out
