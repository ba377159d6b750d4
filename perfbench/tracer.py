"""Spans around calls into digraphon's layer modules, recorded from outside.

``Tracer.installed`` replaces each traced public function under every name
a caller looks it up by: the attribute of every ``digraphon`` module that
holds the original (modules import these names directly), or the class
attribute for methods.  Leaving the block puts every original back.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out by ``write``.  A layer's self time is the time its spans cover
minus the time covered by their child spans; ``calls`` counts the spans
entered from another layer, so a layer function calling another function
of the same layer is one call.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# The witness search promises cell values on the 1/2^16 grid; a witness
# with a larger denominator is counted as off-grid, not failed, because its
# exact certificate still holds.
GRID_DENOMINATOR = 2**16


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_host(counts, args, kwargs, result):
    counts["graphs.decode.hosts"] += 1


def _count_terms(counts, args, kwargs, result):
    pattern, w = _arg(args, kwargs, 0, "pattern"), _arg(args, kwargs, 1, "w")
    counts["stepgraphon.t_step.terms"] += w.num_parts ** pattern.vertex_count


def _count_bip_terms(counts, args, kwargs, result):
    pattern, w = _arg(args, kwargs, 0, "pattern"), _arg(args, kwargs, 1, "w")
    counts["stepgraphon.t_bip_step.terms"] += w.num_parts ** pattern.vertex_count


def _count_subsets(counts, args, kwargs, result):
    if result.exact:
        counts["stepgraphon.cut_norm.subsets"] += 2 ** _arg(args, kwargs, 0, "w").num_parts


def _count_search(counts, args, kwargs, result):
    counts["forcing.witness_search.searches"] += 1
    if result is not None:
        counts["forcing.witness_search.found"] += 1
        if any(x.denominator > GRID_DENOMINATOR for row in result.values for x in row):
            counts["forcing.witness_search.off_grid"] += 1


def _count_hosts_checked(counts, args, kwargs, result):
    counts["sidorenko.hosts_checked"] += result.instances_checked


def _count_tournaments(counts, args, kwargs, result):
    checked = getattr(result, "tournaments_checked", None)
    if checked is None:
        checked = result.instances_checked
    counts["tournaments.tournaments_checked"] += checked


def _count_bytes(counts, args, kwargs, result):
    counts["io.parse.bytes"] += len(_arg(args, kwargs, 0, "text").encode())


def _count_tasks(counts, args, kwargs, result):
    counts["parallel.tasks"] += len(_arg(args, kwargs, 1, "tasks"))


# (module, attribute, span name or None for a count without a span, counter)
TARGETS = (
    ("digraphon.graphs", "oriented_graph_from_index", "graphs.decode", _count_host),
    ("digraphon.graphs", "tournament_from_index", "graphs.decode", _count_host),
    ("digraphon.graphs", "Tournament.as_oriented", "graphs.decode", None),
    ("digraphon.counting", "t_directed", "counting.hom", None),
    ("digraphon.counting", "hom_count_directed", "counting.hom", None),
    ("digraphon.counting", "labeled_copies", "counting.copies", None),
    ("digraphon.stepgraphon", "t_step", "stepgraphon.t_step", _count_terms),
    ("digraphon.stepgraphon", "t_bip_step", "stepgraphon.t_bip_step", _count_bip_terms),
    ("digraphon.stepgraphon", "cut_norm", "stepgraphon.cut_norm", _count_subsets),
    ("digraphon.stepgraphon", "cut_norm_centered", "stepgraphon.cut_norm", _count_subsets),
    ("digraphon.forcing", "find_lambda0", "forcing.find_lambda0", None),
    ("digraphon.forcing", "forcing_witness_search", "forcing.witness_search", _count_search),
    ("digraphon.forcing", "quasirandom_trace", "forcing.quasirandom_trace", None),
    ("digraphon.sidorenko", "check_directed_sidorenko_exhaustive", "sidorenko",
     _count_hosts_checked),
    ("digraphon.sidorenko", "check_equivalence_bridge", "sidorenko", None),
    ("digraphon.tournaments", "impartiality_check", "tournaments", _count_tournaments),
    ("digraphon.tournaments", "anti_sidorenko_check", "tournaments", _count_tournaments),
    ("digraphon.io", "parse_graph", "io.parse", _count_bytes),
    ("digraphon.io", "parse_graphon", "io.parse", _count_bytes),
    ("digraphon.parallel", "map_tasks", None, _count_tasks),
)

# Per-layer metric names and units, in output order.
LAYER_METRICS = {
    "graphs.decode.calls": "count",
    "graphs.decode.self_s": "s",
    "graphs.decode.us_per_host": "us",
    "counting.hom.calls": "count",
    "counting.hom.self_s": "s",
    "counting.hom.us_per_call": "us",
    "counting.copies.calls": "count",
    "counting.copies.self_s": "s",
    "counting.copies.us_per_call": "us",
    "stepgraphon.t_step.calls": "count",
    "stepgraphon.t_step.self_s": "s",
    "stepgraphon.t_step.terms": "count",
    "stepgraphon.t_step.terms_per_s": "1/s",
    "stepgraphon.t_bip_step.calls": "count",
    "stepgraphon.t_bip_step.self_s": "s",
    "stepgraphon.t_bip_step.terms": "count",
    "stepgraphon.t_bip_step.terms_per_s": "1/s",
    "stepgraphon.cut_norm.calls": "count",
    "stepgraphon.cut_norm.self_s": "s",
    "stepgraphon.cut_norm.subsets": "count",
    "stepgraphon.cut_norm.subsets_per_s": "1/s",
    "forcing.find_lambda0.self_s": "s",
    "forcing.find_lambda0.density_evals": "count",
    "forcing.witness_search.self_s": "s",
    "forcing.witness_search.found_ratio": "ratio",
    "forcing.witness_search.off_grid": "count",
    "forcing.quasirandom_trace.self_s": "s",
    "sidorenko.self_s": "s",
    "sidorenko.hosts_checked": "count",
    "tournaments.self_s": "s",
    "tournaments.tournaments_checked": "count",
    "io.parse.calls": "count",
    "io.parse.self_s": "s",
    "io.parse.bytes": "bytes",
    "parallel.tasks": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as one op."""
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name, count):
        counts = self.counts
        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, kwargs, result)
                return result
            return functools.update_wrapper(counted, fn)

        name_id = self._id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(counts, args, kwargs, result)
            return result
        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "digraphon" or key.startswith("digraphon."))]
        patches = []
        try:
            for module_name, attribute, name, count in TARGETS:
                owner = sys.modules.get(module_name)
                path = attribute.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                original = getattr(owner, path[-1], None)
                if original is None:
                    # A renamed or removed function leaves its layer at zero.
                    print(f"perfbench: {module_name}.{attribute} not found; not traced",
                          file=sys.stderr)
                    continue
                wrapper = self._wrap(original, name, count)
                # A method is looked up on its class; a function under every
                # module name that holds it.
                holders = [owner] if len(path) > 1 else [
                    m for m in modules if vars(m).get(path[-1]) is original]
                for holder in holders:
                    patches.append((holder, path[-1], original))
                    setattr(holder, path[-1], wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def summary(self) -> dict:
        """Self time, duration, entries and parent-layer pairs per span name."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        self_s: Counter = Counter()
        total: Counter = Counter()
        entries: Counter = Counter()
        pairs: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_ids[i]]
            parent = self.parents[i]
            parent_name = self.names[self.name_ids[parent]] if parent >= 0 else None
            self_s[name] += durations[i] - child[i]
            total[name] += durations[i]
            pairs[(name, parent_name)] += 1
            if parent_name != name:
                entries[name] += 1
        return {"self_s": self_s, "total_s": total, "calls": entries, "pairs": pairs}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_frac``, which
        needs an untraced run to compare with."""
        s = self.summary()
        self_s, calls, counts = s["self_s"], s["calls"], self.counts
        out: dict[str, float] = {}
        hosts = counts["graphs.decode.hosts"]
        out["graphs.decode.calls"] = calls["graphs.decode"]
        out["graphs.decode.self_s"] = self_s["graphs.decode"]
        out["graphs.decode.us_per_host"] = _per(self_s["graphs.decode"] * 1e6, hosts)
        for layer in ("counting.hom", "counting.copies"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.us_per_call"] = _per(self_s[layer] * 1e6, calls[layer])
        for layer, work in (("stepgraphon.t_step", "terms"),
                            ("stepgraphon.t_bip_step", "terms"),
                            ("stepgraphon.cut_norm", "subsets")):
            amount = counts[f"{layer}.{work}"]
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.{work}"] = amount
            out[f"{layer}.{work}_per_s"] = _per(amount, self_s[layer])
        out["forcing.find_lambda0.self_s"] = self_s["forcing.find_lambda0"]
        out["forcing.find_lambda0.density_evals"] = s["pairs"][
            ("stepgraphon.t_step", "forcing.find_lambda0")]
        out["forcing.witness_search.self_s"] = self_s["forcing.witness_search"]
        out["forcing.witness_search.found_ratio"] = _per(
            counts["forcing.witness_search.found"], counts["forcing.witness_search.searches"])
        out["forcing.witness_search.off_grid"] = counts["forcing.witness_search.off_grid"]
        out["forcing.quasirandom_trace.self_s"] = self_s["forcing.quasirandom_trace"]
        out["sidorenko.self_s"] = self_s["sidorenko"]
        out["sidorenko.hosts_checked"] = counts["sidorenko.hosts_checked"]
        out["tournaments.self_s"] = self_s["tournaments"]
        out["tournaments.tournaments_checked"] = counts["tournaments.tournaments_checked"]
        out["io.parse.calls"] = calls["io.parse"]
        out["io.parse.self_s"] = self_s["io.parse"]
        out["io.parse.bytes"] = counts["io.parse.bytes"]
        out["parallel.tasks"] = counts["parallel.tasks"]
        # What the op spans do outside every layer: the benchmark's own
        # code and the wrappers' bookkeeping between layer calls.
        out["trace.unattributed_frac"] = _per(self_s["op"], s["total_s"]["op"])
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.names[self.name_ids[i]]}\t{self.starts[i]!r}\t"
                         f"{self.ends[i]!r}\t{self.parents[i]}\n")
