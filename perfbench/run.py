"""Benchmark of the digraphon library on four seeded exact-arithmetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sidorenko-scan --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each op starts when the previous one
returns, and every call passes ``workers=1``.  The program is imported from
``src/`` next to this directory.

With ``--trace 0`` the run times ops for ``--seconds`` and reports the
end-to-end metrics; ``setup_s`` is the median over fresh processes, spread
over the run, of importing digraphon, parsing the inputs through
``digraphon.io`` and the warm-up.  With ``--trace 1`` the run does a fixed
amount of work, the same on every commit: the set-up and a number of ops
set by the workload and ``--seconds`` alone, sized to take less than
``--seconds`` on the baseline machine.  Every op runs twice, untraced and
with spans around every layer call, in alternating order, and the run
reports the per-layer metrics as totals over that work, so a faster layer
shows as a smaller ``self_s``; the spans go to ``perfbench/out/``.

The speed of a shared machine drifts by a quarter or more within seconds.
To keep that out of the figures, a fixed pure-Python reference kernel that
does not use digraphon is timed between ops (about one kernel per 50 ms of
op time), and each op time is scaled by REFERENCE_S over the mean kernel
time just before and after it.  The op times so read as times on the
baseline machine at its median speed; the table also prints the unscaled
figures and the kernel's median time.  (The kernel's speed swings between
two modes, so a median over a longer window, which picks one of them,
gave a wider spread than this mean.)

Set-up times are not scaled.  Set-up is mostly imports, whose time drifts
apart from the kernel's: scaling by the kernel doubled the spread of
back-to-back set-ups.  Nor does a reference import follow it: while the
unscaled set-up ran 20-25% faster for a while, a fresh process importing
numpy ran faster still, so set-ups scaled by it read 22-35% slower.

Every op's output is checked after the timed loop.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit); the lines before it print every
metric as a table, ``error_rate`` included.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# One reference kernel per this much op time, at least one per op.
REFERENCE_EVERY_S = 0.05
# The reference kernel's median time on the machine the baseline was
# recorded on (2-core Intel Xeon, Python 3.11.7).
REFERENCE_S = 1.3e-3
# The op checked against the brute-force oracles is drawn from the first
# DEEP_WINDOW ops, so it is reached even by a slow program.
DEEP_WINDOW = 64

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed in the table only: the unscaled figures and the kernel time.
WALL_CLOCK = {
    "wall.ops_per_s": "1/s",
    "wall.op_p50_ms": "ms",
    "wall.op_p90_ms": "ms",
    "reference_ms": "ms",
}


def import_program():
    """Import digraphon from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import digraphon
        import digraphon.io  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import digraphon from {src}: {exc}")
    if not Path(digraphon.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: digraphon was imported from {digraphon.__file__}, "
                         f"not from {src}")
    return digraphon


def reference_kernel():
    """Fixed interpreter work independent of digraphon: big-int arithmetic,
    set inserts and Fraction sums, as the workloads mix them."""
    acc = 0
    seen = set()
    total = Fraction(0)
    for i in range(1, 1600):
        acc = (acc * 0x9E3779B97F4A7C15 + i) % (1 << 127)
        seen.add(acc & 1023)
        if i % 16 == 0:
            total += Fraction(i, acc % 97 + 1)
    return acc, len(seen), total


def time_reference() -> float:
    """The kernel's time with the cyclic GC off, so that collecting garbage
    an op left behind is not charged to the kernel."""
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def set_up(dg, workload, cases) -> list[tuple]:
    parsed = [workload.parse(dg.io, case) for case in cases]
    workloads.warm_up(dg)
    return parsed


def setup_probe(workload, seed: int) -> float:
    """Set-up time of this process, which has not imported digraphon yet."""
    cases = workload.generate(seed)
    start = perf_counter()
    set_up(import_program(), workload, cases)
    return perf_counter() - start


def time_setup(workload, seed: int) -> float:
    """Set-up time of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_op(dg, workload, args, index: int, spans=None):
    """Time one op, inside an "op" span if ``spans`` is given; return its
    duration and its result, or the exception it raised."""
    start = perf_counter()
    try:
        if spans is None:
            result = workload.run(dg, args, index)
        else:
            with spans.span("op"):
                result = workload.run(dg, args, index)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        traceback.print_exception(exc, file=sys.stderr)
        result = exc
    return perf_counter() - start, result


def check_results(dg, workload, cases, parsed, results, seed: int) -> int:
    """Check every op's output outside the timed loop; return the failures."""
    deep = random.Random(f"deep:{workload.name}:{seed}").randrange(
        min(len(results), DEEP_WINDOW))
    failed = 0
    for index, result in enumerate(results):
        if isinstance(result, Exception):
            failed += 1
            continue
        try:
            workload.check(dg, cases[index % len(cases)], parsed[index % len(parsed)],
                           result, index, index == deep)
        except Exception as exc:  # a check that cannot run fails the op
            print(f"perfbench: op {index} failed its check: {exc!r}", file=sys.stderr)
            failed += 1
    return failed


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _op_metrics(durations) -> dict[str, float]:
    ms = sorted(d * 1000 for d in durations)
    return {
        "ops_per_s": len(ms) * 1000 / sum(ms),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
    }


def untraced_run(dg, workload, cases, seed, seconds):
    parsed = set_up(dg, workload, cases)
    gc.collect()
    durations, results, after, setups = [], [], [], []
    start = perf_counter()
    deadline = start + seconds
    while not durations or perf_counter() < deadline:
        # The set-ups are spread over the run, so that their median does
        # not hang on one moment of a machine whose speed drifts; the op
        # loop runs for as long again as they take.
        if (len(setups) < SETUP_REPEATS
                and perf_counter() >= start + seconds * len(setups) / SETUP_REPEATS):
            probe_start = perf_counter()
            setups.append(time_setup(workload, seed))
            deadline += perf_counter() - probe_start
        index = len(durations)
        duration, result = run_op(dg, workload, parsed[index % len(parsed)], index)
        durations.append(duration)
        results.append(result)
        repeats = max(1, round(duration / REFERENCE_EVERY_S))
        after.append([time_reference() for _ in range(repeats)])
    rss = peak_rss_mib()
    setups += [time_setup(workload, seed) for _ in range(SETUP_REPEATS - len(setups))]
    failed = check_results(dg, workload, cases, parsed, results, seed)

    scaled = []
    for index, duration in enumerate(durations):
        around = after[max(index - 1, 0)] + after[index]
        scaled.append(duration * REFERENCE_S / statistics.fmean(around))
    metrics = dict(_op_metrics(scaled), setup_s=statistics.median(setups), peak_rss_mib=rss)
    wall = {f"wall.{k}": v for k, v in _op_metrics(durations).items()}
    wall["reference_ms"] = statistics.median(t for ts in after for t in ts) * 1000
    return metrics, wall, len(results), failed


def traced_run(dg, workload, cases, seed, seconds):
    spans = tracer.Tracer()
    with spans.installed(), spans.span("setup"):
        parsed = set_up(dg, workload, cases)
    gc.collect()
    # Each op runs untraced and traced back to back, in alternating order,
    # so the machine's drifting speed cancels out of the overhead.
    plain, traced, results, mismatches = [], [], [], 0
    for index in range(max(1, round(workload.traced_ops_per_s * seconds))):
        args = parsed[index % len(parsed)]
        runs = {}
        for tracing in ((False, True) if index % 2 else (True, False)):
            if tracing:
                with spans.installed():
                    runs[True] = run_op(dg, workload, args, index, spans)
            else:
                runs[False] = run_op(dg, workload, args, index)
        plain.append(runs[False][0])
        traced.append(runs[True][0])
        results.append(runs[False][1])
        if not isinstance(runs[False][1], Exception) and runs[False][1] != runs[True][1]:
            print(f"perfbench: op {index} gave another result when traced", file=sys.stderr)
            mismatches += 1
    failed = check_results(dg, workload, cases, parsed, results, seed) + mismatches
    metrics = spans.layer_metrics()
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    spans.write(HERE / "out" / f"spans-{workload.name}.tsv")
    return metrics, {}, 2 * len(results), failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print this process's set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps(setup_probe(workload, args.seed)))
        return 0
    cases = workload.generate(args.seed)
    dg = import_program()
    run = traced_run if args.trace else untraced_run
    metrics, extra, attempted, failed = run(dg, workload, cases, args.seed, args.seconds)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    table = dict(metrics, **extra, error_rate=failed / attempted)
    units = dict(END_TO_END, **tracer.LAYER_METRICS, **WALL_CLOCK, error_rate="ratio")
    for name, value in table.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    reported = END_TO_END if not args.trace else tracer.LAYER_METRICS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
