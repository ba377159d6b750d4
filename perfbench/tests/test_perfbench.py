"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DG = run.import_program()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Every metric the benchmark is specified to print, per mode.
SPECIFIED_METRICS = {
    0: ["ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mib", "error_rate"],
    1: ["graphs.decode.calls", "graphs.decode.self_s", "graphs.decode.us_per_host",
        "counting.hom.calls", "counting.hom.self_s", "counting.hom.us_per_call",
        "counting.copies.calls", "counting.copies.self_s", "counting.copies.us_per_call",
        "stepgraphon.t_step.calls", "stepgraphon.t_step.self_s", "stepgraphon.t_step.terms",
        "stepgraphon.t_step.terms_per_s",
        "stepgraphon.t_bip_step.calls", "stepgraphon.t_bip_step.self_s",
        "stepgraphon.t_bip_step.terms", "stepgraphon.t_bip_step.terms_per_s",
        "stepgraphon.cut_norm.calls", "stepgraphon.cut_norm.self_s",
        "stepgraphon.cut_norm.subsets", "stepgraphon.cut_norm.subsets_per_s",
        "forcing.find_lambda0.self_s", "forcing.find_lambda0.density_evals",
        "forcing.witness_search.self_s", "forcing.witness_search.found_ratio",
        "forcing.witness_search.off_grid", "forcing.quasirandom_trace.self_s",
        "sidorenko.self_s", "sidorenko.hosts_checked",
        "tournaments.self_s", "tournaments.tournaments_checked",
        "io.parse.calls", "io.parse.self_s", "io.parse.bytes",
        "parallel.tasks", "trace.overhead_frac", "error_rate"],
}


def _digest(name: str, seed: int) -> str:
    h = hashlib.sha256()
    for case in workloads.WORKLOADS[name].generate(seed):
        for key in sorted(case.texts):
            h.update(f"{key}\0{case.texts[key]}\0".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    code = (f"import sys; sys.path.insert(0, {str(BENCH / 'tests')!r}); "
            f"import test_perfbench as t; print(t._digest({name!r}, 3))")
    other = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONHASHSEED="12345"))
    assert other.stdout.strip() == _digest(name, 3)
    assert _digest(name, 3) != _digest(name, 4)


def _bindings() -> dict:
    """Every attribute of every digraphon module, and the Tournament class."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "digraphon" or key.startswith("digraphon."):
            out.update({(key, attr): value for attr, value in vars(module).items()})
    out.update({("Tournament", attr): value
                for attr, value in vars(DG.graphs.Tournament).items()})
    return out


def test_wrappers_replace_every_caller_binding_and_are_removed():
    before = _bindings()
    spans = tracer.Tracer()
    with spans.installed():
        assert DG.sidorenko.t_directed is not before[("digraphon.sidorenko", "t_directed")]
        assert DG.tournaments.labeled_copies is not before[
            ("digraphon.tournaments", "labeled_copies")]
        assert DG.check_directed_sidorenko_exhaustive is not before[
            ("digraphon", "check_directed_sidorenko_exhaustive")]
        host = DG.graphs.tournament_from_index(3, 0).as_oriented()
        assert DG.t_directed(DG.OrientedGraph(2, [(0, 1)]), host) == Fraction(3, 9)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = [spans.names[i] for i in spans.name_ids]
    assert names == ["graphs.decode", "graphs.decode", "counting.hom", "counting.hom"]


def test_a_traced_run_leaves_no_wrapper_behind(capsys):
    before = _bindings()
    assert run.main(["--workload", "sidorenko-scan", "--seconds", "0", "--trace", "1"]) == 0
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    table = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    for metric in SPECIFIED_METRICS[trace]:
        assert table.get(metric), f"{metric} is not printed with a unit"


def test_checks_reject_a_wrong_result():
    sid = workloads.WORKLOADS["sidorenko-scan"]
    case = next(c for c in sid.generate(0) if workloads._edge_hom_free(c.raw["edges"]))
    args = sid.parse(DG.io, case)
    good = sid.run(DG, args, 0)
    sid.check(DG, case, args, good, 0, False)
    bad_witness = replace(good.witness, margin=good.witness.margin + 1)
    for bad in (replace(good, instances_checked=759), replace(good, witness=bad_witness),
                replace(good, verdict=DG.HOLDS, witness=None)):
        with pytest.raises(workloads.CheckFailed):
            sid.check(DG, case, args, bad, 0, False)

    tour = workloads.WORKLOADS["tournament-scan"]
    case = tour.generate(0)[0]
    args = tour.parse(DG.io, case)
    good = tour.run(DG, args, 0)
    tour.check(DG, case, args, good, 0, False)
    counts = dict(good.counts)
    counts[max(counts)] += 1
    with pytest.raises(workloads.CheckFailed):
        tour.check(DG, case, args, replace(good, counts=counts), 0, False)


def test_traced_run_does_the_same_work_every_time(capsys):
    counted = ("graphs.decode.calls", "counting.hom.calls", "sidorenko.hosts_checked",
               "parallel.tasks", "io.parse.calls")
    seen = []
    for _ in range(2):
        assert run.main(["--workload", "sidorenko-scan", "--seconds", "1",
                         "--trace", "1"]) == 0
        metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
        seen.append({name: metrics[name]["value"] for name in counted})
    assert seen[0] == seen[1]
    ops = round(workloads.WORKLOADS["sidorenko-scan"].traced_ops_per_s)
    assert seen[0]["sidorenko.hosts_checked"] >= ops * workloads.SIDORENKO_HOSTS
