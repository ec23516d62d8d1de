"""Tests of the benchmark itself, on codes small enough to run in seconds."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_pass
import bench_trace
import bench_workloads
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None):
    return bench_trace.Span(name, "job", start, end, parent)


def test_self_time_subtracts_direct_children_only():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0),
             _span("c", 2.0, 3.0, 1), _span("d", 5.0, 6.0, 0),
             _span("e", 12.0, 13.0)]
    assert bench_trace.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    assert bench_trace.uncovered(spans, 0.0, 14.0) == pytest.approx(3.0)
    # spans are clipped to the timed region
    assert bench_trace.uncovered(spans, 2.0, 12.5) == pytest.approx(2.0)


def test_layer_metrics_of_nested_spans():
    spans = [_span("sweeps.driver", 0.0, 4.0), _span("sweeps.floor", 0.0, 1.0, 0),
             _span("sweeps.kernel", 0.2, 0.9, 1),
             _span("sweeps.ops_build", 0.2, 0.5, 2),
             _span("sweeps.kernel", 1.0, 3.0, 0)]
    spans[0].counts = {"cosets": 10, "products": 100, "candidates": 0,
                       "truncated": 0}
    spans[3].counts = {"new": 1, "bytes": 64}
    m = bench_trace.layer_metrics(spans, 0.0, 5.0)
    assert m["sweeps.kernel_self_s"] == pytest.approx(0.4 + 2.0)
    assert m["sweeps.driver_self_s"] == pytest.approx(1.0)
    assert m["sweeps.floor_s"] == pytest.approx(1.0)
    assert m["sweeps.ops_cache_hit_ratio"] == 0.0
    assert m["sweeps.kernel_rate"] == pytest.approx(100 / 2.4)
    assert m["trace.other_s"] == pytest.approx(1.0)


def test_spec_names_match_the_metrics_emitted():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    computed = set(bench_trace.layer_metrics([], 0.0, 1.0))
    assert computed | {"trace.overhead_s", "fail_frac"} == set(run.LAYER_UNITS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(
        bench_workloads.WORKLOADS)


@pytest.mark.parametrize("trace, spec_key", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_command_emits_every_metric(trace, spec_key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["dist.decode_calls"] == 16
        assert values["sweeps.bfs_level.3"] == 360
        assert values["dist.deep_hole_reps"] == 360
        assert values["sweeps.ops_builds"] >= 1
    else:
        assert all(v > 0 for v in values.values())


def _tiny_outcome(workload, trace=False):
    import covrad
    out = bench_pass.run_pass(covrad, workload, 5, trace, 0.0)
    for mod in (covrad, covrad.dist, covrad._sweeps):  # originals restored
        assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values())
    return out


def test_wrong_expected_value_counts_as_failure():
    wrong = dataclasses.replace(bench_workloads.TINY.jobs[0],
                                expect={"rho": (4, "deliberately wrong")})
    workload = dataclasses.replace(
        bench_workloads.TINY, jobs=(wrong,) + bench_workloads.TINY.jobs[1:])
    out = _tiny_outcome(workload)
    assert [v["ok"] for v in out["verdicts"]] == [False, True, True, True]
    result = run.report(workload, [out], [], [out["setup_s"]], 0, False)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 4


def test_traced_pass_restores_covrad_and_reports_absent_layers(monkeypatch):
    monkeypatch.setattr(bench_trace, "LAYERS", bench_trace.LAYERS + (
        ("_sweeps", "no_such_layer", "sweeps.none", None),))
    out = _tiny_outcome(bench_workloads.TINY, trace=True)
    assert out["absent"] == ["_sweeps.no_such_layer"]
    assert all(v["ok"] for v in out["verdicts"])
    assert out["layers"]["sweeps.cosets"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tiny",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
