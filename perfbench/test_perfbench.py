"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

Each workload is certified at reduced size, using only existing
``ScenarioConfig`` fields, once plainly and once traced in-process.
"""

from __future__ import annotations

import json
import math
import sys

import pytest

from layers import OVERHEAD, instrument, layer_metrics, load_layer_map
from tracer import Tracer
from workloads import EXPECTED_CHECKS, ROOT, SRC, WORKLOADS, gate, report_summary

sys.path.insert(0, str(SRC))

REDUCED = {"grid": 8, "sympl_samples": 8, "roundtrip_samples": 8, "depth": 4}


def test_layer_map_matches_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    layer_map = load_layer_map()["metrics"]
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == {name: (spec["unit"], spec["better"])
                      for name, spec in layer_map.items()}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for spec in layer_map.values():
        for metric, workloads in spec["moves"].items():
            assert metric in end_to_end
            assert set(workloads) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_is_transparent_and_reaches_each_layer(workload, tmp_path):
    from excisionlab import flow1d, null_fields, symflow, trees
    from workloads import run_pass

    originals = (symflow.integrate_batch, trees.integrate_batch,
                 vars(trees.StagedExcision)["forward_batch"])
    plain = run_pass(workload, 0, str(tmp_path / "plain"), REDUCED)
    tracer = Tracer()
    instrument(tracer)
    try:
        # names imported into other modules are wrapped there too
        assert trees.integrate_batch is symflow.integrate_batch is not originals[0]
        assert null_fields.flow_map is flow1d.flow_map
        assert null_fields.flow_map.__wrapped__ is not null_fields.flow_map
        traced = run_pass(workload, 0, str(tmp_path / "traced"), REDUCED, tracer=tracer)
    finally:
        tracer.restore()
    assert (symflow.integrate_batch, trees.integrate_batch,
            vars(trees.StagedExcision)["forward_batch"]) == originals

    # same expected checks, and traced digests equal the untraced ones
    assert gate(workload, [plain, traced]) == []

    points = sum(s["points"] for s in traced["scenarios"].values())
    metrics = layer_metrics(tracer, points)
    silent = [name for name, spec in load_layer_map()["metrics"].items()
              if name != OVERHEAD
              and any(workload in ws for ws in spec["moves"].values())
              and not metrics[name]]
    assert silent == []
    for name in WORKLOADS[workload]:
        assert metrics[f"scenarios.{name}.s"] > 0


def _write_report(path, residual, out_dir):
    report = {"scenario": "ray", "config": {"out_dir": out_dir, "seed": 0},
              "checks": {"a": {"pass": True, "points": 3, "max_residual": residual},
                         "b": {"pass": False, "points": 2, "max_residual": 0.5}},
              "pass": False}
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_report_summary_fails_nonfinite_residuals_and_ignores_out_dir(tmp_path):
    _write_report(tmp_path / "x.json", math.nan, "/one")
    _write_report(tmp_path / "y.json", math.nan, "/two")
    _write_report(tmp_path / "z.json", 0.1, "/one")
    x, y, z = (report_summary(str(tmp_path / f"{k}.json")) for k in "xyz")
    assert x["failed"] == ["a", "b"]
    assert z["failed"] == ["b"]
    assert x["points"] == 5
    assert x["digest"] == y["digest"] != z["digest"]


def test_gate_flags_missing_checks_and_differing_digests():
    def one_pass(digest, drop=None):
        return {"scenarios": {
            name: {"digest": digest, "checks": sorted(EXPECTED_CHECKS[name] - {drop})}
            for name in WORKLOADS["batch-flow"]}}

    assert gate("batch-flow", [one_pass("d"), one_pass("d")]) == []
    dropped = gate("batch-flow", [one_pass("d", drop="conservation")])
    assert len(dropped) == 3 and all("expected" in p for p in dropped)
    differ = gate("batch-flow", [one_pass("d"), one_pass("e")])
    assert len(differ) == 3 and all("differ" in p for p in differ)


def test_probe_clock_removes_probe_time_and_scales_by_mean_speed():
    import signal
    import time

    from hostclock import ProbeClock, python_probe

    clock = ProbeClock(python_probe, ref_s=2.0, interval_s=1.0)
    clock.starts.extend([1.0, 2.0, 5.0])
    clock.durations.extend([0.5, 0.25, 1.0])
    # probes at 1.0 and 2.0 fall inside: (2.5 - 0.75) * 2.0 * mean(2, 4)
    assert clock.seconds(0.5, 3.0) == pytest.approx(10.5)

    handler = signal.getsignal(signal.SIGALRM)
    with ProbeClock(python_probe, ref_s=1.0, interval_s=0.002) as running:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
        t1 = time.perf_counter()
    assert len(running.durations) > 2
    assert 0 < running.seconds(t0, t1)
    assert signal.getsignal(signal.SIGALRM) is handler
