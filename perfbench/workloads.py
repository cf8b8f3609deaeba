"""Workloads, one certification pass over a workload, and the report gate.

A workload is a fixed list of shipped scenarios, each run at its default
``ScenarioConfig`` with the benchmark seed, exactly as ``lab <scenario>
--out <dir>`` runs it.  The scenarios are grouped by the layer that does
most of their work, so that an optimisation of one layer has a workload
that exercises it and one that bypasses it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    # symflow.integrate_batch on large classification and stencil batches
    "batch-flow": ("ray", "ray-n1", "cantor-brush"),
    # 1-D fibre work: flow1d, null_fields and the lsc_fields tower; no DP5
    "fibre-tower": ("epigraph", "box-tail"),
    # many tiny integrate_batch calls from staged tree maps; "tree" runs the
    # same code on fewer stages and is left out to keep a run near 30 s
    "staged-trees": ("retract",),
}

# The seed every baseline is measured on, and a second seed that a claimed
# gain must also hold on.
BASELINE_SEED = 0
HOLDOUT_SEED = 1

_RAY_CHECKS = frozenset({
    "escape_classification", "symplecticity", "inverse_consistency",
    "conservation", "flatness_off_hypersurface", "properness_away_from_zero",
})

# The checks each scenario must report, so that a pass cannot get faster by
# dropping one.
EXPECTED_CHECKS = {
    "ray": _RAY_CHECKS,
    "ray-n1": _RAY_CHECKS,
    "cantor-brush": frozenset({
        "escape_classification", "symplecticity", "inverse_consistency",
        "conservation", "flatness_off_hypersurface", "fibre_classification",
    }),
    "epigraph": frozenset({
        "fibre_classification", "fibre_bijectivity", "forward_invariance",
        "gradient_oracle", "hypersurface_restriction", "dominated_by_witness",
    }),
    "box-tail": frozenset({
        "minorant_sequence", "minorant_lower_bound", "level_thresholds",
        "monotone_nesting", "limit_classification", "backward_totality",
    }),
    "retract": frozenset({
        "locality_outside_U", "containment", "on_tree_escape",
        "composed_symplecticity", "composed_inverse", "near_tree_survivor",
    }),
}


def report_summary(path: str) -> dict:
    """Digest and check outcomes of one written ``report.json``.

    The digest is the sha256 of the report with ``config.out_dir``
    removed, re-serialised as ``run_scenario`` writes it.  A check counts
    as failed when ``pass`` is false or ``max_residual`` is not finite.
    """
    with open(path) as fh:
        report = json.load(fh)
    report.get("config", {}).pop("out_dir", None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    checks = report.get("checks", {})
    failed = sorted(
        name for name, c in checks.items()
        if not c.get("pass") or not math.isfinite(float(c.get("max_residual", math.nan)))
    )
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "checks": sorted(checks),
        "failed": failed,
        "points": sum(int(c.get("points", 0)) for c in checks.values()),
    }


def run_pass(workload: str, seed: int, out_root: str,
             overrides: Optional[dict] = None, tracer=None, clock=None) -> dict:
    """Certify every scenario of ``workload`` once.

    Returns the pass time (the sum of the ``run_scenario`` times, which
    include building the fields and writing ``report.json``) and a
    per-scenario summary.  ``seconds`` is normalised by ``clock``, a
    running ``hostclock.ProbeClock``, when one is given, and ``wall_s`` is
    the plain wall time.  With a tracer, each scenario is one span named
    ``scenarios.<scenario>``.
    """
    from excisionlab.scenarios import ScenarioConfig, run_scenario

    scenarios = {}
    for name in WORKLOADS[workload]:
        out_dir = os.path.join(out_root, name)
        cfg = ScenarioConfig(scenario=name, seed=seed, out_dir=out_dir,
                             **(overrides or {}))
        span = tracer.span(f"scenarios.{name}") if tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            run_scenario(cfg)
        t1 = time.perf_counter()
        scenarios[name] = {"seconds": clock.seconds(t0, t1) if clock else t1 - t0,
                           "wall_s": t1 - t0,
                           **report_summary(os.path.join(out_dir, "report.json"))}
    return {"seconds": sum(s["seconds"] for s in scenarios.values()),
            "wall_s": sum(s["wall_s"] for s in scenarios.values()),
            "scenarios": scenarios}


def gate(workload: str, passes: list[dict]) -> list[str]:
    """Problems that make a set of passes of one seed invalid: a scenario
    missing or carrying other checks than expected, or reports whose
    digests differ between passes."""
    problems = []
    for k, p in enumerate(passes):
        if sorted(p["scenarios"]) != sorted(WORKLOADS[workload]):
            problems.append(f"pass {k}: scenarios {sorted(p['scenarios'])}")
            continue
        for name, s in p["scenarios"].items():
            if set(s["checks"]) != EXPECTED_CHECKS[name]:
                problems.append(
                    f"pass {k}: {name} reports checks {s['checks']}, expected "
                    f"{sorted(EXPECTED_CHECKS[name])}")
    for name in WORKLOADS[workload]:
        digests = {p["scenarios"][name]["digest"] for p in passes
                   if name in p["scenarios"]}
        if len(digests) > 1:
            problems.append(f"{name}: reports differ between passes of one seed")
    return problems
