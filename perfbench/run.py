"""End-to-end benchmark of excisionlab certification runs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/excisionlab``.

``--trace 0`` certifies the workload in one worker process after
another, each a whole pass over the workload's scenarios, until
``--seconds`` have passed (a pass takes 20-30 s, so that is one pass).
It reports the median pass time (``certify_s``), the median peak resident
memory of a worker (``peak_rss_mb``) and the median time a fresh
interpreter takes to import ``excisionlab.scenarios`` (``setup_s``), timed
several times before and after the passes.

Times are normalised to the host's speed, which drifts by tens of percent
on a shared machine: a probe of fixed work runs every few milliseconds in
the timed process, and a time is reported in seconds of a host on which
the probe takes its reference time (see ``hostclock``).  The plain wall
times are printed and kept in the run's ``summary.json``.

``--trace 1`` runs one untraced and one traced pass, each in its own
worker, and reports every per-layer metric of ``layer_map.json``.
``trace.overhead_s`` is the normalised traced pass time minus the
untraced one: a single sample of each.

Every run applies the correctness gate: each report must carry its
scenario's expected checks, and every pass of the seed must produce the
same report digests (traced and untraced alike).  A check counts as failed
when ``pass`` is false or its residual is not finite; failed checks are
reported as ``failed`` out of ``attempted`` checks, never hidden.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run artefacts,
reports and spans go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import OVERHEAD, load_layer_map
from workloads import (BASELINE_SEED, HOLDOUT_SEED, ROOT, SRC, WORKLOADS,
                       gate)

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

# fresh-interpreter imports per setup_s measurement, half before and half
# after the passes, after one warm-up import that writes the bytecode caches
SETUP_REPEATS = 12
# a run must end within 180 s; no pass starts that could cross this
DEADLINE_S = 170.0
# BLAS threads per worker: one process of load, well below nproc
BLAS_THREADS = 1


class BenchError(RuntimeError):
    """The benchmark could not run to completion."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(label: str, cmd: list[str], timeout: float) -> str:
    """Run one child to completion (killed and reaped on timeout)."""
    if timeout <= 0:
        raise BenchError(f"out of time before starting the {label}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the {label} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"the {label} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "baseline_seed": BASELINE_SEED,
        "holdout_seed": HOLDOUT_SEED,
    }


def measure_setup(repeats: int, deadline: float, warm_up: bool = False) -> list[float]:
    cmd = [sys.executable, str(HERE / "importer.py"), str(SRC)]
    if warm_up:
        _run_child("warm-up import", cmd, deadline - time.monotonic())
    return [float(_run_child("timed import", cmd, deadline - time.monotonic()))
            for _ in range(repeats)]


def run_worker(workload: str, seed: int, out_dir: Path, traced: bool,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)]
    if traced:
        cmd.append("--traced")
    out_dir.mkdir(parents=True)
    _run_child(f"{'traced' if traced else 'plain'} {workload} pass", cmd,
               deadline - time.monotonic())
    with open(out_dir / "result.json") as fh:
        return json.load(fh)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "env": environment()}
    passes = []
    if not trace:
        setup = measure_setup(SETUP_REPEATS // 2, deadline, warm_up=True)
        began = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_worker(workload, seed, run_dir / f"pass{len(passes)}",
                                     traced=False, deadline=deadline))
            now = time.monotonic()
            if now - began >= seconds or now + 1.2 * (now - t0) > deadline:
                break
        info["setup_s"] = setup + measure_setup(SETUP_REPEATS - len(setup), deadline)
    else:
        passes.append(run_worker(workload, seed, run_dir / "plain", False, deadline))
        passes.append(run_worker(workload, seed, run_dir / "traced", True, deadline))

    problems = gate(workload, passes)
    checks = [(name, s) for p in passes for name, s in p["scenarios"].items()]
    attempted = sum(len(s["checks"]) for _, s in checks)
    failed_checks = [f"{name}.{c}" for name, s in checks for c in s["failed"]]
    info.update(
        passes=passes, problems=problems,
        digests={name: s["digest"] for name, s in passes[0]["scenarios"].items()},
        failed_checks=failed_checks,
        checks_failed_frac=len(failed_checks) / attempted if attempted else 1.0,
    )

    if not trace:
        metrics = {
            "certify_s": _metric(statistics.median(p["seconds"] for p in passes), "s"),
            "setup_s": _metric(statistics.median(info["setup_s"]), "s"),
            "peak_rss_mb": _metric(
                statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    else:
        units = {name: spec["unit"] for name, spec in load_layer_map()["metrics"].items()}
        values = dict(passes[1]["layers"])
        values[OVERHEAD] = passes[1]["seconds"] - passes[0]["seconds"]
        metrics = {name: _metric(values[name], units[name]) for name in units}
    info["metrics"] = metrics
    with open(run_dir / "summary.json", "w") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)

    return {"correct": not problems, "attempted": attempted,
            "failed": len(failed_checks), "metrics": metrics,
            "info": info, "run_dir": run_dir}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "excisionlab" / "scenarios.py").is_file():
        print(f"no excisionlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = res["info"]
    print(f"env {json.dumps(info['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(info['passes'])} artefacts {res['run_dir'].relative_to(ROOT)}")
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in info["passes"])
    print(f"pass wall time (not normalised) {walls} s")
    for name, digest in info["digests"].items():
        print(f"report {name} sha256 {digest}")
    print(f"checks_failed_frac {info['checks_failed_frac']:.6g} ratio "
          f"({res['failed']}/{res['attempted']}: {', '.join(info['failed_checks']) or 'none'})")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in info["problems"]:
        print(f"INVALID {problem}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
