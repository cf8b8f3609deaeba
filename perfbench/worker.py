"""One certification pass of one workload, in a process of its own.

    python3 perfbench/worker.py --workload W --seed N --out DIR [--traced]

Writes ``DIR/result.json`` with the pass summary and the process's peak
resident memory; with ``--traced`` the pass runs with every layer wrapped
and the result also holds the per-layer metrics, while ``DIR/spans.npz`` holds
every span.  Pass times are normalised to the host's speed by a probe that
runs every 20 ms in this process, traced or not (see ``hostclock``); the
probes add about 2 % to the wall time and to the self time of whichever
span is open.  ``run.py`` starts one worker at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from hostclock import NUMPY_PROBE_REF_S, ProbeClock, numpy_probe
from workloads import SRC, WORKLOADS, run_pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    reports = os.path.join(args.out, "reports")
    clock = ProbeClock(numpy_probe(), NUMPY_PROBE_REF_S, interval_s=0.02)
    tracer = None
    if args.traced:
        from layers import instrument, layer_metrics
        from tracer import Tracer

        tracer = Tracer()
        instrument(tracer)
        try:
            with clock:
                result = run_pass(args.workload, args.seed, reports, tracer=tracer,
                                  clock=clock)
        finally:
            tracer.restore()
    else:
        with clock:
            result = run_pass(args.workload, args.seed, reports, clock=clock)
    result["probes"] = len(clock.durations)
    # read before aggregating the spans, which allocates
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        points = sum(s["points"] for s in result["scenarios"].values())
        result["layers"] = layer_metrics(tracer, points)
        result["counters"] = tracer.counters
        tracer.save(os.path.join(args.out, "spans.npz"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
