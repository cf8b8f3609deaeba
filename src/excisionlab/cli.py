"""Command-line driver: ``lab <scenario> [options]``.

Runs one shipped scenario (or ``verify-all``), prints one line per check,
writes ``report.json`` and trajectory CSVs when an output directory is
given, and exits 0 exactly when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .scenarios import SCENARIOS, ScenarioConfig, run_scenario

_CHOICES = sorted(SCENARIOS) + ["verify-all"]
# ScenarioConfig fields a command-line option can override
_OVERRIDES = ("tol", "grid", "out_dir", "seed", "n", "depth", "u_scale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="numerical certification lab for excising Hamiltonian flows",
    )
    parser.add_argument("scenario", choices=_CHOICES)
    parser.add_argument("--config", help="JSON file with a ScenarioConfig")
    parser.add_argument("--tol", type=float, help="integrator tolerance")
    parser.add_argument("--grid", type=int, help="grid resolution override")
    parser.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory for report and CSVs")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--n", type=int, help="model dimension parameter")
    parser.add_argument("--depth", type=int, help="tower depth (box-tail)")
    parser.add_argument("--u-scale", type=float, dest="u_scale",
                        help="scale of the ray field's own tube, outside "
                        "which the map is the identity (ray scenarios only)")
    return parser


def _flatten(report: dict, prefix: str = ""):
    if "checks" in report:
        for name, chk in sorted(report["checks"].items()):
            yield prefix + name, chk
    for name, sub in sorted(report.get("reports", {}).items()):
        yield from _flatten(sub, prefix=f"{name}/")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        cfg = ScenarioConfig.from_file(args.config, scenario=args.scenario)
    else:
        cfg = ScenarioConfig(scenario=args.scenario)
    # through the constructor, so the overrides are validated too
    cfg = replace(cfg, **{key: getattr(args, key) for key in _OVERRIDES
                          if getattr(args, key) is not None})

    report = run_scenario(cfg)
    for name, chk in _flatten(report):
        status = "PASS" if chk["pass"] else "FAIL"
        print(f"[{status}] {name}: points={chk['points']} "
              f"max_residual={chk['max_residual']:.3e}")
    print(json.dumps({"scenario": report["scenario"], "pass": report["pass"]}))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
