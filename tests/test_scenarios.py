"""The certification driver: fail-closed residuals, sample bookkeeping, the
full check set of every scenario, and deterministic reports."""

import json
import math

import numpy as np
import pytest

from excisionlab import cli, scenarios
from excisionlab.errors import InputError

RAY_CHECKS = {
    "escape_classification", "symplecticity", "inverse_consistency",
    "conservation", "flatness_off_hypersurface", "properness_away_from_zero",
}
TREE_CHECKS = {
    "locality_outside_U", "containment", "on_tree_escape",
    "composed_symplecticity", "composed_inverse",
}
EXPECTED_CHECKS = {
    "ray": RAY_CHECKS,
    "ray-n1": RAY_CHECKS,
    "epigraph": {
        "fibre_classification", "fibre_bijectivity", "forward_invariance",
        "gradient_oracle", "hypersurface_restriction", "dominated_by_witness",
    },
    "cantor-brush": {
        "escape_classification", "symplecticity", "inverse_consistency",
        "conservation", "flatness_off_hypersurface", "fibre_classification",
    },
    "box-tail": {
        "minorant_sequence", "minorant_lower_bound", "level_thresholds",
        "monotone_nesting", "limit_classification", "backward_totality",
    },
    "tree": TREE_CHECKS | {"stage_count"},
    "retract": TREE_CHECKS | {"near_tree_survivor"},
}

SMALL = {"grid": 8, "depth": 4, "sympl_samples": 8, "roundtrip_samples": 8}


class NanAtFirstPoint:
    """``F = |z|^2`` with its exact gradient, except that the value is NaN
    at the first sample point."""

    def __init__(self, first):
        self.first = np.asarray(first, dtype=float)

    def value(self, z):
        out = np.sum(z * z, axis=1)
        return np.where(np.all(np.abs(z - self.first) < 1e-3, axis=1), np.nan, out)

    def grad(self, z):
        return 2.0 * z


class TestWorst:
    def test_finite_values(self):
        assert scenarios._worst([0.5, np.array([[0.1, 2.0]]), 1.0]) == 2.0
        assert scenarios._worst(v for v in (0.0, 0.25)) == 0.25

    def test_empty_is_zero(self):
        assert scenarios._worst([]) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fails_closed(self, bad):
        assert scenarios._worst([0.0, np.array([1.0, bad]), 3.0]) == math.inf

    def test_grad_check_nan_value(self):
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(20, 2))
        chk = scenarios._grad_check(NanAtFirstPoint(pts[0]), pts, 1e-5, 1e-5)
        assert chk["pass"] is False
        assert chk["max_residual"] == math.inf


def write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "unused", **SMALL, **extra}))
    return str(path)


class TestDriver:
    def test_few_samples_bound_composed_checks(self):
        # fewer samples than tree stages: only the per-branch samples run
        cfg = scenarios.ScenarioConfig(scenario="tree", sympl_samples=2,
                                       roundtrip_samples=8)
        checks = scenarios.run_scenario(cfg)["checks"]
        assert checks["composed_symplecticity"]["points"] == 3
        assert checks["composed_inverse"]["points"] == 2

    def test_verify_all_reports_every_check(self, tmp_path):
        out = tmp_path / "all"
        cli.main(["verify-all", "--config", write_config(tmp_path),
                  "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert set(report["reports"]) == set(EXPECTED_CHECKS)
        for name, want in EXPECTED_CHECKS.items():
            assert set(report["reports"][name]["checks"]) == want, name

    def test_tree_report_is_deterministic(self, tmp_path):
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            cli.main(["tree", "--config", write_config(tmp_path),
                      "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            report["config"].pop("out_dir")
            texts.append(json.dumps(report, indent=2, sort_keys=True))
        assert texts[0] == texts[1]


class SineOfFirstCoordinate:
    """``F = sin(1000 z0)``: a fifth derivative large enough that the
    O(h^2) central difference misses the gradient by more than 1e-5."""

    def value(self, z):
        return np.sin(1000.0 * z[:, 0])

    def grad(self, z):
        g = np.zeros_like(z)
        g[:, 0] = 1000.0 * np.cos(1000.0 * z[:, 0])
        return g


class TestGradCheck:
    def test_fourth_order_oracle(self):
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, 2))
        pts[0] = 0.0
        field, h = SineOfFirstCoordinate(), 1e-5
        zp, zm = pts.copy(), pts.copy()
        zp[:, 0] += h
        zm[:, 0] -= h
        g = field.grad(pts)[:, 0]
        second_order = np.abs((field.value(zp) - field.value(zm)) / (2 * h) - g)
        assert np.max(second_order / (1.0 + np.abs(g))) > 1e-5
        chk = scenarios._grad_check(field, pts, h, 1e-5)
        assert chk["pass"] is True
        assert chk["max_residual"] < 1e-8


class TestUScale:
    @pytest.mark.parametrize("scenario", ["ray", "ray-n1"])
    def test_empty_sample_window_is_refused(self, scenario):
        cfg = scenarios.ScenarioConfig(scenario=scenario, u_scale=0.3)
        with pytest.raises(InputError, match="u_scale must exceed 0.333333"):
            scenarios.run_scenario(cfg)
