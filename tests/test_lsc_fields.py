"""Baire minorants, separators, and the glued velocity tower."""

import math

import numpy as np
import pytest

from excisionlab import flow1d, lsc_fields as lf
from excisionlab.errors import DepthExhausted, InputError


def constant_spec(value: float) -> lf.LscSpec:
    """Target identically ``value`` on the whole (boxed) base."""
    return lf.LscSpec(base_lo=(-1.0,), base_hi=(1.0,),
                      pieces=(((-3.0,), (3.0,), value),))


class TestBaireSequence:
    def test_constant_one_levels(self):
        # target identically 1: level 3 is at least 2/3, all levels below 1
        spec = lf.LscSpec(base_lo=(-1.0,), base_hi=(1.0,), pieces=())
        # a piece-free spec has lam = 1 but no pieces; use a covering piece
        spec = constant_spec(1.0)
        seq = lf.baire_sequence(spec, n_levels=6)
        pts = np.linspace(-1.0, 1.0, 41)[:, None]
        vals = seq.raw_values(pts)
        assert np.all(vals[:, 2] >= 2.0 / 3.0)
        assert np.all(vals < 1.0)
        assert np.all(np.diff(vals, axis=1) > 0.0)

    def test_step_target_plateau(self):
        # value 0.5 on [0, 1], 1 elsewhere; deep inside the plateau the
        # levels converge to 0.5 from below
        spec = lf.LscSpec(base_lo=(-2.0,), base_hi=(2.0,),
                          pieces=(((0.0,), (1.0,), 0.5),))
        seq = lf.baire_sequence(spec, n_levels=10)
        deep = np.array([[0.5]])
        vals = seq.raw_values(deep)[0]
        assert vals[9] >= 0.9 * 0.5
        assert vals[9] < 0.5

    def test_over_ball_lower_bound(self):
        spec = lf.LscSpec(base_lo=(-2.0,), base_hi=(2.0,),
                          pieces=(((0.0,), (1.0,), 0.5),))
        seq = lf.baire_sequence(spec, n_levels=8)
        pts = np.linspace(-1.9, 1.9, 97)[:, None]
        vals = seq.raw_values(pts)
        for lvl in range(2, 9):
            r = 1.0 / lvl
            dist = np.maximum(np.maximum(0.0 - pts[:, 0], pts[:, 0] - 1.0), 0.0)
            inf_ball = np.where(dist < r, 0.5, 1.0)
            assert np.all(vals[:, lvl - 1] >= (1 - 1 / lvl) * inf_ball - 1e-12)

    def test_strict_minorization_at_jump(self):
        # just inside the low plateau the levels must stay below the low
        # value even though high-value bumps crowd the boundary
        spec = lf.LscSpec(base_lo=(-2.0,), base_hi=(2.0,),
                          pieces=(((0.0,), (1.0,), 0.5),))
        seq = lf.baire_sequence(spec, n_levels=10)
        edge = np.array([[0.004], [0.02], [0.996], [0.5]])
        vals = seq.raw_values(edge)
        assert np.all(vals < 0.5)


class TestSmoothMajorant:
    def test_constant_midpoint_rule(self):
        spec = constant_spec(1.0)
        g = lf.smooth_majorant(lambda pts: np.full(pts.shape[0], 0.5), spec,
                               scale=0.25)
        pts = np.linspace(-0.9, 0.9, 31)[:, None]
        vals = g(pts)
        assert np.allclose(vals, 0.75, atol=1e-12)

    def test_bounds_for_high_constant(self):
        spec = constant_spec(1.0)
        g = lf.smooth_majorant(lambda pts: np.full(pts.shape[0], 0.9), spec)
        vals = g(np.linspace(-0.9, 0.9, 31)[:, None])
        assert np.all((vals > 0.9) & (vals < 1.0))

    def test_dominates_linear_input(self):
        spec = constant_spec(1.0)
        f = lambda pts: 0.1 + 0.35 * (pts[:, 0] + 1.0)
        g = lf.smooth_majorant(f, spec)
        pts = np.linspace(-1.0, 1.0, 201)[:, None]
        assert np.all(g(pts) > f(pts))
        assert np.all(g(pts) < 1.0)


def band_tower(f, g):
    """Delays of the tower on one fibre with thresholds ``f`` and separators
    ``g``, built as the paper's adjust-time steps build them: the first
    delay is ``f_1``, each next the previous level's time from ``f_{k-1}``
    to ``f_k``."""
    tau = [f[0]]
    for k in range(1, len(g) - 1):
        tau.append(lf.band_travel_time(g, tau, k, f[k - 1], f[k]))
    return np.asarray(tau)


class StubBaire:
    """Fixed thresholds at every base point."""

    def __init__(self, fs):
        self.fs = np.asarray(fs, dtype=float)

    def raw_values(self, points):
        return self.fs[None, :]


class TestAdjustTime:
    """The adjust-time steps, evaluated through the band primitive."""

    # first level: threshold 0.2, bridge band (0.4, 0.7)
    G1 = np.array([0.4, 0.7])
    # second level adds the band (0.7, 0.85) and re-times to 0.3
    G2 = np.array([0.4, 0.7, 0.85])

    def test_first_level_timing(self):
        # constant thresholds: unit travel plus the bridge delay sums to 1
        g = self.G1
        tau = band_tower([0.2], g)
        assert lf.band_travel_time(g, tau, 1, 0.2, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert lf.band_travel_time(g, tau, 1, 0.25, 1.0) < 1.0
        assert lf.band_travel_time(g, tau, 1, 0.15, 1.0) == pytest.approx(1.05, abs=1e-12)

    def test_unit_speed_off_band(self):
        g = self.G1
        tau = band_tower([0.2], g)
        v = lf.band_velocity(g, tau, 1, np.array([0.1, 0.39, 0.45, 0.65, 0.71, 0.9]))
        assert v[0] == 1.0 and v[1] == 1.0 and v[4] == 1.0 and v[5] == 1.0
        assert 0.0 < v[2] < 1.0 and 0.0 < v[3] < 1.0

    def test_second_level_retiming(self):
        g = self.G2
        tau = band_tower([0.2, 0.3], g)
        assert lf.band_travel_time(g, tau, 2, 0.3, 1.0) == pytest.approx(1.0, abs=1e-6)
        # coincides with the previous level below its top separator
        xs = np.linspace(0.05, 0.69, 30)
        assert np.allclose(lf.band_velocity(g, tau, 2, xs),
                           lf.band_velocity(g, tau, 1, xs))
        # unit speed above the new separator
        assert lf.band_velocity(g, tau, 2, 0.9) == 1.0

    def test_delay_via_independent_quadrature(self):
        # the closed-form band delay equals the adaptive quadrature of the
        # previous level's reciprocal speed (dual route)
        g = self.G2
        tau = band_tower([0.2, 0.3], g)
        inv_speed = lambda x: 1.0 / lf.band_velocity(g, tau, 1, x)
        ref, _, _ = flow1d.adaptive_quad(inv_speed, 0.2, 0.3, tol=1e-12)
        assert tau[1] == pytest.approx(ref, abs=1e-9)
        # the same identity across the first bridge band
        ref, _, _ = flow1d.adaptive_quad(inv_speed, 0.3, 0.6, tol=1e-12)
        assert lf.band_travel_time(g, tau, 1, 0.3, 0.6) == pytest.approx(ref, abs=1e-9)

    @staticmethod
    def stub_field(fs, gs):
        majorants = [lambda pts, c=c: np.full(np.atleast_2d(pts).shape[0], c)
                     for c in gs]
        return lf.GluedField(constant_spec(0.5), StubBaire(fs), majorants, depth=2)

    def test_ordering_validation(self):
        # fiber_data refuses each violated ordering rule of the tower
        for fs, gs in [
            ([0.2, 0.1, 0.3], [0.4, 0.6, 0.8]),     # thresholds not increasing
            ([0.1, 0.2, 0.3], [0.4, 0.35, 0.8]),    # separators not increasing
            ([0.1, 0.2, 0.7], [0.4, 0.6, 0.65]),    # threshold above its separator
        ]:
            with pytest.raises(InputError):
                self.stub_field(fs, gs).fiber_data(np.zeros(1))

    def test_ordered_tower_accepted(self):
        field = self.stub_field([0.1, 0.2, 0.3], [0.4, 0.6, 0.8])
        data = field.fiber_data(np.zeros(1))
        assert np.array_equal(data.tau, band_tower(data.f, data.g))


class TestGluedField:
    def test_tower_thresholds_are_exact(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[7]
        data = field.fiber_data(p)
        for lvl in (1, 4, field.depth):
            t = field.level_exit_time(p, float(data.f[lvl - 1]), lvl)
            assert t == pytest.approx(1.0, abs=1e-10)

    def test_level_classification(self, box_tail_field):
        spec, field, transect = box_tail_field
        rng = np.random.default_rng(0)
        for _ in range(150):
            p = transect[rng.integers(0, transect.shape[0])]
            data = field.fiber_data(p)
            lvl = int(rng.integers(1, field.depth + 1))
            fn = float(data.f[lvl - 1])
            for dx in (-0.05, -1e-4, 1e-4, 0.05):
                x = fn + dx
                if not (0.0 < x < 0.9):
                    continue
                t = field.level_exit_time(p, x, lvl)
                assert (t <= 1.0) == (x >= fn)

    def test_limit_classification(self, box_tail_field):
        spec, field, transect = box_tail_field
        xs = np.linspace(0.05, 0.9, 50)
        mismatches = 0
        for p in transect:
            if spec.boundary_distance(p) < 1e-3:
                continue
            lam_p = spec.lam(p)
            for x in xs:
                if abs(x - lam_p) < 1e-3:
                    continue
                verdict = field.classify(p, float(x))
                want = "excised" if x >= lam_p else "survives"
                mismatches += int(verdict != want)
        assert mismatches == 0

    def test_cutoff_freezes_bottom(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[3]
        data = field.fiber_data(p)
        assert field.velocity(p, 0.25 * float(data.f[0])) == 0.0

    def test_backward_time_is_unbounded(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[11]
        fiber = field.fiber(p)
        tof = flow1d.backward_time(fiber, 0.5)
        assert tof.value == -math.inf

    def test_fibre_roundtrip(self, box_tail_field):
        spec, field, transect = box_tail_field
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(30):
            p = transect[rng.integers(0, transect.shape[0])]
            fiber = field.fiber(p)
            x_t = rng.uniform(0.3, 0.85)
            x_b = flow1d.flow_map(fiber, -1.0, x_t)
            x_f = flow1d.flow_map(fiber, 1.0, x_b)
            worst = max(worst, abs(x_f - x_t))
        assert worst <= 1e-8

    def test_depth_exhaustion_is_loud(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[5]
        top = float(field.fiber_data(p).g[-1])
        with pytest.raises(DepthExhausted):
            field.velocity(p, top + 1e-6)

    def test_velocity_dx_matches_fd(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[19]
        rng = np.random.default_rng(2)
        h = 1e-7
        for _ in range(40):
            x = rng.uniform(0.1, 0.88)
            fd = (field.velocity(p, x + h) - field.velocity(p, x - h)) / (2 * h)
            exact = field.velocity_dx(p, x)
            assert fd == pytest.approx(exact, rel=1e-4, abs=1e-6)
