"""Times of flight, flow maps and their closed-form oracles."""

import math

import numpy as np
import pytest

from excisionlab import flow1d as f1
from excisionlab import scalar_kit as sk
from excisionlab.errors import FlowDomainError, InputError

mpmath = pytest.importorskip("mpmath")

# mpmath quadrature of Eq. below-plateau correction at (0.2, 0.5, 0, 0.1)
TU2_REF = 1.8000055021622534298
# bisection root of the unit-time equation at (a, b) = (0.5, 0)
MU_REF = 0.09680180080448680873


class TestForwardBackward:
    def test_constant_speed(self):
        v = sk.constant_field(1.0, (0.0, 1.0))
        assert f1.forward_time(v, 0.25).value == pytest.approx(0.75, abs=1e-10)
        assert f1.backward_time(v, 0.25).value == pytest.approx(-0.25, abs=1e-10)

    def test_ramp_plateau_matches_closed_form(self):
        v = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        t = f1.forward_time(v, 0.7)
        assert t.value == pytest.approx(0.6, abs=1e-9)

    def test_positive_c_diverges(self):
        v = sk.ramp_velocity_field(0.2, 0.5, 0.3)
        t = f1.forward_time(v, 0.7)
        assert t.value == math.inf
        assert t.lower_bound is not None and t.lower_bound > 1.0

    def test_backward_blocked_by_ramp_zero(self):
        # the cutoff vanishes below (a-1)/2, so the left endpoint is
        # unreachable for every starting point
        for c in (0.0, 0.4, 1.0):
            v = sk.ramp_velocity_field(0.1, 0.3, c)
            t = f1.backward_time(v, 0.5)
            assert t.value == -math.inf
            assert t.mode == f1.MODE_ZERO_BLOCKED

    def test_bridge_backward_finite(self):
        v = sk.bridge_velocity_field(0.2, 0.5, 0.1)
        t = f1.backward_time(v, 0.1)
        assert t.value == pytest.approx(-0.1, abs=1e-9)

    def test_zero_speed_is_blocked(self):
        v = sk.ramp_velocity_field(0.4, 0.0, 1.0)
        t = f1.forward_time(v, -0.8)      # below the ramp: v = 0
        assert t.value == math.inf and t.mode == f1.MODE_ZERO_BLOCKED

    def test_nan_start_is_refused(self):
        # refused at the domain check, before any quadrature level
        v = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        for flight_time in (f1.forward_time, f1.backward_time):
            with pytest.raises(InputError, match="outside open domain"):
                flight_time(v, math.nan)

    def test_opaque_field_zero_scan(self):
        # no zero metadata: the scan must find the dead zone ahead
        dead = sk.ScalarField1D(
            f=lambda x: np.where(np.asarray(x) < 0.5,
                                 0.5 * np.ones_like(np.asarray(x, dtype=float)),
                                 0.0),
            df=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            domain=(0.0, 1.0), zero_regions=None,
        )
        t = f1.forward_time(dead, 0.2)
        assert t.value == math.inf and t.mode == f1.MODE_ZERO_BLOCKED


class TestFlowMap:
    def test_constant(self):
        v = sk.constant_field(1.0, (0.0, 1.0))
        assert f1.flow_map(v, 0.3, 0.2) == pytest.approx(0.5, abs=1e-10)

    def test_fixed_point(self):
        v = sk.ramp_velocity_field(0.4, 0.0, 1.0)
        for t in (-3.0, 0.5, 10.0):
            assert f1.flow_map(v, t, -0.8) == -0.8

    def test_nan_time_is_refused(self):
        v = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        with pytest.raises(InputError, match="NaN"):
            f1.flow_map(v, math.nan, 0.5)
        with pytest.raises(InputError, match="outside open domain"):
            f1.flow_map(v, 0.5, math.nan)

    def test_bridge_endpoint_timing(self):
        v = sk.bridge_velocity_field(0.2, 0.5, 0.1)
        got = f1.flow_map(v, 0.4, 0.2)
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_domain_error_reports_bounds(self):
        v = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        tof = f1.forward_time(v, 0.7)
        with pytest.raises(FlowDomainError) as err:
            f1.flow_map(v, tof.value + 0.1, 0.7)
        assert err.value.backward == -math.inf
        assert err.value.forward == pytest.approx(0.6, abs=1e-8)

    def test_no_premature_escape(self):
        # just below the exit time the flow stays inside the interval
        v = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        tof = f1.forward_time(v, 0.3)
        for eps in (1e-3, 1e-5):
            y = f1.flow_map(v, tof.value - eps, 0.3)
            assert y < 1.0

    def test_time_shift_identity(self):
        rng = np.random.default_rng(0)
        v = sk.ramp_velocity_field(0.1, 0.4, 0.0)
        for _ in range(25):
            x = rng.uniform(0.15, 0.8)
            tof = f1.forward_time(v, x).value
            t = rng.uniform(0.05, 0.9) * tof
            y = f1.flow_map(v, t, x)
            assert f1.forward_time(v, y).value == pytest.approx(tof - t, abs=1e-8)

    def test_semigroup(self):
        rng = np.random.default_rng(1)
        v = sk.bridge_velocity_field(0.3, 0.6, 0.2)
        for _ in range(25):
            x = rng.uniform(0.05, 0.5)
            s, t = rng.uniform(0.01, 0.15, size=2)
            one = f1.flow_map(v, s, f1.flow_map(v, t, x))
            two = f1.flow_map(v, s + t, x)
            assert one == pytest.approx(two, abs=1e-8)


class TestClosedFormTimes:
    def test_plateau_branch(self):
        t = f1.ramp_time_closed_form(0.2, 0.5, 0.0, 0.7)
        assert t.value == pytest.approx(0.6, abs=1e-12)
        assert t.mode == f1.MODE_CLOSED_FORM

    def test_below_plateau_frozen_value(self):
        t = f1.ramp_time_closed_form(0.2, 0.5, 0.0, 0.1)
        assert t.value == pytest.approx(TU2_REF, abs=1e-9)
        # strictly exceeds the straight-line value: the ramp slows the start
        assert t.value > (1.0 - 0.1) / (1.0 - 0.5)

    def test_infinite_branches(self):
        assert f1.ramp_time_closed_form(0.2, 1.0, 0.0, 0.5).value == math.inf
        assert f1.ramp_time_closed_form(0.2, 0.5, 0.0, -0.5).value == math.inf
        assert f1.ramp_time_closed_form(0.2, 0.5, 0.2, 0.7).value == math.inf

    def test_oracle_agreement_with_quadrature(self):
        rng = np.random.default_rng(2)
        n = 0
        while n < 200:
            a = rng.uniform(-0.8, 0.8)
            b = rng.uniform(-0.9, 0.9)
            x = rng.uniform(0.5 * (a - 1.0) + 0.05, 0.95)
            if x <= 0.5 * (a - 1.0) + 0.05:
                continue
            closed = f1.ramp_time_closed_form(a, b, 0.0, x)
            if not closed.finite or closed.value > 1e3:
                continue
            quad = f1.forward_time(sk.ramp_velocity_field(a, b, 0.0), x)
            assert quad.value == pytest.approx(closed.value,
                                               rel=1e-8, abs=1e-8)
            n += 1

    def test_both_infinite_for_positive_c(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = rng.uniform(-0.8, 0.8)
            b = rng.uniform(-0.9, 0.9)
            c = rng.uniform(0.05, 1.0)
            x = rng.uniform(0.5 * (a - 1.0) + 0.02, 0.9)
            closed = f1.ramp_time_closed_form(a, b, c, x)
            quad = f1.forward_time(sk.ramp_velocity_field(a, b, c), x)
            assert closed.value == math.inf
            assert quad.value == math.inf


class TestUnitTimeThreshold:
    def test_identity_above_ramp(self):
        assert f1.unit_time_threshold(0.1, 0.5) == 0.5
        assert f1.unit_time_threshold(-0.3, -0.3) == -0.3

    def test_frozen_below_ramp_root(self):
        mu = f1.unit_time_threshold(0.5, 0.0)
        assert mu == pytest.approx(MU_REF, abs=5e-12)

    def test_bounds_below(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            a = rng.uniform(-0.5, 0.9)
            b = rng.uniform(-1.0, a - 0.05)
            mu = f1.unit_time_threshold(a, b)
            assert max(b, 0.5 * (a - 1.0)) < mu < a
            tof = f1.ramp_time_closed_form(a, b, 0.0, mu)
            assert tof.value == pytest.approx(1.0, abs=1e-8)

    def test_classification_identity_on_grid(self):
        # time <= 1 iff (b < 1, c = 0 and threshold <= x), exhaustively
        a_grid = np.linspace(-0.9, 0.9, 20)
        b_grid = np.linspace(-1.0, 1.0, 20)
        c_grid = np.linspace(0.0, 1.0, 20)
        x_grid = np.linspace(-0.95, 0.95, 20)
        thresholds = {}
        for a in a_grid:
            for b in b_grid:
                if b < 1.0:
                    thresholds[(a, b)] = f1.unit_time_threshold(a, b)
        checked = 0
        for a in a_grid:
            for b in b_grid:
                for c in (0.0, c_grid[7], c_grid[-1]):
                    for x in x_grid:
                        rhs = (b < 1.0 and c == 0.0
                               and thresholds[(a, b)] <= x)
                        if abs(x - thresholds.get((a, b), 2.0)) < 1e-9:
                            continue  # exact-tie guard
                        tof = f1.ramp_time_closed_form(a, b, c, x)
                        assert (tof.value <= 1.0) == rhs
                        checked += 1
        assert checked > 20_000


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        val, err, capped = f1.adaptive_quad(lambda x: x ** 3 - x, 0.0, 2.0)
        assert not capped
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_cap_certificate(self):
        # non-integrable pole: partial sums blow through the cap quickly
        val, _, capped = f1.adaptive_quad(
            lambda x: 1.0 / np.maximum(x, 1e-300) ** 2, 0.0, 1.0, cap=100.0)
        assert capped and val > 100.0
