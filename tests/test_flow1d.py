"""Times of flight, flow maps and their closed-form oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excisionlab import flow1d as f1
from excisionlab import scalar_kit as sk
from excisionlab.errors import FlowDomainError, InputError, ToleranceFailure
from fields1d import (affine_field, bridge_velocity_field, constant_field,
                      ramp_time_reference, speed, unit_time_threshold)

mpmath = pytest.importorskip("mpmath")

# mpmath quadrature of Eq. below-plateau correction at (0.2, 0.5, 0, 0.1)
TU2_REF = 1.8000055021622534298
# bisection root of the unit-time equation at (a, b) = (0.5, 0)
MU_REF = 0.09680180080448680873


class TestForwardBackward:
    def test_constant_speed(self):
        v = constant_field(1.0, (0.0, 1.0))
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
        v = bridge_velocity_field(0.2, 0.5, 0.1)
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


class TestFlowMap:
    def test_constant(self):
        v = constant_field(1.0, (0.0, 1.0))
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
        v = bridge_velocity_field(0.2, 0.5, 0.1)
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
        v = bridge_velocity_field(0.3, 0.6, 0.2)
        for _ in range(25):
            x = rng.uniform(0.05, 0.5)
            s, t = rng.uniform(0.01, 0.15, size=2)
            one = f1.flow_map(v, s, f1.flow_map(v, t, x))
            two = f1.flow_map(v, s + t, x)
            assert one == pytest.approx(two, abs=1e-8)


class TestClosedFormTimes:
    def test_plateau_branch(self):
        t = f1.ramp_time_closed_form(0.2, 0.5, 0.0, 0.7)
        assert t.shape == ()
        assert t == pytest.approx(0.6, abs=1e-12)

    def test_below_plateau_frozen_value(self):
        t = f1.ramp_time_closed_form(0.2, 0.5, 0.0, 0.1)
        assert t == pytest.approx(TU2_REF, abs=1e-9)
        # strictly exceeds the straight-line value: the ramp slows the start
        assert t > (1.0 - 0.1) / (1.0 - 0.5)

    def test_infinite_branches(self):
        assert f1.ramp_time_closed_form(0.2, 1.0, 0.0, 0.5) == math.inf
        assert f1.ramp_time_closed_form(0.2, 0.5, 0.0, -0.5) == math.inf
        assert f1.ramp_time_closed_form(0.2, 0.5, 0.2, 0.7) == math.inf

    def test_oracle_agreement_with_quadrature(self):
        rng = np.random.default_rng(2)
        n = 0
        while n < 200:
            a = rng.uniform(-0.8, 0.8)
            b = rng.uniform(-0.9, 0.9)
            x = rng.uniform(0.5 * (a - 1.0) + 0.05, 0.95)
            if x <= 0.5 * (a - 1.0) + 0.05:
                continue
            closed = float(f1.ramp_time_closed_form(a, b, 0.0, x))
            if not math.isfinite(closed) or closed > 1e3:
                continue
            quad = f1.forward_time(sk.ramp_velocity_field(a, b, 0.0), x)
            assert quad.value == pytest.approx(closed, rel=1e-8, abs=1e-8)
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
            assert closed == math.inf
            assert quad.value == math.inf


@st.composite
def ramp_rows(draw):
    """``(a, b, c, x)`` of one closed-form row, drawn to reach every
    branch: a blocked start at or below ``s = (a-1)/2``, the band (down to
    starts so close to ``s`` that the correction is capped), the plateau,
    ``b = 1`` and ``c > 0``."""
    a = draw(st.floats(-0.9, 0.9))
    b = draw(st.one_of(st.floats(-1.0, 0.95), st.just(1.0), st.just(-1.0)))
    c = draw(st.one_of(st.just(0.0), st.just(0.0), st.floats(0.0, 1.0)))
    s = 0.5 * (a - 1.0)
    kind = draw(st.sampled_from(["blocked", "band", "near", "plateau"]))
    if kind == "blocked":
        x = draw(st.floats(-0.999, s))
    elif kind == "near":
        x = s + draw(st.floats(1e-12, 0.06))
    elif kind == "band":
        x = draw(st.floats(s, a, exclude_min=True, exclude_max=True))
    else:
        x = draw(st.floats(a, 0.999))
    return a, b, c, min(max(x, -0.999), 0.999)


class TestClosedFormBatch:
    @settings(max_examples=60)
    @given(rows=st.lists(ramp_rows(), min_size=1, max_size=12))
    def test_batch_and_single_rows_equal_the_reference(self, rows):
        a, b, c, x = (np.array(col) for col in zip(*rows))
        ref = np.array([ramp_time_reference(*row) for row in rows])
        assert f1.ramp_time_closed_form(a, b, c, x).tobytes() == ref.tobytes()
        for row, want in zip(rows, ref.tolist()):
            got = f1.ramp_time_closed_form(*row)
            assert got.shape == () and got.tobytes() == np.float64(want).tobytes()

    def test_every_branch_is_reached(self):
        # blocked, c > 0, b = 1, plateau, band and a capped band correction
        a, s = 0.2, -0.4
        x = np.array([-0.5, 0.7, 0.5, 0.7, 0.1, s + 0.02])
        b = np.array([0.5, 0.5, 1.0, 0.5, 0.5, 0.5])
        c = np.array([0.0, 0.2, 0.0, 0.0, 0.0, 0.0])
        got = f1.ramp_time_closed_form(a, b, c, x)
        ref = [ramp_time_reference(a, *row) for row in zip(b, c, x)]
        assert got.tobytes() == np.array(ref).tobytes()
        assert got[:3].tolist() == [math.inf] * 3 and got[5] == math.inf
        assert got[3] == pytest.approx(0.6) and math.isfinite(got[4])
        _, _, capped = f1.adaptive_quad(
            lambda xi: (1.0 + f1._ramp_corner(xi, a)) / 0.5, s + 0.02, a,
            cap=f1.DIVERGENCE_CAP)
        assert capped

    def test_broadcasting_and_empty(self):
        x = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        got = f1.ramp_time_closed_form(0.2, 0.5, 0.0, x)
        assert got.shape == (3, 4)
        assert got.tobytes() == np.array(
            [ramp_time_reference(0.2, 0.5, 0.0, xi) for xi in x.ravel()]).tobytes()
        assert f1.ramp_time_closed_form(0.2, 0.5, 0.0, np.zeros(0)).shape == (0,)

    def test_refusals(self):
        with pytest.raises(InputError, match="do not broadcast"):
            f1.ramp_time_closed_form([0.1, 0.2], [0.5] * 3, 0.0, 0.5)
        with pytest.raises(InputError, match="x must lie"):
            f1.ramp_time_closed_form(0.2, 0.5, 0.0, [0.5, 1.0])
        with pytest.raises(InputError, match="c must lie"):
            f1.ramp_time_closed_form(0.2, 0.5, [0.0, math.nan], 0.5)

    def test_quadrature_failures(self, monkeypatch):
        # a failure past the cap certifies an infinite time; any other
        # failure raises, the first failing band row's first
        def failing(x, a):
            if x == 0.1:
                raise ToleranceFailure("past the cap",
                                       partial=2.0 * f1.DIVERGENCE_CAP)
            if x in (0.15, 0.0):
                raise ToleranceFailure(f"fails at {x}", partial=1.0)
            yield from ()
            return 0.25, False
        monkeypatch.setattr(f1, "_transit", failing)
        got = f1.ramp_time_closed_form(0.2, 0.5, 0.0, [0.1, 0.05, 0.7])
        assert got.tolist() == [math.inf, 1.6 + 0.25, (1.0 - 0.7) / 0.5]
        with pytest.raises(ToleranceFailure, match="fails at 0.15"):
            f1.ramp_time_closed_form(0.2, 0.5, 0.0, [0.1, 0.7, 0.15, 0.0])


class TestUnitTimeThreshold:
    def test_identity_above_ramp(self):
        assert unit_time_threshold(0.1, 0.5) == 0.5
        assert unit_time_threshold(-0.3, -0.3) == -0.3

    def test_frozen_below_ramp_root(self):
        mu = unit_time_threshold(0.5, 0.0)
        assert mu == pytest.approx(MU_REF, abs=5e-12)

    def test_bounds_below(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            a = rng.uniform(-0.5, 0.9)
            b = rng.uniform(-1.0, a - 0.05)
            mu = unit_time_threshold(a, b)
            assert max(b, 0.5 * (a - 1.0)) < mu < a
            tof = f1.ramp_time_closed_form(a, b, 0.0, mu)
            assert tof == pytest.approx(1.0, abs=1e-8)

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
                    thresholds[(a, b)] = unit_time_threshold(a, b)
        cases, want = [], []
        for a in a_grid:
            for b in b_grid:
                for c in (0.0, c_grid[7], c_grid[-1]):
                    for x in x_grid:
                        if abs(x - thresholds.get((a, b), 2.0)) < 1e-9:
                            continue  # exact-tie guard
                        cases.append((a, b, c, x))
                        want.append(b < 1.0 and c == 0.0
                                    and thresholds[(a, b)] <= x)
        assert len(cases) > 20_000
        times = f1.ramp_time_closed_form(*np.array(cases).T)
        assert np.array_equal(times <= 1.0, want)


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

    @pytest.mark.parametrize("tol", [float("nan"), math.inf, 0.0, -1e-10,
                                     True, False])
    def test_bad_tol_is_refused_before_any_call(self, tol):
        calls = []

        def f(x):
            calls.append(x)
            return np.cos(30.0 * x) ** 2 + 0.1
        with pytest.raises(InputError,
                           match=f"tol must be positive and finite, got {tol!r}"):
            f1.adaptive_quad(f, 0.0, 1.0, tol=tol)
        assert calls == []


class TestOneDriver:
    """Every one-fibre evaluation is a one-row run of ``_lockstep``."""

    @pytest.mark.parametrize("call", [
        lambda: f1.adaptive_quad(lambda x: np.cos(30.0 * x) ** 2 + 0.1, 0.0, 1.0),
        lambda: f1.forward_time(sk.ramp_velocity_field(0.2, 0.5, 0.0), 0.7),
        lambda: f1.backward_time(bridge_velocity_field(0.3, 0.6, 0.2), 0.5),
        lambda: f1.flow_map(sk.ramp_velocity_field(0.2, 0.5, 0.0), 0.1, 0.7),
    ], ids=["adaptive_quad", "forward_time", "backward_time", "flow_map"])
    def test_one_lockstep_run_per_call(self, call, monkeypatch):
        runs = []
        real = f1._lockstep

        def counted(steps, evaluate):
            runs.append(len(steps))
            return real(steps, evaluate)
        monkeypatch.setattr(f1, "_lockstep", counted)
        call()
        assert runs == [1]


# ---------------------------------------------------------------------------
# the panel heap against the sorted panel list it replaced
# ---------------------------------------------------------------------------

def quad_sorted_ref(a, b, tol=f1.QUAD_TOL, cap=None, max_depth=f1.MAX_LEVELS,
                    max_panels=8192):
    """The earlier steps of ``adaptive_quad``, kept verbatim: the whole
    panel list is sorted by error at every bisection, and the last panel,
    of largest error and made last among equal errors, is split."""
    if b <= a:
        return 0.0, 0.0, False
    fx = yield ((a, b),)
    val, err = f1._gk15(fx[0], 0.5 * (b - a))
    panels = [(err, a, b, val, 0)]
    total, toterr = val, err
    while toterr > tol * max(1.0, abs(total)):
        if cap is not None and total - toterr > cap:
            return total, toterr, True
        panels.sort(key=lambda p: p[0])
        perr, pa, pb, pval, depth = panels.pop()
        if depth >= max_depth or len(panels) >= max_panels:
            if cap is not None and total - toterr > cap:
                return total, toterr, True
            raise ToleranceFailure(
                f"quadrature did not converge on [{a}, {b}]", partial=total
            )
        pm = 0.5 * (pa + pb)
        fx = yield ((pa, pm), (pm, pb))
        lval, lerr = f1._gk15(fx[0], 0.5 * (pm - pa))
        rval, rerr = f1._gk15(fx[1], 0.5 * (pb - pm))
        total += lval + rval - pval
        toterr += lerr + rerr - perr
        panels.append((lerr, pa, pm, lval, depth + 1))
        panels.append((rerr, pm, pb, rval, depth + 1))
    return total, toterr, False


def quad_rounds(steps, f):
    """The result of a quadrature's steps, or its refusal, and the nodes of
    every round in order."""
    rounds = []

    def recorded(rows, nodes):
        rounds.append(np.array(nodes.ravel(), copy=True))
        return np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    out, = f1._lockstep([steps], recorded)
    if isinstance(out, ToleranceFailure):
        return ("refused", out.partial), rounds
    return out, rounds


class TestPanelHeap:
    @pytest.mark.parametrize("f, a, b, cap", [
        # a square wave whose 64 jumps sit alike in their panels: equal
        # errors tie at every depth, and the panel made last is split
        (lambda x: (np.mod(64.0 * x, 1.0) < 1.0 / 3.0).astype(float),
         0.0, 1.0, None),
        # 1/v of a ramp with c > 0 up to 2^-40 from its end: 5,836 rounds
        (lambda x: 1.0 / sk.ramp_velocity(-0.17978911822283405,
                                          -0.318534576735228,
                                          0.19268974261692928, x),
         0.99, 1.0 - 2.0 ** -40, f1.DIVERGENCE_CAP),
        # depth exhausted: both refuse with the same partial value
        (lambda x: x ** -0.9, 0.0, 1.0, None),
        # capped
        (lambda x: 1.0 / np.maximum(x, 1e-300) ** 2, 0.0, 1.0, 100.0),
    ], ids=["ties", "ramp-end", "refused", "capped"])
    def test_splits_the_panels_the_sorted_list_split(self, f, a, b, cap):
        want, want_rounds = quad_rounds(quad_sorted_ref(a, b, cap=cap), f)
        got, got_rounds = quad_rounds(f1._quad(a, b, cap=cap), f)
        assert got == want
        assert len(got_rounds) == len(want_rounds)
        assert all(np.array_equal(g, w) for g, w in zip(got_rounds, want_rounds))


# ---------------------------------------------------------------------------
# the one panel walk against the two walks it replaced
# ---------------------------------------------------------------------------
#
# The references are the earlier implementation: a geometric walk for the
# times of flight and, in flow_map, a full time-of-flight domain check
# followed by a separate bracket expansion.  They are kept as they were,
# except for names, the start-point domain check (the tests pass valid
# starts) and an AssertionError where the walk raised ToleranceFailure.

def improper_endpoint_time_ref(v, x, endpoint, sign, tol):
    def integrand(xi):
        return 1.0 / speed(v, xi)

    span = abs(endpoint - x)
    accum = 0.0
    contribs = []
    delta = 0.5 * span
    lo_pt = min(x, endpoint - sign * delta)
    hi_pt = max(x, endpoint - sign * delta)
    val, _, capped = f1.adaptive_quad(integrand, lo_pt, hi_pt, tol=tol,
                                      cap=f1.DIVERGENCE_CAP)
    accum += val
    if capped or accum > f1.DIVERGENCE_CAP:
        return f1.TimeOfFlight(math.inf, f1.MODE_QUADRATURE, lower_bound=accum)
    for level in range(1, f1.MAX_LEVELS + 1):
        new_delta = 0.5 * delta
        a_pt = endpoint - sign * delta
        b_pt = endpoint - sign * new_delta
        lo_pt, hi_pt = (a_pt, b_pt) if sign > 0 else (b_pt, a_pt)
        val, _, capped = f1.adaptive_quad(integrand, lo_pt, hi_pt, tol=tol,
                                          cap=f1.DIVERGENCE_CAP)
        accum += val
        contribs.append(val)
        delta = new_delta
        if capped or accum > f1.DIVERGENCE_CAP:
            return f1.TimeOfFlight(math.inf, f1.MODE_QUADRATURE,
                                   lower_bound=accum)
        if val <= tol * max(1.0, accum):
            ratio = 0.5
            if len(contribs) >= 2 and contribs[-2] > 0:
                ratio = min(max(val / contribs[-2], 0.0), 0.9)
            accum += val * ratio / (1.0 - ratio)
            return f1.TimeOfFlight(accum, f1.MODE_QUADRATURE)
        if level >= 12 and len(contribs) >= 5:
            tail = contribs[-5:]
            ratios = [t1 / t0 for t0, t1 in zip(tail, tail[1:]) if t0 > 0]
            if ratios and min(ratios) >= 0.85 and val > 1e-8:
                return f1.TimeOfFlight(math.inf, f1.MODE_QUADRATURE,
                                       lower_bound=accum)
    raise AssertionError("reference walk did not settle")


def forward_time_ref(v, x, tol=f1.QUAD_TOL):
    if float(speed(v, x)) == 0.0 or f1._zero_barrier(v, 0, x, +1) is not None:
        return f1.TimeOfFlight(math.inf, f1.MODE_ZERO_BLOCKED)
    return improper_endpoint_time_ref(v, x, v.domain[0, 1].item(), +1, tol)


def backward_time_ref(v, x, tol=f1.QUAD_TOL):
    if float(speed(v, x)) == 0.0 or f1._zero_barrier(v, 0, x, -1) is not None:
        return f1.TimeOfFlight(-math.inf, f1.MODE_ZERO_BLOCKED)
    res = improper_endpoint_time_ref(v, x, v.domain[0, 0].item(), -1, tol)
    if not math.isfinite(res.value):
        return f1.TimeOfFlight(-math.inf, res.mode, lower_bound=res.lower_bound)
    return f1.TimeOfFlight(-res.value, res.mode)


@np.errstate(divide="ignore", over="ignore")
def flow_map_ref(v, t, x, tol=f1.QUAD_TOL):
    if float(speed(v, x)) == 0.0 or t == 0.0:
        return float(x)
    lo, hi = v.domain[0].tolist()

    def cum(frm, to):
        val, _, capped = f1.adaptive_quad(
            lambda xi: 1.0 / speed(v, xi), frm, to,
            tol=tol, cap=f1.DIVERGENCE_CAP,
        )
        return math.inf if capped else val

    d = 1 if t > 0 else -1
    target = abs(t)
    tof = (forward_time_ref if d > 0 else backward_time_ref)(v, x, tol=tol)
    if target >= d * tof.value:
        other = (backward_time_ref if d > 0 else forward_time_ref)(v, x, tol=tol)
        back, fwd = (other, tof) if d > 0 else (tof, other)
        raise FlowDomainError(t, back.value, fwd.value)
    barrier = f1._zero_barrier(v, 0, x, d)
    end = (hi if d > 0 else lo) if barrier is None else barrier

    def span(y0, y1):
        return cum(y0, y1) if d > 0 else cum(y1, y0)

    near, t_near = x, 0.0
    far = None
    step = 0.5 * abs(end - x)
    probe = x + d * step
    t_probe = t_near + span(near, probe)
    for _ in range(200):
        if t_probe > target:
            far = probe
            break
        near, t_near = probe, t_probe
        step *= 0.5
        probe = end - d * step
        t_probe = t_near + span(near, probe)
    if far is None:
        if d > 0:
            raise FlowDomainError(t, -math.inf, t_probe)
        raise FlowDomainError(t, -t_probe, math.inf)
    while abs(far - near) > f1.ROOT_TOL:
        mid = 0.5 * (near + far)
        t_mid = t_near + span(near, mid)
        if (t_mid < target if d > 0 else not t_mid > target):
            near, t_near = mid, t_mid
        else:
            far = mid
    return 0.5 * (near + far)


def tof_fields(tof):
    return (tof.value, tof.mode, tof.lower_bound)


def flow_or_refusal(flow, v, t, x):
    try:
        return flow(v, t, x)
    except FlowDomainError as err:
        return ("refused", err.backward, err.forward)


@pytest.fixture(scope="module")
def walk_fibres(box_tail_field):
    """Ramp, bridge and glued (box-tail) fibres with start points on each,
    as Python floats, the way the scenarios call the fibre routines."""
    rng = np.random.default_rng(7)
    fibres = []
    for _ in range(12):
        a = rng.uniform(-0.8, 0.8)
        b = rng.uniform(-0.9, 0.9)
        c = rng.choice([0.0, rng.uniform(0.05, 1.0)])
        xs = rng.uniform(0.5 * (a - 1.0) + 0.02, 0.95, size=4)
        fibres.append((sk.ramp_velocity_field(a, b, c), xs.tolist()))
    for lo, hi, delay in ((0.2, 0.5, 0.1), (0.3, 0.6, 0.2), (0.1, 0.9, 2.0)):
        fibres.append((bridge_velocity_field(lo, hi, delay),
                       rng.uniform(0.02, 0.98, size=4).tolist()))
    _, field, transect = box_tail_field
    rows = [3, 11, 20, 31, 44]
    f1 = field.fibre_table(transect[rows])[0][:, 0]
    glued = field.fibres(transect[rows])
    for j, f1_j in enumerate(f1.tolist()):
        fibres.append((glued.take([j]), rng.uniform(f1_j, 0.9, size=4).tolist()))
    return fibres


class TestOneWalk:
    def test_times_of_flight_are_unchanged(self, walk_fibres):
        for v, xs in walk_fibres:
            for x in xs:
                assert tof_fields(f1.forward_time(v, x)) == \
                    tof_fields(forward_time_ref(v, x))
                assert tof_fields(f1.backward_time(v, x)) == \
                    tof_fields(backward_time_ref(v, x))

    def test_flow_map_matches_within_two_ulps(self, walk_fibres):
        rng = np.random.default_rng(8)
        moved = 0
        for v, xs in walk_fibres:
            for x in xs:
                for t in rng.uniform(-1.5, 1.5, size=3).tolist() + [1.0, -1.0, 2.0]:
                    got = flow_or_refusal(f1.flow_map, v, t, x)
                    want = flow_or_refusal(flow_map_ref, v, t, x)
                    if isinstance(want, tuple):
                        assert got == want
                        continue
                    # ulps at the scale of the fibre's coordinate, which
                    # the bisection midpoints carry
                    assert abs(got - want) <= 2.0 * math.ulp(np.abs(v.domain).max())
                    moved += got != want
        # only the first probe moved, so most flows are bitwise equal
        assert moved < 20

    def test_in_domain_flow_makes_no_time_of_flight_call(self, walk_fibres,
                                                         monkeypatch):
        # half of each exit time, or a fixed time where the exit time is
        # infinite, keeps every flow inside its domain
        flows = []
        for v, xs in walk_fibres:
            for x in xs[:2]:
                for time in (f1.forward_time, f1.backward_time):
                    exit_t = time(v, x).value
                    flows.append((v, 0.5 * exit_t if math.isfinite(exit_t)
                                  else math.copysign(0.3, exit_t), x))
        calls = []
        for name in ("forward_time", "backward_time"):
            wrapped = getattr(f1, name)
            monkeypatch.setattr(f1, name, lambda *a, _w=wrapped, **k:
                                calls.append(a) or _w(*a, **k))
        for v, t, x in flows:
            f1.flow_map(v, t, x)
        assert calls == []
        with pytest.raises(FlowDomainError):
            f1.flow_map(sk.ramp_velocity_field(0.2, 0.5, 0.0), 0.7, 0.7)
        assert len(calls) == 2

    def test_numpy_scalar_flow_is_quiet(self):
        # toward the right end of a ramp with c > 0 the speed underflows to
        # 0 at quadrature nodes; with numpy scalars inf - inf in a panel's
        # error estimate warned
        v = sk.ramp_velocity_field(-0.17978911822283405, -0.318534576735228,
                                   0.19268974261692928)
        x = np.float64(0.006823612503560228)
        got = f1.flow_map(v, np.float64(5.0), x)
        assert got == f1.flow_map(v, 5.0, float(x))

    def test_target_beyond_float_resolution(self):
        # the exact point lies within 1e-28 of the right end, so the walk
        # runs out of float resolution before it passes t: a panel whose far
        # edge rounds to its near edge must not settle the walk into a
        # refusal.  The bisection's midpoint rounds onto the end, where the
        # reference stops; the last float inside the open domain stands for
        # it, so a flow can start there
        v = sk.ramp_velocity_field(-0.17978911822283405, -0.318534576735228,
                                   0.19268974261692928)
        last = float(np.nextafter(1.0, 0.0))
        for x in (0.6708532832785272, 0.9176990251470087):
            assert flow_map_ref(v, 5.0, x) == 1.0
            got = f1.flow_map(v, 5.0, x)
            assert got == last and type(got) is float
            assert -1.0 < got < 1.0
            assert f1.flow_map(v, 1.0, got) == last

    def test_time_inside_the_extrapolated_tail(self):
        # the walk settles about 1e-10 short of the exit time and adds the
        # tail; a time inside that tail is still walked to, and the exit
        # time itself is refused
        v = constant_field(1.0, (0.0, 1.0))
        for t in (0.75 - 1e-12, 0.75 - 1e-11, 0.75 - 1e-10):
            got = f1.flow_map(v, t, 0.25)
            assert got == flow_map_ref(v, t, 0.25)
            assert got == pytest.approx(0.25 + t, abs=1e-11)
        with pytest.raises(FlowDomainError) as err:
            f1.flow_map(v, 0.75, 0.25)
        assert (err.value.backward, err.value.forward) == (-0.25, 0.75)
        v = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        exit_t = f1.forward_time(v, 0.3).value
        assert f1.flow_map(v, exit_t - 1e-12, 0.3) == \
            flow_map_ref(v, exit_t - 1e-12, 0.3)

    def test_backward_refusal_reports_both_bounds(self):
        v = bridge_velocity_field(0.2, 0.5, 0.1)
        with pytest.raises(FlowDomainError) as err:
            f1.flow_map(v, -0.2, 0.1)
        assert err.value.t == -0.2
        assert err.value.backward == pytest.approx(-0.1, abs=1e-9)
        assert err.value.forward == pytest.approx(1.0, abs=1e-9)

    def test_infinite_time_is_refused(self):
        v = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        for t in (math.inf, -math.inf):
            with pytest.raises(FlowDomainError) as err:
                f1.flow_map(v, t, 0.7)
            assert err.value.backward == -math.inf
            assert err.value.forward == pytest.approx(0.6, abs=1e-8)

    def test_log_divergence_verdict_does_not_stop_a_finite_time(self):
        # v = 1 - x: the time to 1 diverges like -log(1 - x), slowly enough
        # that the per-level verdict fires near t = 9, yet t = 20 is reached
        v = affine_field(-1.0, 1.0, (0.0, 1.0))
        tof = f1.forward_time(v, 0.5)
        assert tof.value == math.inf and 8.0 < tof.lower_bound < 10.0
        got = f1.flow_map(v, 20.0, 0.5)
        assert abs(got - (1.0 - 0.5 * math.exp(-20.0))) <= 1e-11
        assert abs(got - flow_map_ref(v, 20.0, 0.5)) <= 2.0 * math.ulp(1.0)

    def test_log_divergent_end_at_zero(self):
        # toward 0 the floats stay fine-grained, so the walk needs many
        # levels: v = a x adds log(2)/a per level, and t = -1 at a = 50
        # (t = -45 at a = 1) lies past the first MAX_LEVELS of them
        for a, t in ((50.0, -1.0), (1.0, -45.0), (1.0, -100.0)):
            v = affine_field(a, 0.0, (0.0, 1.0))
            got = f1.flow_map(v, t, 0.5)
            assert got == flow_map_ref(v, t, 0.5)
            assert abs(got - 0.5 * math.exp(a * t)) <= f1.ROOT_TOL

    def test_time_past_two_hundred_levels_is_reached(self):
        # 200 levels of log(2)/50 reach about 2.77 toward 0, and the
        # reference refuses t = -3.9 there; the walk goes on until its far
        # edge rounds onto 0, so every time is reached, within ROOT_TOL of
        # 0.5 e^(50 t) (about 1e-85 at t = -3.9)
        v = affine_field(50.0, 0.0, (0.0, 1.0))
        with pytest.raises(FlowDomainError):
            flow_map_ref(v, -3.9, 0.5)
        got = f1.flow_map(v, -3.9, 0.5)
        assert 0.0 < got < 0.5
        assert got == pytest.approx(0.5 * math.exp(-195.0), rel=0.1)
        for t in (-14.0, -100.0, -1e4):
            got = f1.flow_map(v, t, 0.5)
            assert 0.0 < got <= f1.ROOT_TOL

    def test_time_beyond_the_divergence_cap_is_reached(self):
        # the exit time 5e6 exceeds DIVERGENCE_CAP, so forward_time calls
        # it infinite; a finite time past the cap is still walked to
        v = constant_field(1e-7, (0.0, 1.0))
        assert f1.forward_time(v, 0.5).value == math.inf
        got = f1.flow_map(v, 4e6, 0.5)
        assert abs(got - flow_map_ref(v, 4e6, 0.5)) <= 2.0 * math.ulp(1.0)
        assert got == pytest.approx(0.9, abs=1e-9)

    def test_start_next_to_a_log_divergent_end(self):
        # from the least float above 0 no float lies between the start and
        # the end: the walk's only panel [0, 5e-324] puts every node on 0,
        # where 1/v is infinite.  That is an infinite time, beyond any
        # target, so the flow stays at the last float inside the domain
        v = affine_field(50.0, 0.0, (0.0, 1.0))
        least = 5e-324
        for t in (-1e-3, -1.0, -100.0):
            got = f1.flow_map(v, t, least)
            assert got == least and type(got) is float


# ---------------------------------------------------------------------------
# a first panel that starts next to a zero or a log-divergent end of v
# ---------------------------------------------------------------------------

class TestFirstPanelNextToAnEnd:
    def test_time_of_flight_where_one_over_v_overflows_is_quiet(self):
        # v = 50 x is 5e-319 at the start, so 1/v overflows to inf.  Toward
        # 0 the time is infinite, as the first panel says; toward 1 it is
        # about 14.7, but the pieces next to the start cannot time it
        v = affine_field(50.0, 0.0, (0.0, 1.0))
        tof = f1.backward_time(v, 1e-320)
        assert tof_fields(tof) == (-math.inf, f1.MODE_QUADRATURE, math.inf)
        with pytest.raises(ToleranceFailure, match="overflows"):
            f1.forward_time(v, 1e-320)

    @pytest.mark.parametrize("t, x", [(20.0, 1e-320), (14.5, 1e-320),
                                      (1e-3, 5e-324)])
    def test_flow_where_one_over_v_overflows_is_not_guessed(self, t, x):
        # 20 is past the exit time, and 14.5 reaches about 7.6e-6; the
        # overflow used to read as an infinite time and return about x
        v = affine_field(50.0, 0.0, (0.0, 1.0))
        with pytest.raises(ToleranceFailure, match="overflows"):
            f1.flow_map(v, t, x)

    def test_time_between_floats_next_to_a_log_divergent_end_is_not_guessed(self):
        # 1/v grows like c / (1 - x^2) toward 1, so the first panel's
        # quadrature cannot settle next to the start.  The pieces within a
        # few floats of it take about 0.25 of the time, and their rule sees
        # 1/v at one or a few floats only: a point would be off by about
        # 1e-11, so the flow raises
        v = sk.ramp_velocity_field(-0.17978911822283405, -0.318534576735228,
                                   0.19268974261692928)
        with pytest.raises(ToleranceFailure, match="float resolution"):
            f1.flow_map(v, -1.0, float(np.nextafter(1.0, 0.0)))

    @pytest.mark.parametrize("x", [1e-300, 1e-200])
    def test_forward_flow_from_next_to_a_log_divergent_start(self, x):
        # v = 50 x: the time from x to y is log(y / x) / 50
        v = affine_field(50.0, 0.0, (0.0, 1.0))
        exit_t = -math.log(x) / 50.0
        assert f1.forward_time(v, x).value == pytest.approx(exit_t,
                                                            rel=f1.QUAD_TOL)
        # the bisection stops at ROOT_TOL, far above x, so y is the middle
        # of the piece [x + w, x + 2w] that passes the time: within half of
        # exact - x of the exact point
        exact = x * math.exp(0.05)
        y = f1.flow_map(v, 1e-3, x)
        assert type(y) is float
        assert abs(y - exact) <= 0.5 * (exact - x)
        # near the exit time the point is 0.5; a time off by QUAD_TOL moves
        # it by v(0.5) QUAD_TOL
        y = f1.flow_map(v, exit_t - math.log(2.0) / 50.0, x)
        assert abs(y - 0.5) <= 25.0 * f1.QUAD_TOL


# ---------------------------------------------------------------------------
# lockstep flows of many fibres
# ---------------------------------------------------------------------------

@st.composite
def epigraph_flows(draw):
    """Rows of (base point, start, time) on the epigraph scenario's field:
    starts above or on the zero set of the fibre (where v = 0) and times
    that are 0, backward (always defined) or forward below the exit time,
    with a permutation of the rows."""
    m = draw(st.integers(1, 7))
    rows = [(draw(st.floats(-1.2, 1.2)), draw(st.floats(-1.2, 1.2)),
             draw(st.booleans()), draw(st.floats(0.0, 1.0)),
             draw(st.sampled_from(["zero", "backward", "forward"])),
             draw(st.floats(0.0, 1.0)))
            for _ in range(m)]
    return rows, draw(st.permutations(range(m)))


def flow_rows(field, rows):
    """``(p, x, t)`` arrays for the rows drawn by :func:`epigraph_flows`."""
    p = np.array([row[:2] for row in rows])
    a = field.params(p)[0]
    x, t = [], []
    for (_, _, on_zero, u, kind, frac), p_i, a_i in zip(rows, p, a.tolist()):
        s = 0.5 * (a_i - 1.0)     # the fibre's speed vanishes below s
        x_i = s - u * (s + 0.99) if on_zero else s + 1e-3 + u * (0.95 - s - 1e-3)
        if kind == "zero":
            t_i = 0.0
        elif kind == "backward":
            t_i = -2.0 * frac
        else:
            exit_t = f1.forward_time(field.fibres(p_i[None]), x_i).value
            t_i = 0.9 * frac * exit_t if math.isfinite(exit_t) else 3.0 * frac
        x.append(x_i)
        t.append(t_i)
    return p, np.array(x), np.array(t)


class TestFlowMapBatch:
    @settings(max_examples=25)
    @given(case=epigraph_flows())
    def test_each_row_is_flow_map_alone(self, epigraph_box, case):
        _, field, _ = epigraph_box
        rows, order = case
        p, x, t = flow_rows(field, rows)
        alone = np.array([f1.flow_map(field.fibres(p_i[None]), t_i, x_i)
                          for p_i, t_i, x_i in zip(p, t.tolist(), x.tolist())])
        order = list(order)
        got = f1.flow_map_batch(field.fibres(p[order]), t[order], x[order])
        assert got.tobytes() == alone[order].tobytes()

    def test_first_refused_row_raises_as_it_would_alone(self, epigraph_box):
        # on the set and above the ramp the exit time is (1 - x)/(1 - b),
        # about 0.6: rows 1 and 2 are refused, row 3 has a NaN time
        _, field, _ = epigraph_box
        p = np.array([[0.0, 0.0], [0.1, 0.2], [0.2, -0.1], [0.3, 0.1]])
        x = np.array([0.5, 0.5, 0.6, 0.7])
        t = np.array([-0.5, 5.0, 3.0, math.nan])
        with pytest.raises(FlowDomainError) as batch:
            f1.flow_map_batch(field.fibres(p), t, x)
        with pytest.raises(FlowDomainError) as alone:
            f1.flow_map(field.fibres(p[1:2]), 5.0, 0.5)
        assert ((batch.value.t, batch.value.backward, batch.value.forward)
                == (alone.value.t, alone.value.backward, alone.value.forward))
        with pytest.raises(InputError, match="NaN"):
            f1.flow_map_batch(field.fibres(p[[0, 3, 1]]), t[[0, 3, 1]],
                              x[[0, 3, 1]])

    def test_shapes_are_checked(self, epigraph_box):
        _, field, _ = epigraph_box
        fibres = field.fibres(np.zeros((3, 2)))
        for t, x in ((0.5, np.zeros(2)), (np.zeros(2), np.zeros(3)),
                     (0.5, np.zeros((3, 1)))):
            with pytest.raises(InputError, match="need 3 starts"):
                f1.flow_map_batch(fibres, t, x)
        assert f1.flow_map_batch(fibres, 0.0, np.zeros(3)).shape == (3,)


def tof_bits(tofs):
    """Each :class:`TimeOfFlight` as its value's and bound's bytes and its
    mode, so that equal lists are bitwise equal."""
    def bits(value):
        return None if value is None else np.float64(value).tobytes()
    return [(bits(tof.value), tof.mode, bits(tof.lower_bound)) for tof in tofs]


class TestForwardTimeBatch:
    # on the set above the ramp (finite), at and below the fibre's zero set
    # x <= (a-1)/2 (zero-blocked), and off the set where c > 0 (divergent)
    P = np.array([[0.0, 0.0], [0.3, -0.2], [0.1, 0.4], [-0.2, 0.1],
                  [1.0, 0.0], [0.0, -0.6], [0.45, 0.3]])

    def starts(self, field):
        a = field.params(self.P)[0]
        s = 0.5 * (a - 1.0)
        return np.array([0.5, 0.1, s[2], s[3] - 0.1, 0.5, 0.2, -0.3])

    def test_each_row_is_forward_time_alone(self, epigraph_box):
        _, field, _ = epigraph_box
        x = self.starts(field)
        alone = [f1.forward_time(field.fibres(p_i[None]), x_i)
                 for p_i, x_i in zip(self.P, x.tolist())]
        modes = [(tof.mode, math.isfinite(tof.value)) for tof in alone]
        assert modes == [(f1.MODE_QUADRATURE, True)] * 2 + [
            (f1.MODE_ZERO_BLOCKED, False)] * 2 + [
            (f1.MODE_QUADRATURE, False)] * 2 + [(f1.MODE_QUADRATURE, True)]
        for order in (list(range(7)), [6, 4, 2, 0, 5, 3, 1]):
            got = f1.forward_time_batch(field.fibres(self.P[order]), x[order])
            assert tof_bits(got) == tof_bits([alone[i] for i in order])

    def test_row_refused_alone_is_refused_in_the_batch(self, epigraph_box):
        # row 2 starts outside the open domain (-1, 1)
        _, field, _ = epigraph_box
        x = self.starts(field)
        x[2] = 1.5
        with pytest.raises(InputError, match="outside open domain"):
            f1.forward_time(field.fibres(self.P[2:3]), 1.5)
        with pytest.raises(InputError, match="outside open domain"):
            f1.forward_time_batch(field.fibres(self.P), x)

    def test_shapes_are_checked(self, epigraph_box):
        _, field, _ = epigraph_box
        fibres = field.fibres(np.zeros((3, 2)))
        for x in (np.zeros(2), np.zeros((3, 1)), 0.5):
            with pytest.raises(InputError, match="need 3 starts"):
                f1.forward_time_batch(fibres, x)
        assert f1.forward_time_batch(field.fibres(np.zeros((0, 2))), []) == []


class TestOneFibreType:
    """A batch of fibres is one ``Fibres``: its ramp parameters are checked
    once, and every start speed comes from one velocity call."""

    def test_epigraph_fibres_check_their_parameters_once(self, epigraph_box,
                                                          monkeypatch):
        _, field, _ = epigraph_box
        calls = []
        real = sk.check_ramp_params
        monkeypatch.setattr(sk, "check_ramp_params",
                            lambda *abc: calls.append(abc) or real(*abc))
        field.fibres(TestForwardTimeBatch.P)
        assert len(calls) == 1

    @pytest.mark.parametrize("batch", ["flow_map_batch", "forward_time_batch"])
    def test_start_speeds_are_one_velocity_call(self, epigraph_box, batch):
        _, field, _ = epigraph_box
        P = TestForwardTimeBatch.P
        x = TestForwardTimeBatch().starts(field)
        fibres = field.fibres(P)
        shapes = []

        def velocity(rows, nodes):
            shapes.append(nodes.shape)
            return fibres.velocity(rows, nodes)
        args = (-0.5, x) if batch == "flow_map_batch" else (x,)
        getattr(f1, batch)(dataclasses.replace(fibres, velocity=velocity), *args)
        assert [shape for shape in shapes if shape[1] != 15] == [(len(P), 1)]
