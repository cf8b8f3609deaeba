"""Smooth building blocks: frozen oracle values and derivative contracts.

Frozen constants were computed once with mpmath at 20+ digits (the slow
independent oracle) and are re-derived here when mpmath is available.
"""

import math

import numpy as np
import pytest

from excisionlab import flow1d as f1, scalar_kit as sk
from excisionlab.errors import InputError
from fields1d import affine_field, bridge_velocity_field, speed

mpmath = pytest.importorskip("mpmath")

# mpmath.quad of exp(-2/(1-t^2)) over (-1,1), 30 digits
BRIDGE_NORM_REF = 0.13308612084499427156
# bridge profile at (lo, hi, delay, x) = (0.2, 0.5, 0.1, 0.35)
BRIDGE_MID_REF = 0.59597122209077041455


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSmoothsteps:
    def test_cubic_endpoints(self):
        assert sk.cubic_smoothstep(0.0) == 0.0
        assert sk.cubic_smoothstep(1.0) == 1.0
        assert sk.cubic_smoothstep(0.5) == 0.5

    def test_cubic_flat_derivative(self):
        assert sk.cubic_smoothstep_deriv(0.0) == 0.0
        assert sk.cubic_smoothstep_deriv(1.0) == 0.0

    def test_exp_step_range(self):
        ts = np.linspace(-0.5, 1.5, 201)
        vals = sk.smooth_step(ts)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)
        assert sk.smooth_step(-1e-12) == 0.0
        assert sk.smooth_step(1.0) == 1.0


def rising_cutoff(a, x):
    """The ramp's rising cutoff: the ramp velocity at ``b = c = 0``."""
    return sk.ramp_velocity(a, 0.0, 0.0, x)


class TestRisingCutoff:
    def test_branch_values(self):
        # three-branch formula at a = 0
        assert rising_cutoff(0.0, -0.6) == 0.0
        assert rising_cutoff(0.0, 0.3) == 1.0
        # midpoint of the ramp: both exponential terms coincide
        assert rising_cutoff(0.0, -0.25) == pytest.approx(0.5, abs=1e-15)

    def test_monotone(self):
        xs = np.linspace(-0.99, 0.99, 500)
        for a in (-0.7, 0.0, 0.55):
            vals = rising_cutoff(a, xs)
            assert np.all(np.diff(vals) >= 0.0)

    def test_domain_validation(self):
        with pytest.raises(InputError):
            sk.ramp_velocity_field(1.5, 0.0, 0.0)
        with pytest.raises(InputError):
            f1.forward_time(sk.ramp_velocity_field(0.0, 0.0, 0.0), 1.0)

    def test_one_fibre_per_parameter_row(self):
        # b = 1 vanishes on the whole fibre, any other b below (a-1)/2
        fibres = sk.ramp_velocity_field([0.2, -0.4, 0.1], [0.5, 1.0, 0.0], 0.3)
        assert fibres.domain.tolist() == [[-1.0, 1.0]] * 3
        assert fibres.zero.tolist() == [[-1.0, -0.4], [-1.0, 1.0], [-1.0, -0.45]]
        nodes = np.tile(np.linspace(-0.95, 0.95, 15), (3, 1))
        want = np.stack([sk.ramp_velocity(a, b, 0.3, nodes[0]) for a, b in
                         ((0.2, 0.5), (-0.4, 1.0), (0.1, 0.0))])
        assert fibres.velocity(np.arange(3), nodes).tobytes() == want.tobytes()
        with pytest.raises(InputError, match="b must lie"):
            sk.ramp_velocity_field([0.2, 0.1], [0.5, 1.5], 0.0)

    def test_take_reorders_every_column(self):
        fibres = sk.ramp_velocity_field([0.2, -0.4, 0.1], [0.5, 1.0, 0.0], 0.0)
        got = fibres.take([2, 0, 2])
        assert got.domain.tolist() == fibres.domain[[2, 0, 2]].tolist()
        assert got.zero.tolist() == fibres.zero[[2, 0, 2]].tolist()
        nodes = np.tile(np.linspace(-0.95, 0.95, 15), (2, 1))
        assert (got.velocity(np.array([1, 0]), nodes).tobytes()
                == fibres.velocity(np.array([0, 2]), nodes).tobytes())

    def test_flat_composition_with_cubic(self):
        # derivative of rho(chi) vanishes wherever chi = 0
        xs = np.linspace(-0.99, -0.51, 200)   # chi_0 = 0 here
        zero = np.zeros_like(xs)
        chi, _, _, _, dchi = sk.ramp_velocity_jet(zero, zero, zero, xs)
        d_rho_chi = sk.cubic_smoothstep_deriv(chi) * dchi
        assert np.all(chi == 0.0)
        assert np.max(np.abs(d_rho_chi)) <= 1e-10


NAN = float("nan")


class TestDomainEdges:
    """Every domain guard fails closed on NaN: the comparisons are written
    as ``not (lo < x < hi)``, which NaN never passes."""

    def test_open_interval_refuses_nan(self):
        with pytest.raises(InputError, match="a must lie"):
            sk.ramp_velocity_field(NAN, 0.0, 0.0)
        with pytest.raises(InputError, match="outside open domain"):
            f1.forward_time_batch(sk.ramp_velocity_field(0.0, 0.0, [0.0, 0.0]),
                                  np.array([0.1, NAN]))

    def test_closed_interval_refuses_nan(self):
        with pytest.raises(InputError, match="b must lie"):
            sk.ramp_velocity_field(0.0, NAN, 0.0)
        with pytest.raises(InputError, match="c must lie"):
            sk.ramp_velocity_field(0.0, 0.0, NAN)

    def test_field_domain_refuses_nan(self):
        field = sk.ramp_velocity_field(0.2, 0.5, 0.0)
        with pytest.raises(InputError, match="outside open domain"):
            f1.forward_time(field, NAN)
        with pytest.raises(InputError, match="outside open domain"):
            f1.forward_time_batch(field.take([0, 0]), np.array([0.5, NAN]))

    @pytest.mark.parametrize("a, b, c", [
        (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (NAN, 0.0, 0.0),
        (0.0, -1.5, 0.0), (0.0, 1.5, 0.0), (0.0, NAN, 0.0),
        (0.0, 0.0, -0.1), (0.0, 0.0, 1.5), (0.0, 0.0, NAN),
    ])
    def test_ramp_field_and_closed_form_refuse_alike(self, a, b, c):
        with pytest.raises(InputError) as by_field:
            sk.ramp_velocity_field(a, b, c)
        with pytest.raises(InputError) as by_time:
            f1.ramp_time_closed_form(a, b, c, 0.5)
        assert str(by_field.value) == str(by_time.value)

    @pytest.mark.parametrize("intervals", [
        ((NAN, 0.5),), ((0.0, NAN),), ((0.0, 0.2), (NAN, NAN)),
    ])
    def test_axis_endpoints_refuse_nan(self, intervals):
        with pytest.raises(InputError, match="must not be NaN"):
            sk.AxisSet(intervals)

    def test_sharpness_refuses_nan(self):
        spec = sk.ClosedSetSpec(dim=1, pieces=((sk.axis_point(0.0),),))
        with pytest.raises(InputError, match="sharpness"):
            sk.DefiningFunction(spec, sharpness=NAN)


class TestBatchContract:
    """The elementwise evaluators return arrays, 0-d ones for 0-d input,
    and the point evaluators take ``(m, dim)`` batches."""

    ELEMENTWISE = [
        ("cubic_smoothstep", (0.5,)),
        ("cubic_smoothstep_deriv", (0.5,)),
        ("smooth_step", (0.5,)),
        ("ramp_velocity", (0.0, 0.5, 1.0, 0.0)),
        ("bridge_velocity", (0.2, 0.5, 0.1, 0.35)),
        ("bridge_crossing_time", (0.2, 0.5, 0.1, 0.2, 0.5)),
        ("bump_mass", (0.5,)),
        ("ball_bump_from_sq", (0.5,)),
    ]

    @pytest.mark.parametrize("name, args", ELEMENTWISE, ids=lambda v: str(v))
    def test_elementwise_returns_arrays(self, name, args):
        fn = getattr(sk, name)
        zero_dim = fn(*args)
        assert isinstance(zero_dim, np.ndarray) and zero_dim.shape == ()
        batch = fn(*args[:-1], np.full(3, args[-1]))
        assert isinstance(batch, np.ndarray) and batch.shape == (3,)
        assert np.all(batch == zero_dim)

    def test_point_evaluators_take_batches(self):
        spec = sk.ClosedSetSpec(
            dim=2, pieces=((sk.axis_interval(-0.5, 0.5), sk.axis_point(0.0)),))
        pts = np.array([[0.0, 0.0], [0.0, 0.1], [0.7, 0.0]])
        assert spec.contains(pts).tolist() == [True, False, False]
        assert spec.boundary_distance(pts) == pytest.approx([0.0, 0.1, 0.0])
        c = sk.DefiningFunction(spec)
        val, grad = c.value_and_grad(pts)
        assert val.shape == (3,) and grad.shape == (3, 2)
        assert np.array_equal(c.value(pts), val)
        assert np.array_equal(c.grad(pts), grad)
        plateau = sk.smooth_box_plateau(pts, (-0.5, -0.05), (0.5, 0.05), 0.1)
        assert plateau.shape == (3,) and plateau[0] == 1.0


class TestRampVelocity:
    def test_plateau_value(self):
        assert sk.ramp_velocity(0.0, 0.0, 0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_zero_below_ramp(self):
        # x below (a-1)/2 = -0.3
        assert sk.ramp_velocity(0.4, 0.0, 1.0, -0.8) == 0.0

    def test_rational_factor(self):
        assert sk.ramp_velocity(0.0, 0.5, 1.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-0.9, 0.9, 200)
        b = rng.uniform(-1.0, 1.0, 200)
        c = rng.uniform(0.0, 1.0, 200)
        x = rng.uniform(-0.99, 0.99, 200)
        u = sk.ramp_velocity(a, b, c, x)
        # the profile is bounded by the plateau speed 1 - b (so by 1 for
        # nonnegative plateau heights, the case every shipped target uses)
        assert np.all(u >= -1e-15)
        assert np.all(u <= (1.0 - b) + 1e-15)
        nonneg = b >= 0.0
        assert np.all(u[nonneg] <= 1.0 + 1e-15)

    def test_zero_locus(self):
        # vanishes exactly where the cutoff or the plateau factor does
        xs = np.linspace(-0.99, 0.99, 400)
        u = sk.ramp_velocity(0.3, 0.6, 0.2, xs)
        chi = rising_cutoff(0.3, xs)
        assert np.array_equal(u == 0.0, chi == 0.0)
        assert np.all(sk.ramp_velocity(0.3, 1.0, 0.2, xs) == 0.0)

    def test_partials_match_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(-0.6, 0.6)
            b = rng.uniform(-0.8, 0.8)
            c = rng.uniform(0.05, 0.95)
            x = rng.uniform(-0.8, 0.8)
            _, da, db, dc, dx = sk.ramp_velocity_jet(
                *(np.asarray(v) for v in (a, b, c, x)))
            ref = [
                central_diff(lambda t: sk.ramp_velocity(t, b, c, x), a),
                central_diff(lambda t: sk.ramp_velocity(a, t, c, x), b),
                central_diff(lambda t: sk.ramp_velocity(a, b, t, x), c),
                central_diff(lambda t: sk.ramp_velocity(a, b, c, t), x),
            ]
            for got, want in zip((da, db, dc, dx), ref):
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestBridgeVelocity:
    def test_normalization_constant(self):
        mpmath.mp.dps = 25
        ref = float(mpmath.quad(lambda t: mpmath.e ** (-2 / (1 - t ** 2)), [-1, 0, 1]))
        assert sk.BRIDGE_NORM == pytest.approx(ref, abs=5e-15)
        assert sk.BRIDGE_NORM == pytest.approx(BRIDGE_NORM_REF, abs=5e-15)

    def test_unit_outside_band(self):
        assert sk.bridge_velocity(0.2, 0.5, 0.1, 0.7) == 1.0
        assert sk.bridge_velocity(0.2, 0.5, 0.1, 0.1) == 1.0

    def test_frozen_interior_value(self):
        got = sk.bridge_velocity(0.2, 0.5, 0.1, 0.35)
        assert got == pytest.approx(BRIDGE_MID_REF, abs=2e-14)
        assert 0.0 < got < 1.0

    def test_crossing_time_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lo = rng.uniform(0.05, 0.6)
            hi = rng.uniform(lo + 0.05, 0.95)
            delay = rng.uniform(0.01, 0.5)
            t = sk.bridge_crossing_time(lo, hi, delay, lo, hi)
            assert t == pytest.approx(hi - lo + delay, abs=1e-12)


def bump_rule_everywhere(t):
    """The 160-node Gauss-Legendre bump mass run on every argument, clipped
    to [-1, 1]: the reference the exact ends of ``bump_mass`` must match."""
    nodes, weights = np.polynomial.legendre.leggauss(160)
    half = 0.5 * (np.clip(np.asarray(t, dtype=float), -1.0, 1.0) + 1.0)
    pts = -1.0 + np.multiply.outer(half, nodes + 1.0)
    q = 1.0 - pts * pts
    vals = np.zeros_like(pts)
    vals[q > sk.EXP_CLAMP] = np.exp(-2.0 / q[q > sk.EXP_CLAMP])
    return np.asarray(half * (vals * weights).sum(axis=-1))


def ball_bump_masked(q):
    """The radial bump formed on the rows below the ``1 - 1e-14`` cap only."""
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape)
    m = q < 1.0 - 1e-14
    out[m] = np.exp(-q[m] / (1.0 - q[m]))
    return out


def ulps_around(v, k=4):
    """``v`` and the ``k`` floats on either side of it."""
    below, above = [v], [v]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


class TestExactFastPaths:
    """The ends of ``bump_mass`` and the unmasked ball bump are bitwise the
    formulas they replace."""

    EDGES = [-1.0, 1.0, -1.5, 1.5, -np.inf, np.inf, np.nan, -0.0, 0.0,
             *ulps_around(-1.0), *ulps_around(1.0)]

    def test_bridge_norm_is_the_rule_at_one(self):
        assert sk.BRIDGE_NORM.hex() == "0x1.108f74c4a5618p-3"
        assert float(bump_rule_everywhere(1.0)).hex() == sk.BRIDGE_NORM.hex()
        ends = sk.bump_mass(np.array([-1.0, -2.0, -np.inf, 1.0, 2.0, np.inf]))
        assert ends.tolist() == [0.0] * 3 + [sk.BRIDGE_NORM] * 3
        assert not np.any(np.signbit(ends))

    def test_bump_mass_equals_the_rule_everywhere(self):
        rng = np.random.default_rng(11)
        t = np.concatenate([self.EDGES, rng.uniform(-1.0, 1.0, 3000),
                            rng.uniform(-3.0, 3.0, 3000)])
        assert sk.bump_mass(t).tobytes() == bump_rule_everywhere(t).tobytes()
        grid = t[:6000].reshape(60, 100)
        got = sk.bump_mass(grid)
        assert got.shape == grid.shape
        assert got.tobytes() == bump_rule_everywhere(grid).tobytes()
        for v in self.EDGES + [0.3, -0.7]:
            got = sk.bump_mass(v)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got.tobytes() == bump_rule_everywhere(v).tobytes()
        assert np.isnan(sk.bump_mass(np.nan))

    def test_ball_bump_equals_the_masked_formula(self):
        rng = np.random.default_rng(12)
        q = np.concatenate([
            [0.0, -0.0, 1e-300, 0.5, 2.0, np.inf, np.nan],
            ulps_around(1.0 - 1e-14), ulps_around(1.0),
            rng.uniform(0.0, 2.0, 20000),
        ])
        assert sk.ball_bump_from_sq(q).tobytes() == ball_bump_masked(q).tobytes()
        got = sk.ball_bump_from_sq(q[:20].reshape(4, 5))
        assert got.shape == (4, 5)
        assert got.tobytes() == ball_bump_masked(q[:20].reshape(4, 5)).tobytes()
        assert sk.ball_bump_from_sq(np.nan) == 0.0
        assert sk.ball_bump_from_sq(1.0 - 1e-14) == 0.0


class TestScalarFieldDerivatives:
    """The x-derivative of the ramp fields (``ramp_velocity_jet``'s
    ``du/dx``, which the ambient gradients use) matches central differences
    of the field, and the 1D fields of the flow tests are finite."""

    RAMPS = [(0.2, 0.5, 0.0), (-0.4, 0.1, 0.3)]
    FIELDS = [sk.ramp_velocity_field(*abc) for abc in RAMPS] + [
        bridge_velocity_field(0.2, 0.5, 0.1),
        bridge_velocity_field(0.55, 0.8, 0.02),
        affine_field(0.25, -0.1, (-1.0, 1.0)),
    ]

    @pytest.mark.parametrize("abc", RAMPS,
                             ids=lambda abc: "ramp(a={},b={},c={})".format(*abc))
    def test_derivative_matches_fd(self, abc):
        # quasi-random interior samples, away from the interval ends where
        # the finite-difference step would leave the domain
        field = sk.ramp_velocity_field(*abc)
        lo, hi = field.domain[0]
        n = 1000
        golden = 0.6180339887498949
        ts = (0.05 + 0.9 * ((np.arange(1, n + 1) * golden) % 1.0))
        xs = lo + ts * (hi - lo)
        h = 1e-5
        fd = (speed(field, xs + h) - speed(field, xs - h)) / (2 * h)
        exact = sk.ramp_velocity_jet(*(np.full(n, v) for v in abc), xs)[4]
        rel = np.abs(fd - exact) / (1.0 + np.abs(exact))
        assert np.max(rel) <= 1e-6

    def test_finite_on_domain(self):
        for field in self.FIELDS:
            lo, hi = field.domain[0]
            xs = np.linspace(lo + 1e-6, hi - 1e-6, 300)
            assert np.all(np.isfinite(speed(field, xs)))


class TestDefiningFunction:
    def test_point_membership(self):
        spec = sk.ClosedSetSpec(dim=1, pieces=((sk.axis_point(0.0),),))
        c = sk.DefiningFunction(spec)
        vals = c.value(np.array([[0.0], [0.5]]))
        assert vals[0] == 0.0
        assert vals[1] > 0.0

    def test_cantor_midpoint_removed(self):
        spec = sk.ClosedSetSpec(dim=1, pieces=((sk.cantor_axis(0.0, 1.0, 3),),))
        c = sk.DefiningFunction(spec)
        pts = np.array([[0.5], [1.0 / 3.0]])
        vals = c.value(pts)
        # 1/2 sits in the middle-thirds gap removed at depth 1
        assert vals[0] > 0.0
        # brute-force interval membership agrees
        assert spec.contains(pts).tolist() == [False, True]
        assert vals[1] == 0.0

    def test_sign_agreement_on_grid(self, brush):
        C, _, vfield, _ = brush
        c = vfield.c_fn
        g1 = np.linspace(-0.3, 1.3, 100)
        g2 = np.linspace(-0.3, 1.3, 100)
        G = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
        # avoid sub-float-resolution shells where exp(-s/d) underflows
        dist_ok = C.boundary_distance(G) > 1e-4
        member = C.contains(G)
        vals = c.value(G)
        on = member & dist_ok
        off = ~member & dist_ok
        assert np.all(vals[on] == 0.0)
        assert np.all(vals[off] > 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_gradient_matches_fd(self):
        spec = sk.ClosedSetSpec(
            dim=2,
            pieces=((sk.axis_interval(-0.5, 0.5), sk.axis_interval(-0.25, 0.75)),),
        )
        c = sk.DefiningFunction(spec)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.2, 1.2, size=(300, 2))
        # stay clear of sub-resolution shells right at the box faces
        pts = pts[spec.boundary_distance(pts) > 5e-4]
        _, grad = c.value_and_grad(pts)
        h = 1e-6
        for i in range(2):
            zp = pts.copy(); zp[:, i] += h
            zm = pts.copy(); zm[:, i] -= h
            fd = (c.value(zp) - c.value(zm)) / (2 * h)
            rel = np.abs(fd - grad[:, i]) / (1.0 + np.abs(grad[:, i]))
            assert np.max(rel) <= 1e-5

    def test_clamp_continuity(self):
        # values at the underflow clamp threshold jump by strictly less
        # than any representable amount
        below = sk.smooth_step(sk.EXP_CLAMP)
        above = sk.smooth_step(sk.EXP_CLAMP * 1.0000001)
        assert below == 0.0
        assert above <= 1e-300


class TestDecayWitness:
    def test_values(self):
        assert sk.decay_witness(np.zeros(4)) == 1.0
        z = np.zeros(4); z[0] = 1.0
        assert sk.decay_witness(z) == pytest.approx(0.5)
        z = np.zeros(4); z[1] = 3.0
        assert sk.decay_witness(z) == pytest.approx(0.1)

    def test_superlevel_sets_bounded(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-50, 50, size=(1000, 4))
        vals = sk.decay_witness(z)
        c = 0.01
        inside = vals >= c
        # every point of the superlevel set lies in the predicted ball
        assert np.all(np.linalg.norm(z[inside], axis=1) <= math.sqrt(1 / c - 1) + 1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, size=(100, 4))
        g = sk.decay_witness_grad(pts)
        h = 1e-6
        for i in range(4):
            zp = pts.copy(); zp[:, i] += h
            zm = pts.copy(); zm[:, i] -= h
            fd = (sk.decay_witness(zp) - sk.decay_witness(zm)) / (2 * h)
            assert np.max(np.abs(fd - g[:, i])) <= 1e-8
