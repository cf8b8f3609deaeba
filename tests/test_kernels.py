"""One-pass kernels against the per-interval and per-derivative code they
replaced: each kernel must agree with its reference bitwise
(``np.array_equal``), so the reports built on them do not move.

The references below are the earlier implementations, kept verbatim: the
per-gap loop of ``_axis_profile`` and ``AxisSet.contains``, the separate
``_ratio`` / ``_ratio_partials`` evaluations, the ramp partials and
``EpigraphField`` derivatives assembled from them, ``ramp_velocity``
with its four inputs broadcast to one shape up front, and the ray field's
tube cutoff, value and gradient with two smooth-step calls and 2-D
assembly, and the extension's gradient with its cutoff chain formed on
every row.  Every field's vector field must equal both
``grad @ pairing_matrix(d).T`` and the pairing permutation of the gradient.
The ray kernels are compared as bit patterns, so signed zeros count too;
the extension's gradient is compared by value, and as bit patterns on the
rows where its cutoff chain is formed and through its vector field.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from excisionlab import ham_extension as hx, scalar_kit as sk, scenarios, trees
from excisionlab.ham_extension import R_OFF, R_ON
from excisionlab.scalar_kit import EXP_CLAMP, _LOG_TINY


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def contains_ref(axis, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=bool)
    for a, b in axis.intervals:
        out |= (t >= a) & (t <= b)
    return out


def axis_profile_ref(axis, t, d0):
    t = np.asarray(t, dtype=float)
    val = np.zeros(t.shape)
    der = np.zeros(t.shape)
    ivs = axis.intervals
    lo0 = ivs[0][0]
    him = ivs[-1][1]

    left = t < lo0
    if np.any(left):
        w = lo0 - t[left]
        val[left] = np.where(w > EXP_CLAMP, np.exp(-d0 / np.maximum(w, EXP_CLAMP)), 0.0)
        der[left] = -val[left] * d0 / np.maximum(w, EXP_CLAMP) ** 2

    right = t > him
    if np.any(right):
        w = t[right] - him
        val[right] = np.where(w > EXP_CLAMP, np.exp(-d0 / np.maximum(w, EXP_CLAMP)), 0.0)
        der[right] = val[right] * d0 / np.maximum(w, EXP_CLAMP) ** 2

    for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
        gap = a1 - b0
        if gap <= 0:
            continue
        m = (t > b0) & (t < a1)
        if not np.any(m):
            continue
        u = t[m] - b0
        v = a1 - t[m]
        expo = d0 * (4.0 / gap - 1.0 / np.maximum(u, EXP_CLAMP) - 1.0 / np.maximum(v, EXP_CLAMP))
        live = (u > EXP_CLAMP) & (v > EXP_CLAMP) & (expo > _LOG_TINY)
        pv = np.where(live, np.exp(np.maximum(expo, _LOG_TINY)), 0.0)
        pd = np.where(
            live,
            pv * d0 * (1.0 / np.maximum(u, EXP_CLAMP) ** 2 - 1.0 / np.maximum(v, EXP_CLAMP) ** 2),
            0.0,
        )
        val[m] = pv
        der[m] = pd
    return val, der


def ratio_ref(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    out = np.zeros(u.shape)
    out[v <= EXP_CLAMP] = 1.0
    mid = (u > EXP_CLAMP) & (v > EXP_CLAMP)
    if np.any(mid):
        n = np.exp(-1.0 / u[mid])
        d = np.exp(-1.0 / v[mid])
        out[mid] = n / (n + d)
    return out


def ratio_partials_ref(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    du = np.zeros(u.shape)
    dv = np.zeros(u.shape)
    mid = (u > EXP_CLAMP) & (v > EXP_CLAMP)
    if np.any(mid):
        um, vm = u[mid], v[mid]
        n = np.exp(-1.0 / um)
        d = np.exp(-1.0 / vm)
        np_ = n / (um * um)
        dp = d / (vm * vm)
        denom = (n + d) ** 2
        du[mid] = np_ * d / denom
        dv[mid] = -n * dp / denom
    return du, dv


def ramp_partials_ref(a, b, c, x):
    a, b, c, x = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, c, x))
    )
    one_m_x2 = 1.0 - x * x
    denom = one_m_x2 + c
    rational = one_m_x2 / denom
    r_x = -2.0 * x * c / (denom * denom)
    r_c = -one_m_x2 / (denom * denom)
    s = 0.5 * (a - 1.0)
    chi = ratio_ref(x - s, a - x)
    du, dv = ratio_partials_ref(x - s, a - x)
    chi_x = du - dv
    chi_a = -0.5 * du + dv
    one_m_b = 1.0 - b
    du_da = chi_a * one_m_b * rational
    du_db = -chi * rational
    du_dc = chi * one_m_b * r_c
    du_dx = chi_x * one_m_b * rational + chi * one_m_b * r_x
    return du_da, du_db, du_dc, du_dx


def ramp_velocity_ref(a, b, c, x):
    a, b, c, x = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, c, x))
    )
    one_m_x2 = 1.0 - x * x
    rational = one_m_x2 / (one_m_x2 + c)
    chi = sk._rising_jet(a, x, need_grad=False)[0]
    return np.asarray(chi * (1.0 - b) * rational)


def velocity_dx_ref(field, p, x):
    a, b, c = field.params(p)
    return ramp_partials_ref(a, b, c, x)[3]


def velocity_grad_p_ref(field, p, x):
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    xs = np.asarray(x, dtype=float)
    b = field.spec.lam(pts)
    a = 0.5 * (b - 1.0)
    c, c_grad = field.c_fn.value_and_grad(pts)
    b_grad = field.spec.lam.grad(pts)
    du_da, du_db, du_dc, _ = ramp_partials_ref(a, b, c, xs)
    return ((0.5 * du_da + du_db)[..., None] * b_grad
            + du_dc[..., None] * c_grad)


# ---------------------------------------------------------------------------
# sorted-interval lookup
# ---------------------------------------------------------------------------

def axis_sets():
    coord = st.floats(-2.0, 2.0)
    width = st.floats(1e-3, 3.0)
    return st.one_of(
        st.builds(lambda d: sk.cantor_axis(0.0, 1.0, d), st.integers(0, 7)),
        st.builds(lambda lo, w, d: sk.cantor_axis(lo, lo + w, d),
                  coord, width, st.integers(0, 7)),
        st.builds(lambda lo, w: sk.axis_interval(lo, lo + w), coord, width),
        st.builds(sk.axis_point, coord),
    )


@st.composite
def axis_and_points(draw):
    """An axis set and points on its endpoints and one ulp off them, inside
    its intervals, in its gaps, beyond both ends and off the real line."""
    axis = draw(axis_sets())
    lo = np.array([a for a, _ in axis.intervals])
    hi = np.array([b for _, b in axis.intervals])
    ends = np.concatenate([lo, hi])
    fracs = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))
    k = np.array(draw(st.lists(st.integers(0, lo.size - 1), min_size=fracs.size,
                               max_size=fracs.size)))
    inside = lo[k] + fracs * (hi[k] - lo[k])
    pts = [ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf), inside]
    if lo.size > 1:
        g = np.minimum(k, lo.size - 2)
        pts.append(hi[g] + fracs * (lo[g + 1] - hi[g]))
        pts.append(hi[:-1] + 0.5 * EXP_CLAMP)
        pts.append(lo[1:] - 0.5 * EXP_CLAMP)
    beyond = np.array(draw(st.lists(st.floats(1e-14, 10.0), min_size=1, max_size=4)))
    pts += [lo[0] - beyond, hi[-1] + beyond, np.array([np.nan, np.inf, -np.inf])]
    t = np.concatenate(pts)
    order = draw(st.permutations(range(t.size)))
    return axis, t[np.asarray(order)]


class TestSortedIntervalLookup:
    @given(case=axis_and_points())
    def test_contains_equals_interval_loop(self, case):
        axis, t = case
        got = axis.contains(t)
        assert got.dtype == bool
        assert np.array_equal(got, contains_ref(axis, t))

    @given(case=axis_and_points(),
           d0=st.one_of(st.sampled_from([0.002, 0.006]), st.floats(1e-4, 0.1)))
    def test_axis_profile_equals_gap_loop(self, case, d0):
        axis, t = case
        val, der = sk._axis_profile(axis, t, d0)
        want_val, want_der = axis_profile_ref(axis, t, d0)
        assert np.array_equal(val, want_val)
        assert np.array_equal(der, want_der)

    @pytest.mark.parametrize("depth", range(8))
    def test_cantor_depths_on_a_fine_grid(self, depth):
        axis = sk.cantor_axis(0.0, 1.0, depth)
        t = np.linspace(-0.25, 1.25, 20_001)
        assert np.array_equal(axis.contains(t), contains_ref(axis, t))
        for got, want in zip(sk._axis_profile(axis, t, 0.002),
                             axis_profile_ref(axis, t, 0.002)):
            assert np.array_equal(got, want)

    def test_scalar_and_empty_queries(self):
        axis = sk.cantor_axis(0.0, 1.0, 3)
        assert axis.contains(1.0 / 3.0) and not axis.contains(0.5)
        assert axis.contains(np.array([])).shape == (0,)
        val, der = sk._axis_profile(axis, np.array([]), 0.002)
        assert val.shape == der.shape == (0,)


# ---------------------------------------------------------------------------
# the ratio jet
# ---------------------------------------------------------------------------

_STEP_EDGES = np.array([
    0.0, -0.0, 1.0, EXP_CLAMP, -EXP_CLAMP, 1.0 - EXP_CLAMP, 1.0 + EXP_CLAMP,
    np.nextafter(EXP_CLAMP, 1.0), np.nextafter(EXP_CLAMP, 0.0), 0.5,
    np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), -3.0, 4.0, 1e-3, 1 - 1e-3,
])


def step_args():
    return st.lists(st.one_of(st.sampled_from(list(_STEP_EDGES)),
                              st.floats(-0.5, 1.5)),
                    min_size=1, max_size=32).map(np.array)


class TestRatioJet:
    @given(t=step_args())
    def test_smooth_step_jet(self, t):
        u, v = t, 1.0 - t
        val, mid, du, neg_dv = sk._ratio_terms(u, v, need_grad=True)
        want_du, want_dv = ratio_partials_ref(u, v)
        assert np.array_equal(val, ratio_ref(u, v))
        # the partials vanish off the mask and are formed on it only
        assert np.array_equal(mid, (u > EXP_CLAMP) & (v > EXP_CLAMP))
        assert not np.any(want_du[~mid]) and not np.any(want_dv[~mid])
        assert same_bits(du, want_du[mid])
        assert same_bits(-neg_dv, want_dv[mid])
        step, deriv = sk.smooth_step_jet(t)
        assert np.array_equal(step, ratio_ref(u, v))
        assert same_bits(deriv, want_du - want_dv)
        assert np.array_equal(sk.smooth_step(t), step)

    @given(t=step_args())
    def test_value_only_pass(self, t):
        val, _, du, neg_dv = sk._ratio_terms(t, 1.0 - t, need_grad=False)
        assert du is None and neg_dv is None
        assert np.array_equal(val, ratio_ref(t, 1.0 - t))
        step, deriv = sk.smooth_step_jet(t, need_grad=False)
        assert deriv is None and np.array_equal(step, val)

    @given(a=st.floats(-0.99, 0.99),
           x=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=16).map(np.array))
    def test_rising_cutoff(self, a, x):
        s = 0.5 * (a - 1.0)
        edges = np.array([s, a, s + EXP_CLAMP, a - EXP_CLAMP, 0.5 * (s + a)])
        x = np.concatenate([x, edges[(edges > -1.0) & (edges < 1.0)]])
        du, dv = ratio_partials_ref(x - s, a - x)
        chi, chi_x, chi_a = sk._rising_jet(a, x)
        assert np.array_equal(chi, ratio_ref(x - s, a - x))
        assert np.array_equal(sk.ramp_velocity(a, 0.0, 0.0, x), chi)
        assert np.array_equal(chi_x, du - dv)
        assert np.array_equal(chi_a, -0.5 * du + dv)

    def test_zero_dim_queries_return_arrays(self):
        for t in (0.0, 1.0, EXP_CLAMP, -EXP_CLAMP, 0.3):
            step = sk.smooth_step(t)
            deriv = sk.smooth_step_jet(np.asarray(t, dtype=float))[1]
            assert isinstance(step, np.ndarray) and step.shape == ()
            assert step == ratio_ref(t, 1.0 - t)
            du, dv = ratio_partials_ref(t, 1.0 - t)
            assert deriv == du - dv

    @given(a=st.floats(-0.9, 0.9), b=st.floats(-1.0, 1.0), c=st.floats(0.0, 1.0),
           x=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=16).map(np.array))
    def test_ramp_jet(self, a, b, c, x):
        a, b, c, x = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (a, b, c, x)))
        u, *partials = sk.ramp_velocity_jet(a, b, c, x)
        assert np.array_equal(u, sk.ramp_velocity(a, b, c, x))
        for got, want in zip(partials, ramp_partials_ref(a, b, c, x)):
            assert np.array_equal(got, want)

    @given(a=st.floats(-0.9, 0.9), b=st.floats(-1.0, 1.0), c=st.floats(0.0, 1.0),
           x=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=16).map(np.array))
    def test_ramp_velocity_scalar_params(self, a, b, c, x):
        got = sk.ramp_velocity(a, b, c, x)
        assert got.shape == x.shape
        assert np.array_equal(got, ramp_velocity_ref(a, b, c, x))

    @given(abc=st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-1.0, 1.0),
                                  st.floats(0.0, 1.0)),
                        min_size=1, max_size=16).map(np.array),
           x=st.floats(-0.999, 0.999))
    def test_ramp_velocity_batch_params(self, abc, x):
        a, b, c = abc.T
        got = sk.ramp_velocity(a, b, c, x)
        assert got.shape == a.shape
        assert np.array_equal(got, ramp_velocity_ref(a, b, c, x))

    def test_ramp_velocity_zero_dim(self):
        for a, b, c, x in ((0.2, 0.5, 0.0, 0.7), (0.2, 0.5, 0.3, -0.3),
                           (0.1, -0.4, 1.0, 0.05), (0.4, 0.0, 0.0, -0.9)):
            got = sk.ramp_velocity(a, b, c, x)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got == ramp_velocity_ref(a, b, c, x)


# ---------------------------------------------------------------------------
# the epigraph velocity jet
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def epigraph_fields(brush, epigraph_box):
    return {"brush": brush[2], "epigraph": epigraph_box[1]}


class TestEpigraphJet:
    @pytest.mark.parametrize("name", ["brush", "epigraph"])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_jet_equals_separate_derivatives(self, epigraph_fields, name, seed):
        field = epigraph_fields[name]
        rng = np.random.default_rng(seed)
        m = 64
        p = rng.uniform(-0.7, 1.2, size=(m, 2))
        # fibres over the set (exact zeros of c), next to it and on the
        # Cantor midlines of the brush
        p[: m // 4] = field.spec.C.sample(m // 4, rng)
        p[m // 4: m // 2, 1] = np.nextafter(p[m // 4: m // 2, 1], 2.0)
        x = rng.uniform(-0.95, 0.95, size=m)
        x[:8] = [-0.95, -0.6, -0.5, -0.4, 0.0, 0.2, 0.9, 0.95]
        v, v_x, v_p = field.jet(p, x)
        assert np.array_equal(v, field.velocity(p, x))
        assert np.array_equal(v_x, velocity_dx_ref(field, p, x))
        assert np.array_equal(v_p, velocity_grad_p_ref(field, p, x))

    def test_extension_makes_one_jet_call_per_grad(self, brush, monkeypatch):
        _, _, vfield, ham = brush
        z = np.random.default_rng(1).uniform(-0.5, 1.0, size=(32, 4))
        want = ham.grad(z)
        calls = []

        def counted(name):
            method = getattr(vfield, name)

            def wrapper(p, x):
                calls.append(name)
                return method(p, x)
            return wrapper

        for name in ("jet", "velocity"):
            monkeypatch.setattr(vfield, name, counted(name))
        assert np.array_equal(ham.grad(z), want)
        assert calls == ["jet"]
        calls.clear()
        ham.vector_field(z)
        assert calls == ["jet"]


# ---------------------------------------------------------------------------
# the ray field's cutoff, gradient and symplectic gradient
# ---------------------------------------------------------------------------

def tube_cutoff_ref(pts, eps, h_coef, h_power):
    x = pts[:, -2]
    y = pts[:, -1]
    p = pts[:, :-2]
    q = np.sum(p * p, axis=1) + y * y

    one_m_x = 1.0 - x
    inside = one_m_x > 0.0
    h = np.where(inside, h_coef * np.maximum(one_m_x, 1e-300) ** h_power, 1e-300)
    dh = np.where(inside, -h_power * h / np.maximum(one_m_x, 1e-300), 0.0)

    r = np.where(inside, q / h, np.inf)
    sx_arg = 2.0 * (x + eps) / eps
    sx, dsx = sk.smooth_step_jet(sx_arg)
    dsx = dsx * (2.0 / eps)
    sr_arg = (R_OFF - r) / (R_OFF - R_ON)
    sr, dsr = sk.smooth_step_jet(sr_arg)
    dsr = -dsr / (R_OFF - R_ON)

    inner = sx * sr
    chi = sk.cubic_smoothstep(inner)
    rho_p = sk.cubic_smoothstep_deriv(inner)

    dchi = np.zeros_like(pts)
    live = inside & (rho_p != 0.0) & ((dsx != 0.0) | (dsr != 0.0))
    if np.any(live):
        hl = h[live]
        coef_r = (rho_p * sx * dsr)[live]
        dchi[live, :-2] = coef_r[:, None] * 2.0 * p[live] / hl[:, None]
        dchi[live, -1] = coef_r * 2.0 * y[live] / hl
        dr_dx = -q[live] * dh[live] / (hl * hl)
        dchi[live, -2] = coef_r * dr_dx + (rho_p * dsx * sr)[live]
    return chi, dchi


def ray_pieces_ref(F, pts):
    x = pts[:, -2]
    y = pts[:, -1]
    p = pts[:, :-2]
    q = np.sum(p * p, axis=1)
    if F.n == 1:
        denom = np.ones_like(x)
        amp = np.ones_like(x)
    else:
        denom = q + 1.0 - x * x
        safe = np.where(np.abs(denom) > 1e-12, denom, 1e-12)
        amp = (1.0 - x * x) / safe
        denom = safe
    chi, dchi = tube_cutoff_ref(pts, F.eps, F.h_coef, F.h_power)
    return x, y, p, q, denom, amp, chi, dchi


def ray_value_ref(F, pts):
    _, y, _, _, _, amp, chi, _ = ray_pieces_ref(F, pts)
    return amp * chi * y


def ray_grad_ref(F, pts):
    x, y, p, q, denom, amp, chi, dchi = ray_pieces_ref(F, pts)
    damp = np.zeros_like(pts)
    damp[:, :-2] = -(1.0 - x * x)[:, None] * 2.0 * p / (denom * denom)[:, None]
    damp[:, -2] = -2.0 * x * q / (denom * denom)
    out = (chi * y)[:, None] * damp + (amp * y)[:, None] * dchi
    out[:, -1] += amp * chi
    return out


def pairing_permutation(g):
    """``Omega grad F`` as a permutation of the gradient, with signed zeros
    turned into ``+0.0`` as the pairing product's sums do."""
    out = np.empty_like(g)
    out[:, 0::2] = g[:, 1::2] + 0.0
    out[:, 1::2] = -g[:, 0::2] + 0.0
    return out


def same_bits(got, want):
    """Equal as float64 bit patterns, so signed zeros count."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


# (eps, h_coef) of the ray scenarios and of the retract tree's charts
_TUBES = [(0.5, 0.25), (0.4, 0.002066326530612246)]


@st.composite
def ray_batches(draw):
    """A ray field and a batch of 1 to 300 rows: ``x`` at the tube's edges
    ``-eps`` and ``-eps/2``, at 0, just below 1, at 1 and above 1 or
    anywhere in between; signed zeros in ``p`` and ``y``; and rows whose
    squared radius is ``R_ON * h`` or ``R_OFF * h``."""
    n = draw(st.sampled_from([1, 2, 3]))
    h_power = draw(st.sampled_from([1, 2]))
    eps, h_coef = draw(st.sampled_from(_TUBES))
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = hx.RayHamiltonian(n, eps=eps, h_coef=h_coef, h_power=h_power)
    edges = np.array([-eps, -eps / 2, 0.0, -0.0, np.nextafter(1.0, 0.0), 1.0,
                      1.0 + 1e-3, 1.3])
    x = np.where(rng.random(m) < 0.4, rng.choice(edges, size=m),
                 rng.uniform(-1.2, 1.4, size=m))
    # radii at the plateau edge, the support edge, or up to twice it
    h = h_coef * np.maximum(1.0 - x, 0.0) ** h_power
    ratio = rng.choice(np.array([R_ON, R_OFF, 0.0]), size=m)
    ratio = np.where(rng.random(m) < 0.5, ratio, rng.uniform(0.0, 2 * R_OFF, size=m))
    direction = rng.normal(size=(m, 2 * n - 1))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    transverse = direction * np.sqrt(ratio * h)[:, None]
    pts = np.empty((m, 2 * n))
    pts[:, :-2] = transverse[:, :-1]
    pts[:, -2] = x
    pts[:, -1] = transverse[:, -1]
    zero = rng.random((m, 2 * n)) < 0.15
    zero[:, -2] = False
    pts[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return F, pts


class TestRayKernel:
    @given(case=ray_batches())
    def test_cutoff_equals_reference(self, case):
        F, pts = case
        chi, (live, dp, dx, dy) = hx._tube_jet(pts, hx._base_sq(pts[:, :-2]),
                                               F.eps, F.h_coef, F.h_power)
        # the full gradient: zero off the live rows
        dchi = np.zeros_like(pts)
        if dp is not None:
            dchi[live, :-2] = dp
        dchi[live, -2] = dx
        dchi[live, -1] = dy
        want_chi, want_dchi = tube_cutoff_ref(pts, F.eps, F.h_coef, F.h_power)
        assert same_bits(chi, want_chi)
        assert same_bits(dchi, want_dchi)

    @given(case=ray_batches())
    def test_value_and_grad_equal_reference(self, case):
        F, pts = case
        assert same_bits(F.value(pts), ray_value_ref(F, pts))
        assert same_bits(F.grad(pts), ray_grad_ref(F, pts))

    @given(case=ray_batches())
    def test_vector_field_equals_pairing_product(self, case):
        F, pts = case
        g = ray_grad_ref(F, pts)
        got = F.vector_field(pts)
        assert same_bits(got, g @ hx.pairing_matrix(F.dim).T)
        assert same_bits(got, pairing_permutation(g))

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_smooth_step_call_per_evaluation(self, n, monkeypatch):
        F = hx.RayHamiltonian(n)
        z = np.random.default_rng(3).uniform(-0.6, 0.9, size=(40, 2 * n))
        z[:, :-2] *= 0.3
        z[:, -1] *= 0.3
        want = F.grad(z), F.value(z)
        calls = []

        def counted(t, need_grad=True):
            calls.append(need_grad)
            return sk.smooth_step_jet(t, need_grad)

        monkeypatch.setattr(hx, "smooth_step_jet", counted)
        assert same_bits(F.grad(z), want[0])
        assert calls == [True]
        calls.clear()
        assert same_bits(F.value(z), want[1])
        assert calls == [False]


@pytest.fixture(scope="module")
def symplectic_fields(brush):
    """An extension, the ray field in its tube scaled by 0.5 and the
    retract's chart fields, each with a batch that reaches where its
    gradient is nonzero."""
    rng = np.random.default_rng(11)
    out = []
    brush_pts = rng.uniform(-0.5, 1.0, size=(64, 4))
    brush_pts[:16, -1] = 0.0
    out.append((brush[3], brush_pts))
    base = hx.RayHamiltonian(2)
    scaled = hx.RayHamiltonian(2, eps=base.eps * 0.5, h_coef=base.h_coef * 0.5)
    ray_pts = rng.uniform(-0.4, 0.9, size=(64, 4))
    ray_pts[:, [0, 1, 3]] *= 0.2
    out.append((scaled, ray_pts))
    staged = trees.excise_tree(scenarios._double_y_spec())
    for chart in staged.charts:
        f = trees.WorldBranchField([chart])
        model = np.column_stack([rng.uniform(-0.5, 1.1, size=64),
                                 rng.uniform(-0.8, 0.8, size=64)])
        model[:, 1] *= np.sqrt(chart.h_coef) * np.abs(1.0 - model[:, 0])
        out.append((f, chart.from_model(model)))
    return out


class TestSharedVectorField:
    def test_equals_pairing_product_and_permutation(self, symplectic_fields):
        # one-row batches go through BLAS gemv, larger ones through gemm
        for F, pts in symplectic_fields:
            assert np.any(F.grad(pts) != 0.0), type(F).__name__
            for batch in [pts] + [row[None, :] for row in pts[:8]]:
                g = F.grad(batch)
                got = F.vector_field(batch)
                assert same_bits(got, g @ hx.pairing_matrix(F.dim).T)
                assert same_bits(got, pairing_permutation(g))


# ---------------------------------------------------------------------------
# the extension's gradient, its cutoff chain formed on live rows only
# ---------------------------------------------------------------------------

def extended_grad_ref(F, pts):
    """``ExtendedHamiltonian.grad`` with the cutoff gradient chain formed on
    every row."""
    p, x, y = pts[:, :-2], pts[:, -2], pts[:, -1]
    v, v_x, v_p = F.field.jet(p, x)
    ham = y * v
    wit = sk.decay_witness(pts)
    ratio = np.abs(ham) / wit
    theta, theta_t = sk.smooth_step_jet(v / hx.V_FLOOR)
    s_arg = 2.0 * (1.0 - ratio)
    s_h, s_h_t = sk.smooth_step_jet(s_arg)
    inner = theta * s_h
    chi = sk.cubic_smoothstep(inner)

    dv = np.zeros_like(pts)
    dv[:, :-2] = v_p
    dv[:, -2] = v_x

    dham = y[:, None] * dv
    dham[:, -1] += v

    dwit = sk.decay_witness_grad(pts)
    sgn = np.sign(ham)
    dratio = (sgn[:, None] * dham * wit[:, None]
              - np.abs(ham)[:, None] * dwit) / (wit * wit)[:, None]

    dtheta = (theta_t / hx.V_FLOOR)[:, None] * dv
    ds_h = (-2.0 * s_h_t)[:, None] * dratio
    dinner = dtheta * s_h[:, None] + theta[:, None] * ds_h
    dchi = sk.cubic_smoothstep_deriv(inner)[:, None] * dinner
    return chi[:, None] * dham + ham[:, None] * dchi, inner


@pytest.fixture(scope="module")
def extension_rows(brush):
    """Rows of the Cantor-brush extension: the scenario's grid and
    symplecticity samples (moving and frozen), rows whose speed lies in the
    low-speed gate's band ``0.01 V_FLOOR < v < V_FLOOR``, rows in the energy band
    ``1/2 < |y v| / witness < 1`` and uniform random rows."""
    C, _, vfield, _ = brush
    rng = np.random.default_rng(23)
    grid = scenarios._brush_grid(C, 24, 1e-3)
    samples = scenarios._brush_sympl_samples(C, vfield, 40, rng)
    cand = rng.uniform(-0.4, 1.2, size=(20000, 4))
    cand[:, 2] = rng.uniform(-0.99, 0.99, size=20000)
    v = vfield.velocity(cand[:, :2], cand[:, 2])
    slow = cand[(v > 0.01 * hx.V_FLOOR) & (v < hx.V_FLOOR)][:200]
    slow[:, 3] *= 0.05
    band = cand[v > 10 * hx.V_FLOOR][:400].copy()
    wit = 1.0 / (1.0 + np.sum(band[:, :3] ** 2, axis=1))
    band_v = vfield.velocity(band[:, :2], band[:, 2])
    band[:, 3] = rng.uniform(0.4, 1.1, size=band.shape[0]) * wit / band_v
    random = rng.uniform(-1.5, 1.5, size=(400, 4))
    return {"grid": grid, "samples": samples, "slow": slow, "band": band,
            "random": random}


class TestExtensionKernel:
    def test_grad_equals_full_formula(self, brush, extension_rows):
        """Equal by value everywhere and bitwise on the live rows; off them
        only the sign of a zero entry may differ, and the vector field,
        whose pairing product turns every zero into ``+0.0``, is bitwise
        that of the full formula."""
        F = brush[3]
        live_rows = 0
        for name, pts in extension_rows.items():
            got = F.grad(pts)
            want, inner = extended_grad_ref(F, pts)
            assert np.array_equal(got, want), name
            live = sk.cubic_smoothstep_deriv(inner) != 0.0
            assert same_bits(got[live], want[live]), name
            assert same_bits(F.vector_field(pts),
                             want @ hx.pairing_matrix(F.dim).T), name
            live_rows += int(live.sum())
            if name in ("slow", "band"):
                assert live.sum() >= 100, name
        assert live_rows > 0
