"""The DP5 integrator loop: recording, batching, time reversal and the
first-same-as-last (FSAL) step."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excisionlab import scenarios, symflow
from excisionlab.errors import StencilError
from excisionlab.ham_extension import build_ray_hamiltonian


@pytest.fixture(scope="module")
def ray():
    return build_ray_hamiltonian(2)


@pytest.fixture(scope="module")
def starts():
    """Plateau points that survive, axis points that escape, and one point
    that starts outside the chart."""
    z = np.zeros((5, 4))
    z[:, 2] = (-0.3, 0.25, -0.2, 0.6, 0.5)
    z[2, 3] = 0.1
    z[4, 2] = 1.0
    return z


class TestRecording:
    def test_last_row_is_endpoint(self, ray, starts):
        outs = symflow.integrate_batch(ray, starts, 1.05, record=True)
        statuses = {out.status for out in outs}
        assert statuses == {symflow.COMPLETED, symflow.ESCAPED}
        for z0, out in zip(starts, outs):
            traj = out.trajectory
            assert traj.shape == (out.step_count + 1, 5)
            assert np.array_equal(traj[0], np.concatenate([[0.0], z0]))
            assert traj[-1, 0] == out.elapsed
            assert np.array_equal(traj[-1, 1:], out.endpoint)
            assert np.all(np.diff(traj[:, 0]) > 0.0)

    def test_backward_rows_run_backward(self, ray, starts):
        out = symflow.integrate_batch(ray, starts[:1], -1.0, record=True)[0]
        assert out.status == symflow.COMPLETED
        assert out.elapsed == -1.0
        assert out.trajectory[-1, 0] == out.elapsed
        assert np.all(np.diff(out.trajectory[:, 0]) < 0.0)

    def test_unrecorded_run_has_no_rows(self, ray, starts):
        outs = symflow.integrate_batch(ray, starts, 1.05)
        assert all(out.trajectory is None for out in outs)

    def test_batch_equals_singletons(self, ray, starts):
        batch = symflow.integrate_batch(ray, starts, 1.05, record=True)
        for z0, out in zip(starts, batch):
            alone = symflow.integrate_batch(ray, z0[None, :], 1.05, record=True)[0]
            assert alone.status == out.status
            assert alone.elapsed == out.elapsed
            assert alone.t_esc_lower == out.t_esc_lower
            assert alone.t_esc_upper == out.t_esc_upper
            assert np.array_equal(alone.trajectory, out.trajectory)

    def test_integrate_is_a_one_point_batch(self, ray, starts):
        for t in (1.05, -0.5):
            single = symflow.integrate(ray, starts[0], t)
            batch = symflow.integrate_batch(ray, starts[:1], t)[0]
            assert single.elapsed == batch.elapsed == t
            assert np.array_equal(single.endpoint, batch.endpoint)
        zero = symflow.integrate(ray, starts[0], 0.0)
        assert zero.completed and zero.step_count == 0


class TestTimeReversal:
    def test_backward_undoes_forward(self, ray):
        rng = np.random.default_rng(3)
        pts = scenarios._ray_sympl_samples(ray, 16, rng)
        fw = symflow.integrate_batch(ray, pts, 1.0)
        assert all(out.completed for out in fw)
        ends = np.stack([out.endpoint for out in fw])
        bk = symflow.integrate_batch(ray, ends, -1.0)
        assert all(out.completed and out.elapsed == -1.0 for out in bk)
        back = np.stack([out.endpoint for out in bk])
        assert np.abs(back - pts).max() <= 1e-7

    def test_backward_flow_never_exits_the_chart(self, ray, starts):
        # the chart monitor is off backward: points escaping forward
        # complete backward
        outs = symflow.integrate_batch(ray, starts[:4], -1.0)
        assert all(out.completed for out in outs)


class TestNumericalJacobian:
    def test_linear_map(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))
        pts = rng.normal(size=(4, 3))
        jacs = symflow.numerical_jacobian(
            lambda z: (z @ a.T, np.ones(z.shape[0], dtype=bool)), pts, 1e-5)
        assert jacs.shape == (4, 3, 3)
        assert jacs.flags.c_contiguous
        assert np.abs(jacs - a).max() <= 1e-9

    def test_equals_column_loop(self):
        # row-wise map, so the loop below does the same arithmetic
        def f(z):
            return np.sin(z) * z[:, ::-1], np.ones(z.shape[0], dtype=bool)

        pts = np.random.default_rng(6).normal(size=(5, 4))
        h = 1e-5
        jacs = symflow.numerical_jacobian(f, pts, h)
        for z, jac in zip(pts, jacs):
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                col = (f(zp[None, :])[0][0] - f(zm[None, :])[0][0]) / (2.0 * h)
                assert np.array_equal(jac[:, i], col)

    @pytest.mark.parametrize("k,i", [(0, 0), (2, 1), (3, 2)])
    def test_escaped_row_names_sample_and_axis(self, k, i):
        pts = np.zeros((4, 3))
        d = pts.shape[1]

        def escapes_once(z):
            ok = np.ones(z.shape[0], dtype=bool)
            ok[k * 2 * d + 2 * i + 1] = False
            return z, ok

        with pytest.raises(StencilError,
                           match=f"stencil escaped at sample {k}, axis {i}$"):
            symflow.numerical_jacobian(escapes_once, pts, 1e-5)


def dp_step_seven_stages(field, z, dt, k1):
    """Reference Dormand-Prince step that ignores the carried first stage
    and evaluates all seven stages, as the stepper did before FSAL."""
    ks = []
    for i in range(7):
        zi = z.copy()
        for j, aij in enumerate(symflow._DP_A[i]):
            if aij != 0.0:
                zi = zi + (dt * aij)[:, None] * ks[j]
        ks.append(np.atleast_2d(field.vector_field(zi)))
    z5 = z.copy()
    err = np.zeros_like(z)
    for i in range(7):
        if symflow._DP_B5[i] != 0.0:
            z5 = z5 + (dt * symflow._DP_B5[i])[:, None] * ks[i]
        if symflow._DP_ERR[i] != 0.0:
            err = err + (dt * symflow._DP_ERR[i])[:, None] * ks[i]
    return z5, err, ks[6]


class Counting:
    """A field wrapper that counts ``vector_field`` row batches."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.batches = 0

    def vector_field(self, z):
        self.batches += 1
        return self.base.vector_field(z)

    def escape_value(self, z):
        return self.base.escape_value(z)


@pytest.fixture(scope="module")
def ray_starts(ray):
    """Survivors off the axis, axis points that escape, and the mixed
    starts above."""
    rng = np.random.default_rng(11)
    axis = np.zeros((6, 4))
    axis[:, 2] = np.linspace(-0.1, 0.9, 6)
    return np.concatenate([scenarios._ray_sympl_samples(ray, 6, rng), axis])


@pytest.fixture(scope="module")
def epigraph_starts():
    """Fibres over the box whose exit speeds ``1 - lam(p)`` differ, so the
    rows of an escape bracket carry different first stages."""
    z = np.zeros((6, 4))
    z[:, 0] = np.linspace(-0.4, 0.4, 6)
    z[:, 2] = np.linspace(0.3, 0.55, 6)
    z[1, 3] = 0.2
    return z


@pytest.fixture(scope="module")
def brush_starts(brush):
    C, _, vfield, _ = brush
    grid = scenarios._brush_grid(C, 8, 1e-3)
    sympl = scenarios._brush_sympl_samples(C, vfield, 8,
                                           np.random.default_rng(5))
    return np.concatenate([grid[::3], sympl])


def same_outcomes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.status == b.status
        assert a.step_count == b.step_count
        assert a.elapsed == b.elapsed
        assert a.t_esc_lower == b.t_esc_lower
        assert a.t_esc_upper == b.t_esc_upper
        assert np.array_equal(a.endpoint, b.endpoint)
        assert np.array_equal(a.trajectory, b.trajectory)


class TestFsalStep:
    def test_six_rhs_batches_per_attempt(self, ray, ray_starts, monkeypatch):
        steps = []
        in_bracket = []

        def step_spy(field, z, dt, k1):
            steps.append(bool(in_bracket))
            return step(field, z, dt, k1)

        def bracket_spy(*args):
            in_bracket.append(True)
            try:
                return bracket(*args)
            finally:
                in_bracket.clear()

        step, bracket = symflow._dp_step, symflow._bracket_escapes_batch
        monkeypatch.setattr(symflow, "_dp_step", step_spy)
        monkeypatch.setattr(symflow, "_bracket_escapes_batch", bracket_spy)
        survivors = ray_starts[:6]
        field = Counting(ray)
        outs = symflow.integrate_batch(field, survivors, 1.0)
        assert all(out.completed for out in outs)
        assert field.batches == 1 + 6 * len(steps)

        # escapes add one first stage for all bisection steps of the
        # bracket; a loose tolerance leaves final steps long enough to bisect
        steps.clear()
        field = Counting(ray)
        outs = symflow.integrate_batch(field, ray_starts, 1.05, tol=1e-6)
        assert {out.status for out in outs} == {symflow.COMPLETED, symflow.ESCAPED}
        assert sum(steps) > 2
        assert field.batches == 2 + 6 * len(steps)

    def test_no_rhs_call_when_every_start_has_escaped(self, ray):
        field = Counting(ray)
        z = np.zeros((2, 4))
        z[:, 2] = 1.0
        outs = symflow.integrate_batch(field, z, 1.0)
        assert all(out.status == symflow.ESCAPED for out in outs)
        assert field.batches == 0

    @pytest.mark.parametrize("tol", [symflow.DEFAULT_TOL, 1e-6])
    @pytest.mark.parametrize("field_name,starts_name", [
        ("ray", "ray_starts"), ("brush", "brush_starts"),
        ("epigraph_box", "epigraph_starts"),
    ])
    def test_equals_seven_stage_stepper(self, request, field_name, starts_name,
                                        tol, monkeypatch):
        field = request.getfixturevalue(field_name)
        if isinstance(field, tuple):
            field = field[-1]   # the Hamiltonian extension of a null field
        starts = request.getfixturevalue(starts_name)
        for t_final in (1.05, -1.0):
            fsal = symflow.integrate_batch(field, starts, t_final, tol=tol,
                                           record=True)
            with monkeypatch.context() as mp:
                mp.setattr(symflow, "_dp_step", dp_step_seven_stages)
                ref = symflow.integrate_batch(field, starts, t_final, tol=tol,
                                              record=True)
            same_outcomes(fsal, ref)
            escaped = sum(out.status == symflow.ESCAPED for out in fsal)
            assert (escaped > 0) == (t_final > 0)

    @settings(max_examples=12)
    @given(picks=st.lists(st.integers(0, 11), min_size=1, max_size=5))
    def test_subset_batch_equals_singletons(self, ray, ray_starts, picks):
        starts = ray_starts[np.asarray(picks)]
        batch = symflow.integrate_batch(ray, starts, 1.05, record=True)
        alone = [symflow.integrate_batch(ray, z0[None, :], 1.05, record=True)[0]
                 for z0 in starts]
        same_outcomes(batch, alone)
