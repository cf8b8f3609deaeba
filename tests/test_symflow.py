"""The DP5 integrator loop: recording, batching, time reversal and the
first-same-as-last (FSAL) step; and the finite-difference Jacobian reader
and the batch symplecticity residual, against the per-matrix residual they
replaced."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excisionlab import scenarios, symflow
from excisionlab.errors import InputError, StencilError
from excisionlab.ham_extension import (HamiltonianField, RayHamiltonian,
                                       coordinate_stencil, pairing_matrix)


@pytest.fixture(scope="module")
def ray():
    return RayHamiltonian(2)


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
        out = symflow.integrate_batch(ray, starts, 1.05, record=True)
        assert set(out.status) == {symflow.COMPLETED, symflow.ESCAPED}
        assert len(out.trajectories) == starts.shape[0]
        for i, (z0, traj) in enumerate(zip(starts, out.trajectories)):
            assert traj.shape == (out.step_count[i] + 1, 5)
            assert np.array_equal(traj[0], np.concatenate([[0.0], z0]))
            assert traj[-1, 0] == out.elapsed[i]
            assert np.array_equal(traj[-1, 1:], out.endpoint[i])
            assert np.all(np.diff(traj[:, 0]) > 0.0)

    def test_backward_rows_run_backward(self, ray, starts):
        out = symflow.integrate_batch(ray, starts[:1], -1.0, record=True)
        traj = out.trajectories[0]
        assert out.status[0] == symflow.COMPLETED
        assert out.elapsed[0] == -1.0
        assert traj[-1, 0] == out.elapsed[0]
        assert np.all(np.diff(traj[:, 0]) < 0.0)

    def test_unrecorded_run_has_no_rows(self, ray, starts):
        assert symflow.integrate_batch(ray, starts, 1.05).trajectories is None

    def test_batch_equals_singletons(self, ray, starts):
        batch = symflow.integrate_batch(ray, starts, 1.05, record=True)
        alone = [symflow.integrate_batch(ray, z0[None, :], 1.05, record=True)
                 for z0 in starts]
        same_outcomes(batch, stacked(alone))

    def test_integrate_is_a_one_point_batch(self, ray, starts):
        z = starts[0]
        for t in (1.05, -0.5):
            single = symflow.integrate_batch(ray, z[None], t)
            assert single.elapsed.shape == single.completed.shape == (1,)
            assert single.elapsed[0] == t and single.endpoint.shape == (1, 4)
        zero = symflow.integrate_batch(ray, z[None], 0.0)
        assert zero.completed[0] and zero.step_count[0] == 0
        assert np.array_equal(zero.endpoint[0], z)


class TestOutcomeArrays:
    def test_one_entry_per_row(self, ray, starts):
        out = symflow.integrate_batch(ray, starts, 1.05)
        m = starts.shape[0]
        assert out.endpoint.shape == starts.shape
        for name in ("elapsed", "status", "step_count", "t_esc_lower",
                     "t_esc_upper", "completed"):
            assert getattr(out, name).shape == (m,), name
        assert out.completed.dtype == bool
        esc = out.status == symflow.ESCAPED
        assert np.all(np.isnan(out.t_esc_lower[~esc]))
        assert np.all(np.isnan(out.t_esc_upper[~esc]))
        assert np.all(out.t_esc_upper[esc] - out.t_esc_lower[esc]
                      <= symflow.ESC_BRACKET)

    def test_empty_batch(self, ray):
        out = symflow.integrate_batch(ray, np.zeros((0, 4)), 1.0, record=True)
        assert out.endpoint.shape == (0, 4) and out.status.shape == (0,)
        assert out.trajectories == []

    def test_zero_time_takes_no_step(self, ray, starts):
        field = Counting(ray)
        out = symflow.integrate_batch(field, starts, 0.0, record=True)
        assert field.batches == 0
        # the last start lies outside the chart already
        assert list(out.status) == [symflow.COMPLETED] * 4 + [symflow.ESCAPED]
        assert np.array_equal(out.endpoint, starts)
        assert np.all(out.elapsed == 0.0) and np.all(out.step_count == 0)
        assert all(traj.shape == (1, 5) for traj in out.trajectories)

    @pytest.mark.parametrize("t_final", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_refused(self, ray, starts, t_final):
        field = Counting(ray)
        with pytest.raises(InputError, match="t_final must be finite"):
            symflow.integrate_batch(field, starts, t_final)
        assert field.batches == 0

    @pytest.mark.parametrize("t_final,message", [
        (np.ones(4), r"t_final must be a scalar or an \(5,\) array"),
        (np.ones((5, 1)), r"t_final must be a scalar or an \(5,\) array"),
        (np.array([1.0, -1.0, np.nan, 1.0, 0.0]),
         "t_final must be finite, got nan at row 2"),
    ])
    def test_bad_time_array_is_refused(self, ray, starts, t_final, message):
        field = Counting(ray)
        with pytest.raises(InputError, match=message):
            symflow.integrate_batch(field, starts, t_final)
        assert field.batches == 0

    def test_bad_record_mask_is_refused(self, ray, starts):
        field = Counting(ray)
        with pytest.raises(InputError, match="record must be a scalar or an"):
            symflow.integrate_batch(field, starts, 1.0, record=[True] * 4)
        assert field.batches == 0

    def test_record_mask_keeps_the_marked_rows(self, ray, starts):
        mask = np.array([True, False, False, True, False])
        out = symflow.integrate_batch(ray, starts, 1.05, record=mask)
        assert [traj is not None for traj in out.trajectories] == list(mask)
        assert out.take(slice(3, 5)).trajectories[1] is None

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf, True])
    def test_tol_not_positive_and_finite_is_refused(self, ray, starts, tol):
        # 0 and NaN spun MAX_STEPS attempts per row; a negative or infinite
        # tol accepted every step
        field = Counting(ray)
        with pytest.raises(InputError, match="tol must be positive and finite"):
            symflow.integrate_batch(field, starts, 1.0, tol=tol)
        assert field.batches == 0

    @pytest.mark.parametrize("shape", [(4,), (5, 3), (5, 4, 1), ()])
    def test_start_batch_of_another_shape_is_refused(self, ray, shape):
        field = Counting(ray)
        with pytest.raises(InputError, match=r"z0 must be an \(m, 4\) batch"):
            symflow.integrate_batch(field, np.zeros(shape), 1.0)
        assert field.batches == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_is_refused(self, ray, starts, bad):
        field = Counting(ray)
        z = starts.copy()
        z[3, 1] = bad
        with pytest.raises(InputError, match="start row 3 is not finite"):
            symflow.integrate_batch(field, z, 1.0)
        assert field.batches == 0


class TestTimeReversal:
    def test_backward_undoes_forward(self, ray):
        rng = np.random.default_rng(3)
        pts = scenarios._ray_sympl_samples(ray, 16, rng)
        fw = symflow.integrate_batch(ray, pts, 1.0)
        assert np.all(fw.completed)
        bk = symflow.integrate_batch(ray, fw.endpoint, -1.0)
        assert np.all(bk.completed) and np.all(bk.elapsed == -1.0)
        assert np.abs(bk.endpoint - pts).max() <= 1e-7

    def test_backward_flow_never_exits_the_chart(self, ray, starts):
        # the chart monitor is off backward: points escaping forward
        # complete backward
        assert np.all(symflow.integrate_batch(ray, starts[:4], -1.0).completed)

    def test_backward_row_past_the_monitor_completes(self, ray, starts):
        # the last start lies past the chart monitor: forward it has
        # escaped at t = 0, backward it flows for the whole time
        field = Counting(ray)
        out = symflow.integrate_batch(field, starts[[4, 4, 0]],
                                      np.array([-1.0, 1.05, 1.05]))
        assert list(out.status) == [symflow.COMPLETED, symflow.ESCAPED,
                                    symflow.COMPLETED]
        assert out.elapsed[0] == -1.0 and out.step_count[0] > 0
        assert out.elapsed[1] == 0.0 and out.step_count[1] == 0
        assert np.array_equal(out.endpoint[1], starts[4])
        assert field.batches > 0

    def test_norm_guard_brackets_backward_exits(self):
        # F = 20 x y: forward, x reaches the chart monitor at about
        # ln(10) / 20; backward, y = 0.5 exp(20 |t|) passes R_MAX at
        # |t| = ln(2 R_MAX) / 20, where only the norm guard can stop it
        out = symflow.integrate_batch(Saddle(), np.array([[0.1, 0.5]] * 2),
                                      np.array([1.0, -1.0]))
        assert list(out.status) == [symflow.ESCAPED] * 2
        lo, hi = out.t_esc_lower, out.t_esc_upper
        assert np.all(hi - lo <= symflow.ESC_BRACKET)
        assert 0.0 < lo[0] <= hi[0] == out.elapsed[0]
        assert out.elapsed[1] == lo[1] <= hi[1] < 0.0
        assert abs(out.elapsed[0] - np.log(10.0) / 20.0) < 1e-3
        assert abs(out.elapsed[1] + np.log(2 * symflow.R_MAX) / 20.0) < 1e-3
        assert np.linalg.norm(out.endpoint[1]) >= symflow.R_MAX


def all_ok(images):
    return np.ones(images.shape[0], dtype=bool)


class TestNumericalJacobian:
    """Jacobians read from the images of ``coordinate_stencil``."""

    def test_linear_map(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))
        pts = rng.normal(size=(4, 3))
        images = coordinate_stencil(pts, 1e-5) @ a.T
        jacs = symflow.numerical_jacobian(images, all_ok(images), 1e-5)
        assert jacs.shape == (4, 3, 3)
        assert jacs.flags.c_contiguous
        assert np.abs(jacs - a).max() <= 1e-9

    def test_equals_column_loop(self):
        # row-wise map, so the loop below does the same arithmetic
        def f(z):
            return np.sin(z) * z[:, ::-1]

        pts = np.random.default_rng(6).normal(size=(5, 4))
        h = 1e-5
        images = f(coordinate_stencil(pts, h))
        jacs = symflow.numerical_jacobian(images, all_ok(images), h)
        for z, jac in zip(pts, jacs):
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                col = (f(zp[None, :])[0] - f(zm[None, :])[0]) / (2.0 * h)
                assert np.array_equal(jac[:, i], col)

    @pytest.mark.parametrize("k,i", [(0, 0), (2, 1), (3, 2)])
    def test_escaped_row_names_sample_and_axis(self, k, i):
        pts = np.zeros((4, 3))
        d = pts.shape[1]
        images = coordinate_stencil(pts, 1e-5)
        ok = all_ok(images)
        ok[k * 2 * d + 2 * i + 1] = False
        with pytest.raises(StencilError,
                           match=f"stencil escaped at sample {k}, axis {i}$"):
            symflow.numerical_jacobian(images, ok, 1e-5)

    @pytest.mark.parametrize("shape,flags", [
        ((5, 3), 5), ((7, 2), 7), ((4, 4), 4), ((8, 2), 1), ((8, 2), 9)])
    def test_row_count_not_a_stencil_is_refused(self, shape, flags):
        # fails closed: a short flag mask would leave rows unchecked
        with pytest.raises(InputError, match="do not hold m \\* 2 \\* "):
            symflow.numerical_jacobian(np.zeros(shape),
                                       np.ones(flags, dtype=bool), 1e-5)

    def test_empty_stencil_gives_no_jacobian(self):
        jacs = symflow.numerical_jacobian(np.zeros((0, 2)), np.ones(0, bool), 1e-5)
        assert jacs.shape == (0, 2, 2)


class TestTime1JacobianBatch:
    def test_reads_the_stencil_flow(self, ray):
        pts = np.zeros((2, 4))
        pts[:, 2] = (-0.3, -0.2)
        out = symflow.integrate_batch(ray, coordinate_stencil(pts, 1e-5), 1.0)
        want = symflow.numerical_jacobian(out.endpoint, out.completed, 1e-5)
        assert np.array_equal(symflow.time1_jacobian_batch(out, pts, 1e-5), want)

    @pytest.mark.parametrize("m", [1, 3])
    def test_outcome_of_another_stencil_is_refused(self, ray, m):
        pts = np.zeros((2, 4))
        pts[:, 2] = (-0.3, -0.2)
        out = symflow.integrate_batch(ray, coordinate_stencil(pts, 1e-5), 1.0)
        with pytest.raises(InputError, match="is not the flow of the stencil"):
            symflow.time1_jacobian_batch(out, np.zeros((m, 4)), 1e-5)


def symplecticity_residual_ref(jac):
    """The per-matrix residual that the batch form replaced, kept verbatim:
    one call per Jacobian."""
    omega = pairing_matrix(jac.shape[0])
    return float(np.abs(jac.T @ omega @ jac - omega).max())


class TestSymplecticityResidual:
    @pytest.mark.parametrize("d", [2, 4])
    def test_batch_equals_per_matrix_loop(self, d):
        rng = np.random.default_rng(d)
        jacs = np.concatenate([
            rng.normal(size=(200, d, d)),
            # near-symplectic stacks, as the checks meet them
            np.eye(d) + 1e-6 * rng.normal(size=(200, d, d)),
        ])
        got = symflow.symplecticity_residual(jacs)
        assert got.shape == (400,)
        assert np.array_equal(got, [symplecticity_residual_ref(j) for j in jacs])

    def test_non_finite_entry_propagates(self):
        jacs = np.tile(np.eye(2), (3, 1, 1))
        jacs[1, 0, 1] = np.nan
        got = symflow.symplecticity_residual(jacs)
        assert got[0] == got[2] == 0.0 and np.isnan(got[1])


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


class Counting(HamiltonianField):
    """A plain field wrapper that counts ``vector_field`` row batches."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.batches = 0

    def vector_field(self, z):
        self.batches += 1
        return self.base.vector_field(z)

    def escape_value(self, z):
        return self.base.escape_value(z)


class Saddle(HamiltonianField):
    """``F = 20 x y`` on the plane: ``x`` grows forward and ``y``
    backward, each as ``exp(20 |t|)``."""

    dim = 2

    def value(self, z):
        return 20.0 * z[:, 0] * z[:, 1]

    def grad(self, z):
        return 20.0 * z[:, ::-1]


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


ROW_FIELDS = [f.name for f in dataclasses.fields(symflow.FlowOutcome)
              if f.name != "trajectories"]


def stacked(outs):
    """One outcome holding the rows of the outcomes ``outs`` in order."""
    rows = [np.concatenate([getattr(out, name) for out in outs])
            for name in ROW_FIELDS]
    trajs = None
    if outs[0].trajectories is not None:
        trajs = [traj for out in outs for traj in out.trajectories]
    return symflow.FlowOutcome(*rows, trajectories=trajs)


def same_outcomes(got, want):
    for name in ROW_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=name.startswith("t_esc")), name
    assert (got.trajectories is None) == (want.trajectories is None)
    assert len(got.trajectories or []) == len(want.trajectories or [])
    for a, b in zip(got.trajectories or [], want.trajectories or []):
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b)


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
        out = symflow.integrate_batch(field, survivors, 1.0)
        assert np.all(out.completed)
        assert field.batches == 1 + 6 * len(steps)

        # escapes add one first stage for all bisection steps of the
        # bracket; a loose tolerance leaves final steps long enough to bisect
        steps.clear()
        field = Counting(ray)
        out = symflow.integrate_batch(field, ray_starts, 1.05, tol=1e-6)
        assert set(out.status) == {symflow.COMPLETED, symflow.ESCAPED}
        assert sum(steps) > 2
        assert field.batches == 2 + 6 * len(steps)

    def test_no_rhs_call_when_every_start_has_escaped(self, ray):
        field = Counting(ray)
        z = np.zeros((2, 4))
        z[:, 2] = 1.0
        out = symflow.integrate_batch(field, z, 1.0)
        assert np.all(out.status == symflow.ESCAPED)
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
        m = starts.shape[0]
        mixed = np.where(np.arange(m) % 2 == 0, 1.05, -1.0)
        for t_final in (1.05, -1.0, mixed):
            fsal = symflow.integrate_batch(field, starts, t_final, tol=tol,
                                           record=True)
            with monkeypatch.context() as mp:
                mp.setattr(symflow, "_dp_step", dp_step_seven_stages)
                ref = symflow.integrate_batch(field, starts, t_final, tol=tol,
                                              record=True)
            same_outcomes(fsal, ref)
            # the chart monitor only watches forward rows
            forward = np.broadcast_to(t_final, (m,)) > 0
            escaped = fsal.status == symflow.ESCAPED
            assert np.any(escaped) == np.any(forward)
            assert not np.any(escaped[~forward])

    @settings(max_examples=12)
    @given(picks=st.lists(st.integers(0, 11), min_size=1, max_size=5))
    def test_subset_batch_equals_singletons(self, ray, ray_starts, picks):
        starts = ray_starts[np.asarray(picks)]
        batch = symflow.integrate_batch(ray, starts, 1.05, record=True)
        alone = [symflow.integrate_batch(ray, z0[None, :], 1.05, record=True)
                 for z0 in starts]
        same_outcomes(batch, stacked(alone))


@pytest.fixture(scope="module", params=["ray", "brush"])
def field_and_rows(request, ray, ray_starts, brush, brush_starts):
    if request.param == "ray":
        return ray, ray_starts
    return brush[-1], brush_starts


MIXED_TIMES = (1.05, 1.0, -1.0, 2.0, 0.0)


@settings(max_examples=10)
@given(picks=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.sampled_from(MIXED_TIMES), st.booleans()),
                      min_size=1, max_size=6))
def test_signed_batch_equals_singletons(field_and_rows, picks):
    """Rows with their own signed times and record flags in one batch
    flow exactly as they do alone."""
    field, rows = field_and_rows
    starts = rows[[i % rows.shape[0] for i, _, _ in picks]]
    times = np.array([t for _, t, _ in picks])
    mask = np.array([rec for _, _, rec in picks])
    batch = symflow.integrate_batch(field, starts, times, record=mask)
    for k, (z0, t, rec) in enumerate(zip(starts, times, mask)):
        alone = symflow.integrate_batch(field, z0[None, :], t, record=bool(rec))
        same_outcomes(batch.take(slice(k, k + 1)),
                      alone if rec else dataclasses.replace(alone,
                                                            trajectories=[None]))



class Wall(HamiltonianField):
    """``F = y g(x)`` on the plane with ``g = 1`` below ``x = 0.5`` and
    ``1e20`` from there on, so ``x' = g(x)``: a forward row below the wall
    creeps up to it with ever smaller steps until its step falls below the
    float resolution of its time, and so does a backward row above it at
    once; a forward row above the wall escapes."""

    dim = 2

    def grad(self, z):
        return np.column_stack([0.0 * z[:, 1],
                                np.where(z[:, 0] < 0.5, 1.0, 1e20)])


class TestExits:
    """Rows leave a batch in every way a row can, at different steps, and
    each row's outcome is still its one-row outcome."""

    def test_max_steps_exit_equals_singletons(self, ray, ray_starts,
                                              monkeypatch):
        monkeypatch.setattr(symflow, "MAX_STEPS", 40)
        m = ray_starts.shape[0]
        times = np.where(np.arange(m) % 2 == 0, 1.05, -1.0)
        record = np.arange(m) % 3 != 1
        batch = symflow.integrate_batch(ray, ray_starts, times, record=record)
        assert set(batch.status) == {symflow.COMPLETED, symflow.ESCAPED,
                                     symflow.TOLERANCE_FAILURE}
        failed = batch.status == symflow.TOLERANCE_FAILURE
        assert np.any(failed & (times > 0)) and np.any(failed & (times < 0))
        alone = [symflow.integrate_batch(ray, z0[None, :], t, record=True)
                 for z0, t in zip(ray_starts, times)]
        want = stacked(alone)
        want.trajectories = [traj if rec else None
                             for traj, rec in zip(want.trajectories, record)]
        same_outcomes(batch, want)

    def test_dt_min_exit_equals_singletons(self):
        z = np.array([[0.0, 0.0], [0.3, 0.0], [0.4, 0.1], [0.6, 0.0],
                      [0.8, 0.0], [0.2, -0.3]])
        times = np.array([1.0, 0.1, -1.0, -1.0, 1.0, 1.0])
        batch = symflow.integrate_batch(Wall(), z, times, record=True)
        assert list(batch.status) == [
            symflow.TOLERANCE_FAILURE, symflow.COMPLETED, symflow.COMPLETED,
            symflow.TOLERANCE_FAILURE, symflow.ESCAPED,
            symflow.TOLERANCE_FAILURE]
        # the forward rows stalled at the wall, the backward one above it
        # did not take a step
        assert np.all(np.abs(batch.endpoint[[0, 5], 0] - 0.5) < 1e-13)
        assert batch.step_count[3] == 0 and batch.elapsed[3] == 0.0
        alone = [symflow.integrate_batch(Wall(), z0[None, :], t, record=True)
                 for z0, t in zip(z, times)]
        same_outcomes(batch, stacked(alone))

    @pytest.mark.parametrize("horizon", [1e12, 1e13])
    def test_long_horizon_steps_as_a_short_one(self, ray, monkeypatch,
                                               horizon):
        """The step floor is the float resolution of a row's current time,
        not of its horizon, so a rejected first step of a long flow is no
        failure: rows flow as they do to ``t = 1e3`` (a horizon neither
        reaches here).  The on-axis row escapes; the off-axis orbit runs
        until ``MAX_STEPS``, cut to 300 attempts here."""
        monkeypatch.setattr(symflow, "MAX_STEPS", 300)
        z = np.array([[0.0, 0.0, -0.3, 0.0], [0.1, 0.0, 0.2, 0.05]])
        out = symflow.integrate_batch(ray, z, horizon)
        assert list(out.status) == [symflow.ESCAPED, symflow.TOLERANCE_FAILURE]
        assert out.t_esc_lower[0] == pytest.approx(1.30000521, abs=1e-8)
        assert out.step_count[1] > 200
        same_outcomes(out, symflow.integrate_batch(ray, z, 1e3))
