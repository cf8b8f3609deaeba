"""The DP5 integrator loop: recording, batching and time reversal."""

import numpy as np
import pytest

from excisionlab import scenarios, symflow
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
