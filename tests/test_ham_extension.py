"""Hamiltonians on the product model: explicit ray fields and extensions."""

import numpy as np
import pytest

from excisionlab import ham_extension as hx, null_fields as nf, scalar_kit as sk
from excisionlab import symflow as sf
from excisionlab.errors import InputError
from excisionlab.ham_extension import R_OFF, R_ON


class TestPairing:
    def test_matrix_shape_and_blocks(self):
        om = hx.pairing_matrix(4)
        assert om[0, 1] == 1.0 and om[1, 0] == -1.0
        assert om[2, 3] == 1.0 and om[3, 2] == -1.0
        assert np.all(om + om.T == 0.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(InputError):
            hx.pairing_matrix(3)


class TestRayHamiltonian:
    def test_axis_velocity_is_cutoff(self):
        F = hx.RayHamiltonian(2)
        for x in (0.0, 0.3, 0.8):
            z = np.array([[0.0, 0.0, x, 0.0]])
            vec = F.vector_field(z)[0]
            assert vec[2] == pytest.approx(1.0, abs=1e-14)  # chi = 1 there
            assert np.abs(vec[[0, 1, 3]]).max() == 0.0

    def test_vanishes_on_zero_conorm(self):
        F = hx.RayHamiltonian(2)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.8, 0.8, size=(200, 4))
        pts[:, 3] = 0.0
        assert np.abs(np.atleast_1d(F.value(pts))).max() == 0.0

    def test_compact_superlevel_box(self):
        F = hx.RayHamiltonian(2)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.98, 0.98, size=(20000, 4))
        pts[:, 3] = rng.uniform(-4, 4, size=20000)
        c = 0.1
        x_hi = 1.0 - c * c / F.h_coef
        r2 = F.h_coef * (1.0 + F.eps)
        outside = ~((pts[:, 2] >= -F.eps) & (pts[:, 2] <= x_hi)
                    & (np.sum(pts[:, :2] ** 2, axis=1) + pts[:, 3] ** 2 <= r2))
        vals = np.abs(np.atleast_1d(F.value(pts[outside])))
        assert np.all(vals < c)

    def test_gradient_oracle(self):
        F = hx.RayHamiltonian(2)
        golden = 0.6180339887498949
        n = 1000
        seqs = (np.arange(1, n + 1)[:, None] *
                np.array([golden, golden ** 2, 0.7548776662466927,
                          0.5698402909980532])) % 1.0
        pts = -0.85 + 1.7 * seqs
        g = F.grad(pts)
        h = 1e-5
        for i in range(4):
            zp = pts.copy(); zp[:, i] += h
            zm = pts.copy(); zm[:, i] -= h
            fd = (F.value(zp) - F.value(zm)) / (2 * h)
            rel = np.abs(fd - g[:, i]) / (1.0 + np.abs(g[:, i]))
            assert np.max(rel) <= 1e-5

    def test_flat_on_zero_set_off_hypersurface(self):
        F = hx.RayHamiltonian(2)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.9, 0.9, size=(2000, 4))
        pts = pts[np.abs(pts[:, 3]) > 0.05]
        vals = np.abs(np.atleast_1d(F.value(pts)))
        zeros = pts[vals == 0.0]
        assert zeros.shape[0] > 100
        assert np.abs(F.grad(zeros)).max() <= 1e-10

    def test_membership(self):
        F = hx.RayHamiltonian(2)
        inside = F.membership(np.array([[0.0, 0.0, 0.5, 0.0],
                                        [0.0, 0.0, -0.1, 0.0],
                                        [0.1, 0.0, 0.5, 0.0],
                                        [0.0, 0.0, 0.5, 0.2]]))
        assert inside.tolist() == [True, False, False, False]

    def test_single_point_is_refused(self):
        # the evaluators are batch-only: one point is a (1, dim) batch
        F = hx.RayHamiltonian(2)
        z = np.array([0.0, 0.0, 0.5, 0.0])
        for evaluate in (F.value, F.grad, F.vector_field, F.membership):
            with pytest.raises(InputError, match=r"\(m, 4\) batch"):
                evaluate(z)
            assert evaluate(z[None]).shape[0] == 1

    def test_nan_height_coefficient_is_refused(self):
        with pytest.raises(InputError, match="h_coef"):
            hx.RayHamiltonian(n=2, h_coef=float("nan"))

    def test_infinite_height_coefficient_is_refused(self):
        # an infinite tube is all plateau, so off-axis points would escape
        with pytest.raises(InputError, match="h_coef"):
            hx.RayHamiltonian(1, h_coef=float("inf"))

    @pytest.mark.parametrize("h_power", [0, -1, 1.5, True])
    def test_height_power_must_be_a_positive_integer(self, h_power):
        with pytest.raises(InputError, match="h_power"):
            hx.RayHamiltonian(1, h_power=h_power)

    @pytest.mark.parametrize("n", [0, 2.5, 2.0, True])
    def test_dimension_must_be_a_positive_integer(self, n):
        # 2.5 would build a field of dim 5.0 that fails only at its first
        # vector_field, and True the planar field
        with pytest.raises(InputError, match=f"n must be an integer >= 1, got {n!r}"):
            hx.RayHamiltonian(n)

    def test_bool_height_coefficient_is_refused(self):
        # True would pass 0 < True < inf and be stored as the height
        with pytest.raises(InputError, match="h_coef must be positive and finite, got True"):
            hx.RayHamiltonian(2, h_coef=True)

    def test_numpy_integer_dimension_is_accepted(self):
        assert hx.RayHamiltonian(np.int64(2)).dim == 4


class TestRayPlane:
    def test_exit_iff_nonnegative(self):
        F = hx.RayHamiltonian(1)
        # axis exit times: chi = 1 above -eps/2, so T(x) = 1 - x there
        starts = np.array([[0.0, 0.0], [-0.01, 0.0], [0.01, 0.0]])
        out = sf.integrate_batch(F, starts, 1.0 + sf.DELTA_PROBE)
        assert np.all(out.status == sf.ESCAPED)
        assert out.t_esc_lower[0] <= 1.0 <= out.t_esc_upper[0] + 2e-4
        assert out.t_esc_lower[1] > 1.0
        assert out.t_esc_upper[2] < 1.0

    def test_off_axis_complete(self):
        F = hx.RayHamiltonian(1)
        z = np.array([0.5, 0.7])
        assert sf.integrate_batch(F, z[None], 10.0).completed[0]
        assert sf.integrate_batch(F, z[None], -10.0).completed[0]


class TestExtension:
    def test_hypersurface_restriction(self, brush):
        _, _, vfield, ham = brush
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.3, 1.3, size=(300, 4))
        pts[:, 2] = rng.uniform(-0.9, 0.9, size=300)
        pts[:, 3] = 0.0
        vec = np.atleast_2d(ham.vector_field(pts))
        v = np.atleast_1d(vfield.velocity(pts[:, :2], pts[:, 2]))
        chi = ham.cutoff(pts)
        assert np.abs(vec[:, [0, 1, 3]]).max() <= 1e-12
        assert np.abs(vec[:, 2] - chi * v).max() <= 1e-12

    def test_kinetic_zero_on_hypersurface(self, brush):
        _, _, _, ham = brush
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.5, 1.5, size=(500, 4))
        pts[:, 3] = 0.0
        assert np.abs(np.atleast_1d(ham.value(pts))).max() == 0.0

    def test_dominated_by_witness(self, brush):
        _, _, _, ham = brush
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.5, 2.0, size=(4000, 4))
        vals = np.abs(np.atleast_1d(ham.value(pts)))
        assert np.all(vals < sk.decay_witness(pts))

    def test_cutoff_is_one_on_target(self, brush):
        _, spec, _, ham = brush
        rng = np.random.default_rng(6)
        zs = hx.epigraph_sampler(spec)(500, rng)
        assert np.all(ham.cutoff(zs) == 1.0)

    def test_floor_certificate_rejects_slow_fields(self):
        # a target whose plateau speed is below the floor must be refused
        C = sk.ClosedSetSpec(dim=1, pieces=((sk.axis_point(0.0),),))

        def target(lam):
            spec = nf.EpigraphSpec(C=C, lam=nf.constant_map(lam),
                                   validation_box=((-1.0,), (1.0,)))
            return nf.EpigraphField(spec)

        vfield = target(0.9995)   # plateau speed 1 - b = 5e-4 < V_FLOOR
        zs = hx.epigraph_sampler(vfield.spec)(100, np.random.default_rng(0))
        assert zs.shape[0] == 100 and np.all(np.abs(zs[:, -2]) < 1.0)
        with pytest.raises(InputError, match="bounded below"):
            hx.extend_null_field(vfield)

        vfield = target(1.0)      # fibre [1, 1) empty: no point in the chart
        with pytest.raises(InputError, match="no target sample inside the chart"):
            hx.extend_null_field(vfield)


class TestLocalize:
    """The ray field in a scaled copy of its own tube, the neighbourhood of
    ``lab ray --u-scale u``: ``RayHamiltonian(n, eps * u, h_coef * u)``."""

    @pytest.mark.parametrize("kwargs,match", [
        ({"eps": float("nan"), "h_coef": 0.25}, "eps"),
        ({"eps": 2.0, "h_coef": 0.25}, "eps"),
        ({"eps": 0.5, "h_coef": -1.0}, "h_coef"),
    ])
    def test_bad_neighbourhood_is_refused(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            hx.RayHamiltonian(2, **kwargs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_scaled_field_vanishes_outside_its_tube(self, n):
        base = hx.RayHamiltonian(n)
        F = hx.RayHamiltonian(n, eps=base.eps * 0.1, h_coef=base.h_coef * 0.1)
        rng = np.random.default_rng(7)
        outside = rng.uniform(-0.9, 0.9, size=(500, 2 * n))
        mask = ~F.in_tube(outside)
        assert mask.any()
        assert np.all(F.vector_field(outside[mask]) == 0.0)
        # just inside the support edge R_OFF * h(x) the cutoff is positive,
        # just outside it the whole field is zero
        x = rng.uniform(-0.9 * F.eps, 0.9, size=200)
        direction = rng.normal(size=(200, 2 * n - 1))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        h = F.h_coef * (1.0 - x)
        for ratio, inside in ((0.99 * R_OFF, True), (1.01 * R_OFF, False)):
            radial = direction * np.sqrt(ratio * h)[:, None]
            pts = np.insert(radial, 2 * n - 2, x, axis=1)
            assert np.all(F.in_tube(pts) == inside)
            if inside:
                assert np.all(F.value(pts) != 0.0)
            else:
                assert np.all(F.vector_field(pts) == 0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_scaled_field_agrees_with_base_on_axis_plateau(self, n):
        # the plateau of the scaled tube, x >= -eps/2 and
        # |p|^2 + y^2 <= R_ON * h(x), lies inside the base plateau: both
        # cutoffs are 1 there with zero gradient, so the fields agree
        base = hx.RayHamiltonian(n)
        F = hx.RayHamiltonian(n, eps=base.eps * 0.1, h_coef=base.h_coef * 0.1)
        rng = np.random.default_rng(8)
        x = np.concatenate([[-F.eps / 2, 0.0, 0.5], rng.uniform(-F.eps / 2, 0.95, 100)])
        direction = rng.normal(size=(x.size, 2 * n - 1))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        radius = np.sqrt(rng.uniform(0.0, R_ON, x.size) * F.h_coef * (1.0 - x))
        radius[:3] = 0.0
        pts = np.insert(direction * radius[:, None], 2 * n - 2, x, axis=1)
        assert np.array_equal(F.vector_field(pts), base.vector_field(pts))
        assert np.all(F.vector_field(pts[:3])[:, -2] == 1.0)
