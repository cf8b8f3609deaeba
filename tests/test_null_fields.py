"""Null fields over a product base: classification and fibre flows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excisionlab import flow1d, null_fields as nf, scalar_kit as sk
from excisionlab.errors import FlowDomainError, InputError
from excisionlab.scenarios import MARGIN
from fields1d import ramp_time_reference


@pytest.fixture(scope="module")
def point_field():
    """C = {0} in a 1D base, flat target height 0."""
    C = sk.ClosedSetSpec(dim=1, pieces=((sk.axis_point(0.0),),))
    spec = nf.EpigraphSpec(C=C, lam=nf.constant_map(0.0),
                           validation_box=((-1.0,), (1.0,)))
    return spec, nf.EpigraphField(spec)


def fibre_params(field, p):
    """``(a, b, c)`` as floats on the fibre over the 1-D base point ``p``."""
    return tuple(float(v[0]) for v in field.params(np.array([[p]])))


class TestBuildEpigraphField:
    def test_parameter_fields(self, point_field):
        spec, field = point_field
        a, b, c = field.params(np.array([[0.0], [0.7]]))
        assert b[0] == 0.0 and a[0] == -0.5 and c[0] == 0.0
        assert c[1] > 0.0

    def test_exit_time_on_set(self, point_field):
        _, field = point_field
        a, b, c = fibre_params(field, 0.0)
        tof = flow1d.ramp_time_closed_form(a, b, c, 0.5)
        assert tof == pytest.approx(0.5, abs=1e-12)

    def test_exit_time_off_set(self, point_field):
        _, field = point_field
        a, b, c = fibre_params(field, 0.7)
        for x in (-0.5, 0.0, 0.5):
            assert flow1d.ramp_time_closed_form(a, b, c, x) == math.inf

    def test_exit_time_below_threshold(self, point_field):
        _, field = point_field
        a, b, c = fibre_params(field, 0.0)
        tof = flow1d.ramp_time_closed_form(a, b, c, -0.2)
        assert 1.0 < tof < math.inf

    @pytest.mark.parametrize("name", ["brush", "epigraph"])
    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (5,), (), (1, 5, 2)])
    def test_base_point_shape_is_checked(self, brush, epigraph_box, name, shape):
        # a wrong width is refused at the edge: not read as the first
        # columns (a constant lam) nor failed on inside numpy (an affine one)
        field = {"brush": brush[2], "epigraph": epigraph_box[1]}[name]
        p = np.zeros(shape)
        x = np.full(shape[:1], 0.5)
        for call in (field.params, field.fibres, lambda p: field.velocity(p, x),
                     lambda p: field.jet(p, x),
                     lambda p: nf.classify_epigraph(field, p, x),
                     lambda p: nf.presympl_flow(field, p, x, -1.0)):
            with pytest.raises(InputError,
                               match=r"base points must have shape \(m, 2\)"):
                call(p)

    def test_range_validation(self):
        C = sk.ClosedSetSpec(dim=1, pieces=((sk.axis_point(0.0),),))
        bad = nf.EpigraphSpec(C=C, lam=nf.constant_map(1.5),
                              validation_box=((-1.0,), (1.0,)))
        with pytest.raises(InputError):
            nf.EpigraphField(bad)

    def test_range_validation_rejects_nan(self):
        C = sk.ClosedSetSpec(dim=1, pieces=((sk.axis_point(0.0),),))
        lam = nf.SmoothMap(
            f=lambda pts: np.where(pts[:, 0] > 0.5, np.nan, 0.0),
            grad=lambda pts: np.zeros_like(pts),
        )
        bad = nf.EpigraphSpec(C=C, lam=lam, validation_box=((-1.0,), (1.0,)))
        with pytest.raises(InputError):
            nf.EpigraphField(bad)


class TestClassification:
    def test_cantor_brush_members(self, brush):
        C, spec, vfield, _ = brush
        p = np.array([
            [0.0, 1.0 / 3.0],   # an interval endpoint at every depth: member
            [0.0, 0.5],         # removed at depth 1
            [0.2, 0.0],         # first coordinate off the axis point
            [0.0, 1.0 / 3.0],   # member, but below the height 0
        ])
        excised = nf.classify_epigraph(vfield, p, np.array([0.2, 0.2, 0.2, -0.2]))
        assert excised.tolist() == [True, False, False, False]

    def test_completeness_grid(self, point_field):
        spec, field = point_field
        # the base grid includes the set {0} itself
        base = np.union1d(np.linspace(-1.0, 1.0, 100), [0.0])
        ps = np.repeat(base, 100)[:, None]
        xs = np.tile(np.linspace(-0.9, 0.9, 100), base.size)
        member_p = spec.C.contains(ps)
        # margins around the set off it and around the threshold on it
        keep = ~((~member_p & (np.abs(ps[:, 0]) < 1e-3))
                 | (member_p & (np.abs(xs) < 1e-3)))
        excised = nf.classify_epigraph(field, ps[keep], xs[keep])
        want = member_p[keep] & (xs[keep] >= 0.0)
        assert excised.shape == want.shape and np.any(want)
        assert np.sum(excised != want) == 0

    def test_refuses_points_and_coordinates_that_do_not_pair(self, epigraph_box):
        # a zip would pair the first 3 base points and drop the other two
        _, field, _ = epigraph_box
        p = np.zeros((5, 2))
        for x in ([0.5, 0.9, -0.9], 0.5, [0.5], np.zeros((5, 1)), np.zeros(6)):
            with pytest.raises(InputError, match="one fibre coordinate per"):
                nf.classify_epigraph(field, p, x)
        assert nf.classify_epigraph(field, p, np.full(5, 0.5)).shape == (5,)

    def test_transect_is_one_batch_equal_to_the_pointwise_reference(
            self, epigraph_box, monkeypatch):
        # the epigraph scenario's transect: one lockstep run of every band
        # correction and one defining-function call, and each verdict the
        # one-point closed form's
        spec, field, _ = epigraph_box
        m, margin = 100, MARGIN
        ps = np.stack([np.linspace(-1.2, 1.2, m), np.full(m, 0.1)], axis=1)
        ps = ps[~(spec.C.boundary_distance(ps) < margin)]
        p_q = np.repeat(ps, m, axis=0)
        x_q = np.tile(np.linspace(-0.9, 0.9, m), ps.shape[0])
        clear = ~(np.abs(x_q - np.repeat(spec.lam(ps), m)) < margin)
        p_q, x_q = p_q[clear], x_q[clear]
        runs, values = [], []
        lockstep, value = flow1d._lockstep, sk.DefiningFunction.value
        monkeypatch.setattr(flow1d, "_lockstep", lambda steps, evaluate: (
            runs.append(len(steps)) or lockstep(steps, evaluate)))
        monkeypatch.setattr(sk.DefiningFunction, "value", lambda self, pts: (
            values.append(len(pts)) or value(self, pts)))
        excised = nf.classify_epigraph(field, p_q, x_q)
        assert len(runs) == 1 and runs[0] > 0 and values == [x_q.size]
        monkeypatch.undo()
        a, b, c = field.params(p_q)
        want = [ramp_time_reference(*row) <= 1.0
                for row in zip(a.tolist(), b.tolist(), c.tolist(), x_q.tolist())]
        assert excised.tolist() == want


class TestFibreFlows:
    def test_time1_freezes_base(self, point_field):
        _, field = point_field
        p0 = np.array([[0.37]])
        p1, _ = nf.presympl_flow(field, p0, np.array([-0.2]), 1.0)
        assert np.array_equal(p0, p1) and p1 is not p0

    def test_time1_plateau_translation(self, point_field):
        # on the set, above the ramp, the fibre speed is exactly 1
        _, field = point_field
        _, x1 = nf.presympl_flow(field, np.array([[0.0]]), np.array([-0.5]), 1.0)
        assert x1[0] == pytest.approx(0.5, abs=1e-8)

    def test_excised_point_rejected(self, point_field):
        _, field = point_field
        with pytest.raises(FlowDomainError):
            nf.presympl_flow(field, np.array([[0.0]]), np.array([0.3]), 1.0)

    def test_fixed_fibre_where_cutoff_dead(self, point_field):
        _, field = point_field
        a, _, _ = fibre_params(field, 0.9)
        x = 0.5 * (a - 1.0) - 0.1     # below the ramp: speed 0
        _, x1 = nf.presympl_flow(field, np.array([[0.9]]), np.array([x]), 1.0)
        assert x1[0] == x

    def test_backward_total_and_bijective(self, point_field):
        _, field = point_field
        rng = np.random.default_rng(0)
        draws = np.array([(rng.uniform(-1.0, 1.0), rng.uniform(-0.9, 0.9))
                          for _ in range(500)])
        p, x_target = draws[:, :1], draws[:, 1]
        _, x_back = nf.presympl_flow(field, p, x_target, -1.0)
        _, x_fwd = nf.presympl_flow(field, p, x_back, 1.0)
        assert np.max(np.abs(x_fwd - x_target)) <= 1e-8

    def test_forward_invariance(self, point_field):
        spec, field = point_field
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(0.0, 0.9)
            fiber = field.fibres(np.array([[0.0]]))
            tof = flow1d.forward_time(fiber, x)
            x1 = flow1d.flow_map(fiber, 0.7 * tof.value, x)
            assert x1 >= x          # the fibre only moves up
            assert x1 >= 0.0        # stays in the epigraph


class TestGradients:
    def test_velocity_grad_matches_fd(self, brush):
        _, _, vfield, _ = brush
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.4, 1.4, size=(200, 2))
        # keep the stencil clear of sub-resolution gap microstructure
        cantor = vfield.spec.C.pieces[0][1]
        pts = pts[cantor.boundary_distance(pts[:, 1]) > 5e-4]
        xs = rng.uniform(-0.8, 0.8, size=pts.shape[0])
        grad = vfield.jet(pts, xs)[2]
        h = 1e-6
        for i in range(2):
            zp = pts.copy(); zp[:, i] += h
            zm = pts.copy(); zm[:, i] -= h
            fd = (vfield.velocity(zp, xs) - vfield.velocity(zm, xs)) / (2 * h)
            rel = np.abs(fd - grad[:, i]) / (1.0 + np.abs(grad[:, i]))
            assert np.max(rel) <= 1e-5


class TestFibreFlowProperties:
    @settings(max_examples=40)
    @given(p=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           x=st.floats(-0.95, 0.95), s=st.floats(-1.0, 0.0),
           t=st.floats(-1.0, 0.0))
    def test_backward_flows_compose(self, epigraph_box, p, x, s, t):
        # flow_map(s + t) = flow_map(t) o flow_map(s): backward flows are
        # total on epigraph fibres, so every composition is defined
        _, field, _ = epigraph_box
        fiber = field.fibres(np.array([p]))
        once = flow1d.flow_map(fiber, s + t, x)
        twice = flow1d.flow_map(fiber, t, flow1d.flow_map(fiber, s, x))
        assert abs(once - twice) <= 1e-10

    def test_flow_toward_a_zero_of_the_velocity_is_quiet(self, epigraph_box):
        # x sits just above the fibre's zero region, so quadrature nodes
        # meet v = 0 (1/v = inf) while the bracket closes in on it; under
        # the suite's error::RuntimeWarning filter a warning would raise
        _, field, _ = epigraph_box
        fiber = field.fibres(np.array([[0.48876145, 0.70375182]]))
        x = -0.6860298096716246
        assert fiber.zero[0, 1] < x
        once = flow1d.flow_map(fiber, -0.47511112, x)
        twice = flow1d.flow_map(fiber, -0.17889691,
                                flow1d.flow_map(fiber, -0.29621421, x))
        assert fiber.zero[0, 1] < once < x
        assert abs(once - twice) <= 1e-10
