"""Composed tree maps: a staged flow equals each row's chain of one-stage
flows bit for bit, a row's result does not depend on its batch mates, and
the backward stages undo the forward ones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excisionlab import scenarios, symflow, trees
from excisionlab.errors import ExcisedPointError, InputError
from excisionlab.ham_extension import RayHamiltonian


@pytest.fixture(scope="module")
def staged():
    return trees.excise_tree(scenarios._double_y_spec())


@pytest.fixture(scope="module")
def mixed(staged):
    """Behind-the-leaf plateau survivors, mid-branch points that escape,
    and points outside every strip, interleaved."""
    survivors = np.concatenate([
        chart.from_model(np.array([[-0.3, 0.0], [-0.1, 0.0]]))
        for chart in staged.charts
    ])
    on_tree = np.array([
        np.asarray(chart.leaf) + 0.4 * (np.asarray(chart.node)
                                        - np.asarray(chart.leaf))
        for chart in staged.charts
    ])
    outside = np.array([[2.4, 2.4], [-2.3, 0.5], [0.0, -2.2]])
    assert not np.any(staged.in_support(outside))
    pts = np.concatenate([survivors, on_tree, outside])
    order = np.random.default_rng(0).permutation(pts.shape[0])
    return pts[order], survivors


def stage_fields(staged):
    """The one-stage field of each stage, in forward order: the reference
    a staged flow is checked against."""
    return [trees.WorldBranchField([chart]) for chart in staged.charts]


def bits(a):
    """The int64 bit patterns of a float array: equal bits, equal floats,
    signed zeros and NaN payloads included."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_batch_equals_rows(staged, mixed):
    """Each row's status, stage and image are those of the row run alone,
    bit for bit: every chart product is row-wise, so no row's arithmetic
    depends on how many rows share a step."""
    pts, _ = mixed
    out = staged.forward_batch(pts)
    assert np.any(out.completed) and np.any(out.status == symflow.ESCAPED)
    for i, z in enumerate(pts):
        alone = staged.forward_batch(z[None, :])
        assert alone.status[0] == out.status[i]
        assert alone.stage[0] == out.stage[i]
        assert np.array_equal(bits(alone.endpoint[0]), bits(out.endpoint[i]))


def test_inverse_undoes_forward(staged, mixed):
    _, survivors = mixed
    out = staged.forward_batch(survivors)
    assert np.all(out.completed)
    assert np.abs(staged.inverse_batch(out.endpoint) - survivors).max() <= 1e-7


def test_inverse_names_the_failing_stage_and_row(staged):
    # a row past the R_MAX guard has left the chart before the last stage,
    # the first one run backward
    pts = np.array([[0.0, 2.4], [2e6, 0.0], [3e6, 0.0]])
    last = staged.field.stages - 1
    with pytest.raises(ExcisedPointError,
                       match=f"backward stage {last} failed at row 1: "
                             "escaped-chart"):
        staged.inverse_batch(pts)


# ---------------------------------------------------------------------------
# the staged flow against each row's chain of one-stage flows
# ---------------------------------------------------------------------------

TREES = {"tree": scenarios._horned_ray_spec, "retract": scenarios._double_y_spec}


@pytest.fixture(scope="module", params=sorted(TREES))
def tree_and_pool(request):
    """A tree's staged excision and starts covering every way a stage can
    end: a mid-branch point of each branch escapes in its own stage; a
    point just short of each branch's node is already out of the chart
    when its stage starts, and so is a point past ``R_MAX``; plateau
    points behind each leaf survive every stage; and points outside every
    strip are never moved."""
    staged = trees.excise_tree(TREES[request.param]())
    rows = []
    for chart in staged.charts:
        rows.append(chart.from_model(np.array([[0.4, 0.0], [1.0 - 5e-7, 0.0],
                                               [-0.3, 0.0], [-0.1, 0.0]])))
    outside = np.array([[2.4, 2.4], [-2.3, 0.5], [0.0, -2.2], [2.0, 0.0]])
    assert not np.any(staged.in_support(outside))
    rows += [outside, np.array([[2e6, 0.0]])]
    return staged, np.concatenate(rows)


def chain(staged, z0, t, record):
    """The outcome of the one-row start ``z0`` flowed for time ``t`` through
    the stages one one-stage :func:`integrate_batch` call at a time, in
    forward order for ``t >= 0``, else backward, stopping at the first
    stage the row does not complete: its last call, with the stage it
    ended in, the steps of every call and the trajectories of every call
    joined."""
    order = range(staged.field.stages)
    if t < 0:
        order = reversed(order)
    fields = stage_fields(staged)
    z, steps, trajs = z0[None, :], 0, []
    for k in order:
        out = symflow.integrate_batch(fields[k], z, t, record=record)
        steps += out.step_count[0]
        if record:
            trajs.append(out.trajectories[0])
        z = out.endpoint
        if not out.completed[0]:
            break
    return out, k, steps, np.concatenate(trajs) if record else None


def assert_rows_are_chains(staged, starts, times, record):
    out = symflow.integrate_batch(staged.field, starts, times, record=record)
    for i, (z0, t, rec) in enumerate(zip(starts, times, record)):
        ref, stage, steps, traj = chain(staged, z0, t, bool(rec))
        assert out.status[i] == ref.status[0], i
        assert out.stage[i] == stage, i
        assert out.step_count[i] == steps, i
        for name in ("endpoint", "elapsed", "t_esc_lower", "t_esc_upper"):
            assert np.array_equal(bits(getattr(out, name)[i]),
                                  bits(getattr(ref, name)[0])), (i, name)
        if rec:
            assert np.array_equal(bits(out.trajectories[i]), bits(traj)), i
        else:
            assert out.trajectories[i] is None
    return out


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_staged_batch_equals_chains(tree_and_pool, t):
    """The whole pool in one shuffled batch, and every fourth start alone,
    flow exactly as their chains of one-stage calls."""
    staged, pool = tree_and_pool
    starts = pool[np.random.default_rng(7).permutation(pool.shape[0])]
    m = starts.shape[0]
    record = np.arange(m) % 3 == 0
    out = assert_rows_are_chains(staged, starts, np.full(m, t), record)
    for i in range(0, m, 4):
        assert_rows_are_chains(staged, starts[i:i + 1], np.array([t]),
                               record[i:i + 1])
    escaped = out.status == symflow.ESCAPED
    if t > 0:
        # every stage has a row escaping in it, and a later stage has a
        # row already out of its chart when it starts
        assert set(out.stage[escaped]) == set(range(staged.field.stages))
        assert np.any(escaped & (out.stage > 0) & (out.elapsed == 0.0))
    else:
        # only the norm guard stops a backward row, at the last stage
        assert np.all(out.stage[escaped] == staged.field.stages - 1)
    fixed = ~staged.in_support(starts) & ~escaped
    assert np.array_equal(bits(out.endpoint[fixed]), bits(starts[fixed]))


def test_rows_that_fail_escape_or_go_on_equal_chains(tree_and_pool,
                                                     monkeypatch):
    """With few attempts allowed per stage, some rows fail in a later
    stage and some escape in one while others enter their next stages; the
    batch still equals each row's chain."""
    monkeypatch.setattr(symflow, "MAX_STEPS", 25)
    staged, pool = tree_and_pool
    m = pool.shape[0]
    times = np.where(np.arange(m) % 3 == 0, -1.0, 1.0)
    out = assert_rows_are_chains(staged, pool, times, np.arange(m) % 2 == 0)
    later = np.where(times > 0, out.stage > 0,
                     out.stage < staged.field.stages - 1)
    for status in (symflow.TOLERANCE_FAILURE, symflow.ESCAPED,
                   symflow.COMPLETED):
        assert np.any((out.status == status) & later), status


def test_tol_not_positive_and_finite_is_refused(staged, mixed):
    pts, _ = mixed
    for call in (staged.forward_batch, staged.inverse_batch):
        with pytest.raises(InputError, match="tol must be positive and finite"):
            call(pts, tol=0.0)


@settings(max_examples=12)
@given(picks=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                st.sampled_from([1.0, -1.0, 0.0]),
                                st.booleans()),
                      min_size=1, max_size=8))
def test_signed_staged_batch_equals_chains(tree_and_pool, picks):
    """Rows of either sign, zero times and recorded rows, drawn from the
    pool in any order and number, flow as their chains."""
    staged, pool = tree_and_pool
    starts = pool[[i % pool.shape[0] for i, _, _ in picks]]
    times = np.array([t for _, t, _ in picks])
    record = np.array([rec for _, _, rec in picks])
    assert_rows_are_chains(staged, starts, times, record)


def test_rowwise_products_equal_the_matrix_products(staged, mixed):
    """The row-wise chart map and chain rule agree with the 2x2 matrix
    products they replaced up to rounding, stage by stage, and a stage's
    rows evaluate alike alone and among rows of other stages."""
    pts, _ = mixed
    stage = np.arange(pts.shape[0]) % staged.field.stages
    rows = staged.field.at(stage)
    for k, (f, chart) in enumerate(zip(stage_fields(staged), staged.charts)):
        mat = np.reshape(chart.rot, (2, 2))
        frame = (pts - np.asarray(chart.leaf)) @ mat.T
        model = frame * np.array([1.0 / chart.length, chart.length])
        rowwise = trees._to_model(pts, chart.columns())
        assert np.allclose(rowwise, model, rtol=1e-15, atol=1e-15)
        ray = RayHamiltonian(1, eps=chart.eps, h_coef=chart.h_coef, h_power=2)
        dpsi = np.array([[1.0 / chart.length, 0.0], [0.0, chart.length]]) @ mat
        want = ray.grad(rowwise) @ dpsi
        assert np.any(want != 0.0)
        assert np.allclose(f.grad(pts), want, rtol=1e-14, atol=1e-14)
        mine = stage == k
        for name in ("value", "grad", "escape_value"):
            assert np.array_equal(bits(getattr(rows, name)(pts)[mine]),
                                  bits(getattr(f, name)(pts[mine]))), name


def test_many_stages_evaluate_only_through_at(staged):
    with pytest.raises(InputError, match="through at"):
        staged.field.grad(np.zeros((3, 2)))


@pytest.mark.parametrize("call", [
    lambda s: stage_fields(s)[0].grad(np.zeros(2)),
    lambda s: stage_fields(s)[0].vector_field(np.zeros((2, 3))),
    lambda s: s.field.at(np.zeros(2, dtype=int)).escape_value(np.zeros(2)),
    lambda s: s.forward_batch(np.zeros((2, 3))),
    lambda s: s.forward_batch(np.zeros(2)),
    lambda s: s.inverse_batch(np.zeros((2, 3))),
], ids=["grad-1d", "vector-field-3-cols", "monitor-1d", "forward-3-cols",
        "forward-1d", "inverse-3-cols"])
def test_batch_that_is_not_m_by_2_is_refused(staged, call):
    with pytest.raises(InputError, match=r"\(m, 2\) batch"):
        call(staged)


@pytest.mark.parametrize("change, match", [
    ({"nodes": ((0.0, 0.0), (math.inf, 0.0))}, "nodes must be finite"),
    ({"nodes": ((0.0, 0.0), (1.0, math.nan))}, "nodes must be finite"),
    ({"w0": -0.05}, "w0 must be positive"),
    ({"w0": math.nan}, "w0 must be positive"),
    ({"w0": math.inf}, "w0 must be positive and finite"),
    ({"w0": True}, "w0 must be positive and finite"),
    ({"eps": 0.0}, "eps must lie in"),
    ({"eps": 1.0}, "eps must lie in"),
    ({"eps": math.nan}, "eps must lie in"),
    ({"nodes": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)),
      "edges": ((0, 1), (1, 2), (2, 3), (3, 4))}, "nodes must be distinct"),
    ({"special": True}, "special must be an integer node index"),
    ({"special": 1.0}, "special must be an integer node index"),
    ({"nodes": ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))}, "points of the plane"),
    ({"nodes": ((0.0,), (1.0,))}, "points of the plane"),
    ({"edges": ((0, 1.0),)}, "bad edge"),
    ({"edges": ((False, True),)}, "bad edge"),
], ids=["inf-node", "nan-node", "negative-w0", "nan-w0", "inf-w0", "bool-w0",
        "zero-eps", "unit-eps", "nan-eps", "coincident-nodes", "bool-special",
        "float-special", "3d-nodes", "1d-nodes", "float-edge", "bool-edge"])
def test_spec_refuses_bad_input(change, match):
    """Refused before any arithmetic: a node at infinity would build a
    chart with an infinite tube, a negative ``w0`` would be squared into
    the tube of ``-w0``, an infinite ``w0`` would drop the width cap, two
    nodes at one point would let strips that cross there pass the
    separation check, a node off the plane would misread a chart, and a
    ``special`` or an edge end that is not an integer would index no
    node."""
    spec = {"nodes": ((0.0, 0.0), (1.0, 0.0)), "edges": ((0, 1),)}
    with pytest.raises(InputError, match=match):
        trees.TreeSpec(**{**spec, **change})


def test_tree_without_an_edge_is_refused():
    # nothing to excise: a staged field has at least one stage
    spec = trees.TreeSpec(nodes=((0.0, 0.0),), edges=())
    with pytest.raises(InputError, match="at least one chart"):
        trees.excise_tree(spec)


def test_special_may_be_a_numpy_integer():
    spec = trees.TreeSpec(nodes=((0.0, 0.0), (1.0, 0.0)), edges=((0, 1),),
                          special=np.int64(1))
    assert trees.excise_tree(spec).field.stages == 1


def test_strips_meeting_away_from_a_shared_node_are_refused():
    # the path closes back onto node 1 up to 1e-9: the strips of its first
    # and third stages cross there, sharing a location but no node index
    spec = trees.TreeSpec(
        nodes=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 1e-9)),
        edges=((0, 1), (1, 2), (2, 3), (3, 4)))
    with pytest.raises(InputError, match="strips of branches 0 and 2 are not "
                                         "separated"):
        trees.excise_tree(spec)
