"""Composed tree maps: a row's result does not depend on its batch mates,
and the backward stages undo the forward ones."""

import math

import numpy as np
import pytest

from excisionlab import scenarios, trees
from excisionlab.errors import ExcisedPointError, InputError


@pytest.fixture(scope="module")
def staged():
    return trees.excise_tree(scenarios._double_y_spec())


@pytest.fixture(scope="module")
def mixed(staged):
    """Behind-the-leaf plateau survivors, mid-branch points that escape,
    and points outside every strip, interleaved."""
    survivors = np.concatenate([
        f.chart.from_model(np.array([[-0.3, 0.0], [-0.1, 0.0]]))
        for f in staged.fields
    ])
    on_tree = np.array([
        np.asarray(f.chart.leaf) + 0.4 * (np.asarray(f.chart.node)
                                          - np.asarray(f.chart.leaf))
        for f in staged.fields
    ])
    outside = np.array([[2.4, 2.4], [-2.3, 0.5], [0.0, -2.2]])
    assert not np.any(staged.in_support(outside))
    pts = np.concatenate([survivors, on_tree, outside])
    order = np.random.default_rng(0).permutation(pts.shape[0])
    return pts[order], survivors


def test_batch_equals_rows(staged, mixed):
    """Each row's stage label is that of the row run alone, and its image
    agrees up to rounding.  Not bit for bit: numpy hands a one-row 2x2
    chart product to BLAS matrix-vector code, whose last bit can differ
    from the matrix-matrix code of larger batches, and the integrator's
    active batch shrinks to one row near the end of a flow."""
    pts, _ = mixed
    ends, esc = staged.forward_batch(pts)
    assert np.any(esc == -1) and np.any(esc >= 0)
    for z, end, label in zip(pts, ends, esc):
        end1, esc1 = staged.forward_batch(z[None, :])
        assert esc1[0] == label
        assert np.abs(end1[0] - end).max() <= 1e-13


def test_inverse_undoes_forward(staged, mixed):
    _, survivors = mixed
    ends, esc = staged.forward_batch(survivors)
    assert np.all(esc == -1)
    assert np.abs(staged.inverse_batch(ends) - survivors).max() <= 1e-7


def test_inverse_names_the_failing_stage_and_row(staged):
    # a row past the R_MAX guard has left the chart before the last stage,
    # the first one run backward
    pts = np.array([[0.0, 2.4], [2e6, 0.0], [3e6, 0.0]])
    last = len(staged.fields) - 1
    with pytest.raises(ExcisedPointError,
                       match=f"backward stage {last} failed at row 1: "
                             "escaped-chart"):
        staged.inverse_batch(pts)


@pytest.mark.parametrize("change, match", [
    ({"nodes": ((0.0, 0.0), (math.inf, 0.0))}, "nodes must be finite"),
    ({"nodes": ((0.0, 0.0), (1.0, math.nan))}, "nodes must be finite"),
    ({"w0": -0.05}, "w0 must be positive"),
    ({"w0": math.nan}, "w0 must be positive"),
    ({"eps": 0.0}, "eps must lie in"),
    ({"eps": 1.0}, "eps must lie in"),
    ({"eps": math.nan}, "eps must lie in"),
    ({"nodes": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)),
      "edges": ((0, 1), (1, 2), (2, 3), (3, 4))}, "nodes must be distinct"),
], ids=["inf-node", "nan-node", "negative-w0", "nan-w0", "zero-eps",
        "unit-eps", "nan-eps", "coincident-nodes"])
def test_spec_refuses_bad_input(change, match):
    """Refused before any arithmetic: a node at infinity would build a
    chart with an infinite tube, a negative ``w0`` would be squared into
    the tube of ``-w0``, and two nodes at one point would let strips that
    cross there pass the separation check."""
    spec = {"nodes": ((0.0, 0.0), (1.0, 0.0)), "edges": ((0, 1),)}
    with pytest.raises(InputError, match=match):
        trees.TreeSpec(**{**spec, **change})


def test_strips_meeting_away_from_a_shared_node_are_refused():
    # the path closes back onto node 1 up to 1e-9: the strips of its first
    # and third stages cross there, sharing a location but no node index
    spec = trees.TreeSpec(
        nodes=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 1e-9)),
        edges=((0, 1), (1, 2), (2, 3), (3, 4)))
    with pytest.raises(InputError, match="strips of branches 0 and 2 are not "
                                         "separated"):
        trees.excise_tree(spec)
