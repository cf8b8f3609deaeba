"""Composed tree maps: a row's result does not depend on its batch mates,
and the backward stages undo the forward ones."""

import numpy as np
import pytest

from excisionlab import scenarios, trees


@pytest.fixture(scope="module")
def staged():
    return trees.retract_tree(scenarios._double_y_spec())


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
