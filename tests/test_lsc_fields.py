"""Baire minorants, separators, and the glued velocity tower."""

import math
import os
import re
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from excisionlab import flow1d, lsc_fields as lf, null_fields
from excisionlab.errors import CoverageError, DepthExhausted, InputError
from excisionlab.scalar_kit import (ball_bump_from_sq, bridge_crossing_time,
                                    bridge_velocity, smooth_step)
from towers import band_travel_time_scalar, limit_verdict


def constant_spec(value: float) -> lf.LscSpec:
    """Target identically ``value`` on the whole (boxed) base."""
    return lf.LscSpec(base_lo=(-1.0,), base_hi=(1.0,),
                      pieces=(((-3.0,), (3.0,), value),))


class TestLscSpec:
    @pytest.mark.parametrize("lo, hi", [
        ((-1.0, -1.0), (1.0,)),            # corners differ in length
        ((-1.0, float("nan")), (1.0, 1.0)),  # non-finite corner
        ((-1.0, -1.0), (1.0, math.inf)),
        ((1.0, -1.0), (-1.0, 1.0)),        # inverted axis
    ])
    def test_bad_base_box_is_refused(self, lo, hi):
        with pytest.raises(InputError):
            lf.LscSpec(base_lo=lo, base_hi=hi, pieces=())

    @pytest.mark.parametrize("lo, hi", [
        ((float("nan"), 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, float("nan"))),
        ((-math.inf, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, math.inf)),
    ])
    def test_non_finite_piece_corner_is_refused(self, lo, hi):
        # a NaN corner would otherwise drop its piece from lam silently
        with pytest.raises(InputError, match="piece corners must be finite"):
            lf.LscSpec(base_lo=(-2.0, -2.0), base_hi=(2.0, 2.0),
                       pieces=((lo, hi, 0.5),))

    @pytest.mark.parametrize("lo, hi", [
        ((0.0,), (1.0,)),                  # a 1-D piece in a 2-D base
        ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        ((0.0, 0.0), (1.0,)),
        ((0.0,), (1.0, 1.0)),
    ])
    def test_piece_corners_of_another_length_are_refused(self, lo, hi):
        # a shorter piece would broadcast over every axis of the base
        with pytest.raises(InputError, match="piece corners must have"):
            lf.LscSpec(base_lo=(-2.0, -2.0), base_hi=(2.0, 2.0),
                       pieces=((lo, hi, 0.5),))

    def test_degenerate_base_box_builds(self):
        spec = lf.LscSpec(base_lo=(0.5,), base_hi=(0.5,), pieces=())
        field = lf.build_lsc_field(spec, depth=2)
        assert field.fiber_data(np.array([0.5]))[2].size == 2


def cell_offsets(dim, span):
    """All neighbour-cell offsets in C order (the last key axis fastest)."""
    rng = np.arange(-span, span + 1)
    mesh = np.meshgrid(*([rng] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def reference_pairs(index, pts, reach):
    """Per query, the concatenation over ``cell_offsets`` of the ascending
    indices of the centers in cell ``key + off``."""
    reach = index.radius if reach is None else reach
    span = math.ceil(reach / index.radius)
    center_keys = np.floor(index.centers / index.radius).astype(np.int64)
    query_keys = np.floor(pts / index.radius).astype(np.int64)
    return [
        np.concatenate([np.zeros(0, dtype=np.int64)] + [
            np.nonzero(np.all(center_keys == key + off, axis=1))[0]
            for off in cell_offsets(index.dim, span)
        ])
        for key in query_keys
    ]


# The kernels below are the tower's earlier implementations, kept as
# references: one searchsorted pair per neighbour cell, blends over every
# candidate, np.maximum.at, and one scalar band time per call.

def pairs_by_cell(index, pts, reach=None):
    reach = index.radius if reach is None else reach
    span = int(math.ceil(reach / index.radius))
    keys = np.floor(pts / index.radius).astype(np.int64)
    # (m, n_offsets, dim) neighbour cells, relative to the key box
    cells = keys[:, None, :] + (cell_offsets(index.dim, span) - index._key_lo)
    in_box = np.all((cells >= 0) & (cells < index._key_shape), axis=2)
    q_rows, _ = np.nonzero(in_box)      # query-major, offsets in order
    codes = cells[in_box] @ index._key_strides
    start = np.searchsorted(index._sorted_codes, codes, side="left")
    counts = np.searchsorted(index._sorted_codes, codes, side="right") - start
    # expand each (query, cell) run of sorted centers
    run_start = np.cumsum(counts) - counts
    pos = np.arange(int(counts.sum())) + np.repeat(start - run_start, counts)
    qi = np.repeat(q_rows, counts).astype(np.int64, copy=False)
    ci = index._order[pos].astype(np.int64, copy=False)
    return qi, ci


def max_over_balls_at(index, pts, reach, values):
    qi, ci = pairs_by_cell(index, pts, reach=reach)
    if qi.size:
        d2 = np.sum((pts[qi] - index.centers[ci]) ** 2, axis=1)
        keep = d2 <= reach * reach
        qi, ci = qi[keep], ci[keep]
    out = np.full(pts.shape[0], -np.inf)
    np.maximum.at(out, qi, values[ci])
    return out


def raw_values_unpruned(seq, pts):
    plat = seq._plateaus(pts)
    # cumulative high-side kill factors by piece-value rank
    kill_cum = np.ones((pts.shape[0], plat.shape[1] + 1))
    for j in range(plat.shape[1]):
        kill_cum[:, j + 1] = kill_cum[:, j] * (1.0 - plat[:, j])

    prev = np.zeros(pts.shape[0])
    cols = []
    for lev in seq._levels:
        blend = lev.blend
        qi, ci = pairs_by_cell(blend.index, pts)
        d2 = np.sum((pts[qi] - blend.index.centers[ci]) ** 2, axis=1)
        w = ball_bump_from_sq(d2 / (blend.index.radius * blend.index.radius))
        c = blend.c_vals[ci]
        w = w * smooth_step((c - prev[qi]) / lev.gate_scale[ci])
        w = w * kill_cum[qi, lev.kill_rank[ci]]
        num = np.bincount(qi, weights=w * c, minlength=pts.shape[0])
        den = np.bincount(qi, weights=w, minlength=pts.shape[0])
        prev = num / den
        cols.append(prev)
    return np.stack([0.5 * cols[0]] + cols, axis=1)


def blend_unpruned(blend, pts):
    qi, ci = pairs_by_cell(blend.index, pts)
    d2 = np.sum((pts[qi] - blend.index.centers[ci]) ** 2, axis=1)
    w = ball_bump_from_sq(d2 / (blend.index.radius * blend.index.radius))
    num = np.bincount(qi, weights=w * blend.c_vals[ci], minlength=pts.shape[0])
    den = np.bincount(qi, weights=w, minlength=pts.shape[0])
    return num / den


def in_support_ref(index, pts, qi, ci):
    """The candidates with ``q = d^2 / radius^2 < 1``, from gathers of the
    unsorted center columns."""
    d2 = np.zeros(qi.shape[0])
    for p_col, c_col in zip(pts.T, index.centers.T):
        d2 += (p_col[qi] - c_col[ci]) ** 2
    q = d2 / (index.radius * index.radius)
    inside = q < 1.0
    return qi[inside], ci[inside], q[inside]


@st.composite
def neighbor_cases(draw):
    dim = draw(st.integers(1, 3))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    centers = draw(hnp.arrays(float, (draw(st.integers(0, 40)), dim),
                              elements=coords))
    # queries reach past the center cloud on every side
    pts = draw(hnp.arrays(float, (draw(st.integers(0, 20)), dim),
                          elements=st.floats(-2.0, 2.0, allow_nan=False)))
    radius = draw(st.floats(0.05, 0.6))
    reach = draw(st.one_of(st.none(), st.floats(0.1, 0.95).map(lambda r: r * radius),
                           st.floats(1.0, 4.0).map(lambda r: r * radius)))
    return centers, pts, radius, reach


class TestNeighborIndex:
    @given(neighbor_cases())
    def test_pairs_match_cell_scan(self, case):
        centers, pts, radius, reach = case
        index = lf._NeighborIndex(centers, radius)
        qi, ci = index.pairs(pts, reach)
        assert qi.dtype == np.int64 and ci.dtype == np.int64
        for q, want in enumerate(reference_pairs(index, pts, reach)):
            assert np.array_equal(ci[qi == q], want)

    @given(neighbor_cases())
    def test_max_over_balls_is_brute_force_max(self, case):
        centers, pts, radius, reach = case
        reach = radius if reach is None else reach
        values = np.arange(centers.shape[0], dtype=float)[::-1]
        got = lf._NeighborIndex(centers, radius).max_over_balls(pts, reach, values)
        for q, p in enumerate(pts):
            near = np.sum((p - centers) ** 2, axis=1) <= reach * reach
            assert got[q] == (values[near].max() if near.any() else -np.inf)

    @given(neighbor_cases())
    def test_pairs_equal_the_per_cell_join(self, case):
        centers, pts, radius, reach = case
        index = lf._NeighborIndex(centers, radius)
        qi, ci = index.pairs(pts, reach)
        want_qi, want_ci = pairs_by_cell(index, pts, reach)
        assert np.array_equal(qi, want_qi) and np.array_equal(ci, want_ci)

    @settings(max_examples=40)
    @given(dim=st.integers(1, 3), span=st.integers(1, 4),
           shift=st.floats(-12.0, 12.0), seed=st.integers(0, 2**16))
    def test_row_runs_at_every_span(self, dim, span, shift, seed):
        # a dense cloud, so every row of cells holds centers, with queries
        # inside, next to and far outside the key box
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1.0, 1.0, (300, dim))
        pts = rng.uniform(-1.5, 1.5, (25, dim)) + shift
        index = lf._NeighborIndex(centers, 0.2)
        reach = 0.2 * span
        qi, ci = index.pairs(pts, reach)
        want_qi, want_ci = pairs_by_cell(index, pts, reach)
        assert np.array_equal(qi, want_qi) and np.array_equal(ci, want_ci)

    @given(neighbor_cases())
    def test_max_over_balls_equals_maximum_at(self, case):
        centers, pts, radius, reach = case
        reach = radius if reach is None else reach
        values = np.random.default_rng(0).uniform(-1.0, 1.0, centers.shape[0])
        index = lf._NeighborIndex(centers, radius)
        assert np.array_equal(index.max_over_balls(pts, reach, values),
                              max_over_balls_at(index, pts, reach, values))

    @given(neighbor_cases())
    def test_cell_start_table_is_the_searchsorted_one(self, case):
        centers, _, radius, _ = case
        index = lf._NeighborIndex(centers, radius)
        cells = np.arange(int(np.prod(index._key_shape)) + 1)
        assert np.array_equal(index._cell_start,
                              np.searchsorted(index._sorted_codes, cells))

    @given(neighbor_cases())
    def test_sorted_positions_name_the_per_cell_centers(self, case):
        centers, pts, radius, reach = case
        index = lf._NeighborIndex(centers, radius)
        qi, pos = index.pairs(pts, reach, positions=True)
        want_qi, want_ci = pairs_by_cell(index, pts, reach)
        assert np.array_equal(qi, want_qi)
        assert np.array_equal(index._order[pos], want_ci)

    @given(neighbor_cases())
    def test_support_is_the_per_cell_join_pruned(self, case):
        centers, pts, radius, _ = case
        index = lf._NeighborIndex(centers, radius)
        qi, ci, q = index.support(pts)
        want = in_support_ref(index, pts, *pairs_by_cell(index, pts))
        for got, ref in zip((qi, ci, q), want):
            assert got.tobytes() == ref.tobytes()

    def test_empty_center_set_gives_empty_pairs(self):
        for dim in (1, 2, 3):
            index = lf._NeighborIndex(np.zeros((0, dim)), 0.25)
            qi, ci = index.pairs(np.zeros((3, dim)), reach=0.6)
            assert qi.dtype == ci.dtype == np.int64
            assert qi.size == ci.size == 0
            assert np.all(index.max_over_balls(np.zeros((3, dim)), 0.6,
                                               np.zeros(0)) == -np.inf)


class TestBaireSequence:
    def test_constant_one_levels(self):
        # target identically 1: level 3 is at least 2/3, all levels below 1
        spec = lf.LscSpec(base_lo=(-1.0,), base_hi=(1.0,), pieces=())
        # a piece-free spec has lam = 1 but no pieces; use a covering piece
        spec = constant_spec(1.0)
        seq = lf.baire_sequence(spec, n_levels=6)
        pts = np.linspace(-1.0, 1.0, 41)[:, None]
        vals = seq.raw_values(pts)
        assert np.all(vals[:, 2] >= 2.0 / 3.0)
        assert np.all(vals < 1.0)
        assert np.all(np.diff(vals, axis=1) > 0.0)

    def test_step_target_plateau(self):
        # value 0.5 on [0, 1], 1 elsewhere; deep inside the plateau the
        # levels converge to 0.5 from below
        spec = lf.LscSpec(base_lo=(-2.0,), base_hi=(2.0,),
                          pieces=(((0.0,), (1.0,), 0.5),))
        seq = lf.baire_sequence(spec, n_levels=10)
        deep = np.array([[0.5]])
        vals = seq.raw_values(deep)[0]
        assert vals[9] >= 0.9 * 0.5
        assert vals[9] < 0.5

    def test_over_ball_lower_bound(self):
        spec = lf.LscSpec(base_lo=(-2.0,), base_hi=(2.0,),
                          pieces=(((0.0,), (1.0,), 0.5),))
        seq = lf.baire_sequence(spec, n_levels=8)
        pts = np.linspace(-1.9, 1.9, 97)[:, None]
        vals = seq.raw_values(pts)
        for lvl in range(2, 9):
            r = 1.0 / lvl
            dist = np.maximum(np.maximum(0.0 - pts[:, 0], pts[:, 0] - 1.0), 0.0)
            inf_ball = np.where(dist < r, 0.5, 1.0)
            assert np.all(vals[:, lvl - 1] >= (1 - 1 / lvl) * inf_ball - 1e-12)

    def test_cached_levels_are_read_only(self):
        seq = lf.baire_sequence(constant_spec(0.5), n_levels=4)
        pts = np.linspace(-1.0, 1.0, 5)[:, None]
        vals = seq.raw_values(pts)
        want = vals.copy()
        with pytest.raises(ValueError):
            vals[0, 0] = 2.0
        with pytest.raises(ValueError):
            seq.raw_values(pts)[:, 1][0] = 2.0
        assert np.array_equal(seq.raw_values(pts), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_is_refused(self, bad):
        seq = lf.baire_sequence(constant_spec(0.5), n_levels=4)
        with pytest.raises(InputError, match="query points must be finite"):
            seq.raw_values(np.array([[0.2], [bad]]))

    def test_unique_rows_is_np_unique_at_every_level(self, box_tail_field,
                                                     monkeypatch):
        # every row set the depth-14 box-tail tower deduplicates, three per
        # level (each piece's projection, then all centers), byte for byte
        # what np.unique(axis=0) gives; some hold -0.0 where an equal row
        # holds 0.0, and the same one of the two must be kept
        spec = box_tail_field[0]
        real = lf._unique_rows
        seen = []

        def compare(a):
            got = real(a)
            want = np.unique(a, axis=0)
            signed_twins = len({row.tobytes() for row in a}) > want.shape[0]
            seen.append((got.tobytes() == want.tobytes()
                         and got.shape == want.shape, signed_twins))
            return got
        monkeypatch.setattr(lf, "_unique_rows", compare)
        lf.baire_sequence(spec, n_levels=15)
        assert len(seen) == 3 * 14
        assert all(same for same, _ in seen)
        # the centers of levels 3 and 9 to 15
        assert sum(twins for _, twins in seen) >= 8

    def test_unique_rows_keeps_np_uniques_signed_zero(self):
        a = np.array([[0.5, 0.0], [-0.0, 1.0], [0.5, -0.0], [0.0, 1.0],
                      [-0.25, 2.0], [0.5, 0.0]])
        got = lf._unique_rows(a)
        assert got.tobytes() == np.unique(a, axis=0).tobytes()
        assert got.shape == (3, 2)

    def test_strict_minorization_at_jump(self):
        # just inside the low plateau the levels must stay below the low
        # value even though high-value bumps crowd the boundary
        spec = lf.LscSpec(base_lo=(-2.0,), base_hi=(2.0,),
                          pieces=(((0.0,), (1.0,), 0.5),))
        seq = lf.baire_sequence(spec, n_levels=10)
        edge = np.array([[0.004], [0.02], [0.996], [0.5]])
        vals = seq.raw_values(edge)
        assert np.all(vals < 0.5)


@pytest.fixture(scope="module")
def shallow_box_tail(box_tail_field):
    """A depth-6 box-tail tower, with a 31 x 31 grid over the base."""
    spec, _, transect = box_tail_field
    field = lf.build_lsc_field(spec, depth=6)
    g1 = np.linspace(-1.95, 1.95, 31)
    grid = np.stack(np.meshgrid(g1, g1, indexing="ij"), axis=-1).reshape(-1, 2)
    return field, np.concatenate([grid, transect])


class TestPrunedBlends:
    """Blends over the candidates inside the bump support equal blends over
    every candidate, bit for bit."""

    def test_raw_values_equal_the_unpruned_blend(self, shallow_box_tail):
        field, pts = shallow_box_tail
        seq = field.baire
        assert np.array_equal(seq.raw_values(pts), raw_values_unpruned(seq, pts))
        # each level's centers under the levels below it, as the build
        # queries them
        for n in range(1, len(seq._levels)):
            below = lf.BaireSequence(seq.spec)
            below._levels = seq._levels[:n]
            centers = seq._levels[n].blend.index.centers
            assert np.array_equal(below.raw_values(centers),
                                  raw_values_unpruned(below, centers))

    def test_majorants_equal_the_unpruned_blend(self, shallow_box_tail):
        field, pts = shallow_box_tail
        seps = field.majorants
        values = seps(pts)
        centers, reach = seps.index.centers, lf.MAJORANT_SCALE
        for n, col in enumerate(seps.c_vals.T):
            g = lf._BlendField(seps.index, col)
            assert np.array_equal(values[:, n], blend_unpruned(g, pts))
            assert np.array_equal(
                g.ball_upper_bound(centers, reach),
                max_over_balls_at(g.index, centers, reach + g.index.radius,
                                  col))

    def test_level_upper_bounds_equal_maximum_at(self, shallow_box_tail):
        field, _ = shallow_box_tail
        seq = field.baire
        centers = field.majorants.index.centers
        reach = lf.MAJORANT_SCALE
        for level in range(1, seq.depth + 1):
            lev, factor = ((seq._levels[0], 0.5) if level == 1
                           else (seq._levels[level - 2], 1.0))
            blend = lev.blend
            want = factor * max_over_balls_at(blend.index, centers,
                                              reach + blend.index.radius,
                                              blend.c_vals)
            assert np.array_equal(seq.level_upper_bound(level, centers, reach),
                                  want)


def levels_below(seq, n):
    """A fresh sequence (empty cache) with the first ``n`` levels of ``seq``."""
    below = lf.BaireSequence(seq.spec)
    below._levels = seq._levels[:n]
    return below


@pytest.fixture
def three_threads(monkeypatch):
    """A pool of three threads for ``_blockwise``, more than the host may
    have CPUs, so the threaded path runs on any host."""
    with ThreadPoolExecutor(3) as executor:
        monkeypatch.setattr(lf, "_block_pool", lambda: (executor, 3))
        yield


class TestBlockedRawValues:
    """``raw_values`` evaluates blocks of ``BLOCK_ROWS`` rows and the ball
    maxima blocks of about ``JOIN_PAIRS`` candidate pairs, through
    ``_blockwise``; every block size gives the same bits as one block and
    as one row per call, with the blocks on a thread pool or inline."""

    @pytest.mark.parametrize("rows", [1, 7, None], ids=["1", "7", "above_m"])
    def test_blocks_equal_one_block_and_per_row_calls(self, shallow_box_tail,
                                                      monkeypatch, rows):
        field, pts = shallow_box_tail
        seq = field.baire
        # the query points, then every third center of each level under
        # the levels below it, as the build queries them
        cases = [(len(seq._levels), pts)] + [
            (n, seq._levels[n].blend.index.centers[::3])
            for n in range(1, len(seq._levels))]
        for n, batch in cases:
            one_block = levels_below(seq, n).raw_values(batch)
            monkeypatch.setattr(lf, "BLOCK_ROWS", rows or batch.shape[0] + 1)
            blocked = levels_below(seq, n).raw_values(batch)
            monkeypatch.undo()
            assert blocked.tobytes() == one_block.tobytes()
            assert blocked.shape == one_block.shape
            per_row = levels_below(seq, n)
            for i in range(0, batch.shape[0], 37):
                row = per_row.raw_values(batch[i:i + 1])
                assert row.tobytes() == blocked[i:i + 1].tobytes()

    def test_blocks_equal_the_unpruned_blend(self, shallow_box_tail,
                                             monkeypatch):
        field, pts = shallow_box_tail
        monkeypatch.setattr(lf, "BLOCK_ROWS", 7)
        seq = levels_below(field.baire, len(field.baire._levels))
        assert np.array_equal(seq.raw_values(pts),
                              raw_values_unpruned(field.baire, pts))

    @pytest.mark.parametrize("rows, pairs", [(1, 300), (7, 3000), (None, None)],
                             ids=["1", "7", "above_m"])
    def test_pool_and_inline_give_the_same_bits(self, shallow_box_tail,
                                                monkeypatch, rows, pairs):
        field, pts = shallow_box_tail
        pts = pts[::2]
        seq = field.baire
        top = lf._BlendField(field.majorants.index, field.majorants.c_vals[:, -1].copy())

        def evaluate():
            built = lf.build_lsc_field(field.spec, depth=2)
            return [levels_below(seq, len(seq._levels)).raw_values(pts),
                    built.majorants.c_vals, built.majorants(pts),
                    top.ball_upper_bound(pts, 0.1),
                    seq.level_upper_bound(seq.depth, pts, 0.1)]

        monkeypatch.setattr(lf, "_block_pool", lambda: None)
        monkeypatch.setattr(lf, "JOIN_PAIRS", 10**12)
        one_block = evaluate()
        # 506 rows in ragged blocks of 7 rows, and of 3 or 30 rows per join
        monkeypatch.setattr(lf, "BLOCK_ROWS", rows or pts.shape[0] + 1)
        monkeypatch.setattr(lf, "JOIN_PAIRS", pairs or 10**12)
        inline = evaluate()
        with ThreadPoolExecutor(3) as executor:
            monkeypatch.setattr(lf, "_block_pool", lambda: (executor, 3))
            pooled = evaluate()
        for a, b, c in zip(one_block, inline, pooled):
            assert a.tobytes() == b.tobytes() == c.tobytes()
            assert a.shape == b.shape == c.shape

    def test_coverage_error_names_the_first_bad_row(self, shallow_box_tail,
                                                    monkeypatch, three_threads):
        field, pts = shallow_box_tail
        bad = pts[:40].copy()
        bad[9] = (9.0, 9.0)      # block 1 of 7-row blocks
        bad[30] = (30.0, 30.0)   # block 4
        monkeypatch.setattr(lf, "BLOCK_ROWS", 7)
        with pytest.raises(CoverageError, match=re.escape("[9.0, 9.0]")):
            levels_below(field.baire, 2).raw_values(bad)

    def test_first_failure_in_batch_order_wins_over_the_first_in_time(
            self, three_threads):
        # block 2 fails first in time; block 1 fails only after it
        later = threading.Event()

        def fn(block):
            if block[0] == 1:
                assert later.wait(10)
                raise ValueError("block 1")
            if block[0] == 2:
                later.set()
                raise ValueError("block 2")
            return block

        with pytest.raises(ValueError, match="block 1"):
            lf._blockwise(fn, np.arange(6.0), 1)

    def test_blocks_see_the_callers_errstate(self, three_threads):
        # the first four blocks meet at a barrier, so four threads, three
        # of them the pool's, each run one
        meet = threading.Barrier(4, timeout=10)
        seen = []

        def fn(block):
            if block[0] < 4:
                meet.wait()
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return block

        with np.errstate(divide="ignore"):
            out = lf._blockwise(fn, np.arange(20.0), 1)
        assert np.array_equal(out, np.arange(20.0))
        assert len({ident for ident, _ in seen}) == 4
        assert {mode for _, mode in seen} == {"ignore"}

    def test_a_forked_child_drops_the_pool(self, monkeypatch):
        monkeypatch.setattr(lf, "_pool", object())   # a pool with no threads
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = lf._pool is None and np.array_equal(
                    lf._blockwise(np.negative, np.arange(8.0), 1), -np.arange(8.0))
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_empty_batch_gives_empty_matrices(self, shallow_box_tail):
        field, _ = shallow_box_tail
        empty = np.zeros((0, 2))
        assert field.baire.raw_values(empty).shape == (0, field.baire.depth)
        seps = field.majorants
        assert seps(empty).shape == (0, field.depth + 1)
        g = lf._BlendField(seps.index, seps.c_vals[:, 0].copy())
        assert g(empty).shape == (0,)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (3, 1), (1, 2, 1)])
    def test_wrong_shaped_batch_is_refused(self, shallow_box_tail, shape):
        field, _ = shallow_box_tail
        with pytest.raises(InputError, match=r"expected an \(m, 2\) batch"):
            field.baire.raw_values(np.full(shape, 0.1))


def majorant_from_bounds_ref(spec, bound_fns):
    """The per-level separator build that the one-blend build replaced,
    kept verbatim: one lattice and one index per separator."""
    scale = lf.MAJORANT_SCALE
    lo = np.asarray(spec.base_lo, dtype=float)
    hi = np.asarray(spec.base_hi, dtype=float)
    centers = lf._lattice(lo, hi, 0.5 * scale, pad=scale)
    m = np.full(centers.shape[0], -np.inf)
    for fn in bound_fns:
        m = np.maximum(m, np.asarray(fn(centers, scale), dtype=float))
    if np.any(m >= 1.0):
        raise InputError("majorant input must stay strictly below 1")
    c_vals = 0.5 * (1.0 + m)
    return lf._BlendField(lf._NeighborIndex(centers, scale), c_vals)


def separators_ref(spec, baire, depth):
    """``g_0 .. g_depth`` as ``build_lsc_field`` built them, one blend per
    separator."""
    majorants = [majorant_from_bounds_ref(
        spec, [lambda pts, reach: baire.level_upper_bound(1, pts, reach)])]
    for n in range(1, depth + 1):
        prev_g = majorants[-1]
        floor = 1.0 - 1.0 / n
        bound_fns = [
            prev_g.ball_upper_bound,
            lambda pts, reach, _lvl=n + 1: baire.level_upper_bound(_lvl, pts, reach),
            lambda pts, reach, _c=floor: np.full(pts.shape[0], _c),
        ]
        majorants.append(majorant_from_bounds_ref(spec, bound_fns))
    return majorants


class TestSeparatorBlend:
    """The separators are the columns of one blend over one lattice, and
    each column is bitwise the separator the per-level build made."""

    @pytest.mark.parametrize("shallow", [True, False], ids=["depth6", "depth12"])
    def test_columns_equal_the_per_level_build(self, box_tail_field,
                                               shallow_box_tail, shallow):
        field, pts = shallow_box_tail
        if not shallow:
            _, field, _ = box_tail_field
        seps = field.majorants
        ref = separators_ref(field.spec, field.baire, field.depth)
        assert seps.c_vals.shape == (seps.index.centers.shape[0], field.depth + 1)
        values = seps(pts)
        assert values.shape == (pts.shape[0], field.depth + 1)
        for n, g in enumerate(ref):
            assert np.array_equal(g.index.centers, seps.index.centers)
            assert np.array_equal(g.c_vals, seps.c_vals[:, n])
            assert np.array_equal(g(pts), values[:, n])

    def test_vector_constants_give_a_vector(self, shallow_box_tail):
        field, pts = shallow_box_tail
        seps = field.majorants
        g = lf._BlendField(seps.index, seps.c_vals[:, 0].copy())
        assert g(pts).shape == (pts.shape[0],)
        assert np.array_equal(g(pts), seps(pts)[:, 0])

    def test_one_index_per_level_and_one_for_the_separators(
            self, box_tail_field, monkeypatch):
        spec, _, transect = box_tail_field
        builds = []
        real = lf._NeighborIndex.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            real(self, *args, **kwargs)
        monkeypatch.setattr(lf._NeighborIndex, "__init__", counted)
        lf.build_lsc_field(spec, depth=4)
        # Baire levels 2..5, then the separators' lattice
        assert len(builds) == 4 + 1

    def test_one_separator_query_per_fibre_miss(self, box_tail_field,
                                                monkeypatch):
        spec, _, transect = box_tail_field
        field = lf.build_lsc_field(spec, depth=4)
        index = field.majorants.index
        queries = []
        real = index.pairs

        def counted(*args, **kwargs):
            queries.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(index, "pairs", counted)
        # one batched separator query for a whole table
        field.fibre_table(transect[:5])
        assert len(queries) == 1
        # a tabled fibre queries nothing
        for p in transect[:5]:
            field.fiber_data(p)
        assert len(queries) == 1
        # an untabled fibre makes one query on its miss
        untabled = np.array([0.3, -0.4])
        field.fiber_data(untabled)
        assert len(queries) == 2
        for p in [*transect[:5], untabled]:    # cache hits query nothing
            field.fiber_data(p)
        assert len(queries) == 2

    def test_bound_reaching_one_is_refused(self, box_tail_field, monkeypatch):
        # f_3 bounded by 1 leaves no room for g_2 below 1
        spec, _, transect = box_tail_field
        monkeypatch.setattr(
            lf.BaireSequence, "level_upper_bound",
            lambda self, level, pts, reach: np.full(pts.shape[0],
                                                    1.0 if level == 3 else 0.5))
        with pytest.raises(InputError, match="must stay strictly below 1"):
            lf.build_lsc_field(spec, depth=4)

    def test_previous_separator_out_of_reach_is_refused(self, box_tail_field,
                                                        monkeypatch):
        spec, _, transect = box_tail_field
        monkeypatch.setattr(
            lf.BaireSequence, "level_upper_bound",
            lambda self, level, pts, reach: np.full(pts.shape[0], 0.5))
        monkeypatch.setattr(
            lf._NeighborIndex, "max_over_balls",
            lambda self, pts, reach, values: np.full(pts.shape[0], -np.inf))
        with pytest.raises(CoverageError, match="outside the center cloud"):
            lf.build_lsc_field(spec, depth=4)


class TestBallBoundEdges:
    """The ball bounds and the separator blend refuse a bad level, batch or
    reach with ``InputError``, before any evaluation and with no warning."""

    PTS = np.array([[0.1, 0.12], [-0.3, 0.5]])
    BAD = {
        "bool level": (True, PTS, 0.25, "level must be an integer"),
        "float level": (2.0, PTS, 0.25, "level must be an integer"),
        "1-D points": (2, PTS[0], 0.25, re.escape("expected an (m, 2) batch")),
        "3-column points": (2, np.zeros((2, 3)), 0.25,
                            re.escape("expected an (m, 2) batch")),
        "inf point": (2, np.array([[np.inf, 0.0]]), 0.25, "must be finite"),
        "nan point": (2, np.array([[0.0, np.nan]]), 0.25, "must be finite"),
        "nan reach": (2, PTS, math.nan, "reach must be finite and >= 0"),
        "inf reach": (2, PTS, math.inf, "reach must be finite and >= 0"),
        "negative reach": (2, PTS, -0.1, "reach must be finite and >= 0"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_level_upper_bound_refuses(self, box_tail_field, case):
        level, pts, reach, match = self.BAD[case]
        with pytest.raises(InputError, match=match):
            box_tail_field[1].baire.level_upper_bound(level, pts, reach)

    @pytest.mark.parametrize("case", [c for c in sorted(BAD) if "level" not in c])
    def test_ball_upper_bound_refuses(self, box_tail_field, case):
        _, pts, reach, match = self.BAD[case]
        with pytest.raises(InputError, match=match):
            box_tail_field[1].majorants.ball_upper_bound(pts, reach)

    @pytest.mark.parametrize("pts", [[[np.nan, 0.0]], [[0.0, -np.inf]],
                                     [0.1, 0.12], [[0.1, 0.12, 0.0]]])
    def test_separator_blend_refuses(self, box_tail_field, pts):
        with pytest.raises(InputError, match="query points"):
            box_tail_field[1].majorants(pts)

    def test_zero_reach_is_accepted(self, box_tail_field):
        baire = box_tail_field[1].baire
        bound = baire.level_upper_bound(np.int64(2), self.PTS, 0.0)
        assert bound.shape == (2,) and np.all(np.isfinite(bound))


def tower_time(g, tau, level, x0, x1):
    """Crossing time from ``x0`` up to ``x1`` under tower level ``level`` of
    one fibre: :func:`lf._tower_time` on a batch of one row, at ends that
    broadcast, in their shape."""
    g, tau = np.asarray(g, dtype=float), np.asarray(tau, dtype=float)
    x0, x1 = np.broadcast_arrays(np.asarray(x0, dtype=float),
                                 np.asarray(x1, dtype=float))
    return lf._tower_time(g[None, :level + 1], tau[None, :level],
                          x0.reshape(1, -1), x1.reshape(1, -1)).reshape(x0.shape)


def tower_speed(g, tau, level, x):
    """Speed of tower level ``level`` of one fibre: :func:`lf._tower_speed`
    on a batch of one row, at points ``x`` in their shape."""
    g, tau = np.asarray(g, dtype=float), np.asarray(tau, dtype=float)
    x = np.asarray(x, dtype=float)
    return lf._tower_speed(g[None, :level + 1], tau[None, :level],
                           x.reshape(1, -1)).reshape(x.shape)


def band_tower(f, g):
    """Delays of the tower on one fibre with thresholds ``f`` and separators
    ``g``, built as the paper's adjust-time steps build them: the first
    delay is ``f_1``, each next the previous level's time from ``f_{k-1}``
    to ``f_k``."""
    tau = [f[0]]
    for k in range(1, len(g) - 1):
        tau.append(float(tower_time(g, tau, k, f[k - 1], f[k])))
    return np.asarray(tau)


class StubBaire:
    """Fixed thresholds at every base point."""

    def __init__(self, fs):
        self.fs = np.asarray(fs, dtype=float)

    def raw_values(self, points):
        return self.fs[None, :]


class TestAdjustTime:
    """The adjust-time steps, evaluated through the row kernels."""

    # first level: threshold 0.2, bridge band (0.4, 0.7)
    G1 = np.array([0.4, 0.7])
    # second level adds the band (0.7, 0.85) and re-times to 0.3
    G2 = np.array([0.4, 0.7, 0.85])

    def test_first_level_timing(self):
        # constant thresholds: unit travel plus the bridge delay sums to 1
        g = self.G1
        tau = band_tower([0.2], g)
        assert tower_time(g, tau, 1, 0.2, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert tower_time(g, tau, 1, 0.25, 1.0) < 1.0
        assert tower_time(g, tau, 1, 0.15, 1.0) == pytest.approx(1.05, abs=1e-12)

    def test_unit_speed_off_band(self):
        g = self.G1
        tau = band_tower([0.2], g)
        v = tower_speed(g, tau, 1, np.array([0.1, 0.39, 0.45, 0.65, 0.71, 0.9]))
        assert v[0] == 1.0 and v[1] == 1.0 and v[4] == 1.0 and v[5] == 1.0
        assert 0.0 < v[2] < 1.0 and 0.0 < v[3] < 1.0

    def test_second_level_retiming(self):
        g = self.G2
        tau = band_tower([0.2, 0.3], g)
        assert tower_time(g, tau, 2, 0.3, 1.0) == pytest.approx(1.0, abs=1e-6)
        # coincides with the previous level below its top separator
        xs = np.linspace(0.05, 0.69, 30)
        assert np.allclose(tower_speed(g, tau, 2, xs), tower_speed(g, tau, 1, xs))
        # unit speed above the new separator
        assert tower_speed(g, tau, 2, 0.9) == 1.0

    def test_delay_via_independent_quadrature(self):
        # the closed-form band delay equals the adaptive quadrature of the
        # previous level's reciprocal speed (dual route)
        g = self.G2
        tau = band_tower([0.2, 0.3], g)
        inv_speed = lambda x: 1.0 / tower_speed(g, tau, 1, x)
        ref, _, _ = flow1d.adaptive_quad(inv_speed, 0.2, 0.3, tol=1e-12)
        assert tau[1] == pytest.approx(ref, abs=1e-9)
        # the same identity across the first bridge band
        ref, _, _ = flow1d.adaptive_quad(inv_speed, 0.3, 0.6, tol=1e-12)
        assert tower_time(g, tau, 1, 0.3, 0.6) == pytest.approx(ref, abs=1e-9)

    @staticmethod
    def stub_field(fs, gs):
        def majorants(pts):
            # (m, 3): the separators g_0 .. g_2 at every base point
            return np.tile(np.asarray(gs, dtype=float),
                           (np.atleast_2d(pts).shape[0], 1))
        return lf.GluedField(constant_spec(0.5), StubBaire(fs), majorants, depth=2)

    def test_ordering_validation(self):
        # fiber_data refuses each violated ordering rule of the tower
        for fs, gs in [
            ([0.2, 0.1, 0.3], [0.4, 0.6, 0.8]),     # thresholds not increasing
            ([0.1, 0.2, 0.3], [0.4, 0.35, 0.8]),    # separators not increasing
            ([0.1, 0.2, 0.7], [0.4, 0.6, 0.65]),    # threshold above its separator
        ]:
            with pytest.raises(InputError):
                self.stub_field(fs, gs).fiber_data(np.zeros(1))

    def test_ordered_tower_accepted(self):
        field = self.stub_field([0.1, 0.2, 0.3], [0.4, 0.6, 0.8])
        f, g, tau = field.fiber_data(np.zeros(1))
        assert np.array_equal(tau, band_tower(f, g))


def reference_band_velocity(g, tau, level, x):
    """The band loop: one bridge call per band over all of ``x``."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    band = np.searchsorted(g, x)
    for k in range(1, level + 1):
        vals = bridge_velocity(g[k - 1], g[k], tau[k - 1], x)
        out = np.where(band == k, vals, out)
    return out


def reference_band_travel_time(g, tau, level, x0, x1):
    """The band loop: one scalar crossing time per band, summed in order."""
    total = x1 - x0
    for k in range(1, level + 1):
        a, b = max(x0, g[k - 1]), min(x1, g[k])
        if b > a:
            total += bridge_crossing_time(g[k - 1], g[k], tau[k - 1], a, b) - (b - a)
    return total


class TestBandPrimitives:
    def test_travel_time_runs_upward_through_the_bands(self, box_tail_field):
        # on the fibre over (0.1, 0.12) of a depth-4 tower, 0.1 -> 0.9 is
        # slowed by the bands
        field = lf.build_lsc_field(box_tail_field[0], depth=4)
        _, g, tau = field.fiber_data(np.array([0.1, 0.12]))
        assert tower_time(g, tau, 2, 0.1, 0.9) == pytest.approx(1.0896, abs=1e-4)
        assert tower_time(g, tau, 2, 0.4, 0.4) == 0.0

    def test_equal_band_loops_on_box_tail_fibres(self, box_tail_field):
        spec, field, transect = box_tail_field
        rng = np.random.default_rng(3)
        for p in transect[[2, 20, 33]]:
            f, g, tau = field.fiber_data(p)
            for level in range(1, field.depth + 1):
                xs = np.concatenate([
                    rng.uniform(0.0, g[-1], 60),
                    g,                                  # exactly on separators
                    rng.uniform(g[level], 1.0, 5),      # above the top band
                ])
                want = reference_band_velocity(g, tau, level, xs)
                assert np.array_equal(tower_speed(g, tau, level, xs), want)
                for x, w in zip(xs[::7], want[::7]):
                    assert tower_speed(g, tau, level, x) == w
                starts = np.concatenate([f, g[:level + 1], rng.uniform(0, 1, 5)])
                for x0 in starts:
                    x1 = float(rng.uniform(x0, 1.0))
                    for end in (x1, 1.0, float(g[level])):
                        if x0 > end:
                            continue        # times run upward only
                        assert (tower_time(g, tau, level, x0, end)
                                == reference_band_travel_time(g, tau, level, x0, end))


    @pytest.mark.parametrize("level", [1, 5, 12])
    def test_row_wise_travel_time_is_each_fibre_alone(self, box_tail_field,
                                                       level):
        _, field, transect = box_tail_field
        rng = np.random.default_rng(level)
        _, g, tau = field.fibre_table(transect)
        # permuted and repeated rows
        rows = np.array([2, 20, 33, 20, 45, 11, 2])
        g, tau = g[rows, :level + 1], tau[rows, :level]
        x0 = np.concatenate([rng.uniform(0.0, 1.0, (rows.size, 30)), g], axis=1)
        x1 = np.maximum(x0, rng.uniform(0.0, 1.0, x0.shape))
        x1[:, ::4] = 1.0
        got = lf._tower_time(g, tau, x0, x1)
        assert got.shape == x0.shape
        for r in range(rows.size):
            want = tower_time(g[r], tau[r], level, x0[r], x1[r])
            assert got[r].tobytes() == want.tobytes()


class TestIntegerArguments:
    """Levels and depths are integers: a bool or a non-integral value is
    refused before any evaluation, and numpy integers are accepted."""

    CALLS = {
        "level_upper_bound": lambda spec, field, transect, v:
            field.baire.level_upper_bound(v, transect[:2], 0.25),
        "glued_field": lambda spec, field, transect, v:
            lf.GluedField(spec, field.baire, field.majorants, v),
        "build_lsc_field": lambda spec, field, transect, v:
            lf.build_lsc_field(constant_spec(0.5), v),
        "baire_sequence": lambda spec, field, transect, v:
            lf.baire_sequence(constant_spec(0.5), v),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("value", [2.0, 2.5, True, np.float64(2.0), "2"])
    def test_non_integer_is_refused(self, box_tail_field, name, value):
        with pytest.raises(InputError, match=r"must be an integer, got "):
            self.CALLS[name](*box_tail_field, value)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_numpy_integer_is_accepted(self, box_tail_field, name):
        self.CALLS[name](*box_tail_field, np.int64(2))


class TestArrayExitTimes:
    """Exit times on arrays equal the scalar band time point by point, and
    the batch verdicts the per-point ones."""

    def test_band_travel_time_equals_the_scalar_one(self, box_tail_field):
        spec, field, transect = box_tail_field
        rng = np.random.default_rng(5)
        for p in transect[[2, 13, 20, 33, 47]]:
            f, g, tau = field.fiber_data(p)
            for level in range(1, field.depth + 1):
                x0 = np.concatenate([
                    rng.uniform(0.0, g[-1], 40),
                    g,                                  # exactly on separators
                    f,
                    rng.uniform(g[level], 1.0, 5),      # above the top band
                ])
                want = [band_travel_time_scalar(g, tau, level, x, 1.0)
                        for x in x0.tolist()]
                assert np.array_equal(tower_time(g, tau, level, x0, 1.0), want)
                # pairwise ends, a quarter of them empty stretches
                x1 = np.maximum(x0, rng.uniform(0.0, 1.0, x0.size))
                x1[::4] = x0[::4]
                want = [band_travel_time_scalar(g, tau, level, a, b)
                        for a, b in zip(x0.tolist(), x1.tolist())]
                assert np.array_equal(tower_time(g, tau, level, x0, x1), want)
                assert tower_time(g, tau, level, float(x0[0]),
                                  float(x1[0])) == want[0]

    def test_limit_times_and_verdicts_per_point(self, box_tail_field):
        spec, field, transect = box_tail_field
        xs = np.linspace(0.05, 0.9, 50)
        ps = transect[spec.boundary_distance(transect) >= 1e-3]
        excised, undecided = field.classify(ps, xs)
        assert excised.shape == undecided.shape == (ps.shape[0], xs.size)
        for p, row_ex, row_un in zip(ps, excised.tolist(), undecided.tolist()):
            want = [limit_verdict(field, p, x) for x in xs.tolist()]
            assert row_un == [v is None for v in want]
            assert row_ex == [v == "excised" for v in want]

    @pytest.mark.parametrize("depth", [2, 14])
    def test_classify_equals_the_per_point_reference(self, box_tail_field,
                                                     depth):
        # bit for bit in its masks, on permuted and repeated fibres and at
        # points on and above each fibre's deepest separator
        spec, _, transect = box_tail_field
        field = lf.build_lsc_field(spec, depth=depth)
        ps = transect[[2, 20, 33, 20, 45, 11, 2, 24, 25]]
        top = field.fibre_table(ps)[1][:3, -1]
        xs = np.concatenate([np.linspace(0.0, 1.0, 41), top,
                             np.nextafter(top, 0.0), np.nextafter(top, 1.0)])
        excised, undecided = field.classify(ps, xs)
        assert np.any(excised) and np.any(undecided)
        assert np.any(~(excised | undecided))
        for p, row_ex, row_un in zip(ps, excised.tolist(), undecided.tolist()):
            want = [limit_verdict(field, p, x) for x in xs.tolist()]
            assert row_un == [v is None for v in want]
            assert row_ex == [v == "excised" for v in want]

    def test_points_above_the_tower_are_undecided(self, box_tail_field):
        # a point at or above the deepest separator is undecided, and the
        # other points of its fibre keep their verdicts
        _, field, transect = box_tail_field
        p = transect[5]
        top = float(field.fiber_data(p)[1][-1])
        xs = np.array([0.3, top, np.nextafter(top, 1.0), 0.5])
        excised, undecided = field.classify(p[None], xs)
        assert undecided.tolist() == [[False, True, True, False]]
        assert not np.any(excised[undecided])
        for x, ex in zip(xs[[0, 3]].tolist(), excised[0, [0, 3]].tolist()):
            assert limit_verdict(field, p, x) == ("excised" if ex else "survives")


def level_checks_per_fibre(field, fibres, xs):
    """The per-fibre loops of box-tail's threshold and nesting checks that
    ``GluedField.level_checks`` batches, kept as its reference."""
    mism = tested = 0
    nest_ok = coincide_ok = True
    for p in fibres:
        f, g, tau = field.fiber_data(p)
        for lvl in (1, max(2, field.depth // 2), field.depth):
            fn = f[lvl - 1]
            x = xs[~(np.abs(xs - fn) < 1e-6)]
            tested += x.size
            t_exit = tower_time(g, tau, lvl, x, 1.0)
            mism += int(np.count_nonzero((t_exit <= 1.0) != (x >= fn)))
        xs_f = np.linspace(0.05, float(g[-1]) - 1e-3, 40)
        prev = None
        for lvl in range(1, field.depth + 1):
            v = tower_speed(g, tau, lvl, xs_f)
            if prev is not None:
                nest_ok &= bool(np.all(v <= prev + 1e-14)) and bool(np.all(v > 0))
                low = xs_f <= g[lvl - 1]
                coincide_ok &= bool(np.all(v[low] == prev[low]))
                high = xs_f >= g[lvl]
                coincide_ok &= bool(np.all(v[high] == 1.0))
            prev = v
    return mism, tested, nest_ok and coincide_ok


class TestGluedField:
    def test_grid_fibres_equal_the_one_point_path(self, box_tail_field):
        # the rows of one table equal one-point fiber_data on a fresh field
        spec, field, transect = box_tail_field
        tabled = lf.GluedField(spec, field.baire, field.majorants, field.depth)
        one_point = lf.GluedField(spec, field.baire, field.majorants,
                                  field.depth)
        table = tabled.fibre_table(transect)
        assert [a.shape for a in table] == [(50, field.depth + 1),
                                            (50, field.depth + 1),
                                            (50, field.depth)]
        assert len(tabled._fiber_cache) == transect.shape[0]
        for i, p in enumerate(transect):
            want = one_point.fiber_data(p)
            cached = tabled.fiber_data(p)
            for row, b, a in zip(table, want, cached):
                assert row[i].tobytes() == a.tobytes() == b.tobytes()
                assert row[i].shape == a.shape == b.shape
            # the delays are the per-fibre recursion's
            assert table[2][i].tobytes() == band_tower(*want[:2]).tobytes()

    def test_table_with_a_bad_row_is_refused(self, box_tail_field,
                                             monkeypatch):
        # every row of a table is checked: one bad row refuses the table,
        # and no row of it is stored
        spec, field, transect = box_tail_field
        bad = lf.GluedField(spec, field.baire, field.majorants, field.depth)
        fs = field.baire.raw_values(transect[:3]).copy()
        fs[1] = fs[1, ::-1]
        monkeypatch.setattr(field.baire, "raw_values", lambda pts: fs)
        with pytest.raises(InputError, match=re.escape(
                "tower ordering violated at base point "
                f"{transect[1].tolist()}")):
            bad.fibre_table(transect[:3])
        assert not bad._fiber_cache

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fibre_point_is_refused(self, box_tail_field, bad):
        _, field, transect = box_tail_field
        for x in (bad, np.array([0.3, bad])):
            with pytest.raises(InputError, match="fibre points must be finite"):
                field.classify(transect[4:6], x)

    def test_cached_rows_are_read_not_tabled(self, box_tail_field,
                                             monkeypatch):
        # a fully cached table makes no raw_values call; a mixed one
        # tables its misses only; every row has its one-table bits
        spec, field, transect = box_tail_field
        tabled = lf.GluedField(spec, field.baire, field.majorants, field.depth)
        fresh = lf.GluedField(spec, field.baire, field.majorants, field.depth)
        tabled.fibre_table(transect[:10])
        calls = []
        real = field.baire.raw_values
        monkeypatch.setattr(field.baire, "raw_values",
                            lambda pts: calls.append(len(pts)) or real(pts))
        rows = [3, 1, 3, 9]
        for got, want in zip(tabled.fibre_table(transect[rows]),
                             fresh.fibre_table(transect[rows])):
            assert got.tobytes() == want.tobytes()
        assert calls == [4]                 # the fresh table's one call
        rows = [12, 3, 15, 0, 12]
        got = tabled.fibre_table(transect[rows])
        assert calls == [4, 3]              # the misses 12, 15, 12 only
        assert len(tabled._fiber_cache) == 12
        for table_col, want in zip(got, fresh.fibre_table(transect[rows])):
            assert table_col.shape == want.shape
            assert table_col.tobytes() == want.tobytes()

    @pytest.mark.parametrize("depth", [2, 4, 14])
    @pytest.mark.parametrize("tampered", [False, True])
    def test_level_checks_equal_the_per_fibre_loops(self, box_tail_field,
                                                     depth, tampered):
        # the batched threshold and nesting counts are the per-fibre loops'
        # on exact towers, and on towers whose delays are scaled down with
        # the second band's negated on one fibre, where both checks fail
        spec, _, transect = box_tail_field
        field = lf.build_lsc_field(spec, depth=depth)
        xs = np.linspace(0.05, 0.9, 50)[:-1]
        f, g, tau = field.fibre_table(transect)
        if tampered:
            tau = 0.7 * tau
            tau[7, 1] = -tau[7, 1]
            for row, f_r, g_r, tau_r in zip(transect, f, g, tau):
                field._fiber_cache[row.tobytes()] = (f_r, g_r, tau_r)
        got = field.level_checks(transect, xs)
        assert got == level_checks_per_fibre(field, transect, xs)
        if tampered:
            assert got[0] > 0 and got[2] is False
        else:
            assert got[0] == 0 and got[2] is True
        if depth == 14 and not tampered:
            assert got == (0, 7350, True)
        # the batched sample points are each fibre's own
        xs_f = np.linspace(0.05, g[:, -1] - 1e-3, 40, axis=1)
        for r, top in enumerate(g[:, -1].tolist()):
            assert (xs_f[r].tobytes()
                    == np.linspace(0.05, top - 1e-3, 40).tobytes())

    def test_level_checks_of_no_fibre_test_nothing(self, box_tail_field):
        _, field, _ = box_tail_field
        xs = np.linspace(0.05, 0.9, 8)
        assert field.level_checks(np.zeros((0, 2)), xs) == (0, 0, True)

    @pytest.mark.parametrize("x", [1.5, -0.5, [0.3, 1.0 + 1e-12], [-1e-300, 0.3]])
    def test_point_off_the_fibre_is_refused(self, box_tail_field, x):
        _, field, transect = box_tail_field
        with pytest.raises(InputError, match=re.escape("lie in [0, 1]")):
            field.classify(transect[4:6], x)
        # the ends of the fibre are on it; the top end lies above the tower
        excised, undecided = field.classify(transect[4:5], [0.0, 1.0])
        assert (excised.tolist(), undecided.tolist()) == ([[False, False]],
                                                          [[False, True]])
        assert field.level_checks(transect[4:5], [0.0, 1.0]) == (0, 6, True)

    @pytest.mark.parametrize("xs", [[np.nan, 0.5], [1.5, 0.5], [-0.3, 0.5],
                                    [np.inf]])
    def test_level_checks_refuse_bad_fibre_points(self, box_tail_field, xs):
        # such points used to count as tested, and as passing
        _, field, transect = box_tail_field
        with pytest.raises(InputError, match="fibre points must"):
            field.level_checks(transect[:2], xs)

    def test_cached_fibre_data_is_read_only(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[9]
        want = field.fiber_data(p)[2].copy()
        for arr in field.fiber_data(p):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert np.array_equal(field.fiber_data(p)[2], want)

    def test_non_finite_base_point_is_refused(self, box_tail_field):
        _, field, _ = box_tail_field
        with pytest.raises(InputError, match="query points must be finite"):
            field.fiber_data(np.array([np.nan, 0.1]))

    def test_tower_thresholds_are_exact(self, box_tail_field):
        spec, field, transect = box_tail_field
        f, g, tau = field.fiber_data(transect[7])
        for lvl in (1, 4, field.depth):
            t = tower_time(g, tau, lvl, f[lvl - 1], 1.0)
            assert t == pytest.approx(1.0, abs=1e-10)

    def test_level_classification(self, box_tail_field):
        spec, field, transect = box_tail_field
        rng = np.random.default_rng(0)
        for _ in range(150):
            f, g, tau = field.fiber_data(transect[rng.integers(0, transect.shape[0])])
            lvl = int(rng.integers(1, field.depth + 1))
            fn = float(f[lvl - 1])
            for dx in (-0.05, -1e-4, 1e-4, 0.05):
                x = fn + dx
                if not (0.0 < x < 0.9):
                    continue
                t = tower_time(g, tau, lvl, x, 1.0)
                assert (t <= 1.0) == (x >= fn)

    def test_limit_classification(self, box_tail_field):
        spec, field, transect = box_tail_field
        xs = np.linspace(0.05, 0.9, 50)
        ps = transect[spec.boundary_distance(transect) >= 1e-3]
        lam = spec.lam(ps)[:, None]
        excised, undecided = field.classify(ps, xs)
        kept = ~(np.abs(xs - lam) < 1e-3)
        assert not np.any(undecided[kept])
        assert np.array_equal(excised[kept], (xs >= lam)[kept])

    def test_cutoff_freezes_bottom(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[3]
        f1 = float(field.fiber_data(p)[0][0])
        assert field.fibres(p[None]).fields[0](0.25 * f1) == 0.0

    def test_backward_time_is_unbounded(self, box_tail_field):
        spec, field, transect = box_tail_field
        fiber = field.fibres(transect[11:12]).fields[0]
        tof = flow1d.backward_time(fiber, 0.5)
        assert tof.value == -math.inf

    def test_fibre_roundtrip(self, box_tail_field):
        spec, field, transect = box_tail_field
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(30):
            p = transect[rng.integers(0, transect.shape[0])]
            fiber = field.fibres(p[None]).fields[0]
            x_t = rng.uniform(0.3, 0.85)
            x_b = flow1d.flow_map(fiber, -1.0, x_t)
            x_f = flow1d.flow_map(fiber, 1.0, x_b)
            worst = max(worst, abs(x_f - x_t))
        assert worst <= 1e-8

    @settings(max_examples=25)
    @given(i=st.integers(0, 49), x=st.floats(0.3, 0.85), t=st.floats(0.0, 1.0))
    def test_backward_then_forward_is_identity(self, box_tail_field, i, x, t):
        _, field, transect = box_tail_field
        fiber = field.fibres(transect[i:i + 1]).fields[0]
        back = flow1d.flow_map(fiber, -t, x)
        assert abs(flow1d.flow_map(fiber, t, back) - x) <= 1e-8

    def test_is_a_per_fibre_field(self, box_tail_field):
        # a field of fibres, not an ambient one; a batch where one base
        # point belongs is refused at the edge, not deep inside
        _, field, transect = box_tail_field
        assert not isinstance(field, null_fields.EpigraphField)
        assert not hasattr(field, "jet")
        with pytest.raises(InputError, match=r"base point must have shape \(2,\)"):
            field.fiber_data(transect[2:5])

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (1, 2), (2, 2)])
    def test_base_point_shape_is_checked(self, box_tail_field, shape):
        _, field, _ = box_tail_field
        with pytest.raises(InputError, match="base point must have shape"):
            field.fiber_data(np.full(shape, 0.1))

    def test_depth_exhaustion_is_loud(self, box_tail_field):
        spec, field, transect = box_tail_field
        p = transect[5]
        top = float(field.fiber_data(p)[1][-1])
        fibres = field.fibres(p[None])
        with pytest.raises(DepthExhausted):
            fibres.fields[0](top + 1e-6)
        with pytest.raises(DepthExhausted):
            fibres.velocity(np.array([0]), np.full((1, 15), top))


def tower_nodes(f, g) -> np.ndarray:
    """Points of one fibre in every part of the glued tower: inside the
    cutoff below ``f_1/2``, on its ramp, at unit speed below ``g_0``, in
    every band, on every separator below the top and just above it."""
    f1 = float(f[0])
    return np.concatenate([
        [0.25 * f1, 0.5 * f1, 0.75 * f1, 0.5 * (f1 + g[0])],
        0.5 * (g[:-1] + g[1:]), g[:-1], np.nextafter(g[:-1], 1.0)])


class TestGluedFibres:
    """``GluedField.fibres`` flows a batch of fibres: every value and every
    flow is bitwise that fibre's own, as in a batch of one."""

    ROWS = [2, 20, 33, 20, 45, 11]

    def test_batch_velocity_is_each_fibre_alone(self, box_tail_field):
        _, field, transect = box_tail_field
        ps = transect[self.ROWS]
        nodes = np.stack([tower_nodes(*field.fiber_data(p)[:2]) for p in ps])
        fibres = field.fibres(ps)
        assert len(fibres.fields) == len(self.ROWS)
        for rows in (np.arange(len(self.ROWS)), np.array([5, 0, 0, 3, 1])):
            got = fibres.velocity(rows, nodes[rows])
            for r, row in zip(rows, got):
                want = field.fibres(ps[r][None]).fields[0](nodes[r])
                assert row.tobytes() == want.tobytes()
                assert want.tobytes() == fibres.fields[r](nodes[r]).tobytes()
        # the cutoff freezes the bottom, and every band slows the flow
        depth = field.depth
        assert np.all(got[:, 0] == 0.0)
        assert np.all(got[:, 4:4 + depth] < 1.0)

    def test_empty_batch(self, box_tail_field):
        _, field, _ = box_tail_field
        fibres = field.fibres(np.zeros((0, 2)))
        assert list(fibres.fields) == []
        got = fibres.velocity(np.zeros(0, dtype=int), np.zeros((0, 15)))
        assert got.shape == (0, 15)
        assert flow1d.flow_map_batch(fibres, 1.0, []).shape == (0,)

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (1, 2, 2)])
    def test_base_point_shape_is_checked(self, box_tail_field, shape):
        _, field, _ = box_tail_field
        with pytest.raises(InputError, match=r"base points must have shape \(m, 2\)"):
            field.fibres(np.full(shape, 0.1))

    def test_round_trips_are_the_per_fibre_chain(self, box_tail_field):
        _, field, transect = box_tail_field
        rng = np.random.default_rng(5)
        idx = rng.integers(0, transect.shape[0], 12)
        x_t = np.array([rng.uniform(float(field.fiber_data(p)[0][0]), 0.9)
                        for p in transect[idx]])
        back, there = [], []
        for p, x in zip(transect[idx], x_t.tolist()):
            fiber = field.fibres(p[None]).fields[0]
            back.append(flow1d.flow_map(fiber, -1.0, x))
            there.append(flow1d.flow_map(fiber, 1.0, back[-1]))
        back, there = np.array(back), np.array(there)
        for order in (np.arange(12), rng.permutation(12)):
            fibres = field.fibres(transect[idx[order]])
            x_b = flow1d.flow_map_batch(fibres, -1.0, x_t[order])
            assert x_b.tobytes() == back[order].tobytes()
            x_f = flow1d.flow_map_batch(fibres, 1.0, x_b)
            assert x_f.tobytes() == there[order].tobytes()

    def test_one_kernel_serves_every_evaluation(self, box_tail_field,
                                                monkeypatch):
        _, field, transect = box_tail_field
        calls = []
        real = lf._tower_speed

        def spy(g, tau, x):
            calls.append(x.shape)
            return real(g, tau, x)
        monkeypatch.setattr(lf, "_tower_speed", spy)
        field.fibres(transect[7:8]).fields[0](np.full(3, 0.5))
        field.fibres(transect[[7, 8]]).velocity(np.array([1, 0]),
                                                np.full((2, 15), 0.5))
        assert calls == [(1, 3), (2, 15)]
