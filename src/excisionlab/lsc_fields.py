"""Excision fields for epigraphs of lower semi-continuous functions.

The target function ``lam`` on a bounded base region is piecewise constant:
finitely many closed boxes carry values in (0, 1], the minimum wins on
overlaps, and the default off every box is 1.  The pipeline has three
stages:

1. a strictly increasing sequence of smooth minorants ``f_n`` converging to
   ``lam`` from below, built level by level from blended lattice bumps
   whose constants sit strictly between the previous level and the target
   (:func:`baire_sequence`).  :meth:`BaireSequence.raw_values` evaluates a
   batch in blocks of ``BLOCK_ROWS`` rows, every level of a block before
   the next block, so each block's candidate arrays stay cache-sized; every
   row depends only on its own pairs, so blocking changes no bit;
2. smooth separators ``g_n`` with ``f_{n+1} < g_n < g_{n+1} < 1`` and
   ``sup g_n = 1``: the columns of one bump blend over one lattice, whose
   constants in column ``n`` sit above an exact over-ball bound of the
   functions ``g_n`` must dominate (built in :func:`build_lsc_field`);
3. a tower of unit-capped velocities on ``B x (0, 1)``, one stack of
   bridge bands per fibre: level ``n`` keeps level ``n-1`` below
   ``g_{n-1}``, adds the band ``(g_{n-1}, g_n)`` and runs at unit speed
   above ``g_n``.  The first band's delay is ``f_1``, so level 1 exits
   within time 1 exactly above ``f_1``; each next delay is the level
   ``n-1`` travel time from ``f_{n-1}`` to ``f_n``, which re-times the
   threshold to ``f_n``.  :meth:`GluedField.fibre_table` gives the
   thresholds, separators and delays of a batch of fibres: it reads the
   rows already in ``_fiber_cache`` and computes and stores only the
   others, so it is the one reader of tower data over one store.  The band
   primitive :func:`band_velocity` / :func:`band_travel_time` evaluates
   any level from them at a whole array of points of the fibre: one bridge
   call over every crossed (point, band) pair, summed band by band per
   point.  Speed and travel time are row-wise kernels, :func:`_tower_speed`
   and :func:`_tower_time`, with a single fibre as their one-row case;
   :meth:`GluedField.level_checks`, box-tail's threshold and nesting
   checks, runs them over a whole fibre table, one batch per level.

The limit field is evaluated lazily band by band; its exit time is at most
1 exactly on the epigraph ``{x >= lam(p)}``, and the final flat cutoff
below ``f_1(p)/2`` makes every backward trajectory take infinite time.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoverageError, DepthExhausted, InputError
from .flow1d import Fibres
from .scalar_kit import (
    ScalarField1D,
    ball_bump_from_sq,
    bridge_crossing_time,
    bridge_velocity,
    smooth_box_plateau,
    smooth_step,
)

__all__ = [
    "LscSpec",
    "BaireSequence",
    "baire_sequence",
    "band_velocity",
    "band_travel_time",
    "FiberData",
    "GluedField",
    "build_lsc_field",
]

# plateau margin of the high-side gating; kept below every classification
# margin so the gating collars never reach test points
GATE_HI_MARGIN = 1e-4

# bump-blend radius of all separators; their supremum is driven to 1 by the
# (1 - 1/n) floor, so the blend scale can stay fixed
MAJORANT_SCALE = 0.25

# query rows per block of a tower evaluation: at the deepest box-tail level
# a block's candidate arrays then hold about 75k pairs, about 0.6 MB each
BLOCK_ROWS = 2048


def _check_integer(name: str, value) -> None:
    """Refuse a bool or a non-integral count; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")


def _query_batch(points, dim: int) -> np.ndarray:
    """An ``(m, dim)`` batch of finite query points as a float array; any
    other shape, or a non-finite point, is refused."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise InputError(f"expected an (m, {dim}) batch of query points")
    if not np.all(np.isfinite(pts)):
        raise InputError("query points must be finite")
    return pts


# ---------------------------------------------------------------------------
# the target: piecewise-constant lower semi-continuous functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LscSpec:
    """Bounded base box with closed value-boxes; ``lam = min`` over covering
    boxes, 1 off all of them.  Closed boxes carrying the smaller value make
    ``lam`` lower semi-continuous by construction."""

    base_lo: tuple
    base_hi: tuple
    pieces: tuple  # ((lo, hi, value), ...) with lo/hi coordinate tuples

    def __post_init__(self):
        base_lo = np.asarray(self.base_lo, dtype=float)
        base_hi = np.asarray(self.base_hi, dtype=float)
        if base_lo.shape != base_hi.shape:
            raise InputError("base_lo and base_hi differ in length")
        if not (np.all(np.isfinite(base_lo)) and np.all(np.isfinite(base_hi))):
            raise InputError("base box corners must be finite")
        if np.any(base_lo > base_hi):
            raise InputError("base box corners out of order")
        for lo, hi, value in self.pieces:
            if not (0.0 < value <= 1.0):
                raise InputError("piece values must lie in (0, 1]")
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            if lo.shape != base_lo.shape or hi.shape != base_lo.shape:
                raise InputError(
                    f"piece corners must have the base's {base_lo.size} "
                    f"coordinates")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise InputError("piece corners must be finite")
            if np.any(hi < lo):
                raise InputError("piece corners out of order")

    @property
    def dim(self) -> int:
        return len(self.base_lo)

    def lam(self, points):
        """Target values at an ``(m, dim)`` batch."""
        pts = np.asarray(points, dtype=float)
        out = np.ones(pts.shape[0])
        for lo, hi, value in self.pieces:
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            inside = np.all((pts >= lo) & (pts <= hi), axis=1)
            out = np.where(inside, np.minimum(out, value), out)
        return out

    def boundary_distance(self, points):
        """Distance to the nearest piece face (the discontinuity set of
        ``lam`` lives on piece boundaries) at an ``(m, dim)`` batch; used to
        carve margin bands."""
        pts = np.asarray(points, dtype=float)
        best = np.full(pts.shape[0], np.inf)
        for lo, hi, _ in self.pieces:
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            outside = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
            d_out = np.linalg.norm(outside, axis=1)
            inside_margin = np.min(np.minimum(pts - lo, hi - pts), axis=1)
            d = np.where(d_out > 0.0, d_out, np.maximum(inside_margin, 0.0))
            best = np.minimum(best, d)
        return best


# ---------------------------------------------------------------------------
# lattice centers and cell-hashed neighbor sums
# ---------------------------------------------------------------------------

def _lattice(lo, hi, pitch, pad):
    axes = [np.arange(l - pad, h + pad + 0.5 * pitch, pitch) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D float array in lexicographic order, each run of
    equal rows kept once: ``np.unique(a, axis=0)`` from one stable
    ``lexsort``.  Of equal rows, such as rows that differ only in the sign
    of a zero, the first in input order is kept; at every level of the
    box-tail tower that is the row ``np.unique`` keeps, byte for byte."""
    rows = a[np.lexsort(a.T[::-1])]
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[keep]


class _NeighborIndex:
    """Cell hash over a fixed center set: the centers sorted by cell code,
    and a cell-start table.  ``pairs`` returns candidate (query, center)
    index pairs for all centers within ``reach`` of each query as a join.

    Cell codes ravel the key box in C order, so the ``2*span + 1``
    neighbour cells that differ only in the last key axis have consecutive
    codes: each such row of cells, its last axis clipped to the key box, is
    one run of sorted positions, from ``_cell_start[first cell]`` up to
    ``_cell_start[last cell + 1]``, so it costs two ``take`` lookups: at
    ``span = 1`` in 2-D, 3 rows per query instead of 9 cells.  The table
    has one entry per cell of the key box plus one; a lattice of pitch
    ``radius / 2`` puts about ``2**dim`` centers in each cell, so the
    table is the smaller array.

    Each query's candidates come cell by cell, the neighbour cells in C
    order of their offsets (rows in ``_row_offsets`` order, the last key
    axis fastest within a row), and within a cell in ascending center
    index: in ascending sorted position per row, as the stable sort keeps
    equal codes in index order.  The ``bincount`` blends sum each query's
    weights in that order, so it fixes their last digits."""

    def __init__(self, centers: np.ndarray, radius: float):
        self.centers = centers
        self.radius = radius
        self.dim = centers.shape[1]
        keys = np.floor(centers / radius).astype(np.int64)
        if keys.shape[0]:
            self._key_lo = keys.min(axis=0)
            self._key_shape = keys.max(axis=0) - self._key_lo + 1
        else:
            self._key_lo = np.zeros(self.dim, dtype=np.int64)
            self._key_shape = np.zeros(self.dim, dtype=np.int64)
        self._key_strides = np.append(
            np.cumprod(self._key_shape[:0:-1])[::-1], 1
        ).astype(np.int64)
        codes = (keys - self._key_lo) @ self._key_strides
        self._order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[self._order]
        # cell c holds the sorted positions _cell_start[c] .. _cell_start[c+1] - 1
        self._cell_start = np.searchsorted(
            self._sorted_codes, np.arange(int(np.prod(self._key_shape)) + 1))
        # center columns in sorted order, read by sorted position
        self._sorted_cols = [np.ascontiguousarray(col)
                             for col in centers.take(self._order, axis=0).T]

    def _row_offsets(self, span: int) -> np.ndarray:
        """Neighbour-cell offsets in all but the last key axis, in C order:
        one per row of cells."""
        rows = list(itertools.product(range(-span, span + 1), repeat=self.dim - 1))
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.dim - 1)

    def pairs(self, pts: np.ndarray, reach: Optional[float] = None,
              positions: bool = False):
        """Candidate pairs ``(qi, ci)``, query-major; with ``positions``
        the centers come as sorted positions ``pos`` (``ci = _order[pos]``)."""
        reach = self.radius if reach is None else reach
        span = int(math.ceil(reach / self.radius))
        keys = np.floor(pts / self.radius).astype(np.int64) - self._key_lo
        # (m, n_rows, dim - 1) leading keys of each row of neighbour cells,
        # and each row's last-axis key range clipped to the key box
        lead = keys[:, None, :-1] + self._row_offsets(span)
        last_lo = np.maximum(keys[:, -1] - span, 0)
        last_hi = np.minimum(keys[:, -1] + span, self._key_shape[-1] - 1)
        in_box = (np.all((lead >= 0) & (lead < self._key_shape[:-1]), axis=2)
                  & (last_lo <= last_hi)[:, None])
        q_rows, _ = np.nonzero(in_box)      # query-major, rows in order
        row_code = lead[in_box] @ self._key_strides[:-1]
        start = self._cell_start.take(row_code + last_lo.take(q_rows))
        counts = self._cell_start.take(row_code + last_hi.take(q_rows) + 1) - start
        # expand each (query, row) run of sorted centers
        run_start = np.cumsum(counts) - counts
        pos = np.arange(int(counts.sum())) + np.repeat(start - run_start, counts)
        qi = np.repeat(q_rows, counts).astype(np.int64, copy=False)
        return qi, (pos if positions else self._order.take(pos))

    def _sq_dist(self, pts: np.ndarray, qi: np.ndarray,
                 pos: np.ndarray) -> np.ndarray:
        """``|pts[qi] - centers[_order[pos]]|^2`` per pair, summed over the
        columns in order (as ``np.sum(..., axis=1)`` sums them) without
        ``(n, dim)`` temporaries."""
        d2 = None
        for p_col, c_col in zip(pts.T, self._sorted_cols):
            diff = np.ascontiguousarray(p_col).take(qi)
            diff -= c_col.take(pos)
            diff *= diff
            # the first column is its own sum: 0.0 + diff is diff, bit for bit
            d2 = diff if d2 is None else np.add(d2, diff, out=d2)
        return d2

    def support(self, pts: np.ndarray):
        """The candidate pairs inside the bump support, ``(qi, ci, q)``,
        with their squared relative radii ``q = d^2 / radius^2 < 1``.

        A dropped pair (``q >= 1``) would carry the weight ``+0.0`` through
        the gate and kill factors and add ``+0.0`` to its query's
        ``bincount`` sums; the kept pairs keep their order, so every blend
        is bitwise the same as over all candidates.  Center indices are
        formed for the kept pairs only."""
        qi, pos = self.pairs(pts, positions=True)
        q = self._sq_dist(pts, qi, pos)
        q /= self.radius * self.radius
        inside = np.flatnonzero(q < 1.0)
        return qi.take(inside), self._order.take(pos.take(inside)), q.take(inside)

    def max_over_balls(self, pts: np.ndarray, reach: float,
                       values: np.ndarray) -> np.ndarray:
        """Per query point, the max of ``values`` over centers within
        ``reach``; minus infinity where no center is in reach."""
        qi, pos = self.pairs(pts, reach=reach, positions=True)
        keep = np.flatnonzero(self._sq_dist(pts, qi, pos) <= reach * reach)
        qi, ci = qi.take(keep), self._order.take(pos.take(keep))
        out = np.full(pts.shape[0], -np.inf)
        if qi.size:
            # pairs are query-major: one max per run of equal queries
            first = np.flatnonzero(np.diff(qi, prepend=-1))
            out[qi[first]] = np.maximum.reduceat(values[ci], first)
        return out


class _BlendField:
    """Lattice-bump blend ``sum w_i c_i / sum w_i`` of per-center constants
    ``c_vals`` over bumps centred on ``index``, whose cell size is the bump
    radius; a ``(centers, k)`` matrix of constants makes ``k`` blends."""

    def __init__(self, index: _NeighborIndex, c_vals: np.ndarray):
        self.index = index
        self.c_vals = c_vals

    def weights(self, pts: np.ndarray):
        """The (query, center) pairs inside the bump support and their bump
        weights, ``(qi, ci, w)``, in the order of :meth:`_NeighborIndex.pairs`."""
        qi, ci, q = self.index.support(pts)
        return qi, ci, ball_bump_from_sq(q)

    def __call__(self, points):
        """``(m,)`` blend values, or ``(m, k)`` for a matrix of constants:
        one ``bincount`` per column, bitwise the blend of that column."""
        pts = _query_batch(points, self.index.dim)
        m = pts.shape[0]
        qi, ci, w = self.weights(pts)
        den = np.bincount(qi, weights=w, minlength=m)
        if np.any(den <= 0.0):
            raise CoverageError("majorant blend not covering a query point")
        k = int(np.prod(self.c_vals.shape[1:]))
        c = self.c_vals.take(ci, axis=0).reshape(ci.size, k)
        num = np.column_stack([np.bincount(qi, weights=w * col, minlength=m)
                               for col in c.T])
        return (num / den[:, None]).reshape((m,) + self.c_vals.shape[1:])

    def ball_upper_bound(self, pts, reach: float) -> np.ndarray:
        """Exact upper bound for ``sup`` of the blend over balls of radius
        ``reach``: the max of its constants over centers within ``reach``
        plus the bump radius (a blend never exceeds the constants that
        reach into the ball).  ``reach`` must be finite and nonnegative."""
        pts = _query_batch(pts, self.index.dim)
        if not (math.isfinite(reach) and reach >= 0.0):
            raise InputError(f"reach must be finite and >= 0, got {reach!r}")
        bound = self.index.max_over_balls(pts, reach + self.index.radius,
                                          self.c_vals)
        if np.any(~np.isfinite(bound)):
            raise CoverageError("upper-bound query outside the center cloud")
        return bound


# ---------------------------------------------------------------------------
# the smooth minorant sequence
# ---------------------------------------------------------------------------

@dataclass
class _BaireLevel:
    n: int
    blend: _BlendField        # bumps of radius 1/n and their constants
    gate_scale: np.ndarray    # per-center softness of the low-side gate
    kill_rank: np.ndarray     # pieces with value <= c are excluded high-side


class BaireSequence:
    """Strictly increasing smooth minorants of the target function.

    Level values are blends ``sum w_i c_i / sum w_i`` over lattice bumps of
    radius ``1/n``.  A bump contributes at ``q`` only when its constant
    exceeds the previous level there (low gate, a relative smooth step) and
    ``q`` is clear of every piece whose value its constant dominates (high
    gate, complements of piece plateaus).  The gates force strict level
    monotonicity and strict minorization of the target, while the ball
    radius and the constants' ``(1 - 1/n)`` floor give the over-ball lower
    bound.
    """

    def __init__(self, spec: LscSpec):
        self.spec = spec
        self._levels: list[_BaireLevel] = []
        self._cache: dict[bytes, np.ndarray] = {}

    @property
    def depth(self) -> int:
        """Number of exposed levels (level 1 is half of the first built
        level, per the positivity fix of the base of the recursion)."""
        return len(self._levels) + 1

    def _plateaus(self, pts: np.ndarray) -> np.ndarray:
        ordered = sorted(self.spec.pieces, key=lambda piece: piece[2])
        cols = [
            smooth_box_plateau(pts, lo, hi, GATE_HI_MARGIN)
            for lo, hi, _ in ordered
        ]
        return np.stack(cols, axis=1) if cols else np.zeros((pts.shape[0], 0))

    def raw_values(self, points) -> np.ndarray:
        """(m, depth) matrix of all exposed levels at an ``(m, dim)`` batch
        of query points, evaluated in blocks of ``BLOCK_ROWS`` rows."""
        pts = _query_batch(points, self.spec.dim)
        key = pts.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit

        # an empty batch is one empty block
        starts = range(0, pts.shape[0], BLOCK_ROWS) or [0]
        out = np.concatenate([self._block_values(pts[i:i + BLOCK_ROWS])
                              for i in starts])
        # callers share the cached array, so nobody may write into it
        out.flags.writeable = False
        self._cache[key] = out
        return out

    def _block_values(self, pts: np.ndarray) -> np.ndarray:
        """``raw_values`` of one block: every row depends on its own pairs
        only, so a block's rows are bitwise those of any other batch."""
        plat = self._plateaus(pts)
        # cumulative high-side kill factors by piece-value rank
        kill_cum = np.ones((pts.shape[0], plat.shape[1] + 1))
        for j in range(plat.shape[1]):
            kill_cum[:, j + 1] = kill_cum[:, j] * (1.0 - plat[:, j])

        prev = np.zeros(pts.shape[0])
        cols = []
        for lev in self._levels:
            qi, ci, w = lev.blend.weights(pts)
            c = lev.blend.c_vals.take(ci)
            w = w * smooth_step((c - prev.take(qi)) / lev.gate_scale.take(ci))
            # kill_cum[qi, kill_rank[ci]], through its flat index
            w = w * kill_cum.take(qi * kill_cum.shape[1] + lev.kill_rank.take(ci))
            num = np.bincount(qi, weights=w * c, minlength=pts.shape[0])
            den = np.bincount(qi, weights=w, minlength=pts.shape[0])
            if np.any(den <= 0.0):
                bad = int(np.nonzero(den <= 0.0)[0][0])
                raise CoverageError(
                    f"partition not covering point {pts[bad].tolist()} at level {lev.n}"
                )
            prev = num / den
            cols.append(prev)
        return np.stack([0.5 * cols[0]] + cols, axis=1)

    def level_upper_bound(self, level: int, pts, reach: float) -> np.ndarray:
        """Exact upper bound for ``sup`` of the level over balls of radius
        ``reach``: its blend's :meth:`_BlendField.ball_upper_bound`, halved
        at level 1."""
        _check_integer("level", level)
        if not (1 <= level <= self.depth):
            raise InputError("level out of range")
        bound = self._levels[max(level - 2, 0)].blend.ball_upper_bound(pts, reach)
        return 0.5 * bound if level == 1 else bound


def baire_sequence(spec: LscSpec, n_levels: int) -> BaireSequence:
    """Build ``n_levels`` exposed minorant levels of ``spec``."""
    _check_integer("n_levels", n_levels)
    if n_levels < 2:
        raise InputError("need at least two levels")
    lo = np.asarray(spec.base_lo, dtype=float)
    hi = np.asarray(spec.base_hi, dtype=float)
    piece_values = np.asarray(
        sorted(value for _, _, value in spec.pieces), dtype=float
    )

    seq = BaireSequence(spec)
    for n in range(2, n_levels + 1):
        radius = 1.0 / n
        pitch = 0.5 * radius
        ambient = _lattice(lo, hi, pitch, pad=radius)
        parts = [ambient]
        # project the ambient lattice onto every piece so each piece owns
        # in-piece centers at all scales (degenerate boxes become points)
        for plo, phi, _ in spec.pieces:
            proj = np.clip(ambient, np.asarray(plo, dtype=float),
                           np.asarray(phi, dtype=float))
            parts.append(_unique_rows(np.round(proj, 12)))
        centers = _unique_rows(np.round(np.concatenate(parts, axis=0), 12))

        lam_c = spec.lam(centers)
        if seq._levels:
            prev_c = seq.raw_values(centers)[:, -1]
        else:
            prev_c = np.zeros(centers.shape[0])
        floor = np.maximum(prev_c, (1.0 - 1.0 / n) * lam_c)
        c_vals = 0.5 * (floor + lam_c)
        gate_scale = np.maximum(0.5 * (c_vals - prev_c), 1e-15)
        kill_rank = np.searchsorted(piece_values, c_vals, side="right")

        seq._levels.append(_BaireLevel(
            n=n,
            blend=_BlendField(_NeighborIndex(centers, radius), c_vals),
            gate_scale=gate_scale,
            kill_rank=kill_rank.astype(np.int64),
        ))
        seq._cache.clear()
    return seq


# ---------------------------------------------------------------------------
# the velocity tower: stacked bridge bands
# ---------------------------------------------------------------------------

def _check_level(g, tau, level: int):
    _check_integer("level", level)
    g = np.asarray(g, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if not (1 <= level <= g.size - 1 and tau.size >= level):
        raise InputError(
            f"level {level} needs 1 <= level <= {g.size - 1} separators "
            f"and at least {level} delays (got {tau.size})"
        )
    return g, tau


def _tower_speed(g: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise speed of a tower of ``L`` bands: row ``r`` of the ``(k, n)``
    points ``x`` lies on the fibre with separators ``g[r]`` (``(k, L+1)``)
    and delays ``tau[r]`` (``(k, L)``).  The band of a point is the count
    of its row's separators below it, which is ``searchsorted`` on a sorted
    row: 0 below ``g_0``, ``j`` inside band ``j``, ``L + 1`` above the top.
    Every value is elementwise in its row's data, so a row gives the same
    bits in any batch."""
    out = np.ones_like(x)
    band = np.count_nonzero(g[:, :, None] < x[:, None, :], axis=1)
    inside = (band >= 1) & (band < g.shape[1])
    if np.any(inside):
        r = np.nonzero(inside)[0]
        k = band[inside]
        out[inside] = bridge_velocity(g[r, k - 1], g[r, k], tau[r, k - 1],
                                      x[inside])
    return out


def band_velocity(g, tau, level: int, x) -> np.ndarray:
    """Speed of tower level ``level`` at ``x`` on one fibre: the bridge
    profile with delay ``tau[k-1]`` inside band ``k`` on ``(g[k-1], g[k])``
    for ``k = 1..level``, unit speed everywhere else."""
    g, tau = _check_level(g, tau, level)
    x = np.asarray(x, dtype=float)
    return _tower_speed(g[None, :level + 1], tau[None, :level],
                        x.reshape(1, -1)).reshape(x.shape)


def _tower_time(g: np.ndarray, tau: np.ndarray, x0: np.ndarray,
                x1: np.ndarray) -> np.ndarray:
    """Row-wise crossing time from ``x0`` to ``x1`` under the speed of
    :func:`_tower_speed`, closed form per band, for ``(k, n)`` ends on the
    rows of ``g`` and ``tau``; a row gives the same bits in any batch."""
    # (k, n, L): each point's stretch of each band
    a = np.maximum(x0[..., None], g[:, None, :-1])
    b = np.minimum(x1[..., None], g[:, None, 1:])
    crossed = b > a
    extra = np.zeros(crossed.shape)
    r, _, band = np.nonzero(crossed)
    a, b = a[crossed], b[crossed]
    extra[crossed] = (bridge_crossing_time(g[r, band], g[r, band + 1],
                                           tau[r, band], a, b) - (b - a))
    # band by band, each point's terms in band order: a sum over the band
    # axis would reorder them
    total = x1 - x0
    for k in range(tau.shape[1]):
        np.add(total, extra[..., k], out=total, where=crossed[..., k])
    return total


def band_travel_time(g, tau, level: int, x0, x1):
    """Crossing time from ``x0`` to ``x1`` under tower level ``level``
    (the speed of :func:`band_velocity`): the one-row case of
    :func:`_tower_time`.  ``x0`` and ``x1`` broadcast, with ``x0 <= x1``
    pointwise; floats in give a float out."""
    g, tau = _check_level(g, tau, level)
    x0, x1 = np.broadcast_arrays(np.asarray(x0, dtype=float),
                                 np.asarray(x1, dtype=float))
    if np.any(x0 > x1):
        raise InputError("travel times run upward: x0 must not exceed x1")
    total = _tower_time(g[None, :level + 1], tau[None, :level],
                        x0.reshape(1, -1), x1.reshape(1, -1)).reshape(x0.shape)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# the glued limit field
# ---------------------------------------------------------------------------

def _fibre_points(x) -> np.ndarray:
    """Points on a fibre as a float array; non-finite ones are refused."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("fibre points must be finite")
    return x


def _exit_points(x) -> np.ndarray:
    """Start points of exit times: finite, and on the fibre ``[0, 1]``."""
    x = _fibre_points(x)
    if np.any((x < 0.0) | (x > 1.0)):
        raise InputError("fibre points must lie in [0, 1]")
    return x


@dataclass
class FiberData:
    """Per-base-point tower data: thresholds ``f_1..f_{N+1}``, separators
    ``g_0..g_N``, and bridge delays ``tau_1..tau_N`` (``tau_1 = f_1``)."""

    f: np.ndarray
    g: np.ndarray
    tau: np.ndarray

    @property
    def depth(self) -> int:
        return self.tau.size


class GluedField:
    """Lazily evaluated limit of the velocity tower, with the final flat
    cutoff vanishing below ``f_1(p)/2``.

    Band ``k`` lives on ``(g_{k-1}(p), g_k(p))`` with delay ``tau_k(p)``;
    below ``g_0`` and between bands the speed is 1 (before the cutoff).
    ``majorants`` is one blend whose ``(m, depth + 1)`` values are the
    separators ``g_0 .. g_depth``, so one call gives a fibre all of them.
    Queries above the deepest separator raise
    :class:`~excisionlab.errors.DepthExhausted` instead of extrapolating.

    Its point evaluations are per fibre: :meth:`velocity`, the exit times,
    :meth:`classify`, :meth:`fiber_data` and :meth:`fiber` take one base
    point ``p`` of shape ``(base_dim,)`` and refuse any other shape with
    :class:`~excisionlab.errors.InputError`.  Its batch edge is
    :meth:`fibre_table`, the tower data of an ``(m, base_dim)`` batch, and
    :meth:`fibres`, the fibres over such a batch for the lockstep driver
    of :mod:`~excisionlab.flow1d`, and :meth:`level_checks` reads the
    table of such a batch.  It is not an ambient field like
    :class:`~excisionlab.null_fields.EpigraphField` and has no ambient
    extension; it is certified at the hypersurface level.  ``velocity``,
    the exit times and :meth:`classify` evaluate elementwise in ``x``, an
    array of points on the fibre, so one call covers a fibre.  They return
    arrays of the shape of ``x`` (0-d for a float), except
    :meth:`level_exit_time`, which gives a float for a float.  They refuse
    non-finite ``x`` with :class:`~excisionlab.errors.InputError`, and the
    exit times and :meth:`classify` refuse ``x`` off the fibre ``[0, 1]``.

    Only :meth:`fibre_table` computes tower data, bitwise the same for a
    row in any batch, and ``_fiber_cache`` is its one store:
    :meth:`fiber_data` reads a fibre there, or tables it as a batch of one.
    """

    def __init__(self, spec: LscSpec, baire: BaireSequence,
                 majorants: _BlendField, depth: int):
        _check_integer("depth", depth)
        if depth < 2:
            raise InputError("depth must be at least 2")
        self.spec = spec
        self.baire = baire
        self.majorants = majorants   # columns g_0 .. g_depth
        self.depth = depth
        self.base_dim = spec.dim
        self._fiber_cache: dict[bytes, FiberData] = {}

    # -- tower data ---------------------------------------------------------

    def fibre_table(self, ps):
        """Thresholds ``f_1 .. f_{depth+1}``, separators ``g_0 .. g_depth``
        and delays ``tau_1 .. tau_depth`` over an ``(m, base_dim)`` batch,
        one row per fibre.  Rows already in ``_fiber_cache`` are read
        there; the others are computed, checked row by row and stored,
        read-only.  A row's bits are its own in any batch."""
        pts = np.asarray(ps, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.base_dim:
            raise InputError(f"base points must have shape (m, {self.base_dim}), "
                             f"got {pts.shape}")
        keys = [row.tobytes() for row in pts]
        miss = [i for i, key in enumerate(keys) if key not in self._fiber_cache]
        if 0 < len(miss) < len(keys):
            self.fibre_table(pts[miss])     # a table of the misses alone
        if len(miss) < len(keys):
            rows = [self._fiber_cache[key] for key in keys]
            return tuple(np.stack([getattr(d, name) for d in rows])
                         for name in ("f", "g", "tau"))
        fs = self.baire.raw_values(pts)
        gs = self.majorants(pts)
        # increasing thresholds and separators, with f_{n+1} < g_n
        ordered = (np.all(np.diff(fs, axis=1) > 0.0, axis=1)
                   & np.all(np.diff(gs, axis=1) > 0.0, axis=1)
                   & np.all(fs < gs, axis=1))
        if not np.all(ordered):
            bad = pts[np.flatnonzero(~ordered)[0]]
            raise InputError(f"tower ordering violated at base point {bad.tolist()}")
        tau = np.empty((pts.shape[0], self.depth))
        tau[:, 0] = fs[:, 0]
        for k in range(2, self.depth + 1):
            # the level k-1 time from f_{k-1} to f_k
            tau[:, k - 1] = _tower_time(gs[:, :k], tau[:, :k - 1],
                                        fs[:, k - 2:k - 1], fs[:, k - 1:k])[:, 0]
        fs.flags.writeable = gs.flags.writeable = tau.flags.writeable = False
        for key, f, g, t in zip(keys, fs, gs, tau):
            self._fiber_cache.setdefault(key, FiberData(f=f, g=g, tau=t))
        return fs, gs, tau

    def fiber_data(self, p) -> FiberData:
        """The tower data of the fibre over ``p``, from the cache, or else
        from :meth:`fibre_table` of ``p`` alone."""
        pt = np.asarray(p, dtype=float)
        if pt.shape != (self.base_dim,):
            raise InputError(f"base point must have shape ({self.base_dim},), "
                             f"got {pt.shape}")
        key = pt.tobytes()
        if key not in self._fiber_cache:
            self.fibre_table(pt[None])
        return self._fiber_cache[key]

    def level_exit_time(self, p, x, level: int):
        """Exit times to the top under tower level ``level`` (no cutoff)
        from the points ``x`` of the fibre over ``p``."""
        data = self.fiber_data(p)
        return band_travel_time(data.g, data.tau, level, _exit_points(x), 1.0)

    def limit_exit_time(self, p, x) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``(lower, upper)`` on the exit times of the limit field
        from the points ``x`` of the fibre over ``p``.

        The time through the built bands is exact; each unbuilt band above
        adds its delay, and those delays sum to ``lam(p) - f_N(p)``
        whenever every threshold stays below ``g_0(p)`` (the tower is unit
        speed there, so each delay equals its threshold increment).  On
        fibres where the target reaches above ``g_0`` only the lower bound
        is sharp and the upper bound is infinite.
        """
        data = self.fiber_data(p)
        x = _exit_points(x)
        above = x >= data.g[-1]
        if np.any(above):
            raise DepthExhausted(
                f"query x={x[above].flat[0]} above deepest separator "
                f"g_N={data.g[-1]}"
            )
        base = np.asarray(band_travel_time(data.g, data.tau, data.depth, x, 1.0))
        lam_p = float(self.spec.lam(np.asarray(p, dtype=float)[None])[0])
        if lam_p < data.g[0]:
            t_inf = base + max(lam_p - data.f[self.depth - 1], 0.0)
            return t_inf, t_inf
        return base, np.full(base.shape, math.inf)

    def classify(self, p, x) -> np.ndarray:
        """``excised`` iff the limit exit time is at most 1, certified from
        the monotone level times and the exact tail sum, at the points
        ``x`` of the fibre over ``p``; a point the bounds leave undecided
        raises :class:`~excisionlab.errors.DepthExhausted`."""
        lower, upper = self.limit_exit_time(p, x)
        survives = lower > 1.0
        undecided = ~survives & ~(upper <= 1.0)
        if np.any(undecided):
            i = np.flatnonzero(undecided)[0]
            raise DepthExhausted(
                f"classification undecided at (p={p}, x={np.ravel(x)[i]}): "
                f"bounds ({lower.flat[i]}, {upper.flat[i]})"
            )
        return np.where(survives, "survives", "excised")

    def level_checks(self, ps, xs) -> tuple[int, int, bool]:
        """Threshold exactness and monotone nesting of the tower levels over
        the ``(m, base_dim)`` batch ``ps``, one row-wise batch per level:
        ``(mismatches, tested, nested)``.  Levels 1, ``depth // 2`` and
        ``depth`` must exit within time 1 exactly at the points of ``xs``
        at or above ``f_n`` (points within 1e-6 of it are not tested); at
        40 points below each fibre's top, each level must be positive, no
        faster than the one before, equal to it below its new band and 1
        above it."""
        f, g, tau = self.fibre_table(ps)
        x = np.tile(np.asarray(xs, dtype=float), (f.shape[0], 1))
        mism = tested = 0
        for lvl in (1, max(2, self.depth // 2), self.depth):
            fn = f[:, lvl - 1:lvl]
            kept = ~(np.abs(x - fn) < 1e-6)
            t_exit = _tower_time(g[:, :lvl + 1], tau[:, :lvl], x, np.ones_like(x))
            tested += int(np.count_nonzero(kept))
            mism += int(np.count_nonzero(((t_exit <= 1.0) != (x >= fn)) & kept))
        xs_f = np.linspace(0.05, g[:, -1] - 1e-3, 40, axis=1)
        prev = _tower_speed(g[:, :2], tau[:, :1], xs_f)
        nested = True
        for lvl in range(2, self.depth + 1):
            v = _tower_speed(g[:, :lvl + 1], tau[:, :lvl], xs_f)
            low = xs_f <= g[:, lvl - 1:lvl]
            nested &= bool(np.all(v <= prev + 1e-14) and np.all(v > 0)
                           and np.all(v[low] == prev[low])
                           and np.all(v[xs_f >= g[:, lvl:lvl + 1]] == 1.0))
            prev = v
        return mism, tested, nested

    # -- field evaluation --------------------------------------------------

    @staticmethod
    def _speed(g, tau, half_f1, x):
        """Row-wise speed of the glued field, the one kernel of
        :meth:`velocity`, :meth:`fiber` and :meth:`fibres`: the full
        tower's :func:`_tower_speed` at the ``(k, n)`` points ``x`` times
        the final cutoff below ``half_f1`` (``(k, 1)`` or a float);
        queries at or above the deepest separator are not covered."""
        if np.any(x >= g[:, -1:]):
            raise DepthExhausted("velocity query above deepest separator")
        return _tower_speed(g, tau, x) * smooth_step((x - half_f1) / half_f1)

    @classmethod
    def _velocity(cls, data: FiberData, x):
        """:meth:`_speed` on one fibre, at points ``x`` of any shape."""
        x = np.asarray(x, dtype=float)
        return cls._speed(data.g[None], data.tau[None], 0.5 * data.f[0],
                          x.reshape(1, -1)).reshape(x.shape)

    def velocity(self, p, x):
        return self._velocity(self.fiber_data(p), _fibre_points(x))

    def fiber(self, p) -> ScalarField1D:
        return self._field(self.fiber_data(p))

    def _field(self, data: FiberData) -> ScalarField1D:
        # the 1D field is only defined on the covered band below the
        # deepest separator; flows within the band never notice the cap
        return ScalarField1D(
            f=lambda x: self._velocity(data, x),
            domain=(0.0, float(data.g[-1]) - 1e-9),
            zero_regions=((0.0, 0.5 * float(data.f[0])),),
            label="glued-lsc",
        )

    def fibres(self, ps) -> Fibres:
        """The fibres over an ``(m, base_dim)`` batch of base points, for
        :func:`~excisionlab.flow1d.flow_map_batch` and
        :func:`~excisionlab.flow1d.forward_time_batch`.  Fibre ``i`` is
        :meth:`fiber` of ``ps[i]``; the batch velocity evaluates
        :meth:`_speed` on the :meth:`fibre_table` of the batch, row by
        row, so every value is bitwise that fibre's own.  An empty batch
        gives no fibres."""
        f, g, tau = self.fibre_table(ps)
        half_f1 = 0.5 * f[:, :1]
        return Fibres(
            fields=[self._field(FiberData(*row)) for row in zip(f, g, tau)],
            velocity=lambda rows, nodes: self._speed(g[rows], tau[rows],
                                                     half_f1[rows], nodes),
        )


def build_lsc_field(spec: LscSpec, depth: int) -> GluedField:
    """Assemble the full tower for ``spec``.

    Thresholds come from :func:`baire_sequence` (one extra level feeds the
    separator recursion).  The separators are the columns of one bump
    blend over one lattice: column ``n`` holds the midpoint constants
    ``(1 + b_n)/2``, where ``b_0`` is the exact over-ball bound of ``f_1``
    and ``b_n`` that of ``max(g_{n-1}, f_{n+1}, 1 - 1/n)``, which
    guarantees the tower ordering pointwise.  No fibre is evaluated here:
    :meth:`GluedField.fibre_table` reads the tower data of a batch of base
    points on demand.
    """
    _check_integer("depth", depth)
    baire = baire_sequence(spec, n_levels=depth + 1)
    scale = MAJORANT_SCALE
    # pad by one bump radius: enough to cover queries inside the base box
    centers = _lattice(spec.base_lo, spec.base_hi, 0.5 * scale, pad=scale)
    index = _NeighborIndex(centers, scale)
    cols = []
    bound = baire.level_upper_bound(1, centers, scale)
    for n in range(depth + 1):
        if n:
            prev_g = _BlendField(index, cols[-1]).ball_upper_bound(centers, scale)
            bound = np.maximum(
                np.maximum(prev_g, baire.level_upper_bound(n + 1, centers, scale)),
                1.0 - 1.0 / n)
        if np.any(bound >= 1.0):
            raise InputError("majorant input must stay strictly below 1")
        cols.append(0.5 * (1.0 + bound))
    return GluedField(spec, baire, _BlendField(index, np.column_stack(cols)),
                      depth)
