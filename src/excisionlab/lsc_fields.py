"""Excision fields for epigraphs of lower semi-continuous functions.

The target function ``lam`` on a bounded base region is piecewise constant:
finitely many closed boxes carry values in (0, 1], the minimum wins on
overlaps, and the default off every box is 1.  The pipeline has three
stages:

1. a strictly increasing sequence of smooth minorants ``f_n`` converging to
   ``lam`` from below, built level by level from blended lattice bumps
   whose constants sit strictly between the previous level and the target
   (:func:`baire_sequence`).  :meth:`BaireSequence.raw_values` evaluates a
   batch in blocks of ``BLOCK_ROWS`` rows, every level of a block in one
   go, so each block's candidate arrays stay cache-sized.  Blocks may run
   concurrently on a small thread pool (:func:`_blockwise`) and are
   concatenated in block order; every row depends only on its own pairs,
   so neither the blocking nor the thread that ran a block changes a bit;
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
   threshold to ``f_n``.  Speed and travel time are row-wise kernels,
   :func:`_tower_speed` and :func:`_tower_time`: one bridge call over
   every (point, band) pair of a batch of fibres, summed band by band per
   point, so a fibre's values are its own in any batch.
   :meth:`GluedField.fibre_table` gives the thresholds, separators and
   delays of a batch of fibres: it reads the rows already in
   ``_fiber_cache`` and computes and stores only the others, so it is the
   one reader of tower data over one store.  Every evaluation of the field
   runs the kernels over such a table: :meth:`GluedField.fibres` for the
   fibre flows (one batch velocity, each fibre's domain and zero interval
   read off its row), and :meth:`GluedField.level_checks` and
   :meth:`GluedField.classify`, box-tail's threshold, nesting and limit
   checks.

The limit field is evaluated lazily band by band; its exit time is at most
1 exactly on the epigraph ``{x >= lam(p)}``, and the final flat cutoff
below ``f_1(p)/2`` makes every backward trajectory take infinite time.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoverageError, DepthExhausted, InputError
from .scalar_kit import (
    Fibres,
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
# a block's candidate arrays then hold about 75k pairs, about 0.6 MB each,
# and the blocks of a batch share the threads of _blockwise
BLOCK_ROWS = 2048

# candidate pairs per block of a ball-max join, the size of the deepest
# tower block: at the deepest box-tail level one join over all 1,369
# separator centers would hold about 0.55M pairs
JOIN_PAIRS = 75_000

# (executor, threads) of the threads that run blocks beside the caller,
# built by _block_pool on the first batch of several blocks and dropped in
# a forked child
_pool = None


def _check_integer(name: str, value) -> None:
    """Refuse a bool or a non-integral count; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")


def _block_pool():
    """``(executor, threads)`` of the threads that run blocks beside the
    caller: one per usable CPU beyond the first, built on the first call.
    None on a host with one usable CPU."""
    global _pool
    if _pool is None:
        threads = len(os.sched_getaffinity(0)) - 1
        if threads < 1:
            return None
        # imported here: a run that never blocks a batch never loads it
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(threads, thread_name_prefix="lsc-block"), threads
    return _pool


def _drop_pool() -> None:
    """Forget the pool in a forked child, where its threads do not exist."""
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_drop_pool)


def _blockwise(fn, pts: np.ndarray, rows: int) -> np.ndarray:
    """``fn`` over the blocks of ``rows`` rows of ``pts``, its results
    concatenated in block order, so for a row-independent ``fn`` the bits
    do not depend on the blocking or on the thread that ran a block.  An
    empty batch is one empty block.

    With more than one block, the threads of :func:`_block_pool` and the
    calling thread claim blocks in batch order until none is left; each
    pool task runs in a copy of the caller's context, so its blocks see the
    caller's ``np.errstate``.  After a failure no further block is
    claimed, every claimed block finishes, and the first failure in batch
    order is raised: the one a plain loop over the blocks would raise."""
    blocks = [pts[i:i + rows] for i in range(0, pts.shape[0], rows)] or [pts]
    pool = _block_pool() if len(blocks) > 1 else None
    if pool is None:
        return np.concatenate([fn(block) for block in blocks])
    executor, threads = pool
    results = [None] * len(blocks)
    failures = {}
    claims = itertools.count()

    def drain():
        while not failures:
            i = next(claims)
            if i >= len(blocks):
                return
            try:
                results[i] = fn(blocks[i])
            except Exception as exc:
                failures[i] = exc

    tasks = [executor.submit(contextvars.copy_context().run, drain)
             for _ in range(min(threads, len(blocks) - 1))]
    drain()
    for task in tasks:
        task.result()
    if failures:
        raise failures[min(failures)]
    return np.concatenate(results)


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
        n_cells = int(np.prod(self._key_shape))
        # cell c holds the sorted positions _cell_start[c] .. _cell_start[c+1] - 1
        self._cell_start = np.searchsorted(self._sorted_codes, np.arange(n_cells + 1))
        self._per_cell = centers.shape[0] / max(n_cells, 1)
        # center columns in sorted order, read by sorted position
        self._sorted_cols = [np.ascontiguousarray(col)
                             for col in centers.take(self._order, axis=0).T]

    def _row_offsets(self, span: int) -> np.ndarray:
        """Neighbour-cell offsets in all but the last key axis, in C order:
        one per row of cells."""
        rows = list(itertools.product(range(-span, span + 1), repeat=self.dim - 1))
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.dim - 1)

    def pairs(self, pts: np.ndarray, reach: Optional[float] = None):
        """Candidate pairs ``(qi, pos)``, query-major, with each center as
        its sorted position ``pos`` (center index ``_order[pos]``)."""
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
        return qi, pos

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
        qi, pos = self.pairs(pts)
        q = self._sq_dist(pts, qi, pos)
        q /= self.radius * self.radius
        inside = np.flatnonzero(q < 1.0)
        return qi.take(inside), self._order.take(pos.take(inside)), q.take(inside)

    def max_over_balls(self, pts: np.ndarray, reach: float,
                       values: np.ndarray) -> np.ndarray:
        """Per query point, the max of ``values`` over centers within
        ``reach``; minus infinity where no center is in reach.  The join
        runs through :func:`_blockwise` in blocks of about ``JOIN_PAIRS``
        candidate pairs, counted from the mean centers per cell; a max is
        exact, so every blocking gives the same bits."""
        cells = (2 * math.ceil(reach / self.radius) + 1) ** self.dim
        rows = max(1, int(JOIN_PAIRS / max(cells * self._per_cell, 1.0)))
        return _blockwise(lambda block: self._ball_max(block, reach, values),
                          pts, rows)

    def _ball_max(self, pts: np.ndarray, reach: float,
                  values: np.ndarray) -> np.ndarray:
        """:meth:`max_over_balls` of one block."""
        qi, pos = self.pairs(pts, reach=reach)
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
        reach into the ball), joined in blocks of about ``JOIN_PAIRS``
        candidate pairs by :meth:`_NeighborIndex.max_over_balls`.
        ``reach`` must be finite and nonnegative."""
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
        of query points, evaluated in blocks of ``BLOCK_ROWS`` rows by
        :func:`_blockwise`."""
        pts = _query_batch(points, self.spec.dim)
        key = pts.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit

        out = _blockwise(self._block_values, pts, BLOCK_ROWS)
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


# ---------------------------------------------------------------------------
# the glued limit field
# ---------------------------------------------------------------------------

def _exit_points(x) -> np.ndarray:
    """Start points of exit times as a float array: finite, and on the
    fibre ``[0, 1]``."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("fibre points must be finite")
    if np.any((x < 0.0) | (x > 1.0)):
        raise InputError("fibre points must lie in [0, 1]")
    return x


class GluedField:
    """Lazily evaluated limit of the velocity tower, with the final flat
    cutoff vanishing below ``f_1(p)/2``.

    Band ``k`` lives on ``(g_{k-1}(p), g_k(p))`` with delay ``tau_k(p)``;
    below ``g_0`` and between bands the speed is 1 (before the cutoff).
    ``majorants`` is one blend whose ``(m, depth + 1)`` values are the
    separators ``g_0 .. g_depth``, so one call gives a fibre all of them.
    Speed queries above the deepest separator raise
    :class:`~excisionlab.errors.DepthExhausted` instead of extrapolating.

    Its evaluations take an ``(m, base_dim)`` batch of base points:
    :meth:`fibre_table` gives their tower data, :meth:`fibres` the fibres
    over them for the lockstep driver of :mod:`~excisionlab.flow1d`, and
    :meth:`level_checks` and :meth:`classify` test the same ``(n,)``
    points ``xs`` on every fibre, refusing ``xs`` that are non-finite or
    off the fibre ``[0, 1]`` with :class:`~excisionlab.errors.InputError`.
    It is not an ambient field like
    :class:`~excisionlab.null_fields.EpigraphField` and has no ambient
    extension; it is certified at the hypersurface level.

    Only :meth:`fibre_table` computes tower data, bitwise the same for a
    row in any batch, and ``_fiber_cache`` is its one store of
    ``(f, g, tau)`` rows; :meth:`fiber_data` is its one-row edge.
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
        self._fiber_cache: dict[bytes, tuple[np.ndarray, ...]] = {}

    # -- tower data ---------------------------------------------------------

    def fibre_table(self, ps):
        """Thresholds ``f_1 .. f_{depth+1}``, separators ``g_0 .. g_depth``
        and delays ``tau_1 .. tau_depth`` (``tau_1 = f_1``) over an
        ``(m, base_dim)`` batch, one row per fibre.  Rows already in
        ``_fiber_cache`` are read there; the others are computed, checked
        row by row and stored, read-only.  A row's bits are its own in any
        batch."""
        pts = np.asarray(ps, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.base_dim:
            raise InputError(f"base points must have shape (m, {self.base_dim}), "
                             f"got {pts.shape}")
        keys = [row.tobytes() for row in pts]
        miss = [i for i, key in enumerate(keys) if key not in self._fiber_cache]
        if 0 < len(miss) < len(keys):
            self.fibre_table(pts[miss])     # a table of the misses alone
        if len(miss) < len(keys):
            return tuple(np.stack(col) for col in
                         zip(*(self._fiber_cache[key] for key in keys)))
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
        for key, row in zip(keys, zip(fs, gs, tau)):
            self._fiber_cache.setdefault(key, row)
        return fs, gs, tau

    def fiber_data(self, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(f, g, tau)`` row of the fibre over ``p``, from the cache,
        or else from :meth:`fibre_table` of ``p`` alone."""
        pt = np.asarray(p, dtype=float)
        if pt.shape != (self.base_dim,):
            raise InputError(f"base point must have shape ({self.base_dim},), "
                             f"got {pt.shape}")
        key = pt.tobytes()
        if key not in self._fiber_cache:
            self.fibre_table(pt[None])
        return self._fiber_cache[key]

    def level_checks(self, ps, xs) -> tuple[int, int, bool]:
        """Threshold exactness and monotone nesting of the tower levels over
        the ``(m, base_dim)`` batch ``ps``, one row-wise batch per level:
        ``(mismatches, tested, nested)``.  Levels 1, ``depth // 2`` and
        ``depth`` must exit within time 1 exactly at the points of ``xs``
        at or above ``f_n`` (points within 1e-6 of it are not tested); at
        40 points below each fibre's top, each level must be positive, no
        faster than the one before, equal to it below its new band and 1
        above it."""
        x_row = _exit_points(xs)
        f, g, tau = self.fibre_table(ps)
        x = np.tile(x_row, (f.shape[0], 1))
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

    def classify(self, ps, xs) -> tuple[np.ndarray, np.ndarray]:
        """Limit-field verdicts over the ``(m, base_dim)`` batch ``ps`` at
        the same ``(n,)`` points ``xs`` on every fibre: ``(m, n)`` masks
        ``(excised, undecided)``.  A point is excised when its limit exit
        time is certainly at most 1, and survives when it certainly
        exceeds 1; it is undecided when the bounds below leave it open, or
        when it lies at or above the deepest separator ``g_N``, which the
        built tower does not cover.  An undecided point is not excised.

        The bounds come from one full-depth :func:`_tower_time` batch.  The
        time through the built bands is exact; each unbuilt band above
        adds its delay, and those delays sum to ``lam(p) - f_N(p)``
        whenever every threshold stays below ``g_0(p)`` (the tower is unit
        speed there, so each delay equals its threshold increment).  On
        fibres where the target reaches above ``g_0`` only the lower bound
        is sharp and the upper bound is infinite."""
        x_row = _exit_points(xs)
        f, g, tau = self.fibre_table(ps)
        x = np.tile(x_row, (f.shape[0], 1))
        lower = _tower_time(g, tau, x, np.ones_like(x))
        lam = self.spec.lam(ps)[:, None]
        sharp = lam < g[:, :1]
        tail = np.maximum(lam - f[:, self.depth - 1:self.depth], 0.0)
        lower = np.where(sharp, lower + tail, lower)
        upper = np.where(sharp, lower, np.inf)
        excised = upper <= 1.0
        undecided = ~(excised | (lower > 1.0)) | (x >= g[:, -1:])
        return excised & ~undecided, undecided

    # -- field evaluation --------------------------------------------------

    def fibres(self, ps) -> Fibres:
        """The fibres over an ``(m, base_dim)`` batch of base points, for
        :func:`~excisionlab.flow1d.flow_map_batch`,
        :func:`~excisionlab.flow1d.forward_time_batch` and the one-fibre
        routines of :mod:`~excisionlab.flow1d`.  The speed is the full
        tower's :func:`_tower_speed` times the final cutoff, which vanishes
        on ``[0, f_1/2]``, row by row over the :meth:`fibre_table` of the
        batch, so every value is bitwise that fibre's own.  A fibre is
        defined on the covered band below its deepest separator, where
        flows never notice the cap; a speed query at or above the separator
        raises :class:`~excisionlab.errors.DepthExhausted`.  An empty batch
        gives no fibres."""
        f, g, tau = self.fibre_table(ps)
        half_f1 = 0.5 * f[:, :1]

        def velocity(rows, nodes):
            g_r, h = g[rows], half_f1[rows]
            if np.any(nodes >= g_r[:, -1:]):
                raise DepthExhausted("velocity query above deepest separator")
            return _tower_speed(g_r, tau[rows], nodes) * smooth_step((nodes - h) / h)

        zeros = np.zeros_like(half_f1)
        return Fibres(domain=np.hstack([zeros, g[:, -1:] - 1e-9]),
                      zero=np.hstack([zeros, half_f1]), velocity=velocity)


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
