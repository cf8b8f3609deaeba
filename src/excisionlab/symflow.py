"""Trajectory integration with chart-escape detection, plus the toolkit
that certifies time-1 maps: numerical Jacobians, symplecticity residuals,
inverse consistency, and grid classification sweeps.

The integrator is an embedded Dormand-Prince 5(4) pair with per-point
adaptive steps, vectorized over batches of initial conditions.  Each step
attempt makes six RHS calls: the seventh stage is evaluated at the
fifth-order solution itself, so an accepted step's last stage is carried
over, bitwise, as the first stage of the next step (first same as last,
FSAL), and a rejected step keeps the first stage it had.  A step forms the
products of its step sizes with all the tableau weights in one outer
product.

A call keeps its running rows in a compacted working set: their state
lives in arrays of the running rows only, a step updates them in place
(the accepted rows through ``where=`` masks), and a row is written back to
the full-length arrays only when it leaves the set, done, escaped, failed
or at the end of a stage.  The set is compacted only on the steps where
some row leaves, so a step where no row leaves gathers and scatters no
row state.

The flows are autonomous, so the inverse of a time-``t`` map is the
time ``-t`` flow of the same field.  Every row of a batch carries its own
signed time: :func:`integrate_batch` takes ``t_final`` as one time or an
``(m,)`` array, and ``record`` as one flag or an ``(m,)`` mask of the rows
whose trajectories are kept.  A backward row takes negative steps along
the field itself, which is bitwise the reversed field stepped forward, so
forward and backward rows share every RHS call and there is no reversed
wrapper.  A forward point is declared to have escaped the chart when its
monitor coordinate crosses ``1 - DELTA_ESC``, and any point when its norm
exceeds ``R_MAX``; the crossing time is then bracketed to width
``ESC_BRACKET`` by bisecting the last accepted step.  A call takes as many
steps as its slowest row, so a scenario's independent flows go through
one call.

A staged field (``HamiltonianField.stages > 1``) composes the time-1 maps
of its stages, and one call flows each row through all of them as a
wavefront: a row that completes a stage starts the next one at once, as a
fresh one-row call would, so a call takes as many steps as the row whose
stages take the most in total.  A plain field is the one-stage case.

A batch in gives a batch out: :func:`integrate_batch` returns one
:class:`FlowOutcome` whose fields are arrays with one entry per row, so
callers read masks and endpoints, or slices of rows, without taking
per-row objects apart; :func:`classify_escape` and
:func:`time1_jacobian_batch` read such slices, and :func:`numerical_jacobian`
reads every finite-difference Jacobian from a stencil's images.  Hamiltonian
flows have no structure-preserving discretization here on purpose:
symplecticity is certified a posteriori on the time-1 map, not assumed from
the integrator class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import InputError, StencilError
from .ham_extension import HamiltonianField, pairing_matrix

__all__ = [
    "DELTA_ESC",
    "R_MAX",
    "DELTA_PROBE",
    "ESC_BRACKET",
    "DEFAULT_TOL",
    "MAX_STEPS",
    "COMPLETED",
    "ESCAPED",
    "TOLERANCE_FAILURE",
    "FlowOutcome",
    "integrate",
    "integrate_batch",
    "numerical_jacobian",
    "symplecticity_residual",
    "classify_escape",
]

DELTA_ESC = 1e-6
R_MAX = 1e6
DELTA_PROBE = 0.05
ESC_BRACKET = 1e-4
DEFAULT_TOL = 1e-10
# step attempts of one row before it is a tolerance failure
MAX_STEPS = 50_000

COMPLETED = "completed"
ESCAPED = "escaped-chart"
TOLERANCE_FAILURE = "tolerance-failure"

# Dormand-Prince 5(4) tableau; the fields are autonomous, so the stage
# times are never needed
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# fifth-order minus embedded fourth-order weights
_DP_ERR = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
])


def _tableau_terms(groups) -> tuple:
    """The nonzero weights of each group of tableau weights, all in one
    array, and per group the ``(stage, column)`` pair of each of them,
    ``column`` indexing that array."""
    coefs, terms = [], []
    for weights in groups:
        terms.append(tuple((int(j), len(coefs) + i) for i, j in
                           enumerate(np.flatnonzero(weights))))
        coefs.extend(w for w in weights if w != 0.0)
    return np.array(coefs), tuple(terms)


# the nonzero entries of the stage rows 2-7 and of the error weights; stage
# 7's row equals the fifth-order weights, so its input is the step's result
_DP_COEFS, (*_DP_ROWS, _DP_ERR_NZ) = _tableau_terms(_DP_A[1:6] + [_DP_B5, _DP_ERR])


@dataclass
class FlowOutcome:
    """Result of integrating an ``(m, d)`` batch: one entry per row.

    ``endpoint`` is ``(m, d)``; ``elapsed``, ``status``, ``step_count``,
    ``t_esc_lower``, ``t_esc_upper`` and ``stage`` are ``(m,)``.
    ``elapsed`` is the signed flow time, negative on backward rows.
    ``status`` holds the strings ``COMPLETED``, ``ESCAPED`` or
    ``TOLERANCE_FAILURE``.  An escaped row carries a bracket
    ``t_esc_lower <= t_esc <= t_esc_upper`` of width at most
    ``ESC_BRACKET`` around its signed exit time; the bracket is NaN on
    every other row.  ``stage``, a signed integer array, is the stage of a
    staged field each row ended in: the one it escaped or failed in, else
    its last (0 for a plain field); ``elapsed`` and the bracket count from that stage's
    start.  ``trajectories`` is ``None`` when no recording was asked for,
    and otherwise a list of ``m`` entries: ``None`` on a row not recorded,
    else an array holding, for each stage the row entered, the start row
    ``(0, z0...)`` and one row ``(t, z...)`` per accepted step.
    """

    endpoint: np.ndarray
    elapsed: np.ndarray
    status: np.ndarray
    step_count: np.ndarray
    t_esc_lower: np.ndarray
    t_esc_upper: np.ndarray
    stage: np.ndarray
    trajectories: Optional[list] = None

    @property
    def completed(self) -> np.ndarray:
        return self.status == COMPLETED

    def take(self, rows: slice) -> "FlowOutcome":
        """The outcome of the rows in the slice ``rows``."""
        return FlowOutcome(
            *(getattr(self, f.name)[rows] for f in fields(self)
              if f.name != "trajectories"),
            trajectories=None if self.trajectories is None
            else self.trajectories[rows])


def _escaped(field: HamiltonianField, pts: np.ndarray, monitored: np.ndarray,
             stage: np.ndarray) -> np.ndarray:
    """Rows of ``pts``, in the stages ``stage``, out of the chart: past the
    norm guard ``R_MAX``, or at their stage's chart monitor on the
    ``monitored`` rows."""
    esc = np.linalg.norm(pts, axis=1) >= R_MAX
    esc[monitored] |= (np.asarray(field.at(stage[monitored]).escape_value(
        pts[monitored])) >= 1.0 - DELTA_ESC)
    return esc


def _dp_step(field: HamiltonianField, z: np.ndarray, dt: np.ndarray,
             k1: np.ndarray):
    """One Dormand-Prince step for a batch from its first stage
    ``k1 = f(z)``: returns ``(z5, err_vector, k7)``.

    ``dt`` is signed per row.  The step forms the products of ``dt`` with
    all 26 nonzero tableau weights (``_DP_COEFS``) in one outer product,
    which holds each weight's ``(m, 1)`` column, bitwise ``(dt * a)[:,
    None]``, contiguously.  Each stage input is ``z`` plus the weighted
    earlier stages, accumulated in place in stage order over the nonzero
    tableau entries (``_DP_ROWS``, ``_DP_ERR_NZ``).  Stage 7's weights are
    the fifth-order weights, so its input is ``z5`` itself and ``k7`` is
    bitwise the first stage of the next step from ``z5``: six RHS calls per
    step (FSAL).
    """
    tab = np.multiply.outer(_DP_COEFS, dt)[:, :, None]
    ks = [k1]
    term = np.empty_like(z)
    for row in _DP_ROWS:
        zi = z.copy()
        for j, c in row:
            zi += np.multiply(tab[c], ks[j], out=term)
        ks.append(field.vector_field(zi))
    err = np.zeros_like(z)
    for j, c in _DP_ERR_NZ:
        err += np.multiply(tab[c], ks[j], out=term)
    return zi, err, ks[6]


def _bracket_escapes_batch(field, z_prev, t_prev, dts, monitored, stage):
    """Bracket exit times for a batch of escaping steps.

    Each row escaped between its step start ``z_prev`` (not escaped) at the
    signed time ``t_prev`` and its accepted endpoint (escaped) one signed
    step ``dts`` later, in the stage ``stage`` of ``field``; ``monitored``
    marks the rows the chart monitor watches.  Bisect the step fraction in
    lockstep until every bracket is narrower than ``ESC_BRACKET`` in flow
    time.  Every bisection step starts from ``z_prev``, so its first stage
    is evaluated once for all of them.  Returns the last time not escaped,
    the first time escaped and the point reached then.
    """
    k = z_prev.shape[0]
    rows = field.at(stage)
    k_prev = rows.vector_field(z_prev)
    lo = np.zeros(k)
    hi = np.ones(k)
    span = np.abs(dts)
    while True:
        open_mask = (hi - lo) * span > ESC_BRACKET
        if not np.any(open_mask):
            break
        mid = 0.5 * (lo + hi)
        zm, _, _ = _dp_step(field.at(stage[open_mask]), z_prev[open_mask],
                            (mid * dts)[open_mask], k_prev[open_mask])
        esc = _escaped(field, zm, monitored[open_mask], stage[open_mask])
        sub = np.nonzero(open_mask)[0]
        hi[sub[esc]] = mid[sub[esc]]
        lo[sub[~esc]] = mid[sub[~esc]]
    z_end, _, _ = _dp_step(rows, z_prev, hi * dts, k_prev)
    return t_prev + lo * dts, t_prev + hi * dts, z_end


# integer status codes used internally for vectorized masking; a finished
# row's code indexes its name
_RUNNING, _DONE, _ESC, _FAIL = -1, 0, 1, 2
_STATUS_NAMES = np.array([COMPLETED, ESCAPED, TOLERANCE_FAILURE])


def _per_row(name: str, value, m: int, dtype) -> np.ndarray:
    """``value`` as an ``(m,)`` array: a scalar is repeated on every row."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        return np.full(m, arr)
    if arr.shape != (m,):
        raise InputError(f"{name} must be a scalar or an ({m},) array, "
                         f"got shape {arr.shape}")
    return arr


def integrate_batch(field: HamiltonianField, z0: np.ndarray,
                    t_final: float | np.ndarray,
                    tol: float = DEFAULT_TOL,
                    record: bool | np.ndarray = False) -> FlowOutcome:
    """Integrate an ``(m, d)`` batch of initial conditions, each row for
    its own signed time.

    ``t_final`` is one time for every row or an ``(m,)`` array of them, and
    ``record`` one flag or an ``(m,)`` mask of the rows whose trajectories
    are kept.  Each point carries its own adaptive step, so heterogeneous
    stiffness and horizons do not couple points, and the result order
    matches the input order regardless of which points finish first.  A
    call takes as many steps as its slowest row.  A point exceeding
    ``MAX_STEPS`` attempts in one stage is reported as a tolerance failure
    rather than stalling the batch, and so is a point whose next step falls
    below ``1e-14 * max(1, |t|)``, the float resolution of its current
    time ``t``.  A row with time 0 that has not already escaped completes
    without a step.  A ``tol`` that is not positive and finite, a ``z0``
    that is not an ``(m, field.dim)`` batch, a non-finite time or start
    row, or a ``t_final`` or ``record`` array of the wrong shape raises
    :class:`InputError` before any RHS call.

    The running rows live in a working set: their indices and, in the same
    order, their ``z``, carried first stage, ``t``, step size, horizon,
    signed end time, stage, attempt and step counts and forward flag.  A
    step reads those arrays and updates them in place, the accepted rows
    through ``where=`` masks.  A row goes back to the full-length arrays
    only when it leaves the working set (done, escaped, failed, or at the
    end of a stage), and the working set is compacted only on the steps
    where some row leaves.  The fields are row-independent
    bitwise, so which rows share an RHS call does not change a row's bits.

    A row with a negative time flows backward: it steps along the field
    itself with negative signed steps, which is bitwise the reversed field
    ``-v`` stepped forward (a product only changes sign when one factor
    does), so rows of either sign share every RHS call.  The chart monitor
    only watches forward rows; the ``R_MAX`` norm guard watches every row.
    ``elapsed``, escape brackets and trajectory times are signed.  A
    recorded row's trajectory holds one row ``(t, z...)`` per accepted step
    after the start row; on an exit the last row is the bracketed exit
    point.

    A staged field (``field.stages > 1``) is flowed through every stage in
    one call, as a wavefront: a forward row runs its stages up from 0 and
    a backward row down from the last, each for the row's time, and a row
    that completes a stage with stages left starts the next one exactly as
    a fresh one-row call would (at ``t = 0`` with the first step size, its
    own attempt count, the already-escaped check and the new stage's first
    RHS) and rejoins the working set, while the other rows go on.  Every
    RHS, monitor and bracket call evaluates each row in its own stage, so a
    row's outcome is bitwise its chain of one-stage calls.  A row stops at
    the first stage it does not complete; ``stage`` is the stage each row
    ended in, and ``elapsed``, escape brackets and trajectory times count
    from that stage's start.  A recorded row's trajectory holds the start
    row and steps of each stage it entered, in order; ``step_count`` counts
    the steps of all of them.  The call takes as many steps as the row
    whose stages take the most steps in total.
    """
    # written to fail closed: NaN is not in (0, inf)
    if isinstance(tol, bool) or not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    z = np.array(z0, dtype=float)
    if z.ndim != 2 or z.shape[1] != field.dim:
        raise InputError(f"z0 must be an (m, {field.dim}) batch, "
                         f"got shape {z.shape}")
    m = z.shape[0]
    t_end = _per_row("t_final", t_final, m, float)
    bad = np.nonzero(~np.isfinite(t_end))[0]
    if bad.size:
        where = f" at row {bad[0]}" if np.ndim(t_final) else ""
        raise InputError(
            f"t_final must be finite, got {float(t_end[bad[0]])!r}{where}")
    rec = _per_row("record", record, m, bool)
    bad = np.nonzero(~np.all(np.isfinite(z), axis=1))[0]
    if bad.size:
        raise InputError(f"start row {bad[0]} is not finite")
    forward = t_end >= 0.0
    horizon = np.abs(t_end)
    # forward rows run the stages up from 0, backward rows down to 0; the
    # narrowest signed type keeps a large plain batch's stages at a byte a
    # row
    stage = np.where(forward, 0, field.stages - 1).astype(
        np.min_scalar_type(-field.stages))
    t = np.zeros(m)
    steps = np.zeros(m, dtype=int)
    status = np.full(m, _RUNNING)
    esc_lo = np.full(m, np.nan)
    esc_hi = esc_lo.copy()
    # recorded rows of each stage start and accepted step, as (row
    # indices, (t, z...) rows)
    log = None
    if np.ndim(record) or record:
        log = [(np.nonzero(rec)[0], np.column_stack([t[rec], z[rec]]))]

    def complete(rows):
        """Rows that completed their stage: done after their last stage;
        the others start their next one at t = 0 and are returned."""
        ahead = forward[rows]
        more = np.where(ahead, stage[rows] < field.stages - 1, stage[rows] > 0)
        status[rows[~more]] = _DONE
        rows = rows[more]
        stage[rows] += np.where(ahead[more], 1, -1)
        t[rows] = 0.0
        if log is not None:
            kept = rows[rec[rows]]
            log.append((kept, np.column_stack([t[kept], z[kept]])))
        return rows

    def enter(rows):
        """Rows entering a stage: the already-escaped check, then the
        stage's first RHS; a zero time completes the stage without a step,
        and the row enters the next one.  Returns the rows that step and
        their first stages, as the working-set columns of a fresh call:
        ``t = 0``, the first step size and no attempt yet."""
        moved, k1s = [rows[:0]], [z[:0]]
        while rows.size:
            already = _escaped(field, z[rows], forward[rows], stage[rows])
            status[rows] = np.where(already, _ESC, _RUNNING)
            esc_lo[rows[already]] = 0.0
            esc_hi[rows[already]] = 0.0
            rows = rows[~already]
            zero = horizon[rows] == 0.0
            moving = rows[~zero]
            if moving.size:
                moved.append(moving)
                k1s.append(field.at(stage[moving]).vector_field(z[moving]))
            rows = complete(rows[zero])
        rows = np.concatenate(moved)
        k = rows.size
        return [rows, z[rows], np.concatenate(k1s), np.zeros(k),
                np.full(k, 1e-2), horizon[rows], t_end[rows], stage[rows],
                np.zeros(k, dtype=int), steps[rows], forward[rows]]

    # escaping steps in the order they escaped: rows, starts, times, steps
    pending = []
    # the working set: running rows' indices, then z, k1 (the first stage of
    # the next step: f at its start, then the last stage of each accepted
    # step; a rejected step keeps it), t, dt, horizon, signed end time,
    # stage, attempts, steps and forward flag
    work = enter(np.arange(m))
    while work[0].size:
        run, wz, wk1, wt, wdt, whor, wend, wstage, watt, wsteps, wfwd = work
        watt += 1
        dti = np.minimum(wdt, whor - np.abs(wt))
        h = np.copysign(dti, wend)
        z5, err, k7 = _dp_step(field.at(wstage), wz, h, wk1)
        scale = tol + tol * np.maximum(np.abs(wz), np.abs(z5)).max(axis=1)
        enorm = np.abs(err).max(axis=1) / scale
        accept = enorm <= 1.0

        esc = np.zeros_like(accept)
        if accept.any():
            esc[accept] = _escaped(field, z5[accept], wfwd[accept],
                                   wstage[accept])
            if esc.any():
                pending.append((run[esc], wz[esc], wt[esc], h[esc]))
            np.add(wt, h, out=wt, where=accept)
            np.copyto(wz, z5, where=accept[:, None])
            np.copyto(wk1, k7, where=accept[:, None])
            wsteps += accept
            if log is not None:
                kept = accept & rec[run]
                log.append((run[kept], np.column_stack([wt[kept], wz[kept]])))
        # free the step's stages before the next one; the carried first
        # stages live in the working set only
        del z5, err, k7

        e = np.maximum(enorm, 1e-12)
        np.multiply(dti, np.clip(0.9 * e ** -0.2, 0.2, 5.0), out=wdt)
        finished = (np.abs(wt) >= whor) & ~esc
        # a row whose next step is below the float resolution of its time,
        # or whose next attempt would pass MAX_STEPS, fails now
        floor = 1e-14 * np.maximum(1.0, np.abs(wt))
        fail = ((wdt < floor) | (watt >= MAX_STEPS)) & ~esc & ~finished
        gone = esc | finished | fail
        if gone.any():
            status[run[esc]] = _ESC
            status[run[fail]] = _FAIL
            # a leaving row's state goes back to the full-length arrays
            rows = run[gone]
            z[rows] = wz[gone]
            t[rows] = wt[gone]
            steps[rows] = wsteps[gone]
            work = [col[~gone] for col in work]
            done = run[finished]
            if done.size:
                work = [np.concatenate(cols) for cols in
                        zip(work, enter(complete(done)))]

    if pending:
        rows, z_prev, t_prev, dts = (np.concatenate(col) for col in zip(*pending))
        # an escaped row ends in the stage it escaped in
        t_in, t_out, z_end = _bracket_escapes_batch(field, z_prev, t_prev, dts,
                                                    forward[rows], stage[rows])
        esc_lo[rows] = np.minimum(t_in, t_out)
        esc_hi[rows] = np.maximum(t_in, t_out)
        z[rows] = z_end
        t[rows] = t_out

    trajectories = None
    if log is not None:
        owner, traj = (np.concatenate(col) for col in zip(*log))
        traj = traj[np.argsort(owner, kind="stable")]
        ends = np.cumsum(np.bincount(owner, minlength=m))
        if pending:
            # the bracketed exit point replaces an escaped row's last step
            kept = rec[rows]
            traj[ends[rows[kept]] - 1] = np.column_stack([t_out[kept],
                                                          z_end[kept]])
        trajectories = [None] * m
        for i in np.nonzero(rec)[0]:
            trajectories[i] = traj[ends[i - 1] if i else 0:ends[i]]
    return FlowOutcome(
        endpoint=z,
        elapsed=t,
        status=_STATUS_NAMES[status],
        step_count=steps,
        t_esc_lower=esc_lo,
        t_esc_upper=esc_hi,
        stage=stage,
        trajectories=trajectories,
    )


def integrate(field: HamiltonianField, z0, t: float,
              tol: float = DEFAULT_TOL) -> FlowOutcome:
    """A one-row :func:`integrate_batch` of the point ``z0``."""
    return integrate_batch(field, np.asarray(z0, dtype=float)[None, :], t, tol=tol)


def numerical_jacobian(images: np.ndarray, ok: np.ndarray,
                       fd_step: float) -> np.ndarray:
    """Central-difference Jacobians at ``m`` points, as a C-contiguous
    ``(m, d, d)`` array, read from ``images``, the ``(m * 2 * d, d)`` image
    of ``coordinate_stencil(points, fd_step)`` under a map, in any pass the
    caller makes.  A row count that is not a multiple of ``2 * d``, or an
    ``ok`` flag count that differs from it, raises :class:`InputError`; a
    row with ``ok`` false lies outside the map's domain and raises
    :class:`StencilError`, so the caller can enlarge its margin.
    """
    images, ok = np.asarray(images, dtype=float), np.asarray(ok, dtype=bool)
    rows, d = images.shape
    if rows % (2 * d) or ok.shape != (rows,):
        raise InputError(f"stencil images {images.shape} and flags {ok.shape} "
                         f"do not hold m * 2 * {d} rows each")
    bad = np.nonzero(~ok)[0]
    if bad.size:
        k, r = divmod(int(bad[0]), 2 * d)
        raise StencilError(f"stencil escaped at sample {k}, axis {r // 2}")
    images = images.reshape(rows // (2 * d), d, 2, d)
    cols = (images[:, :, 0, :] - images[:, :, 1, :]) / (2.0 * fd_step)
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


def symplecticity_residual(jacs: np.ndarray) -> np.ndarray:
    """Max-norm of ``J^T Omega J - Omega`` for the standard pairing, per
    matrix of an ``(m, d, d)`` stack: an ``(m,)`` array."""
    jacs = np.asarray(jacs, dtype=float)
    omega = pairing_matrix(jacs.shape[-1])
    return np.abs(np.swapaxes(jacs, 1, 2) @ omega @ jacs - omega).max(axis=(1, 2))


def time1_jacobian_batch(outcome: FlowOutcome, points: np.ndarray,
                         fd_step: float) -> np.ndarray:
    """:func:`numerical_jacobian` of the time-1 map at ``points``, read from
    ``outcome``, the time-1 flow of ``coordinate_stencil(points, fd_step)``.

    An ``outcome`` of another shape raises :class:`InputError`.  Every
    stencil point must survive to t=1; a stencil that touches the excised
    set raises :class:`StencilError` (callers sample with margin).
    """
    m, d = np.shape(points)
    if outcome.endpoint.shape != (2 * d * m, d):
        raise InputError(f"outcome of shape {outcome.endpoint.shape} is not the "
                         f"flow of the stencil of {m} points in {d} dimensions")
    return numerical_jacobian(outcome.endpoint, outcome.completed, fd_step)


def classify_escape(outcome: FlowOutcome, membership: Callable,
                    points: np.ndarray) -> dict:
    """Compare the escape verdict of each grid point (chart exit bracketed
    at or before t=1) with set membership; ``outcome`` is the flow of
    ``points`` to a probe time past 1, such as ``1 + DELTA_PROBE``.

    Returns a report with the mismatch list; an empty list is the pass
    condition.  Points must already be margin-filtered by the caller: on
    the decision boundary the exit time is exactly 1 and the verdict is a
    floating-point coin flip.
    """
    pts = np.asarray(points, dtype=float)
    member = np.asarray(membership(pts), dtype=bool)
    # escaped rows exit at or before t=1; completed rows survive; a
    # tolerance failure is always a mismatch
    failed = outcome.status == TOLERANCE_FAILURE
    verdict = (outcome.status == ESCAPED) & (
        0.5 * (outcome.t_esc_lower + outcome.t_esc_upper) <= 1.0)
    mismatches = [{
        "index": int(i),
        "point": [float(v) for v in pts[i]],
        "verdict": None if failed[i] else bool(verdict[i]),
        "member": bool(member[i]),
        "status": str(outcome.status[i]),
    } for i in np.nonzero(failed | (verdict != member))[0]]
    return {
        "n_points": int(pts.shape[0]),
        "n_mismatches": len(mismatches),
        "mismatches": mismatches,
        "pass": not mismatches,
    }
