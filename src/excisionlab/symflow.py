"""Trajectory integration with chart-escape detection, plus the toolkit
that certifies time-1 maps: numerical Jacobians, symplecticity residuals,
inverse consistency, and grid classification sweeps.

The integrator is an embedded Dormand-Prince 5(4) pair with per-point
adaptive steps, vectorized over batches of initial conditions.  Each step
attempt makes six RHS calls: the seventh stage is evaluated at the
fifth-order solution itself, so an accepted step's last stage is carried
over, bitwise, as the first stage of the next step (first same as last,
FSAL), and a rejected step keeps the first stage it had.  A point is
declared to have escaped the chart when its monitor coordinate crosses
``1 - DELTA_ESC`` (or its norm exceeds ``R_MAX``); the crossing time is then
bracketed to width ``ESC_BRACKET`` by bisecting the last accepted step.
A batch in gives a batch out: :func:`integrate_batch` returns one
:class:`FlowOutcome` whose fields are arrays with one entry per row, so
callers read masks and endpoints without taking per-row objects apart.
Hamiltonian flows have no structure-preserving discretization here on
purpose: symplecticity is certified a posteriori on the time-1 map, not
assumed from the integrator class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, StencilError
from .ham_extension import HamiltonianField, coordinate_stencil, pairing_matrix

__all__ = [
    "DELTA_ESC",
    "R_MAX",
    "DELTA_PROBE",
    "ESC_BRACKET",
    "DEFAULT_TOL",
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

COMPLETED = "completed"
ESCAPED = "escaped-chart"
TOLERANCE_FAILURE = "tolerance-failure"

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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


@dataclass
class FlowOutcome:
    """Result of integrating an ``(m, d)`` batch: one entry per row.

    ``endpoint`` is ``(m, d)``; ``elapsed``, ``status``, ``step_count``,
    ``t_esc_lower`` and ``t_esc_upper`` are ``(m,)``.  ``status`` holds the
    strings ``COMPLETED``, ``ESCAPED`` or ``TOLERANCE_FAILURE``.  An escaped
    row carries a bracket ``t_esc_lower <= t_esc <= t_esc_upper`` of width
    at most ``ESC_BRACKET`` around its chart-exit time; the bracket is NaN
    on every other row.  ``trajectories`` (when recorded) is a list of
    ``m`` arrays, each holding the start row ``(0, z0...)`` and one row
    ``(t, z...)`` per accepted step.
    """

    endpoint: np.ndarray
    elapsed: np.ndarray
    status: np.ndarray
    step_count: np.ndarray
    t_esc_lower: np.ndarray
    t_esc_upper: np.ndarray
    trajectories: Optional[list] = None

    @property
    def completed(self) -> np.ndarray:
        return self.status == COMPLETED


class _Reversed(HamiltonianField):
    def __init__(self, base: HamiltonianField):
        self.base = base
        self.dim = base.dim

    def value(self, z):
        return self.base.value(z)

    def grad(self, z):
        return self.base.grad(z)

    def vector_field(self, z):
        return -self.base.vector_field(z)

    def escape_value(self, z):
        # backward flows move away from the chart end; keep the norm guard
        return np.full(np.shape(z)[0], -np.inf)


def _escaped(field: HamiltonianField, pts: np.ndarray) -> np.ndarray:
    esc = np.asarray(field.escape_value(pts)) >= 1.0 - DELTA_ESC
    esc |= np.linalg.norm(pts, axis=1) >= R_MAX
    return esc


def _dp_step(field: HamiltonianField, z: np.ndarray, dt: np.ndarray,
             k1: np.ndarray):
    """One Dormand-Prince step for a batch from its first stage
    ``k1 = f(z)``: returns ``(z5, err_vector, k7)``.

    Stage 7 is evaluated at ``z5`` itself (its weights are the fifth-order
    weights, applied in the same order), so ``k7`` is bitwise the first
    stage of the next step from ``z5``: six RHS calls per step (FSAL).
    """
    ks = [k1]
    for i in range(1, 7):
        zi = z.copy()
        for j, aij in enumerate(_DP_A[i]):
            if aij != 0.0:
                zi = zi + (dt * aij)[:, None] * ks[j]
        ks.append(field.vector_field(zi))
    z5 = z.copy()
    err = np.zeros_like(z)
    for i in range(7):
        if _DP_B5[i] != 0.0:
            z5 = z5 + (dt * _DP_B5[i])[:, None] * ks[i]
        if _DP_ERR[i] != 0.0:
            err = err + (dt * _DP_ERR[i])[:, None] * ks[i]
    return z5, err, ks[6]


def _bracket_escapes_batch(field, z_prev, t_prev, dts):
    """Bracket chart-exit times for a batch of escaping steps.

    Each row escaped between its step start ``z_prev`` (not escaped) and its
    accepted endpoint (escaped); bisect the step fraction in lockstep until
    every bracket is narrower than ``ESC_BRACKET`` in flow time.  Every
    bisection step starts from ``z_prev``, so its first stage is evaluated
    once for all of them.
    """
    k = z_prev.shape[0]
    k_prev = field.vector_field(z_prev)
    lo = np.zeros(k)
    hi = np.ones(k)
    while True:
        open_mask = (hi - lo) * dts > ESC_BRACKET
        if not np.any(open_mask):
            break
        mid = 0.5 * (lo + hi)
        zm, _, _ = _dp_step(field, z_prev[open_mask], (mid * dts)[open_mask],
                            k_prev[open_mask])
        esc = _escaped(field, zm)
        sub = np.nonzero(open_mask)[0]
        hi[sub[esc]] = mid[sub[esc]]
        lo[sub[~esc]] = mid[sub[~esc]]
    z_end, _, _ = _dp_step(field, z_prev, hi * dts, k_prev)
    return t_prev + lo * dts, t_prev + hi * dts, z_end


# integer status codes used internally for vectorized masking; a finished
# row's code indexes its name
_RUNNING, _DONE, _ESC, _FAIL = -1, 0, 1, 2
_STATUS_NAMES = np.array([COMPLETED, ESCAPED, TOLERANCE_FAILURE])


def integrate_batch(field: HamiltonianField, z0: np.ndarray, t_final: float,
                    tol: float = DEFAULT_TOL,
                    max_steps: int = 50_000,
                    record: bool = False) -> FlowOutcome:
    """Integrate an ``(m, d)`` batch of initial conditions for the signed
    time ``t_final``.

    Each point carries its own adaptive step; the batch is advanced with
    active masks, so heterogeneous stiffness does not couple points, and
    the result order matches the input order regardless of which points
    finish first.  A point exceeding ``max_steps`` attempts is reported as
    a tolerance failure rather than stalling the batch.  At
    ``t_final == 0`` every start that has not already escaped completes
    without a step.  A non-finite ``t_final`` or start row raises
    :class:`InputError` before any RHS call.

    A negative ``t_final`` flows backward along the reversed field (whose
    chart monitor never fires; only the ``R_MAX`` norm guard does) and
    reports negative ``elapsed``.  With ``record=True`` each row's
    trajectory holds one row ``(t, z...)`` per accepted step after the
    start row; on a chart exit the last row is the bracketed exit point.
    """
    z = np.array(z0, dtype=float)
    if not np.isfinite(t_final):
        raise InputError(f"t_final must be finite, got {t_final!r}")
    bad = np.nonzero(~np.all(np.isfinite(z), axis=1))[0]
    if bad.size:
        raise InputError(f"start row {bad[0]} is not finite")
    backward = t_final < 0
    if backward:
        field, t_final = _Reversed(field), -t_final
    m = z.shape[0]
    t = np.zeros(m)
    dt = np.full(m, min(1e-2, t_final))
    steps = np.zeros(m, dtype=int)
    # accepted rows of each step, as (row indices, (t, z...) rows)
    log = [(np.arange(m), np.column_stack([t, z]))] if record else None

    already = _escaped(field, z)
    status = np.where(already, _ESC, _DONE if t_final == 0 else _RUNNING)
    esc_lo = np.where(already, 0.0, np.nan)
    esc_hi = esc_lo.copy()
    # first stage of each row's next step: f at its start, then the last
    # stage of each accepted step; a rejected step keeps it
    k1 = np.zeros_like(z)
    running = status == _RUNNING
    if np.any(running):
        k1[running] = field.vector_field(z[running])

    # escaping steps in the order they escaped: rows, starts, times, steps
    pending = []
    dt_min = 1e-14 * max(1.0, abs(t_final))
    attempts = np.zeros(m, dtype=int)
    while True:
        idx = np.nonzero(status == _RUNNING)[0]
        if idx.size == 0:
            break
        attempts[idx] += 1
        over = idx[attempts[idx] > max_steps]
        if over.size:
            status[over] = _FAIL
            idx = np.nonzero(status == _RUNNING)[0]
            if idx.size == 0:
                break
        zi = z[idx]
        dti = np.minimum(dt[idx], t_final - t[idx])
        z5, err, k7 = _dp_step(field, zi, dti, k1[idx])
        scale = tol + tol * np.maximum(np.abs(zi), np.abs(z5)).max(axis=1)
        enorm = np.abs(err).max(axis=1) / scale
        accept = enorm <= 1.0

        acc = idx[accept]
        if acc.size:
            dta = dti[accept]
            esc_now = _escaped(field, z5[accept])
            if np.any(esc_now):
                pending.append((acc[esc_now], zi[accept][esc_now],
                                t[acc][esc_now], dta[esc_now]))
            t[acc] += dta
            z[acc] = z5[accept]
            k1[acc] = k7[accept]
            steps[acc] += 1
            if record:
                log.append((acc, np.column_stack([t[acc], z[acc]])))
            status[acc[esc_now]] = _ESC
            done = (t[acc] >= t_final) & ~esc_now
            status[acc[done]] = _DONE
        # free the step's stages before the next one; the carried first
        # stages live in k1 only
        del z5, err, k7

        e = np.maximum(enorm, 1e-12)
        dt[idx] = dti * np.clip(0.9 * e ** -0.2, 0.2, 5.0)
        fail = (dt[idx] < dt_min) & (status[idx] == _RUNNING)
        status[idx[fail]] = _FAIL

    if pending:
        rows, z_prev, t_prev, dts = (np.concatenate(col) for col in zip(*pending))
        lo, hi, z_end = _bracket_escapes_batch(field, z_prev, t_prev, dts)
        esc_lo[rows], esc_hi[rows] = lo, hi
        z[rows] = z_end
        t[rows] = hi

    sign = -1.0 if backward else 1.0
    trajectories = None
    if record:
        owner, traj = (np.concatenate(col) for col in zip(*log))
        traj = traj[np.argsort(owner, kind="stable")]
        ends = np.cumsum(np.bincount(owner, minlength=m))
        if pending:
            # the bracketed exit point replaces an escaped row's last step
            traj[ends[rows] - 1] = np.column_stack([hi, z_end])
        traj[:, 0] *= sign
        trajectories = np.split(traj, ends)[:m]
    return FlowOutcome(
        endpoint=z,
        elapsed=sign * t,
        status=_STATUS_NAMES[status],
        step_count=steps,
        t_esc_lower=esc_lo,
        t_esc_upper=esc_hi,
        trajectories=trajectories,
    )


def integrate(field: HamiltonianField, z0, t: float,
              tol: float = DEFAULT_TOL) -> FlowOutcome:
    """A one-row :func:`integrate_batch` of the point ``z0``."""
    return integrate_batch(field, np.asarray(z0, dtype=float)[None, :], t, tol=tol)


def numerical_jacobian(map_batch: Callable[[np.ndarray], tuple],
                       points: np.ndarray, fd_step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobians of a batch map at ``m`` points, as a
    C-contiguous ``(m, d, d)`` array.

    The whole coordinate stencil goes through one call
    ``map_batch(stencil) -> (images, ok)``; a stencil row with ``ok``
    false lies outside the map's domain and raises :class:`StencilError`
    so the caller can enlarge its margin.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    images, ok = map_batch(coordinate_stencil(pts, fd_step))
    bad = np.nonzero(~np.asarray(ok, dtype=bool))[0]
    if bad.size:
        k, r = divmod(int(bad[0]), 2 * d)
        raise StencilError(f"stencil escaped at sample {k}, axis {r // 2}")
    images = np.asarray(images, dtype=float).reshape(m, d, 2, d)
    cols = (images[:, :, 0, :] - images[:, :, 1, :]) / (2.0 * fd_step)
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


def symplecticity_residual(jac: np.ndarray) -> float:
    """Max-norm of ``J^T Omega J - Omega`` for the standard pairing."""
    omega = pairing_matrix(jac.shape[0])
    return float(np.abs(jac.T @ omega @ jac - omega).max())


def time1_jacobian_batch(field: HamiltonianField, points: np.ndarray,
                         fd_step: float = 1e-5,
                         tol: float = DEFAULT_TOL) -> np.ndarray:
    """:func:`numerical_jacobian` of the time-1 map, with the whole stencil
    integrated as one batch.

    Every stencil point must survive to t=1; a stencil that touches the
    excised set raises :class:`StencilError` (callers sample with margin).
    """
    def time1(stencil):
        out = integrate_batch(field, stencil, 1.0, tol=tol)
        return out.endpoint, out.completed
    return numerical_jacobian(time1, points, fd_step)


def classify_escape(field: HamiltonianField, membership: Callable,
                    points: np.ndarray, t_probe: float = 1.0 + DELTA_PROBE,
                    tol: float = DEFAULT_TOL) -> dict:
    """Integrate every grid point to ``t_probe`` and compare the escape
    verdict (chart exit bracketed at or before t=1) with set membership.

    Returns a report with the mismatch list; an empty list is the pass
    condition.  Points must already be margin-filtered by the caller: on
    the decision boundary the exit time is exactly 1 and the verdict is a
    floating-point coin flip.
    """
    pts = np.asarray(points, dtype=float)
    out = integrate_batch(field, pts, t_probe, tol=tol)
    member = np.asarray(membership(pts), dtype=bool)
    # escaped rows exit at or before t=1; completed rows survive; a
    # tolerance failure is always a mismatch
    failed = out.status == TOLERANCE_FAILURE
    verdict = (out.status == ESCAPED) & (
        0.5 * (out.t_esc_lower + out.t_esc_upper) <= 1.0)
    mismatches = [{
        "index": int(i),
        "point": [float(v) for v in pts[i]],
        "verdict": None if failed[i] else bool(verdict[i]),
        "member": bool(member[i]),
        "status": str(out.status[i]),
    } for i in np.nonzero(failed | (verdict != member))[0]]
    return {
        "n_points": int(pts.shape[0]),
        "n_mismatches": len(mismatches),
        "mismatches": mismatches,
        "pass": not mismatches,
    }
