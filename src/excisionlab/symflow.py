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
Hamiltonian flows have no structure-preserving discretization here on
purpose: symplecticity is certified a posteriori on the time-1 map, not
assumed from the integrator class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import StencilError
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
    """Result of integrating one trajectory.

    ``status == 'escaped-chart'`` carries a bracket
    ``t_esc_lower <= t_esc <= t_esc_upper`` of width at most ``ESC_BRACKET``
    around the chart-exit time.  ``trajectory`` (when recorded) holds the
    start row ``(0, z0...)`` and one row ``(t, z...)`` per accepted step.
    """

    endpoint: np.ndarray
    elapsed: float
    status: str
    step_count: int = 0
    t_esc_lower: Optional[float] = None
    t_esc_upper: Optional[float] = None
    trajectory: Optional[np.ndarray] = None

    @property
    def completed(self) -> bool:
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


# integer status codes used internally for vectorized masking
_RUNNING, _DONE, _ESC, _FAIL = 0, 1, 2, 3
_STATUS_NAMES = {_DONE: COMPLETED, _ESC: ESCAPED, _FAIL: TOLERANCE_FAILURE}


def integrate_batch(field: HamiltonianField, z0: np.ndarray, t_final: float,
                    tol: float = DEFAULT_TOL,
                    max_steps: int = 50_000,
                    record: bool = False) -> list[FlowOutcome]:
    """Integrate an ``(m, d)`` batch of initial conditions for the signed
    time ``t_final``.

    Each point carries its own adaptive step; the batch is advanced with
    active masks, so heterogeneous stiffness does not couple points, and
    the result order matches the input order regardless of which points
    finish first.  A point exceeding ``max_steps`` attempts is reported as
    a tolerance failure rather than stalling the batch.

    A negative ``t_final`` flows backward along the reversed field (whose
    chart monitor never fires; only the ``R_MAX`` norm guard does) and
    reports negative ``elapsed``.  With ``record=True`` every outcome
    carries one row ``(t, z...)`` per accepted step after the start row;
    on a chart exit the last row is the bracketed exit point.
    """
    backward = t_final < 0
    if backward:
        field, t_final = _Reversed(field), -t_final
    z = np.array(z0, dtype=float)
    m = z.shape[0]
    t = np.zeros(m)
    dt = np.full(m, min(1e-2, t_final))
    status = np.full(m, _RUNNING, dtype=int)
    steps = np.zeros(m, dtype=int)
    esc_lo = np.full(m, np.nan)
    esc_hi = np.full(m, np.nan)
    rows = [[np.concatenate([[0.0], zi])] for zi in z] if record else None

    already = _escaped(field, z)
    status[already] = _ESC
    esc_lo[already] = 0.0
    esc_hi[already] = 0.0
    # first stage of each row's next step: f at its start, then the last
    # stage of each accepted step; a rejected step keeps it
    k1 = np.zeros_like(z)
    if not np.all(already):
        k1[~already] = field.vector_field(z[~already])

    pend_idx: list[int] = []
    pend_zprev: list[np.ndarray] = []
    pend_tprev: list[float] = []
    pend_dt: list[float] = []

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
            z_prev = z[acc].copy()
            t_prev = t[acc].copy()
            t[acc] += dti[accept]
            z[acc] = z5[accept]
            k1[acc] = k7[accept]
            steps[acc] += 1
            if record:
                for i in acc:
                    rows[i].append(np.concatenate([[t[i]], z[i]]))
            esc_now = _escaped(field, z[acc])
            esc_rows = np.nonzero(esc_now)[0]
            for r in esc_rows:
                pend_idx.append(int(acc[r]))
                pend_zprev.append(z_prev[r])
                pend_tprev.append(float(t_prev[r]))
                pend_dt.append(float(dti[accept][r]))
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

    if pend_idx:
        lo, hi, z_end = _bracket_escapes_batch(
            field, np.stack(pend_zprev), np.array(pend_tprev), np.array(pend_dt)
        )
        for j, i in enumerate(pend_idx):
            esc_lo[i], esc_hi[i] = lo[j], hi[j]
            z[i] = z_end[j]
            t[i] = hi[j]
            if record:
                rows[i][-1] = np.concatenate([[hi[j]], z_end[j]])

    sign = -1.0 if backward else 1.0
    out = []
    for i in range(m):
        traj = None
        if record:
            traj = np.array(rows[i])
            traj[:, 0] *= sign
        out.append(FlowOutcome(
            endpoint=z[i].copy(),
            elapsed=sign * float(t[i]),
            status=_STATUS_NAMES[status[i]],
            step_count=int(steps[i]),
            t_esc_lower=None if np.isnan(esc_lo[i]) else float(esc_lo[i]),
            t_esc_upper=None if np.isnan(esc_hi[i]) else float(esc_hi[i]),
            trajectory=traj,
        ))
    return out


def integrate(field: HamiltonianField, z0, t: float,
              tol: float = DEFAULT_TOL) -> FlowOutcome:
    """Integrate a single trajectory for time ``t`` (either sign); a
    one-point :func:`integrate_batch` with a shortcut for ``t == 0``."""
    z0 = np.asarray(z0, dtype=float)
    if t == 0.0:
        return FlowOutcome(endpoint=z0.copy(), elapsed=0.0, status=COMPLETED)
    return integrate_batch(field, z0[None, :], t, tol=tol)[0]


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
        outs = integrate_batch(field, stencil, 1.0, tol=tol)
        return (np.stack([out.endpoint for out in outs]),
                np.array([out.status == COMPLETED for out in outs]))
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
    outcomes = integrate_batch(field, pts, t_probe, tol=tol)
    member = membership(pts)
    mismatches = []
    for i, out in enumerate(outcomes):
        if out.status == ESCAPED:
            verdict = 0.5 * (out.t_esc_lower + out.t_esc_upper) <= 1.0
        elif out.status == COMPLETED:
            verdict = False
        else:
            verdict = None  # tolerance failure: always a mismatch
        if verdict is None or bool(verdict) != bool(member[i]):
            mismatches.append({
                "index": int(i),
                "point": [float(v) for v in pts[i]],
                "verdict": None if verdict is None else bool(verdict),
                "member": bool(member[i]),
                "status": out.status,
            })
    return {
        "n_points": int(pts.shape[0]),
        "n_mismatches": len(mismatches),
        "mismatches": mismatches,
        "pass": not mismatches,
    }
