"""Times of flight and flow maps for autonomous 1D ODEs ``dx/dt = v(x)``.

For a nonnegative speed field ``v`` on an open interval, the travel time
between two points is the integral of ``1/v``; the forward time to the right
endpoint is finite exactly when ``v`` stays positive ahead and the improper
integral converges.  This module provides:

* an adaptive Gauss-Kronrod quadrature with divergence detection,
* :func:`forward_time` / :func:`backward_time` returning a
  :class:`TimeOfFlight` (finite, infinite-by-divergence, or blocked by a
  zero of ``v``),
* :func:`flow_map`, inverting the time integral by bracketed bisection,
* the closed-form time :func:`ramp_time_closed_form` for the parametric
  ramp velocity, and the threshold :func:`unit_time_threshold` where that
  time equals 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FlowDomainError, InputError, ToleranceFailure
from .scalar_kit import ScalarField1D

__all__ = [
    "QUAD_TOL",
    "DIVERGENCE_CAP",
    "TimeOfFlight",
    "MODE_CLOSED_FORM",
    "MODE_QUADRATURE",
    "MODE_ZERO_BLOCKED",
    "adaptive_quad",
    "forward_time",
    "backward_time",
    "flow_map",
    "ramp_time_closed_form",
    "unit_time_threshold",
]

QUAD_TOL = 1e-10
ROOT_TOL = 1e-12
DIVERGENCE_CAP = 1e6
MAX_LEVELS = 60
ZERO_SCAN_STEP = 1e-4

MODE_CLOSED_FORM = "closed-form"
MODE_QUADRATURE = "quadrature"
MODE_ZERO_BLOCKED = "zero-blocked"


@dataclass(frozen=True)
class TimeOfFlight:
    """Signed time of flight to an interval endpoint.

    ``value`` is positive for forward times, negative for backward times,
    and infinite either because a zero of the speed blocks the way
    (``zero-blocked``) or because the improper time integral diverges.
    ``lower_bound`` certifies divergence: the integral restricted to the
    explored range already exceeds it.
    """

    value: float
    mode: str
    lower_bound: Optional[float] = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15(7) adaptive quadrature
# ---------------------------------------------------------------------------

_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _XGK), dtype=float)
    kron = half * float(_WGK @ fx)
    gauss = half * float(_WG @ fx[_GAUSS_IDX])
    return kron, abs(kron - gauss)


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    tol: float = QUAD_TOL,
    cap: Optional[float] = None,
    max_depth: int = MAX_LEVELS,
    max_panels: int = 8192,
):
    """Integrate ``f`` over ``[a, b]`` by adaptive bisection of GK15 panels.

    Returns ``(value, error, capped)``.  When ``cap`` is given and the
    running value provably exceeds it, integration stops early with
    ``capped=True`` (used to certify divergence of time integrals).  Depth
    or panel exhaustion raises :class:`ToleranceFailure` carrying the
    partial value.
    """
    if b <= a:
        return 0.0, 0.0, False
    val, err = _gk15(f, a, b)
    panels = [(err, a, b, val, 0)]
    total, toterr = val, err
    while toterr > tol * max(1.0, abs(total)):
        if cap is not None and total - toterr > cap:
            return total, toterr, True
        panels.sort(key=lambda p: p[0])
        perr, pa, pb, pval, depth = panels.pop()
        if depth >= max_depth or len(panels) >= max_panels:
            if cap is not None and total - toterr > cap:
                return total, toterr, True
            raise ToleranceFailure(
                f"quadrature did not converge on [{a}, {b}]", partial=total
            )
        pm = 0.5 * (pa + pb)
        lval, lerr = _gk15(f, pa, pm)
        rval, rerr = _gk15(f, pm, pb)
        total += lval + rval - pval
        toterr += lerr + rerr - perr
        panels.append((lerr, pa, pm, lval, depth + 1))
        panels.append((rerr, pm, pb, rval, depth + 1))
    return total, toterr, False


# ---------------------------------------------------------------------------
# zero detection ahead of / behind a point
# ---------------------------------------------------------------------------

def _zero_barrier(v: ScalarField1D, x: float, direction: int) -> Optional[float]:
    """Nearest boundary of the zero set of ``v`` strictly beyond ``x`` in the
    given direction (+1 toward the right endpoint, -1 toward the left), or
    ``None`` when the way is clear.

    Fields constructed by the kit carry their zero set exactly; for opaque
    fields a fixed-resolution scan is used and its resolution is a
    documented limitation.
    """
    lo, hi = v.domain
    if v.zero_regions is not None:
        best = None
        for zl, zh in v.zero_regions:
            if direction > 0 and zh > x and zl < hi:
                edge = max(zl, x)
                best = edge if best is None else min(best, edge)
            if direction < 0 and zl < x and zh > lo:
                edge = min(zh, x)
                best = edge if best is None else max(best, edge)
        return best
    # opaque field: scan at fixed resolution
    if direction > 0:
        grid = np.arange(x, hi, ZERO_SCAN_STEP)
    else:
        grid = np.arange(x, lo, -ZERO_SCAN_STEP)
    if grid.size == 0:
        return None
    vals = np.asarray(v(grid), dtype=float)
    idx = np.nonzero(vals == 0.0)[0]
    if idx.size == 0:
        return None
    return float(grid[idx[0]])


def _improper_endpoint_time(v: ScalarField1D, x: float, endpoint: float, sign: int, tol: float):
    """Integrate ``1/v`` from ``x`` toward ``endpoint`` (never evaluating at
    the endpoint) with geometric shrinking, declaring divergence when the
    partial sums exceed the cap or stop decaying."""

    def integrand(xi):
        return 1.0 / np.asarray(v(xi), dtype=float)

    span = abs(endpoint - x)
    accum = 0.0
    contribs = []
    delta = 0.5 * span
    # first panel covers the regular bulk [x, endpoint -/+ delta]
    lo_pt = min(x, endpoint - sign * delta)
    hi_pt = max(x, endpoint - sign * delta)
    val, _, capped = adaptive_quad(integrand, lo_pt, hi_pt, tol=tol, cap=DIVERGENCE_CAP)
    accum += val
    if capped or accum > DIVERGENCE_CAP:
        return TimeOfFlight(math.inf, MODE_QUADRATURE, lower_bound=accum)
    for level in range(1, MAX_LEVELS + 1):
        new_delta = 0.5 * delta
        a_pt = endpoint - sign * delta
        b_pt = endpoint - sign * new_delta
        lo_pt, hi_pt = (a_pt, b_pt) if sign > 0 else (b_pt, a_pt)
        val, _, capped = adaptive_quad(integrand, lo_pt, hi_pt, tol=tol, cap=DIVERGENCE_CAP)
        accum += val
        contribs.append(val)
        delta = new_delta
        if capped or accum > DIVERGENCE_CAP:
            return TimeOfFlight(math.inf, MODE_QUADRATURE, lower_bound=accum)
        if val <= tol * max(1.0, accum):
            # geometric tail extrapolation; the remainder is below tol
            ratio = 0.5
            if len(contribs) >= 2 and contribs[-2] > 0:
                ratio = min(max(val / contribs[-2], 0.0), 0.9)
            accum += val * ratio / (1.0 - ratio)
            return TimeOfFlight(accum, MODE_QUADRATURE)
        if level >= 12 and len(contribs) >= 5:
            tail = contribs[-5:]
            ratios = [t1 / t0 for t0, t1 in zip(tail, tail[1:]) if t0 > 0]
            if ratios and min(ratios) >= 0.85 and val > 1e-8:
                # contributions per dyadic level stop decaying: divergence
                return TimeOfFlight(math.inf, MODE_QUADRATURE, lower_bound=accum)
    raise ToleranceFailure(
        f"improper time integral toward {endpoint} did not settle", partial=accum
    )


def forward_time(v: ScalarField1D, x: float, tol: float = QUAD_TOL) -> TimeOfFlight:
    """Time of flight from ``x`` to the right endpoint of the domain of ``v``.

    Returns ``zero-blocked`` infinity when ``v`` vanishes somewhere on
    ``[x, hi)``; otherwise the (possibly divergent) improper integral of
    ``1/v`` computed by adaptive quadrature.
    """
    v.check_domain(x)
    if float(v(x)) == 0.0:
        return TimeOfFlight(math.inf, MODE_ZERO_BLOCKED)
    barrier = _zero_barrier(v, x, +1)
    if barrier is not None:
        return TimeOfFlight(math.inf, MODE_ZERO_BLOCKED)
    return _improper_endpoint_time(v, x, v.domain[1], +1, tol)


def backward_time(v: ScalarField1D, x: float, tol: float = QUAD_TOL) -> TimeOfFlight:
    """Signed (negative) time of flight from ``x`` back to the left endpoint."""
    v.check_domain(x)
    if float(v(x)) == 0.0:
        return TimeOfFlight(-math.inf, MODE_ZERO_BLOCKED)
    barrier = _zero_barrier(v, x, -1)
    if barrier is not None:
        return TimeOfFlight(-math.inf, MODE_ZERO_BLOCKED)
    res = _improper_endpoint_time(v, x, v.domain[0], -1, tol)
    if not res.finite:
        return TimeOfFlight(-math.inf, res.mode, lower_bound=res.lower_bound)
    return TimeOfFlight(-res.value, res.mode)


@np.errstate(divide="ignore", over="ignore")
def flow_map(v: ScalarField1D, t: float, x: float, tol: float = QUAD_TOL) -> float:
    """Point reached from ``x`` after flowing for time ``t`` along ``v``.

    Solves ``int_x^y dxi / v(xi) = t`` for ``y`` by monotone bisection of
    the cumulative time integral.  Points where ``v`` vanishes are fixed for
    all times.  Times outside the flow domain raise
    :class:`~excisionlab.errors.FlowDomainError`; a NaN time raises
    :class:`~excisionlab.errors.InputError`.  A quadrature node next to a
    zero of ``v``, where ``v`` underflows to 0, gives ``1/v = inf``: an
    infinite time, which the bracket treats as beyond the target.
    """
    v.check_domain(x)
    if not -math.inf <= t <= math.inf:
        raise InputError("flow time must not be NaN")
    if float(v(x)) == 0.0 or t == 0.0:
        return float(x)
    lo, hi = v.domain

    def cum(frm: float, to: float) -> float:
        val, _, capped = adaptive_quad(
            lambda xi: 1.0 / np.asarray(v(xi), dtype=float), frm, to,
            tol=tol, cap=DIVERGENCE_CAP,
        )
        return math.inf if capped else val

    # Bracket and bisect away from x in the flow direction d; "near" is the
    # end of the bracket on x's side, "far" the end beyond the target time.
    d = 1 if t > 0 else -1
    target = abs(t)
    tof = (forward_time if d > 0 else backward_time)(v, x, tol=tol)
    if target >= d * tof.value:
        other = (backward_time if d > 0 else forward_time)(v, x, tol=tol)
        back, fwd = (other, tof) if d > 0 else (tof, other)
        raise FlowDomainError(t, back.value, fwd.value)
    barrier = _zero_barrier(v, x, d)
    end = (hi if d > 0 else lo) if barrier is None else barrier

    def span(y0: float, y1: float) -> float:
        """Time from ``y0`` to ``y1`` in the flow direction."""
        return cum(y0, y1) if d > 0 else cum(y1, y0)

    # expand the bracket toward the barrier until the time exceeds |t|
    near, t_near = x, 0.0
    far = None
    step = 0.5 * abs(end - x)
    probe = x + d * step
    t_probe = t_near + span(near, probe)
    for _ in range(200):
        if t_probe > target:
            far = probe
            break
        near, t_near = probe, t_probe
        step *= 0.5
        probe = end - d * step
        t_probe = t_near + span(near, probe)
    if far is None:
        if d > 0:
            raise FlowDomainError(t, -math.inf, t_probe)
        raise FlowDomainError(t, -t_probe, math.inf)
    while abs(far - near) > ROOT_TOL:
        mid = 0.5 * (near + far)
        t_mid = t_near + span(near, mid)
        # forward keeps t_mid < t on the near side, backward t_mid > -t on
        # the far side; the two differ only on a tie
        if (t_mid < target if d > 0 else not t_mid > target):
            near, t_near = mid, t_mid
        else:
            far = mid
    return 0.5 * (near + far)


# ---------------------------------------------------------------------------
# closed-form times for the parametric ramp velocity
# ---------------------------------------------------------------------------

def _check_ramp_params(a: float, b: float, c: float) -> None:
    if not (-1.0 < a < 1.0):
        raise InputError("a must lie in (-1, 1)")
    if not (-1.0 <= b <= 1.0):
        raise InputError("b must lie in [-1, 1]")
    if not (0.0 <= c <= 1.0):
        raise InputError("c must lie in [0, 1]")


def _ramp_corner(xi, a: float, s: float):
    """Corner factor ``exp(1/(xi - s) - 1/(a - xi))`` of the ramp time on
    the band ``(s, a)``, with the exponent clipped to the float range."""
    xi = np.asarray(xi, dtype=float)
    expo = (1.0 / np.maximum(xi - s, 1e-300)
            - 1.0 / np.maximum(a - xi, 1e-300))
    return np.exp(np.clip(expo, -745.0, 700.0))


def _tu2_correction(a: float, b: float, x: float, tol: float = QUAD_TOL):
    """Quadrature of the ramp correction integral over ``[x, a]`` for the
    band below the cutoff plateau (c = 0 branch)."""
    s = 0.5 * (a - 1.0)
    return adaptive_quad(lambda xi: (1.0 + _ramp_corner(xi, a, s)) / (1.0 - b),
                         x, a, tol=tol, cap=DIVERGENCE_CAP)


def ramp_time_closed_form(a: float, b: float, c: float, x: float,
                          tol: float = QUAD_TOL) -> TimeOfFlight:
    """Forward time to the right endpoint for the ramp velocity, from the
    antiderivative: ``(1-x)/(1-b)`` above the ramp with ``c = 0``, infinite
    for ``c > 0`` or ``b = 1``, and below the plateau an explicit correction
    integral on the ramp band.
    """
    _check_ramp_params(a, b, c)
    if not (-1.0 < x < 1.0):
        raise InputError("x must lie in (-1, 1)")
    s = 0.5 * (a - 1.0)
    if x <= s or b == 1.0:
        return TimeOfFlight(math.inf, MODE_ZERO_BLOCKED)
    if c > 0.0:
        return TimeOfFlight(math.inf, MODE_CLOSED_FORM)
    if x >= a:
        return TimeOfFlight((1.0 - x) / (1.0 - b), MODE_CLOSED_FORM)
    base = (1.0 - a) / (1.0 - b)
    try:
        corr, _, capped = _tu2_correction(a, b, x, tol=tol)
    except ToleranceFailure as failure:
        # the ramp-corner integrand can exceed the float range before the
        # panels settle; the accumulated partial already certifies the time
        # as operationally infinite
        if failure.partial is not None and failure.partial > DIVERGENCE_CAP:
            return TimeOfFlight(math.inf, MODE_CLOSED_FORM,
                                lower_bound=failure.partial)
        raise
    if capped or base + corr > DIVERGENCE_CAP:
        return TimeOfFlight(math.inf, MODE_CLOSED_FORM, lower_bound=base + corr)
    return TimeOfFlight(base + corr, MODE_CLOSED_FORM)


def unit_time_threshold(a: float, b: float, tol: float = ROOT_TOL) -> float:
    """The unique ``x`` where the ramp time (with ``c = 0``) equals 1.

    Equals ``b`` whenever ``b >= a`` (the linear branch inverts exactly);
    for ``b < a`` it lies strictly between ``max(b, (a-1)/2)`` and ``a`` and
    is found by bisection on the strictly decreasing closed-form time.
    """
    _check_ramp_params(a, b, 0.0)
    if b >= 1.0:
        raise InputError("b must lie in [-1, 1) for a finite threshold")
    s = 0.5 * (a - 1.0)
    if (1.0 - a) / (1.0 - b) >= 1.0:      # b >= a: threshold on the plateau
        return float(b)

    # Below the plateau the defining equation reduces to
    #   A(x) = x - b,   A(x) = int_x^a exp(1/(xi-s) - 1/(a-xi)) dxi,
    # with A strictly decreasing and blowing up at the corner, so the lower
    # bracket needs no evaluation; bisect with incremental quadrature,
    # treating capped segments as certified-above (x - b never exceeds 2).
    def seg(lo: float, hi: float) -> float:
        try:
            val, _, capped = adaptive_quad(lambda xi: _ramp_corner(xi, a, s),
                                           lo, hi, tol=1e-13, cap=2.5)
        except ToleranceFailure as failure:
            if failure.partial is not None and failure.partial > 2.5:
                return math.inf
            raise
        return math.inf if capped else val

    x_lo = max(b, s) + 1e-13 * (a - max(b, s))
    x_hi, A_hi = a, 0.0
    while x_hi - x_lo > tol:
        mid = 0.5 * (x_lo + x_hi)
        A_mid = A_hi + seg(mid, x_hi)
        if A_mid - (mid - b) > 0.0:
            x_lo = mid
        else:
            x_hi, A_hi = mid, A_mid
    return 0.5 * (x_lo + x_hi)
