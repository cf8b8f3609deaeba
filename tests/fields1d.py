"""1D speed fields and closed-form oracles that only the tests use.

The package's own fibres are ramp fields (``ramp_velocity_field``) and
glued tower fibres; the fields here give the flow tests speeds with
known times: a constant, an affine speed with a log-divergent end, and
the bridge profile with its exact crossing time.  Each is a one-row
``Fibres``, and ``speed`` evaluates such a fibre at points.
``ramp_time_reference`` is the one-point closed-form ramp time that the
batch ``flow1d.ramp_time_closed_form`` must equal bitwise.
"""

import math

import numpy as np

from excisionlab import flow1d as f1
from excisionlab.errors import InputError, ToleranceFailure
from excisionlab.scalar_kit import Fibres, bridge_velocity, check_ramp_params


def one_fibre(f, domain, zero=(math.nan, math.nan)) -> Fibres:
    """The speed ``f``, elementwise, on the open interval ``domain``,
    vanishing on the closed interval ``zero``."""
    return Fibres(domain=np.array([domain], dtype=float),
                  zero=np.array([zero], dtype=float),
                  velocity=lambda rows, nodes: f(nodes))


def speed(fibre: Fibres, x) -> np.ndarray:
    """The speed of the one fibre of ``fibre`` at points ``x`` of any shape."""
    x = np.asarray(x, dtype=float)
    return fibre.velocity(np.zeros(1, dtype=int), x.reshape(1, -1)).reshape(x.shape)


def constant_field(value: float, domain=(0.0, 1.0)) -> Fibres:
    zero = domain if value == 0.0 else (math.nan, math.nan)
    return one_fibre(lambda x: np.full_like(x, value), domain, zero)


def affine_field(slope: float, intercept: float, domain) -> Fibres:
    """``slope * x + intercept`` with its one zero declared."""
    zero = -intercept / slope
    return one_fibre(lambda x: slope * x + intercept, domain, (zero, zero))


def bridge_velocity_field(lo: float, hi: float, delay: float) -> Fibres:
    """The bridge profile on (0, 1); needs ``0 < lo < hi < 1`` and
    ``delay > 0``."""
    return one_fibre(lambda x: bridge_velocity(lo, hi, delay, x), (0.0, 1.0))


def unit_time_threshold(a: float, b: float, tol: float = f1.ROOT_TOL) -> float:
    """The unique ``x`` where the ramp time (with ``c = 0``) equals 1.

    Equals ``b`` whenever ``b >= a`` (the linear branch inverts exactly);
    for ``b < a`` it lies strictly between ``max(b, (a-1)/2)`` and ``a`` and
    is found by bisection on the strictly decreasing closed-form time.
    """
    check_ramp_params(a, b, 0.0)
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
            val, _, capped = f1.adaptive_quad(lambda xi: f1._ramp_corner(xi, a),
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


def ramp_time_reference(a: float, b: float, c: float, x: float) -> float:
    """The forward ramp time at one point, branch by branch, with its own
    ``adaptive_quad`` of the band correction: the reference for
    ``flow1d.ramp_time_closed_form``."""
    check_ramp_params(a, b, c)
    if not (-1.0 < x < 1.0):
        raise InputError("x must lie in (-1, 1)")
    s = 0.5 * (a - 1.0)
    if x <= s or b == 1.0 or c > 0.0:
        return math.inf
    if x >= a:
        return (1.0 - x) / (1.0 - b)
    base = (1.0 - a) / (1.0 - b)
    try:
        corr, _, capped = f1.adaptive_quad(
            lambda xi: (1.0 + f1._ramp_corner(xi, a)) / (1.0 - b),
            x, a, cap=f1.DIVERGENCE_CAP)
    except ToleranceFailure as failure:
        if failure.partial is not None and failure.partial > f1.DIVERGENCE_CAP:
            return math.inf
        raise
    if capped or base + corr > f1.DIVERGENCE_CAP:
        return math.inf
    return base + corr
