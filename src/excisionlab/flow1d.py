"""Times of flight and flow maps for autonomous 1D ODEs ``dx/dt = v(x)``.

For a nonnegative speed field ``v`` on an open interval, the travel time
between two points is the integral of ``1/v``; the forward time to the right
endpoint is finite exactly when ``v`` stays positive ahead and the improper
integral converges.  This module provides:

* an adaptive Gauss-Kronrod quadrature with divergence detection,
* one panel walk, the only code here that integrates ``1/v`` toward an
  end of the fibre: a bulk panel over the first half of the way, then
  panels whose far edge halves its distance to the end at each level,
* :func:`forward_time` / :func:`backward_time`, the walk to the right or
  left endpoint, returning a :class:`TimeOfFlight` (finite,
  infinite-by-divergence, or blocked by a zero of ``v``),
* :func:`flow_map`, which stops the walk at the first panel that passes
  the flow time and bisects it; only a refused time costs the two full
  walks that give the bounds :class:`~excisionlab.errors.FlowDomainError`
  reports,
* :func:`flow_map_batch` and :func:`forward_time_batch`, the flows and
  the forward times of many fibres at once,
* :func:`ramp_time_closed_form`, the ramp velocity's forward times from
  its antiderivative, with its band corrections in one lockstep batch.

Fibres come as one :class:`~excisionlab.scalar_kit.Fibres`;
:func:`forward_time`, :func:`backward_time` and :func:`flow_map` take a
batch of one.  A fibre's zeros come from its declared zero interval; no
walk searches for them.

``QUAD_TOL`` is the layer's one tolerance; only :func:`adaptive_quad`
takes another, for reference integrals.

The quadrature, the walk and the bisection are written once, as steps of
one fibre: generators that yield the panels whose 15 GK nodes they need
and are sent the integrand there.  The lockstep driver advances every
pending fibre by one step per round, with one stacked velocity call for
all their panels, and sums each panel's Kronrod and Gauss rules per fibre
(a stacked matrix product could round differently), so each row is
bitwise the flow of its fibre alone; the start speeds come from one more
velocity call.  :func:`adaptive_quad` is a one-row run of it and
:func:`ramp_time_closed_form` a batch of quadratures, so it is the one
loop that runs steps.  Its nodes come from one formula, :func:`_nodes`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FlowDomainError, InputError, ToleranceFailure
from .scalar_kit import Fibres, check_ramp_params

__all__ = [
    "QUAD_TOL",
    "DIVERGENCE_CAP",
    "TimeOfFlight",
    "MODE_QUADRATURE",
    "MODE_ZERO_BLOCKED",
    "adaptive_quad",
    "forward_time",
    "backward_time",
    "flow_map",
    "flow_map_batch",
    "forward_time_batch",
    "ramp_time_closed_form",
]

QUAD_TOL = 1e-10
ROOT_TOL = 1e-12
DIVERGENCE_CAP = 1e6
# bisection depth of a quadrature panel, and dyadic levels of a walk to an
# end, before ToleranceFailure
MAX_LEVELS = 60
# live panels of one quadrature before ToleranceFailure
MAX_PANELS = 8192

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


def _gk15(fx, half: float) -> tuple[float, float]:
    """Kronrod value and error estimate of one panel of half-width ``half``
    from the integrand's values ``fx`` at its 15 nodes."""
    if half == 0.0 and not np.all(np.isfinite(fx)):
        # no float lies inside the panel, so every node sits on an end; an
        # infinite integrand there is an infinite time, not 0 * inf = NaN
        return float(_WGK @ fx), 0.0
    kron = half * float(_WGK @ fx)
    gauss = half * float(_WG @ fx[_GAUSS_IDX])
    return kron, abs(kron - gauss)


def _nodes(a, b) -> np.ndarray:
    """The 15 nodes of the panel ``[a, b]``; for ``(k, 1)`` columns of
    ends, one row of nodes per panel.  Every node is elementwise in its
    panel's ends, so a row of a batch sees the nodes its fibre sees alone."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _XGK


def _lockstep(steps: list, evaluate: Callable) -> list:
    """Run every row's steps to its end, all rows together.

    A step is a generator that yields a tuple of ``(a, b)`` panels and is
    sent the integrand at their nodes, one row of 15 values per panel.
    Each round makes one ``evaluate(rows, nodes)`` call for the panels of
    every pending row: ``nodes`` stacks them ``(k, 15)`` and ``rows[j]`` is
    the row that asked for panel ``j``.  Returns each row's result, or the
    :class:`InputError` or :class:`ToleranceFailure` that it raised.
    """
    out = [None] * len(steps)
    pending = {}

    def advance(i, fx):
        try:
            pending[i] = steps[i].send(fx)
        except StopIteration as stop:
            out[i] = stop.value
        except (InputError, ToleranceFailure) as exc:
            out[i] = exc

    for i in range(len(steps)):
        advance(i, None)
    while pending:
        rows, asked = list(pending), list(pending.values())
        pending.clear()
        counts = [len(panels) for panels in asked]
        ends = np.array([panel for panels in asked for panel in panels], dtype=float)
        fx = evaluate(np.repeat(np.array(rows), counts),
                      _nodes(ends[:, :1], ends[:, 1:]))
        start = 0
        for i, n in zip(rows, counts):
            advance(i, fx[start:start + n])
            start += n
    return out


def _quad(a, b, tol=QUAD_TOL, cap=None):
    """The steps of :func:`adaptive_quad`: the first panel, then both
    halves of the panel with the largest error in one round.  Of panels
    with equal errors the one made last is split: a heap keyed on the
    negated error and insertion number."""
    if b <= a:
        return 0.0, 0.0, False
    fx = yield ((a, b),)
    val, err = _gk15(fx[0], 0.5 * (b - a))
    made = itertools.count()
    panels = [(-err, -next(made), a, b, val, 0)]
    total, toterr = val, err
    while toterr > tol * max(1.0, abs(total)):
        if cap is not None and total - toterr > cap:
            return total, toterr, True
        neg_err, _, pa, pb, pval, depth = heapq.heappop(panels)
        perr = -neg_err
        if depth >= MAX_LEVELS or len(panels) >= MAX_PANELS:
            if cap is not None and total - toterr > cap:
                return total, toterr, True
            raise ToleranceFailure(
                f"quadrature did not converge on [{a}, {b}]", partial=total
            )
        pm = 0.5 * (pa + pb)
        fx = yield ((pa, pm), (pm, pb))
        lval, lerr = _gk15(fx[0], 0.5 * (pm - pa))
        rval, rerr = _gk15(fx[1], 0.5 * (pb - pm))
        total += lval + rval - pval
        toterr += lerr + rerr - perr
        heapq.heappush(panels, (-lerr, -next(made), pa, pm, lval, depth + 1))
        heapq.heappush(panels, (-rerr, -next(made), pm, pb, rval, depth + 1))
    return total, toterr, False


def adaptive_quad(f: Callable, a: float, b: float, tol: float = QUAD_TOL,
                  cap: Optional[float] = None):
    """Integrate ``f`` over ``[a, b]`` by adaptive bisection of GK15 panels.

    Returns ``(value, error, capped)``.  When ``cap`` is given and the
    running value provably exceeds it, integration stops early with
    ``capped=True`` (used to certify divergence of time integrals).  A
    panel ``MAX_LEVELS`` bisections deep or ``MAX_PANELS`` live panels
    raise :class:`ToleranceFailure` carrying the partial value.  A ``tol``
    that is not positive and finite raises :class:`InputError` before any
    call of ``f``.
    """
    # written to fail closed: NaN is not in (0, inf)
    if isinstance(tol, bool) or not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    # one row of _lockstep, f evaluated at each round's nodes as one flat array
    out, = _lockstep([_quad(a, b, tol, cap)], lambda rows, nodes: np.asarray(
        f(nodes.ravel()), dtype=float).reshape(nodes.shape))
    if isinstance(out, Exception):
        raise out
    return out


# ---------------------------------------------------------------------------
# zero detection ahead of / behind a point
# ---------------------------------------------------------------------------

def _zero_barrier(fibres: Fibres, i: int, x: float, d: int) -> Optional[float]:
    """Nearest edge of fibre ``i``'s zero interval strictly beyond ``x`` in
    the direction ``d`` (+1 toward the right endpoint, -1 toward the
    left), or ``None`` when the way is clear; a NaN row never blocks."""
    lo, hi = fibres.domain[i].tolist()
    zl, zh = fibres.zero[i].tolist()
    if d > 0 and zh > x and zl < hi:
        return max(zl, x)
    if d < 0 and zl < x and zh > lo:
        return min(zh, x)
    return None


def _transit(y0: float, y1: float):
    """Steps of the quadrature between ``y0`` and ``y1`` (either order) of
    ``1/v`` or a ramp correction, stopped once it provably exceeds
    ``DIVERGENCE_CAP``; returns ``(value, capped)``."""
    val, _, capped = yield from _quad(min(y0, y1), max(y0, y1), cap=DIVERGENCE_CAP)
    return val, capped


def _verdict(near, t_near, far, accum, capped, target):
    """What the walk returns after crossing ``[near, far]``, ``accum`` from
    its start, or ``None`` to go on: the bracket once ``target`` is passed,
    and infinity once a walk to the end passes ``DIVERGENCE_CAP``."""
    if (math.inf if capped else accum) > target:
        return near, t_near, far
    if target == math.inf and (capped or accum > DIVERGENCE_CAP):
        return TimeOfFlight(math.inf, MODE_QUADRATURE, lower_bound=accum)
    return None


def _edges_toward(x: float, far: float, d: int) -> list:
    """Inner edges of the pieces of the first panel ``[x, far]`` whose
    distance to ``x`` halves toward it, nearest to ``x`` first, down to
    float resolution."""
    edges = []
    w = abs(far - x)
    while True:
        w *= 0.5
        y = x + d * w
        if y == x:
            return edges[::-1]
        edges.append(y)


def _resolved(y0: float, y1: float) -> bool:
    """Whether the 15 nodes of the panel between ``y0`` and ``y1`` are
    distinct floats."""
    return bool(np.all(np.diff(_nodes(min(y0, y1), max(y0, y1))) > 0.0))


def _walk(x: float, end: float, d: int, target: float = math.inf):
    """Steps of the integral of ``1/v`` from ``x`` toward ``end`` (``d`` =
    +1 or -1 is the direction), evaluating at ``end`` only once the far
    edge rounds to it.  The first panel is ``[x, end - d*delta]`` with
    ``delta`` half the distance to ``end``; each later panel halves its far
    edge's distance to ``end``.  A first panel whose quadrature fails, as
    it does next to a zero or a log-divergent end of ``v`` behind ``x``, is
    crossed instead in pieces whose distance to ``x`` halves toward it,
    from ``x`` outward; a first panel that converges is never split.  The
    pieces raise :class:`ToleranceFailure` where ``1/v`` overflows, or
    where the pieces too narrow for 15 distinct nodes take more than
    ``QUAD_TOL`` of time: there the answer depends on ``v`` between floats.

    Returns ``(near, t_near, far)`` as soon as the cumulative time passes
    ``target``: the time from ``x`` to ``near`` is ``t_near <= target`` and
    the time to ``far`` exceeds ``target``.  Otherwise returns the unsigned
    :class:`TimeOfFlight` to ``end``: finite when a panel's time drops below
    ``QUAD_TOL`` and the sum plus a geometric tail is at most ``target``.
    Without a finite ``target`` it is infinite when the sum passes
    ``DIVERGENCE_CAP`` or the per-level times stop decaying, and
    ``MAX_LEVELS`` unsettled levels raise :class:`ToleranceFailure`.  A
    walk toward a finite ``target`` goes on until its far edge rounds onto
    ``end`` (about 1075 levels toward 0 at worst); a ``target`` not passed
    by then is infinite.
    """
    delta = 0.5 * abs(end - x)
    near, t_near = x, 0.0
    far = end - d * delta
    contribs = []
    levels = range(MAX_LEVELS + 1) if target == math.inf else itertools.count()
    for level in levels:
        try:
            val, capped = yield from _transit(near, far)
        except ToleranceFailure:
            if level:
                raise
            # cross the first panel from x outward, piece by piece; the
            # last piece, [x + d*w/2, far], is the level-0 panel below.  v
            # has no zero on it, so an infinite piece is an overflow of 1/v
            # where v is subnormal.  The pieces next to x are too narrow for
            # 15 distinct nodes, and their rule is only as good as 1/v at
            # the few floats it sees: their times may total QUAD_TOL at most
            unresolved = 0.0
            for y in _edges_toward(x, far, d):
                val, capped = yield from _transit(near, y)
                if not math.isfinite(val):
                    raise ToleranceFailure(
                        f"1/v overflows next to {x}", partial=t_near)
                if not _resolved(near, y):
                    unresolved += val
                    if unresolved > QUAD_TOL:
                        raise ToleranceFailure(
                            f"the time next to {x} varies below float "
                            "resolution", partial=t_near)
                accum = t_near + val
                stop = _verdict(near, t_near, y, accum, capped, target)
                if stop is not None:
                    return stop
                near, t_near = y, accum
            val, capped = yield from _transit(near, far)
        accum = t_near + val
        stop = _verdict(near, t_near, far, accum, capped, target)
        if stop is not None:
            return stop
        # a panel whose far edge rounds to its near edge has no width and
        # gives no verdict
        if level and far != near:
            contribs.append(val)
            if val <= QUAD_TOL * max(1.0, accum):
                # geometric tail extrapolation; the remainder is below QUAD_TOL
                ratio = 0.5
                if len(contribs) >= 2 and contribs[-2] > 0:
                    ratio = min(max(val / contribs[-2], 0.0), 0.9)
                total = accum + val * ratio / (1.0 - ratio)
                # a target inside the extrapolated tail is walked to
                if total <= target:
                    return TimeOfFlight(total, MODE_QUADRATURE)
            if target == math.inf and level >= 12 and len(contribs) >= 5:
                tail = contribs[-5:]
                ratios = [t1 / t0 for t0, t1 in zip(tail, tail[1:]) if t0 > 0]
                if ratios and min(ratios) >= 0.85 and val > 1e-8:
                    # contributions per dyadic level stop decaying: divergence
                    return TimeOfFlight(math.inf, MODE_QUADRATURE,
                                        lower_bound=accum)
        if far == end and target < math.inf:
            # the end is reached without passing the target
            return TimeOfFlight(math.inf, MODE_QUADRATURE, lower_bound=accum)
        near, t_near = far, accum
        delta *= 0.5
        far = end - d * delta
    raise ToleranceFailure(
        f"improper time integral toward {end} did not settle", partial=t_near
    )


def _domain(fibres: Fibres, i: int, x: float) -> tuple[float, float]:
    """Fibre ``i``'s open domain ``(lo, hi)``, which must hold the start
    ``x``."""
    lo, hi = fibres.domain[i].tolist()
    if not lo < x < hi:
        raise InputError(f"start {x} of fibre {i} outside open domain "
                         f"({lo}, {hi})")
    return lo, hi


def _time_of_flight(fibres: Fibres, i: int, x: float, v0: float, d: int):
    """Steps of fibre ``i``'s time of flight from ``x``, where its speed is
    ``v0``, to the right (``d`` = +1) or left (``d`` = -1) end."""
    lo, hi = _domain(fibres, i, x)
    if v0 == 0.0 or _zero_barrier(fibres, i, x, d) is not None:
        return TimeOfFlight(d * math.inf, MODE_ZERO_BLOCKED)
    tof = yield from _walk(x, hi if d > 0 else lo, d)
    return TimeOfFlight(d * tof.value, tof.mode, tof.lower_bound)


def _flow(fibres: Fibres, i: int, x: float, v0: float, t: float):
    """Steps of fibre ``i``'s flow from ``x``, where its speed is ``v0``:
    the point reached after time ``t``, or ``None`` when the walk refuses
    ``t``."""
    lo, hi = _domain(fibres, i, x)
    if not -math.inf <= t <= math.inf:
        raise InputError("flow time must not be NaN")
    if v0 == 0.0 or t == 0.0:
        return x
    d = 1 if t > 0 else -1
    target = abs(t)
    barrier = _zero_barrier(fibres, i, x, d)
    end = (hi if d > 0 else lo) if barrier is None else barrier
    walk = yield from _walk(x, end, d, target)
    if isinstance(walk, TimeOfFlight):
        return None
    # bisect the panel: "near" is on x's side, "far" beyond the target time
    near, t_near, far = walk
    while abs(far - near) > ROOT_TOL:
        mid = 0.5 * (near + far)
        val, capped = yield from _transit(near, mid)
        t_mid = t_near + (math.inf if capped else val)
        # forward keeps t_mid < t on the near side, backward t_mid > -t on
        # the far side; the two differ only on a tie
        if (t_mid < target if d > 0 else not t_mid > target):
            near, t_near = mid, t_mid
        else:
            far = mid
    y = 0.5 * (near + far)
    # a point closer to the domain end than float resolution rounds onto it
    if y == lo or y == hi:
        return float(np.nextafter(y, x))
    return y


def _run_rows(fibres: Fibres, x, step, *cols) -> list:
    """:func:`_lockstep` of ``step(fibres, i, x[i], v0[i], *cols[i])`` for
    every fibre ``i``, integrating ``1/v`` with one ``fibres.velocity``
    call per round.  The start speeds ``v0`` come from one more call, over
    the starts inside their domains only; the others read NaN and are
    refused by their step.  ``x`` must hold one start per fibre."""
    m = len(fibres.domain)
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise InputError(f"need {m} starts, got shape {x.shape}")
    lo, hi = fibres.domain.T
    inside = np.flatnonzero((lo < x) & (x < hi))
    v0 = np.full(m, math.nan)
    v0[inside] = fibres.velocity(inside, x[inside, None])[:, 0]
    steps = [step(fibres, i, *args)
             for i, args in enumerate(zip(x.tolist(), v0.tolist(), *cols))]
    return _lockstep(steps, lambda rows, nodes: 1.0 / fibres.velocity(rows, nodes))


def _times(fibres: Fibres, x, d: int) -> list[TimeOfFlight]:
    """The :class:`TimeOfFlight` of every fibre from ``x[i]`` to its right
    (``d`` = +1) or left (``d`` = -1) end, all walks in lockstep; raises
    the first failing row's error."""
    out = _run_rows(fibres, x, _time_of_flight, itertools.repeat(d))
    for tof in out:
        if isinstance(tof, Exception):
            raise tof
    return out


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def forward_time(fibres: Fibres, x: float) -> TimeOfFlight:
    """Time of flight from ``x`` to the right endpoint of the one fibre of
    ``fibres``.

    Returns ``zero-blocked`` infinity when the speed vanishes somewhere on
    ``[x, hi)``; otherwise the (possibly divergent) improper integral of
    ``1/v`` computed by adaptive quadrature.  As in :func:`flow_map`, a
    node of the walk's panels where ``1/v`` overflows counts as an
    infinite time, and one on the pieces next to ``x`` raises
    :class:`~excisionlab.errors.ToleranceFailure`.
    """
    return _times(fibres, [x], +1)[0]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def backward_time(fibres: Fibres, x: float) -> TimeOfFlight:
    """Signed (negative) time of flight from ``x`` back to the left
    endpoint of the one fibre of ``fibres``."""
    return _times(fibres, [x], -1)[0]


def _refusal(fibres: Fibres, i: int, t: float, x: float) -> FlowDomainError:
    """The error for fibre ``i``'s refused time, with the exact bounds of
    ``x``'s flow domain from :func:`backward_time` and
    :func:`forward_time`."""
    one = fibres.take([i])
    return FlowDomainError(t, backward_time(one, x).value,
                           forward_time(one, x).value)


def flow_map(fibres: Fibres, t: float, x: float) -> float:
    """Point reached from ``x`` after flowing for time ``t`` along the one
    fibre of ``fibres``.

    Solves ``int_x^y dxi / v(xi) = t`` for ``y``: the walk toward the end
    in the flow direction (the domain endpoint or the nearest zero of
    ``v``) stops at the first panel that passes ``|t|``, and bisection of
    that panel finds ``y``.  Points where ``v`` vanishes are fixed.  A point
    closer to the domain end than float resolution comes back as the last
    float inside the open domain.  A time at or beyond the exit time the
    walk settles on, or one it does not pass before its far edge rounds
    onto the end, raises :class:`~excisionlab.errors.FlowDomainError`,
    whose exact bounds are only then computed by :func:`backward_time` and
    :func:`forward_time`; a NaN time raises
    :class:`~excisionlab.errors.InputError`.  Next to a
    zero of ``v`` a node where ``v`` underflows to 0 gives ``1/v = inf``
    (and a NaN error estimate): an infinite time, beyond any target.  A
    start next to a zero or a log-divergent end of ``v`` behind it, where
    the walk's first panel does not converge, is walked away from in
    pieces that halve their distance to the start; where ``1/v`` overflows
    on them, or their time changes below float resolution, the flow
    raises :class:`~excisionlab.errors.ToleranceFailure`.
    """
    return flow_map_batch(fibres, t, [x]).tolist()[0]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def flow_map_batch(fibres: Fibres, t, x) -> np.ndarray:
    """:func:`flow_map` of every fibre at once: row ``i`` flows ``x[i]``
    for time ``t`` (a float, or ``t[i]`` from an ``(m,)`` array) along
    fibre ``i``, bitwise the flow of that fibre alone.  All rows walk in
    lockstep, with one ``fibres.velocity`` call per round.  Raises the
    error of the first row that fails, as that row alone would: a refused
    time's :class:`~excisionlab.errors.FlowDomainError` (whose bounds are
    computed for that row only), an :class:`~excisionlab.errors.InputError`
    or a :class:`~excisionlab.errors.ToleranceFailure`.
    """
    m = len(fibres.domain)
    t = np.asarray(t, dtype=float)
    if t.shape not in ((), (m,)):
        raise InputError(f"need {m} starts and a time or {m} times, got "
                         f"times of shape {t.shape}")
    ts = np.broadcast_to(t, (m,)).tolist()
    out = _run_rows(fibres, x, _flow, ts)
    for i, y in enumerate(out):
        if isinstance(y, Exception):
            raise y
        if y is None:
            raise _refusal(fibres, i, ts[i], float(x[i]))
    return np.array(out, dtype=float)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def forward_time_batch(fibres: Fibres, x) -> list[TimeOfFlight]:
    """:func:`forward_time` of every fibre at once: row ``i`` is the
    :class:`TimeOfFlight` from ``x[i]`` to the right end of fibre ``i``,
    bitwise that of the fibre alone.  All rows walk in lockstep, with one
    ``fibres.velocity`` call per round.  Raises the error of the first row
    that fails, as that row alone would: an
    :class:`~excisionlab.errors.InputError` or a
    :class:`~excisionlab.errors.ToleranceFailure`.
    """
    return _times(fibres, x, +1)


# ---------------------------------------------------------------------------
# closed-form times for the parametric ramp velocity
# ---------------------------------------------------------------------------

def _ramp_corner(xi, a):
    """Corner factor ``exp(1/(xi - s) - 1/(a - xi))`` of the ramp time on
    the band ``(s, a)``, ``s = (a-1)/2``, with the exponent clipped to the
    float range."""
    expo = (1.0 / np.maximum(xi - 0.5 * (a - 1.0), 1e-300)
            - 1.0 / np.maximum(a - xi, 1e-300))
    return np.exp(np.clip(expo, -745.0, 700.0))


def ramp_time_closed_form(a, b, c, x) -> np.ndarray:
    """Forward times to the right endpoint for the ramp velocity at
    broadcastable arrays, from the antiderivative: infinite for ``x <=
    (a-1)/2``, ``b = 1`` or ``c > 0``, else ``(1-max(x, a))/(1-b)`` plus,
    for ``x < a``, a correction integral over ``[x, a]``, all corrections
    in one :func:`_lockstep`.  Bad or non-broadcastable arguments raise
    :class:`~excisionlab.errors.InputError`."""
    try:
        a, b, c, x = np.broadcast_arrays(a, b, c, x)
    except ValueError as exc:
        raise InputError(f"ramp arguments do not broadcast: {exc}") from None
    check_ramp_params(a, b, c)
    if not np.all(np.abs(x) < 1.0):
        raise InputError("x must lie in (-1, 1)")
    s = 0.5 * (a - 1.0)
    out = np.full(x.shape, math.inf)
    moving = (x > s) & (b != 1.0) & (c == 0.0)
    out[moving] = (1.0 - np.maximum(x, a)[moving]) / (1.0 - b[moving])
    band = moving & (x < a)
    ab, bb = a[band], b[band]
    corrs = _lockstep(
        [_transit(*ends) for ends in zip(x[band].tolist(), ab.tolist())],
        lambda rows, nodes: (1.0 + _ramp_corner(nodes, ab[rows, None]))
        / (1.0 - bb[rows, None]))
    out[band] += [_correction(r) for r in corrs]
    out[band & (out > DIVERGENCE_CAP)] = math.inf
    return out


def _correction(result) -> float:
    """One ramp correction from its quadrature: infinite once capped or
    failed past ``DIVERGENCE_CAP``, as the corner integrand can overflow
    before the panels settle; any other failure is raised."""
    if not isinstance(result, ToleranceFailure):
        return math.inf if result[1] else result[0]
    if result.partial is not None and result.partial > DIVERGENCE_CAP:
        return math.inf
    raise result
