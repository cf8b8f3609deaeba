"""Closed-form smooth building blocks.

Everything downstream (1D flows, null fields on a product base, Hamiltonian
extensions) is assembled from the primitives in this module:

* ``cubic_smoothstep`` -- the polynomial step ``3s^2 - 2s^3`` used to flatten
  cutoffs at their zero set, with its derivative,
* ``smooth_step`` -- a C-infinity step built from ``exp(-1/t)`` ratios,
* ``ramp_velocity`` -- the parametric velocity profile whose forward flow
  time has closed form (see :mod:`excisionlab.flow1d`): a two-sided
  exponential cutoff that is 0 below ``(a-1)/2`` and 1 above ``a``, times
  a plateau speed and a rational decay,
* ``bridge_velocity`` -- the unit-plateau profile that crosses ``(lo, hi)``
  with a prescribed extra delay, and its closed-form crossing time,
* ``Fibres`` and ``ramp_velocity_field`` -- a batch of speeds, each on
  its open interval with its one zero interval, and one batch velocity:
  the input of every 1D flow,
* ``DefiningFunction`` -- a smooth nonnegative function whose zero locus is
  a prescribed closed set (finite unions of boxes, points and finite-depth
  Cantor products), with its exact gradient.

Every evaluator is batch-only and returns numpy arrays, never Python
scalars.  The elementwise ones (smooth steps, ramp and bridge velocities,
``bump_mass``, ``ball_bump_from_sq``) take arrays of any shape, a 0-d
array included, and return an array of the broadcast shape.
The point evaluators (``ClosedSetSpec.contains`` and
``boundary_distance``, ``DefiningFunction``, ``smooth_box_plateau``) take
an ``(m, dim)`` batch and return ``(m,)`` or ``(m, dim)`` arrays.  The
one-pass kernels that the vector fields call on every RHS evaluation take
arrays of one shape: ``_ratio_terms`` (the exponential ratio behind every
smooth step, with both partials from one pair of ``exp`` calls, formed only
on the rows where they can be nonzero), ``smooth_step_jet``,
``ramp_velocity_jet``, ``AxisSet.locate`` (one ``searchsorted`` over the
sorted interval starts) and ``_axis_profile``.
All evaluators are pure; the field objects are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError

__all__ = [
    "EXP_CLAMP",
    "BRIDGE_NORM",
    "cubic_smoothstep",
    "cubic_smoothstep_deriv",
    "smooth_step",
    "smooth_step_jet",
    "ramp_velocity",
    "ramp_velocity_jet",
    "bridge_velocity",
    "bump_mass",
    "Fibres",
    "ramp_velocity_field",
    "check_ramp_params",
    "AxisSet",
    "axis_point",
    "axis_interval",
    "cantor_axis",
    "ClosedSetSpec",
    "DefiningFunction",
    "decay_witness",
    "decay_witness_grad",
    "ball_bump_from_sq",
    "smooth_box_plateau",
]

# Arguments of exp(-1/w) at or below this threshold are treated as 0.  The
# true value there is below exp(-1e12), far under 1e-300, so the clamp is
# invisible at double precision but avoids overflow in 1/w.
EXP_CLAMP = 1e-12

# Exponents below this underflow exp() to 0 anyway; used to silence 0*inf.
_LOG_TINY = -700.0


def cubic_smoothstep(s):
    """Polynomial step ``3 s^2 - 2 s^3``.

    Total on the real line; callers clamp to [0, 1] when needed.  Satisfies
    ``f(0)=0, f(1)=1, f'(0)=f'(1)=0``, which is exactly what is required to
    make a composed cutoff flat on its zero set.
    """
    s = np.asarray(s, dtype=float)
    return np.asarray(s * s * (3.0 - 2.0 * s))


def cubic_smoothstep_deriv(s):
    s = np.asarray(s, dtype=float)
    return np.asarray(6.0 * s * (1.0 - s))


def _ratio_terms(u, v, need_grad: bool):
    """``E(u) / (E(u) + E(v))`` with ``E(w) = exp(-1/w)`` for ``w > 0``
    and 0 otherwise (the C-infinity prototype of every flat cutoff in the
    kit), flat at both ends, with its partials on the rows where they can
    be nonzero, from one pair of ``exp`` calls.

    Batch-only: ``u`` and ``v`` are arrays of one shape with ``u + v > 0``
    pointwise (never both branches dead).  Returns ``(value, mid, du,
    -dv)``: ``mid`` masks the rows where both ``u`` and ``v`` exceed
    ``EXP_CLAMP``, the only rows where the partials are nonzero, and ``du``
    and ``-dv`` are the partials w.r.t. ``u`` and ``v`` there, the second
    with its sign turned, so both are nonnegative; with
    ``need_grad=False`` they are ``None``.
    """
    val = np.zeros(u.shape)
    val[v <= EXP_CLAMP] = 1.0
    mid = (u > EXP_CLAMP) & (v > EXP_CLAMP)
    um, vm = u[mid], v[mid]
    n = np.exp(-1.0 / um)
    d = np.exp(-1.0 / vm)
    total = n + d
    val[mid] = n / total
    if not need_grad:
        return val, mid, None, None
    denom = total ** 2
    return val, mid, n / (um * um) * d / denom, n * (d / (vm * vm)) / denom


def smooth_step_jet(t, need_grad: bool = True):
    """Batch-only :func:`smooth_step` with its derivative: ``(value,
    derivative)`` from one :func:`_ratio_terms` call (derivative ``None``
    when ``need_grad`` is false).  The derivative ``du - dv`` of the ratio
    at ``(t, 1 - t)`` is formed on the rows where it can be nonzero only,
    as ``du + (-dv)``, which is bitwise ``du - dv``."""
    val, mid, du_mid, neg_dv_mid = _ratio_terms(t, 1.0 - t, need_grad)
    if not need_grad:
        return val, None
    deriv = np.zeros(t.shape)
    deriv[mid] = du_mid + neg_dv_mid
    return val, deriv


def smooth_step(t):
    """C-infinity step: 0 for ``t <= 0``, 1 for ``t >= 1``, flat at both ends."""
    return smooth_step_jet(np.asarray(t, dtype=float), need_grad=False)[0]


# ---------------------------------------------------------------------------
# the parametric ramp velocity
# ---------------------------------------------------------------------------

def check_ramp_params(a, b, c) -> None:
    """Refuse ramp parameters, floats or arrays, with an entry outside ``a``
    in (-1, 1), ``b`` in [-1, 1] or ``c`` in [0, 1], NaN included."""
    if not np.all(np.abs(a) < 1.0):
        raise InputError("a must lie in (-1, 1)")
    if not np.all(np.abs(b) <= 1.0):
        raise InputError("b must lie in [-1, 1]")
    if not np.all((0.0 <= c) & (c <= 1.0)):
        raise InputError("c must lie in [0, 1]")


def _rising_jet(a, x, need_grad: bool = True):
    """The rising cutoff ``chi``, a nondecreasing C-infinity ramp that is 0
    for ``x <= (a-1)/2`` and 1 for ``x >= a``, with its ``x``- and
    ``a``-partials, ``(chi, chi_x, chi_a)``, from one :func:`_ratio_terms`
    call.  On the middle band it is the normalized ratio of
    ``exp(-1/(x-(a-1)/2))`` against ``exp(-1/(a-x))``, exactly 1/2 at the
    band's midpoint.  With ``u = x - (a-1)/2`` and ``v = a - x`` the
    partials are ``du - dv`` and ``-du/2 + dv``, formed on the rows where
    they can be nonzero only, as ``du + (-dv)`` and ``-du/2 - (-dv)``,
    which is bitwise the same."""
    s = 0.5 * (a - 1.0)
    chi, mid, du, neg_dv = _ratio_terms(x - s, a - x, need_grad)
    if not need_grad:
        return chi, None, None
    chi_x = np.zeros(chi.shape)
    chi_a = np.zeros(chi.shape)
    chi_x[mid] = du + neg_dv
    chi_a[mid] = -0.5 * du - neg_dv
    return chi, chi_x, chi_a


def ramp_velocity(a, b, c, x):
    """Parametric velocity ``chi(a, x) * (1-b) * (1-x^2)/(1-x^2+c)``, with
    ``chi`` the rising cutoff of :func:`_rising_jet`.

    Values lie in [0, 1]; zero exactly where the cutoff or the ``1-b``
    factor vanishes.  For ``c = 0`` the rational factor is identically 1, so
    above the ramp the speed is the constant ``1-b``; for ``c > 0`` the
    speed decays near the right endpoint fast enough that the endpoint is
    never reached in finite time.  ``a`` in (-1, 1), ``b`` in [-1, 1], ``c``
    in [0, 1] and ``x`` in (-1, 1) are not checked here, only at the edge,
    :func:`ramp_velocity_field`.
    """
    # x - s and a - x share one shape; b and c broadcast in the product
    a, b, c, x = (np.asarray(v, dtype=float) for v in (a, b, c, x))
    one_m_x2 = 1.0 - x * x
    rational = one_m_x2 / (one_m_x2 + c)
    chi = _rising_jet(a, x, need_grad=False)[0]
    return np.asarray(chi * (1.0 - b) * rational)


def ramp_velocity_jet(a, b, c, x):
    """Batch-only :func:`ramp_velocity` with all its partials:
    ``(u, du/da, du/db, du/dc, du/dx)`` for arrays of one shape, from one
    :func:`_ratio_terms` call.  ``u`` is bitwise :func:`ramp_velocity`."""
    one_m_x2 = 1.0 - x * x
    denom = one_m_x2 + c
    rational = one_m_x2 / denom
    r_x = -2.0 * x * c / (denom * denom)
    r_c = -one_m_x2 / (denom * denom)
    chi, chi_x, chi_a = _rising_jet(a, x)
    one_m_b = 1.0 - b
    u = chi * one_m_b * rational
    du_da = chi_a * one_m_b * rational
    du_db = -chi * rational
    du_dc = chi * one_m_b * r_c
    du_dx = chi_x * one_m_b * rational + chi * one_m_b * r_x
    return u, du_da, du_db, du_dc, du_dx


# ---------------------------------------------------------------------------
# the bridge velocity and its normalization constant
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(160)

# arguments per pass of the rule: its (rows, 160) temporaries then take
# about 80 kB each, so they stay in cache and a large batch adds no memory
_RULE_ROWS = 64


def _bump_rule(t: np.ndarray) -> np.ndarray:
    """The Gauss-Legendre rule of :func:`bump_mass` at a batch ``t`` in
    [-1, 1], on the reference nodes mapped onto [-1, t]; NaN gives NaN."""
    half = 0.5 * (t + 1.0)
    pts = -1.0 + np.multiply.outer(half, _GL_NODES + 1.0)
    q = 1.0 - pts * pts
    vals = np.zeros_like(pts)
    mask = q > EXP_CLAMP
    vals[mask] = np.exp(-2.0 / q[mask])
    return half * (vals * _GL_WEIGHTS).sum(axis=-1)


# total mass of the unit bump (normalizes all bridge crossing times)
BRIDGE_NORM = float(_bump_rule(np.array(1.0)))


def bump_mass(t):
    """Cumulative mass ``int_{-1}^{t} exp(-2/(1-s^2)) ds`` of the unit bump.

    Arguments at or below -1 read exactly 0 and those at or above 1 exactly
    ``BRIDGE_NORM``, the rule's own value at 1; only the arguments strictly
    inside (-1, 1), and NaN, run the fixed high-order Gauss-Legendre rule
    of :func:`_bump_rule`, ``_RULE_ROWS`` at a time; each argument's sum
    is its own, so the blocks change no bit.  The integrand is smooth and
    flat at the endpoints, so the rule is accurate to roundoff.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, BRIDGE_NORM, 0.0)
    inner = ~((t <= -1.0) | (t >= 1.0))
    vals = t[inner]
    for i in range(0, vals.size, _RULE_ROWS):
        vals[i:i + _RULE_ROWS] = _bump_rule(vals[i:i + _RULE_ROWS])
    out[inner] = vals
    return out


def bridge_velocity(lo, hi, delay, x):
    """Smooth speed on (0,1): 1 outside ``(lo, hi)``, slowed inside so that
    the crossing from ``lo`` to ``hi`` takes exactly ``hi - lo + delay``.

    Inside the band the profile is ``K / (K + delay * W(x))`` where ``W`` is
    a flat bump on ``(lo, hi)`` and ``K = (hi-lo)/2 * BRIDGE_NORM``; the
    normalization makes the extra crossing time exactly ``delay``.  The
    band needs ``0 < lo < hi < 1`` and ``delay > 0``, which callers ensure.
    """
    lo, hi, delay, x = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (lo, hi, delay, x))
    )
    out = np.ones(x.shape)
    inside = (x > lo) & (x < hi)
    if np.any(inside):
        l, h, d, xi = lo[inside], hi[inside], delay[inside], x[inside]
        width = h - l
        expo = -width * width / (2.0 * (xi - l) * (h - xi))
        w = np.where(expo > _LOG_TINY, np.exp(np.maximum(expo, _LOG_TINY)), 0.0)
        k = 0.5 * width * BRIDGE_NORM
        out[inside] = k / (k + d * w)
    return out


def bridge_crossing_time(lo, hi, delay, x0, x1):
    """Exact travel time of the bridge flow from ``x0`` to ``x1``.

    Valid for ``lo <= x0 <= x1 <= hi``; uses the closed antiderivative
    ``(x1-x0) + delay * (M(eta1) - M(eta0)) / BRIDGE_NORM`` where ``M`` is
    :func:`bump_mass` and ``eta`` the affine map of the band onto (-1, 1).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    delay = np.asarray(delay, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    width = hi - lo
    eta0 = np.clip((2.0 * x0 - lo - hi) / width, -1.0, 1.0)
    eta1 = np.clip((2.0 * x1 - lo - hi) / width, -1.0, 1.0)
    extra = delay * (bump_mass(eta1) - bump_mass(eta0)) / BRIDGE_NORM
    return np.asarray((x1 - x0) + extra)


# ---------------------------------------------------------------------------
# batches of 1D fibres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fibres:
    """``m`` smooth speeds, each on its own open interval: the input of
    every 1D flow (:mod:`excisionlab.flow1d`).

    Fibre ``i`` lives on the open interval ``domain[i]`` and vanishes
    identically on the closed interval ``zero[i]``, a NaN row for none,
    which must hold every zero of the fibre in its domain: the flows read
    the zeros that block a trajectory from it and never search for them.
    ``velocity(rows, nodes)`` is the speed at a ``(k, n)`` stack of points,
    point row ``j`` on fibre ``rows[j]``; every value depends on its own
    fibre and point only, so a fibre's values are its own in any batch.
    """

    domain: np.ndarray
    zero: np.ndarray
    velocity: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def take(self, rows) -> Fibres:
        """The fibres ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Fibres(self.domain[rows], self.zero[rows],
                      lambda r, nodes: self.velocity(rows[r], nodes))


def ramp_velocity_field(a, b, c) -> Fibres:
    """The fibres ``ramp_velocity(a, b, c, .)`` on (-1, 1), one per entry
    of the broadcast 1-D parameter arrays (scalars give one), each with
    its exact zero set: ``[-1, (a-1)/2]``, or all of it where ``b = 1``."""
    a, b, c = np.broadcast_arrays(*np.atleast_1d(a, b, c))
    check_ramp_params(a, b, c)
    m = a.size
    return Fibres(
        domain=np.tile([-1.0, 1.0], (m, 1)),
        zero=np.column_stack([np.full(m, -1.0),
                              np.where(b == 1.0, 1.0, 0.5 * (a - 1.0))]),
        velocity=lambda rows, nodes: ramp_velocity(
            a[rows, None], b[rows, None], c[rows, None], nodes),
    )


# ---------------------------------------------------------------------------
# closed sets and their smooth defining functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSet:
    """Finite union of disjoint closed intervals on one coordinate axis.

    ``lo`` and ``hi`` hold the sorted interval endpoints as arrays, so that
    :meth:`locate` finds the interval or gap of a batch of points with one
    ``searchsorted``.
    """

    intervals: tuple[tuple[float, float], ...]
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ivs = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        for a, b in ivs:
            if math.isnan(a) or math.isnan(b):
                raise InputError("interval endpoints must not be NaN")
            if b < a:
                raise InputError("interval endpoints out of order")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise InputError("axis intervals must be disjoint")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "lo", np.array([a for a, _ in ivs]))
        object.__setattr__(self, "hi", np.array([b for _, b in ivs]))

    def locate(self, t: np.ndarray) -> np.ndarray:
        """Index ``k`` of the last interval starting at or before each point
        of the batch ``t``: the point lies in interval ``k`` or in the gap
        (or right tail) after it.  Left of the set ``k = -1``, which indexes
        the last interval, whose start and end the point cannot reach."""
        return self.lo.searchsorted(t, side="right") - 1

    def contains(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k = self.locate(t)
        return (t >= self.lo[k]) & (t <= self.hi[k])

    def boundary_distance(self, t) -> np.ndarray:
        """Distance to the nearest interval endpoint (the membership
        decision boundary along this axis)."""
        t = np.asarray(t, dtype=float)
        edges = np.asarray([e for iv in self.intervals for e in iv])
        return np.abs(t[..., None] - edges).min(axis=-1)


def axis_point(v: float) -> AxisSet:
    return AxisSet(((v, v),))


def axis_interval(lo: float, hi: float) -> AxisSet:
    return AxisSet(((lo, hi),))


def cantor_axis(lo: float, hi: float, depth: int) -> AxisSet:
    """Depth-``depth`` middle-thirds approximation of the Cantor set scaled
    to ``[lo, hi]``: a union of ``2**depth`` closed intervals (a superset of
    the true Cantor set)."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    pieces = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for a, b in pieces:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        pieces = nxt
    scale = hi - lo
    return AxisSet(tuple((lo + a * scale, lo + b * scale) for a, b in pieces))


@dataclass(frozen=True)
class ClosedSetSpec:
    """Closed subset of R^dim: a finite union of axis-aligned product pieces.

    Each piece is a tuple of one :class:`AxisSet` per coordinate; the piece
    is the product of its axis sets.  Boxes are single-interval pieces,
    points are degenerate boxes, Cantor brushes use a Cantor axis.
    """

    dim: int
    pieces: tuple[tuple[AxisSet, ...], ...]

    def __post_init__(self):
        if not self.pieces:
            raise InputError("closed set needs at least one piece")
        for piece in self.pieces:
            if len(piece) != self.dim:
                raise InputError("piece dimension mismatch")

    def contains(self, points) -> np.ndarray:
        """Exact membership test (interval comparisons, no smoothing) of an
        ``(m, dim)`` batch."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[0], dtype=bool)
        for piece in self.pieces:
            inside = np.ones(pts.shape[0], dtype=bool)
            for k, axis in enumerate(piece):
                inside &= axis.contains(pts[:, k])
            out |= inside
        return out

    def boundary_distance(self, points) -> np.ndarray:
        """Distance to the nearest interval endpoint in any coordinate,
        minimized over pieces.  Used to carve classification margin bands."""
        pts = np.asarray(points, dtype=float)
        best = np.full(pts.shape[0], np.inf)
        for piece in self.pieces:
            for k, axis in enumerate(piece):
                best = np.minimum(best, axis.boundary_distance(pts[:, k]))
        return best

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sample points of the set, piece by piece."""
        piece_idx = rng.integers(0, len(self.pieces), size=n)
        out = np.empty((n, self.dim))
        for i, pi in enumerate(piece_idx):
            for k, axis in enumerate(self.pieces[pi]):
                a, b = axis.intervals[rng.integers(0, len(axis.intervals))]
                out[i, k] = rng.uniform(a, b) if b > a else a
        return out


def _axis_profile(axis: AxisSet, t: np.ndarray, d0: float):
    """Smooth profile vanishing exactly on the axis set, with value and
    derivative; flat (all derivatives 0) at every interval endpoint."""
    t = np.asarray(t, dtype=float)
    val = np.zeros(t.shape)
    der = np.zeros(t.shape)
    ivs = axis.intervals
    lo0 = ivs[0][0]
    him = ivs[-1][1]

    left = t < lo0
    if np.any(left):
        w = lo0 - t[left]
        val[left] = np.where(w > EXP_CLAMP, np.exp(-d0 / np.maximum(w, EXP_CLAMP)), 0.0)
        der[left] = -val[left] * d0 / np.maximum(w, EXP_CLAMP) ** 2

    right = t > him
    if np.any(right):
        w = t[right] - him
        val[right] = np.where(w > EXP_CLAMP, np.exp(-d0 / np.maximum(w, EXP_CLAMP)), 0.0)
        der[right] = val[right] * d0 / np.maximum(w, EXP_CLAMP) ** 2

    if len(ivs) == 1:
        return val, der
    # a point in a gap lies past the end b0 of the interval it locates to,
    # and before the start a1 of the next one
    k = axis.locate(t)
    gap = (t > axis.hi[k]) & (k < len(ivs) - 1)
    kg = k[gap]
    b0 = axis.hi[kg]
    a1 = axis.lo[kg + 1]
    u = t[gap] - b0
    v = a1 - t[gap]
    # normalized so the peak value at the gap midpoint is exactly 1
    expo = d0 * (4.0 / (a1 - b0) - 1.0 / np.maximum(u, EXP_CLAMP) - 1.0 / np.maximum(v, EXP_CLAMP))
    live = (u > EXP_CLAMP) & (v > EXP_CLAMP) & (expo > _LOG_TINY)
    pv = np.where(live, np.exp(np.maximum(expo, _LOG_TINY)), 0.0)
    val[gap] = pv
    der[gap] = np.where(
        live,
        pv * d0 * (1.0 / np.maximum(u, EXP_CLAMP) ** 2 - 1.0 / np.maximum(v, EXP_CLAMP) ** 2),
        0.0,
    )
    return val, der


@dataclass(frozen=True)
class DefiningFunction:
    """Smooth ``c: R^dim -> [0, 1)`` with ``c(p) = 0`` iff ``p`` is in the
    prescribed closed set; carries the exact gradient.

    ``sharpness`` sets the length scale of the exponential profiles: at
    distance ``d`` from the set the value is roughly ``exp(-sharpness/d)``,
    so smaller values make ``c`` rise faster off the set.  ``value`` and
    ``value_and_grad`` take an ``(m, dim)`` batch.
    """

    spec: ClosedSetSpec
    sharpness: float = 0.006

    def __post_init__(self):
        if not self.sharpness > 0:
            raise InputError("sharpness must be positive")

    def _piece_terms(self, pts: np.ndarray):
        vals = []
        grads = []
        for piece in self.spec.pieces:
            pv = np.zeros(pts.shape[0])
            pg = np.zeros(pts.shape)
            for k, axis in enumerate(piece):
                av, ad = _axis_profile(axis, pts[:, k], self.sharpness)
                pv += av
                pg[:, k] = ad
            vals.append(pv)
            grads.append(pg)
        return vals, grads

    def value(self, points):
        pts = np.asarray(points, dtype=float)
        vals, _ = self._piece_terms(pts)
        prod = np.ones(pts.shape[0])
        for pv in vals:
            prod *= pv
        return prod / (1.0 + prod)

    def value_and_grad(self, points):
        pts = np.asarray(points, dtype=float)
        vals, grads = self._piece_terms(pts)
        prod = np.ones(pts.shape[0])
        for pv in vals:
            prod *= pv
        gprod = np.zeros(pts.shape)
        for i, gi in enumerate(grads):
            others = np.ones(pts.shape[0])
            for j, pv in enumerate(vals):
                if j != i:
                    others *= pv
            gprod += gi * others[:, None]
        cap = prod / (1.0 + prod)
        dcap = 1.0 / (1.0 + prod) ** 2
        return cap, gprod * dcap[:, None]

    def grad(self, points):
        return self.value_and_grad(points)[1]


# ---------------------------------------------------------------------------
# witness and bump helpers
# ---------------------------------------------------------------------------

def decay_witness(z):
    """Positive function ``1/(1 + |z|^2)`` vanishing at infinity; its
    superlevel sets are balls, hence bounded."""
    z = np.asarray(z, dtype=float)
    sq = np.sum(z * z, axis=-1)
    return 1.0 / (1.0 + sq)


def decay_witness_grad(z):
    z = np.asarray(z, dtype=float)
    sq = np.sum(z * z, axis=-1, keepdims=True)
    return -2.0 * z / (1.0 + sq) ** 2


def ball_bump_from_sq(q):
    """Radial bump ``exp(-q / (1 - q))`` as a function of the squared
    relative radius ``q = (r/R)^2``: 1 at the center, flat 0 at ``q >= 1``.
    One unmasked expression: ``q`` is capped at ``1 - 1e-14``, where the
    bump underflows to exactly 0, so every ``q`` past the cap (and NaN)
    reads 0 with no warning."""
    t = np.fmin(np.asarray(q, dtype=float), 1.0 - 1e-14)
    return np.asarray(np.exp(-t / (1.0 - t)))


def smooth_box_plateau(points, lo, hi, margin):
    """C-infinity plateau: exactly 1 on the box ``[lo, hi]``, 0 outside the
    ``margin``-enlarged box; a product of one-sided smooth steps per axis.
    ``points`` is an ``(m, dim)`` batch."""
    pts = np.asarray(points, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.ones(pts.shape[0])
    for k in range(pts.shape[1]):
        t = pts[:, k]
        out = out * smooth_step((t - (lo[k] - margin)) / margin)
        out = out * smooth_step(((hi[k] + margin) - t) / margin)
    return out
