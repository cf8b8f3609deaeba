"""Hamiltonians on the product model ``M = B x I x R`` whose flows excise
closed subsets sitting inside the hypersurface ``N = B x I x {0}``.

Coordinates are ordered ``z = (p_1, ..., p_{2n-2}, x, y)`` with the
symplectic pairing on consecutive pairs; the last pair is ``(x, y)``.  Two
families are provided:

* the explicit ray Hamiltonian ``F = (1-x^2)/(|p|^2 + 1 - x^2) * chi * y``
  (with ``chi`` an explicit flat cutoff supported in a shrinking tube around
  the half-open segment ``{p=0, y=0, x in [0,1)}``), built in any dimension
  ``2n >= 2`` by ``RayHamiltonian(n)``; in the plane (``n = 1``) the
  rational prefactor is 1 and ``F = chi * y``.  The field vanishes outside
  its tube ``{x > -eps, |p|^2 + y^2 < R_OFF * h(x)}``, so that tube is the
  neighbourhood of the ray outside which the time-1 map is the identity:
  scaling ``eps`` and ``h_coef`` shrinks it, as ``TreeSpec.w0`` does for
  the trees;
* the conormal extension ``F = chi * y * v(p, x)`` of a horizontal null
  field ``v d/dx``, which restricts to ``chi * v * d/dx`` on the
  hypersurface and whose off-hypersurface trajectories are complete because
  ``|F|`` is dominated by a witness vanishing at infinity.

All fields expose batch-only ``value``/``grad``/``vector_field``
evaluators: they take ``(m, dim)`` arrays and return ``(m,)`` or
``(m, dim)`` arrays, with closed-form gradients (finite differences are
used only by the test suite to certify them).  Every field shares one
``vector_field``, ``grad @ pairing_matrix(dim).T`` with the transposed
pairing built once per dimension.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable

import numpy as np

from .errors import InputError
from .null_fields import EpigraphField
from .scalar_kit import (
    cubic_smoothstep,
    cubic_smoothstep_deriv,
    decay_witness,
    decay_witness_grad,
    smooth_step_jet,
)

__all__ = [
    "pairing_matrix",
    "coordinate_stencil",
    "HamiltonianField",
    "RayHamiltonian",
    "epigraph_sampler",
    "ExtendedHamiltonian",
    "extend_null_field",
]

# speed the null field must exceed on the target, and the scale of the
# extension's low-speed gate
V_FLOOR = 1e-3
# the ray cutoff is 1 inside the tube |p|^2 + y^2 <= R_ON * h(x) and 0
# outside R_OFF * h(x)
R_ON = 0.25
R_OFF = 0.5


def pairing_matrix(dim: int) -> np.ndarray:
    """Matrix of the standard symplectic form on consecutive coordinate
    pairs; the Hamiltonian field is ``X = Omega grad F``."""
    if dim % 2:
        raise InputError("phase space dimension must be even")
    omega = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        omega[k, k + 1] = 1.0
        omega[k + 1, k] = -1.0
    return omega


@functools.lru_cache(maxsize=None)
def _pairing_transpose(dim: int) -> np.ndarray:
    """``pairing_matrix(dim).T``, read-only, built once per dimension."""
    omega_t = pairing_matrix(dim).T
    omega_t.flags.writeable = False
    return omega_t


class HamiltonianField:
    """Scalar function on phase space with exact gradient and the induced
    Hamiltonian vector field.

    ``vector_field`` is ``X = Omega grad F``, one ``grad @ Omega^T``
    product per call.  For a finite gradient each entry of that product is
    one nonzero term plus signed zeros summed from ``+0.0``, so it equals
    the pairing permutation ``X[:, 0::2] = g[:, 1::2] + 0.0``,
    ``X[:, 1::2] = 0.0 - g[:, 0::2]`` bitwise.  The product is kept because
    it is one BLAS call: the permutation takes two strided ufunc calls and
    measured slower at every batch size tried, from 1 to 3,000 rows.

    ``escape_value`` is the chart-exit monitor used by the integrator: a
    trajectory is declared to leave the chart when it reaches 1 (for the
    product models this is the ``x`` coordinate, whose chart ends at 1).

    A staged field is a sequence of ``stages`` Hamiltonians whose time-1
    maps compose; ``at(stage)`` is the field on a batch whose ``i``-th row
    is in stage ``stage[i]``.  A plain field is its own single stage.
    """

    dim: int
    stages = 1

    def at(self, stage):
        return self

    def value(self, z):
        raise NotImplementedError

    def grad(self, z):
        raise NotImplementedError

    def vector_field(self, z):
        return self.grad(z) @ _pairing_transpose(self.dim)

    def escape_value(self, z):
        return np.asarray(z, dtype=float)[:, self.dim - 2]


def coordinate_stencil(pts: np.ndarray, step: float) -> np.ndarray:
    """The ``2 * d`` coordinate shifts of each of the ``m`` points, as an
    ``(m * 2 * d, d)`` array: row ``k * 2 * d + 2 * i`` is point ``k`` moved
    by ``+step`` along axis ``i``, the next row by ``-step``."""
    d = pts.shape[1]
    stencil = np.repeat(pts, 2 * d, axis=0)
    for i in range(d):
        stencil[2 * i::2 * d, i] += step
        stencil[2 * i + 1::2 * d, i] -= step
    return stencil


def _as_batch(z, dim):
    pts = np.asarray(z, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise InputError(f"expected an (m, {dim}) batch of points")
    return pts


# ---------------------------------------------------------------------------
# the explicit ray Hamiltonian
# ---------------------------------------------------------------------------

def _base_sq(p):
    """``|p|^2`` per row, or ``None`` when there are no base coordinates."""
    return np.sum(p * p, axis=1) if p.shape[1] else None


def _tube_jet(pts, qp, eps, h_coef, h_power, need_grad=True):
    """Flat cutoff ``chi = rho(s_x * s_r)`` on the batch ``pts``, given its
    ``qp = _base_sq(p)``: supported in the shrinking tube ``{x > -eps,
    |p|^2 + y^2 < R_OFF * h(x)}`` with ``h = h_coef (1-x)^pow``, and
    identically 1 where ``x >= -eps/2`` and ``|p|^2 + y^2 <= R_ON * h(x)``.
    The outer cubic step makes the gradient vanish on the zero set of
    ``chi``.  Both smooth steps ``s_x`` and ``s_r`` come from one
    :func:`smooth_step_jet` call on their stacked arguments.

    Returns ``(chi, None)`` without the gradient, else ``(chi, (live, dp,
    dx, dy))``: ``live`` indexes the rows where the gradient can be nonzero
    and ``dp``, ``dx``, ``dy`` are its blocks there (``dp`` is ``None`` when
    there is no base coordinate); it is zero on every other row.
    """
    x, y, p = pts[:, -2], pts[:, -1], pts[:, :-2]
    q = y * y if qp is None else qp + y * y
    one_m_x = 1.0 - x
    inside = one_m_x > 0.0
    floored = np.maximum(one_m_x, 1e-300)
    h = np.where(inside, h_coef * floored ** h_power, 1e-300)
    r = np.where(inside, q / h, np.inf)

    # both smooth steps in one kernel call: s_x on the first m entries,
    # s_r on the last m
    m = x.shape[0]
    args = np.empty(2 * m)
    np.divide(2.0 * (x + eps), eps, out=args[:m])
    np.divide(R_OFF - r, R_OFF - R_ON, out=args[m:])
    s, ds = smooth_step_jet(args, need_grad)
    sx, sr = s[:m], s[m:]

    inner = sx * sr
    chi = cubic_smoothstep(inner)
    if not need_grad:
        return chi, None
    dsx = ds[:m] * (2.0 / eps)
    dsr = -ds[m:] / (R_OFF - R_ON)
    rho_p = cubic_smoothstep_deriv(inner)

    # gradient of r: (2p/h, -q h'/h^2, 2y/h) in (p, x, y) order, with
    # h' = -pow * h / (1 - x) inside the chart
    live = np.flatnonzero(inside & (rho_p != 0.0) & ((dsx != 0.0) | (dsr != 0.0)))
    rho_l, hl = rho_p[live], h[live]
    coef_r = rho_l * sx[live] * dsr[live]
    dh = -h_power * hl / floored[live]
    dr_dx = -q[live] * dh / (hl * hl)
    dx = coef_r * dr_dx + rho_l * dsx[live] * sr[live]
    dy = coef_r * 2.0 * y[live] / hl
    dp = None if qp is None else coef_r[:, None] * 2.0 * p[live] / hl[:, None]
    return chi, (live, dp, dx, dy)


def _prefactor(x, qp):
    """The ray's rational prefactor ``(1-x^2)/(|p|^2+1-x^2)`` and its
    denominator, kept away from 0: outside the chart the cutoff vanishes,
    and a finite prefactor keeps ``0 * amp`` at 0."""
    denom = qp + 1.0 - x * x
    denom = np.where(np.abs(denom) > 1e-12, denom, 1e-12)
    return (1.0 - x * x) / denom, denom


def _ray_value(pts, eps, h_coef, h_power):
    """The ray Hamiltonian on the batch ``pts`` in the tube of ``eps``,
    ``h_coef`` and ``h_power``; ``eps`` and ``h_coef`` are scalars, or
    ``(m,)`` arrays that give each row its own tube."""
    qp = _base_sq(pts[:, :-2])
    chi, _ = _tube_jet(pts, qp, eps, h_coef, h_power, False)
    if qp is None:
        return chi * pts[:, -1]
    return _prefactor(pts[:, -2], qp)[0] * chi * pts[:, -1]


def _ray_grad(pts, eps, h_coef, h_power):
    """The gradient of :func:`_ray_value`, with the same arguments.  Every
    operation is elementwise, so a row's gradient does not depend on its
    batch, and a row with its own tube gets the bits it would get alone."""
    x, y, p = pts[:, -2], pts[:, -1], pts[:, :-2]
    qp = _base_sq(p)
    chi, (live, dp, dx, dy) = _tube_jet(pts, qp, eps, h_coef, h_power)
    m = pts.shape[0]
    dchi_x = np.zeros(m)
    dchi_x[live] = dx
    dchi_y = np.zeros(m)
    dchi_y[live] = dy
    chi_y = chi * y
    out = np.empty_like(pts)
    if qp is None:
        # amp = 1, |p|^2 = 0: the prefactor's x-derivative is the signed
        # zero -2x * 0, kept so the zero signs of the gradient do not move
        out[:, -2] = chi_y * (-2.0 * x * 0.0) + y * dchi_x
        out[:, -1] = y * dchi_y + chi
        return out
    # grad F = chi y grad(amp) + amp y grad(chi) + amp chi e_y
    amp, denom = _prefactor(x, qp)
    dd = denom * denom
    amp_y = amp * y
    dchi_p = np.zeros_like(p)
    dchi_p[live] = dp
    damp_p = (-(1.0 - x * x) * 2.0)[:, None] * p / dd[:, None]
    out[:, :-2] = chi_y[:, None] * damp_p + amp_y[:, None] * dchi_p
    out[:, -2] = chi_y * (-2.0 * x * qp / dd) + amp_y * dchi_x
    out[:, -1] = chi_y * 0.0 + amp_y * dchi_y + amp * chi
    return out


class RayHamiltonian(HamiltonianField):
    """``F = (1-x^2)/(|p|^2+1-x^2) * chi(z) * y`` on ``R^{2n-2} x I x R``.

    The rational prefactor is 1 on the invariant axis ``{p=0, y=0}``, so
    points of the half-open segment ``x in [0, 1)`` reach the chart end in
    time ``1 - x`` exactly; off the axis the cutoff tube pinches and every
    trajectory is complete.  In the plane (``n = 1``) the prefactor is 1,
    and the evaluators skip it.
    """

    def __init__(self, n: int, eps: float = 0.5, h_coef: float = 0.25,
                 h_power: int = 1):
        for name, value in (("n", n), ("h_power", h_power)):
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise InputError(f"{name} must be an integer >= 1, got {value!r}")
        if not (0.0 < eps < 1.0):
            raise InputError(f"eps must lie in (0, 1), got {eps!r}")
        # an infinite tube is all plateau, so off-axis points would escape
        if isinstance(h_coef, bool) or not 0.0 < h_coef < math.inf:
            raise InputError(f"h_coef must be positive and finite, got {h_coef!r}")
        self.n = n
        self.dim = 2 * n
        self.eps = eps
        self.h_coef = h_coef
        self.h_power = h_power

    def value(self, z):
        return _ray_value(_as_batch(z, self.dim), self.eps, self.h_coef,
                          self.h_power)

    def grad(self, z):
        return _ray_grad(_as_batch(z, self.dim), self.eps, self.h_coef,
                         self.h_power)

    def in_tube(self, z) -> np.ndarray:
        """Rows inside the open support ``{x > -eps, |p|^2 + y^2 <
        R_OFF * h(x)}`` of the cutoff; the field vanishes on every other
        row."""
        pts = _as_batch(z, self.dim)
        q = np.sum(pts[:, :-2] ** 2, axis=1) + pts[:, -1] ** 2
        h = self.h_coef * np.maximum(1.0 - pts[:, -2], 0.0) ** self.h_power
        return (pts[:, -2] > -self.eps) & (q < R_OFF * h)

    def membership(self, z) -> np.ndarray:
        """Exact membership in the model ray ``{p=0, y=0, 0 <= x < 1}``."""
        pts = _as_batch(z, self.dim)
        on_axis = np.all(pts[:, :-2] == 0.0, axis=1) & (pts[:, -1] == 0.0)
        return on_axis & (pts[:, -2] >= 0.0) & (pts[:, -2] < 1.0)


# ---------------------------------------------------------------------------
# extension of null fields
# ---------------------------------------------------------------------------

def epigraph_sampler(spec) -> Callable:
    """Sampler of the epigraph of ``spec.lam`` over ``spec.C`` inside
    ``B x I x {0}``, the excision target: ``sample(m, rng)`` returns at
    most ``m`` points of it.

    The sampler draws ``x`` uniformly in ``[lam(p), max(lam(p), 0.95)]``
    and drops the base points whose fibre ``[lam(p), 1)`` is empty, so every
    sample lies inside the open chart ``x in (-1, 1)``.
    """
    dim = spec.C.dim + 2

    def sample(m, rng):
        p = spec.C.sample(m, rng)
        lam = spec.lam(p)
        x = rng.uniform(lam, np.maximum(lam, 0.95))
        out = np.zeros((m, dim))
        out[:, :-2] = p
        out[:, -2] = x
        return out[lam < 1.0]

    return sample


class ExtendedHamiltonian(HamiltonianField):
    """Conormal-pairing extension ``F = chi * y * v(p, x)`` of a horizontal
    null field.

    ``chi`` is flat where it vanishes (outer cubic step) and is supported in
    ``{v > 0} intersect {|y v| < witness}``, which keeps ``|F|`` strictly
    below a function vanishing at infinity: every trajectory meeting
    ``{y != 0}`` is complete.  On the hypersurface the induced field is
    ``chi * v * d/dx``.
    """

    def __init__(self, field: EpigraphField):
        self.field = field
        self.dim = field.base_dim + 2

    def _pieces(self, pts, need_grad: bool):
        """``(ham, chi, grad)``: one :meth:`EpigraphField.jet` call when the
        gradient is needed (``grad`` is ``None`` otherwise).

        ``grad = chi * dham + ham * dchi``.  The cutoff gradient ``dchi`` is
        a multiple of ``rho'(inner)``, the outer cubic step's derivative, so
        its chain (the witness gradient, ``dratio``, ``dtheta``, ``ds_h``,
        ``dinner``) and ``ham * dchi`` are formed on the live rows, where
        ``rho'`` is nonzero, only.  Every other row gets ``chi * dham``,
        equal by value to the full formula: its ``ham * dchi`` is a zero,
        whose sign the full formula could still pass on to a zero entry.
        """
        p = pts[:, :-2]
        x = pts[:, -2]
        y = pts[:, -1]
        if need_grad:
            v, v_x, v_p = self.field.jet(p, x)
        else:
            v = self.field.velocity(p, x)
        ham = y * v
        wit = decay_witness(pts)
        ratio = np.abs(ham) / wit
        theta, theta_t = smooth_step_jet(v / V_FLOOR, need_grad)
        s_arg = 2.0 * (1.0 - ratio)
        s_h, s_h_t = smooth_step_jet(s_arg, need_grad)
        inner = theta * s_h
        chi = cubic_smoothstep(inner)
        if not need_grad:
            return ham, chi, None

        dv = np.zeros_like(pts)
        dv[:, :-2] = v_p
        dv[:, -2] = v_x

        dham = y[:, None] * dv
        dham[:, -1] += v
        grad = chi[:, None] * dham

        rho_p = cubic_smoothstep_deriv(inner)
        live = np.flatnonzero(rho_p != 0.0)
        if live.size:
            ham_l, wit_l, dham_l = ham[live], wit[live], dham[live]
            dwit = decay_witness_grad(pts[live])
            dratio = (np.sign(ham_l)[:, None] * dham_l * wit_l[:, None]
                      - np.abs(ham_l)[:, None] * dwit) / (wit_l * wit_l)[:, None]
            dtheta = (theta_t[live] / V_FLOOR)[:, None] * dv[live]
            ds_h = (-2.0 * s_h_t[live])[:, None] * dratio
            dinner = dtheta * s_h[live, None] + theta[live, None] * ds_h
            dchi = rho_p[live, None] * dinner
            grad[live] += ham_l[:, None] * dchi
        return ham, chi, grad

    def value(self, z):
        pts = _as_batch(z, self.dim)
        ham, chi, _ = self._pieces(pts, need_grad=False)
        return chi * ham

    def grad(self, z):
        return self._pieces(_as_batch(z, self.dim), need_grad=True)[2]

    def cutoff(self, z):
        return self._pieces(_as_batch(z, self.dim), need_grad=False)[1]


def extend_null_field(field: EpigraphField) -> ExtendedHamiltonian:
    """Extend a null field to a Hamiltonian on the ambient product model.

    Certifies on 10,000 points of the target, drawn by
    ``epigraph_sampler(field.spec)`` with a fixed seed, that the field speed
    stays above ``V_FLOOR`` there (the cutoff must be identically 1 there);
    scenarios that violate the floor are rejected loudly rather than
    silently degraded.  A target with no sample inside the chart is
    rejected too.
    """
    zs = epigraph_sampler(field.spec)(10_000, np.random.default_rng(20240901))
    if zs.shape[0] == 0:
        raise InputError("no target sample inside the chart")
    v = field.velocity(zs[:, :-2], zs[:, -2])
    vmin = float(np.min(v))
    if not vmin > V_FLOOR:
        raise InputError(
            f"null field not bounded below on Z: sampled min {vmin} <= {V_FLOOR}"
        )
    return ExtendedHamiltonian(field)
