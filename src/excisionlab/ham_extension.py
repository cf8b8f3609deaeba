"""Hamiltonians on the product model ``M = B x I x R`` whose flows excise
closed subsets sitting inside the hypersurface ``N = B x I x {0}``.

Coordinates are ordered ``z = (p_1, ..., p_{2n-2}, x, y)`` with the
symplectic pairing on consecutive pairs; the last pair is ``(x, y)``.  Two
families are provided:

* the explicit ray Hamiltonian ``F = (1-x^2)/(|p|^2 + 1 - x^2) * chi * y``
  (with ``chi`` an explicit flat cutoff supported in a shrinking tube around
  the half-open segment ``{p=0, y=0, x in [0,1)}``), built in any dimension
  ``2n >= 2`` by ``RayHamiltonian(n)``; in the plane (``n = 1``) the
  rational prefactor is 1 and ``F = chi * y``;
* the conormal extension ``F = chi * y * v(p, x)`` of a horizontal null
  field ``v d/dx``, which restricts to ``chi * v * d/dx`` on the
  hypersurface and whose off-hypersurface trajectories are complete because
  ``|F|`` is dominated by a witness vanishing at infinity.

All fields expose batch-only ``value``/``grad``/``vector_field``
evaluators: they take ``(m, dim)`` arrays and return ``(m,)`` or
``(m, dim)`` arrays, with closed-form gradients (finite differences are
used only by the test suite to certify them).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "TubeNeighbourhood",
    "LocalizedHamiltonian",
    "localize",
]

# speed the null field must exceed on the target, and the scale of the
# extension's low-speed gate
V_FLOOR = 1e-3
# the ray cutoff is 1 inside the tube |p|^2 + y^2 <= R_ON * h(x) and 0
# outside R_OFF * h(x)
R_ON = 0.25
R_OFF = 0.5
# standoff by which the bump plateau must clear every target sample in
# ``localize`` (the classification standoff ``scenarios.MARGIN``)
HOOD_MARGIN = 1e-3


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


class HamiltonianField:
    """Scalar function on phase space with exact gradient and the induced
    Hamiltonian vector field.

    ``escape_value`` is the chart-exit monitor used by the integrator: a
    trajectory is declared to leave the chart when it reaches 1 (for the
    product models this is the ``x`` coordinate, whose chart ends at 1).
    """

    dim: int

    def value(self, z):
        raise NotImplementedError

    def grad(self, z):
        raise NotImplementedError

    def vector_field(self, z):
        return self.grad(z) @ self._omega_t

    @property
    def _omega_t(self):
        om = getattr(self, "_omega_cache", None)
        if om is None:
            om = pairing_matrix(self.dim).T
            self._omega_cache = om
        return om

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

def _tube_cutoff(pts, eps, h_coef, h_power):
    """Flat cutoff ``rho(s_x * s_r)`` supported in the shrinking tube
    ``{x > -eps, |p|^2 + y^2 < R_OFF * h(x)}`` with ``h = h_coef (1-x)^pow``;
    identically 1 where ``x >= -eps/2`` and ``|p|^2 + y^2 <= R_ON * h(x)``.

    Returns ``(chi, dchi)`` with the full gradient.  The outer cubic step
    makes the gradient vanish on the zero set of ``chi``.
    """
    x = pts[:, -2]
    y = pts[:, -1]
    p = pts[:, :-2]
    q = np.sum(p * p, axis=1) + y * y

    one_m_x = 1.0 - x
    inside = one_m_x > 0.0
    h = np.where(inside, h_coef * np.maximum(one_m_x, 1e-300) ** h_power, 1e-300)
    dh = np.where(inside, -h_power * h / np.maximum(one_m_x, 1e-300), 0.0)

    r = np.where(inside, q / h, np.inf)
    sx_arg = 2.0 * (x + eps) / eps
    sx, dsx = smooth_step_jet(sx_arg)
    dsx = dsx * (2.0 / eps)
    sr_arg = (R_OFF - r) / (R_OFF - R_ON)
    sr, dsr = smooth_step_jet(sr_arg)
    dsr = -dsr / (R_OFF - R_ON)

    inner = sx * sr
    chi = cubic_smoothstep(inner)
    rho_p = cubic_smoothstep_deriv(inner)

    # gradient of r: (2p/h, -q h'/h^2, 2y/h) in (p, x, y) order
    dchi = np.zeros_like(pts)
    live = inside & (rho_p != 0.0) & ((dsx != 0.0) | (dsr != 0.0))
    if np.any(live):
        hl = h[live]
        coef_r = (rho_p * sx * dsr)[live]
        dchi[live, :-2] = coef_r[:, None] * 2.0 * p[live] / hl[:, None]
        dchi[live, -1] = coef_r * 2.0 * y[live] / hl
        dr_dx = -q[live] * dh[live] / (hl * hl)
        dchi[live, -2] = coef_r * dr_dx + (rho_p * dsx * sr)[live]
    return chi, dchi


class RayHamiltonian(HamiltonianField):
    """``F = (1-x^2)/(|p|^2+1-x^2) * chi(z) * y`` on ``R^{2n-2} x I x R``.

    The rational prefactor is 1 on the invariant axis ``{p=0, y=0}``, so
    points of the half-open segment ``x in [0, 1)`` reach the chart end in
    time ``1 - x`` exactly; off the axis the cutoff tube pinches and every
    trajectory is complete.
    """

    def __init__(self, n: int, eps: float = 0.5, h_coef: float = 0.25,
                 h_power: int = 1):
        if n < 1:
            raise InputError("n must be at least 1")
        if not (0.0 < eps < 1.0):
            raise InputError("eps must lie in (0, 1)")
        if not h_coef > 0.0:
            raise InputError("h_coef must be positive")
        self.n = n
        self.dim = 2 * n
        self.eps = eps
        self.h_coef = h_coef
        self.h_power = h_power

    def _pieces(self, pts):
        x = pts[:, -2]
        y = pts[:, -1]
        p = pts[:, :-2]
        q = np.sum(p * p, axis=1)
        if self.n == 1:
            # no base coordinates: the rational prefactor degenerates to 1
            denom = np.ones_like(x)
            amp = np.ones_like(x)
        else:
            denom = q + 1.0 - x * x
            # outside the chart the cutoff vanishes; keep the prefactor
            # finite there so 0 * amp stays 0
            safe = np.where(np.abs(denom) > 1e-12, denom, 1e-12)
            amp = (1.0 - x * x) / safe
            denom = safe
        chi, dchi = _tube_cutoff(pts, self.eps, self.h_coef, self.h_power)
        return x, y, p, q, denom, amp, chi, dchi

    def value(self, z):
        pts = _as_batch(z, self.dim)
        _, y, _, _, _, amp, chi, _ = self._pieces(pts)
        return amp * chi * y

    def grad(self, z):
        pts = _as_batch(z, self.dim)
        x, y, p, q, denom, amp, chi, dchi = self._pieces(pts)
        damp = np.zeros_like(pts)
        damp[:, :-2] = -(1.0 - x * x)[:, None] * 2.0 * p / (denom * denom)[:, None]
        damp[:, -2] = -2.0 * x * q / (denom * denom)
        out = (chi * y)[:, None] * damp + (amp * y)[:, None] * dchi
        out[:, -1] += amp * chi
        return out

    def membership(self, z) -> np.ndarray:
        """Exact membership in the model ray ``{p=0, y=0, 0 <= x < 1}``."""
        pts = _as_batch(z, self.dim)
        on_axis = np.all(pts[:, :-2] == 0.0, axis=1) & (pts[:, -1] == 0.0)
        return on_axis & (pts[:, -2] >= 0.0) & (pts[:, -2] < 1.0)

    def sample_target(self, m: int, rng: np.random.Generator) -> np.ndarray:
        pts = np.zeros((m, self.dim))
        pts[:, -2] = rng.uniform(0.0, 0.95, size=m)
        return pts


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
        gradient is needed (``grad`` is ``None`` otherwise)."""
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

        dwit = decay_witness_grad(pts)
        sgn = np.sign(ham)
        dratio = (sgn[:, None] * dham * wit[:, None]
                  - np.abs(ham)[:, None] * dwit) / (wit * wit)[:, None]

        dtheta = (theta_t / V_FLOOR)[:, None] * dv
        ds_h = (-2.0 * s_h_t)[:, None] * dratio
        dinner = dtheta * s_h[:, None] + theta[:, None] * ds_h
        dchi = cubic_smoothstep_deriv(inner)[:, None] * dinner

        grad = chi[:, None] * dham + ham[:, None] * dchi
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


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeNeighbourhood:
    """Shrinking-tube neighbourhood of the model ray, with a smooth plateau
    bump: 1 inside the half-size tube, 0 outside the full tube
    ``{x > -eps, |p|^2 + y^2 < R_OFF * h_coef * (1 - x)}``."""

    eps: float
    h_coef: float

    def bump(self, pts: np.ndarray):
        return _tube_cutoff(pts, self.eps, self.h_coef, 1)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        x = pts[:, -2]
        q = np.sum(pts[:, :-2] ** 2, axis=1) + pts[:, -1] ** 2
        h = self.h_coef * np.maximum(1.0 - x, 0.0)
        return (x > -self.eps) & (q < R_OFF * h)


class LocalizedHamiltonian(HamiltonianField):
    """``F' = bump * F``: vanishes outside the neighbourhood, coincides with
    ``F`` on the bump plateau."""

    def __init__(self, base: HamiltonianField, hood: TubeNeighbourhood):
        self.base = base
        self.hood = hood
        self.dim = base.dim

    def value(self, z):
        pts = _as_batch(z, self.dim)
        b, _ = self.hood.bump(pts)
        return b * self.base.value(pts)

    def grad(self, z):
        pts = _as_batch(z, self.dim)
        b, db = self.hood.bump(pts)
        f, g = self.base.value(pts), self.base.grad(pts)
        return b[:, None] * g + f[:, None] * db


def localize(F: HamiltonianField, hood: TubeNeighbourhood,
             target_samples: np.ndarray) -> LocalizedHamiltonian:
    """Multiply ``F`` by the neighbourhood's plateau bump.

    First checks that the neighbourhood contains the excised set with
    margin: the bump must be identically 1 on every target sample and on
    its ``2 * dim`` coordinate shifts by ``+-HOOD_MARGIN`` (``1e-3``).  On
    the axis samples of the ray the shifts probe the transverse radius of
    the plateau and its longitudinal edge.  NaN counts as a failure.
    """
    pts = _as_batch(target_samples, F.dim)
    b, _ = hood.bump(np.concatenate([pts, coordinate_stencil(pts, HOOD_MARGIN)]))
    if not np.all(b >= 1.0):
        raise InputError("neighbourhood does not contain the target with margin")
    return LocalizedHamiltonian(F, hood)
