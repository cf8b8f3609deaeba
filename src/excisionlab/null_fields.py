"""Horizontal vector fields ``v(p, x) d/dx`` on a product ``B x I`` whose
time-1 flow excises the epigraph of a smooth function over a closed set.

The velocity is the parametric ramp profile with base-dependent parameters
``a(p) = (lambda(p) - 1) / 2``, ``b(p) = lambda(p)`` and ``c(p)`` a smooth
defining function of the closed set ``C``: on fibres over ``C`` the forward
time to the right end is ``(1 - x) / (1 - lambda(p))`` above the ramp, so it
is at most 1 exactly on the epigraph; off ``C`` the positive ``c`` makes the
time infinite.  The field is horizontal, so its flow moves only the ``x``
coordinate and preserves any 2-form pulled back from ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
# flow_map is not called here; perfbench/test_perfbench.py checks that
# tracing wraps this module's binding of it
from .flow1d import flow_map, flow_map_batch, ramp_time_closed_form
from .scalar_kit import (
    ClosedSetSpec,
    DefiningFunction,
    Fibres,
    ramp_velocity,
    ramp_velocity_field,
    ramp_velocity_jet,
)

__all__ = [
    "SmoothMap",
    "constant_map",
    "affine_map",
    "EpigraphSpec",
    "EpigraphField",
    "classify_epigraph",
    "presympl_flow",
]

@dataclass(frozen=True)
class SmoothMap:
    """A smooth function on the base with an exact gradient.

    Batch-only: ``f`` maps an ``(m, d)`` batch of base points to ``(m,)``
    and ``grad`` maps it to ``(m, d)``; calling the map does the same as
    ``f``.
    """

    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]

    def __call__(self, p):
        return self.f(np.asarray(p, dtype=float))


def constant_map(value: float) -> SmoothMap:
    return SmoothMap(
        f=lambda pts: np.full(pts.shape[0], float(value)),
        grad=lambda pts: np.zeros_like(pts),
    )


def affine_map(coeffs, const: float) -> SmoothMap:
    coeffs = np.asarray(coeffs, dtype=float)
    return SmoothMap(
        f=lambda pts: pts @ coeffs + const,
        grad=lambda pts: np.broadcast_to(coeffs, pts.shape).copy(),
    )


@dataclass(frozen=True)
class EpigraphSpec:
    """The excision target: epigraph of ``lam`` over the closed set ``C``.

    ``lam`` must be smooth on all of the base with values in (-1, 1]; it is
    the ambient extension of the function whose epigraph over ``C`` is
    removed.  ``validation_box``, a ``(lo, hi)`` pair of corners, bounds
    the region on which the range of ``lam`` is spot-checked when an
    :class:`EpigraphField` is built.
    """

    C: ClosedSetSpec
    lam: SmoothMap
    validation_box: tuple
    sharpness: float = 0.006

    def membership(self, p, x) -> np.ndarray:
        """Exact epigraph membership ``p in C and x >= lam(p)`` of ``(m, d)``
        base points and ``(m,)`` fibre coordinates (the oracle side of
        every classification check)."""
        return self.C.contains(p) & (np.asarray(x, dtype=float) >= self.lam(p))


class EpigraphField:
    """The ramp-velocity field ``v(p, x) d/dx`` attached to an
    :class:`EpigraphSpec`, fibrewise-horizontal on ``base x (-1, 1)``.

    ``velocity`` and ``jet`` take a batch: base points ``p`` of shape
    ``(m, base_dim)`` and fibre coordinates ``x`` of shape ``(m,)``, and
    so do :meth:`fibres` and :func:`presympl_flow` built on it.  Base
    points of any other shape raise :class:`~excisionlab.errors.InputError`.

    Construction validates the range of the ambient function: ``lam`` must
    take values in (-1, 1] at 256 points of the set and 512 points of the
    validation box, drawn with a fixed seed.
    """

    def __init__(self, spec: EpigraphSpec):
        rng = np.random.default_rng(0)
        on_set = spec.C.sample(256, rng)
        lo, hi = np.asarray(spec.validation_box[0]), np.asarray(spec.validation_box[1])
        in_box = rng.uniform(lo, hi, size=(512, spec.C.dim))
        vals = spec.lam(np.concatenate([on_set, in_box], axis=0))
        if not np.all((vals > -1.0) & (vals <= 1.0)):
            raise InputError("ambient function must take values in (-1, 1]")
        self.spec = spec
        self.base_dim = spec.C.dim
        self.c_fn = DefiningFunction(spec.C, spec.sharpness)

    def _points(self, p) -> np.ndarray:
        pts = np.asarray(p, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.base_dim:
            raise InputError(f"base points must have shape (m, {self.base_dim}), "
                             f"got {pts.shape}")
        return pts

    # parameter fields: a = (b - 1)/2 with b = lam, c the defining function
    def params(self, p):
        """``(a, b, c)`` arrays at an ``(m, base_dim)`` batch."""
        p = self._points(p)
        b = self.spec.lam(p)
        return 0.5 * (b - 1.0), b, self.c_fn.value(p)

    def velocity(self, p, x):
        a, b, c = self.params(p)
        return ramp_velocity(a, b, c, x)

    def jet(self, p, x):
        """``(v, dv/dx, grad_p v)`` at a batch, from one pass over the
        parameter fields and the ramp partials; ``v`` is bitwise
        :meth:`velocity`."""
        p = self._points(p)
        b = self.spec.lam(p)
        a = 0.5 * (b - 1.0)
        c, c_grad = self.c_fn.value_and_grad(p)
        v, du_da, du_db, du_dc, du_dx = ramp_velocity_jet(a, b, c, x)
        grad_p = ((0.5 * du_da + du_db)[:, None] * self.spec.lam.grad(p)
                  + du_dc[:, None] * c_grad)
        return v, du_dx, grad_p

    def fibres(self, p) -> Fibres:
        """The fibres over an ``(m, base_dim)`` batch of base points, for
        :func:`~excisionlab.flow1d.flow_map_batch`: fibre ``i`` is the
        restriction ``v(p[i], .)`` with its exact zero set, one
        :func:`~excisionlab.scalar_kit.ramp_velocity_field` of the
        parameters of the whole batch."""
        return ramp_velocity_field(*self.params(p))


def classify_epigraph(field: EpigraphField, p, x) -> np.ndarray:
    """Boolean ``excised`` array at ``(m, base_dim)`` base points and
    ``(m,)`` fibre coordinates: true where the closed-form forward time is
    at most 1, from one :func:`~excisionlab.flow1d.ramp_time_closed_form`
    call over the whole batch.  An ``x`` of any other shape raises
    :class:`~excisionlab.errors.InputError`.

    This is the analytic route; the integration-based escape verdicts and
    the raw membership test are kept independent of it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != np.shape(p)[:1]:
        raise InputError(f"need one fibre coordinate per base point, got "
                         f"shapes {np.shape(p)} and {x.shape}")
    return ramp_time_closed_form(*field.params(p), x) <= 1.0


def presympl_flow(field: EpigraphField, p, x, t) -> tuple[np.ndarray, np.ndarray]:
    """General time-``t`` fibre flow of a batch: ``(m, base_dim)`` base
    points ``p``, ``(m,)`` fibre coordinates ``x`` and a time ``t`` that is
    a float or an ``(m,)`` array.  Returns ``p`` (copied) and the ``(m,)``
    flowed coordinates, row ``i`` bitwise ``flow_map`` of fibre ``i`` of
    ``field.fibres(p)`` for time ``t[i]`` from ``x[i]``, all from one
    :func:`~excisionlab.flow1d.flow_map_batch` walk.  Backward flows are
    always defined for the shipped fields; forward flows need ``t`` below
    the forward time, and the first row whose time is refused raises its
    :class:`~excisionlab.errors.FlowDomainError`."""
    p = np.asarray(p, dtype=float)
    return p.copy(), flow_map_batch(field.fibres(p), t, x)
