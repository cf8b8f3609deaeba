"""Per-fibre references for the glued velocity tower that only the tests use.

The package evaluates the tower row-wise over whole fibre tables
(``lsc_fields._tower_time`` and ``GluedField.classify``); the functions
here evaluate one fibre's ``fiber_data`` row one point at a time, as
Python floats, so the batches can be pinned against them bit for bit.
"""

import math

import numpy as np

from excisionlab.scalar_kit import bridge_crossing_time


def band_travel_time_scalar(g, tau, level, x0, x1):
    """Crossing time from ``x0`` up to ``x1`` under tower level ``level`` of
    one fibre with separators ``g`` and delays ``tau``: one bridge crossing
    per crossed band, added band by band as Python floats."""
    g, tau = np.asarray(g, dtype=float), np.asarray(tau, dtype=float)
    lo, hi, delay = g[:level], g[1:level + 1], tau[:level]
    a = np.maximum(x0, lo)
    b = np.minimum(x1, hi)
    crossed = b > a
    lo, hi, delay, a, b = (v[crossed] for v in (lo, hi, delay, a, b))
    extra = bridge_crossing_time(lo, hi, delay, a, b) - (b - a)
    # a numpy sum would reorder the terms
    total = x1 - x0
    for term in extra.tolist():
        total += term
    return total


def limit_verdict(field, p, x: float):
    """The limit-field verdict of the point ``x`` on the fibre over ``p``,
    from the fibre's ``fiber_data`` row: ``"excised"`` when the limit exit
    time is certainly at most 1, ``"survives"`` when it certainly exceeds
    1, and ``None`` when the tower leaves it undecided, as it does at or
    above the deepest separator ``g_N``.

    The time through the built bands is exact; the unbuilt bands above add
    ``lam(p) - f_N(p)`` when the target stays below ``g_0(p)``, and an
    unknown time otherwise."""
    f, g, tau = field.fiber_data(p)
    if x >= g[-1]:
        return None
    lower = band_travel_time_scalar(g, tau, field.depth, x, 1.0)
    lam_p = float(field.spec.lam(np.asarray(p, dtype=float)[None])[0])
    if lam_p < g[0]:
        lower = upper = lower + max(lam_p - f[field.depth - 1], 0.0)
    else:
        upper = math.inf
    if lower > 1.0:
        return "survives"
    if upper <= 1.0:
        return "excised"
    return None
