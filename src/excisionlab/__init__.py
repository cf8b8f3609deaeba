"""Numerical laboratory for Hamiltonian flows that excise closed subsets.

The package certifies, at desk scale, that explicitly constructed time-1
flow maps are symplectomorphisms from the ambient model minus a target set
onto the model: rays, Cantor brushes, epigraphs of lower semi-continuous
functions, and piecewise-linear trees excised in stages.
"""

from . import (
    certify,
    errors,
    flow1d,
    ham_extension,
    lsc_fields,
    null_fields,
    scalar_kit,
    scenarios,
    symflow,
    trees,
)

__all__ = [
    "errors",
    "scalar_kit",
    "flow1d",
    "null_fields",
    "lsc_fields",
    "ham_extension",
    "symflow",
    "trees",
    "certify",
    "scenarios",
]

__version__ = "0.1.0"
