import numpy as np
import pytest
from hypothesis import settings

from excisionlab import lsc_fields, null_fields, scalar_kit
from excisionlab.ham_extension import extend_null_field

# Fixed examples keep the suite deterministic.  No per-example deadline:
# the speed of a shared host can drift by 2x, which would make a deadline
# fail at random.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def brush():
    """Cantor-brush target, null field and Hamiltonian extension."""
    C = scalar_kit.ClosedSetSpec(
        dim=2,
        pieces=((scalar_kit.axis_point(0.0),
                 scalar_kit.cantor_axis(0.0, 1.0, 6)),),
    )
    spec = null_fields.EpigraphSpec(
        C=C, lam=null_fields.constant_map(0.0),
        validation_box=((-1.0, -1.0), (2.0, 2.0)), sharpness=0.002,
    )
    vfield = null_fields.EpigraphField(spec)
    ham = extend_null_field(vfield)
    return C, spec, vfield, ham


@pytest.fixture(scope="session")
def epigraph_box():
    """The epigraph scenario's target (a box with an affine height), null
    field and Hamiltonian extension."""
    C = scalar_kit.ClosedSetSpec(
        dim=2,
        pieces=((scalar_kit.axis_interval(-0.5, 0.5),
                 scalar_kit.axis_interval(-0.5, 0.5)),),
    )
    spec = null_fields.EpigraphSpec(
        C=C, lam=null_fields.affine_map((0.1, 0.0), 0.2),
        validation_box=((-1.5, -1.5), (1.5, 1.5)),
    )
    vfield = null_fields.EpigraphField(spec)
    ham = extend_null_field(vfield)
    return spec, vfield, ham


@pytest.fixture(scope="session")
def box_tail_field():
    """Glued tower for the box-with-tail target (shared across tests)."""
    spec = lsc_fields.LscSpec(
        base_lo=(-2.0, -2.0), base_hi=(2.0, 2.0),
        pieces=(((-1.0, -1.0), (1.0, 1.0), 0.5),
                ((0.0, 0.0), (0.0, 0.0), 0.25)),
    )
    transect = np.stack([np.linspace(-1.95, 1.95, 50), np.full(50, 0.12)],
                        axis=1)
    field = lsc_fields.build_lsc_field(spec, depth=12)
    field.fibre_table(transect)
    return spec, field, transect
