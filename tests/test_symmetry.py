"""Symmetry oracles: a run commutes with the exact symmetries of the torus grid.

They check the numerics beyond the conservation laws: a transform, a
multiplier or a product that favoured one axis, one direction or one
cell would break the symmetry at first order, while a faithful solver
keeps it to round-off.
"""

import numpy as np
import pytest

import qglab
from qglab import ModelParams, StepperConfig, run
from qglab.spectral import PhysicalField, forward_transform, inverse_transform
from qglab.stepping import SCHEMES

from conftest import random_field

SYMMETRY_PARAMS = {
    "inviscid": ModelParams("inviscid"),
    "dissipative": ModelParams("dissipative", alpha=0.5, kappa=0.1),
    "regularized": ModelParams("regularized", alpha=0.5, mu=1.0),
}


def _quarter_turn(f):
    """The field whose samples are `np.rot90` of those of f: a 90 degree turn and a one-cell shift."""
    return forward_transform(PhysicalField(f.grid, np.rot90(inverse_transform(f).values)))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", sorted(SYMMETRY_PARAMS))
def test_a_quarter_turn_commutes_with_a_run(model, scheme):
    # u = (-R2 theta, R1 theta), the fractional Laplacian and the square 2/3
    # band all commute with the turn and the shift, so turning the final
    # state and running the turned datum agree to round-off: measured at
    # most 8.4e-16 of the largest coefficient
    theta = random_field(qglab.Grid(32), 10, 1.5, 5)
    p, cfg = SYMMETRY_PARAMS[model], StepperConfig(dt=2e-3, t_end=0.2, scheme=scheme)
    turned_after = _quarter_turn(run(theta, p, cfg).final).coeffs
    turned_before = run(_quarter_turn(theta), p, cfg).final.coeffs
    assert np.max(np.abs(turned_after - turned_before)) <= 1e-13 * np.max(np.abs(turned_after))
    assert not np.allclose(turned_after, run(theta, p, cfg).final.coeffs)  # the turn moves this state
