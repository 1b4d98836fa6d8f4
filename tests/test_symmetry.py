"""Symmetry oracles: a run commutes with the exact symmetries of the torus grid and of the equations.

They check the numerics beyond the conservation laws: a transform, a
multiplier or a product that favoured one axis, one direction or one
cell would break the symmetry at first order, while a faithful solver
keeps it to round-off.  A quarter turn and a mirror with theta flipped
hold to round-off, the amplitude-time scaling bit for bit, and time
reversal to the RK4 truncation error.  A dilation by 2 ties a run on
one grid to a run on the grid of twice the size, mode for mode.
"""

import dataclasses

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


def _mirror(f, sign):
    """sign times the field mirrored in x1 -> -x1: grid column i takes column (-i) mod n."""
    values = inverse_transform(f).values
    n = f.grid.n
    return forward_transform(PhysicalField(f.grid, sign * values[:, (-np.arange(n)) % n]))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", sorted(SYMMETRY_PARAMS))
def test_a_mirror_with_theta_flipped_commutes_with_a_run(model, scheme):
    # theta(x1, x2) -> -theta(-x1, x2) maps u to (-u1, u2) at the mirrored
    # point, so the transport and the even symbols of every model commute
    # with it: measured at most 2.3e-16 of the largest coefficient.  The
    # mirror alone makes u minus the mirrored velocity, and its run misses
    # by 0.11 to 0.32
    theta = random_field(qglab.Grid(32), 10, 1.5, 5)
    p, cfg = SYMMETRY_PARAMS[model], StepperConfig(dt=2e-3, t_end=0.2, scheme=scheme)
    final = run(theta, p, cfg).final
    mirrored_after = _mirror(final, -1.0).coeffs
    mirrored_before = run(_mirror(theta, -1.0), p, cfg).final.coeffs
    assert np.max(np.abs(mirrored_after - mirrored_before)) <= 1e-13 * np.max(np.abs(mirrored_after))
    unflipped = run(_mirror(theta, 1.0), p, cfg).final.coeffs
    assert _largest_miss(unflipped, _mirror(final, 1.0).coeffs) >= 1e-2


def _largest_miss(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("alpha", [0.5, 0.8])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model", sorted(SYMMETRY_PARAMS))
def test_amplitude_time_scaling_is_exact(model, scheme, alpha):
    # theta -> a theta, t -> t / a, kappa -> a kappa maps solutions to
    # solutions of all three models at any alpha: the nonlinear term and
    # the time derivative both gain a^2.  At a = 4 every scaled operation
    # is exact, so the runs agree bit for bit (measured)
    theta = random_field(qglab.Grid(32), 10, 1.5, 5)
    p = dataclasses.replace(SYMMETRY_PARAMS[model], alpha=alpha)
    cfg = StepperConfig(dt=2e-3, t_end=0.2, scheme=scheme)
    scaled_cfg = StepperConfig(dt=cfg.dt / 4.0, t_end=cfg.t_end / 4.0, scheme=scheme)
    final = 4.0 * run(theta, p, cfg).final.coeffs
    scaled = run(4.0 * theta, dataclasses.replace(p, kappa=4.0 * p.kappa), scaled_cfg).final.coeffs
    assert np.array_equal(scaled, final)
    if model == "dissipative":  # with kappa left unscaled the run misses: measured 1.6e-2 and 2.5e-2
        assert _largest_miss(run(4.0 * theta, p, scaled_cfg).final.coeffs, final) >= 1e-3


@pytest.mark.parametrize("model", sorted(SYMMETRY_PARAMS))
def test_time_reversal_without_dissipation(model):
    # theta(x, t) -> -theta(x, -t) is a symmetry of the inviscid and the
    # regularized model: running -theta(T) for T and negating returns
    # theta_0 up to the RK4 truncation error, measured 4.2e-9 (inviscid) and
    # 2.1e-15 (regularized) of the largest coefficient.  Dissipation is not
    # reversible: the dissipative run misses by 4.0e-2
    theta = random_field(qglab.Grid(32), 10, 1.5, 5)
    p, cfg = SYMMETRY_PARAMS[model], StepperConfig(dt=2e-3, t_end=0.2)
    back = -1.0 * run(-1.0 * run(theta, p, cfg).final, p, cfg).final
    miss = _largest_miss(back.coeffs, theta.coeffs)
    assert miss >= 1e-3 if model == "dissipative" else miss <= 1e-7


def _dilated(f):
    """theta(2x) on the grid of twice the size: the coefficient of (k1, k2) moves to (2 k1, 2 k2)."""
    n = f.grid.n
    coeffs = np.zeros((2 * n, n + 1), dtype=np.complex128)
    coeffs[::2, ::2] = f.coeffs
    return qglab.SpectralField(qglab.Grid(2 * n), coeffs)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("model, alpha", [("inviscid", 0.5), ("dissipative", 0.5), ("dissipative", 0.8), ("dissipative", 1.0)])
def test_a_dilation_maps_a_run_onto_the_grid_of_twice_the_size(model, alpha, scheme):
    # theta(x, t) -> a theta(2x, b t) with a = 2^(2 alpha - 1), b = 2^(2 alpha)
    # maps solutions to solutions: the time derivative and kappa
    # Lambda^(2 alpha) gain a b, the transport 2 a^2.  At the critical index
    # alpha = 1/2 (and inviscid) a = 1 and b = 2.  The 2/3 band of grid 2n
    # holds exactly the doubled band of grid n, so a run to t on n = 32 and
    # one to t / b at dt / b on n = 64 agree mode for mode: measured at most
    # 2.1e-16 at alpha = 1/2, 2.2e-15 at 0.8 and 1.7e-16 at 1
    theta = random_field(qglab.Grid(32), 10, 1.5, 5)
    p = ModelParams(model, alpha=alpha, kappa=0.1 if model == "dissipative" else 0.0)
    a, b = 2.0 ** (2.0 * alpha - 1.0), 2.0 ** (2.0 * alpha)
    final = _dilated(run(theta, p, StepperConfig(dt=2e-3, t_end=0.4, scheme=scheme)).final).coeffs
    fine = run(a * _dilated(theta), p, StepperConfig(dt=2e-3 / b, t_end=0.4 / b, scheme=scheme)).final.coeffs
    assert _largest_miss(fine, a * final) <= 1e-13
    if alpha == 0.8:  # the critical map a = 1, b = 2 off the critical index: measured 3.3e-2
        plain = run(_dilated(theta), p, StepperConfig(dt=1e-3, t_end=0.2, scheme=scheme)).final.coeffs
        assert _largest_miss(plain, final) >= 1e-2
