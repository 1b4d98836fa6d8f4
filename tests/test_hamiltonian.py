"""The Hamiltonian: a second quadratic invariant, which checks the velocity law.

u = grad^perp psi with psi = Lambda^(-1) theta, so u . grad psi = 0, and
pairing each equation with psi gives a law for H = ||theta||^2 in
H^(-1/2):

- inviscid: H is conserved;
- regularized: H_mu = H + mu ||theta||^2 in H^(alpha - 1/2) is conserved;
- dissipative: d/dt H / 2 = -kappa ||theta||^2 in H^(alpha - 1/2).

The 2/3-band Galerkin truncation keeps quadratic invariants exactly, so
only the time stepper moves them.  The L^2 law holds for any divergence
free velocity; H holds only for u = R^perp theta, so a Riesz symbol that
is wrong but keeps u divergence free breaks H and leaves L^2 alone.  The
sums are `sobolev_norm` at -1/2 and at alpha - 1/2.
"""

import numpy as np
import pytest

import qglab
from qglab import ModelParams, StepperConfig, run
from qglab.diagnostics import sobolev_norm
from qglab.stepping import SCHEMES

CONSERVING = {
    "inviscid": ModelParams("inviscid"),
    "regularized-1/2": ModelParams("regularized", alpha=0.5, mu=1.0),
    "regularized-1": ModelParams("regularized", alpha=1.0, mu=0.1),
}


def _data(grid, name):
    return qglab.cmt(grid) if name == "cmt" else qglab.random_shell_field(grid, 20, 1.5, 3)


def _hamiltonian(theta, p):
    """H, and H_mu for the regularized model."""
    h = sobolev_norm(theta, -0.5) ** 2
    if p.model == "regularized":
        h += p.mu * sobolev_norm(theta, p.alpha - 0.5) ** 2
    return h


def _drift(theta, p, dt, scheme):
    """|H(1) - H(0)| / H(0) along a run to t = 1."""
    cfg = StepperConfig(dt=dt, t_end=1.0, scheme=scheme, diag_every=round(1.0 / dt))
    h0 = _hamiltonian(theta, p)
    return abs(_hamiltonian(run(theta, p, cfg).final, p) - h0) / h0


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "data, model",
    [("cmt", "inviscid"), ("cmt", "regularized-1/2"), ("cmt", "regularized-1"),
     ("shell", "regularized-1/2"), ("shell", "regularized-1")],
)
def test_hamiltonian_is_conserved(grid64, data, model, scheme):
    # measured at most 1.3e-15 (cmt) and 6.4e-15 (shell field) relative at
    # t = 1; Riesz symbols i k / |k|^0.9 make cmt drift 1.0e-5 to 6.9e-5
    assert _drift(_data(grid64, data), CONSERVING[model], 2e-3, scheme) <= 1e-13


def test_inviscid_hamiltonian_drift_is_the_rk4_error(grid64):
    # the shell field's small scales leave the RK4 error in sight: measured
    # 9.7e-9 at dt = 2e-3 and 2.8e-10 at 1e-3, 34x for half the step.  The
    # model has no linear part, so etd-rk4 steps the same plain RK4
    theta, p = _data(grid64, "shell"), CONSERVING["inviscid"]
    coarse, fine = (_drift(theta, p, dt, "rk4") for dt in (2e-3, 1e-3))
    assert fine <= 1e-9
    assert coarse >= 16.0 * fine


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_dissipative_hamiltonian_budget(grid64, alpha, scheme):
    # H(T) - H(0) + 2 kappa integral ||theta||^2_(alpha - 1/2) dt, with the
    # integral a trapezoid over every step, relative to H(0): measured
    # 1.3e-8 to 1.6e-8 at dt = 2e-3 and 3.5e-9 to 3.7e-9 at 1e-3 (alpha =
    # 1/2), 3.5e-7 and 8.8e-8 (alpha = 0.8), the trapezoid's O(dt^2) with
    # ratios 3.7 to 4.2, while H falls by 11% and 14%
    theta, p = _data(grid64, "shell"), ModelParams("dissipative", alpha=alpha, kappa=0.1)
    residuals = []
    for dt in (2e-3, 1e-3):
        cfg = StepperConfig(dt=dt, t_end=0.4, scheme=scheme, diag_every=round(0.4 / dt), snapshot_every=1)
        states = [f for _, f in run(theta, p, cfg).samples]
        h = [sobolev_norm(f, -0.5) ** 2 for f in states]
        rate = np.array([sobolev_norm(f, alpha - 0.5) ** 2 for f in states])
        spent = 2.0 * p.kappa * dt * (rate.sum() - 0.5 * (rate[0] + rate[-1]))
        residuals.append(abs(h[-1] - h[0] + spent) / h[0])
    assert residuals[0] <= 1e-6
    assert residuals[0] >= 3.5 * residuals[1]
