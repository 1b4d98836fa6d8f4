"""Multi-run studies: the mu -> 0 limit and flux scaling.

Slope fits use least squares on log-log pairs after dropping any point
within 10x of the 1e-14 round-off floor.  Per-mu runs are independent of
each other; aggregation is order independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics
from .diagnostics import _flux_front, _flux_integral, _mollifiers
from .errors import DegenerateFit, ReferenceTooCoarse, ValidationError
from .models import ModelParams
from .spectral import SpectralField
from .stepping import StepperConfig, run

ROUNDOFF_FLOOR = 1e-14


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x, ignoring y within 10x of ROUNDOFF_FLOOR.

    Raises ValidationError unless x and y are 1-D and of one length, every
    x positive and finite and every y finite.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValidationError(f"fit needs 1-D x and y of one length, got shapes {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(y)) and np.all((x > 0.0) & (x < np.inf))):
        raise ValidationError("fit needs finite ordinates and positive finite abscissae")
    keep = y > 10.0 * ROUNDOFF_FLOOR
    if np.count_nonzero(keep) < 2:
        raise DegenerateFit("fewer than two points above the round-off floor")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


@dataclass
class MuSweepResult:
    """Errors of the regularized model against the inviscid reference."""

    mu_list: np.ndarray
    err_l2: np.ndarray  # per mu: sup_t |theta_mu - theta|_2
    err_modified: np.ndarray  # per mu: sup_t (|w|_2^2 + mu ||w||_alpha^2)
    slope_l2: float
    slope_modified: float
    reference_dt: float
    reference_self_error: float


def compare_mu(
    theta0: SpectralField,
    alpha: float,
    mu_list,
    t_end: float,
    cfg: StepperConfig,
) -> MuSweepResult:
    """Run the regularized model over mu_list against an inviscid reference.

    All runs share theta0, so the data-discrepancy term of the convergence
    bound vanishes.  The reference is integrated at half the sweep's dt and
    checked against the full-dt run: its self-convergence error must stay
    below 10% of the smallest mu-error, else ReferenceTooCoarse.

    `t_end` must equal `cfg.t_end` (ValidationError otherwise).  Every run
    marches with `cfg.scheme`; neither model has a linear part, so the
    `Integrator` steps plain RK4 under either scheme.
    """
    mu_arr = np.asarray(sorted(mu_list, reverse=True), dtype=np.float64)
    if len(mu_arr) < 2 or np.any(np.diff(mu_arr) >= 0.0):
        raise ValidationError("mu_list must contain at least two distinct values")
    if t_end != cfg.t_end:
        raise ValidationError(f"t_end={t_end} differs from cfg.t_end={cfg.t_end}")

    steps = cfg.nsteps
    snap = cfg.snapshot_every if cfg.snapshot_every > 0 else max(1, steps // 10)

    def run_model(p, dt, snapshot_every):
        local = replace(cfg, dt=dt, diag_every=steps, snapshot_every=snapshot_every)
        return run(theta0, p, local)

    inviscid = ModelParams("inviscid", alpha=0.0)
    ref_coarse = run_model(inviscid, cfg.dt, snap)
    ref_fine = run_model(inviscid, 0.5 * cfg.dt, 2 * snap)
    ref_states = [f for _, f in ref_fine.samples]
    coarse_states = [f for _, f in ref_coarse.samples]

    self_err = max(
        diagnostics.sobolev_norm(a - b, 0.0) for a, b in zip(coarse_states, ref_states)
    )

    err_l2 = np.zeros(len(mu_arr))
    err_mod = np.zeros(len(mu_arr))
    for i, mu in enumerate(mu_arr):
        p = ModelParams("regularized", alpha=alpha, mu=float(mu))
        result = run_model(p, cfg.dt, snap)
        worst_l2 = 0.0
        worst_mod = 0.0
        for (_, state), ref in zip(result.samples, ref_states):
            w = state - ref
            l2 = diagnostics.sobolev_norm(w, 0.0)
            mod = l2 * l2 + mu * diagnostics.sobolev_norm(w, alpha) ** 2
            worst_l2 = max(worst_l2, l2)
            worst_mod = max(worst_mod, mod)
        err_l2[i] = worst_l2
        err_mod[i] = worst_mod

    smallest = float(np.min(err_l2))
    if smallest > 10.0 * ROUNDOFF_FLOOR and self_err > 0.1 * smallest:
        raise ReferenceTooCoarse(
            f"reference self-convergence error {self_err:.3e} exceeds 10% of {smallest:.3e}"
        )

    try:
        slope_l2 = fit_loglog_slope(mu_arr, err_l2)
        slope_mod = fit_loglog_slope(mu_arr, err_mod)
    except DegenerateFit:
        slope_l2 = slope_mod = math.nan  # steady data: all errors at round-off

    return MuSweepResult(
        mu_list=mu_arr,
        err_l2=err_l2,
        err_modified=err_mod,
        slope_l2=slope_l2,
        slope_modified=slope_mod,
        reference_dt=0.5 * cfg.dt,
        reference_self_error=self_err,
    )


def flux_decay_exponent(
    theta: SpectralField,
    s: float,
    eps_list,
    profile: str = "gaussian",
) -> float:
    """Fitted decay exponent of |flux_integral(eps)| as eps -> 0.

    For a field of Besov regularity s the theory bounds the flux by
    eps^(3s-1); smooth fields decay at least quadratically.  `s` does not
    enter the fit: it only names the regularity a caller compares the
    returned exponent with (3s - 1).  Raises
    DegenerateFit when the flux sits at the round-off floor (the field is
    too smooth, or steady, to carry a measurable transfer).  Each value is
    the bits of `coarse_grained_flux(theta, eps, profile).flux_integral`,
    formed as that function forms it: one Parseval sum per eps over a
    pairing that one forward and one inverse transform give for the whole
    list, with no sigma_eps or other per-eps field.
    """
    mollifiers = _mollifiers(eps_list, profile)
    gf, pairing = _flux_front(theta)
    fluxes = [_flux_integral(mol.multiplier(gf), pairing) for mol in mollifiers]
    return fit_loglog_slope([mol.eps for mol in mollifiers], np.abs(fluxes))
