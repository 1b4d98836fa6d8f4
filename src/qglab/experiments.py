"""Multi-run studies: the mu -> 0 limit of the regularized model.

The convergence slopes are `diagnostics.fit_loglog_slope` fits, which drop
any error within 10x of the round-off floor.  Per-mu runs are independent
of each other; aggregation is order independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics
from .diagnostics import ROUNDOFF_FLOOR, fit_loglog_slope
from .errors import DegenerateFit, ReferenceTooCoarse, ValidationError
from .models import ModelParams
from .spectral import SpectralField
from .stepping import StepperConfig, run


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
    mu_list = list(mu_list)
    mu_arr = np.asarray(sorted(mu_list, reverse=True), dtype=np.float64)
    if len(mu_arr) < 2 or np.any(np.diff(mu_arr) >= 0.0):
        raise ValidationError(f"mu_list must hold at least two values, all distinct, got {mu_list}")
    if t_end != cfg.t_end:
        raise ValidationError(f"t_end={t_end} differs from cfg.t_end={cfg.t_end}")
    # every mu and alpha is checked here, before the first run marches
    regularized = [ModelParams("regularized", alpha=alpha, mu=float(mu)) for mu in mu_arr]

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
    for i, p in enumerate(regularized):
        result = run_model(p, cfg.dt, snap)
        worst_l2 = 0.0
        worst_mod = 0.0
        for (_, state), ref in zip(result.samples, ref_states):
            w = state - ref
            l2 = diagnostics.sobolev_norm(w, 0.0)
            h_alpha = diagnostics.sobolev_norm(w, alpha)
            mod = l2 * l2 + p.mu * (h_alpha * h_alpha)
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
