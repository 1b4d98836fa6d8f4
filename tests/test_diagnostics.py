import math

import numpy as np
import pytest

import qglab
from qglab import ModelParams, StepperConfig, run
from qglab.diagnostics import (
    ConvexProfile,
    besov_norm,
    critical_monitor,
    dyadic_shell,
    energy_balance_residual,
    gn_constant,
    gn_residual,
    ladder_bracket,
    log_bound_ratio,
    log_interpolation_constant,
    lp_norm,
    max_principle_check,
    sobolev_norm,
)
from qglab.errors import Violation
from qglab.spectral import inverse_transform

from conftest import random_field


# -- Lebesgue and Sobolev norms ---------------------------------------------


def test_lp_norm_cosine(grid64):
    phys = inverse_transform(qglab.single_mode(grid64, 1, 0))
    assert lp_norm(phys, 2.0) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-12)
    assert lp_norm(phys, np.inf) == pytest.approx(1.0, abs=1e-14)
    # int_0^2pi |cos|^3 = 8/3, so |f|_3 = (2 pi 8/3)^(1/3)
    assert lp_norm(phys, 3.0) == pytest.approx((2 * np.pi * 8 / 3) ** (1 / 3), rel=1e-6)


def test_lp_norm_rejects_small_exponent(grid16):
    phys = inverse_transform(qglab.single_mode(grid16, 1, 0))
    with pytest.raises(ValueError):
        lp_norm(phys, 0.5)


def test_sobolev_norm_single_modes(grid32):
    f = qglab.single_mode(grid32, 1, 0)
    for s in (-0.5, 0.0, 1.0, 2.5):
        assert sobolev_norm(f, s) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-12)
    g = qglab.single_mode(grid32, 2, 0)
    assert sobolev_norm(g, 1.0) == pytest.approx(2.0 * np.pi * np.sqrt(2.0), rel=1e-12)


def test_sobolev_norm_zero_field(grid16):
    zero = qglab.SpectralField(grid16, np.zeros((16, 9), dtype=complex))
    assert sobolev_norm(zero, 1.5) == 0.0


def test_sobolev_matches_l2(grid64):
    f = random_field(grid64, 20, 1.5, 8)
    phys = inverse_transform(f)
    assert sobolev_norm(f, 0.0) == pytest.approx(lp_norm(phys, 2.0), rel=1e-10)


# -- Besov norms --------------------------------------------------------------


def test_besov_single_shell(grid64):
    # cos(4 x1) lives in shell j = 2; L3 norm of a cosine is (2 pi 8/3)^(1/3).
    # |cos|^3 is not a trig polynomial, so the grid quadrature carries a
    # small discretization error at 16 nodes per period.
    f = qglab.single_mode(grid64, 4, 0)
    expect = 4.0 ** (1.0 / 3.0) * (2 * np.pi * 8 / 3) ** (1 / 3)
    assert besov_norm(f, 1.0 / 3.0) == pytest.approx(expect, rel=1e-3)

    g = qglab.single_mode(grid64, 1, 0)
    assert besov_norm(g, 0.0) == pytest.approx((2 * np.pi * 8 / 3) ** (1 / 3), rel=1e-6)


def test_besov_homogeneity(grid64):
    f = random_field(grid64, 20, 1.5, 2)
    a = besov_norm(f, 1.0 / 3.0)
    b = besov_norm(3.5 * f, 1.0 / 3.0)
    assert b == pytest.approx(3.5 * a, rel=1e-12)


def test_shell_orthogonality(grid64):
    f = random_field(grid64, 30, 1.2, 6)
    total = sum(
        sobolev_norm(dyadic_shell(f, j), 0.0) ** 2 for j in range(8)
    )
    assert total == pytest.approx(sobolev_norm(f, 0.0) ** 2, rel=1e-10)


# -- maximum principle and energy balance ------------------------------------


def test_max_principle_pure_decay(grid32):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.2)
    res = run(qglab.single_mode(grid32, 2, 0), p, StepperConfig(dt=1e-2, t_end=1.0, diag_every=10))
    report = max_principle_check(res.records, np.inf)
    assert report.worst_margin < 0.0
    report2 = max_principle_check(res.records, 2.0)
    assert report2.worst_margin < 0.0


def test_max_principle_violation_raises(grid32):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.2)
    res = run(qglab.single_mode(grid32, 2, 0), p, StepperConfig(dt=1e-2, t_end=0.5, diag_every=10))
    records = list(res.records)
    bad = qglab.diagnostics.NormRecord(
        t=records[-1].t + 0.1,
        lp={2.0: 1e3, 3.0: 1e3, 4.0: 1e3, np.inf: 1e3},
        hs={1.0: 1.0, 2.0: 1.0},
        energy=1e6,
        mod_energy=1e6,
        diss_integral=0.0,
        q_inf=2e3,
        ladder=1.0,
    )
    with pytest.raises(Violation) as info:
        max_principle_check(records + [bad], np.inf)
    assert info.value.t == pytest.approx(bad.t)


def test_max_principle_inviscid_cmt(inviscid_cmt_run):
    # truncated inviscid flow overshoots pointwise bounds only within the
    # configured spectral slack; checked on t <= 2 of the reference run
    records = [r for r in inviscid_cmt_run.records if r.t <= 2.0 + 1e-12]
    report = max_principle_check(records, np.inf)
    assert report.worst_margin <= report.slack


def test_max_principle_q2_matches_energy_monotonicity(grid32):
    # with f = 0, the q = 2 principle is exactly nonincreasing energy
    p = ModelParams("dissipative", alpha=0.75, kappa=0.3)
    res = run(random_field(grid32, 8, 2.0, 3), p, StepperConfig(dt=1e-2, t_end=1.0, diag_every=5))
    report = max_principle_check(res.records, 2.0, slack_rel=0.0)
    assert report.worst_margin <= 0.0


def test_energy_balance_single_mode_closed_form(grid32):
    # theta = cos 2x1 decays exactly: balance holds to quadrature accuracy
    p = ModelParams("dissipative", alpha=0.5, kappa=0.1)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, diag_every=10)
    res = run(qglab.single_mode(grid32, 2, 0), p, cfg)
    assert energy_balance_residual(res.records) <= 1e-6


def test_energy_balance_quadrature_order(grid32):
    # doubling the diagnostic sampling rate shrinks the residual ~4x
    theta = random_field(grid32, 8, 2.0, 1)
    p = ModelParams("dissipative", alpha=0.75, kappa=0.3)
    res_coarse = run(theta, p, StepperConfig(dt=1e-3, t_end=0.5, diag_every=50))
    res_fine = run(theta, p, StepperConfig(dt=1e-3, t_end=0.5, diag_every=25))
    ratio = energy_balance_residual(res_coarse.records) / energy_balance_residual(res_fine.records)
    assert 2.5 <= ratio <= 6.0


def test_forced_run_balance_includes_work(grid32):
    forcing = 0.05 * qglab.single_mode(grid32, 0, 1)
    p = ModelParams("dissipative", alpha=0.5, kappa=0.2, forcing=forcing)
    res = run(qglab.single_mode(grid32, 1, 0), p, StepperConfig(dt=1e-3, t_end=0.5, diag_every=10))
    assert energy_balance_residual(res.records) <= 1e-5


def test_inviscid_balance_reduces_to_drift(grid32):
    res = run(qglab.cmt(grid32), ModelParams("inviscid"), StepperConfig(dt=1e-2, t_end=0.3, diag_every=10))
    drift = max(abs(r.energy / res.records[0].energy - 1.0) for r in res.records)
    assert energy_balance_residual(res.records) == pytest.approx(drift, rel=1e-6)


# -- critical monitors ---------------------------------------------------------


def test_critical_monitor_zero_field(grid16):
    zero = qglab.SpectralField(grid16, np.zeros((16, 9), dtype=complex))
    p = ModelParams("dissipative", alpha=0.5, kappa=1.0)
    rep = critical_monitor(zero, p, c0=1.0, sigma=2.0)
    assert rep.q_inf == 0.0
    assert rep.ladder == 1.0
    assert rep.q_small and rep.ladder_small


def test_critical_monitor_cosine_closed_form(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    p = ModelParams("dissipative", alpha=0.5, kappa=10.0)
    sigma = 2.0
    rep = critical_monitor(theta, p, c0=1.0, sigma=sigma)
    assert rep.q_inf == pytest.approx(2.0, abs=1e-12)  # |theta|_inf = |u|_inf = 1
    h = np.pi * np.sqrt(2.0)
    expect = 1.0 + h * math.sqrt(math.log(1.0 + h ** (1.0 / (sigma - 1.0))))
    assert rep.ladder == pytest.approx(expect, rel=1e-12)
    assert rep.q_small  # 2 < kappa / c0 = 10


def test_critical_monitor_scales_linearly(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    p = ModelParams("dissipative", alpha=0.5, kappa=1.0)
    a = critical_monitor(theta, p, c0=1.0)
    b = critical_monitor(4.0 * theta, p, c0=1.0)
    assert b.q_inf == pytest.approx(4.0 * a.q_inf, rel=1e-12)


@pytest.mark.parametrize("c0", [0.0, -1.0, np.inf, np.nan])
def test_critical_monitor_rejects_bad_c0(grid16, c0):
    p = ModelParams("dissipative", alpha=0.5, kappa=1.0)
    with pytest.raises(ValueError, match="c0"):
        critical_monitor(qglab.single_mode(grid16, 1, 0), p, c0=c0)


# -- log-interpolation bound ---------------------------------------------------


def test_log_bound_cosine_ratio(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    sigma = 2.0
    h = np.pi * np.sqrt(2.0)
    expect = 1.0 / (1.0 + h * math.sqrt(math.log(1.0 + h)))
    assert log_bound_ratio(theta, sigma) == pytest.approx(expect, rel=1e-12)
    assert log_bound_ratio(theta, sigma) < 1.0


def test_log_bound_ratio_sign_invariant(grid32):
    f = random_field(grid32, 10, 1.5, 3)
    assert log_bound_ratio(-1.0 * f, 2.0) == pytest.approx(log_bound_ratio(f, 2.0), rel=1e-12)


def test_log_interpolation_constant_reproducible():
    a = log_interpolation_constant(50, sigma=2.0, mode_cap=16, seed=11)
    b = log_interpolation_constant(50, sigma=2.0, mode_cap=16, seed=11)
    assert a == b
    assert 0.0 < a <= 10.0


# -- spectral interpolation (Gagliardo-Nirenberg form) -------------------------


def test_gn_equality_for_single_mode(grid32):
    f = qglab.single_mode(grid32, 2, 1)
    resid = gn_residual(f, s=0.5, alpha=1.0, beta=0.5)
    rhs = sobolev_norm(f, 1.5) ** 0.5 * sobolev_norm(f, 0.5) ** 0.5
    assert abs(resid) <= 1e-12 * rhs


def test_gn_strict_for_two_shells(grid32):
    # equal energy at |k| = 1 and 2 with s=0, alpha=1, beta=1/2:
    # lhs = 2 pi sqrt(c (1 + 2)), rhs = 2 pi (5 c)^(1/4) (2 c)^(1/4) sqrt(c)...
    f = qglab.single_mode(grid32, 1, 0) + qglab.single_mode(grid32, 0, 2)
    lhs = sobolev_norm(f, 0.5)
    rhs = sobolev_norm(f, 1.0) ** 0.5 * sobolev_norm(f, 0.0) ** 0.5
    c = 0.5  # sum |theta_hat|^2 per shell
    assert lhs == pytest.approx(2 * np.pi * np.sqrt(c * 3.0), rel=1e-12)
    assert rhs == pytest.approx(2 * np.pi * (5 * c) ** 0.25 * (2 * c) ** 0.25, rel=1e-12)
    assert gn_residual(f, 0.0, 1.0, 0.5) < -1e-3


def test_gn_parameter_validation(grid16):
    f = qglab.single_mode(grid16, 1, 0)
    with pytest.raises(ValueError):
        gn_residual(f, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        gn_residual(f, 0.0, 0.5, -0.1)


@pytest.mark.parametrize("seed", range(25))
def test_gn_residual_property(grid32, seed):
    rng = np.random.default_rng(seed)
    f = random_field(grid32, 10, rng.uniform(1.0, 3.0), rng.integers(1 << 30))
    s = rng.uniform(0.0, 2.0)
    alpha = rng.uniform(0.2, 1.5)
    beta = alpha * rng.uniform(0.1, 0.9)
    resid = gn_residual(f, s, alpha, beta)
    rhs = sobolev_norm(f, s + alpha) ** (beta / alpha) * sobolev_norm(f, s) ** (1 - beta / alpha)
    assert resid <= 1e-12 * rhs


def test_gn_constant_reproducible_and_nonpositive():
    a = gn_constant(40, mode_cap=12, seed=5)
    assert a == gn_constant(40, mode_cap=12, seed=5)
    assert a <= 1e-12


def test_gn_constant_draw_order():
    # one trial by hand: gamma, the field, then s, alpha and beta / alpha
    rng = np.random.default_rng(3)
    grid = qglab.Grid(32)
    gamma = rng.uniform(1.0, 3.0)
    f = qglab.random_shell_field(grid, 8, gamma, rng)
    s, alpha = rng.uniform(0.0, 2.0), rng.uniform(0.2, 1.5)
    beta = alpha * rng.uniform(0.1, 0.9)
    rhs = sobolev_norm(f, s + alpha) ** (beta / alpha) * sobolev_norm(f, s) ** (1 - beta / alpha)
    assert gn_constant(1, mode_cap=8, seed=3) == gn_residual(f, s, alpha, beta) / rhs


# -- ladder bracket -------------------------------------------------------------


def test_ladder_bracket_zero_field(grid16):
    zero = qglab.SpectralField(grid16, np.zeros((16, 9), dtype=complex))
    assert ladder_bracket(zero, 2.0) == 1.0


@pytest.mark.parametrize("sigma", [1.0, 0.5, np.nan])
def test_ladder_bracket_rejects_sigma_at_most_one(grid16, sigma):
    with pytest.raises(ValueError, match="sigma"):
        ladder_bracket(qglab.single_mode(grid16, 1, 0), sigma)


@pytest.mark.parametrize("trials", [0, -3])
def test_inequality_constants_reject_empty_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        log_interpolation_constant(trials)
    with pytest.raises(ValueError, match="trials"):
        gn_constant(trials)


def test_convex_profile_rejects_unknown_tag():
    with pytest.raises(ValueError, match="bogus"):
        ConvexProfile("bogus")
