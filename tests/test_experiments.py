import numpy as np
import pytest

import qglab
from qglab import ModelParams, StepperConfig, compare_mu, run
from qglab.errors import DegenerateFit, ValidationError
from qglab.experiments import (
    blowup_watch,
    envelope_growth_constant,
    fit_loglog_slope,
    z_ode_constant,
)

from conftest import random_field


def test_fit_loglog_slope_recovers_power_law():
    x = np.array([0.25, 0.125, 0.0625, 0.03125])
    y = 3.0 * x**1.7
    assert fit_loglog_slope(x, y) == pytest.approx(1.7, abs=1e-12)


def test_fit_loglog_slope_drops_floor_points():
    x = np.array([0.25, 0.125, 0.0625, 0.03125])
    y = 3.0 * x**2.0
    y[-1] = 1e-15  # at the round-off floor: dropped
    assert fit_loglog_slope(x, y) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DegenerateFit):
        fit_loglog_slope(x, np.full_like(y, 1e-15))


@pytest.mark.parametrize(
    "x, y",
    [
        ([0.25, 0.125, 0.0625], [1.0, np.nan, 0.1]),
        ([0.25, 0.125, 0.0625], [1.0, np.inf, 0.1]),
        ([0.25, 0.0, 0.0625], [1.0, 0.5, 0.1]),
        ([0.25, -0.125, 0.0625], [1.0, 0.5, 0.1]),
        ([0.25, np.inf, 0.0625], [1.0, 0.5, 0.1]),
        ([0.25, np.nan, 0.0625], [1.0, 0.5, 0.1]),
    ],
)
def test_fit_loglog_slope_rejects_bad_points(x, y):
    with pytest.raises(ValueError):
        fit_loglog_slope(x, y)


def test_compare_mu_steady_datum(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.5, scheme="rk4")
    res = compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, [1e-1, 1e-2, 1e-3], 0.5, cfg)
    assert np.all(res.err_l2 <= 1e-10)  # common steady state
    assert np.isnan(res.slope_l2)  # nothing above the floor to fit


def test_compare_mu_requires_decreasing_list(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError):
        compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, [1e-3], 0.1, cfg)


def test_compare_mu_requires_whole_number_of_steps(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError):
        compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, [1e-2, 1e-3], 0.105, cfg)


def test_compare_mu_requires_t_end_of_cfg(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError):
        compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, [1e-2, 1e-3], 0.2, cfg)


def test_compare_mu_cmt_slopes(grid64):
    cfg = StepperConfig(dt=2e-3, t_end=0.5, scheme="rk4")
    res = compare_mu(qglab.cmt(grid64), 0.5, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], 0.5, cfg)
    assert np.all(np.diff(res.err_l2) < 0.0)  # monotone in mu
    assert np.all(np.diff(res.err_modified) < 0.0)
    assert 0.9 <= res.slope_l2 <= 2.1
    assert 0.9 <= res.slope_modified <= 2.1
    assert res.reference_self_error <= 0.1 * res.err_l2.min()


def test_blowup_watch_steady_linear_growth(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    res = run(theta, p, StepperConfig(dt=1e-2, t_end=2.0, scheme="rk4", diag_every=20))
    watch = blowup_watch(res.records, s=2.0, m_threshold=10.0)
    total = watch.theta_inf_integral + watch.u_inf_integral
    # |theta_0|_inf + |u_0|_inf = 2 for cos x1: the sum grows with slope 2
    slope = np.polyfit(watch.times, total, 1)[0]
    assert slope == pytest.approx(2.0, rel=1e-6)
    assert np.all(watch.extension_guaranteed())


def test_blowup_watch_integrals_nondecreasing(grid32):
    theta = random_field(grid32, 8, 2.0, 5)
    p = ModelParams("regularized", alpha=0.75, mu=0.5)
    res = run(theta, p, StepperConfig(dt=2e-3, t_end=1.0, scheme="rk4", diag_every=10))
    watch = blowup_watch(res.records, s=2.0)
    assert np.all(np.diff(watch.theta_inf_integral) >= 0.0)
    assert np.all(np.diff(watch.u_inf_integral) >= 0.0)
    with pytest.raises(ValidationError):
        watch.extension_guaranteed()


def test_blowup_watch_envelope_and_z_ode(grid64):
    # alpha = 3/4 regularized run stays bounded; the recorded series must be
    # consistent with the exp(C t / sqrt(mu)) envelope and the z-ODE bound
    mu, s, alpha = 1.0, 2.0, 0.75
    theta = qglab.cmt(grid64)
    p = ModelParams("regularized", alpha=alpha, mu=mu)
    cfg = StepperConfig(dt=1e-3, t_end=4.0, scheme="rk4", diag_every=40, snapshot_every=40, s=s)
    res = run(theta, p, cfg)
    watch = blowup_watch(res.records, s=s)
    assert watch.hs_history.max() <= 10.0 * watch.hs_history[0]  # no blow-up

    times = np.array([t for t, _ in res.samples])
    z = np.array(
        [
            qglab.sobolev_norm(f, s - alpha) ** 2 + mu * qglab.sobolev_norm(f, s) ** 2
            for _, f in res.samples
        ]
    )
    c_env = envelope_growth_constant(times, z, mu)
    assert np.isfinite(c_env) and c_env >= 0.0
    # the pointwise-tight envelope constant is finite and dominates by construction
    with np.errstate(divide="ignore"):
        tight = np.sqrt(mu) * np.max(np.log(z[1:] / z[0]) / times[1:])
    assert np.isfinite(tight)
    assert np.all(z <= z[0] * np.exp(max(tight, 0.0) / np.sqrt(mu) * times) * (1 + 1e-9))
    c_ode = z_ode_constant(times, z)
    assert np.isfinite(c_ode)
    # reproducible: the fitted constants are deterministic for a fixed build
    assert c_ode == z_ode_constant(times, z)
