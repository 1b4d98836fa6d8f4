import re

import numpy as np
import pytest

import qglab
from qglab import StepperConfig, compare_mu
from qglab.errors import DegenerateFit, ValidationError
from qglab.diagnostics import fit_loglog_slope


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


def test_compare_mu_zero_datum(grid32):
    # every run starts and stays at rest
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    zero = qglab.SpectralField(grid32, np.zeros(grid32.shape, dtype=complex))
    res = compare_mu(zero, 0.5, [1e-1, 1e-2], 0.1, cfg)
    assert np.all(res.err_l2 == 0.0) and np.all(res.err_modified == 0.0)
    assert np.isnan(res.slope_l2) and np.isnan(res.slope_modified)


def test_compare_mu_requires_decreasing_list(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError):
        compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, [1e-3], 0.1, cfg)


@pytest.mark.parametrize("mu_list", [[1e-3], [0.1, 0.1, 0.01]])
def test_compare_mu_names_a_list_without_two_distinct_values(grid32, mu_list):
    # [0.1, 0.1, 0.01] holds two distinct values, but not distinct ones only
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError, match=re.escape(f"at least two values, all distinct, got {mu_list}")):
        compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, mu_list, 0.1, cfg)


def test_compare_mu_requires_whole_number_of_steps(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError):
        compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, [1e-2, 1e-3], 0.105, cfg)


def test_compare_mu_requires_t_end_of_cfg(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError):
        compare_mu(qglab.single_mode(grid32, 1, 0), 0.5, [1e-2, 1e-3], 0.2, cfg)


@pytest.mark.parametrize("alpha, mu_list", [(0.5, [0.1, -0.01]), (0.5, [0.1, np.nan]), (0.3, [0.1, 0.01])])
def test_compare_mu_rejects_alpha_and_mu_before_any_run(grid32, monkeypatch, alpha, mu_list):
    # each of these once raised only after the inviscid references had marched
    runs = []
    march = qglab.experiments.run
    monkeypatch.setattr(qglab.experiments, "run", lambda *args: runs.append(args) or march(*args))
    cfg = StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")
    with pytest.raises(ValidationError):
        compare_mu(qglab.cmt(grid32), alpha, mu_list, 0.1, cfg)
    assert runs == []


def test_compare_mu_cmt_slopes(grid64):
    cfg = StepperConfig(dt=2e-3, t_end=0.5, scheme="rk4")
    res = compare_mu(qglab.cmt(grid64), 0.5, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], 0.5, cfg)
    assert np.all(np.diff(res.err_l2) < 0.0)  # monotone in mu
    assert np.all(np.diff(res.err_modified) < 0.0)
    assert 0.9 <= res.slope_l2 <= 2.1
    assert 0.9 <= res.slope_modified <= 2.1
    assert res.reference_self_error <= 0.1 * res.err_l2.min()
