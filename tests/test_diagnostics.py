import dataclasses
import math
import warnings

import numpy as np
import pytest

import qglab
from qglab import ModelParams, StepperConfig, run
from qglab.diagnostics import (
    energy_balance_residual,
    gn_constant,
    gn_residual,
    ladder_bracket,
    log_interpolation_constant,
    lp_norm,
    max_principle_check,
    sobolev_norm,
)
from qglab.errors import ValidationError, Violation
from qglab.spectral import inverse_transform

from conftest import random_field


# -- Lebesgue and Sobolev norms ---------------------------------------------


def test_lp_norm_cosine(grid64):
    phys = inverse_transform(qglab.single_mode(grid64, 1, 0))
    assert lp_norm(phys, 2.0) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-12)
    assert lp_norm(phys, np.inf) == pytest.approx(1.0, abs=1e-14)
    # int_0^2pi |cos|^3 = 8/3, so |f|_3 = (2 pi 8/3)^(1/3)
    assert lp_norm(phys, 3.0) == pytest.approx((2 * np.pi * 8 / 3) ** (1 / 3), rel=1e-6)


@pytest.mark.parametrize("exponent", [300, -300, 520, -560])
def test_lp_norm_past_the_double_range_of_its_power(grid32, exponent):
    # |f|^4 of samples near 2^(+-300) overflows or underflows to 0: the
    # largest sample is factored out instead, with no warning.  The 1/q
    # power is float(1/q), which leaves q = 3 1.2e-14 off the scaled norm.
    # The H^s norms do the same with |f_hat|^2, which leaves the double
    # range near 2^520 and 2^-560; there the factored sum is a different
    # rounding of the same terms (measured exact for this field), and
    # Parseval ties ||f||_0 to |f|_2
    theta = random_field(grid32, 8, 1.5, 3)
    f = inverse_transform(theta)
    a = 2.0**exponent
    scaled = qglab.PhysicalField(grid32, f.values * a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (3.0, 4.0, 8.0):
            assert lp_norm(scaled, q) == pytest.approx(a * lp_norm(f, q), rel=1e-13, abs=0.0)
        for s in (0.0, 1.0, 2.0):
            assert sobolev_norm(theta * a, s) == pytest.approx(a * sobolev_norm(theta, s), rel=1e-15, abs=0.0)
        assert sobolev_norm(theta * a, 0.0) == pytest.approx(lp_norm(scaled, 2.0), rel=1e-15, abs=0.0)
    assert lp_norm(qglab.PhysicalField(grid32, np.zeros((32, 32))), 4.0) == 0.0
    assert sobolev_norm(theta * 0.0, 0.0) == 0.0


def test_lp_norm_rejects_small_exponent(grid16):
    phys = inverse_transform(qglab.single_mode(grid16, 1, 0))
    for q in (0.5, math.nan):
        with pytest.raises(ValueError):
            lp_norm(phys, q)


def test_sobolev_norm_single_modes(grid32):
    f = qglab.single_mode(grid32, 1, 0)
    for s in (-0.5, 0.0, 1.0, 2.5):
        assert sobolev_norm(f, s) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-12)
    g = qglab.single_mode(grid32, 2, 0)
    assert sobolev_norm(g, 1.0) == pytest.approx(2.0 * np.pi * np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_sobolev_norm_rejects_non_finite_index(grid16, s):
    with pytest.raises(ValueError, match="finite"):
        sobolev_norm(qglab.single_mode(grid16, 1, 0), s)


def test_sobolev_norm_zero_field(grid16):
    zero = qglab.SpectralField(grid16, np.zeros((16, 9), dtype=complex))
    assert sobolev_norm(zero, 1.5) == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_sobolev_norm_ignores_a_large_mean(grid32, s):
    # a mean of 1e9 has |c|^2 = 1e18, which absorbed every other term of a
    # sum that subtracted it again afterwards; weighted by 0 it is never added
    f = qglab.single_mode(grid32, 1, 0)
    c = f.coeffs.copy()
    c[0, 0] = 1e9
    assert sobolev_norm(qglab.SpectralField(grid32, c), s) == sobolev_norm(f, s)
    assert sobolev_norm(f, s) == pytest.approx(2.0 * np.pi * np.sqrt(0.5), rel=1e-12)


def test_sobolev_matches_l2(grid64):
    f = random_field(grid64, 20, 1.5, 8)
    phys = inverse_transform(f)
    assert sobolev_norm(f, 0.0) == pytest.approx(lp_norm(phys, 2.0), rel=1e-10)


# -- maximum principle and energy balance ------------------------------------


def test_max_principle_pure_decay(grid32):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.2)
    res = run(qglab.single_mode(grid32, 2, 0), p, StepperConfig(dt=1e-2, t_end=1.0, diag_every=10))
    report = max_principle_check(res.records, np.inf)
    assert report.worst_margin < 0.0
    report2 = max_principle_check(res.records, 2.0)
    assert report2.worst_margin < 0.0


@pytest.mark.parametrize("q", [5.0, 1])
def test_max_principle_unrecorded_exponent_is_value_error(grid32, q):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.2)
    res = run(qglab.single_mode(grid32, 2, 0), p, StepperConfig(dt=1e-2, t_end=0.1, diag_every=10))
    with pytest.raises(ValueError, match=r"recorded exponents: \[2\.0, 3\.0, 4\.0, inf\]"):
        max_principle_check(res.records, q)


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
    for kwargs in ({"forcing_lq": math.nan}, {"forcing_lq": math.inf}, {"slack_rel": math.nan}):
        with pytest.raises(ValidationError):  # a bound of NaN or inf would let the series pass
            max_principle_check(records + [bad], np.inf, **kwargs)


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


def test_regularized_balance_reduces_to_modified_energy_drift(grid32):
    # the conserved quantity is E_mu = |theta|_2^2 + mu ||theta||_alpha^2, whose
    # drift here is time error (~5e-9), far above round-off and far below the
    # plain energy's drift (~3e-4)
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    cfg = StepperConfig(dt=0.04, t_end=0.4, scheme="rk4", diag_every=5)
    res = run(random_field(grid32, 10, 1.5, 3), p, cfg)
    drift = max(abs(r.mod_energy / res.records[0].mod_energy - 1.0) for r in res.records)
    assert energy_balance_residual(res.records) == pytest.approx(drift, rel=1e-6)


def _zero(grid):
    return qglab.SpectralField(grid, np.zeros(grid.shape, dtype=complex))


@pytest.mark.parametrize(
    "p",
    [
        ModelParams("inviscid"),
        ModelParams("dissipative", alpha=0.5, kappa=0.2),
        ModelParams("regularized", alpha=0.5, mu=1.0),
    ],
    ids=["inviscid", "dissipative", "regularized"],
)
def test_run_from_rest_balances_exactly(grid16, p):
    # E_mu(0) = 0: the residual is the absolute defect, and a state at rest stays there
    res = run(_zero(grid16), p, StepperConfig(dt=1e-2, t_end=0.1, diag_every=2))
    assert [r.balance_residual for r in res.records] == [0.0] * 6
    assert energy_balance_residual(res.records) == 0.0


def test_forced_spin_up_from_rest_quadrature_order(grid32):
    # from rest the defect is absolute; halving the sampling step shrinks it ~4x
    p = ModelParams("dissipative", alpha=0.5, kappa=0.2, forcing=0.05 * qglab.single_mode(grid32, 0, 1))
    coarse, fine = (
        run(_zero(grid32), p, StepperConfig(dt=1e-3, t_end=0.5, diag_every=every)) for every in (50, 25)
    )
    assert fine.records[-1].energy > 0.0  # the forcing spins the state up
    ratio = energy_balance_residual(coarse.records) / energy_balance_residual(fine.records)
    assert 2.5 <= ratio <= 6.0


# -- log-interpolation bound ---------------------------------------------------


def test_log_bound_cosine_ratio(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    sigma = 2.0
    h = np.pi * np.sqrt(2.0)
    expect = 1.0 / (1.0 + h * math.sqrt(math.log(1.0 + h)))
    ratio = lp_norm(inverse_transform(theta), np.inf) / ladder_bracket(theta, sigma)
    assert ratio == pytest.approx(expect, rel=1e-12)
    assert ratio < 1.0


def test_log_bound_ratio_sign_invariant(grid32):
    f = random_field(grid32, 10, 1.5, 3)
    plus, minus = (lp_norm(inverse_transform(g), np.inf) / ladder_bracket(g, 2.0) for g in (f, -1.0 * f))
    assert minus == pytest.approx(plus, rel=1e-12)


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


@pytest.mark.parametrize(
    "p, symbols",
    [
        (ModelParams("inviscid"), 2),
        (ModelParams("dissipative", alpha=0.5, kappa=0.1), 3),
        (ModelParams("regularized", alpha=0.5, mu=1.0), 3),
    ],
    ids=["inviscid", "dissipative", "regularized"],
)
def test_make_record_forms_one_symbol_per_distinct_index(grid32, monkeypatch, p, symbols):
    # at s = sigma = 2 the indices are 1, 2 and alpha; the norms and the ladder
    # keep the bits of the public functions that evaluate them one at a time
    theta = random_field(grid32, 10, 2.0, 7)
    indices = (1.0, 2.0) if p.model == "inviscid" else (1.0, 2.0, p.alpha)
    want_hs = {index: sobolev_norm(theta, index) for index in indices}
    want_ladder = ladder_bracket(theta, 2.0)
    powers = []
    symbol = qglab.Grid.sqrt_laplacian

    def counted(grid, power):
        powers.append(power)
        return symbol(grid, power)

    monkeypatch.setattr(qglab.Grid, "sqrt_laplacian", counted)
    record = qglab.diagnostics.make_record(theta, 0.0, p)
    assert len(powers) == len(set(powers)) == symbols
    assert record.hs == want_hs
    assert record.ladder == want_ladder


@pytest.mark.parametrize(
    "p",
    [
        ModelParams("inviscid"),
        ModelParams("dissipative", alpha=0.5, kappa=0.1),
        ModelParams("regularized", alpha=0.5, mu=1.0),
    ],
    ids=["inviscid", "dissipative", "regularized"],
)
def test_make_record_past_the_double_range_of_the_squares(grid32, p):
    # |theta|_2 near 2^520 is finite and its square is not: the energies and
    # the dissipation rates are products, inf, where a float's ** 2 raised
    # OverflowError
    theta = random_field(grid32, 8, 1.5, 3) * 2.0**520
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = qglab.diagnostics.make_record(theta, 0.0, p)
        later = qglab.diagnostics.make_record(theta, 0.1, p, prev=first)
    assert math.isfinite(first.lp[2.0]) and all(math.isfinite(h) for h in first.hs.values())
    assert first.energy == first.mod_energy == math.inf
    assert later.diss_integral == (math.inf if p.model == "dissipative" else 0.0)


@pytest.mark.parametrize("trials", [0, -3])
def test_inequality_constants_reject_empty_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        log_interpolation_constant(trials)
    with pytest.raises(ValueError, match="trials"):
        gn_constant(trials)


# -- invalid input -------------------------------------------------------------


def _max_principle_q2(f, **kwargs):
    return max_principle_check([qglab.diagnostics.make_record(f, 0.0, ModelParams("inviscid"))], 2.0, **kwargs)


def _save_snapshot(f, path, **fields):
    snap = dataclasses.replace(qglab.Snapshot.from_state(0.0, f, ModelParams("inviscid")), **fields)
    qglab.save_snapshot(snap, str(path / "s.qgw"))


def _read_series(path, text):
    (path / "series.csv").write_text(qglab.io.CSV_HEADER + "\n" + text)
    return qglab.io.read_series(str(path / "series.csv"))


_INVALID_INPUTS = {
    "lp_norm q < 1": lambda f, path: lp_norm(inverse_transform(f), 0.5),
    "sobolev_norm s = nan": lambda f, path: sobolev_norm(f, math.nan),
    "ladder_bracket sigma = 1": lambda f, path: ladder_bracket(f, 1.0),
    "max_principle_check empty": lambda f, path: max_principle_check([], 2.0),
    "max_principle_check q not recorded": lambda f, path: max_principle_check(
        [qglab.diagnostics.make_record(f, 0.0, ModelParams("inviscid"))], 1.5),
    "max_principle_check forcing_lq = nan": lambda f, path: _max_principle_q2(f, forcing_lq=math.nan),
    "max_principle_check forcing_lq = inf": lambda f, path: _max_principle_q2(f, forcing_lq=math.inf),
    "max_principle_check forcing_lq < 0": lambda f, path: _max_principle_q2(f, forcing_lq=-1.0),
    "max_principle_check slack_rel = nan": lambda f, path: _max_principle_q2(f, slack_rel=math.nan),
    "max_principle_check slack_rel = inf": lambda f, path: _max_principle_q2(f, slack_rel=math.inf),
    "max_principle_check slack_rel < 0": lambda f, path: _max_principle_q2(f, slack_rel=-1e-3),
    "energy_balance_residual empty": lambda f, path: energy_balance_residual([]),
    "log_interpolation_constant trials = 0": lambda f, path: log_interpolation_constant(0),
    "gn_residual beta = alpha": lambda f, path: gn_residual(f, 0.0, 0.5, 0.5),
    "flux_scan empty eps list": lambda f, path: qglab.flux_scan(f, []),
    "compare_mu mu repeated": lambda f, path: qglab.compare_mu(
        f, 0.5, [0.1, 0.1, 0.01], 0.1, StepperConfig(dt=1e-2, t_end=0.1, scheme="rk4")),
    "StepperConfig diag_every = nan": lambda f, path: StepperConfig(dt=1e-2, t_end=0.1, diag_every=math.nan),
    "StepperConfig diag_every = 2.5": lambda f, path: StepperConfig(dt=1e-2, t_end=0.1, diag_every=2.5),
    "StepperConfig snapshot_every = nan": lambda f, path: StepperConfig(dt=1e-2, t_end=0.1, snapshot_every=math.nan),
    "StepperConfig snapshot_every = 2.5": lambda f, path: StepperConfig(dt=1e-2, t_end=0.1, snapshot_every=2.5),
    "PhysicalField shape": lambda f, path: qglab.PhysicalField(f.grid, np.zeros((3, 3))),
    "PhysicalField nan": lambda f, path: qglab.PhysicalField(f.grid, np.full((f.grid.n,) * 2, np.nan)),
    "SpectralField shape": lambda f, path: qglab.SpectralField(f.grid, np.zeros((3, 3), dtype=complex)),
    "Mollifier eps = 0": lambda f, path: qglab.Mollifier(0.0),
    "Mollifier profile": lambda f, path: qglab.Mollifier(0.1, "box"),
    "pad_spectrum m < n": lambda f, path: qglab.pad_spectrum(f, f.grid.n - 2),
    "fit_loglog_slope x < 0": lambda f, path: qglab.fit_loglog_slope([1.0, -1.0], [1.0, 2.0]),
    "fit_loglog_slope lengths differ": lambda f, path: qglab.fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0]),
    "fit_loglog_slope x 2-D": lambda f, path: qglab.fit_loglog_slope([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
    "write_series empty": lambda f, path: qglab.write_series(str(path / "empty.csv"), [], s=2.0),
    "write_series s not recorded": lambda f, path: qglab.write_series(
        str(path / "series.csv"), [qglab.diagnostics.make_record(f, 0.0, ModelParams("inviscid"))], s=1.5),
    "read_series no data rows": lambda f, path: _read_series(path, ""),
    "read_series row field count": lambda f, path: _read_series(path, ",".join(["1.0"] * 12) + "\n"),
    "save_snapshot model unknown": lambda f, path: _save_snapshot(f, path, model="foo"),
    "save_snapshot t = nan": lambda f, path: _save_snapshot(f, path, t=math.nan),
    "save_snapshot alpha = inf": lambda f, path: _save_snapshot(f, path, alpha=math.inf),
    "save_snapshot kappa = nan": lambda f, path: _save_snapshot(f, path, kappa=math.nan),
    "save_snapshot mu = -inf": lambda f, path: _save_snapshot(f, path, mu=-math.inf),
    "random preset kmax = nan": lambda f, path: qglab.from_init_string(f.grid, "random:nan,1.5"),
    "random preset kmax = 0": lambda f, path: qglab.from_init_string(f.grid, "random:0,1.5"),
    "random preset kmax < 0": lambda f, path: qglab.from_init_string(f.grid, "random:-3,1.5"),
    "random preset gamma = inf": lambda f, path: qglab.from_init_string(f.grid, "random:4,inf"),
    "random preset seed < 0": lambda f, path: qglab.from_init_string(f.grid, "random:4,1.5", -1),
    "random_shell_field seed not integral": lambda f, path: qglab.random_shell_field(f.grid, 4, 1.5, 1.5),
    "single_mode k1 = 1.5": lambda f, path: qglab.single_mode(f.grid, 1.5, 0),
}


@pytest.mark.parametrize("call", _INVALID_INPUTS.values(), ids=_INVALID_INPUTS.keys())
def test_invalid_input_raises_validation_error(grid16, tmp_path, call):
    # one type for invalid input, which is also a ValueError
    with pytest.raises(ValidationError) as info:
        call(qglab.single_mode(grid16, 1, 0), tmp_path)
    assert isinstance(info.value, ValueError)
