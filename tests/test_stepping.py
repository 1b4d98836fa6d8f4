import dataclasses

import numpy as np
import pytest

import qglab
from qglab import ModelParams, StepperConfig, picard_solve, run, step
from qglab.errors import NoContraction, UnstableStep, ValidationError
from qglab.models import dissipation_symbol, rhs
from qglab.stepping import BLOWUP_SENTINEL, continue_solution, cumulative_simpson, etd_rk4_step, rk4_step

from conftest import random_field


def test_config_validation():
    with pytest.raises(ValidationError):
        StepperConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValidationError):
        StepperConfig(dt=1e-3, t_end=1.0, scheme="euler")
    with pytest.raises(ValidationError):
        StepperConfig(dt=1e-3, t_end=1.0, diag_every=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            StepperConfig(dt=bad, t_end=1.0)
        with pytest.raises(ValidationError):
            StepperConfig(dt=1e-3, t_end=bad)
        with pytest.raises(ValidationError):
            StepperConfig(dt=1e-3, t_end=1.0, s=bad)
        with pytest.raises(ValidationError):
            StepperConfig(dt=1e-3, t_end=1.0, sigma=bad)
    for sigma in (1.0, 0.5):  # the ladder bracket divides by sigma - 1 at every record
        with pytest.raises(ValidationError, match="sigma must exceed 1"):
            StepperConfig(dt=0.01, t_end=0.02, sigma=sigma)


@pytest.mark.parametrize(
    "model, kwargs, scheme, t_end, dts",
    [
        ("inviscid", {}, "rk4", 0.4, (0.04, 0.02, 0.01, 0.005)),
        ("dissipative", dict(kappa=0.1, alpha=0.5), "etd-rk4", 0.2, (0.02, 0.01, 0.005, 0.0025)),
    ],
)
def test_rk4_observed_order(model, kwargs, scheme, t_end, dts):
    # log2(e(dt) / e(dt/2)) with e the L2 distance from the finest run
    theta = qglab.cmt(qglab.Grid(32))
    p = ModelParams(model, **kwargs)

    def final(dt):
        cfg = StepperConfig(dt=dt, t_end=t_end, scheme=scheme, diag_every=round(t_end / dt))
        return run(theta, p, cfg).final

    *coarse, reference = (final(dt) for dt in dts)
    errors = [qglab.sobolev_norm(f - reference, 0.0) for f in coarse]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders >= 3.7) & (orders <= 4.3)), orders


def test_spectral_convergence_under_n_doubling():
    # inviscid cmt at one dt: the L2 distance from an n = 128 run, padded,
    # falls by at least 1e3 per doubling of n until it reaches round-off
    def final(n):
        cfg = StepperConfig(dt=2.5e-3, t_end=0.5, scheme="rk4", diag_every=200)
        return run(qglab.cmt(qglab.Grid(n)), ModelParams("inviscid"), cfg).final

    reference = final(128)
    errors = [qglab.sobolev_norm(qglab.pad_spectrum(final(n), 128) - reference, 0.0) for n in (16, 32, 64)]
    gains = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(gains >= 1e3), errors


def test_config_requires_whole_number_of_steps():
    # t_end = 1.0 is 3.33 steps of 0.3: rejected rather than stopping at t = 0.9
    with pytest.raises(ValidationError):
        StepperConfig(dt=0.3, t_end=1.0)
    with pytest.raises(ValidationError):
        StepperConfig(dt=1e-2, t_end=0.005)
    with pytest.raises(ValidationError):  # t_end / dt overflows to inf
        StepperConfig(dt=1e-320, t_end=1.0)
    # quotients a few ulps off an integer are whole
    assert StepperConfig(dt=0.01, t_end=0.3).nsteps == 30
    assert StepperConfig(dt=0.001, t_end=0.05).nsteps == 50
    assert StepperConfig(dt=0.1, t_end=0.7).nsteps == 7
    rng = np.random.default_rng(0)
    for T, n in zip(10.0 ** rng.uniform(-4, 3, 200), rng.integers(1, 100000, 200)):
        assert StepperConfig(dt=T / n, t_end=T).nsteps == n


def test_configs_are_frozen():
    # a field changed after validation would bypass the whole-step check
    cfg = StepperConfig(dt=0.1, t_end=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = 0.3
    p = ModelParams("dissipative", kappa=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.kappa = 0.0
    assert dataclasses.replace(cfg, dt=0.05).nsteps == 20
    with pytest.raises(ValidationError):
        dataclasses.replace(cfg, dt=0.3)
    with pytest.raises(ValidationError):
        dataclasses.replace(p, kappa=0.0)


def test_step_dissipative_single_mode_exact(grid32):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.1)
    theta = qglab.single_mode(grid32, 2, 0)
    for dt in (1e-3, 0.05, 0.7):
        out = step(theta, p, dt)
        expect = np.exp(-0.2 * dt) * np.cos(2 * grid32.x1)
        got = qglab.inverse_transform(out).values
        assert np.max(np.abs(got - expect)) < 1e-12


def test_step_steady_states(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    out = step(theta, ModelParams("inviscid"), 0.01)
    assert np.max(np.abs(out.coeffs - theta.coeffs)) < 1e-14
    out = step(theta, ModelParams("regularized", alpha=0.5, mu=1.0), 0.01)
    assert np.max(np.abs(out.coeffs - theta.coeffs)) < 1e-14


@pytest.mark.parametrize(
    "model, kwargs, forced",
    [
        ("inviscid", {}, False),
        ("dissipative", {"kappa": 0.1}, False),
        ("regularized", {"alpha": 0.75, "mu": 0.3}, False),
        ("dissipative", {"alpha": 0.7, "kappa": 0.05}, True),
    ],
)
def test_step_rk4_is_rk4_of_model_rhs(grid32, model, kwargs, forced):
    # the integrator and models.rhs evaluate the same right-hand side
    forcing = random_field(grid32, 6, 2.0, 9) if forced else None
    p = ModelParams(model, forcing=forcing, **kwargs)
    theta = random_field(grid32, 10, 2.0, 4)
    dt = 1e-2
    got = step(theta, p, dt, scheme="rk4").coeffs
    want = rk4_step(theta.coeffs, lambda c: rhs(qglab.SpectralField(grid32, c), p).coeffs, dt)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "p", [ModelParams("inviscid"), ModelParams("regularized", alpha=0.5, mu=1.0)]
)
def test_schemes_coincide_without_linear_part(grid32, p):
    theta = random_field(grid32, 10, 2.0, 6)
    a = step(theta, p, 1e-2, scheme="etd-rk4")
    b = step(theta, p, 1e-2, scheme="rk4")
    assert np.array_equal(a.coeffs, b.coeffs)


def test_step_unstable_past_sentinel(grid16):
    # a steady single mode whose coefficients already exceed the sentinel
    theta = 1e13 * qglab.single_mode(grid16, 1, 0)
    with pytest.raises(UnstableStep) as info:
        step(theta, ModelParams("inviscid"), 0.01)
    assert info.value.t == 0.01
    assert info.value.max_coeff > BLOWUP_SENTINEL


def test_etd_linear_exactness(grid32):
    # with the nonlinear part disabled, the dissipative evolution matches
    # exp(-kappa |k|^(2 alpha) t) per mode after many steps
    kappa, alpha, dt, nsteps = 0.4, 0.75, 1e-3, 1000
    lin = -dissipation_symbol(grid32, kappa, alpha)
    eh, ef = np.exp(0.5 * dt * lin), np.exp(dt * lin)
    zero = lambda c: 0.0 * c
    theta = random_field(grid32, 10, 1.5, 0)
    c = theta.coeffs.copy()
    for _ in range(nsteps):
        c = etd_rk4_step(c, eh, ef, zero, dt)
    expect = np.exp(lin * dt * nsteps) * theta.coeffs
    assert np.max(np.abs(c - expect)) <= 1e-12 * np.max(np.abs(theta.coeffs))


def test_unstable_step_raises(grid32):
    theta = 1e3 * qglab.cmt(grid32)
    cfg = StepperConfig(dt=50.0, t_end=500.0, scheme="rk4", diag_every=1)
    with pytest.raises(UnstableStep) as info:
        run(theta, ModelParams("inviscid"), cfg)
    assert info.value.t > 0.0


def test_run_deterministic(grid32):
    theta = random_field(grid32, 10, 2.0, 5)
    p = ModelParams("dissipative", alpha=0.5, kappa=0.05)
    cfg = StepperConfig(dt=1e-2, t_end=0.3, diag_every=10)
    a = run(theta, p, cfg)
    b = run(theta, p, cfg)
    assert np.array_equal(a.final.coeffs, b.final.coeffs)
    assert a.records[-1].energy == b.records[-1].energy


def test_run_inviscid_conservation(grid64):
    # |theta(1)|_2 / |theta_0|_2 within 1e-6 of 1 on the cmt datum
    cfg = StepperConfig(dt=1e-3, t_end=1.0, scheme="rk4", diag_every=100)
    res = run(qglab.cmt(grid64), ModelParams("inviscid"), cfg)
    ratio = res.records[-1].lp[2.0] / res.records[0].lp[2.0]
    assert abs(ratio - 1.0) <= 1e-6


def test_run_dissipative_energy_monotone(grid64):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.1)
    cfg = StepperConfig(dt=1e-3, t_end=0.5, diag_every=25)
    res = run(qglab.cmt(grid64), p, cfg)
    l2 = [r.lp[2.0] for r in res.records]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(l2, l2[1:]))


def test_run_regularized_modified_energy(grid64):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, scheme="rk4", diag_every=100)
    res = run(qglab.cmt(grid64), p, cfg)
    me = [r.mod_energy for r in res.records]
    assert max(abs(v / me[0] - 1.0) for v in me) <= 1e-6


def test_run_records_final_time(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.25, diag_every=7)
    res = run(qglab.single_mode(grid32, 1, 0), ModelParams("inviscid"), cfg)
    assert res.records[-1].t == pytest.approx(0.25)


def test_cumulative_simpson_exact_on_cubics():
    h = 0.1
    t = np.arange(11) * h
    vals = (3 * t**3 - t**2 + 2 * t - 5).reshape(-1, 1, 1)
    exact = (0.75 * t**4 - t**3 / 3 + t**2 - 5 * t).reshape(-1, 1, 1)
    out = cumulative_simpson(vals, h)
    assert np.max(np.abs(out - exact)) < 1e-12


def test_picard_requires_regularized_and_s(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    with pytest.raises(ValidationError):
        picard_solve(theta, ModelParams("inviscid"), s=2.0)
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    with pytest.raises(ValidationError):
        picard_solve(theta, p, s=0.5)
    with pytest.raises(ValidationError):
        picard_solve(theta, p, s=2.0, nodes=11)


_BAD_PICARD_CONTROLS = [dict(tol=np.nan), dict(tol=0.0), dict(tol=-1e-9), dict(tol=np.inf), dict(max_iter=0)]
_BAD_TIMES = [np.nan, 0.0, -1.0, np.inf]


@pytest.mark.parametrize(
    "solver, kwargs",
    [("picard_solve", kw) for kw in _BAD_PICARD_CONTROLS + [dict(t_max=t) for t in _BAD_TIMES]]
    + [("continue_solution", kw) for kw in _BAD_PICARD_CONTROLS + [dict(horizon=t) for t in _BAD_TIMES]],
    ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()),
)
def test_picard_rejects_bad_controls(grid16, solver, kwargs):
    # an infinite horizon would never end on a steady datum
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.single_mode(grid16, 1, 0)
    with pytest.raises(ValidationError):
        if solver == "picard_solve":
            picard_solve(theta, p, s=2.0, **kwargs)
        else:
            continue_solution(theta, p, s=2.0, **{"horizon": 0.5, **kwargs})


def test_picard_steady_datum_converges_immediately(grid32):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    traj, cert = picard_solve(qglab.single_mode(grid32, 1, 0), p, s=2.0)
    assert cert.converged
    assert cert.iterations == 1
    assert cert.T == pytest.approx(p.mu / (4.0 * cert.R))


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_picard_contraction_certificate(grid64, alpha):
    p = ModelParams("regularized", alpha=alpha, mu=1.0)
    traj, cert = picard_solve(qglab.cmt(grid64), p, s=2.0, tol=1e-9)
    assert cert.converged
    assert cert.nodes >= 33
    assert cert.ratios and all(r <= 0.55 for r in cert.ratios)


def test_picard_cross_validates_against_run(grid64):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    traj, cert = picard_solve(qglab.cmt(grid64), p, s=2.0, tol=1e-10)
    nsteps = (cert.nodes - 1) * 4
    cfg = StepperConfig(
        dt=cert.T / nsteps, t_end=cert.T, scheme="rk4", diag_every=nsteps, snapshot_every=4
    )
    res = run(qglab.cmt(grid64), p, cfg)
    assert len(res.samples) == len(traj.states)
    sup = max(
        qglab.sobolev_norm(state - ps, 2.0)
        for (_, state), ps in zip(res.samples, traj.states)
    )
    assert sup <= 1e-4


def test_continue_solution_steady_reaches_horizon(grid16):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    sol = continue_solution(qglab.single_mode(grid16, 1, 0), p, s=2.0, horizon=10.0)
    assert sol.times[-1] == pytest.approx(10.0, abs=1e-9)
    assert all(c.converged for c in sol.certificates)


def test_continue_solution_single_segment_when_horizon_short(grid16):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.single_mode(grid16, 1, 0)
    _, cert = picard_solve(theta, p, s=2.0)
    sol = continue_solution(theta, p, s=2.0, horizon=cert.T / 3.0)
    assert len(sol.certificates) == 1
    assert sol.times[-1] == pytest.approx(cert.T / 3.0)


def test_continue_solution_tiny_horizon_runs_one_segment(grid16):
    # a horizon below the chaining slack of 1e-12 still gets its segment
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    sol = continue_solution(qglab.single_mode(grid16, 1, 0), p, s=2.0, horizon=1e-13)
    assert len(sol.certificates) == 1
    assert sol.times[-1] == pytest.approx(1e-13, rel=1e-12)


def test_continue_solution_matches_run(grid32):
    # alpha = 3/4 stays globally bounded; cross-check the chained Picard
    # trajectory against the marching integrator at the shared horizon
    p = ModelParams("regularized", alpha=0.75, mu=1.0)
    theta = qglab.cmt(grid32)
    horizon = 2.0
    sol = continue_solution(theta, p, s=2.0, horizon=horizon, tol=1e-8)
    assert sol.times[-1] == pytest.approx(horizon, abs=1e-9)
    hs = [qglab.sobolev_norm(state, 2.0) for state in sol.states[:: len(sol.states) // 50 + 1]]
    assert max(hs) <= 10.0 * hs[0]  # bounded, no blow-up on [0, 2]
    cfg = StepperConfig(dt=1e-3, t_end=horizon, scheme="rk4", diag_every=1000)
    res = run(theta, p, cfg)
    final_gap = qglab.sobolev_norm(sol.states[-1] - res.final, 2.0)
    assert final_gap <= 1e-3
