import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qglab
from qglab import ModelParams, StepperConfig, picard_solve, run
from qglab.errors import NoContraction, UnstableStep, ValidationError
from qglab.models import RhsSplit, rhs
from qglab.stepping import (
    BLOWUP_SENTINEL,
    PICARD_RATIO_LIMIT,
    PICARD_ROUNDOFF,
    Integrator,
    _picard_iterate,
    _picard_work,
    _sup_hs_distance,
    continue_solution,
    cumulative_simpson,
    etd_factors,
    etd_rk4_step,
    rk4_step,
)

from conftest import random_field


def _work(grid):
    """The five work arrays of one step, as an `Integrator` holds them."""
    return np.empty((5, *grid.shape), dtype=np.complex128)


def test_sampling_intervals_are_held_as_python_ints(grid16):
    # any numpy integer is accepted, as Grid accepts n, and held as an int:
    # a uint8 interval used to overflow against step index 256
    cfg = StepperConfig(dt=1e-3, t_end=0.3, diag_every=np.uint8(100), snapshot_every=np.int32(150))
    assert type(cfg.diag_every) is int and type(cfg.snapshot_every) is int
    res = run(qglab.single_mode(grid16, 1, 0), ModelParams("inviscid"), cfg)
    assert [r.t for r in res.records] == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert [t for t, _ in res.samples] == pytest.approx([0.0, 0.15, 0.3])


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


def test_run_warns_above_the_advisory_cfl_bound(caplog):
    # the bound 2.8 / (max|u| n/3), with max|u| formed here from the velocity fields
    theta = qglab.cmt(qglab.Grid(32))
    u1, u2 = (qglab.inverse_transform(u).values for u in qglab.riesz_velocity(theta))
    limit = 2.8 / (np.max(np.hypot(u1, u2)) * 32 / 3.0)
    for factor, warns in ((1.01, True), (0.99, False)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="qglab.stepping"):
            run(theta, ModelParams("inviscid"), StepperConfig(dt=factor * limit, t_end=factor * limit))
        assert ("exceeds advisory CFL bound" in caplog.text) == warns


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
        out = Integrator(grid32, p, dt, "etd-rk4").advance(theta.coeffs, dt)
        expect = np.exp(-0.2 * dt) * np.cos(2 * grid32.x1)
        got = qglab.inverse_transform(qglab.SpectralField(grid32, out)).values
        assert np.max(np.abs(got - expect)) < 1e-12


def test_step_steady_states(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    for p in (ModelParams("inviscid"), ModelParams("regularized", alpha=0.5, mu=1.0)):
        out = Integrator(grid32, p, 0.01, "etd-rk4").advance(theta.coeffs, 0.01)
        assert np.max(np.abs(out - theta.coeffs)) < 1e-14


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
    got = Integrator(grid32, p, dt, "rk4").advance(theta.coeffs, dt)
    model_rhs = lambda c, out: np.copyto(out, rhs(qglab.SpectralField(grid32, c), p).coeffs)
    want = rk4_step(theta.coeffs, model_rhs, dt, _work(grid32))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "p", [ModelParams("inviscid"), ModelParams("regularized", alpha=0.5, mu=1.0)]
)
def test_schemes_coincide_without_linear_part(grid32, p):
    theta = random_field(grid32, 10, 2.0, 6)
    a = Integrator(grid32, p, 1e-2, "etd-rk4").advance(theta.coeffs, 1e-2)
    b = Integrator(grid32, p, 1e-2, "rk4").advance(theta.coeffs, 1e-2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", ["etd-rk4", "rk4"])
@pytest.mark.parametrize(
    "p",
    [ModelParams("inviscid"), ModelParams("dissipative", kappa=0.1), ModelParams("regularized", alpha=0.5, mu=1.0)],
    ids=["inviscid", "dissipative", "regularized"],
)
def test_advance_makes_one_step_call_per_step(grid16, monkeypatch, p, scheme):
    # a counter on both step functions, as the benchmark tracer hangs them, sees one per step
    calls = []
    for name in ("rk4_step", "etd_rk4_step"):
        step = getattr(qglab.stepping, name)
        monkeypatch.setattr(
            qglab.stepping, name, lambda *args, _name=name, _step=step: calls.append(_name) or _step(*args)
        )
    integrator = Integrator(grid16, p, 1e-2, scheme)
    c = random_field(grid16, 5, 2.0, 2).coeffs
    for i in range(1, 4):
        c = integrator.advance(c, i * 1e-2)
    assert calls == ["etd_rk4_step"] * 3


def test_step_unstable_past_sentinel(grid16):
    # a steady single mode whose coefficients already exceed the sentinel
    theta = 1e13 * qglab.single_mode(grid16, 1, 0)
    with pytest.raises(UnstableStep) as info:
        Integrator(grid16, ModelParams("inviscid"), 0.01, "etd-rk4").advance(theta.coeffs, 0.01)
    assert info.value.t == 0.01
    assert info.value.max_coeff > BLOWUP_SENTINEL


def test_etd_linear_exactness(grid32):
    # with the nonlinear part disabled, the dissipative evolution matches
    # exp(-kappa |k|^(2 alpha) t) per mode after many steps
    kappa, alpha, dt, nsteps = 0.4, 0.75, 1e-3, 1000
    lin = RhsSplit(grid32, ModelParams("dissipative", alpha=alpha, kappa=kappa)).linear
    factors, work = etd_factors(lin, dt), _work(grid32)
    zero = lambda c, out: np.multiply(0.0, c, out=out)
    theta = random_field(grid32, 10, 1.5, 0)
    c = theta.coeffs.copy()
    for _ in range(nsteps):
        c = etd_rk4_step(c, factors, zero, dt, work)
    expect = np.exp(lin * dt * nsteps) * theta.coeffs
    assert np.max(np.abs(c - expect)) <= 1e-12 * np.max(np.abs(theta.coeffs))


def _etd_rk4_reference(c, exp_half, exp_full, nonlinear, dt):
    """The integrating-factor step as plain expressions, every stage a fresh array."""
    k1 = nonlinear(c)
    s1 = exp_half * (c + 0.5 * dt * k1)
    k2 = nonlinear(s1)
    s2 = exp_half * c + 0.5 * dt * k2
    k3 = nonlinear(s2)
    s3 = exp_full * c + dt * exp_half * k3
    k4 = nonlinear(s3)
    return exp_full * c + (dt / 6.0) * (exp_full * k1 + 2.0 * exp_half * (k2 + k3) + k4)


def _rk4_reference(c, rhs_fn, dt):
    """Classical RK4 as plain expressions, every stage a fresh array."""
    k1 = rhs_fn(c)
    k2 = rhs_fn(c + 0.5 * dt * k1)
    k3 = rhs_fn(c + 0.5 * dt * k2)
    k4 = rhs_fn(c + dt * k3)
    return c + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


@pytest.mark.parametrize("scheme", ["etd-rk4", "rk4"])
@pytest.mark.parametrize(
    "model, kwargs, forced",
    [
        ("inviscid", {}, False),
        ("dissipative", {"kappa": 0.1}, False),
        ("regularized", {"alpha": 0.75, "mu": 0.3}, False),
        ("dissipative", {"alpha": 0.7, "kappa": 0.05}, True),
    ],
)
def test_step_in_work_arrays_matches_reference_expressions(grid32, model, kwargs, forced, scheme):
    # the in-place stages keep the operation order of the plain expressions
    forcing = random_field(grid32, 6, 2.0, 9) if forced else None
    p = ModelParams(model, forcing=forcing, **kwargs)
    dt = 1e-2
    integrator = Integrator(grid32, p, dt, scheme)
    split = RhsSplit(grid32, p)
    if scheme == "etd-rk4" and split.linear is not None:
        eh, ef = np.exp(0.5 * dt * split.linear), np.exp(dt * split.linear)
        reference = lambda c: _etd_rk4_reference(c, eh, ef, split.nonlinear, dt)
    elif split.linear is not None:
        reference = lambda c: _rk4_reference(c, lambda x: split.linear * x + split.nonlinear(x), dt)
    else:
        reference = lambda c: _rk4_reference(c, split.nonlinear, dt)
    got = want = random_field(grid32, 10, 2.0, 4).coeffs
    for i in range(1, 4):
        got, want = integrator.advance(got, i * dt), reference(want)
        assert np.array_equal(got, want)


# Traced peak of a warm Integrator.advance in half-spectrum arrays: the
# returned state (1.0) and the sentinel's np.abs temporary (0.5).  Measured
# 1.54 at n=64 and 1.51 at n=128, against 6.0-12.6 when every stage was a
# fresh array.
ADVANCE_PEAK = 1.6


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize(
    "model, kwargs, scheme", [("dissipative", {"kappa": 0.1}, "etd-rk4"), ("regularized", {"mu": 1.0}, "rk4")]
)
def test_advance_allocation_budget(n, model, kwargs, scheme):
    grid = qglab.Grid(n)
    integrator = Integrator(grid, ModelParams(model, **kwargs), 1e-3, scheme)
    c = qglab.cmt(grid).coeffs
    integrator.advance(c, 1e-3)  # warm-up: the grid's cached symbols
    tracemalloc.start()
    try:
        integrator.advance(c, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ADVANCE_PEAK * c.nbytes


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


def test_run_shares_one_field_per_sampled_step(grid32):
    # step 6 is a record, a snapshot sample and the final state at once
    theta = random_field(grid32, 10, 2.0, 5)
    p = ModelParams("dissipative", alpha=0.5, kappa=0.05)
    res = run(theta, p, StepperConfig(dt=1e-2, t_end=0.06, diag_every=2, snapshot_every=3))
    assert [t for t, _ in res.samples] == pytest.approx([0.0, 0.03, 0.06])
    assert res.samples[-1][1] is res.final
    integrator = Integrator(grid32, p, 1e-2, "etd-rk4")
    c = theta.coeffs
    for i in range(1, 7):
        c = integrator.advance(c, i * 1e-2)
        if i == 3:
            assert res.samples[1][1].coeffs.tobytes() == c.tobytes()
    assert res.final.coeffs.tobytes() == c.tobytes()


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_from_out_of_band_data_keeps_modified_energy(grid64, seed):
    # kmax 30 reaches past the 2/3 band (n/3 = 21.3): E_mu is kept to the
    # RK4 error, measured at most 5.1e-12; products of the whole state lost
    # 5.0e-3 to 6.1e-3 of it
    p = ModelParams("regularized", alpha=0.5, mu=0.1)
    cfg = StepperConfig(dt=1e-3, t_end=0.2, scheme="rk4", diag_every=10)
    res = run(random_field(grid64, 30, 1.5, seed), p, cfg)
    assert qglab.energy_balance_residual(res.records) <= 1e-10


@pytest.mark.parametrize("p", [ModelParams("inviscid"), ModelParams("regularized", alpha=0.5, mu=0.1)])
def test_run_leaves_out_of_band_modes_as_they_were(grid64, p):
    # the nonlinear part reads and writes the band alone, so without a
    # linear part the modes outside it are passive, bit for bit
    theta = random_field(grid64, 30, 1.5, 1)
    cfg = StepperConfig(dt=1e-3, t_end=0.2, scheme="rk4", diag_every=10)
    final = run(theta, p, cfg).final.coeffs
    outside = ~grid64.dealias_mask
    assert np.array_equal(final[outside], theta.coeffs[outside])
    assert np.max(np.abs(final - theta.coeffs)) > 1e-3  # the band did move


def test_run_records_final_time(grid32):
    cfg = StepperConfig(dt=1e-2, t_end=0.25, diag_every=7)
    res = run(qglab.single_mode(grid32, 1, 0), ModelParams("inviscid"), cfg)
    assert res.records[-1].t == pytest.approx(0.25)


def test_cumulative_simpson_exact_on_cubics():
    h = 0.1
    t = np.arange(11) * h
    vals = (3 * t**3 - t**2 + 2 * t - 5).reshape(-1, 1, 1)
    exact = (0.75 * t**4 - t**3 / 3 + t**2 - 5 * t).reshape(-1, 1, 1)
    out = cumulative_simpson(vals, h, out=np.empty_like(vals))
    assert np.max(np.abs(out - exact)) < 1e-12


def _simpson_reference(values, h):
    """`cumulative_simpson` as whole-row expressions, in the operation order it keeps."""
    out = np.zeros_like(values)
    out[1] = (h / 24.0) * (9.0 * values[0] + 19.0 * values[1] - 5.0 * values[2] + values[3])
    for i in range(2, len(values)):
        if i % 2 == 0:
            out[i] = out[i - 2] + (h / 3.0) * (values[i - 2] + 4.0 * values[i - 1] + values[i])
        else:
            out[i] = out[i - 1] + (h / 24.0) * (
                values[i - 3] - 5.0 * values[i - 2] + 19.0 * values[i - 1] + 9.0 * values[i]
            )
    return out


@settings(max_examples=40, deadline=None)
@given(m=st.integers(4, 40), h=st.floats(1e-4, 10.0), seed=st.integers(0, 2**32 - 1))
def test_cumulative_simpson_in_place_matches_reference(m, h, seed):
    # Picard integrates into a reused trajectory, and every other node of its rhs stack
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((2 * m - 1, 3, 5)) + 1j * rng.standard_normal((2 * m - 1, 3, 5))
    for values in (stack[:m], stack[::2]):
        expected = _simpson_reference(np.ascontiguousarray(values), h).tobytes()
        out = np.full_like(stack[:m], np.nan)
        assert cumulative_simpson(values, h, out=out) is out
        assert out.tobytes() == expected


@pytest.mark.parametrize("lam", [1.0, 3.0, 10.0, 30.0, 1j, 3j, 10j, 30j])
def test_simpson_richardson_estimate_tracks_refinement(lam):
    # exp(lam t) on [0, 1]: |S_h - S_2h| / 15 on 33 nodes against the gap to
    # 65 nodes; the ratio measured 0.81-1.74 here and fell to 0.49 at
    # lam = 60, where 33 nodes no longer resolve the trajectory
    def samples(m):
        return np.exp(lam * np.linspace(0.0, 1.0, m))[:, None, None]

    def integral(values, h):
        return cumulative_simpson(values, h, out=np.empty_like(values))

    coarse = integral(samples(33), 1.0 / 32)
    estimate = np.max(np.abs(coarse[::2] - integral(samples(33)[::2], 2.0 / 32))) / 15.0
    gap = np.max(np.abs(coarse - integral(samples(65), 0.5 / 32)[::2]))
    assert 0.5 <= estimate / gap <= 2.0


def test_picard_requires_regularized_and_s(grid32):
    theta = qglab.single_mode(grid32, 1, 0)
    with pytest.raises(ValidationError):
        picard_solve(theta, ModelParams("inviscid"), s=2.0)
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    with pytest.raises(ValidationError):
        picard_solve(theta, p, s=0.5)


_BAD_PICARD_CONTROLS = [dict(tol=np.nan), dict(tol=0.0), dict(tol=-1e-9), dict(tol=np.inf)] + [
    dict(s=s) for s in (np.nan, np.inf, -np.inf)
]
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
            picard_solve(theta, p, **{"s": 2.0, **kwargs})
        else:
            continue_solution(theta, p, **{"s": 2.0, "horizon": 0.5, **kwargs})


def test_picard_steady_datum_converges_immediately(grid32):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    traj, cert = picard_solve(qglab.single_mode(grid32, 1, 0), p, s=2.0)
    assert cert.converged
    assert cert.iterations == 1
    assert cert.nodes == 7
    assert cert.T == pytest.approx(p.mu / (4.0 * cert.R))


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_picard_contraction_certificate(grid64, alpha):
    p = ModelParams("regularized", alpha=alpha, mu=1.0)
    traj, cert = picard_solve(qglab.cmt(grid64), p, s=2.0, tol=1e-10)
    assert cert.converged
    assert cert.nodes == 7
    assert cert.ratios and all(r <= 0.55 for r in cert.ratios)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_picard_certificates_keep_measured_ratios(request, n, alpha):
    # every solve, chained or not, starts cold from its constant guess and
    # measures the contraction; every sweep after the first records a ratio
    p = ModelParams("regularized", alpha=alpha, mu=1.0)
    theta = qglab.cmt(request.getfixturevalue(f"grid{n}"))
    _, cert = picard_solve(theta, p, s=2.0, tol=1e-10)
    sol = continue_solution(theta, p, s=2.0, horizon=0.05)
    assert len(sol.certificates) > 1
    assert sol.certificates[-1].nodes == 7
    for c in [cert, *sol.certificates]:
        assert len(c.ratios) >= 2
        assert c.iterations == len(c.ratios) + 1
        assert c.quadrature <= 1e-9


@pytest.fixture
def nonlinear_args(monkeypatch):
    """The argument of every `RhsSplit.nonlinear` call the test makes, in order."""
    args = []
    nonlinear = RhsSplit.nonlinear

    def recorded(self, c, out=None):
        args.append(c.copy())  # Picard overwrites its trajectory buffers
        return nonlinear(self, c, out)

    monkeypatch.setattr(RhsSplit, "nonlinear", recorded)
    return args


def test_picard_evaluates_theta0_once(grid64, nonlinear_args):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.cmt(grid64)
    _, cert = picard_solve(theta, p, s=2.0, tol=1e-10)
    calls = [np.array_equal(c, theta.coeffs) for c in nonlinear_args]
    # the first sweep reuses rhs(theta_0) at every node and later sweeps at node 0
    assert len(calls) == 1 + (cert.iterations - 1) * (cert.nodes - 1)
    assert sum(calls) == 1


@pytest.mark.parametrize("datum, n, calls", [("steady", 16, 1), ("cmt", 64, 19)])
def test_picard_call_budget(request, nonlinear_args, datum, n, calls):
    # a constant guess that converges on its first sweep costs the one
    # rhs(theta_0); cmt takes 4 sweeps, 1 + 3 x 6 calls
    grid = request.getfixturevalue(f"grid{n}")
    theta = qglab.single_mode(grid, 1, 0) if datum == "steady" else qglab.cmt(grid)
    _, cert = picard_solve(theta, ModelParams("regularized", alpha=0.5, mu=1.0), s=2.0, tol=1e-10)
    assert len(nonlinear_args) == calls
    assert cert.converged and cert.nodes == 7


def _quadrature_gap(theta, p, T, tol):
    """A 33-node solve's quadrature estimate and its sup-H^2 gap to a 65-node solve on [0, T]."""
    R = 2.0 * qglab.sobolev_norm(theta, 2.0)
    split, weights = RhsSplit(theta.grid, p), theta.grid.sobolev_weights(2.0)[..., None]
    (_, coarse, *_, estimate), (_, fine, *_) = [
        _picard_iterate(split.nonlinear, theta.coeffs, T, weights, tol, PICARD_ROUNDOFF * R,
                        np.empty((3, m, *theta.grid.shape), dtype=np.complex128))
        for m in (33, 65)
    ]
    return estimate, _sup_hs_distance(fine[::2], coarse, weights)


# Measured estimate / gap on cmt and random data at n = 16..64, mu = 1 and
# 300: 1.05-1.16 on 30 and 100 times the guaranteed horizon wherever the
# iteration still contracts and the gap exceeds 3e-13; 0.010-0.104 on the
# horizon itself, where the gap and S_h - S_2h are both round-off and the
# division by 15 shrinks only the estimate (0.053-0.079 for cmt at n = 32).
@pytest.mark.parametrize("alpha", [0.5, 0.75])
@pytest.mark.parametrize("stretch, low, high", [(1.0, 0.005, 0.3), (30.0, 0.5, 2.0), (100.0, 0.5, 2.0)])
def test_picard_quadrature_estimate_tracks_65_node_gap(grid32, alpha, stretch, low, high):
    p = ModelParams("regularized", alpha=alpha, mu=1.0)
    theta = qglab.cmt(grid32)
    _, cert = picard_solve(theta, p, s=2.0, tol=1e-10)
    estimate, gap = _quadrature_gap(theta, p, stretch * cert.T, tol=1e-10)
    assert (gap > PICARD_ROUNDOFF * cert.R) == (stretch > 1.0)
    assert low <= estimate / gap <= high


# Measured on cmt at tol = 1e-9: the same sweeps (3 or 4) and convergence in
# all 18 cases, end-state gaps up to 6.8e-15 R (n = 64, alpha = 0.5,
# mu = 300) and 7-node estimates up to 6.8e-17 R; R = 15.4 throughout.
@pytest.mark.parametrize("mu", [0.01, 1.0, 300.0])
@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [32, 64])
def test_picard_seven_nodes_match_33_node_reference(request, n, alpha, mu):
    grid = request.getfixturevalue(f"grid{n}")
    p = ModelParams("regularized", alpha=alpha, mu=mu)
    theta = qglab.cmt(grid)
    traj, cert = picard_solve(theta, p, s=2.0)
    weights = grid.sobolev_weights(2.0)[..., None]
    _, ref, _, converged, iterations, _ = _picard_iterate(
        RhsSplit(grid, p).nonlinear, theta.coeffs, cert.T, weights, 1e-9, PICARD_ROUNDOFF * cert.R,
        np.empty((3, 33, *grid.shape), dtype=np.complex128),
    )
    assert cert.nodes == 7 and cert.converged and converged
    assert cert.iterations == iterations
    assert _sup_hs_distance(traj.states[-1].coeffs, ref[-1], weights) <= 5e-14 * cert.R
    assert cert.quadrature <= 5e-16 * cert.R


def test_picard_solve_peak_memory(grid64):
    # about 4.36 trajectories are live at the peak: the rhs stack, the two
    # trajectories that sweeps alternate between, and the split's buffers
    # and the distance weights, which do not scale with the nodes; one more
    # held anywhere in the solve would add 1.0 to the ratio
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.cmt(grid64)
    picard_solve(theta, p, s=2.0, tol=1e-10)  # warm-up: the grid's cached symbols
    tracemalloc.start()
    try:
        picard_solve(theta, p, s=2.0, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0 * 7 * theta.coeffs.nbytes


def test_picard_states_are_read_only_copies_the_work_does_not_reach(grid32):
    # each node is copied out of the trajectory stack into its own frozen
    # field, so a later solve on the same node arrays leaves them as they were
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.cmt(grid32)
    work = _picard_work(grid32, p)
    traj, _ = picard_solve(theta, p, s=2.0, _work=work)
    kept = [f.coeffs.copy() for f in traj.states]
    picard_solve(random_field(grid32, 10, 1.5, 4), p, s=2.0, _work=work)
    for f, c in zip(traj.states, kept):
        assert not f.coeffs.flags.writeable and np.array_equal(f.coeffs, c)
        assert not any(np.shares_memory(f.coeffs, a) for a in work[1])
    assert not any(np.shares_memory(f.coeffs, g.coeffs) for f in traj.states for g in traj.states if f is not g)
    assert np.array_equal(traj.states[0].coeffs, theta.coeffs)


def test_continue_solution_later_segments_leave_earlier_states_unchanged(grid32):
    # the chain's first segment, solved alone in fresh arrays, gives its
    # states bit for bit after every later segment has run on shared arrays
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.cmt(grid32)
    sol = continue_solution(theta, p, s=2.0, horizon=0.05)
    first, cert = picard_solve(theta, p, s=2.0, t_max=0.05)
    assert len(sol.certificates) >= 3 and sol.certificates[0].ratios == cert.ratios
    for f, g in zip(sol.states[: cert.nodes], first.states):
        assert np.array_equal(f.coeffs, g.coeffs)


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


def test_continue_solution_steady_reaches_horizon(grid16, nonlinear_args):
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    sol = continue_solution(qglab.single_mode(grid16, 1, 0), p, s=2.0, horizon=10.0)
    assert sol.times[-1] == pytest.approx(10.0, abs=1e-9)
    assert all(c.converged for c in sol.certificates)
    assert len(nonlinear_args) == len(sol.certificates)  # rhs(theta_0) once per segment


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


def test_picard_raises_no_contraction_above_ratio_limit(grid32, monkeypatch):
    monkeypatch.setattr(qglab.stepping, "PICARD_RATIO_LIMIT", 0.0)
    with pytest.raises(NoContraction) as info:
        picard_solve(qglab.cmt(grid32), ModelParams("regularized", alpha=0.5, mu=1.0), s=2.0)
    assert info.value.t == 0.0 and info.value.ratio > 0.0


def test_picard_ratio_limit_is_pinned_by_data(grid32):
    # on a real datum 400 times past the guaranteed horizon (T = 6.50) the
    # first ratio is 0.725, far above round-off: the 7-node solve raises.
    # The first ratio rises smoothly with T, 0.533 at 300 T0 and 0.887 at
    # 480 T0 (measured), so a limit of 0.9 would let this solve converge,
    # in 51 sweeps
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.cmt(grid32)
    R = 2.0 * qglab.sobolev_norm(theta, 2.0)
    split, stack = _picard_work(grid32, p)
    with pytest.raises(NoContraction) as info:
        _picard_iterate(split.nonlinear, theta.coeffs, 400.0 * p.mu / (4.0 * R),
                        grid32.sobolev_weights(2.0)[..., None], 1e-9, PICARD_ROUNDOFF * R, stack)
    assert 0.6 <= info.value.ratio <= 0.85 and info.value.t == 0.0


def test_picard_tol_below_roundoff_ends_unconverged(grid32):
    # no sweep resolves 1e-300: the solve ends on a ratio above the limit
    # measured at round-off, and a chain goes on past such a segment.  The
    # shell datum stalls above a sweep distance of 0; cmt at n=32 reaches
    # a fixed point bit for bit
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = random_field(grid32, 10, 2.5, 3)
    _, cert = picard_solve(theta, p, s=2.0, tol=1e-300)
    assert not cert.converged
    assert cert.ratios[-1] > PICARD_RATIO_LIMIT
    sol = continue_solution(theta, p, s=2.0, horizon=1.5 * cert.T, tol=1e-300)
    assert len(sol.certificates) == 2 and not sol.certificates[0].converged
    assert sol.times[-1] == pytest.approx(1.5 * cert.T)


def test_picard_ratio_at_roundoff_does_not_raise(grid32):
    # tol lies below what round-off resolves: on the ninth sweep, at a
    # distance below PICARD_ROUNDOFF R, round-off measures a ratio of 0.619;
    # the solve ends unconverged instead of raising
    theta = random_field(grid32, 10, 2.5, 3)
    _, cert = picard_solve(theta, ModelParams("regularized", alpha=0.5, mu=1.0), s=2.0, tol=1e-17)
    assert cert.ratios[-1] > PICARD_RATIO_LIMIT
    assert not cert.converged


def test_sup_hs_distance_propagates_nan(grid16):
    a = np.zeros((3, *grid16.shape), dtype=complex)
    b = a.copy()
    b[1, 1, 1] = np.nan
    weights = grid16.sobolev_weights(2.0)[..., None]
    assert np.isnan(_sup_hs_distance(a, b, weights))
    assert _sup_hs_distance(a, a.copy(), weights) == 0.0


def test_sup_hs_distance_of_single_states_is_the_full_norm(grid16):
    # a state with no node axis is one node: its rows are not nodes
    a, b = random_field(grid16, 5, 1.5, 1), random_field(grid16, 5, 1.5, 2)
    weights = grid16.sobolev_weights(2.0)[..., None]
    single = _sup_hs_distance(a.coeffs, b.coeffs.copy(), weights)
    assert single == _sup_hs_distance(a.coeffs[None], b.coeffs[None].copy(), weights)
    assert single == pytest.approx(qglab.sobolev_norm(a - b, 2.0), rel=1e-14)


@pytest.mark.parametrize("s", [0.0, 1.5, 2.0])
def test_sup_hs_distance_matches_reference_expression(grid16, s):
    # in place on the float view of the difference, with the bits of the
    # per-node expression: the squares of the real and imaginary parts, each
    # weighted like sobolev_norm (so the mean counts at s = 0), summed
    rng = np.random.default_rng(3)
    a, b = (rng.standard_normal((5, *grid16.shape)) + 1j * rng.standard_normal((5, *grid16.shape)) for _ in "ab")
    w = grid16.parseval_weights * grid16.sqrt_laplacian(2.0 * s)
    weights = grid16.sobolev_weights(s)[..., None]
    for x, y in ((a, b), (a, b[2][None])):
        d2 = np.max([
            np.sum((u - v).view(np.float64).reshape(*w.shape, 2) ** 2 * w[..., None])
            for u, v in zip(*np.broadcast_arrays(x, y))
        ])
        # the difference goes into the second operand, as a sweep writes it
        # into the trajectory it retires
        assert _sup_hs_distance(x, np.broadcast_to(y, x.shape).copy(), weights) == 2.0 * np.pi * np.sqrt(d2)


@pytest.mark.parametrize("single", [False, True])
def test_sup_hs_distance_keeps_a_and_overwrites_b(grid16, single):
    # a sweep measures the new trajectory a against the one it retires, b:
    # a must come out as it went in, and b holds the weighted squares of the
    # float view of a - b; a single state a broadcasts over b's nodes
    rng = np.random.default_rng(4)
    shape = grid16.shape if single else (3, *grid16.shape)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal((3, *grid16.shape)) + 1j * rng.standard_normal((3, *grid16.shape))
    weights = grid16.sobolev_weights(1.5)[..., None]
    a_before, diff = a.copy(), np.broadcast_to(a, b.shape) - b
    _sup_hs_distance(a, b, weights)
    assert a.tobytes() == a_before.tobytes()
    squares = diff.view(np.float64).reshape(*b.shape, 2) ** 2 * weights
    assert b.view(np.float64).tobytes() == squares.tobytes()


def test_picard_nan_trajectory_raises_no_contraction(grid16, monkeypatch):
    # the first sweep overflows to NaN; its distance is NaN, not node 0's 0,
    # so sweep 2's NaN ratio raises
    distances = []
    distance = qglab.stepping._sup_hs_distance

    def recorded(*args):
        distances.append(distance(*args))
        return distances[-1]

    monkeypatch.setattr(qglab.stepping, "_sup_hs_distance", recorded)
    theta = 10**153.75 * qglab.cmt(grid16)
    with np.errstate(all="ignore"), pytest.raises(NoContraction) as info:
        picard_solve(theta, ModelParams("regularized", alpha=0.5, mu=1.0), s=2.0)
    assert len(distances) == 2 and np.isnan(distances).all()
    assert np.isnan(info.value.ratio)


@pytest.mark.parametrize("amplitude", [1e156, 1e171])  # ||theta_0||_2 is finite, its Parseval sum is not
def test_picard_rejects_non_finite_norm(grid16, nonlinear_args, amplitude):
    theta = amplitude * qglab.cmt(grid16)
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="not finite"):
        picard_solve(theta, ModelParams("regularized", alpha=0.5, mu=1.0), s=2.0)
    assert nonlinear_args == []  # before any sweep


def test_continue_solution_reports_time_reached_on_no_contraction(grid32, monkeypatch):
    # the second segment fails; the error carries the first segment's end time
    calls = []
    solve = qglab.stepping.picard_solve

    def failing_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NoContraction(0.0, 0.9)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qglab.stepping, "picard_solve", failing_second)
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    theta = qglab.cmt(grid32)
    _, cert = solve(theta, p, s=2.0)
    with pytest.raises(NoContraction) as info:
        continue_solution(theta, p, s=2.0, horizon=1.0)
    assert info.value.t == cert.T
    assert info.value.ratio == 0.9


def test_continue_solution_reuses_one_split_for_every_segment(grid32, monkeypatch):
    # the segments share one RhsSplit and one set of node arrays
    built = []
    init = RhsSplit.__init__

    def counted(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(RhsSplit, "__init__", counted)
    sol = continue_solution(qglab.cmt(grid32), ModelParams("regularized", alpha=0.5, mu=1.0), s=2.0, horizon=0.05)
    assert len(sol.certificates) >= 3
    assert len(built) == 1


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
