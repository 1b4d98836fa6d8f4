import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qglab
from qglab import ModelParams, inverse_transform, regularized_gradient_kernel, rhs
from qglab.errors import ValidationError
from qglab.models import MODELS, RhsSplit, advection_coeffs
from qglab.spectral import _hermitian_defects

from conftest import full_spectrum, full_wavenumbers, random_field

INVISCID = ModelParams("inviscid")


def _inverse(grid, mu, alpha):
    """The regularized model's diagonal inverse 1 / (1 + mu |k|^(2 alpha)), written out."""
    k1, k2 = np.meshgrid(np.arange(grid.n // 2 + 1), np.fft.fftfreq(grid.n, 1.0 / grid.n))
    return 1.0 / (1.0 + mu * np.hypot(k1, k2) ** (2.0 * alpha))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(model="unknown"),
        dict(model="inviscid", kappa=0.1),
        dict(model="inviscid", mu=0.1),
        dict(model="dissipative", kappa=0.0),
        dict(model="dissipative", kappa=0.1, mu=0.5),
        dict(model="regularized", mu=0.0),
        dict(model="regularized", mu=1.0, alpha=0.4),
        dict(model="regularized", mu=1.0, kappa=0.1),
        dict(model="inviscid", alpha=1.5),
        dict(model="dissipative", kappa=np.nan),
        dict(model="dissipative", kappa=np.inf),
        dict(model="regularized", mu=np.nan),
        dict(model="regularized", mu=np.inf),
    ],
)
def test_model_params_rejects_invalid(kwargs):
    with pytest.raises(ValidationError):
        ModelParams(**kwargs)


def test_forcing_only_for_dissipative(grid16):
    f = qglab.single_mode(grid16, 0, 1)
    with pytest.raises(ValidationError):
        ModelParams("inviscid", forcing=f)
    ModelParams("dissipative", kappa=0.1, forcing=f)


def test_forcing_must_be_real(grid16):
    c = qglab.single_mode(grid16, 0, 1).coeffs.copy()
    c[1, 0] += 1e-6j  # breaks c(-k) = conj(c(k)) at k = (0, +-1)
    with pytest.raises(ValidationError, match="real"):
        ModelParams("dissipative", kappa=0.1, forcing=qglab.SpectralField(grid16, c))


def test_forcing_edit_after_validation_does_not_reach_run(grid16):
    c = qglab.single_mode(grid16, 0, 1).coeffs.copy()
    p = ModelParams("dissipative", kappa=0.1, forcing=qglab.SpectralField(grid16, c))
    c[1, 0] += 1e-3j  # the caller's array is no longer real
    cfg = qglab.StepperConfig(dt=0.01, t_end=0.05)
    theta = qglab.single_mode(grid16, 1, 0)
    clean = ModelParams("dissipative", kappa=0.1, forcing=qglab.single_mode(grid16, 0, 1))
    assert _hermitian_defects(p.forcing.coeffs) == 0.0
    assert np.array_equal(qglab.run(theta, p, cfg).final.coeffs, qglab.run(theta, clean, cfg).final.coeffs)


def test_forcing_held_by_params_is_read_only(grid16):
    p = ModelParams("dissipative", kappa=0.1, forcing=qglab.single_mode(grid16, 0, 1))
    with pytest.raises(ValueError):
        p.forcing.coeffs[1, 0] += 1e-3j


def test_forcing_cannot_be_replaced(grid16):
    p = ModelParams("dissipative", kappa=0.1, forcing=qglab.single_mode(grid16, 0, 1))
    c = p.forcing.coeffs.copy()
    c[1, 0] += 1e-3j
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.forcing.coeffs = c
    assert _hermitian_defects(p.forcing.coeffs) == 0.0


def test_forcing_must_lie_in_dealias_band(grid16):
    f = qglab.single_mode(grid16, 6, 0)  # 6 > 16/3
    with pytest.raises(ValidationError, match="band"):
        ModelParams("dissipative", kappa=0.1, forcing=f)


def test_forcing_grid_must_match_state(grid16, grid32):
    p = ModelParams("dissipative", kappa=0.1, forcing=qglab.single_mode(grid16, 0, 1))
    with pytest.raises(ValidationError, match="grid"):
        RhsSplit(grid32, p)


def _complex_advection_coeffs(grid, coeffs):
    """Reference kernel: three complex inverse and two complex forward transforms.

    Works on the full (n, n) spectrum with its own wavenumbers, masks and
    multipliers, and returns the half spectrum.
    """
    k1, k2 = full_wavenumbers(grid)
    kabs = np.hypot(k1, k2)
    kabs[0, 0] = 1.0
    riesz = (np.abs(k1) < grid.n // 2) & (np.abs(k2) < grid.n // 2)
    riesz[0, 0] = False
    dealias = (np.abs(k1) <= grid.n / 3.0) & (np.abs(k2) <= grid.n / 3.0)
    m1 = np.where(riesz, 1j * k2 / kabs, 0.0)
    m2 = np.where(riesz, -1j * k1 / kabs, 0.0)
    coeffs = full_spectrum(coeffs)
    u1 = np.fft.ifft2(m1 * coeffs).real
    u2 = np.fft.ifft2(m2 * coeffs).real
    th = np.fft.ifft2(coeffs).real
    n2 = grid.n * grid.n
    f1 = np.fft.fft2(u1 * th) * n2
    f2 = np.fft.fft2(u2 * th) * n2
    adv = 1j * (k1 * f1 + k2 * f2)
    adv = np.where(dealias, adv, 0.0)
    adv[0, 0] = 0.0
    return adv[:, : grid.n // 2 + 1]


def _advection(grid, c, spectra=None, fields=None):
    """`advection_coeffs` of c as div(u theta), in the given work arrays or in fresh ones."""
    if spectra is None:
        spectra, fields = np.empty((3, *grid.shape), dtype=np.complex128), np.empty((3, grid.n, grid.n))
    return advection_coeffs(grid, c, spectra, fields, None, grid.dealiased_gradient)


def _random_coeffs(grid, seed):
    """Coefficients of a random real field, with content up to and including the Nyquist lines."""
    values = np.random.default_rng(seed).standard_normal((grid.n, grid.n))
    return qglab.forward_transform(qglab.PhysicalField(grid, values)).coeffs


@settings(max_examples=30, deadline=None)
@given(
    half_n=st.integers(4, 48),
    seed=st.integers(0, 2**32 - 1),
)
def test_advection_matches_complex_kernel(half_n, seed):
    # the kernel forms the products of the band part P c of c alone
    grid = qglab.Grid(2 * half_n)
    c = _random_coeffs(grid, seed)
    band = qglab.dealias(qglab.SpectralField(grid, c)).coeffs
    out = _advection(grid, c)
    ref = _complex_advection_coeffs(grid, band)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(out, _advection(grid, band))
    assert _hermitian_defects(qglab.SpectralField(grid, out).coeffs) == 0.0
    assert out[0, 0] == 0


def _model_params(grid, model):
    """Each model's parameters, the dissipative one with a forcing inside the 2/3 band."""
    if model == "dissipative":
        forcing = qglab.dealias(qglab.SpectralField(grid, _random_coeffs(grid, 7)))
        return ModelParams(model, alpha=0.5, kappa=0.1, forcing=forcing)
    if model == "regularized":
        return ModelParams(model, alpha=0.75, mu=0.5)
    return INVISCID


@pytest.mark.parametrize("model", MODELS)
def test_nonlinear_buffer_reuse_is_invisible(grid32, model):
    p = _model_params(grid32, model)
    c1, c2 = _random_coeffs(grid32, 1), _random_coeffs(grid32, 2)
    split = RhsSplit(grid32, p)
    outs = [split.nonlinear(c) for c in (c1, c2, c1)]
    kept = [out.copy() for out in outs]
    split.nonlinear(c2)  # a later call leaves every earlier result alone
    for c, out, before in zip((c1, c2, c1), outs, kept):
        assert out.tobytes() == before.tobytes()
        assert out.tobytes() == RhsSplit(grid32, p).nonlinear(c).tobytes()
    assert _advection(grid32, c1, split.spectra, split.fields).tobytes() == _advection(grid32, c1).tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_nonlinear_out_matches_fresh_result(grid32, model):
    # a Picard sweep writes each node's value into a row of its stack
    p = _model_params(grid32, model)
    c = _random_coeffs(grid32, 4)
    stack = np.full((2, *grid32.shape), np.nan, dtype=np.complex128)
    row = stack[1]
    assert RhsSplit(grid32, p).nonlinear(c, out=row) is row
    assert row.tobytes() == RhsSplit(grid32, p).nonlinear(c).tobytes()
    assert np.isnan(stack[0]).all()


# Traced peak of one warm RhsSplit.nonlinear call in half-spectrum arrays:
# measured 1.004 at n=128 and 1.014 at n=64, the returned array alone.  The
# kernel's products are formed row by row; a broadcast product made numpy
# buffer all of it at n=64 (3.034).
NONLINEAR_PEAK = {64: 1.1, 128: 1.05}


@pytest.mark.parametrize("n", sorted(NONLINEAR_PEAK))
@pytest.mark.parametrize("model", MODELS)
def test_nonlinear_allocation_budget(n, model):
    grid = qglab.Grid(n)
    split = RhsSplit(grid, _model_params(grid, model))
    c = _random_coeffs(grid, 3)
    split.nonlinear(c)  # warm-up: the grid's cached symbols
    tracemalloc.start()
    try:
        split.nonlinear(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= NONLINEAR_PEAK[n] * c.nbytes


def test_advection_single_mode_is_steady(grid32):
    adv = rhs(qglab.single_mode(grid32, 1, 0), INVISCID)
    assert np.max(np.abs(adv.coeffs)) < 1e-15


def test_advection_equal_shell_cancels(grid32):
    theta = qglab.single_mode(grid32, 1, 0) + qglab.single_mode(grid32, 0, 1)
    adv = rhs(theta, INVISCID)
    assert np.max(np.abs(adv.coeffs)) < 1e-14


def test_advection_closed_form(grid32):
    # theta = cos x1 + cos 2x2 has psi = -cos x1 - cos(2 x2)/2,
    # u = (-sin 2x2, sin x1) and div(u theta) = -sin x1 sin 2x2
    theta = qglab.single_mode(grid32, 1, 0) + qglab.single_mode(grid32, 0, 2)
    adv = inverse_transform(-1.0 * rhs(theta, INVISCID))
    expect = -np.sin(grid32.x1) * np.sin(2 * grid32.x2)
    assert np.max(np.abs(adv.values - expect)) < 1e-12


def test_advection_ignores_mean(grid32):
    theta = qglab.single_mode(grid32, 1, 0) + qglab.single_mode(grid32, 0, 2)
    c = theta.coeffs.copy()
    c[0, 0] = 3.0  # add a constant background
    shifted = qglab.SpectralField(grid32, c)
    a = rhs(theta, INVISCID)
    b = rhs(shifted, INVISCID)
    assert b.coeffs[0, 0] == 0.0
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13


def test_rhs_inviscid_negates_advection(grid32):
    theta = qglab.single_mode(grid32, 1, 0) + qglab.single_mode(grid32, 0, 2)
    out = inverse_transform(rhs(theta, INVISCID))
    expect = np.sin(grid32.x1) * np.sin(2 * grid32.x2)
    assert np.max(np.abs(out.values - expect)) < 1e-12


def test_rhs_dissipative_single_mode_decay(grid32):
    p = ModelParams("dissipative", alpha=0.5, kappa=0.1)
    out = inverse_transform(rhs(qglab.single_mode(grid32, 2, 0), p))
    expect = -0.2 * np.cos(2 * grid32.x1)  # |k|^(2 alpha) = 2
    assert np.max(np.abs(out.values - expect)) < 1e-13

    p = ModelParams("dissipative", alpha=0.8, kappa=0.3)
    out = inverse_transform(rhs(qglab.single_mode(grid32, 1, 0), p))
    expect = -0.3 * np.cos(grid32.x1)  # |k| = 1 for any alpha
    assert np.max(np.abs(out.values - expect)) < 1e-13


def test_rhs_dissipative_forcing_passthrough(grid32):
    forcing = qglab.single_mode(grid32, 0, 1)
    p = ModelParams("dissipative", alpha=0.5, kappa=0.1, forcing=forcing)
    zero = qglab.SpectralField(grid32, np.zeros((32, 17), dtype=complex))
    out = rhs(zero, p)
    assert np.max(np.abs(out.coeffs - forcing.coeffs)) < 1e-15


def test_dissipation_alpha_zero_is_plain_damping(grid16):
    # degenerate alpha = 0: multiplier kappa on every mode except k = 0
    sym = -RhsSplit(grid16, ModelParams("dissipative", alpha=0.0, kappa=0.4)).linear
    assert sym[0, 0] == 0.0
    rest = sym.copy()
    rest[0, 0] = 0.4
    assert np.allclose(rest, 0.4)


def test_kernel_values():
    g1, g2 = regularized_gradient_kernel(1.0, 0.0, mu=0.5, alpha=0.5)
    assert g1 == pytest.approx(1j * 2.0 / 3.0)
    assert g2 == 0.0
    assert abs(g1) <= 1.0 / 0.5

    g1, g2 = regularized_gradient_kernel(0.0, 0.0, mu=0.5, alpha=0.5)
    assert g1 == 0.0 and g2 == 0.0


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("mu", [0.1, 1.0])
def test_kernel_bound_on_grid(alpha, mu):
    g = qglab.Grid(128)
    g1, g2 = regularized_gradient_kernel(g.k1, g.k2, mu=mu, alpha=alpha)
    mag = np.hypot(np.abs(g1), np.abs(g2))
    assert np.max(mag) <= 1.0 / mu


def test_rhs_regularized_is_diagonal_inverse_of_inviscid(grid64):
    theta = random_field(grid64, 20, 1.8, 2)
    p = ModelParams("regularized", alpha=0.75, mu=0.3)
    direct = rhs(theta, p)
    via_inviscid = rhs(theta, INVISCID).coeffs * _inverse(grid64, 0.3, 0.75)
    assert np.max(np.abs(direct.coeffs - via_inviscid)) <= 1e-14 * max(
        np.max(np.abs(via_inviscid)), 1e-30
    )


def test_rhs_regularized_closed_form(grid32):
    # nonlinear oracle sin x1 sin 2x2, then mode-wise division by 1 + |k|
    theta = qglab.single_mode(grid32, 1, 0) + qglab.single_mode(grid32, 0, 2)
    p = ModelParams("regularized", alpha=0.5, mu=1.0)
    out = rhs(theta, p)
    oracle = qglab.forward_transform(
        qglab.PhysicalField(grid32, np.sin(grid32.x1) * np.sin(2 * grid32.x2))
    )
    expect = oracle.coeffs * _inverse(grid32, 1.0, 0.5)
    assert np.max(np.abs(out.coeffs - expect)) < 1e-14
    # the (1, +-2) coefficients are scaled by 1/(1 + sqrt(5))
    k = grid32.kabs[2, 1]
    assert k == pytest.approx(np.sqrt(5.0))
    assert abs(out.coeffs[2, 1]) == pytest.approx(abs(oracle.coeffs[2, 1]) / (1 + np.sqrt(5)), rel=1e-12)


def test_rhs_regularized_vanishes_for_large_mu(grid32):
    theta = qglab.single_mode(grid32, 1, 0) + qglab.single_mode(grid32, 0, 2)
    big = rhs(theta, ModelParams("regularized", alpha=0.5, mu=1e8))
    small = rhs(theta, ModelParams("regularized", alpha=0.5, mu=1.0))
    assert np.max(np.abs(big.coeffs)) <= 2e-8 * np.max(np.abs(small.coeffs))


def test_rhs_regularized_applies_the_gradient_kernel(grid32, monkeypatch):
    # criterion 6 bounds regularized_gradient_kernel, so the solver must run that very function
    theta = qglab.cmt(grid32)
    p = ModelParams("regularized", alpha=0.75, mu=0.5)
    base = rhs(theta, p).coeffs
    kernel = qglab.models.regularized_gradient_kernel
    monkeypatch.setattr(
        qglab.models, "regularized_gradient_kernel", lambda *a, **k: tuple(2.0 * g for g in kernel(*a, **k))
    )
    assert np.array_equal(rhs(theta, p).coeffs, 2.0 * base)
    assert np.max(np.abs(base)) > 0.01  # not vacuous


def _pairing(a, b):
    """Integral of the product of the real fields of half spectra a and b, by Parseval."""
    return (2 * np.pi) ** 2 * float(np.sum(full_spectrum(a) * np.conj(full_spectrum(b))).real)


@pytest.mark.parametrize("seed", range(10))
def test_advection_skew_symmetry(grid64, seed):
    # The kernel is -P div(u(P theta) P theta), P the 2/3-band projection, so
    # it keeps both quadratic invariants for any theta: its pairings with
    # theta and with psi = Lambda^-1 theta vanish, also for data reaching
    # past the band (kmax 30 > 64/3).  Measured over these 10 seeds: at most
    # 2.0e-16 and 6.9e-17 of the bounds' scales; products of the whole state
    # missed by up to 6.1e-3 and 3.5e-4
    for theta in (qglab.dealias(random_field(grid64, 20, 1.5, seed)), random_field(grid64, 30, 1.5, seed)):
        adv = rhs(theta, INVISCID).coeffs  # -div(u theta); the sign does not matter here
        psi = qglab.apply_sqrt_laplacian(theta, -1.0)
        assert abs(_pairing(adv, theta.coeffs)) <= 1e-10 * qglab.sobolev_norm(theta, 0.0) ** 2
        assert abs(_pairing(adv, psi.coeffs)) <= 1e-10 * qglab.sobolev_norm(theta, -0.5) ** 2


@pytest.mark.parametrize("seed", range(5))
def test_rhs_mean_is_conserved(grid64, seed):
    theta = random_field(grid64, 20, 1.5, seed)
    assert rhs(theta, INVISCID).coeffs[0, 0] == 0.0
    p = ModelParams("dissipative", alpha=0.7, kappa=0.2)
    assert abs(rhs(theta, p).coeffs[0, 0]) == 0.0
    p = ModelParams("regularized", alpha=0.7, mu=0.5)
    assert abs(rhs(theta, p).coeffs[0, 0]) == 0.0
