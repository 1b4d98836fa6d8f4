import functools
import tracemalloc

import numpy as np
import pytest

import qglab
from qglab.diagnostics import (
    CELL_AREA_FACTOR,
    HALF_SQUARE,
    FluxEstimate,
    _difference_symbol,
    coarse_grained_flux,
    fit_loglog_slope,
    flux_decay_exponent,
    flux_scan,
    state_norms,
)
from qglab.spectral import Mollifier, PhysicalField, forward_transform, inverse_transform, mollify, pad_spectrum
from qglab.errors import DegenerateFit

from conftest import full_spectrum, random_field


def SQRT1P(x):
    """G''(x) = (1 + x^2)^(-3/2) of the convex profile G = sqrt(1 + x^2)."""
    return (1.0 + x * x) ** -1.5


def test_convex_profiles():
    x = np.linspace(-30.0, 30.0, 301)
    for profile in (HALF_SQUARE, SQRT1P):
        assert np.all(profile(x) > 0.0)


def test_single_mode_flux_vanishes(grid32):
    # u has no component along grad theta_eps for a single plane wave
    est = coarse_grained_flux(qglab.single_mode(grid32, 1, 0), 0.25)
    assert abs(est.flux_integral) <= 1e-12
    assert est.sigma_l1 > 0.0


@pytest.mark.parametrize("eps", [0.25, 0.0625])
def test_decomposition_consistency(grid64, eps):
    # sigma_eps from the spectral route against (u-u_eps)(theta-theta_eps) - r_eps
    # with r_eps from the 21x21 stencil quadrature: within 2% in L1
    theta = random_field(grid64, 8, 2.5, 7)
    est = coarse_grained_flux(theta, eps, with_remainder=True)
    assert est.r_l32 is not None
    assert est.decomposition_l1_error <= 0.02 * est.sigma_l1


def _reference_flux(theta, eps, profile):
    """Full-spectrum complex transforms and one 2d inverse FFT per stencil node.

    Returns (sigma_l1, flux_integral, r_l32, decomposition_l1_error, dr_field)
    with G = x^2 / 2.
    """
    area = (2 * np.pi) ** 2
    fine = pad_spectrum(theta, 2 * theta.grid.n)
    gf = fine.grid
    n2 = gf.n * gf.n
    mol = Mollifier(eps, profile)
    # every multiplier here is the symbol of a real operator, so its full
    # layout is the Hermitian completion of its half
    m = full_spectrum(mol.multiplier(gf))
    m1, m2 = (full_spectrum(v) for v in gf.velocity_multipliers)
    th_hat = full_spectrum(fine.coeffs)
    u1_hat, u2_hat = m1 * th_hat, m2 * th_hat

    def phys(c):
        return np.fft.ifft2(c).real * n2

    th, u1, u2 = phys(th_hat), phys(u1_hat), phys(u2_hat)
    th_eps, u1_eps, u2_eps = phys(m * th_hat), phys(m * u1_hat), phys(m * u2_hat)
    sigma1 = u1_eps * th_eps - phys(m * np.fft.fft2(u1 * th) / n2)
    sigma2 = u2_eps * th_eps - phys(m * np.fft.fft2(u2 * th) / n2)
    dth1_eps = phys(full_spectrum(1j * gf.k1 * gf.riesz_mask) * m * th_hat)
    dth2_eps = phys(full_spectrum(1j * gf.k2 * gf.riesz_mask) * m * th_hat)
    flux = float(np.mean(sigma1 * dth1_eps + sigma2 * dth2_eps)) * area
    sigma_l1 = float(np.mean(np.hypot(sigma1, sigma2))) * area

    offsets, weights = mol.stencil(gf, mol.multiplier(gf))
    ph = np.exp(-1j * np.outer(gf.wavenumbers, offsets))
    r1 = np.zeros_like(th)
    r2 = np.zeros_like(th)
    for b in range(len(offsets)):
        for a in range(len(offsets)):
            w = weights[b, a]
            if w == 0.0:
                continue
            phase = ph[:, b][:, None] * ph[:, a][None, :]
            dth = phys(th_hat * phase) - th
            r1 += w * (phys(u1_hat * phase) - u1) * dth
            r2 += w * (phys(u2_hat * phase) - u2) * dth
    r_l32 = (float(np.mean(np.hypot(r1, r2) ** 1.5)) * area) ** (2.0 / 3.0)
    d1 = (u1 - u1_eps) * (th - th_eps) - r1 - sigma1
    d2 = (u2 - u2_eps) * (th - th_eps) - r2 - sigma2
    decomposition = float(np.mean(np.hypot(d1, d2))) * area
    dr = -(dth1_eps * sigma1 + dth2_eps * sigma2)
    return sigma_l1, flux, r_l32, decomposition, dr[::2, ::2]


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
@pytest.mark.parametrize("eps", [0.25, 0.0625, 0.03125, 0.015625])
def test_flux_matches_reference(n, profile, eps):
    # the real-transform route and the difference-symbol remainder agree
    # with the complex full-spectrum route and its node loop to round-off
    theta = random_field(qglab.Grid(n), 8, 2.5, 7)
    est = coarse_grained_flux(theta, eps, profile, dr_profile=HALF_SQUARE)
    sigma_l1, flux, r_l32, decomposition, dr = _reference_flux(theta, eps, profile)
    assert est.sigma_l1 == pytest.approx(sigma_l1, rel=1e-12, abs=0.0)
    assert est.r_l32 == pytest.approx(r_l32, rel=1e-12, abs=0.0)
    assert est.decomposition_l1_error == pytest.approx(decomposition, rel=1e-12, abs=0.0)
    if eps >= 0.0625:
        # below, sigma . grad theta_eps cancels: the two sigma routes differ
        # by up to 2.1e-12 in the flux integral and the dr field
        assert est.flux_integral == pytest.approx(flux, rel=1e-12, abs=0.0)
        assert np.max(np.abs(est.dr_field.values - dr)) <= 1e-12 * np.max(np.abs(dr))


def _white_field(n, seed):
    """Standard-normal samples: every line of the spectrum is populated, the Nyquist lines too."""
    grid = qglab.Grid(n)
    return forward_transform(PhysicalField(grid, np.random.default_rng(seed).standard_normal((n, n))))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
@pytest.mark.parametrize("eps", [0.25, 0.0625])
def test_remainder_matches_reference_with_nyquist_content(n, profile, eps):
    # coarse Nyquist content puts the products u theta on the doubled
    # grid's Nyquist lines, where a shift of their spectrum would alias
    theta = _white_field(n, 11)
    est = coarse_grained_flux(theta, eps, profile)
    _, _, r_l32, decomposition, _ = _reference_flux(theta, eps, profile)
    assert est.r_l32 == pytest.approx(r_l32, rel=1e-12, abs=0.0)
    assert est.decomposition_l1_error == pytest.approx(decomposition, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("with_remainder", [True, False])
def test_flux_scan_matches_per_eps_flux(grid32, with_remainder):
    theta = random_field(grid32, 8, 2.0, 5)
    eps_list = [0.0625, 0.25, 0.125]
    scan = flux_scan(theta, eps_list, "raised-cosine", with_remainder)
    assert [est.eps for est in scan] == [0.25, 0.125, 0.0625]
    for est in scan:
        one = coarse_grained_flux(theta, est.eps, "raised-cosine", with_remainder)
        assert est == one


def test_remainder_skipped_when_disabled(grid32):
    est = coarse_grained_flux(qglab.single_mode(grid32, 1, 0), 0.25, with_remainder=False)
    assert est.r_l32 is None
    assert est.decomposition_l1_error is None
    assert est.dr_field is None  # no dr_profile given


def test_dr_profile_enters_dr_field(grid32):
    # G enters only through G''(theta_eps): the sqrt1p field is the
    # half-square one (G'' = 1) times (1 + theta_eps^2)^(-3/2) pointwise
    theta = random_field(grid32, 8, 2.0, 6)
    half = coarse_grained_flux(theta, 0.2, with_remainder=False, dr_profile=HALF_SQUARE).dr_field.values
    sqrt1p = coarse_grained_flux(theta, 0.2, with_remainder=False, dr_profile=SQRT1P).dr_field.values
    th_eps = inverse_transform(mollify(theta, Mollifier(0.2))).values
    expected = SQRT1P(th_eps) * half
    assert np.max(np.abs(sqrt1p - expected)) <= 1e-12 * np.max(np.abs(sqrt1p))
    assert np.max(np.abs(sqrt1p - half)) > 1e-3 * np.max(np.abs(half))


def test_dr_field_half_square_matches_flux(grid64):
    # with G = x^2/2 the dissipation field integrates to -flux_integral
    theta = random_field(grid64, 10, 2.0, 4)
    est = coarse_grained_flux(theta, 0.2, with_remainder=False, dr_profile=HALF_SQUARE)
    integral = (2 * np.pi) ** 2 * float(np.mean(est.dr_field.values))
    # the dr field is subsampled back to the coarse grid; products live
    # below its Nyquist so the quadrature is still exact
    assert integral == pytest.approx(-est.flux_integral, rel=1e-10, abs=1e-14)


def test_dr_field_shape_and_profile_tag(grid32):
    theta = random_field(grid32, 8, 2.0, 2)
    est = coarse_grained_flux(theta, 0.3, profile="raised-cosine", with_remainder=False, dr_profile=SQRT1P)
    assert est.profile == "raised-cosine"
    assert est.dr_field.values.shape == (32, 32)


def test_smooth_field_quadratic_decay(grid64):
    # a generic smooth band-limited field decays (at least) quadratically;
    # this representative keeps the fit above 2 over the canonical window
    theta = random_field(grid64, 6, 1.5, 1)
    slope = flux_decay_exponent(theta, 2.0, [2.0**-k for k in range(2, 7)])
    assert slope >= 2.0


def test_rough_field_onsager_scaling():
    g = qglab.Grid(128)
    s = 0.5
    theta = random_field(g, 60, s + 1.0, 3)
    slope = flux_decay_exponent(theta, s, [2.0**-k for k in range(2, 7)])
    assert slope >= 3.0 * s - 1.0 - 0.3


def test_onsager_critical_field_scaling():
    # at s = 1/3 the criticality bound 3s - 1 degenerates to 0: the fitted
    # exponent sits far below the quadratic decay of smooth fields while
    # respecting the bound with the usual 0.3 fit slack
    g = qglab.Grid(128)
    s = 1.0 / 3.0
    theta = random_field(g, 60, s + 1.0, 3)
    slope = flux_decay_exponent(theta, s, [2.0**-k for k in range(2, 7)])
    assert slope >= 3.0 * s - 1.0 - 0.3
    assert slope <= 1.0


@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
def test_flux_decay_exponent_is_fit_of_per_eps_flux(grid64, profile):
    theta = random_field(grid64, 20, 1.5, 3)
    eps_list = [2.0**-k for k in range(2, 7)]
    vals = [
        abs(coarse_grained_flux(theta, e, profile=profile, with_remainder=False).flux_integral)
        for e in eps_list
    ]
    assert flux_decay_exponent(theta, 0.5, eps_list, profile=profile) == fit_loglog_slope(eps_list, vals)


def test_flux_decay_degenerate_for_steady_mode(grid32):
    with pytest.raises(DegenerateFit):
        flux_decay_exponent(qglab.single_mode(grid32, 1, 0), 1.0, [0.25, 0.125, 0.0625])


def test_eps_must_be_positive(grid32):
    with pytest.raises(ValueError):
        coarse_grained_flux(qglab.single_mode(grid32, 1, 0), 0.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_eps_must_be_finite(grid32, eps):
    theta = random_field(grid32, 8, 2.0, 5)
    with pytest.raises(ValueError):
        Mollifier(eps)
    with pytest.raises(ValueError):
        coarse_grained_flux(theta, eps)
    with pytest.raises(ValueError):
        flux_decay_exponent(theta, 0.5, [0.25, eps, 0.0625])


@pytest.mark.parametrize("exponent", [300, -300])
def test_magnitudes_are_scale_covariant(exponent):
    # a power-of-two scale a is exact in every transform and product, so
    # sigma_eps and the defect d scale by exactly a^2 and u by a, also where
    # the squares of the components leave the double range; r_l32 takes its
    # 2/3 power as float(2/3), which leaves it 2.3e-14 off a^2 (measured)
    theta = random_field(qglab.Grid(32), 8, 2.5, 7)
    a = 2.0**exponent
    scaled = theta * a
    eps_list = [0.25, 0.0625]
    for est, big in zip(flux_scan(theta, eps_list), flux_scan(scaled, eps_list)):
        assert big.sigma_l1 == a * a * est.sigma_l1
        assert big.decomposition_l1_error == a * a * est.decomposition_l1_error
        assert big.r_l32 == pytest.approx(a * a * est.r_l32, rel=1e-13, abs=0.0)
    q_inf = state_norms(theta, (), (), 2.0)[2]
    assert state_norms(scaled, (), (), 2.0)[2] == a * q_inf


def test_flux_scan_validates_before_padding(grid32, monkeypatch):
    def too_early(*args):
        raise AssertionError("padded or transformed before validating eps")

    for name in ("pad_spectrum", "_rfft2", "_irfft2", "product_spectra"):
        monkeypatch.setattr(qglab.diagnostics, name, too_early)
    theta = random_field(grid32, 8, 2.0, 5)
    for scan in (flux_scan, lambda theta, eps_list: flux_decay_exponent(theta, 0.5, eps_list)):
        with pytest.raises(ValueError):
            scan(theta, [0.25, 0.125, np.nan])
        with pytest.raises(ValueError):
            scan(theta, [])


def _padded_reference(theta):
    """(grid, spectra and fields of (u1, u2, theta), spectra of (u1 theta, u2 theta)) on the doubled grid.

    Formed by numpy's 2-D transform pair, whose bits the staged transforms
    of the flux front reproduce.
    """
    fine = pad_spectrum(theta, 2 * theta.grid.n)
    gf = fine.grid
    fields_hat = np.concatenate([gf.velocity_multipliers * fine.coeffs, [fine.coeffs]])
    fields = np.fft.irfft2(fields_hat, norm="forward")
    return gf, fields_hat, fields, np.fft.rfft2(fields[:2] * fields[2], norm="forward")


def _plain_flux_terms(theta, mol):
    """Plain doubled-grid quadratures at one scale, every field from its own inverse transform.

    Returns (integral u_eps theta_eps . grad theta_eps, |u_eps theta_eps|_2,
    integral sigma_eps . grad theta_eps, |sigma_eps|_2, |grad theta_eps|_2).
    """
    gf, fields_hat, _, uth_hat = _padded_reference(theta)
    m = mol.multiplier(gf)
    u1, u2, th = np.fft.irfft2(m * fields_hat, norm="forward")
    d1, d2 = np.fft.irfft2(gf.dealiased_gradient * (m * fields_hat[2]), norm="forward")
    f1, f2 = np.fft.irfft2(m * uth_hat, norm="forward")
    s1, s2 = u1 * th - f1, u2 * th - f2

    def integral(f):
        return float(np.mean(f)) * CELL_AREA_FACTOR

    def l2(a, b):
        return np.sqrt(integral(a * a + b * b))

    return (integral(u1 * th * d1 + u2 * th * d2), l2(u1 * th, u2 * th),
            integral(s1 * d1 + s2 * d2), l2(s1, s2), l2(d1, d2))


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
@pytest.mark.parametrize("data", ["random", "white"])
def test_flux_integral_is_parseval_pairing(n, profile, data):
    # u_eps is divergence free, so integral u_eps theta_eps . grad theta_eps
    # vanishes and the flux is -integral (u theta)_eps . grad theta_eps.
    # Measured worst cases over this grid: 1.3e-17 for the first, relative
    # to |u_eps theta_eps|_2 |grad theta_eps|_2, and 1.5e-14 for the flux,
    # relative to |sigma_eps|_2 |grad theta_eps|_2 (n = 16, eps = 1/64,
    # where sigma_eps is the cancelling difference of the plain route).
    # The smallest |flux| on that scale is 7e-5, so a flipped sign or a
    # missing Parseval weight is far outside the bound.
    theta = random_field(qglab.Grid(n), n // 2 - 1, 1.5, n) if data == "random" else _white_field(n, n)
    for est in flux_scan(theta, [2.0**-k for k in range(2, 7)], profile, with_remainder=False):
        advected, advected_l2, flux, sigma_l2, grad_l2 = _plain_flux_terms(theta, Mollifier(est.eps, profile))
        assert abs(advected) <= 1e-15 * advected_l2 * grad_l2
        assert abs(est.flux_integral - flux) <= 1e-13 * sigma_l2 * grad_l2


def test_flux_decay_exponent_transforms_once(monkeypatch):
    # one inverse transform of (u1, u2, theta) and one forward transform of
    # the products for any number of scales, both in `product_spectra`, no
    # per-eps workspace, and a traced peak at N = 256 of 7.54 grid fields:
    # the padded spectrum, the inverse's input and its fields, which the
    # products and their spectra overwrite, and the pairing
    theta = random_field(qglab.Grid(128), 60, 1.5, 3)
    field = 256 * 256 * 8
    calls = {"_rfft2": 0, "_irfft2": 0}
    for name in calls:
        def counted(*args, _name=name, _transform=getattr(qglab.spectral, name), **kwargs):
            calls[_name] += 1
            return _transform(*args, **kwargs)

        # the front's own calls and those of `spectral.product_spectra`
        for module in (qglab.diagnostics, qglab.spectral):
            monkeypatch.setattr(module, name, counted)

    def no_workspace(*args):
        raise AssertionError("flux_decay_exponent built a flux workspace")

    monkeypatch.setattr(qglab.diagnostics, "_FluxWork", no_workspace)
    flux_decay_exponent(theta, 0.5, [0.25, 0.125])  # warm-up: numpy's transform plans, grid symbols
    for count in (2, 5, 11):
        calls.update(_rfft2=0, _irfft2=0)
        tracemalloc.start()
        try:
            flux_decay_exponent(theta, 0.5, [2.0**-k for k in range(1, count + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == {"_rfft2": 1, "_irfft2": 1}
        assert peak <= 8.0 * field


def test_cold_flux_decay_exponent_peak_memory(monkeypatch):
    # traced peak at N = 256, in float64 half-spectrum planes 256 x 129, of a
    # call that also builds the doubled grid's symbols: measured 25.48, the
    # warm call's 7.67 grid fields (15.2 planes) and the symbols (10.3); a
    # second copy of the Riesz pair with a plane of ones and the temporaries
    # of building the stacks peaked at 34.7
    theta = random_field(qglab.Grid(128), 60, 1.5, 3)
    eps = [0.25, 0.125, 0.0625]
    flux_decay_exponent(theta, 0.5, eps)  # warm-up: numpy's transform plans
    monkeypatch.setattr(qglab.spectral, "_shared_grid", functools.cache(qglab.Grid))  # a cold doubled grid
    tracemalloc.start()
    try:
        flux_decay_exponent(theta, 0.5, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26.0 * 256 * 129 * 8


@pytest.mark.parametrize("with_remainder", [True, False])
def test_coarse_grained_flux_peak_memory(with_remainder):
    # traced peak at N = 128 in grid fields, measured 26.60 with the
    # remainder and 18.18 without: the workspace (23.1 or 16.1, the front's
    # arrays included), the pairing, and the largest per-eps temporaries,
    # with the remainder those of the stencil and the difference symbol
    theta = random_field(qglab.Grid(64), 16, 2.5, 1)
    field = 128 * 128 * 8
    coarse_grained_flux(theta, 0.25, with_remainder=with_remainder)  # warm-up: plans, grid symbols
    tracemalloc.start()
    try:
        coarse_grained_flux(theta, 0.0625, with_remainder=with_remainder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (27.0 if with_remainder else 18.6) * field


def _flux_at_scale_reference(grid, padded, mol, with_remainder, dr_profile):
    """One scale of `flux_scan` as plain expressions, every field a fresh array."""
    gf, fields_hat, (u1, u2, th), uth_hat = padded
    m = mol.multiplier(gf)
    u1_eps, u2_eps, th_eps = np.fft.irfft2(m * fields_hat, norm="forward")
    uth1_eps, uth2_eps = np.fft.irfft2(m * uth_hat, norm="forward")
    sigma1 = u1_eps * th_eps - uth1_eps
    sigma2 = u2_eps * th_eps - uth2_eps
    # -integral (u theta)_eps . grad theta_eps by Parseval over the half spectrum:
    # the pairing lives on the columns and rows of the padded theta, so it is
    # summed on theta's own slots, the doubled grid's k2 = -n/2 row folded
    # into the +n/2 row
    c, half = grid.n // 2 + 1, grid.n // 2
    full = CELL_AREA_FACTOR * gf.parseval_weights[:c] * np.sum(
        uth_hat[..., :c] * np.conj(gf.dealiased_gradient[..., :c] * fields_hat[2][:, :c]), axis=0).real
    pairing = full[grid.wavenumbers.astype(int) % gf.n]
    pairing[half] += full[gf.n - half]
    m_coarse = mol.multiplier(grid)
    flux = -float(np.sum(m_coarse * m_coarse * pairing))
    sigma_l1 = float(np.mean(np.abs(sigma1 + 1j * sigma2))) * CELL_AREA_FACTOR
    est = FluxEstimate(eps=mol.eps, profile=mol.profile, sigma_l1=sigma_l1, flux_integral=flux)
    if with_remainder:
        offsets, weights = mol.stencil(gf, m)
        diff = _difference_symbol(gf, offsets, weights)
        du1, du2, dth, duth1, duth2 = np.fft.irfft2(diff * np.concatenate([fields_hat, uth_hat]), norm="forward")
        r1 = duth1 - u1 * dth - th * du1
        r2 = duth2 - u2 * dth - th * du2
        rmag = np.abs(r1 + 1j * r2)
        est.r_l32 = (float(np.mean(rmag * np.sqrt(rmag))) * CELL_AREA_FACTOR) ** (2.0 / 3.0)
        d1 = (u1 - u1_eps) * (th - th_eps) - r1 - sigma1
        d2 = (u2 - u2_eps) * (th - th_eps) - r2 - sigma2
        est.decomposition_l1_error = float(np.mean(np.abs(d1 + 1j * d2))) * CELL_AREA_FACTOR
    if dr_profile is not None:
        dth1_eps, dth2_eps = np.fft.irfft2(gf.dealiased_gradient * (m * fields_hat[2]), norm="forward")
        dr = dr_profile(th_eps) * (dth1_eps * (-sigma1) + dth2_eps * (-sigma2))
        est.dr_field = PhysicalField(grid, dr[::2, ::2])
    return est


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("eps", [0.25, 0.0625])
@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
@pytest.mark.parametrize("with_remainder", [True, False])
@pytest.mark.parametrize("dr_profile", [None, SQRT1P], ids=["no-dr", "sqrt1p"])
def test_flux_workspace_matches_reference_expressions(n, eps, profile, with_remainder, dr_profile):
    # the staged transforms into the workspace and the in-place elementwise
    # work give the bits of the plain expressions
    theta = random_field(qglab.Grid(n), n // 4, 2.5, n)
    got = flux_scan(theta, [eps], profile, with_remainder, dr_profile)[0]
    want = _flux_at_scale_reference(theta.grid, _padded_reference(theta), Mollifier(eps, profile),
                                    with_remainder, dr_profile)
    for name in ("sigma_l1", "flux_integral", "r_l32", "decomposition_l1_error"):
        assert getattr(got, name) == getattr(want, name), name
    if dr_profile is not None:
        assert np.array_equal(got.dr_field.values, want.dr_field.values)


def test_flux_scan_allocates_nothing_per_eps_beyond_multiplier(monkeypatch):
    # at N = 256 the second eps allocates only the mollifier multiplier and
    # its temporaries, measured 1.51 grid fields at peak, and keeps only
    # its FluxEstimate; with fresh arrays per eps it peaked at 11.5 fields.
    # The first eps also fills the doubled grid's cached symbols.
    theta = random_field(qglab.Grid(128), 32, 2.5, 1)
    field = 256 * 256 * 8
    per_eps = []
    at_scale = qglab.diagnostics._flux_at_scale

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        est = at_scale(*args)
        current, peak = tracemalloc.get_traced_memory()
        per_eps.append((peak - before, current - before))
        return est

    monkeypatch.setattr(qglab.diagnostics, "_flux_at_scale", measured)
    flux_scan(theta, [0.25], with_remainder=False)  # warm-up: numpy's transform plans
    per_eps.clear()
    tracemalloc.start()
    try:
        flux_scan(theta, [0.25, 0.125], with_remainder=False)
    finally:
        tracemalloc.stop()
    peak, kept = per_eps[1]
    assert peak <= 2.0 * field
    assert kept <= 1024
