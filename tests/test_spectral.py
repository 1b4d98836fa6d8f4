import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qglab
from qglab import (
    Grid,
    Mollifier,
    PhysicalField,
    SpectralField,
    apply_sqrt_laplacian,
    dealias,
    forward_transform,
    hermitian_defect,
    inverse_transform,
    mollify,
    pad_spectrum,
    riesz_velocity,
    translate,
)
from qglab.errors import NegativePowerOnMean, ValidationError

from conftest import full_spectrum, random_field


def _numpy_fft_uses(tree):
    """Line numbers of every np.fft / numpy.fft reference and every import from numpy.fft."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.fft") or (
                node.module == "numpy" and any(a.name == "fft" for a in node.names)
            ):
                yield node.lineno
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            yield node.lineno


def test_only_spectral_calls_numpy_fft():
    # the transform convention is written once, in spectral.py
    src = Path(qglab.__file__).resolve().parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spectral.py"
        for line in _numpy_fft_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(7)
    with pytest.raises(ValueError):
        Grid(6)
    assert Grid(8).n == 8


def test_grid_arrays_are_read_only(grid16):
    for name in ("x1", "x2", "k1", "k2"):
        assert not getattr(grid16, name).flags.writeable
    assert grid16.k1.shape == grid16.k2.shape == (16, 9)


def test_physical_field_rejects_nonfinite(grid16):
    values = np.zeros((16, 16))
    values[3, 4] = np.nan
    with pytest.raises(ValueError):
        PhysicalField(grid16, values)


def test_fields_hold_frozen_private_copies(grid16):
    c = qglab.single_mode(grid16, 1, 2).coeffs.copy()
    values = np.cos(grid16.x1)
    f, p = SpectralField(grid16, c), PhysicalField(grid16, values)
    c[2, 1] += 1.0
    values[0, 0] += 1.0
    assert f.coeffs[2, 1] == 0.5 and p.values[0, 0] == 1.0  # later edits do not reach the fields
    assert c.flags.writeable and values.flags.writeable  # the caller's arrays keep their flags
    assert not f.coeffs.flags.writeable and not p.values.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.coeffs = c
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.values = values


@pytest.mark.parametrize("slot", [(1, 0), (3, 8), (8, 0)])
def test_spectral_field_must_be_real(grid16, slot):
    # k1 = 0 and k1 = n/2 hold both k and -k: an unmatched entry is not real
    c = np.zeros(grid16.shape, dtype=complex)
    c[slot] = 1j
    with pytest.raises(ValidationError, match="real"):
        SpectralField(grid16, c)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_field_must_be_finite(grid16, bad):
    c = qglab.single_mode(grid16, 1, 2).coeffs.copy()
    c[2, 3] = bad
    with pytest.raises(ValidationError, match="real"):
        SpectralField(grid16, c)


def test_forward_constant_field(grid16):
    f = forward_transform(PhysicalField(grid16, np.ones((16, 16))))
    assert f.coeffs[0, 0] == pytest.approx(1.0, abs=1e-15)
    rest = f.coeffs.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-15


def test_forward_cosine_mode(grid16):
    f = full_spectrum(forward_transform(PhysicalField(grid16, np.cos(grid16.x1))).coeffs)
    assert f[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert f[0, -1] == pytest.approx(0.5, abs=1e-15)
    others = f.copy()
    others[0, 1] = others[0, -1] = 0.0
    assert np.max(np.abs(others)) < 1e-14


def test_round_trip(grid64):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((64, 64))
    back = inverse_transform(forward_transform(PhysicalField(grid64, values)))
    assert np.max(np.abs(back.values - values)) <= 1e-12


def test_sqrt_laplacian_single_modes(grid32):
    g = grid32
    f = qglab.single_mode(g, 2, 0)
    out = inverse_transform(apply_sqrt_laplacian(f, 1.0))
    assert np.max(np.abs(out.values - 2.0 * np.cos(2 * g.x1))) < 1e-12

    h = forward_transform(PhysicalField(g, np.sin(g.x1) * np.cos(g.x2)))
    out = inverse_transform(apply_sqrt_laplacian(h, 0.5))
    expect = 2.0**0.25 * np.sin(g.x1) * np.cos(g.x2)
    assert np.max(np.abs(out.values - expect)) < 1e-12


def test_sqrt_laplacian_kills_constant(grid16):
    f = forward_transform(PhysicalField(grid16, np.ones((16, 16))))
    out = apply_sqrt_laplacian(f, 1.0)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_sqrt_laplacian_negative_power_requires_zero_mean(grid16):
    f = forward_transform(PhysicalField(grid16, 1.0 + np.cos(grid16.x1)))
    with pytest.raises(NegativePowerOnMean):
        apply_sqrt_laplacian(f, -0.5)
    zero_mean = qglab.single_mode(grid16, 1, 0)
    out = apply_sqrt_laplacian(zero_mean, -0.5)  # |k| = 1: unchanged
    assert np.max(np.abs(out.coeffs - zero_mean.coeffs)) < 1e-15


def test_sqrt_laplacian_zero_power_is_identity(grid16):
    f = forward_transform(PhysicalField(grid16, 1.0 + np.cos(grid16.x1)))
    out = apply_sqrt_laplacian(f, 0.0)
    assert np.array_equal(out.coeffs, f.coeffs)


@pytest.mark.parametrize("seed", range(20))
def test_sqrt_laplacian_composition(grid64, seed):
    f = random_field(grid64, 20, 2.0, seed)
    a, b = 0.7, -0.3
    left = apply_sqrt_laplacian(apply_sqrt_laplacian(f, a), b)
    right = apply_sqrt_laplacian(f, a + b)
    scale = np.max(np.abs(right.coeffs))
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale


def test_riesz_velocity_cos_x1(grid32):
    u1, u2 = riesz_velocity(qglab.single_mode(grid32, 1, 0))
    assert np.max(np.abs(inverse_transform(u1).values)) < 1e-14
    expect = np.sin(grid32.x1)
    assert np.max(np.abs(inverse_transform(u2).values - expect)) < 1e-13


def test_riesz_velocity_cos_x2(grid32):
    u1, u2 = riesz_velocity(qglab.single_mode(grid32, 0, 1))
    expect = -np.sin(grid32.x2)
    assert np.max(np.abs(inverse_transform(u1).values - expect)) < 1e-13
    assert np.max(np.abs(inverse_transform(u2).values)) < 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_riesz_velocity_divergence_free(grid64, seed):
    theta = random_field(grid64, 20, 1.5, seed)
    u1, u2 = riesz_velocity(theta)
    div = grid64.k1 * u1.coeffs + grid64.k2 * u2.coeffs
    assert np.max(np.abs(div)) <= 1e-13 * max(np.max(np.abs(theta.coeffs)), 1.0)


def _riesz(theta, j):
    u1, u2 = riesz_velocity(theta)
    return u2 if j == 1 else -1.0 * u1


@pytest.mark.parametrize("seed", range(10))
def test_riesz_squares_sum_to_minus_identity(grid64, seed):
    theta = random_field(grid64, 20, 2.0, seed)
    total = _riesz(_riesz(theta, 1), 1) + _riesz(_riesz(theta, 2), 2)
    err = np.max(np.abs(total.coeffs + theta.coeffs))
    assert err <= 1e-12 * np.max(np.abs(theta.coeffs))


def test_dealias_two_thirds_rule():
    g = Grid(12)
    c = np.zeros((12, 7), dtype=complex)
    c[0, 5] = 1.0  # k = (5, 0): 5 > 12/3
    c[0, 4] = 1.0  # k = (4, 0): kept at equality
    out = dealias(SpectralField(g, c))
    assert out.coeffs[0, 5] == 0.0
    assert out.coeffs[0, 4] == 1.0


def test_dealias_idempotent_on_band_limited(grid64):
    f = random_field(grid64, 20, 2.0, 0)
    once = dealias(f)
    assert np.array_equal(once.coeffs, dealias(once).coeffs)
    assert np.array_equal(once.coeffs, f.coeffs)  # kmax 20 <= 64/3


@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
def test_mollifier_multiplier_invariants(grid64, profile):
    for eps in (0.05, 0.25, 1.0):
        m = Mollifier(eps, profile).multiplier(grid64)
        assert m[0, 0] == 1.0
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        # radially nonincreasing: sort by |k| and check cummax of reversed
        order = np.argsort(grid64.kabs.ravel())
        vals = m.ravel()[order]
        radii = grid64.kabs.ravel()[order]
        diffs = np.diff(vals)
        grew = diffs > 1e-12
        assert not np.any(grew & (np.diff(radii) > 0))


def test_mollify_preserves_constant(grid16):
    f = forward_transform(PhysicalField(grid16, np.full((16, 16), 2.5)))
    out = mollify(f, Mollifier(0.7))
    assert out.coeffs[0, 0] == pytest.approx(2.5, abs=1e-15)


def test_mollify_gaussian_amplitude(grid16):
    # eps = 1 makes m((1,0)) = exp(-1/2)
    f = qglab.single_mode(grid16, 1, 0)
    out = inverse_transform(mollify(f, Mollifier(1.0, "gaussian")))
    expect = np.exp(-0.5) * np.cos(grid16.x1)
    assert np.max(np.abs(out.values - expect)) < 1e-14


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_mollify_approximation_rate(s):
    # |F - F_eps|_2 ~ eps^s for a |k|^-(s+1) spectrum; oracle is the direct
    # coefficient sum, cross-checked against the mollify operation itself.
    g = Grid(1024)
    amp = np.where((g.kabs > 0) & (g.kabs <= 500), g.kabs_safe ** -(s + 1.0), 0.0)
    f = SpectralField(g, amp.astype(complex))  # real even coefficients: a real field
    eps_list = [2.0**-k for k in range(2, 7)]
    oracle = []
    via_op = []
    for eps in eps_list:
        m = Mollifier(eps).multiplier(g)
        oracle.append(2.0 * np.pi * np.sqrt(np.sum(np.abs(full_spectrum((1.0 - m) * amp)) ** 2)))
        diff = f - mollify(f, Mollifier(eps))
        via_op.append(qglab.sobolev_norm(diff, 0.0))
    assert np.allclose(via_op, oracle, rtol=1e-12)
    slope = np.polyfit(np.log(eps_list), np.log(oracle), 1)[0]
    assert abs(slope - s) <= 0.15


@pytest.mark.parametrize("seed", range(10))
def test_parseval(grid64, seed):
    f = random_field(grid64, 20, 1.5, seed)
    phys = inverse_transform(f)
    integral = (2 * np.pi) ** 2 * np.mean(phys.values**2)
    spectral = (2 * np.pi) ** 2 * np.sum(np.abs(full_spectrum(f.coeffs)) ** 2)
    assert integral == pytest.approx(spectral, rel=1e-10)


def test_hermitian_symmetry_preserved(grid64):
    f = random_field(grid64, 20, 1.5, 4)
    ops = [
        lambda x: apply_sqrt_laplacian(x, 0.7),
        lambda x: riesz_velocity(x)[0],
        lambda x: riesz_velocity(x)[1],
        dealias,
        lambda x: mollify(x, Mollifier(0.3)),
        lambda x: pad_spectrum(x, 128),
    ]
    for op in ops:
        out = op(f)
        assert hermitian_defect(out) <= 1e-13 * max(np.max(np.abs(out.coeffs)), 1e-30)


def test_pad_spectrum_reproduces_coarse_nodes(grid32):
    f = random_field(grid32, 10, 1.5, 9)
    fine = pad_spectrum(f, 64)
    coarse_vals = inverse_transform(f).values
    fine_vals = inverse_transform(fine).values
    assert np.max(np.abs(fine_vals[::2, ::2] - coarse_vals)) < 1e-12


def test_pad_spectrum_handles_nyquist(grid16):
    # a field with energy on the Nyquist line stays real and consistent
    values = np.cos(8 * grid16.x1)
    f = forward_transform(PhysicalField(grid16, values))
    fine = pad_spectrum(f, 32)
    assert hermitian_defect(fine) < 1e-13
    assert np.max(np.abs(inverse_transform(fine).values[::2, ::2] - values)) < 1e-12


def _dense_pad(f, m):
    # reference: the embedding as a dense (m, n) matrix applied on both sides
    # of the full spectrum, cut back to the half spectrum
    n = f.grid.n
    b = np.zeros((m, n))
    for s, k in enumerate(f.grid.wavenumbers.astype(int)):
        if abs(k) < n // 2:
            b[k % m, s] = 1.0
        else:
            b[(n // 2) % m, s] = 0.5
            b[(-(n // 2)) % m, s] = 0.5
    return (b @ full_spectrum(f.coeffs) @ b.T)[:, : m // 2 + 1]


@settings(max_examples=25, deadline=None)
@given(
    half_n=st.integers(4, 24),
    extra=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_pad_spectrum_property(half_n, extra, seed):
    n, m = 2 * half_n, 2 * (half_n + extra)
    values = np.random.default_rng(seed).standard_normal((n, n))
    f = forward_transform(PhysicalField(Grid(n), values))
    fine = pad_spectrum(f, m)
    assert np.array_equal(fine.coeffs, f.coeffs if m == n else _dense_pad(f, m))
    full = full_spectrum(fine.coeffs)
    assert np.max(np.abs(np.fft.ifft2(full).imag)) * m * m <= 1e-12
    # the fine trigonometric polynomial evaluated at the coarse nodes
    e = np.exp(1j * np.outer(Grid(n).nodes, fine.grid.wavenumbers))
    assert np.max(np.abs((e @ full @ e.T).real - values)) <= 1e-12


def test_translate_matches_roll(grid32):
    f = random_field(grid32, 10, 2.0, 1)
    h = 2 * np.pi / 32
    shifted = inverse_transform(translate(f, 3 * h, 5 * h)).values
    rolled = np.roll(inverse_transform(f).values, (5, 3), axis=(0, 1))
    assert np.max(np.abs(shifted - rolled)) < 1e-12


def _white(n, seed):
    """Standard-normal samples: every spectral line is populated, the Nyquist lines too."""
    values = np.random.default_rng(seed).standard_normal((n, n))
    return forward_transform(PhysicalField(Grid(n), values))


@pytest.mark.parametrize("n", [16, 32])
def test_translate_with_nyquist_content(n):
    f = _white(n, n)
    # off-grid shift: exact on the doubled grid, sampled back on every second node
    a1, a2 = 0.3, 0.7
    fine = inverse_transform(translate(pad_spectrum(f, 2 * n), a1, a2)).values[::2, ::2]
    assert np.max(np.abs(inverse_transform(translate(f, a1, a2)).values - fine)) <= 1e-12
    # grid shift: a roll of the samples
    h = 2 * np.pi / n
    rolled = np.roll(inverse_transform(f).values, (5, 3), axis=(0, 1))
    assert np.max(np.abs(inverse_transform(translate(f, 3 * h, 5 * h)).values - rolled)) <= 1e-12


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("eps", [0.25, 0.0625])
@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
def test_stencil_weights_mirror_symmetric(n, eps, profile):
    # the kernel is even in each coordinate, so its sampled weights are too
    _, w = Mollifier(eps, profile).stencil(Grid(n))
    assert np.max(np.abs(w - w[::-1])) <= 1e-14 * np.max(w)
    assert np.max(np.abs(w - w[:, ::-1])) <= 1e-14 * np.max(w)


@settings(max_examples=25, deadline=None)
@given(
    half_n=st.integers(4, 48),
    kfrac=st.floats(0.05, 0.95),
    a=st.floats(-1.5, 1.5),
    b=st.floats(-1.5, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_identities(half_n, kfrac, a, b, seed):
    # zero-mean fields strictly below the Nyquist lines, on random even n
    grid = Grid(2 * half_n)
    theta = qglab.random_shell_field(grid, max(1.0, kfrac * (half_n - 1)), 2.0, seed)
    scale = np.max(np.abs(theta.coeffs))
    total = _riesz(_riesz(theta, 1), 1) + _riesz(_riesz(theta, 2), 2)  # R1^2 + R2^2 = -I
    assert np.max(np.abs(total.coeffs + theta.coeffs)) <= 1e-12 * scale
    left = apply_sqrt_laplacian(apply_sqrt_laplacian(theta, a), b)  # Lambda^a Lambda^b
    right = apply_sqrt_laplacian(theta, a + b)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * np.max(np.abs(right.coeffs))
    u1, u2 = riesz_velocity(theta)  # k . u_hat = 0
    assert np.max(np.abs(grid.k1 * u1.coeffs + grid.k2 * u2.coeffs)) <= 1e-13 * scale
