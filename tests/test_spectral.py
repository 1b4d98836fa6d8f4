import ast
import dataclasses
import tracemalloc
from functools import cached_property
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
    inverse_transform,
    mollify,
    pad_spectrum,
    riesz_velocity,
)
from qglab.errors import NegativePowerOnMean, ValidationError
from qglab.spectral import (
    STENCIL_HALF_WIDTH,
    STENCIL_POINTS,
    _hermitian_defects,
    _irfft2,
    _rfft2,
    check_real_spectra,
    node_fields,
    product_spectra,
)

from conftest import full_spectrum, random_field


def _is_numpy_fft(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "fft"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _numpy_fft_uses(node, scope="<module>"):
    """(line, enclosing function, name read off np.fft or None) of every numpy.fft use under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_fft_uses(child, child.name)
        elif isinstance(child, ast.Attribute) and _is_numpy_fft(child.value):
            yield child.lineno, scope, child.attr
        elif _is_numpy_fft(child):
            yield child.lineno, scope, None
        elif isinstance(child, ast.ImportFrom) and child.module and (
            child.module.startswith("numpy.fft")
            or (child.module == "numpy" and any(a.name == "fft" for a in child.names))
        ):
            yield child.lineno, scope, None
        elif isinstance(child, ast.Import) and any(a.name.startswith("numpy.fft") for a in child.names):
            yield child.lineno, scope, None
        else:
            yield from _numpy_fft_uses(child, scope)


def test_only_spectral_calls_numpy_fft():
    # the transform convention is written once: every np.fft transform runs
    # in spectral._rfft2 / _irfft2, and Grid.wavenumbers reads fftfreq
    src = Path(qglab.__file__).resolve().parent
    allowed = {"_rfft2": {"rfft", "fft"}, "_irfft2": {"ifft", "irfft"}, "wavenumbers": {"fftfreq"}}
    seen, offenders = set(), []
    for path in sorted(src.glob("*.py")):
        for line, scope, name in _numpy_fft_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == "spectral.py" and name in allowed.get(scope, ()):
                seen.add(scope)
            else:
                offenders.append(f"{path.name}:{line} {scope} np.fft.{name}")
    assert offenders == []
    assert seen == set(allowed)  # the walk finds the allowed uses


_SYMBOL_BASES = {"kabs", "kabs_safe", "hypot"}


def _reads_symbol_base(node):
    return any(
        (isinstance(n, ast.Attribute) and n.attr in _SYMBOL_BASES) or (isinstance(n, ast.Name) and n.id in _SYMBOL_BASES)
        for n in ast.walk(node)
    )


def _scoped_matches(node, match, scope="<module>"):
    """(line, enclosing class.function) of every node under `node` for which `match` holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            yield from _scoped_matches(child, match, inner)
            continue
        if match(child):
            yield child.lineno, scope
        yield from _scoped_matches(child, match, scope)


def _is_symbol_power(node):
    """Whether `node` is a power whose base reads kabs, kabs_safe or hypot."""
    base = None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base = node.left
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
        base = node.target
    elif isinstance(node, ast.Call) and node.args:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("power", "float_power"):
            base = node.args[0]
    return base is not None and _reads_symbol_base(base)


def _is_hypot(node):
    """Whether `node` names hypot: np.hypot, numpy.hypot, math.hypot, a bare or an imported hypot."""
    return (
        (isinstance(node, ast.Attribute) and node.attr == "hypot")
        or (isinstance(node, ast.Name) and node.id == "hypot")
        or (isinstance(node, ast.alias) and node.name == "hypot")
    )


def _uses_outside(match, allowed):
    """(offenders, seen): the uses that `match` finds in src/qglab outside and inside the `allowed` (file, scope)."""
    src = Path(qglab.__file__).resolve().parent
    seen, offenders = set(), []
    for path in sorted(src.glob("*.py")):
        for line, scope in _scoped_matches(ast.parse(path.read_text(encoding="utf-8")), match):
            if (path.name, scope) in allowed:
                seen.add((path.name, scope))
            else:
                offenders.append(f"{path.name}:{line} {scope}")
    return offenders, seen


def test_only_the_symbol_raises_kabs_to_a_power():
    # |k|^beta is written once, in Grid.sqrt_laplacian, and once more in the
    # regularized kernel, which takes bare wavenumbers
    allowed = {("spectral.py", "Grid.sqrt_laplacian"), ("models.py", "regularized_gradient_kernel")}
    offenders, seen = _uses_outside(_is_symbol_power, allowed)
    assert offenders == []
    assert seen == allowed  # the walk finds the allowed uses


def test_hypot_only_in_one_time_symbol_builds():
    # a magnitude formed per call is numpy's vectorized complex absolute
    # (diagnostics._magnitude); libm's scalar hypot, several times slower
    # over a grid, builds only the symbols that are formed once
    allowed = {("spectral.py", "Grid.kabs"), ("models.py", "regularized_gradient_kernel")}
    offenders, seen = _uses_outside(_is_hypot, allowed)
    assert offenders == []
    assert seen == allowed  # the walk finds the allowed uses


def test_the_hypot_walk_finds_planted_uses():
    planted = (
        "import numpy as np\n"
        "from math import hypot\n"
        "class Field:\n"
        "    def size(self, x, y):\n"
        "        return np.hypot(x, y) + hypot(1.0, 2.0)\n"
    )
    found = list(_scoped_matches(ast.parse(planted), _is_hypot))
    assert found == [(2, "<module>"), (5, "Field.size"), (5, "Field.size")]


@pytest.mark.parametrize("power", [0.0, 0.5, 1.0, 2.0, 4.0, -1.5])
def test_grid_sqrt_laplacian_symbol(grid16, power):
    sym = grid16.sqrt_laplacian(power)
    assert sym.shape == grid16.shape and sym.dtype == np.float64
    assert sym[0, 0] == (1.0 if power == 0.0 else 0.0)
    k = np.hypot(grid16.k1, grid16.k2)
    assert np.array_equal(sym[k > 0], k[k > 0] ** power)
    # a fresh writable array per call, sharing no memory with the grid's arrays
    again = grid16.sqrt_laplacian(power)
    assert sym.flags.writeable and again is not sym
    assert not any(np.shares_memory(sym, a) for a in (again, grid16.kabs))
    sym[...] = -1.0
    assert np.array_equal(grid16.sqrt_laplacian(power), again)
    # the H^s weight at s = power / 2 (0, 0.5 and 2 among others), bit for
    # bit the Parseval weights times this symbol, and fresh like it
    weights = grid16.sobolev_weights(power / 2.0)
    assert weights.tobytes() == (grid16.parseval_weights * again).tobytes()
    assert weights.flags.writeable and not np.shares_memory(weights, grid16.parseval_weights)
    weights[...] = -1.0
    assert grid16.sobolev_weights(power / 2.0).tobytes() == (grid16.parseval_weights * again).tobytes()


_SYMBOLS = [name for name, attr in vars(Grid).items() if isinstance(attr, cached_property)]


@pytest.mark.parametrize("name", _SYMBOLS)
def test_grid_symbols_are_read_only(name):
    # a grid's symbols are shared by every caller of the grid, on the doubled
    # grid by every flux study in the process: a write must fail, not leak
    symbol = getattr(Grid(16), name)
    with pytest.raises(ValueError, match="read-only"):
        symbol[...] = 0


# All cached symbols of a grid in float64 half-spectrum planes n (n/2 + 1):
# measured 9.32 at n = 128 and 9.28 at n = 256, |k| (1), the two masks
# (1/8 each) and the stacks velocity_multipliers and dealiased_gradient (4
# each).  A guarded copy of |k| held one plane more, and a second copy of
# the Riesz pair with a plane of ones 16.3.
SYMBOL_PLANES = 9.5


@pytest.mark.parametrize("n", [128, 256])
def test_grid_symbols_footprint(n):
    for name in _SYMBOLS:  # warm-up: modules and numpy state first touched by a symbol
        getattr(Grid(8), name)
    tracemalloc.start()
    try:
        grid = Grid(n)
        for name in _SYMBOLS:
            getattr(grid, name)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= SYMBOL_PLANES * n * (n // 2 + 1) * 8


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid(7)
    with pytest.raises(ValidationError):
        Grid(6)
    assert Grid(8).n == 8


def test_grid_size_must_be_integral():
    # a Python int or any numpy integer, held as an int; a float that `cmt`
    # cannot range over is invalid input
    for n in (64, np.int64(64), np.int32(64), np.uint16(64)):
        assert qglab.cmt(Grid(n)).coeffs.shape == (64, 33)
        assert type(Grid(n).n) is int and Grid(n) == Grid(64)
    assert Grid(np.uint8(128)).n * 2 == 256  # no wrap of the doubled grid
    for n in (64.0, np.float64(64.0), 64.5, "64", None):
        with pytest.raises(ValidationError, match="integer"):
            Grid(n)


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


def _faulty_stack(grid, node, fault):
    """Three random spectra, node 1 scaled to a peak of 1e-20, with `fault` planted at `node` ("none": none)."""
    stack = np.array([random_field(grid, 5, 1.5, seed).coeffs for seed in range(3)])
    stack[1] *= 1e-20 / np.max(np.abs(stack[1]))
    if fault in ("nan", "inf"):
        stack[node, 2, 3] = float(fault)
    elif fault == "unmatched":  # k = (0, 1) without its conjugate at (0, -1)
        stack[node, 1, 0] += 1e-9j * np.max(np.abs(stack[node]))
    return stack


@pytest.mark.parametrize("node", [0, 1, 2])
@pytest.mark.parametrize("fault", ["nan", "inf", "unmatched"])
def test_node_fields_check_the_stack_as_spectral_field_does(grid16, node, fault):
    # one check of the whole stack by SpectralField's own rule, each node's
    # defect against its own largest coefficient: node 1's peak is 1e-20,
    # so its defect of 1e-29 would pass against the stack's largest
    stack = _faulty_stack(grid16, node, fault)
    with pytest.raises(ValidationError) as single:
        SpectralField(grid16, stack[node])
    for check in (lambda: node_fields(grid16, stack), lambda: check_real_spectra(stack)):
        with pytest.raises(ValidationError) as stacked:
            check()
        assert str(stacked.value) == str(single.value)
    for other in {0, 1, 2} - {node}:
        SpectralField(grid16, stack[other])


def test_node_fields_are_read_only_copies(grid16):
    stack = _faulty_stack(grid16, 0, "none")
    fields = node_fields(grid16, stack)
    expected = stack.copy()
    stack[:] = np.nan  # the stack is free for reuse
    for f, c in zip(fields, expected):
        assert f.grid is grid16 and np.array_equal(f.coeffs, c)
        assert not f.coeffs.flags.writeable and f.coeffs.flags.c_contiguous
    assert not any(np.shares_memory(f.coeffs, g.coeffs) for f in fields for g in fields if f is not g)
    for bad in (stack[0], stack[:, :, :-1]):
        with pytest.raises(ValidationError, match="stack of shape"):
            node_fields(grid16, bad)


def test_spectral_field_coefficients_are_c_ordered(grid16):
    c = random_field(grid16, 5, 1.5, 0).coeffs
    f = SpectralField(grid16, np.asfortranarray(c))
    assert f.coeffs.flags.c_contiguous and np.array_equal(f.coeffs, c)


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


@pytest.mark.parametrize("n", [8, 30, 64])
def test_product_spectra_match_stacked_pair(n):
    # every transform site gives the bits of numpy's 2-D rfft2/irfft2, Nyquist lines included
    grid = Grid(n)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n))
    theta = forward_transform(PhysicalField(grid, values))
    c = theta.coeffs
    assert c.tobytes() == np.fft.rfft2(values, norm="forward").tobytes()
    before = c.tobytes()
    assert inverse_transform(theta).values.tobytes() == np.fft.irfft2(c, norm="forward").tobytes()
    assert c.tobytes() == before  # the inverse stages overwrite a copy, not the field
    stack = np.concatenate([grid.velocity_multipliers * c, [c]])  # spectra of (u1, u2, theta)
    oracle = np.fft.irfft2(stack, norm="forward").tobytes()
    assert _irfft2(stack.copy()).tobytes() == oracle
    u1, u2, th = np.fft.irfft2(stack, norm="forward")
    spectra = np.empty((3, *grid.shape), dtype=np.complex128)
    fields = np.empty((3, n, n))
    flux = product_spectra(grid, c, spectra, fields)
    assert flux.base is spectra and fields[2].tobytes() == th.tobytes()
    products = np.stack([u1 * th, u2 * th])
    assert fields[:2].tobytes() == products.tobytes()  # the products overwrite (u1, u2)
    assert flux.tobytes() == np.fft.rfft2(products, norm="forward").tobytes()
    assert _rfft2(products).tobytes() == np.fft.rfft2(products, norm="forward").tobytes()


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_irfft2_on_occupied_columns_matches_stacked_pair(n):
    # a padded spectrum is zero beyond the source's columns k1 <= n/2, and
    # its inverse on those columns alone gives the bytes of the full one
    rng = np.random.default_rng(n)
    theta = forward_transform(PhysicalField(Grid(n), rng.standard_normal((n, n))))
    fine = pad_spectrum(theta, 2 * n)
    columns = theta.grid.shape[1]
    stack = np.concatenate([fine.grid.velocity_multipliers * fine.coeffs, [fine.coeffs]])
    assert np.count_nonzero(stack[2, :, columns - 1]) > 0  # the source Nyquist line has content
    assert not np.any(stack[..., columns:])
    for spectra in (stack, fine.coeffs):
        oracle = np.fft.irfft2(spectra, norm="forward").tobytes()
        assert _irfft2(spectra.copy(), columns=columns).tobytes() == oracle
        out = np.empty(spectra.shape[:-1] + (2 * n,))
        assert _irfft2(spectra.copy(), out, columns) is out
        assert out.tobytes() == oracle
    # the forward transform of the fields: its leading columns alone are the spectrum
    values = np.fft.irfft2(stack, norm="forward")
    oracle = np.fft.rfft2(values, norm="forward")[..., :columns].tobytes()
    out = np.empty_like(stack)
    assert _rfft2(values, out, columns) is out
    assert out[..., :columns].tobytes() == oracle


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
    with pytest.raises(NegativePowerOnMean):  # the norm shares the guard
        qglab.sobolev_norm(f, -0.5)
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
    amp = np.where((g.kabs > 0) & (g.kabs <= 500), g.sqrt_laplacian(-(s + 1.0)), 0.0)
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
        assert _hermitian_defects(out.coeffs) <= 1e-13 * max(np.max(np.abs(out.coeffs)), 1e-30)


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
    assert _hermitian_defects(fine.coeffs) < 1e-13
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


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("eps", [0.25, 0.0625])
@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
def test_stencil_weights_mirror_symmetric(n, eps, profile):
    # the kernel is even in each coordinate, so its sampled weights are too
    grid, mol = Grid(n), Mollifier(eps, profile)
    _, w = mol.stencil(grid, mol.multiplier(grid))
    assert np.max(np.abs(w - w[::-1])) <= 1e-14 * np.max(w)
    assert np.max(np.abs(w - w[:, ::-1])) <= 1e-14 * np.max(w)


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("eps", [0.25, 0.0625])
@pytest.mark.parametrize("profile", ["gaussian", "raised-cosine"])
def test_stencil_from_held_multiplier_matches_expression(n, eps, profile):
    # the flux hands the stencil the multiplier it already holds; the
    # weights keep the bits of the expression that builds the multiplier itself
    grid, mol = Grid(n), Mollifier(eps, profile)
    d = eps * np.linspace(-STENCIL_HALF_WIDTH, STENCIL_HALF_WIDTH, STENCIL_POINTS)
    e = np.exp(1j * np.outer(grid.wavenumbers, d))
    e[n // 2] = e[n // 2].real
    w = (e.T @ (mol.multiplier(grid) * grid.parseval_weights) @ e[: n // 2 + 1]).real
    m = mol.multiplier(grid)
    held = m.copy()
    offsets, weights = mol.stencil(grid, m)
    assert offsets.tobytes() == d.tobytes()
    assert weights.tobytes() == (w / w.sum()).tobytes()
    assert m.tobytes() == held.tobytes()


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
