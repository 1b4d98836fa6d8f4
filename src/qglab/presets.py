"""Initial data presets.

Three families are supported, matching the config grammar:

* ``single:k1,k2``      cos(k1 x1 + k2 x2), a steady single mode
* ``cmt``               sin x1 sin x2 + cos x2, a conventional QG test datum
* ``random:smax,gamma`` seeded shell spectrum |theta_hat(k)| = |k|^(-gamma)
                        with random phases on 1 <= |k| <= smax
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .spectral import Grid, PhysicalField, SpectralField, forward_transform


def single_mode(grid: Grid, k1: int, k2: int) -> SpectralField:
    """cos(k1 x1 + k2 x2) built exactly in spectral space; k1 and k2 must be integers."""
    if not all(isinstance(k, (int, np.integer)) for k in (k1, k2)):
        raise ValidationError(f"single mode needs integer wavenumbers, got ({k1!r}, {k2!r})")
    half = grid.n // 2
    if max(abs(k1), abs(k2)) >= half:
        raise ValidationError(f"mode ({k1}, {k2}) does not fit below Nyquist on n={grid.n}")
    if k1 == 0 and k2 == 0:
        raise ValidationError("single mode must be nonzero")
    c = np.zeros(grid.shape, dtype=np.complex128)
    for j1, j2 in ((k1, k2), (-k1, -k2)):
        if j1 >= 0:  # a stored half-spectrum slot (both are when k1 = 0)
            c[j2 % grid.n, j1] = 0.5
    return SpectralField(grid, c)


def cmt(grid: Grid) -> SpectralField:
    """sin x1 sin x2 + cos x2."""
    values = np.sin(grid.x1) * np.sin(grid.x2) + np.cos(grid.x2)
    return forward_transform(PhysicalField(grid, values))


def random_shell_field(grid: Grid, kmax: float, gamma: float, rng) -> SpectralField:
    """Zero-mean field with |theta_hat| = |k|^(-gamma) on 0 < |k| <= kmax.

    Phases are drawn from `rng` (a non-negative int seed or a numpy
    Generator); the spectrum is kept strictly below the Nyquist lines so
    every operator in the package acts exactly on it.  kmax must be at
    least 1 and gamma finite (ValidationError otherwise).
    """
    half = grid.n // 2
    if not 1.0 <= kmax < half:  # also rejects NaN
        raise ValidationError(f"kmax={kmax} is below 1 or does not fit below Nyquist on n={grid.n}")
    if not math.isfinite(gamma):
        raise ValidationError(f"gamma must be finite, got {gamma}")
    if not isinstance(rng, np.random.Generator):
        if not (isinstance(rng, (int, np.integer)) and rng >= 0):
            raise ValidationError(f"seed must be a non-negative integer, got {rng!r}")
        rng = np.random.default_rng(rng)
    # One phase per wavenumber of the full (n, n) spectrum; a mode in the
    # upper half plane (k2 > 0, or k2 = 0 < k1) takes its own phase and a
    # mode below it the conjugate of its partner's, so the field is real.
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(grid.n, grid.n)))
    partner = np.conj(np.roll(phases[::-1, ::-1], 1, axis=(0, 1)))  # conj phase at -k
    h = grid.n // 2 + 1
    in_band = (grid.kabs > 0) & (grid.kabs <= kmax)
    amp = np.where(in_band, grid.sqrt_laplacian(-gamma), 0.0)
    return SpectralField(grid, amp * np.where(grid.k2 >= 0, phases[:, :h], partner[:, :h]))


def from_init_string(grid: Grid, init: str, seed: int = 0) -> SpectralField:
    """Build the initial field described by a preset string."""
    init = init.strip()
    if init == "cmt":
        return cmt(grid)
    if init.startswith("single:"):
        try:
            a, b = (int(part) for part in init[len("single:"):].split(","))
        except ValueError as exc:
            raise ValidationError(f"bad single-mode preset {init!r}") from exc
        return single_mode(grid, a, b)
    if init.startswith("random:"):
        try:
            smax_s, gamma_s = init[len("random:"):].split(",")
            smax, gamma = float(smax_s), float(gamma_s)
        except ValueError as exc:
            raise ValidationError(f"bad random preset {init!r}") from exc
        return random_shell_field(grid, smax, gamma, seed)
    raise ValidationError(f"unknown preset {init!r}")
