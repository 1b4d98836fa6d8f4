"""Fourier grid, transforms and multiplier operators on the periodic square.

The domain is fixed to [0, 2pi]^2.  Conventions used throughout:

* Physical fields are sampled on the n x n uniform grid, node (i, j) at
  x = (2 pi i / n, 2 pi j / n).  Arrays are indexed ``values[j, i]`` with
  the x2 index j as the slow (row) axis.
* Every field is real, so its spectrum is stored as the rfft2 half
  spectrum: ``coeffs[j, i]`` holds the coefficient of k = (k1, k2) with
  k1 = i in 0..n/2 (columns) and k2 the j-th entry of `Grid.wavenumbers`
  (rows).  The k1 < 0 half is implied by c(-k) = conj(c(k)).
* Coefficients are normalized so the k = 0 entry equals the mean of the
  field: the transform pair is ``rfft2/irfft2(..., norm="forward")``,
  written once here as `_rfft2` and `_irfft2`, and no other module calls
  ``np.fft``.  With this choice Parseval reads
  ``integral |f|^2 dx = (2 pi)^2 sum_k |f_hat(k)|^2``; over the stored
  half the k1 = 0 and k1 = n/2 columns count once and every other column
  twice (`Grid.parseval_weights`), which is the one place that sum rule
  is written down.
* Wavenumbers run over {-n/2+1, ..., n/2}; the Nyquist line is stored
  with the positive sign.
* Odd multipliers (the Riesz transforms) zero the unmatched Nyquist lines
  so real fields stay real.  Fields evolved by the solvers live inside
  the 2/3 dealias band, where those lines are empty and the identity
  R1^2 + R2^2 = -I holds exactly.
* Quadratic products are formed on the grid and always dealiased by the
  2/3 rule: `state_fields` gives (u1, u2, theta) from one stacked inverse
  transform, and `Grid.dealiased_gradient` takes the spectrum of a flux
  to its divergence.

Grids and fields are immutable: a field keeps its own read-only copy of
the array it was built from, and a `SpectralField` is the spectrum of a
real field by construction (finite, Hermitian on its self-conjugate
columns).  Operations return new fields, so fields and grids are safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NegativePowerOnMean, ValidationError

TWO_PI = 2.0 * np.pi
DEFECT_REL_TOL = 1e-12  # defects of a spectrum relative to its largest coefficient

MOLLIFIER_PROFILES = ("gaussian", "raised-cosine")
STENCIL_HALF_WIDTH = 3.0  # the stencil covers [-3 eps, 3 eps] per axis
STENCIL_POINTS = 21  # nodes per axis


@dataclass(frozen=True)
class Grid:
    """Uniform n x n grid on [0, 2pi]^2 with its wavenumber bookkeeping."""

    n: int

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        """1d array of node coordinates 2 pi i / n."""
        return TWO_PI * np.arange(self.n) / self.n

    @cached_property
    def x1(self) -> np.ndarray:
        """x1 coordinate per node, shape (n, n), read-only."""
        return np.broadcast_to(self.nodes[None, :], (self.n, self.n))

    @cached_property
    def x2(self) -> np.ndarray:
        """x2 coordinate per node, shape (n, n), read-only."""
        return np.broadcast_to(self.nodes[:, None], (self.n, self.n))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1d wavenumber vector in FFT order, Nyquist stored as +n/2."""
        w = np.fft.fftfreq(self.n, 1.0 / self.n)
        w[self.n // 2] = self.n // 2
        return w

    @property
    def shape(self) -> tuple[int, int]:
        """Shape (n, n/2 + 1) of the half-spectrum coefficient arrays."""
        return (self.n, self.n // 2 + 1)

    @cached_property
    def k1(self) -> np.ndarray:
        """k1 = 0..n/2 per coefficient slot, read-only."""
        return np.broadcast_to(self.wavenumbers[None, : self.n // 2 + 1], self.shape)

    @cached_property
    def k2(self) -> np.ndarray:
        """k2 per coefficient slot, read-only."""
        return np.broadcast_to(self.wavenumbers[:, None], self.shape)

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each stored column in a sum over all k: 1 at k1 = 0, n/2, else 2."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return w

    @cached_property
    def kabs(self) -> np.ndarray:
        return np.hypot(self.k1, self.k2)

    @cached_property
    def kabs_safe(self) -> np.ndarray:
        """|k| with the zero mode replaced by 1 (division guard)."""
        k = self.kabs.copy()
        k[0, 0] = 1.0
        return k

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True where max(|k1|, |k2|) <= n/3 (two-thirds rule keeps equality)."""
        lim = self.n / 3.0
        return (np.abs(self.k1) <= lim) & (np.abs(self.k2) <= lim)

    @cached_property
    def riesz_mask(self) -> np.ndarray:
        """True where odd multipliers are well defined (no k=0, no Nyquist)."""
        half = self.n // 2
        mask = (np.abs(self.k1) < half) & (np.abs(self.k2) < half)
        mask[0, 0] = False
        return mask

    @cached_property
    def velocity_multipliers(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral multipliers taking theta_hat to (u1_hat, u2_hat)."""
        m1 = 1j * self.k2 / self.kabs_safe
        m2 = -1j * self.k1 / self.kabs_safe
        m1[~self.riesz_mask] = 0.0
        m2[~self.riesz_mask] = 0.0
        return m1, m2

    @cached_property
    def state_multipliers(self) -> np.ndarray:
        """Stack (m1, m2, 1) of `velocity_multipliers`: theta_hat to the coefficients of (u1, u2, theta)."""
        return np.stack([*self.velocity_multipliers, np.ones(self.shape)])

    @cached_property
    def dealiased_gradient(self) -> np.ndarray:
        """Stack (i k1, i k2), zero outside the 2/3 dealias band."""
        return 1j * np.stack([self.k1, self.k2]) * self.dealias_mask


@dataclass(frozen=True)
class PhysicalField:
    """Real samples of a scalar on the grid, indexed values[j, i].

    `values` is the field's own read-only float64 copy of the input.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"expected shape {(self.grid.n,) * 2}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("physical field contains non-finite values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real scalar as its rfft2 half spectrum.

    `coeffs` has shape (n, n/2 + 1): row j is k2 = grid.wavenumbers[j],
    column i is k1 = i, and c(-k) = conj(c(k)) supplies the k1 < 0 half.
    The k = 0 slot holds the mean.  `coeffs` is the field's own read-only
    complex128 copy of the input, which must be finite and Hermitian on
    the self-conjugate columns k1 = 0 and k1 = n/2 to within
    DEFECT_REL_TOL of its largest coefficient (ValidationError otherwise).
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        if not np.all(np.isfinite(c)) or hermitian_defect(self) > DEFECT_REL_TOL * np.max(np.abs(c)):
            raise ValidationError("coefficients are not the spectrum of a real field")

    @property
    def mean(self) -> float:
        return float(self.coeffs[0, 0].real)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return _combination(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return _combination(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _combination(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """The sum or difference of two fields, which is real to their round-off.

    Not re-checked: when the operands nearly cancel, that round-off can
    exceed DEFECT_REL_TOL of the result's own largest coefficient.
    """
    coeffs.flags.writeable = False
    f = object.__new__(SpectralField)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "coeffs", coeffs)
    return f


def _rfft2(values: np.ndarray) -> np.ndarray:
    """Normalized half spectra of real (stacked) grid samples; k = 0 holds the mean."""
    return np.fft.rfft2(values, norm="forward")


def _irfft2(coeffs: np.ndarray) -> np.ndarray:
    """Real grid samples of (stacked) normalized half spectra, the inverse of `_rfft2`."""
    return np.fft.irfft2(coeffs, norm="forward")


def forward_transform(p: PhysicalField) -> SpectralField:
    """Grid samples to normalized coefficients (k = 0 slot holds the mean)."""
    return SpectralField(p.grid, _rfft2(p.values))


def inverse_transform(f: SpectralField) -> PhysicalField:
    """Coefficients back to real grid samples."""
    return PhysicalField(f.grid, _irfft2(f.coeffs))


def state_fields(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Grid values of (u1, u2, theta), stacked, from one inverse transform of theta_hat."""
    return _irfft2(grid.state_multipliers * coeffs)


def apply_sqrt_laplacian(f: SpectralField, power: float) -> SpectralField:
    """Apply the |k|^power multiplier (power beta of the square-root Laplacian).

    The k = 0 coefficient is annihilated for power > 0.  A negative power on
    a field with nonzero mean is ill posed and raises NegativePowerOnMean.
    """
    if power == 0.0:
        return f
    if power < 0.0:
        scale = 1.0 + float(np.max(np.abs(f.coeffs)))
        if abs(f.coeffs[0, 0]) > 1e-13 * scale:
            raise NegativePowerOnMean(
                f"power {power} requested on field with mean {f.mean:.3e}"
            )
    out = f.coeffs * f.grid.kabs_safe**power
    out[0, 0] = 0.0
    return SpectralField(f.grid, out)


def riesz_velocity(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Velocity (u1, u2) = (-R2 theta, R1 theta) from the scalar.

    Mode by mode u1_hat = i k2 / |k| theta_hat and u2_hat = -i k1 / |k|
    theta_hat, which is exactly divergence free: k . u_hat = 0.
    """
    m1, m2 = theta.grid.velocity_multipliers
    return (
        SpectralField(theta.grid, m1 * theta.coeffs),
        SpectralField(theta.grid, m2 * theta.coeffs),
    )


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes with max(|k1|, |k2|) > n/3 (two-thirds rule)."""
    return SpectralField(f.grid, np.where(f.grid.dealias_mask, f.coeffs, 0.0))


@dataclass(frozen=True)
class Mollifier:
    """Low-pass smoothing at scale eps, realized as a spectral multiplier.

    Both profiles satisfy m_eps(0) = 1 (mass preservation), 0 <= m_eps <= 1
    and m_eps nonincreasing in |k|.  The gaussian profile is
    exp(-(eps |k|)^2 / 2); the raised-cosine profile is
    cos^2(pi eps |k| / 2) cut off at eps |k| = 1.
    """

    eps: float
    profile: str = "gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"mollifier scale must be positive and finite, got {self.eps}")
        if self.profile not in MOLLIFIER_PROFILES:
            raise ValueError(f"unknown mollifier profile {self.profile!r}")

    def multiplier(self, grid: Grid) -> np.ndarray:
        r = self.eps * grid.kabs
        if self.profile == "gaussian":
            return np.exp(-0.5 * r * r)
        return np.cos(0.5 * np.pi * np.clip(r, 0.0, 1.0)) ** 2

    def stencil(self, grid: Grid):
        """Quadrature stencil for physical-space convolution with this kernel.

        Returns (offsets, weights): a 1d array of STENCIL_POINTS per-axis
        offsets covering [-STENCIL_HALF_WIDTH eps, STENCIL_HALF_WIDTH eps]
        and the square weight array sampled from the periodized kernel,
        renormalized to sum to 1.  weights[b, a] belongs to the offset
        (offsets[a], offsets[b]).
        """
        d = self.eps * np.linspace(-STENCIL_HALF_WIDTH, STENCIL_HALF_WIDTH, STENCIL_POINTS)
        m = self.multiplier(grid) * grid.parseval_weights
        e = _phases(grid, d)  # (n, STENCIL_POINTS)
        w = (e.T @ m @ e[: grid.n // 2 + 1]).real  # periodized kernel at the offsets
        return d, w / w.sum()


def mollify(f: SpectralField, m: Mollifier) -> SpectralField:
    """Multiply coefficients by m_eps(k); the mean is preserved exactly."""
    return SpectralField(f.grid, f.coeffs * m.multiplier(f.grid))


def _phases(grid: Grid, a) -> np.ndarray:
    """exp(i k a) per wavenumber k (rows) and shift a (columns).

    The stored Nyquist entry stands for both k = +n/2 and k = -n/2, so it
    takes the mean of their phases, cos(n a / 2).  Being real, it keeps the
    self-conjugate columns of a shifted spectrum Hermitian and the stencil
    weights mirror symmetric.
    """
    e = np.exp(1j * np.outer(grid.wavenumbers, a))
    e[grid.n // 2] = e[grid.n // 2].real
    return e


def translate(f: SpectralField, a1: float, a2: float) -> SpectralField:
    """Field of x -> f(x1 - a1, x2 - a2) via the per-axis phase multiplier.

    Exact for grid shifts and for fields with empty Nyquist lines.  On the
    Nyquist lines the phase is cos(n a / 2), so the result equals padding
    to 2n, shifting there exactly and sampling every second node.
    """
    p1, p2 = _phases(f.grid, [-a1, -a2]).T
    return SpectralField(f.grid, f.coeffs * p2[:, None] * p1[: f.grid.n // 2 + 1])


def pad_spectrum(f: SpectralField, m: int) -> SpectralField:
    """Embed the coefficients into a finer m x m grid (m >= n, m even).

    Nyquist lines of the source are split half-and-half between +n/2 and
    -n/2 on the destination (the -n/2 column is the implied conjugate of
    the +n/2 one), which keeps the embedded field real and reproduces the
    original samples on the coarse nodes.
    """
    n = f.grid.n
    if m < n:
        raise ValueError(f"target size {m} smaller than source {n}")
    if m == n:
        return f
    half = n // 2
    slots = f.grid.wavenumbers.astype(int) % m  # source Nyquist lands on +n/2
    fine = Grid(m)
    out = np.zeros(fine.shape, dtype=np.complex128)
    cols = out[:, : half + 1]  # the source columns k1 = 0..n/2
    cols[slots] = f.coeffs
    cols[half] *= 0.5
    cols[m - half] = cols[half]
    cols[:, half] *= 0.5
    return SpectralField(fine, out)


def hermitian_defect(f: SpectralField) -> float:
    """Max |c(k) - conj(c(-k))|; zero for coefficients of a real field.

    Only the self-conjugate columns k1 = 0 and k1 = n/2 hold both k and -k;
    the other columns carry c(-k) implicitly.
    """
    c = f.coeffs[:, [0, f.grid.n // 2]]
    mirrored = np.roll(c[::-1], 1, axis=0)
    return float(np.max(np.abs(c - np.conj(mirrored))))
