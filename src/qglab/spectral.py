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
  written once here as `_rfft2` and `_irfft2`, the only functions that
  call an ``np.fft`` transform.  Each runs as its two 1-D stages, into a
  caller's array when given one (the inverse overwrites its input), which
  gives the bits of the 2-D numpy pair; `product_spectra` and the flux
  scan pass them reused arrays.  A spectrum padded to a finer grid
  (`pad_spectrum`) is exactly zero in every column k1 > n/2 of its source
  size n, and the inverse can be told so: its column stage then
  transforms only the occupied columns, about half of them on the
  doubled grid of the flux diagnostics, with the same bits.  With this
  choice Parseval reads
  ``integral |f|^2 dx = (2 pi)^2 sum_k |f_hat(k)|^2``; over the stored
  half the k1 = 0 and k1 = n/2 columns count once and every other column
  twice (`Grid.parseval_weights`), which is the one place that sum rule
  is written down.
* Wavenumbers run over {-n/2+1, ..., n/2}; the Nyquist line is stored
  with the positive sign.
* Odd multipliers (the Riesz transforms) zero the unmatched Nyquist lines
  so real fields stay real.  The solvers' advection kernel forms its
  velocity from the 2/3 dealias band part of the state alone, where those
  lines are empty and the identity R1^2 + R2^2 = -I holds exactly; the
  state itself may hold modes outside the band, which the kernel leaves
  passive.
* Quadratic products are formed on the grid and always dealiased by the
  2/3 rule: `product_spectra` writes the spectra of (u1, u2, theta)
  (`Grid.state_spectra`), takes them to the grid in one stacked inverse
  transform and transforms the products u_j theta in one stacked forward
  transform, all in a caller's arrays, and `Grid.dealiased_gradient` takes
  the spectrum of a flux to its divergence.

Grids and fields are immutable.  A grid builds each symbol once, on first
use, and holds it read-only for its life; one grid per size is shared by
the flux diagnostics on the doubled grid (`pad_spectrum`), so a write into
a symbol would reach every later caller.  Each symbol is held once: the
Riesz pair is the one (2, n, n/2+1) stack `velocity_multipliers`, and the
spectra of (u1, u2, theta) are formed from it plane by plane.  A field
keeps its own read-only copy of the array it was built from, and a
`SpectralField` is the spectrum of a real field by construction (finite,
Hermitian on its self-conjugate columns).  Operations return new fields,
so fields and grids are safe to share across threads; the work arrays
that a caller hands `product_spectra` are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, wraps

import numpy as np

from .errors import NegativePowerOnMean, ValidationError

TWO_PI = 2.0 * np.pi
DEFECT_REL_TOL = 1e-12  # defects of a spectrum relative to its largest coefficient

MOLLIFIER_PROFILES = ("gaussian", "raised-cosine")
STENCIL_HALF_WIDTH = 3.0  # the stencil covers [-3 eps, 3 eps] per axis
STENCIL_POINTS = 21  # nodes per axis


def _symbol(build):
    """A cached `Grid` property whose array is made read-only once built."""

    @wraps(build)
    def frozen(grid):
        a = build(grid)
        a.flags.writeable = False
        return a

    return cached_property(frozen)


@dataclass(frozen=True)
class Grid:
    """Uniform n x n grid on [0, 2pi]^2 with its wavenumber bookkeeping.

    n must be an integer (a Python int or a numpy integer), even and at
    least 8 (ValidationError otherwise).  It is held as a Python int, so
    sizes derived from it, such as the doubled grid 2n, cannot wrap.
    The symbols are cached read-only properties; the two that take a
    power, |k|^beta (`sqrt_laplacian`) and the H^s weight
    (`sobolev_weights`), are formed afresh on each call.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValidationError(f"grid size must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # frozen dataclass
        if self.n % 2 != 0 or self.n < 8:
            raise ValidationError(f"grid size must be even and >= 8, got {self.n}")

    @_symbol
    def nodes(self) -> np.ndarray:
        """1d array of node coordinates 2 pi i / n."""
        return TWO_PI * np.arange(self.n) / self.n

    @_symbol
    def x1(self) -> np.ndarray:
        """x1 coordinate per node, shape (n, n)."""
        return np.broadcast_to(self.nodes[None, :], (self.n, self.n))

    @_symbol
    def x2(self) -> np.ndarray:
        """x2 coordinate per node, shape (n, n)."""
        return np.broadcast_to(self.nodes[:, None], (self.n, self.n))

    @_symbol
    def wavenumbers(self) -> np.ndarray:
        """1d wavenumber vector in FFT order, Nyquist stored as +n/2."""
        w = np.fft.fftfreq(self.n, 1.0 / self.n)
        w[self.n // 2] = self.n // 2
        return w

    @property
    def shape(self) -> tuple[int, int]:
        """Shape (n, n/2 + 1) of the half-spectrum coefficient arrays."""
        return (self.n, self.n // 2 + 1)

    @_symbol
    def k1(self) -> np.ndarray:
        """k1 = 0..n/2 per coefficient slot."""
        return np.broadcast_to(self.wavenumbers[None, : self.n // 2 + 1], self.shape)

    @_symbol
    def k2(self) -> np.ndarray:
        """k2 per coefficient slot."""
        return np.broadcast_to(self.wavenumbers[:, None], self.shape)

    @_symbol
    def parseval_weights(self) -> np.ndarray:
        """Multiplicity of each stored column in a sum over all k: 1 at k1 = 0, n/2, else 2."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return w

    @_symbol
    def kabs(self) -> np.ndarray:
        return np.hypot(self.k1, self.k2)

    def sqrt_laplacian(self, power: float) -> np.ndarray:
        """Symbol |k|^power of Lambda^power, a fresh array: 1 at k = 0 for power 0, else 0 there.

        The one place |k|^beta is formed; not cached, since callers draw powers freely.
        """
        if power == 0.0:
            return np.ones(self.shape)
        # every |k| but the zero mode's is at least 1: the guard changes that one slot
        sym = np.maximum(self.kabs, 1.0) ** power
        sym[0, 0] = 0.0
        return sym

    def sobolev_weights(self, s: float) -> np.ndarray:
        """Weight of each stored coefficient's |c|^2 in (||f||_s / 2 pi)^2, a fresh array.

        `parseval_weights` times |k|^(2 s): the one H^s weight, which
        `sobolev_norm` and the Picard sweep distance both sum, so the mean
        counts at s = 0 only.
        """
        return self.parseval_weights * self.sqrt_laplacian(2.0 * s)

    @_symbol
    def dealias_mask(self) -> np.ndarray:
        """True where max(|k1|, |k2|) <= n/3 (two-thirds rule keeps equality)."""
        lim = self.n / 3.0
        return (np.abs(self.k1) <= lim) & (np.abs(self.k2) <= lim)

    @_symbol
    def riesz_mask(self) -> np.ndarray:
        """True where odd multipliers are well defined (no k=0, no Nyquist)."""
        half = self.n // 2
        mask = (np.abs(self.k1) < half) & (np.abs(self.k2) < half)
        mask[0, 0] = False
        return mask

    @_symbol
    def velocity_multipliers(self) -> np.ndarray:
        """Stack (m1, m2) of the multipliers taking theta_hat to (u1_hat, u2_hat), shape (2, n, n/2+1).

        m1 = i k2 / |k| and m2 = -i k1 / |k|, zero off `riesz_mask`.
        """
        m = np.zeros((2, *self.shape), dtype=np.complex128)
        for mj, unit, k in zip(m, (1j, -1j), (self.k2, self.k1)):
            np.divide(unit * k, self.kabs, out=mj, where=self.riesz_mask)
        return m

    def state_spectra(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Spectra (u1_hat, u2_hat, theta_hat) of the state theta_hat = `coeffs`, shape (3, n, n/2+1).

        Written into `out` when given, else into a fresh array; the one
        place the state's three spectra are formed.
        """
        if out is None:
            out = np.empty((3, *self.shape), dtype=np.complex128)
        # plane by plane: numpy buffers a broadcast product of up to 8192 elements whole
        for m, spectrum in zip(self.velocity_multipliers, out):
            np.multiply(m, coeffs, out=spectrum)
        out[2] = coeffs
        return out

    @_symbol
    def dealiased_gradient(self) -> np.ndarray:
        """Stack (i k1, i k2), zero outside the 2/3 dealias band."""
        g = np.empty((2, *self.shape), dtype=np.complex128)
        for gj, k in zip(g, (self.k1, self.k2)):
            np.multiply(1j, k, out=gj)
        return np.multiply(g, self.dealias_mask, out=g)


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
            raise ValidationError(f"expected shape {(self.grid.n,) * 2}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("physical field contains non-finite values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real scalar as its rfft2 half spectrum.

    `coeffs` has shape (n, n/2 + 1): row j is k2 = grid.wavenumbers[j],
    column i is k1 = i, and c(-k) = conj(c(k)) supplies the k1 < 0 half.
    The k = 0 slot holds the mean.  `coeffs` is the field's own read-only,
    C-ordered complex128 copy of the input, which must be finite and
    Hermitian on the self-conjugate columns k1 = 0 and k1 = n/2 to within
    DEFECT_REL_TOL of its largest coefficient (`check_real_spectra`;
    ValidationError otherwise).
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, order="C")
        if c.shape != self.grid.shape:
            raise ValidationError(f"expected shape {self.grid.shape}, got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        check_real_spectra(c)

    @property
    def mean(self) -> float:
        return float(self.coeffs[0, 0].real)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return _derived_field(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return _derived_field(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def check_real_spectra(coeffs: np.ndarray) -> None:
    """Raise ValidationError unless every half spectrum in `coeffs` is that of a real field.

    `coeffs` is one (n, n/2 + 1) spectrum or a stack of them along leading
    axes.  Each must be finite and Hermitian on the self-conjugate columns
    k1 = 0 and k1 = n/2 to within DEFECT_REL_TOL of its own largest
    coefficient: the one rule that a `SpectralField` and `node_fields`
    apply.
    """
    peaks = np.abs(coeffs).max(axis=(-2, -1))
    if not np.isfinite(coeffs).all() or (_hermitian_defects(coeffs) > DEFECT_REL_TOL * peaks).any():
        raise ValidationError("coefficients are not the spectrum of a real field")


def node_fields(grid: Grid, stack: np.ndarray) -> list:
    """The fields of the half spectra stacked along axis 0 of `stack`, checked once as a stack.

    `check_real_spectra` applies `SpectralField`'s rule to the whole stack;
    each field then holds its own read-only complex128 copy of its node,
    so `stack` may be overwritten afterwards.
    """
    if stack.shape[1:] != grid.shape:
        raise ValidationError(f"expected a stack of shape (m, {grid.shape[0]}, {grid.shape[1]}), got {stack.shape}")
    check_real_spectra(stack)
    return [_derived_field(grid, np.array(c, dtype=np.complex128)) for c in stack]


def _derived_field(grid: Grid, coeffs: np.ndarray) -> SpectralField:
    """The field of `coeffs`, which it takes over, with no check of its own.

    Either checked already, as a node of `node_fields`, or a sum,
    difference or padding of fields: these are real to the operands'
    round-off, which can exceed DEFECT_REL_TOL of the result's own largest
    coefficient when the operands nearly cancel or a padding halves the
    largest, on a Nyquist line.
    """
    coeffs.flags.writeable = False
    f = object.__new__(SpectralField)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "coeffs", coeffs)
    return f


def _rfft2(values: np.ndarray, out: np.ndarray | None = None, columns: int | None = None) -> np.ndarray:
    """Normalized half spectra of real (stacked) grid samples; k = 0 holds the mean.

    Runs as two 1-D stages, rows then columns, into `out` when given (else a
    fresh array); the bits of ``np.fft.rfft2(values, norm="forward")``.
    With `columns`, the second stage, the columns' ``fft``, runs on the
    leading `columns` columns alone: those hold the bits of the spectrum,
    and every later column only the rows' transform, for a caller that
    reads k1 < columns and nothing else.
    """
    out = np.fft.rfft(values, axis=-1, norm="forward", out=out)
    leading = out[..., :columns]
    np.fft.fft(leading, axis=-2, norm="forward", out=leading)
    return out


def _irfft2(spectra: np.ndarray, out: np.ndarray | None = None, columns: int | None = None) -> np.ndarray:
    """Real grid samples of (stacked) normalized half spectra, the inverse of `_rfft2`.

    Runs as two 1-D stages into `out` when given (else a fresh array); the
    bits of ``np.fft.irfft2(spectra, norm="forward")``.  The first stage,
    the columns' ``ifft``, overwrites `spectra`.  When only the leading
    `columns` columns hold content (k1 < columns) and every later one is
    exactly zero, as in a `pad_spectrum` and any multiple of it, that stage
    runs on those columns alone: the inverse of a zero column is zero, so
    the row stage sees the same bits.
    """
    occupied = spectra[..., :columns]
    np.fft.ifft(occupied, axis=-2, norm="forward", out=occupied)
    return np.fft.irfft(spectra, axis=-1, norm="forward", out=out)


def forward_transform(p: PhysicalField) -> SpectralField:
    """Grid samples to normalized coefficients (k = 0 slot holds the mean)."""
    return SpectralField(p.grid, _rfft2(p.values))


def inverse_transform(f: SpectralField) -> PhysicalField:
    """Coefficients back to real grid samples; `f` is left as it is."""
    return PhysicalField(f.grid, _irfft2(f.coeffs.copy()))


def product_spectra(
    grid: Grid, coeffs: np.ndarray, spectra: np.ndarray, fields: np.ndarray, columns: int | None = None
) -> np.ndarray:
    """Half spectra of the products (u1 theta, u2 theta) of the state theta_hat = `coeffs`, in `spectra[:2]`.

    The work arrays are the caller's: `spectra`, complex (3, n, n/2+1),
    takes the spectra of (u1, u2, theta) (`Grid.state_spectra`); one stacked
    inverse takes them to (u1, u2, theta) in `fields`, real (3, n, n); the
    products overwrite (u1, u2), and one stacked forward transform writes
    their spectra over the dead (u1_hat, u2_hat).  With `columns`, both
    column stages run on the leading `columns` columns alone (`_irfft2`,
    `_rfft2`): for a state that is zero in every later column, and a caller
    that reads nothing there.  The solver's advection kernel and the flux
    decay front form their products here; a flux scan, which keeps
    (u1, u2, theta), forms its own.
    """
    _irfft2(grid.state_spectra(coeffs, spectra), fields, columns)
    for u in fields[:2]:  # plane by plane, as in `Grid.state_spectra`
        np.multiply(u, fields[2], out=u)
    return _rfft2(fields[:2], spectra[:2], columns)


def apply_sqrt_laplacian(f: SpectralField, power: float) -> SpectralField:
    """Apply Lambda^power, the `Grid.sqrt_laplacian` multiplier |k|^power.

    Power 0 returns `f` itself; any other power annihilates the k = 0
    coefficient.  A negative power on a field with nonzero mean is ill
    posed and raises NegativePowerOnMean.
    """
    if power == 0.0:
        return f
    _check_negative_power(f, power)
    return SpectralField(f.grid, f.coeffs * f.grid.sqrt_laplacian(power))


def _check_negative_power(f: SpectralField, power: float) -> None:
    """Raise NegativePowerOnMean for a negative power on f unless its mean is round-off.

    Round-off is 1e-13 of one plus the largest coefficient; this is the one
    guard of `apply_sqrt_laplacian` and `sobolev_norm`.
    """
    if power < 0.0 and abs(f.coeffs[0, 0]) > 1e-13 * (1.0 + float(np.max(np.abs(f.coeffs)))):
        raise NegativePowerOnMean(f"power {power} requested on field with mean {f.mean:.3e}")


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
            raise ValidationError(f"mollifier scale must be positive and finite, got {self.eps}")
        if self.profile not in MOLLIFIER_PROFILES:
            raise ValidationError(f"unknown mollifier profile {self.profile!r}")

    def multiplier(self, grid: Grid) -> np.ndarray:
        r = self.eps * grid.kabs
        if self.profile == "gaussian":
            return np.exp(-0.5 * r * r)
        return np.cos(0.5 * np.pi * np.clip(r, 0.0, 1.0)) ** 2

    def stencil(self, grid: Grid, multiplier: np.ndarray):
        """Quadrature stencil for physical-space convolution with this kernel.

        Returns (offsets, weights): a 1d array of STENCIL_POINTS per-axis
        offsets covering [-STENCIL_HALF_WIDTH eps, STENCIL_HALF_WIDTH eps]
        and the square weight array sampled from the periodized kernel,
        renormalized to sum to 1.  weights[b, a] belongs to the offset
        (offsets[a], offsets[b]).  `multiplier` is this mollifier's
        `multiplier(grid)`, which the caller holds already; it is not
        written to.
        """
        d = self.eps * np.linspace(-STENCIL_HALF_WIDTH, STENCIL_HALF_WIDTH, STENCIL_POINTS)
        m = multiplier * grid.parseval_weights
        e = np.exp(1j * np.outer(grid.wavenumbers, d))  # exp(i k d): (n, STENCIL_POINTS)
        # The stored Nyquist entry stands for both k = +n/2 and k = -n/2, so it
        # takes the mean of their phases, cos(n d / 2); being real, it keeps the
        # weights mirror symmetric.
        e[grid.n // 2] = e[grid.n // 2].real
        w = (e.T @ m @ e[: grid.n // 2 + 1]).real  # periodized kernel at the offsets
        return d, w / w.sum()


def mollify(f: SpectralField, m: Mollifier) -> SpectralField:
    """Multiply coefficients by m_eps(k); the mean is preserved exactly."""
    return SpectralField(f.grid, f.coeffs * m.multiplier(f.grid))


@cache
def _shared_grid(n: int) -> Grid:
    """One `Grid` per size for `pad_spectrum`, so a fine grid's symbols are built once."""
    return Grid(n)


def pad_spectrum(f: SpectralField, m: int) -> SpectralField:
    """Embed the coefficients into a finer m x m grid (m >= n, m even).

    Nyquist lines of the source are split half-and-half between +n/2 and
    -n/2 on the destination (the -n/2 column is the implied conjugate of
    the +n/2 one), which keeps the embedded field real and reproduces the
    original samples on the coarse nodes.
    """
    n = f.grid.n
    if m < n:
        raise ValidationError(f"target size {m} smaller than source {n}")
    if m == n:
        return f
    half = n // 2
    slots = f.grid.wavenumbers.astype(int) % m  # source Nyquist lands on +n/2
    fine = _shared_grid(m)
    out = np.zeros(fine.shape, dtype=np.complex128)
    cols = out[:, : half + 1]  # the source columns k1 = 0..n/2
    cols[slots] = f.coeffs
    cols[half] *= 0.5
    cols[m - half] = cols[half]
    cols[:, half] *= 0.5
    return _derived_field(fine, out)


def _hermitian_defects(coeffs: np.ndarray) -> np.ndarray:
    """Max |c(k) - conj(c(-k))| of each half spectrum in `coeffs`, over its last two axes.

    Zero for the coefficients of a real field.  Only the self-conjugate
    columns k1 = 0 and k1 = n/2 hold both k and -k; the other columns carry
    c(-k) implicitly.
    """
    c = coeffs[..., :: coeffs.shape[-1] - 1]  # the columns k1 = 0 and k1 = n/2
    mirrored = np.concatenate((c[..., :1, :], c[..., :0:-1, :]), axis=-2)  # row j holds -k2 of row j
    return np.abs(c - np.conj(mirrored)).max(axis=(-2, -1))
