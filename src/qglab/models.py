"""Right-hand sides for the three quasi-geostrophic models.

The models evolve a scalar theta advected by its own Riesz-transform
velocity u = (-R2 theta, R1 theta):

* inviscid:     theta_t + u . grad theta = 0
* dissipative:  theta_t + u . grad theta + kappa (-Lap)^alpha theta = f
* regularized:  theta_t + u . grad theta + mu (-Lap)^alpha theta_t = 0

The advection term is evaluated in divergence form div(u theta) with the
product formed in physical space and always dealiased by the 2/3 rule.
`advection_coeffs` takes the spectra of the two flux products from
`spectral.product_spectra`, one stacked inverse and one stacked forward
transform per call, both writing into the work arrays of the caller's
`RhsSplit`, so a warm call allocates only the array it returns.  A
forcing is an immutable `SpectralField`, so it is the spectrum of a real
field by construction; `ModelParams` also checks that it lies inside the
2/3 band.
The regularized model applies `regularized_gradient_kernel`, the
multiplier (1 + mu Lambda^(2 alpha))^(-1) grad, to the flux spectra in
place of the gradient, so the bound |G| <= 1/mu that criterion 6 checks
is on the multiplier the solver runs; signs are fixed so that the model
reduces to the inviscid one as mu -> 0.

`RhsSplit` is the one place a model's right-hand side is written down, as
a stiff diagonal linear part plus a nonlinear part; the field-level entry
point `rhs(theta, p)` here and the integrator and Picard solver in
`stepping` all evaluate it.

`rhs` is pure and safe for concurrent use on distinct inputs.
`advection_coeffs` works in the arrays it is handed, and an `RhsSplit`
hands it the same two from call to call, so a split belongs to one
thread; every array it returns is fresh unless the caller passes `out`.
The `Integrator` that holds a split also owns the stage arrays of its
steps and writes each right-hand side into them with `out`; only the
state it returns is fresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import DEFECT_REL_TOL, Grid, SpectralField, product_spectra

MODELS = ("inviscid", "dissipative", "regularized")
MODEL_CODES = {"inviscid": 0, "dissipative": 1, "regularized": 2}
MODEL_NAMES = {code: name for name, code in MODEL_CODES.items()}


@dataclass(frozen=True)
class ModelParams:
    """Model tag plus the coefficients alpha, kappa, mu and optional forcing."""

    model: str
    alpha: float = 0.5
    kappa: float = 0.0
    mu: float = 0.0
    forcing: SpectralField | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(f"unknown model {self.model!r}")
        for name in ("alpha", "kappa", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.model == "inviscid" and (self.kappa != 0.0 or self.mu != 0.0):
            raise ValidationError("inviscid model requires kappa = mu = 0")
        if self.model == "dissipative":
            if self.kappa <= 0.0:
                raise ValidationError("dissipative model requires kappa > 0")
            if self.mu != 0.0:
                raise ValidationError("dissipative model requires mu = 0")
        if self.model == "regularized":
            if self.mu <= 0.0:
                raise ValidationError("regularized model requires mu > 0")
            if self.kappa != 0.0:
                raise ValidationError("regularized model requires kappa = 0")
            if self.alpha < 0.5:
                raise ValidationError(
                    f"regularized model requires alpha >= 1/2, got {self.alpha}"
                )
        if self.forcing is not None:
            if self.model != "dissipative":
                raise ValidationError("forcing is supported for the dissipative model only")
            c, band = self.forcing.coeffs, self.forcing.grid.dealias_mask
            if np.max(np.abs(c[~band])) > DEFECT_REL_TOL * np.max(np.abs(c)):
                raise ValidationError("forcing has modes outside the 2/3 dealias band")


def advection_coeffs(
    grid: Grid, coeffs: np.ndarray, spectra: np.ndarray, fields: np.ndarray, out: np.ndarray | None, gradient: np.ndarray
) -> np.ndarray:
    """Normalized half-spectrum coefficients of G . (u theta); array-level hot path.

    `spectral.product_spectra` gives the spectra (f1, f2) of the products
    (u1 theta, u2 theta) in the work arrays `spectra` and `fields`, and
    G1 f1 + G2 f2 is formed over them.  G is the stack `gradient`, zero at
    k = 0 (so the result has zero mean) and outside the 2/3 dealias band;
    `grid.dealiased_gradient` gives div(u theta).  The result is written to
    `out`, a complex128 array of the grid's shape, or to a fresh array when
    None.
    """
    flux = product_spectra(grid, coeffs, spectra, fields)
    np.multiply(gradient, flux, out=flux)
    adv = np.add(flux[0], flux[1], out=out)
    # rfft2 leaves the k1 = 0 column Hermitian only to round-off: mirror k2 > 0 onto k2 < 0
    np.conjugate(adv[grid.n // 2 - 1 : 0 : -1, 0], out=adv[grid.n // 2 + 1 :, 0])
    return adv


def regularized_gradient_kernel(k1, k2, mu: float, alpha: float):
    """Spectral kernel i (k1, k2) / (1 + mu |k|^(2 alpha)), zero at k = 0.

    Accepts scalars or arrays; returns the two components.  Its magnitude
    is bounded by 1/mu whenever alpha >= 1/2.  `RhsSplit` applies it, inside
    the 2/3 band, as the regularized model's gradient.
    """
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    denom = 1.0 + mu * np.hypot(k1, k2) ** (2.0 * alpha)
    return 1j * k1 / denom, 1j * k2 / denom


class RhsSplit:
    """A model's right-hand side as theta_t = linear * theta + nonlinear(theta).

    Acts on bare coefficient arrays.  `linear` is the stiff diagonal part
    -kappa |k|^(2 alpha), present for the dissipative model only (None
    otherwise).  `nonlinear` is -G . (u theta), plus the forcing when there
    is one, where `gradient` is the stack G that `advection_coeffs` applies:
    `grid.dealiased_gradient` for the inviscid and dissipative models, and
    for the regularized model `regularized_gradient_kernel` inside the 2/3
    band.  The split owns the kernel's work arrays, `spectra` and `fields`,
    so it serves one thread; the arrays it returns are fresh unless
    `nonlinear` is given `out`.
    """

    def __init__(self, grid: Grid, p: ModelParams):
        self.grid = grid
        self.spectra, self.fields = np.empty((3, *grid.shape), dtype=np.complex128), np.empty((3, grid.n, grid.n))
        self.linear = None
        self.gradient = grid.dealiased_gradient
        if p.model == "dissipative":
            sym = p.kappa * grid.sqrt_laplacian(2.0 * p.alpha)
            sym[0, 0] = 0.0  # the mean stays undamped, also when alpha = 0
            self.linear = -sym
        elif p.model == "regularized":
            g1, g2 = regularized_gradient_kernel(grid.k1, grid.k2, p.mu, p.alpha)
            self.gradient = np.stack([g1, g2]) * grid.dealias_mask
        self.forcing = None
        if p.forcing is not None:
            if p.forcing.grid.n != grid.n:
                raise ValidationError(
                    f"forcing lives on an n={p.forcing.grid.n} grid, the state on n={grid.n}"
                )
            self.forcing = p.forcing.coeffs

    def nonlinear(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The nonlinear part at c, written to `out` when given, else to a fresh array."""
        out = advection_coeffs(self.grid, c, self.spectra, self.fields, out, self.gradient)
        np.negative(out, out=out)
        if self.forcing is not None:
            out += self.forcing
        return out

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The full right-hand side linear * c + nonlinear(c), written to `out` like `nonlinear`."""
        out = self.nonlinear(c, out)
        if self.linear is not None:
            # the kernel's flux spectra are dead once `nonlinear` returns
            term = np.multiply(self.linear, c, out=self.spectra[0])
            np.add(term, out, out=out)
        return out


def rhs(theta: SpectralField, p: ModelParams) -> SpectralField:
    """The model's right-hand side, evaluated through its RhsSplit."""
    return SpectralField(theta.grid, RhsSplit(theta.grid, p)(theta.coeffs))
