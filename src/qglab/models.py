"""Right-hand sides for the three quasi-geostrophic models.

The models evolve a scalar theta advected by its own Riesz-transform
velocity u = (-R2 theta, R1 theta):

* inviscid:     theta_t + u . grad theta = 0
* dissipative:  theta_t + u . grad theta + kappa (-Lap)^alpha theta = f
* regularized:  theta_t + u . grad theta + mu (-Lap)^alpha theta_t = 0

The advection term is evaluated in divergence form div(u theta) with the
product formed in physical space and always dealiased by the 2/3 rule.
`advection_coeffs` takes (u1, u2, theta) from `spectral.state_fields`,
one stacked real inverse transform, and does one stacked real forward
transform for the two flux products per call.  A forcing is an immutable
`SpectralField`, so it is the spectrum of a real field by construction;
`ModelParams` also checks that it lies inside the 2/3 band.
The regularized model inverts (1 + mu Lambda^(2 alpha)) diagonally; signs
are fixed so that it reduces to the inviscid model as mu -> 0.

`RhsSplit` is the one place a model's right-hand side is written down, as
a stiff diagonal linear part plus a nonlinear part; the `rhs*` functions
here and the integrator and Picard solver in `stepping` all evaluate it.

All evaluations are pure and safe for concurrent use on distinct inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import DEFECT_REL_TOL, Grid, SpectralField, _rfft2, state_fields

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


def advection_coeffs(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Normalized half-spectrum coefficients of div(u theta); array-level hot path.

    `state_fields` gives (u1, u2, theta) on the grid, one stacked forward
    transform gives the products (u1 theta, u2 theta), and
    i (k1 f1 + k2 f2) is formed inside the 2/3 dealias band with the mean
    zeroed.
    """
    h = grid.n // 2 + 1
    fields = state_fields(grid, coeffs)
    adv = np.sum(grid.dealiased_gradient * _rfft2(fields[:2] * fields[2]), axis=0)
    adv[0, 0] = 0.0
    # rfft2 leaves the k1 = 0 column Hermitian only to round-off: mirror k2 > 0 onto k2 < 0
    np.conjugate(adv[h - 2 : 0 : -1, 0], out=adv[h:, 0])
    return adv


def advection_term(theta: SpectralField) -> SpectralField:
    """div(u theta) with u = riesz_velocity(theta); mean advects nothing."""
    return SpectralField(theta.grid, advection_coeffs(theta.grid, theta.coeffs))


def dissipation_symbol(grid: Grid, kappa: float, alpha: float) -> np.ndarray:
    """kappa |k|^(2 alpha) with the k = 0 mode excluded (also when alpha = 0)."""
    sym = kappa * grid.kabs_safe ** (2.0 * alpha)
    sym[0, 0] = 0.0
    return sym


def inverse_symbol(grid: Grid, mu: float, alpha: float) -> np.ndarray:
    """Diagonal inverse 1 / (1 + mu |k|^(2 alpha))."""
    return 1.0 / (1.0 + mu * grid.kabs ** (2.0 * alpha))


def regularized_gradient_kernel(k1, k2, mu: float, alpha: float):
    """Spectral kernel i (k1, k2) / (1 + mu |k|^(2 alpha)), zero at k = 0.

    Accepts scalars or arrays; returns the two components.  Its magnitude
    is bounded by 1/mu whenever alpha >= 1/2.
    """
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    denom = 1.0 + mu * np.hypot(k1, k2) ** (2.0 * alpha)
    return 1j * k1 / denom, 1j * k2 / denom


class RhsSplit:
    """A model's right-hand side as theta_t = linear * theta + nonlinear(theta).

    Acts on bare coefficient arrays.  `linear` is the stiff diagonal part
    -kappa |k|^(2 alpha), present for the dissipative model only (None
    otherwise).  `nonlinear` is -div(u theta), times the diagonal inverse
    (1 + mu Lambda^(2 alpha))^(-1) for the regularized model, plus the
    forcing when there is one.
    """

    def __init__(self, grid: Grid, p: ModelParams):
        self.grid = grid
        self.linear = -dissipation_symbol(grid, p.kappa, p.alpha) if p.model == "dissipative" else None
        self.inverse = inverse_symbol(grid, p.mu, p.alpha) if p.model == "regularized" else None
        self.forcing = None
        if p.forcing is not None:
            if p.forcing.grid.n != grid.n:
                raise ValidationError(
                    f"forcing lives on an n={p.forcing.grid.n} grid, the state on n={grid.n}"
                )
            self.forcing = p.forcing.coeffs

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        out = -advection_coeffs(self.grid, c)
        if self.inverse is not None:
            out *= self.inverse
        if self.forcing is not None:
            out += self.forcing
        return out

    def __call__(self, c: np.ndarray) -> np.ndarray:
        """The full right-hand side linear * c + nonlinear(c)."""
        if self.linear is None:
            return self.nonlinear(c)
        return self.linear * c + self.nonlinear(c)


def rhs(theta: SpectralField, p: ModelParams) -> SpectralField:
    """The model's right-hand side, evaluated through its RhsSplit."""
    return SpectralField(theta.grid, RhsSplit(theta.grid, p)(theta.coeffs))


def rhs_inviscid(theta: SpectralField) -> SpectralField:
    """theta_t = -div(u theta)."""
    return rhs(theta, ModelParams("inviscid"))


def rhs_dissipative(theta: SpectralField, p: ModelParams) -> SpectralField:
    """theta_t = -div(u theta) - kappa Lambda^(2 alpha) theta + f."""
    if p.model != "dissipative":
        raise ValidationError(f"rhs_dissipative called with model {p.model!r}")
    return rhs(theta, p)


def rhs_regularized(theta: SpectralField, p: ModelParams) -> SpectralField:
    """theta_t = -(1 + mu Lambda^(2 alpha))^(-1) div(u theta).

    Mode for mode this is the diagonal inverse applied to the inviscid
    right-hand side, equivalently the gradient kernel contracted with the
    flux u theta.
    """
    if p.model != "regularized":
        raise ValidationError(f"rhs_regularized called with model {p.model!r}")
    return rhs(theta, p)
