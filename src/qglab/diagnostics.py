"""Norms, conservation residuals, inequality monitors and scale-local flux.

Everything here is a pure function of its inputs and safe to evaluate
concurrently across snapshots.  Norm conventions follow the physical
integral: |f|_q = (integral |f|^q dx)^(1/q) by exact grid quadrature and
||f||_s = |Lambda^s f|_2 = 2 pi sqrt(sum |k|^(2s) |f_hat|^2), the sum over
all k taken on the stored half spectrum with `Grid.parseval_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativePowerOnMean, Violation
from .models import ModelParams
from .presets import random_shell_field
from .spectral import (
    TWO_PI,
    Grid,
    Mollifier,
    PhysicalField,
    SpectralField,
    _irfft2,
    _rfft2,
    inverse_transform,
    pad_spectrum,
    state_fields,
)

CELL_AREA_FACTOR = TWO_PI * TWO_PI  # integral f dx = (2 pi)^2 * mean of samples


# ---------------------------------------------------------------------------
# norms


def lp_norm(f: PhysicalField, q) -> float:
    """(integral |f|^q dx)^(1/q); q = inf gives the max over nodes."""
    return _lp(f.values, q)


def _lp(values: np.ndarray, q) -> float:
    """`lp_norm` of grid samples."""
    if q == np.inf or q == math.inf:
        return float(np.max(np.abs(values)))
    if q < 1.0:
        raise ValueError(f"lp_norm requires q >= 1, got {q}")
    moment = float(np.mean(np.abs(values) ** q))
    return (CELL_AREA_FACTOR * moment) ** (1.0 / q)


def _q_inf(u1: np.ndarray, u2: np.ndarray, th: np.ndarray) -> float:
    """|theta|_inf + |u|_inf from the grid values of `state_fields`."""
    return _lp(th, np.inf) + float(np.max(np.hypot(u1, u2)))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm |Lambda^s f|_2; the mean participates only at s = 0."""
    c2 = np.abs(f.coeffs) ** 2
    w = f.grid.parseval_weights
    if s == 0.0:
        total = float(np.sum(w * c2))
    else:
        if s < 0.0:
            scale = 1.0 + float(np.sqrt(np.max(c2)))
            if abs(f.coeffs[0, 0]) > 1e-13 * scale:
                raise NegativePowerOnMean(f"H^{s} norm of field with nonzero mean")
        total = float(np.sum(w * f.grid.kabs_safe ** (2.0 * s) * c2)) - float(c2[0, 0])
    return TWO_PI * math.sqrt(max(total, 0.0))


def dyadic_shell(f: SpectralField, j: int) -> SpectralField:
    """Restrict to the dyadic shell 2^j <= |k| < 2^(j+1)."""
    lo, hi = 2.0**j, 2.0 ** (j + 1)
    mask = (f.grid.kabs >= lo) & (f.grid.kabs < hi)
    return SpectralField(f.grid, np.where(mask, f.coeffs, 0.0))


def besov_norm(f: SpectralField, s: float) -> float:
    """B^(s,inf)_3 norm: sup over shells j >= 0 of 2^(js) |Delta_j f|_3.

    Sharp dyadic cutoffs; the j = 0 shell covers 1 <= |k| < 2 and the mean
    belongs to no shell.
    """
    # the j with 2^j <= max |k| = n / sqrt(2), which is never a power of 2
    js = range(int(math.log2(np.max(f.grid.kabs))) + 1)
    values = _irfft2(np.stack([dyadic_shell(f, j).coeffs for j in js]))
    return max(2.0 ** (j * s) * _lp(v, 3.0) for j, v in zip(js, values))  # empty shells give 0


# ---------------------------------------------------------------------------
# time-series records


@dataclass
class NormRecord:
    """Sampled diagnostics of a single state along a run."""

    t: float
    lp: dict  # q -> |theta|_q for q in {2, 3, 4, inf}
    hs: dict  # s -> ||theta||_s
    energy: float  # |theta|_2^2
    mod_energy: float  # |theta|_2^2 + mu ||theta||_alpha^2
    diss_integral: float  # running 2 kappa int_0^t ||theta||_alpha^2
    q_inf: float  # |theta|_inf + |u|_inf
    ladder: float  # 1 + ||theta||_1 sqrt(log(1 + ||theta||_sigma^(1/(sigma-1))))
    balance_residual: float = 0.0
    forcing_power: float = 0.0  # instantaneous 2 (theta, f)
    work_integral: float = 0.0  # running 2 int_0^t (theta, f)


def ladder_bracket(theta: SpectralField, sigma: float) -> float:
    """The log-interpolation bracket controlling |theta|_inf; needs sigma > 1 (ValueError otherwise)."""
    if not sigma > 1.0:
        raise ValueError(f"sigma must exceed 1, got {sigma}")
    h1 = sobolev_norm(theta, 1.0)
    hsig = sobolev_norm(theta, sigma)
    return 1.0 + h1 * math.sqrt(math.log1p(hsig ** (1.0 / (sigma - 1.0))))


def velocity_sup(theta: SpectralField) -> float:
    """Pointwise-Euclidean sup of the Riesz velocity."""
    u1, u2, _ = state_fields(theta.grid, theta.coeffs)
    return float(np.max(np.hypot(u1, u2)))


def make_record(
    theta: SpectralField,
    t: float,
    p: ModelParams,
    s: float = 2.0,
    sigma: float = 2.0,
    prev: NormRecord | None = None,
    initial: NormRecord | None = None,
) -> NormRecord:
    """Assemble a NormRecord; running integrals continue from `prev` by trapezoid."""
    fields = state_fields(theta.grid, theta.coeffs)
    lp = {q: _lp(fields[2], q) for q in (2.0, 3.0, 4.0, np.inf)}
    hs = {1.0: sobolev_norm(theta, 1.0)}
    if s not in hs:
        hs[s] = sobolev_norm(theta, s)
    if p.model != "inviscid" and p.alpha not in hs:
        hs[p.alpha] = sobolev_norm(theta, p.alpha)

    energy = lp[2.0] ** 2
    mod_energy = energy + (p.mu * hs[p.alpha] ** 2 if p.model == "regularized" else 0.0)

    forcing_power = 0.0
    if p.forcing is not None:
        inner = np.sum(theta.grid.parseval_weights * theta.coeffs * np.conj(p.forcing.coeffs)).real
        forcing_power = 2.0 * CELL_AREA_FACTOR * float(inner)

    diss_integral = 0.0
    work_integral = 0.0
    if prev is not None:
        h = t - prev.t
        work_integral = prev.work_integral + 0.5 * h * (prev.forcing_power + forcing_power)
        if p.model == "dissipative":
            rate_prev = 2.0 * p.kappa * prev.hs[p.alpha] ** 2
            rate_now = 2.0 * p.kappa * hs[p.alpha] ** 2
            diss_integral = prev.diss_integral + 0.5 * h * (rate_prev + rate_now)

    record = NormRecord(
        t=t,
        lp=lp,
        hs=hs,
        energy=energy,
        mod_energy=mod_energy,
        diss_integral=diss_integral,
        q_inf=_q_inf(*fields),
        ladder=ladder_bracket(theta, sigma),
        forcing_power=forcing_power,
        work_integral=work_integral,
    )
    if initial is not None:
        if p.model == "regularized":
            record.balance_residual = abs(record.mod_energy - initial.mod_energy) / initial.mod_energy
        else:
            drift = record.energy + record.diss_integral - record.work_integral - initial.energy
            record.balance_residual = abs(drift) / initial.energy
    return record


# ---------------------------------------------------------------------------
# monitored inequalities


@dataclass
class MaxPrincipleReport:
    q: float
    worst_margin: float  # max_t [ |theta(t)|_q - |theta_0|_q - int |f|_q ]
    worst_time: float
    slack: float


def max_principle_check(
    records: list[NormRecord], q, forcing_lq: float = 0.0, slack_rel: float = 1e-3
) -> MaxPrincipleReport:
    """Verify |theta(t)|_q <= |theta_0|_q + int_0^t |f|_q + slack along a run.

    `forcing_lq` is the (constant-in-time) |f|_q.  The slack absorbs
    spectral pointwise overshoot and defaults to 1e-3 |theta_0|_q.
    Raises Violation at the first failing sample.
    """
    if not records:
        raise ValueError("empty record series")
    base = records[0].lp[q]
    slack = slack_rel * base
    worst, worst_t = -math.inf, records[0].t
    for rec in records[1:]:  # the t = 0 sample meets the bound trivially
        margin = rec.lp[q] - base - forcing_lq * (rec.t - records[0].t)
        if margin > worst:
            worst, worst_t = margin, rec.t
        if margin > slack:
            raise Violation(rec.t, f"maximum principle violated for q={q}: margin {margin:.3e} > slack {slack:.3e}")
    if not math.isfinite(worst):
        worst, worst_t = 0.0, records[0].t
    return MaxPrincipleReport(q=q, worst_margin=worst, worst_time=worst_t, slack=slack)


def energy_balance_residual(records: list[NormRecord]) -> float:
    """Max relative defect of |theta|_2^2 + 2 kappa int ||theta||_alpha^2 - 2 int (theta, f) = const.

    Valid for inviscid and dissipative runs, forced or not: the forcing
    work is subtracted.  The running integrals use the trapezoid rule over
    the diagnostic samples.
    """
    if not records:
        raise ValueError("empty record series")
    e0 = records[0].energy
    return max(abs(rec.energy + rec.diss_integral - rec.work_integral - e0) / e0 for rec in records)


@dataclass
class CriticalReport:
    q_inf: float
    ladder: float
    q_small: bool  # q_inf < kappa / c0
    ladder_small: bool  # ladder <= c0 * kappa


def critical_monitor(theta: SpectralField, p: ModelParams, c0: float, sigma: float = 2.0) -> CriticalReport:
    """Evaluate the critical-case smallness monitors with a user-supplied constant c0.

    c0 is an input, not a derived quantity, and must be positive and
    finite (ValueError otherwise); the flags simply compare against
    kappa / c0 and c0 kappa.
    """
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    q = _q_inf(*state_fields(theta.grid, theta.coeffs))
    lad = ladder_bracket(theta, sigma)
    return CriticalReport(
        q_inf=q,
        ladder=lad,
        q_small=bool(q < p.kappa / c0),
        ladder_small=bool(lad <= c0 * p.kappa),
    )


def log_bound_ratio(theta: SpectralField, sigma: float) -> float:
    """|F|_inf over the ladder bracket, the quantity the lemma bounds."""
    sup = float(np.max(np.abs(inverse_transform(theta).values)))
    return sup / ladder_bracket(theta, sigma)


def log_interpolation_constant(trials: int, sigma: float = 2.0, mode_cap: int = 32, seed: int = 0) -> float:
    """Empirical constant for the L-infinity log-interpolation bound.

    Draws `trials` zero-mean fields with random phases and |k|^(-gamma)
    magnitudes (gamma uniform in [1, 3], modes up to `mode_cap`) on the
    grid n = max(8, 4 mode_cap) and returns the largest observed ratio
    |F|_inf / bracket.  `trials` must be at least 1 and sigma above 1
    (ValueError otherwise).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    grid = Grid(max(8, 4 * mode_cap))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        gamma = rng.uniform(1.0, 3.0)
        f = random_shell_field(grid, mode_cap, gamma, rng)
        worst = max(worst, log_bound_ratio(f, sigma))
    return worst


def gn_constant(trials: int, mode_cap: int = 32, seed: int = 0) -> float:
    """Largest relative residual of the constant-1 interpolation inequality.

    Each trial draws gamma uniform in [1, 3], a zero-mean |k|^(-gamma)
    shell field with modes up to `mode_cap`, then s in [0, 2], alpha in
    [0.2, 1.5] and beta = alpha * U[0.1, 0.9]; the trial's value is
    gn_residual over the right-hand side.  The result is nonpositive up to
    round-off.  `trials` must be at least 1 (ValueError otherwise).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    grid = Grid(max(32, 2 * mode_cap))
    worst = -np.inf
    for _ in range(trials):
        gamma = rng.uniform(1.0, 3.0)
        f = random_shell_field(grid, min(mode_cap, grid.n // 2 - 1), gamma, rng)
        s = rng.uniform(0.0, 2.0)
        alpha = rng.uniform(0.2, 1.5)
        beta = alpha * rng.uniform(0.1, 0.9)
        rhs = sobolev_norm(f, s + alpha) ** (beta / alpha) * sobolev_norm(f, s) ** (1 - beta / alpha)
        worst = max(worst, gn_residual(f, s, alpha, beta) / rhs)
    return worst


def gn_residual(f: SpectralField, s: float, alpha: float, beta: float) -> float:
    """lhs - rhs of the constant-1 spectral interpolation inequality.

    |Lambda^(s+beta) f|_2 <= |Lambda^(s+alpha) f|_2^(beta/alpha)
    |Lambda^s f|_2^(1-beta/alpha); the return value is nonpositive up to
    round-off.
    """
    if not 0.0 < beta < alpha:
        raise ValueError(f"need 0 < beta < alpha, got beta={beta}, alpha={alpha}")
    lhs = sobolev_norm(f, s + beta)
    frac = beta / alpha
    rhs = sobolev_norm(f, s + alpha) ** frac * sobolev_norm(f, s) ** (1.0 - frac)
    return lhs - rhs


# ---------------------------------------------------------------------------
# scale-local (coarse-grained) flux


@dataclass(frozen=True)
class ConvexProfile:
    """A C^2 strictly convex profile G; the dr field needs only g2 = G''.

    "half-square" is G = x^2 / 2 and "sqrt1p" is G = sqrt(1 + x^2).
    """

    tag: str

    def __post_init__(self):
        if self.tag not in ("half-square", "sqrt1p"):
            raise ValueError(f"unknown convex profile {self.tag!r}")

    def g2(self, x):
        if self.tag == "half-square":
            return np.ones_like(np.asarray(x, dtype=np.float64))
        return (1.0 + x * x) ** -1.5


HALF_SQUARE = ConvexProfile("half-square")
SQRT1P = ConvexProfile("sqrt1p")


@dataclass
class FluxEstimate:
    """Scale-eps transfer quantities of a single state."""

    eps: float
    profile: str
    sigma_l1: float  # |sigma_eps|_1, Euclidean magnitude under the integral
    flux_integral: float  # integral sigma_eps . grad theta_eps dx
    r_l32: float | None = None  # |r_eps|_{3/2} from the stencil quadrature
    decomposition_l1_error: float | None = None
    dr_field: PhysicalField | None = None


def coarse_grained_flux(
    theta: SpectralField,
    eps: float,
    profile: str = "gaussian",
    with_remainder: bool = True,
    dr_profile: ConvexProfile | None = None,
) -> FluxEstimate:
    """Mollified-flux diagnostics at scale eps.

    sigma_eps = u_eps theta_eps - (u theta)_eps is computed spectrally on a
    doubled grid N = 2n so the quadratic products are alias free.  The
    fields come from the half spectrum of that grid through real
    transforms of at most three stacked fields each.

    When `with_remainder` is set, r_eps(u, theta) = integral of
    rho_eps(y) (u(x - y) - u(x)) (theta(x - y) - theta(x)) dy is evaluated
    independently of the spectral identity, by the 21 x 21 stencil
    quadrature of `Mollifier.stencil` (its nodes y_ab and weights w_ab,
    never the mollifier multiplier).  With the difference operator
    D f = sum_ab w_ab (f(x - y_ab) - f(x)), whose symbol
    D(k) = sum_ab w_ab (exp(-i k . y_ab) - 1) is separable in the two
    offsets, the quadrature is exactly r_eps = D(u theta) - u D theta -
    theta D u.  D theta and D u come from one stacked inverse transform on
    the doubled grid, in the same stacked transform as D(u theta).  The
    products u theta reach |k| = n, the doubled grid's Nyquist lines, when
    theta has content on its own Nyquist lines; the stencil weights are
    mirror symmetric in each axis, so D takes one value on k and its
    mirror image across those lines, and no shift of the products aliases.
    The L1 defect of the identity sigma_eps = (u - u_eps)(theta -
    theta_eps) - r_eps is reported.

    The convex profile G enters only the Duchon-Robert dissipation field
    G''(theta_eps) grad theta_eps . ((u theta)_eps - u_eps theta_eps),
    which is computed, on the grid of `theta`, iff `dr_profile` is given.
    """
    return flux_scan(theta, [eps], profile, with_remainder, dr_profile)[0]


def flux_scan(
    theta: SpectralField,
    eps_list,
    profile: str = "gaussian",
    with_remainder: bool = True,
    dr_profile: ConvexProfile | None = None,
) -> list[FluxEstimate]:
    """`coarse_grained_flux` at every eps of `eps_list`, largest eps first.

    Every eps is validated before the state is padded, and the padding and
    the eps-independent transforms are done once for the whole list.
    """
    mollifiers = [Mollifier(eps, profile) for eps in sorted(eps_list, reverse=True)]
    if not mollifiers:
        raise ValueError("empty eps list")
    padded = _padded_fields(theta)
    return [_flux_at_scale(theta.grid, padded, mol, with_remainder, dr_profile) for mol in mollifiers]


def _padded_fields(theta: SpectralField):
    """The eps-independent front end of `coarse_grained_flux` on the doubled grid.

    Returns the grid, the spectra of (u1, u2, theta), those fields on the
    grid, and the spectra of the products (u1 theta, u2 theta).
    """
    fine = pad_spectrum(theta, 2 * theta.grid.n)
    gf = fine.grid
    fields_hat = gf.state_multipliers * fine.coeffs
    fields = _irfft2(fields_hat)
    uth_hat = _rfft2(fields[:2] * fields[2])
    return gf, fields_hat, fields, uth_hat


def _difference_symbol(grid: Grid, offsets, weights) -> np.ndarray:
    """sum_ab w_ab (exp(-i k . y_ab) - 1) on the half spectrum, weights[b, a] at (offsets[a], offsets[b]).

    With E = exp(-i k y) - 1 per axis, each term is E1 E2 + E1 + E2; expm1
    keeps the small-|k| values accurate, where r_eps cancels.
    """
    e = np.expm1(-1j * np.outer(grid.wavenumbers, offsets))  # rows: k2
    e_half = e[: grid.n // 2 + 1]  # columns: k1 = 0..n/2
    return e @ weights @ e_half.T + (e @ weights.sum(1))[:, None] + (e_half @ weights.sum(0))[None, :]


def _flux_at_scale(grid, padded, mol, with_remainder, dr_profile) -> FluxEstimate:
    """`coarse_grained_flux` at one scale from the `_padded_fields` of its state."""
    gf, fields_hat, (u1, u2, th), uth_hat = padded
    m = mol.multiplier(gf)

    u1_eps, u2_eps, th_eps = _irfft2(m * fields_hat)
    # theta_eps lives in |k_i| <= N/4, inside the dealias band of the doubled grid
    dth1_eps, dth2_eps = _irfft2(gf.dealiased_gradient * (m * fields_hat[2]))
    uth1_eps, uth2_eps = _irfft2(m * uth_hat)

    sigma1 = u1_eps * th_eps - uth1_eps
    sigma2 = u2_eps * th_eps - uth2_eps

    flux = float(np.mean(sigma1 * dth1_eps + sigma2 * dth2_eps)) * CELL_AREA_FACTOR
    sigma_l1 = float(np.mean(np.hypot(sigma1, sigma2))) * CELL_AREA_FACTOR

    est = FluxEstimate(eps=mol.eps, profile=mol.profile, sigma_l1=sigma_l1, flux_integral=flux)

    if with_remainder:
        offsets, weights = mol.stencil(gf)
        diff = _difference_symbol(gf, offsets, weights)
        du1, du2, dth, duth1, duth2 = _irfft2(diff * np.concatenate([fields_hat, uth_hat]))
        r1 = duth1 - u1 * dth - th * du1
        r2 = duth2 - u2 * dth - th * du2
        rmag = np.hypot(r1, r2)
        est.r_l32 = (float(np.mean(rmag**1.5)) * CELL_AREA_FACTOR) ** (2.0 / 3.0)
        d1 = (u1 - u1_eps) * (th - th_eps) - r1 - sigma1
        d2 = (u2 - u2_eps) * (th - th_eps) - r2 - sigma2
        est.decomposition_l1_error = float(np.mean(np.hypot(d1, d2))) * CELL_AREA_FACTOR

    if dr_profile is not None:
        # (u theta)_eps - u_eps theta_eps = -sigma_eps
        dr = dr_profile.g2(th_eps) * (dth1_eps * (-sigma1) + dth2_eps * (-sigma2))
        est.dr_field = PhysicalField(grid, dr[::2, ::2])

    return est
