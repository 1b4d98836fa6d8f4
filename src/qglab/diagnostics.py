"""Norms, conservation residuals, inequality monitors and scale-local flux.

Every number qglab reports about a state is formed here: `state_norms`
is the one summary of a state, which each `NormRecord` and `qglab norms`
report, and `flux_decay_exponent` is the `fit_loglog_slope` of the flux
over a list of scales, built on the same flux front as `flux_scan`.

Everything here is a pure function of its inputs and safe to evaluate
concurrently across snapshots: `flux_scan` forms the doubled-grid arrays
of its state and of every eps in one workspace that each call allocates
for itself, and the flux front, which `flux_decay_exponent` also runs,
writes each of its intermediates over a dead one.  The inverse
transforms of spectra that derive wholly from the padded state run their
column stage on the columns that padding fills, with the same bits.  The
flux integral needs no per-eps field.  u_eps is divergence free, so
integral u_eps theta_eps . grad theta_eps dx = -1/2 integral (div u_eps)
theta_eps^2 dx = 0 and the flux integral sigma_eps . grad theta_eps dx is
-integral (u theta)_eps . grad theta_eps dx, a Parseval sum of
m_eps(k)^2 times one eps-independent pairing of the spectra of u theta
and grad theta.  That pairing lives where the padded theta_hat does, on
the columns and rows of theta's own grid, so it is folded onto theta's
(n, n/2 + 1) slots and each eps sums over them with the multiplier of
theta's grid.  Norm conventions follow
the physical integral: |f|_q = (integral |f|^q dx)^(1/q) by exact grid
quadrature and ||f||_s = |Lambda^s f|_2 = 2 pi sqrt(sum |k|^(2s)
|f_hat|^2), the sum over all k taken on the stored half spectrum with
`Grid.parseval_weights`.  A per-node magnitude |(x, y)|, of u, sigma_eps,
r_eps or the decomposition defect, is numpy's complex absolute of x + i y
(`_magnitude`), which is vectorized and, like hypot, neither overflows nor
underflows where x^2 + y^2 would.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, ValidationError, Violation
from .models import ModelParams
from .presets import random_shell_field
from .spectral import (
    TWO_PI,
    Grid,
    Mollifier,
    PhysicalField,
    SpectralField,
    _check_negative_power,
    _irfft2,
    _rfft2,
    _shared_grid,
    inverse_transform,
    pad_spectrum,
    product_spectra,
)

CELL_AREA_FACTOR = TWO_PI * TWO_PI  # integral f dx = (2 pi)^2 * mean of samples
ROUNDOFF_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# norms


def lp_norm(f: PhysicalField, q) -> float:
    """(integral |f|^q dx)^(1/q); q = inf gives the max over nodes.

    Where |f|^q overflows or underflows to 0, the largest |f| is factored
    out of the integral first.
    """
    return _lp(f.values, q)


def _lp(values: np.ndarray, q) -> float:
    """`lp_norm` of grid samples."""
    if q == np.inf or q == math.inf:
        return float(np.max(np.abs(values)))
    if not q >= 1.0:  # also rejects NaN
        raise ValidationError(f"lp_norm requires q >= 1, got {q}")
    size = np.abs(values)
    with np.errstate(over="ignore", under="ignore"):
        integral = CELL_AREA_FACTOR * float(np.mean(size**q))
    if integral == math.inf or integral == 0.0:  # |f|^q may have left the double range
        top = float(np.max(size))
        if top > 0.0:  # factor the largest |f| out
            return top * (CELL_AREA_FACTOR * float(np.mean((size / top) ** q))) ** (1.0 / q)
    return integral ** (1.0 / q)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm |Lambda^s f|_2: 2 pi sqrt of the sum of |f_hat|^2 by `Grid.sobolev_weights(s)`.

    The mean participates only at s = 0, where the symbol is 1 at k = 0;
    at any other s it is weighted by 0, so no size of mean can absorb the
    other modes.  `s` must be finite, and a negative s needs a zero mean
    (NegativePowerOnMean otherwise).
    """
    return _sobolev_norms(f, (s,))[s]


def _sobolev_norms(f: SpectralField, indices) -> dict:
    """{s: `sobolev_norm(f, s)`} over the distinct `indices`, bit for bit.

    |f_hat|^2 is formed once and one symbol per distinct index; every
    index is checked as `sobolev_norm` checks it before any is summed.
    Where a sum overflows, underflows to 0 or meets an overflowed square
    with a zero symbol (NaN) although some |f_hat| > 0, the largest |f_hat|
    is factored out of it first, as `lp_norm` does.
    """
    indices = dict.fromkeys(indices)
    for s in indices:
        if not math.isfinite(s):
            raise ValidationError(f"sobolev_norm requires a finite s, got {s}")
        _check_negative_power(f, s)
    size = np.abs(f.coeffs)

    def norm(c2, s):
        return TWO_PI * math.sqrt(float(np.sum(f.grid.sobolev_weights(s) * c2)))

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        c2 = size**2
        norms = {s: norm(c2, s) for s in indices}
    for s, value in norms.items():
        if not 0.0 < value < math.inf:  # |f_hat|^2 may have left the double range, or 0 * inf at k = 0
            top = float(np.max(size))
            if top > 0.0:  # factor the largest |f_hat| out
                norms[s] = top * norm((size / top) ** 2, s)
    return norms


# ---------------------------------------------------------------------------
# time-series records


@dataclass
class NormRecord:
    """Sampled diagnostics of a single state along a run.

    `balance_residual` is the defect of the energy law that all three
    models obey, |mod_energy + diss_integral - work_integral - E_mu(0)|
    over E_mu(0), the initial `mod_energy`, or the absolute defect from
    rest (E_mu(0) = 0); it is 0.0 at t = 0.
    """

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
    """The log-interpolation bracket 1 + ||theta||_1 sqrt(log(1 + ||theta||_sigma^(1/(sigma-1)))).

    It controls |theta|_inf.  Both norms come from one `_sobolev_norms`
    pass; needs sigma > 1 (ValidationError otherwise).
    """
    return _norms_and_ladder(theta, (), sigma)[1]


def _norms_and_ladder(theta: SpectralField, indices, sigma: float) -> tuple[dict, float]:
    """(norms, ladder): `_sobolev_norms` at `indices`, 1 and sigma, and the bracket built from them.

    sigma must exceed 1 (ValidationError otherwise), which is checked
    before any norm is formed.
    """
    if not sigma > 1.0:  # also rejects NaN
        raise ValidationError(f"sigma must exceed 1, got {sigma}")
    norms = _sobolev_norms(theta, (*indices, 1.0, sigma))
    return norms, 1.0 + norms[1.0] * math.sqrt(math.log1p(norms[sigma] ** (1.0 / (sigma - 1.0))))


def state_norms(theta: SpectralField, qs, indices, sigma: float) -> tuple[dict, dict, float, float]:
    """(lp, hs, q_inf, ladder): the summary of one state that a record and `qglab norms` report.

    lp maps each q of `qs` to |theta|_q and hs each index of `indices` to
    ||theta||_s; q_inf is |theta|_inf + |u|_inf and ladder the
    `ladder_bracket` at sigma.  theta and u come from one stacked inverse
    transform and the Sobolev norms from one `_sobolev_norms` pass, so
    every value is bit for bit what `lp_norm`, `sobolev_norm` and
    `ladder_bracket` return.  A q below 1, an index that `sobolev_norm`
    rejects or sigma <= 1 raises ValidationError.
    """
    # the inverse allocates its own fields: fields allocated before the column
    # stage's temporary raised the n = 128 march benchmark's peak RSS by 0.4 MB
    spectra = theta.grid.state_spectra(theta.coeffs)
    u1, u2, th = _irfft2(spectra)
    lp = {q: _lp(th, q) for q in qs}
    norms, ladder = _norms_and_ladder(theta, indices, sigma)
    hs = {index: norms[index] for index in indices}
    # |u| in the bytes of the consumed spectra
    u_inf = float(np.max(_magnitude(u1, u2, _overlay(spectra, np.complex128, u1.shape), u1)))
    return lp, hs, _lp(th, np.inf) + u_inf, ladder


def make_record(
    theta: SpectralField,
    t: float,
    p: ModelParams,
    s: float = 2.0,
    sigma: float = 2.0,
    prev: NormRecord | None = None,
    initial: NormRecord | None = None,
) -> NormRecord:
    """Assemble a NormRecord; running integrals continue from `prev` by trapezoid.

    `lp`, `hs`, `q_inf` and `ladder` are the `state_norms` of theta at
    q in {2, 3, 4, inf} and at the indices 1, `s` and, unless inviscid,
    alpha.  sigma must exceed 1 (ValidationError).  With `initial`, the
    run's first record, it sets `balance_residual`, the one energy-law
    defect of every model (see NormRecord).
    """
    indices = (1.0, s, p.alpha) if p.model != "inviscid" else (1.0, s)
    lp, hs, q_inf, ladder = state_norms(theta, (2.0, 3.0, 4.0, np.inf), indices, sigma)

    # squares as products: a float's ** 2 raises OverflowError past the double range
    energy = lp[2.0] * lp[2.0]
    mod_energy = energy + (p.mu * (hs[p.alpha] * hs[p.alpha]) if p.model == "regularized" else 0.0)

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
            rate_prev = 2.0 * p.kappa * (prev.hs[p.alpha] * prev.hs[p.alpha])
            rate_now = 2.0 * p.kappa * (hs[p.alpha] * hs[p.alpha])
            diss_integral = prev.diss_integral + 0.5 * h * (rate_prev + rate_now)

    record = NormRecord(
        t=t,
        lp=lp,
        hs=hs,
        energy=energy,
        mod_energy=mod_energy,
        diss_integral=diss_integral,
        q_inf=q_inf,
        ladder=ladder,
        forcing_power=forcing_power,
        work_integral=work_integral,
    )
    if initial is not None:
        defect = abs(mod_energy + diss_integral - work_integral - initial.mod_energy)
        record.balance_residual = defect / initial.mod_energy if initial.mod_energy else defect
    return record


# ---------------------------------------------------------------------------
# monitored inequalities


@dataclass
class MaxPrincipleReport:
    q: float
    worst_margin: float  # max_t [ |theta(t)|_q - |theta_0|_q - int |f|_q ]
    slack: float


def max_principle_check(
    records: list[NormRecord], q, forcing_lq: float = 0.0, slack_rel: float = 1e-3
) -> MaxPrincipleReport:
    """Verify |theta(t)|_q <= |theta_0|_q + int_0^t |f|_q + slack along a run.

    `forcing_lq` is the (constant-in-time) |f|_q.  The slack absorbs
    spectral pointwise overshoot and defaults to 1e-3 |theta_0|_q.
    Raises Violation at the first failing sample, and ValidationError when the
    records hold no |theta|_q for this q or `forcing_lq` or `slack_rel` is
    negative or not finite.
    """
    if not records:
        raise ValidationError("empty record series")
    if not (0.0 <= forcing_lq < math.inf and 0.0 <= slack_rel < math.inf):  # also rejects NaN
        raise ValidationError(f"forcing_lq and slack_rel must be finite and >= 0, got {forcing_lq}, {slack_rel}")
    if q not in records[0].lp:
        raise ValidationError(f"records hold no |theta|_q for q={q}; recorded exponents: {list(records[0].lp)}")
    base = records[0].lp[q]
    slack = slack_rel * base
    worst = -math.inf
    for rec in records[1:]:  # the t = 0 sample meets the bound trivially
        margin = rec.lp[q] - base - forcing_lq * (rec.t - records[0].t)
        worst = max(worst, margin)
        if margin > slack:
            raise Violation(rec.t, f"maximum principle violated for q={q}: margin {margin:.3e} > slack {slack:.3e}")
    if not math.isfinite(worst):
        worst = 0.0
    return MaxPrincipleReport(q=q, worst_margin=worst, slack=slack)


def energy_balance_residual(records: list[NormRecord]) -> float:
    """Max `balance_residual` of the records: the defect of the energy law E_mu + D - W = E_mu(0).

    E_mu = |theta|_2^2 + mu ||theta||_alpha^2 (mu = 0 outside the
    regularized model), D = 2 kappa int ||theta||_alpha^2 and
    W = 2 int (theta, f), each integral by the trapezoid rule over the
    diagnostic samples.  Every record holds its defect against the run's
    initial state, relative to E_mu(0), or absolute when the run starts from
    rest, so a slice of a run is judged against that state too.
    """
    if not records:
        raise ValidationError("empty record series")
    return max(rec.balance_residual for rec in records)


def _check_lab_controls(trials: int, mode_cap: int) -> None:
    for name, value in (("trials", trials), ("mode_cap", mode_cap)):
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")


def log_interpolation_constant(trials: int, sigma: float = 2.0, mode_cap: int = 32, seed: int = 0) -> float:
    """Empirical constant for the L-infinity log-interpolation bound.

    Draws `trials` zero-mean fields with random phases and |k|^(-gamma)
    magnitudes (gamma uniform in [1, 3], modes up to `mode_cap`) on the
    grid n = max(8, 4 mode_cap) and returns the largest observed ratio
    |F|_inf / bracket.  `trials` and `mode_cap` must be at least 1 and
    sigma above 1 (ValidationError otherwise).
    """
    _check_lab_controls(trials, mode_cap)
    grid = Grid(max(8, 4 * mode_cap))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        gamma = rng.uniform(1.0, 3.0)
        f = random_shell_field(grid, mode_cap, gamma, rng)
        worst = max(worst, lp_norm(inverse_transform(f), np.inf) / ladder_bracket(f, sigma))
    return worst


def gn_constant(trials: int, mode_cap: int = 32, seed: int = 0) -> float:
    """Largest relative residual of the constant-1 interpolation inequality.

    Each trial draws gamma uniform in [1, 3], a zero-mean |k|^(-gamma)
    shell field with modes up to `mode_cap`, then s in [0, 2], alpha in
    [0.2, 1.5] and beta = alpha * U[0.1, 0.9]; the trial's value is
    gn_residual over the right-hand side.  The result is nonpositive up to
    round-off.  `trials` and `mode_cap` must be at least 1 (ValidationError
    otherwise).
    """
    _check_lab_controls(trials, mode_cap)
    rng = np.random.default_rng(seed)
    grid = Grid(max(32, 2 * mode_cap))
    worst = -np.inf
    for _ in range(trials):
        gamma = rng.uniform(1.0, 3.0)
        f = random_shell_field(grid, min(mode_cap, grid.n // 2 - 1), gamma, rng)
        s = rng.uniform(0.0, 2.0)
        alpha = rng.uniform(0.2, 1.5)
        beta = alpha * rng.uniform(0.1, 0.9)
        lhs, rhs = _gn_sides(f, s, alpha, beta)
        worst = max(worst, (lhs - rhs) / rhs)
    return worst


def _gn_sides(f: SpectralField, s: float, alpha: float, beta: float) -> tuple[float, float]:
    """(lhs, rhs) of the inequality that `gn_residual` checks, each norm evaluated once."""
    if not 0.0 < beta < alpha:
        raise ValidationError(f"need 0 < beta < alpha, got beta={beta}, alpha={alpha}")
    frac = beta / alpha
    norms = _sobolev_norms(f, (s + beta, s + alpha, s))
    return norms[s + beta], norms[s + alpha] ** frac * norms[s] ** (1.0 - frac)


def gn_residual(f: SpectralField, s: float, alpha: float, beta: float) -> float:
    """lhs - rhs of the constant-1 spectral interpolation inequality.

    |Lambda^(s+beta) f|_2 <= |Lambda^(s+alpha) f|_2^(beta/alpha)
    |Lambda^s f|_2^(1-beta/alpha); the return value is nonpositive up to
    round-off.
    """
    lhs, rhs = _gn_sides(f, s, alpha, beta)
    return lhs - rhs


# ---------------------------------------------------------------------------
# scale-local (coarse-grained) flux


def HALF_SQUARE(x):
    """G''(x) = 1 of the convex profile G = x^2 / 2; the dr field needs only G''."""
    return np.ones_like(np.asarray(x, dtype=np.float64))


@dataclass
class FluxEstimate:
    """Scale-eps transfer quantities of a single state."""

    eps: float
    profile: str
    sigma_l1: float  # |sigma_eps|_1, Euclidean magnitude under the integral
    flux_integral: float  # integral sigma_eps . grad theta_eps dx = -integral (u theta)_eps . grad theta_eps dx
    r_l32: float | None = None  # |r_eps|_{3/2} from the stencil quadrature
    decomposition_l1_error: float | None = None
    dr_field: PhysicalField | None = None


def coarse_grained_flux(
    theta: SpectralField,
    eps: float,
    profile: str = "gaussian",
    with_remainder: bool = True,
    dr_profile: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FluxEstimate:
    """Mollified-flux diagnostics at scale eps.

    sigma_eps = u_eps theta_eps - (u theta)_eps is computed spectrally on a
    doubled grid N = 2n so the quadratic products are alias free.  The
    fields come from the half spectrum of that grid through real
    transforms of at most three stacked fields each.

    The flux integral is the Parseval sum -(2 pi)^2 sum_k m_eps(k)^2 Re
    sum_j F_j(k) conj(i k_j theta_hat(k)) over all k, F_j the spectrum of
    u_j theta; no sigma_eps enters it.  Its terms vanish wherever the
    padded theta_hat does, so the sum runs over the slots of theta's own
    grid, with the doubled grid's k2 = -n/2 row folded into the +n/2 row.
    The term integral u_eps theta_eps . grad theta_eps dx that it leaves
    out is zero because u_eps is divergence free, and its grid quadrature
    is exact to round-off on the doubled grid: each factor lives in |k_i|
    <= n/2, so the triple product lives in |k_i| <= 3n/2 < 2n and no mode
    of it aliases onto k = 0.

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
    theta_eps) - r_eps is reported.  The magnitudes of sigma_eps, r_eps and
    that defect are complex absolutes, scale covariant also where their
    squares leave the double range, and |r_eps|^(3/2) is |r_eps| sqrt|r_eps|.

    The convex profile G enters only the Duchon-Robert dissipation field
    G''(theta_eps) grad theta_eps . ((u theta)_eps - u_eps theta_eps),
    which is computed, on the grid of `theta`, iff `dr_profile`, the
    function x -> G''(x) such as HALF_SQUARE, is given.
    """
    return flux_scan(theta, [eps], profile, with_remainder, dr_profile)[0]


def flux_scan(
    theta: SpectralField,
    eps_list,
    profile: str = "gaussian",
    with_remainder: bool = True,
    dr_profile: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[FluxEstimate]:
    """`coarse_grained_flux` at every eps of `eps_list`, largest eps first.

    Every eps is validated before the state is padded, and the padding,
    the eps-independent transforms and the flux pairing are done once for
    the whole list.  They and the per-eps fields are formed in one
    workspace that this call allocates and every eps overwrites, so
    concurrent calls share nothing.
    """
    mollifiers = _mollifiers(eps_list, profile)
    work = _FluxWork(theta.grid, with_remainder)
    pairing = _flux_front(theta, work)
    return [_flux_at_scale(theta.grid, pairing, mol, work, dr_profile) for mol in mollifiers]


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x, ignoring y within 10x of ROUNDOFF_FLOOR.

    Raises ValidationError unless x and y are 1-D and of one length, every
    x positive and finite and every y finite.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValidationError(f"fit needs 1-D x and y of one length, got shapes {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(y)) and np.all((x > 0.0) & (x < np.inf))):
        raise ValidationError("fit needs finite ordinates and positive finite abscissae")
    keep = y > 10.0 * ROUNDOFF_FLOOR
    if np.count_nonzero(keep) < 2:
        raise DegenerateFit("fewer than two points above the round-off floor")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def flux_decay_exponent(
    theta: SpectralField,
    s: float,
    eps_list,
    profile: str = "gaussian",
) -> float:
    """Fitted decay exponent of |flux_integral(eps)| as eps -> 0.

    For a field of Besov regularity s the theory bounds the flux by
    eps^(3s-1); smooth fields decay at least quadratically.  `s` does not
    enter the fit: it only names the regularity a caller compares the
    returned exponent with (3s - 1).  Raises
    DegenerateFit when the flux sits at the round-off floor (the field is
    too smooth, or steady, to carry a measurable transfer).  Each value is
    the bits of `coarse_grained_flux(theta, eps, profile).flux_integral`,
    formed as that function forms it: one Parseval sum per eps, over the
    slots of theta's own grid, of a pairing that one inverse and one
    forward transform give for the whole list, with no sigma_eps or other
    per-eps field.  The products and their spectra come from
    `spectral.product_spectra`, the pipeline of the solver's advection
    kernel, with both column stages run only on the columns that padding
    fills and the pairing reads.
    """
    mollifiers = _mollifiers(eps_list, profile)
    pairing = _flux_front(theta)
    fluxes = [_flux_integral(mol.multiplier(theta.grid), pairing) for mol in mollifiers]
    return fit_loglog_slope([mol.eps for mol in mollifiers], np.abs(fluxes))


def _mollifiers(eps_list, profile: str) -> list[Mollifier]:
    """The mollifiers of `eps_list`, largest eps first; each is validated (ValidationError, also for an empty list)."""
    mollifiers = [Mollifier(eps, profile) for eps in sorted(eps_list, reverse=True)]
    if not mollifiers:
        raise ValidationError("empty eps list")
    return mollifiers


def _flux_front(theta: SpectralField, work: _FluxWork | None = None) -> np.ndarray:
    """The pairing, the eps-independent work of a flux scan on the doubled grid N = 2n, on theta's slots.

    `theta` is padded once; one inverse transform gives (u1, u2, theta) on
    the grid, and one forward transform the spectra F_j of the products
    u_j theta.  The pairing is P(k) = (2 pi)^2 w(k) Re sum_j F_j(k) conj(i
    k_j theta_hat(k)), w the doubled grid's `parseval_weights`.  The padded
    theta_hat is zero outside the columns k1 <= n/2 and the rows that
    `pad_spectrum` fills, so is P: it is formed on those columns and folded
    onto the (n, n/2 + 1) slots of theta's grid, the doubled grid's k2 =
    -n/2 row added into the +n/2 row, which has the same |k|.  So
    `_flux_integral` of the multiplier m_eps on theta's grid is -sum_k
    m_eps(k)^2 P(k), the Parseval sum over the doubled grid.

    Without `work` only the pairing is kept: `spectral.product_spectra`,
    the solver kernel's own product pipeline, forms the products' spectra
    in one `_block`, both column stages run only on the columns of P, and
    the pairing's terms overwrite the dead products.  With `work`, the
    `_FluxWork` of a scan, the front keeps its own inverse, products and
    forward transform, since `_flux_at_scale` reads what the shared
    pipeline overwrites: the spectra and the grid fields of (u1, u2, theta)
    stay in `work`, the products and then the pairing's terms overwrite
    the dead input of the inverse, and the forward transform fills every
    column of the products' spectra.
    """
    fine = pad_spectrum(theta, 2 * theta.grid.n)
    gf = fine.grid
    columns = theta.grid.shape[1]  # the padded spectra are zero in every later column
    if work is None:
        spectra, fields = _block(gf, 3, 3)
        uth_hat = product_spectra(gf, fine.coeffs, spectra, fields, columns)
        grad = _overlay(fields, np.complex128, (2, gf.n, columns))  # over the dead products
    else:
        # sigma_eps and r_eps read (u1, u2, theta) and every column of the products' spectra
        spectra, fields, uth_hat = work.spectra[:3], work.state, work.uth_hat
        np.copyto(spectra, gf.state_spectra(fine.coeffs, work.state_hat))
        _irfft2(spectra, fields, columns)
        products = np.multiply(fields[:2], fields[2], out=_overlay(spectra, np.float64, (2, gf.n, gf.n)))
        _rfft2(products, uth_hat)
        grad = _overlay(spectra, np.complex128, (2, gf.n, columns))  # over the dead products
    # theta lives in |k_i| <= N/4, inside the dealias band of the doubled grid; the
    # terms on its columns go to contiguous memory
    np.multiply(gf.dealiased_gradient[..., :columns], fine.coeffs[:, :columns], out=grad)
    np.multiply(uth_hat[..., :columns], np.conjugate(grad, out=grad), out=grad)
    pairing = np.add(grad[0], grad[1], out=grad[0]).real
    np.multiply(CELL_AREA_FACTOR * gf.parseval_weights[:columns], pairing, out=pairing)
    half = theta.grid.n // 2
    folded = pairing[theta.grid.wavenumbers.astype(int) % gf.n]  # the rows of `pad_spectrum`
    folded[half] += pairing[gf.n - half]
    return folded


def _flux_integral(m: np.ndarray, pairing: np.ndarray) -> float:
    """integral sigma_eps . grad theta_eps dx from m_eps on theta's grid and the `_flux_front` pairing."""
    # 0 - x rather than -x: an exactly zero flux stays +0
    return 0.0 - float(np.sum(m * m * pairing))


def _block(grid: Grid, spectra: int, fields: int):
    """A stack of `spectra` half spectra and one of `fields` grid fields on `grid`, in one allocation.

    One block instead of one per stack: glibc's malloc serves a block from
    the heap once it has unmapped one as large, and trims the heap only
    when twice that is free at its top, so the arrays of a flux call reuse
    the pages of the previous call instead of faulting them in anew.
    """
    split = spectra * grid.n * (grid.n + 2)  # float64 entries of the spectra
    block = np.empty(split + fields * grid.n * grid.n)
    return block[:split].view(np.complex128).reshape(spectra, *grid.shape), block[split:].reshape(fields, grid.n, grid.n)


def _overlay(array: np.ndarray, dtype, shape) -> np.ndarray:
    """An array of `dtype` and `shape` in the leading bytes of the contiguous `array`."""
    return array.reshape(-1).view(dtype)[: math.prod(shape)].reshape(shape)


def _magnitude(x: np.ndarray, y: np.ndarray, pairs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|(x, y)| per node, written into `out`: numpy's complex absolute of x + i y, held in `pairs`.

    `pairs` is dead memory of the caller, a complex array of the fields'
    shape that `out` does not overlap.  The complex absolute runs
    vectorized and scales its operands as hypot does, so it neither
    overflows nor underflows where the squares x^2 + y^2 would.
    """
    np.copyto(pairs.real, x)
    np.copyto(pairs.imag, y)
    return np.abs(pairs, out=out)


def _difference_symbol(grid: Grid, offsets, weights) -> np.ndarray:
    """sum_ab w_ab (exp(-i k . y_ab) - 1) on the half spectrum, weights[b, a] at (offsets[a], offsets[b]).

    With E = exp(-i k y) - 1 per axis, each term is E1 E2 + E1 + E2; expm1
    keeps the small-|k| values accurate, where r_eps cancels.
    """
    e = np.expm1(-1j * np.outer(grid.wavenumbers, offsets))  # rows: k2
    e_half = e[: grid.n // 2 + 1]  # columns: k1 = 0..n/2
    d = e @ weights @ e_half.T
    d += (e @ weights.sum(1))[:, None]
    d += (e_half @ weights.sum(0))[None, :]
    return d


class _FluxWork:
    """The arrays of one `flux_scan` on the doubled grid of its state on `grid`.

    `state_hat`, `state` and `uth_hat` hold what `_flux_front` keeps for
    every eps: the spectra and the grid fields of (u1, u2, theta) and the
    spectra of (u1 theta, u2 theta).  The rest is overwritten by every eps.
    `fields` holds five grid fields, u_eps (later grad theta_eps for the
    dr field), theta_eps and sigma_eps, and with the remainder five more,
    the D-fields of (u1, u2, theta, u1 theta, u2 theta).  `spectra` holds the
    half spectra of the largest group transformed at once, three or five.
    A group's spectra are dead once transformed, so their memory also
    serves as `scratch`, three float grid fields for the elementwise work,
    the first two of which are `pairs`, the complex field of `_magnitude`.
    """

    def __init__(self, grid: Grid, with_remainder: bool):
        self.grid = fine = _shared_grid(2 * grid.n)
        self.with_remainder = with_remainder
        spectra, fields = _block(fine, 10 if with_remainder else 8, 13 if with_remainder else 8)
        self.state_hat, self.uth_hat, self.spectra = spectra[:3], spectra[3:5], spectra[5:]
        self.state, self.fields = fields[:3], fields[3:]
        self.scratch = _overlay(self.spectra, np.float64, (3, fine.n, fine.n))
        self.pairs = _overlay(self.spectra, np.complex128, (fine.n, fine.n))


def _flux_at_scale(grid, pairing, mol, work, dr_profile) -> FluxEstimate:
    """`coarse_grained_flux` at one scale from the `_flux_front` of its state on `grid`, in `work`."""
    gf, fields_hat, (u1, u2, th), uth_hat = work.grid, work.state_hat, work.state, work.uth_hat
    m = mol.multiplier(gf)
    spectra, pairs = work.spectra, work.pairs
    x, y, z = work.scratch  # x and y share the bytes of `pairs`
    columns = grid.shape[1]  # held by m_eps times the padded spectra

    u1_eps, u2_eps, th_eps = _irfft2(np.multiply(m, fields_hat, out=spectra[:3]), work.fields[:3], columns)
    sigma1, sigma2 = _irfft2(np.multiply(m, uth_hat, out=spectra[:2]), work.fields[3:5])
    # sigma_eps = u_eps theta_eps - (u theta)_eps, in place of (u theta)_eps
    np.subtract(np.multiply(u1_eps, th_eps, out=z), sigma1, out=sigma1)
    np.subtract(np.multiply(u2_eps, th_eps, out=z), sigma2, out=sigma2)
    sigma_l1 = float(np.mean(_magnitude(sigma1, sigma2, pairs, z))) * CELL_AREA_FACTOR

    r_l32 = decomposition = None
    if work.with_remainder:
        offsets, weights = mol.stencil(gf, m)
        diff = _difference_symbol(gf, offsets, weights)
        np.multiply(diff, fields_hat, out=spectra[:3])
        np.multiply(diff, uth_hat, out=spectra[3:5])
        du1, du2, dth, r1, r2 = _irfft2(spectra, work.fields[5:10])
        # r = D(u theta) - u D theta - theta D u, in place of D(u theta)
        for r, u, du in ((r1, u1, du1), (r2, u2, du2)):
            np.subtract(r, np.multiply(u, dth, out=z), out=r)
            np.subtract(r, np.multiply(th, du, out=z), out=r)
        r_abs = _magnitude(r1, r2, pairs, z)
        # |r|^(3/2) as |r| sqrt|r|
        np.multiply(r_abs, np.sqrt(r_abs, out=x), out=r_abs)
        r_l32 = (float(np.mean(r_abs)) * CELL_AREA_FACTOR) ** (2.0 / 3.0)
        # d = (u - u_eps)(theta - theta_eps) - r - sigma_eps in place of the dead D u,
        # theta - theta_eps in place of D theta
        np.subtract(th, th_eps, out=dth)
        for d, u, u_eps, r, sigma in ((du1, u1, u1_eps, r1, sigma1), (du2, u2, u2_eps, r2, sigma2)):
            np.multiply(np.subtract(u, u_eps, out=d), dth, out=d)
            np.subtract(d, r, out=d)
            np.subtract(d, sigma, out=d)
        decomposition = float(np.mean(_magnitude(du1, du2, pairs, z))) * CELL_AREA_FACTOR

    est = FluxEstimate(
        eps=mol.eps, profile=mol.profile, sigma_l1=sigma_l1,
        flux_integral=_flux_integral(mol.multiplier(grid), pairing),
        r_l32=r_l32, decomposition_l1_error=decomposition,
    )

    if dr_profile is not None:
        # u_eps is dead: grad theta_eps takes its place
        np.multiply(m, fields_hat[2], out=spectra[2])
        for grad, spectrum in zip(gf.dealiased_gradient, spectra[:2]):
            np.multiply(grad, spectra[2], out=spectrum)
        dth1_eps, dth2_eps = _irfft2(spectra[:2], work.fields[:2], columns)
        # (u theta)_eps - u_eps theta_eps = -sigma_eps
        np.multiply(dth1_eps, np.negative(sigma1, out=x), out=x)
        np.multiply(dth2_eps, np.negative(sigma2, out=y), out=y)
        dr = np.multiply(dr_profile(th_eps), np.add(x, y, out=x), out=x)
        est.dr_field = PhysicalField(grid, dr[::2, ::2])

    return est
