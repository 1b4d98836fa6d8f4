"""Time integration and the contraction-mapping local solver.

Two marching schemes are provided: plain RK4 on the full right-hand side
and an integrating-factor RK4 ("etd-rk4") that advances the stiff
fractional dissipation exactly through the factor exp(-kappa |k|^(2 alpha) dt).
`Integrator` applies either one to the model's `RhsSplit` and checks the
blow-up sentinel; `step` and `run` go through it.  For the inviscid and
regularized models, which have no linear part, the two schemes coincide.

The Picard solver iterates the integral form of the regularized model,
theta -> theta_0 + int_0^t rhs(theta) with the same split, on the horizon T = mu / (4 R) with
R = 2 ||theta_0||_s, and certifies the observed contraction ratios; the
theory guarantees a factor of 1/2 on that horizon.

A trajectory is advanced on bare coefficient arrays that no step writes
to; the states handed to diagnostics and callers are immutable fields.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import PICARD_RATIO_LIMIT, NoContraction, UnstableStep, ValidationError
from .models import ModelParams, RhsSplit
from .spectral import Grid, SpectralField

log = logging.getLogger(__name__)

SCHEMES = ("etd-rk4", "rk4")
BLOWUP_SENTINEL = 1e12
STEP_COUNT_RTOL = 4.0 * np.finfo(np.float64).eps  # t_end / dt may miss an integer by this much


@dataclass(frozen=True)
class StepperConfig:
    """Marching controls; t_end must be a whole number of steps of dt."""

    dt: float
    t_end: float
    scheme: str = "etd-rk4"
    diag_every: int = 10
    snapshot_every: int = 0  # 0 disables intermediate state capture
    s: float = 2.0  # Sobolev index reported in records
    sigma: float = 2.0  # index used by the ladder bracket, > 1

    def __post_init__(self):
        for name in ("dt", "t_end", "s", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma <= 1.0:
            raise ValidationError(f"sigma must exceed 1, got {self.sigma}")
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0.0:
            raise ValidationError(f"t_end must be positive, got {self.t_end}")
        ratio = self.t_end / self.dt
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > STEP_COUNT_RTOL * ratio:
            raise ValidationError(
                f"t_end={self.t_end} is not a whole number of steps of dt={self.dt}"
            )
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.diag_every < 1:
            raise ValidationError("diag_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValidationError("snapshot_every must be >= 0")

    @property
    def nsteps(self) -> int:
        """Number of steps of size dt from 0 to t_end."""
        return round(self.t_end / self.dt)


def cfl_limit(theta: SpectralField) -> float:
    """Advisory advective time-step bound 2.8 / (max|u| kmax), kmax = n/3 the dealias cutoff."""
    umax = diagnostics.velocity_sup(theta)
    if umax == 0.0:
        return np.inf
    return 2.8 / (umax * (theta.grid.n / 3.0))


def etd_rk4_step(c, exp_half, exp_full, nonlinear, dt):
    """One integrating-factor RK4 step; the linear flow is applied exactly."""
    k1 = nonlinear(c)
    s1 = exp_half * (c + 0.5 * dt * k1)
    k2 = nonlinear(s1)
    s2 = exp_half * c + 0.5 * dt * k2
    k3 = nonlinear(s2)
    s3 = exp_full * c + dt * exp_half * k3
    k4 = nonlinear(s3)
    return exp_full * c + (dt / 6.0) * (exp_full * k1 + 2.0 * exp_half * (k2 + k3) + k4)


def rk4_step(c, rhs_fn, dt):
    """Classical RK4 on the full right-hand side."""
    k1 = rhs_fn(c)
    k2 = rhs_fn(c + 0.5 * dt * k1)
    k3 = rhs_fn(c + 0.5 * dt * k2)
    k4 = rhs_fn(c + dt * k3)
    return c + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


class Integrator:
    """Steps of one model at a fixed dt, built once per (grid, params, dt, scheme).

    Holds the model's RhsSplit and, for etd-rk4 on a model with a linear
    part, the exact linear-flow factors exp(L dt / 2) and exp(L dt).
    Without a linear part both schemes are the same RK4 on the split.
    """

    def __init__(self, grid: Grid, p: ModelParams, dt: float, scheme: str):
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {scheme!r}")
        self.split = RhsSplit(grid, p)
        self.dt = dt
        self.exp_factors = None
        if scheme == "etd-rk4" and self.split.linear is not None:
            self.exp_factors = (np.exp(0.5 * dt * self.split.linear), np.exp(dt * self.split.linear))

    def advance(self, c: np.ndarray, t: float) -> np.ndarray:
        """Coefficients one step after c; raises UnstableStep at time t past the sentinel."""
        if self.exp_factors is None:
            out = rk4_step(c, self.split, self.dt)
        else:
            out = etd_rk4_step(c, *self.exp_factors, self.split.nonlinear, self.dt)
        peak = float(np.max(np.abs(out)))
        if not np.isfinite(peak) or peak > BLOWUP_SENTINEL:
            raise UnstableStep(t, peak)
        return out


def step(theta: SpectralField, p: ModelParams, dt: float, scheme: str = "etd-rk4") -> SpectralField:
    """Advance one step; raises UnstableStep past the blow-up sentinel."""
    out = Integrator(theta.grid, p, dt, scheme).advance(theta.coeffs, dt)
    return SpectralField(theta.grid, out)


@dataclass
class RunResult:
    """Trajectory samples plus the diagnostic time series of one run."""

    params: ModelParams
    config: StepperConfig
    records: list
    samples: list  # (t, SpectralField) pairs, populated when snapshot_every > 0
    final: SpectralField
    cfl_estimate: float


def run(theta0: SpectralField, p: ModelParams, cfg: StepperConfig) -> RunResult:
    """Integrate to t_end, emitting diagnostics every diag_every steps.

    Deterministic given (theta0, p, cfg).  UnstableStep propagates with the
    failure time attached.
    """
    grid = theta0.grid
    nsteps = cfg.nsteps
    integrator = Integrator(grid, p, cfg.dt, cfg.scheme)

    limit = cfl_limit(theta0)
    if cfg.dt > limit:
        log.warning("dt=%g exceeds advisory CFL bound %g", cfg.dt, limit)

    c = theta0.coeffs
    first = diagnostics.make_record(theta0, 0.0, p, s=cfg.s, sigma=cfg.sigma)
    records = [first]
    samples = [(0.0, theta0)] if cfg.snapshot_every > 0 else []

    prev = first
    for i in range(1, nsteps + 1):
        t = i * cfg.dt
        c = integrator.advance(c, t)
        if i % cfg.diag_every == 0 or i == nsteps:
            state = SpectralField(grid, c)
            rec = diagnostics.make_record(
                state, t, p, s=cfg.s, sigma=cfg.sigma, prev=prev, initial=first
            )
            records.append(rec)
            prev = rec
        if cfg.snapshot_every > 0 and (i % cfg.snapshot_every == 0 or i == nsteps):
            samples.append((t, SpectralField(grid, c)))

    return RunResult(
        params=p,
        config=cfg,
        records=records,
        samples=samples,
        final=SpectralField(grid, c),
        cfl_estimate=limit,
    )


# ---------------------------------------------------------------------------
# Picard contraction solver for the regularized model


@dataclass
class PicardCertificate:
    """Measured evidence for the contraction argument on one horizon."""

    R: float  # 2 ||theta_0||_s
    T: float  # horizon actually used (<= mu / (4 R))
    s: float
    nodes: int  # quadrature nodes on [0, T]
    iterations: int
    ratios: list
    converged: bool


@dataclass
class PicardTrajectory:
    times: np.ndarray
    states: list  # SpectralField at each node


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values along axis 0.

    Composite Simpson on even nodes; odd nodes add the last subinterval of
    the cubic through the four nearest samples.  Exact for polynomials of
    degree <= 3 once four samples are available.
    """
    m = len(values)
    out = np.zeros_like(values)
    if m == 1:
        return out
    if m == 2:
        out[1] = 0.5 * h * (values[0] + values[1])
        return out
    if m == 3:
        out[1] = (h / 12.0) * (5.0 * values[0] + 8.0 * values[1] - values[2])
    else:
        out[1] = (h / 24.0) * (
            9.0 * values[0] + 19.0 * values[1] - 5.0 * values[2] + values[3]
        )
    for i in range(2, m):
        if i % 2 == 0:
            out[i] = out[i - 2] + (h / 3.0) * (
                values[i - 2] + 4.0 * values[i - 1] + values[i]
            )
        else:
            out[i] = out[i - 1] + (h / 24.0) * (
                values[i - 3] - 5.0 * values[i - 2] + 19.0 * values[i - 1] + 9.0 * values[i]
            )
    return out


def _sup_hs_distance(grid: Grid, a: np.ndarray, b: np.ndarray, s: float) -> float:
    """sup over nodes of ||a - b||_s for stacked coefficient arrays."""
    w = grid.parseval_weights * grid.kabs_safe ** (2.0 * s)
    w[0, 0] = 0.0
    d2 = np.abs(a - b) ** 2
    return 2.0 * np.pi * float(np.sqrt(np.max(np.sum(d2 * w, axis=(1, 2)))))


def _positive_finite(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:  # also rejects NaN
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def _picard_iterate(grid, nonlinear, c0, T, nodes, s, tol, max_iter, t_offset):
    times = np.linspace(0.0, T, nodes)
    h = times[1] - times[0]
    traj = np.broadcast_to(c0, (nodes, *c0.shape)).copy()
    ratios = []
    prev_diff = None
    converged = False
    iterations = 0
    rhs_vals = np.empty_like(traj)
    for iterations in range(1, max_iter + 1):
        for i in range(nodes):
            rhs_vals[i] = nonlinear(traj[i])
        new = c0[None, :, :] + cumulative_simpson(rhs_vals, h)
        diff = _sup_hs_distance(grid, new, traj, s)
        traj = new
        if prev_diff is not None and prev_diff > 0.0:
            ratio = diff / prev_diff
            ratios.append(ratio)
            if ratio > PICARD_RATIO_LIMIT and diff > tol:
                raise NoContraction(t_offset, ratio)
        prev_diff = diff
        if diff <= tol:
            converged = True
            break
    return times, traj, ratios, converged, iterations


def picard_solve(
    theta0: SpectralField,
    p: ModelParams,
    s: float,
    tol: float = 1e-9,
    max_iter: int = 60,
    nodes: int = 33,
    max_refine: int = 2,
    t_max: float | None = None,
    _t_offset: float = 0.0,
) -> tuple[PicardTrajectory, PicardCertificate]:
    """Fixed-point solve of the regularized model on its guaranteed horizon.

    The iteration theta_(m+1) = theta_0 + int_0^t rhs(theta_m) runs on
    T = mu / (4 R), R = 2 ||theta_0||_s, discretized by composite Simpson
    with at least 33 nodes; node counts double until the answer stabilizes.
    Certificate ratios above PICARD_RATIO_LIMIT raise NoContraction;
    `tol` and `t_max` must be positive and finite and `max_iter` at least 1.
    """
    _positive_finite("tol", tol)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    if p.model != "regularized":
        raise ValidationError("picard_solve requires the regularized model")
    if s <= 1.0:
        raise ValidationError(f"picard_solve requires s > 1, got s={s}")
    if nodes < 33:
        raise ValidationError("at least 33 quadrature nodes are required")

    grid = theta0.grid
    b = diagnostics.sobolev_norm(theta0, s)
    R = 2.0 * b
    T = p.mu / (4.0 * R) if R > 0.0 else np.inf
    if t_max is not None:
        T = min(T, _positive_finite("t_max", t_max))
    if not np.isfinite(T):
        raise ValidationError("zero initial data needs an explicit t_max horizon")

    c0 = theta0.coeffs
    nonlinear = RhsSplit(grid, p).nonlinear
    times, traj, ratios, converged, iters = _picard_iterate(
        grid, nonlinear, c0, T, nodes, s, tol, max_iter, _t_offset
    )
    level_nodes = nodes
    for _ in range(max_refine):
        finer = 2 * (level_nodes - 1) + 1
        times2, traj2, ratios2, converged2, iters2 = _picard_iterate(
            grid, nonlinear, c0, T, finer, s, tol, max_iter, _t_offset
        )
        gap = _sup_hs_distance(grid, traj2[::2], traj, s)
        times, traj, ratios, converged, iters = times2, traj2, ratios2, converged2, iters2
        level_nodes = finer
        if gap <= max(tol, 1e-12):
            break

    cert = PicardCertificate(
        R=R, T=T, s=s, nodes=level_nodes, iterations=iters, ratios=ratios, converged=converged
    )
    states = [SpectralField(grid, c) for c in traj]
    return PicardTrajectory(times=times, states=states), cert


@dataclass
class ContinuedSolution:
    times: np.ndarray
    states: list
    certificates: list


def continue_solution(
    theta0: SpectralField,
    p: ModelParams,
    s: float,
    horizon: float,
    tol: float = 1e-9,
    max_iter: int = 60,
    nodes: int = 33,
    max_refine: int = 1,
) -> ContinuedSolution:
    """Chain Picard horizons until `horizon`, re-seeding at each endpoint.

    Each segment recomputes R and T from its own initial data, which is
    exactly the extension argument; NoContraction propagates with the time
    reached so far.  `horizon` must be positive and finite.
    """
    _positive_finite("horizon", horizon)
    times = [0.0]
    states = [theta0]
    certificates = []
    t_reached = 0.0
    current = theta0
    while not certificates or t_reached < horizon - 1e-12:  # at least one segment
        traj, cert = picard_solve(
            current,
            p,
            s,
            tol=tol,
            max_iter=max_iter,
            nodes=nodes,
            max_refine=max_refine,
            t_max=horizon - t_reached,
            _t_offset=t_reached,
        )
        certificates.append(cert)
        times.extend((t_reached + t for t in traj.times[1:]))
        states.extend(traj.states[1:])
        t_reached += float(traj.times[-1])
        current = traj.states[-1]
    return ContinuedSolution(times=np.asarray(times), states=states, certificates=certificates)
