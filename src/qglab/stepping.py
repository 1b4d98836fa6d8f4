"""Time integration and the contraction-mapping local solver.

Two marching schemes are provided: plain RK4 on the full right-hand side
and an integrating-factor RK4 ("etd-rk4") that advances the stiff
fractional dissipation exactly through the factor exp(-kappa |k|^(2 alpha) dt).
`Integrator` applies either one to the model's `RhsSplit` and checks the
blow-up sentinel; `run` and `compare_mu` march with it.  For the inviscid and
regularized models, which have no linear part, the two schemes coincide.

The Picard solver iterates the integral form of the regularized model,
theta -> theta_0 + int_0^t rhs(theta) with the same split, on the horizon T = mu / (4 R) with
R = 2 ||theta_0||_s, and certifies the observed contraction ratios; the
theory guarantees a factor of 1/2 on that horizon.  A solve evaluates
rhs(theta_0) once and runs two levels: 33 nodes from the constant guess
theta(t) = theta_0, whose ratios measure the contraction, then 65 nodes
from the cubic prolongation of that answer (or from theta_0 again when the
constant guess converged on its first sweep), which checks the quadrature.
The certificate keeps one record per level.  A level sweeps until a sweep
moves the trajectory by at most tol, which converges it, or until a ratio
above PICARD_RATIO_LIMIT is measured: at round-off, a distance of at most
64 eps R, that ratio ends the level unconverged, and above it the ratio
raises NoContraction.  Below the limit each sweep shrinks the distance by
at least 1/0.55, so no sweep cap is needed.

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
PICARD_NODES = 33  # Simpson nodes on [0, T] of level 0; level 1 has 2 * PICARD_NODES - 1
PICARD_ROUNDOFF = 64.0 * np.finfo(np.float64).eps  # times R: sweep distances at which round-off may stall


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

    Holds the model's RhsSplit, so it serves one thread, and, for etd-rk4
    on a model with a linear part, the exact linear-flow factors
    exp(L dt / 2) and exp(L dt).
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


@dataclass
class RunResult:
    """Trajectory samples plus the diagnostic time series of one run."""

    records: list
    samples: list  # (t, SpectralField) pairs, populated when snapshot_every > 0
    final: SpectralField


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
    state = theta0
    for i in range(1, nsteps + 1):
        t = i * cfg.dt
        c = integrator.advance(c, t)
        record = i % cfg.diag_every == 0 or i == nsteps
        sample = cfg.snapshot_every > 0 and (i % cfg.snapshot_every == 0 or i == nsteps)
        if record or sample:  # one frozen field serves the record, the sample and the final state
            state = SpectralField(grid, c)
        if record:
            rec = diagnostics.make_record(
                state, t, p, s=cfg.s, sigma=cfg.sigma, prev=prev, initial=first
            )
            records.append(rec)
            prev = rec
        if sample:
            samples.append((t, state))

    return RunResult(records=records, samples=samples, final=state)


# ---------------------------------------------------------------------------
# Picard contraction solver for the regularized model


@dataclass
class PicardLevel:
    """What one level of a Picard solve measured."""

    nodes: int
    iterations: int
    ratios: list
    gap: float | None  # sup-H^s distance to level 0 on shared nodes; None on level 0

    def __str__(self) -> str:
        ratios = " ".join(f"{r:.4f}" for r in self.ratios) or "-"
        gap = "-" if self.gap is None else f"{self.gap:.3e}"
        return f"nodes = {self.nodes}   iterations = {self.iterations}   ratios = {ratios}   gap = {gap}"


@dataclass
class PicardCertificate:
    """Measured evidence for the contraction argument on one horizon."""

    R: float  # 2 ||theta_0||_s
    T: float  # horizon actually used (<= mu / (4 R))
    s: float
    nodes: int  # quadrature nodes on [0, T] of level 1
    iterations: int  # sweeps of level 1
    ratios: list  # every measured contraction ratio, in level order
    converged: bool
    levels: list  # the two PicardLevels, 33 nodes then 65


@dataclass
class PicardTrajectory:
    times: np.ndarray
    states: list  # SpectralField at each node


def cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values along axis 0.

    Composite Simpson on even nodes; odd nodes add the last subinterval of
    the cubic through the four nearest samples.  Exact for polynomials of
    degree <= 3.  Needs at least four samples.
    """
    out = np.zeros_like(values)
    out[1] = (h / 24.0) * (9.0 * values[0] + 19.0 * values[1] - 5.0 * values[2] + values[3])
    for i in range(2, len(values)):
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
    """sup over nodes of ||a - b||_s for stacked coefficient arrays that broadcast.

    Node by node, so no temporary is larger than one state; a NaN at any
    node makes the distance NaN.
    """
    w = grid.parseval_weights * grid.kabs_safe ** (2.0 * s)
    w[0, 0] = 0.0
    d2 = np.max([np.sum(np.abs(x - y) ** 2 * w) for x, y in zip(*np.broadcast_arrays(a, b))])
    return 2.0 * np.pi * math.sqrt(d2)


def _positive_finite(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:  # also rejects NaN
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def _prolong(coarse: np.ndarray) -> np.ndarray:
    """A trajectory on twice as many intervals, cubic in t between the coarse nodes.

    Even nodes take the coarse values, interior midpoints the four-point
    cubic (-1, 9, 9, -1)/16 and the two end midpoints the one-sided
    (5, 15, -5, 1)/16, so a trajectory cubic in t is reproduced.  Needs at
    least four coarse nodes.
    """
    fine = np.empty((2 * len(coarse) - 1, *coarse.shape[1:]), dtype=coarse.dtype)
    fine[::2] = coarse
    mid = fine[3:-3:2]  # the midpoints with two coarse nodes on either side
    np.add(coarse[1:-2], coarse[2:-1], out=mid)
    mid *= 9.0
    mid -= coarse[:-3]
    mid -= coarse[3:]
    mid /= 16.0
    for i, c in ((1, coarse[:4]), (-2, coarse[:-5:-1])):
        fine[i] = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
    return fine


def _picard_iterate(grid, nonlinear, c0, f0, coarse, nodes, T, s, tol, floor):
    """Sweeps on `nodes` nodes, from the constant guess or, given `coarse`, from its prolongation.

    Ends as `picard_solve` describes, with `floor` the round-off distance.
    """
    # the constant guess theta(t) = theta_0 has rhs f0 at every node
    traj = c0[None] if coarse is None else _prolong(coarse)
    times = np.linspace(0.0, T, nodes)
    h = times[1] - times[0]
    rhs_vals = np.broadcast_to(f0, (nodes, *c0.shape)).copy()
    ratios = []
    diff = None
    iterations = 0
    while True:
        iterations += 1
        if iterations > 1 or coarse is not None:
            for i in range(1, nodes):  # node 0 is always theta_0 and keeps f0
                rhs_vals[i] = nonlinear(traj[i])
        new = cumulative_simpson(rhs_vals, h)
        new += c0
        prev_diff, diff = diff, _sup_hs_distance(grid, new, traj, s)
        traj = new
        if prev_diff is not None:  # every sweep after the first measures a ratio
            ratios.append(diff / prev_diff)
        if diff <= tol:
            return times, traj, ratios, True, iterations
        if ratios and not ratios[-1] <= PICARD_RATIO_LIMIT:  # NaN fails the test
            if not diff <= floor:
                raise NoContraction(0.0, ratios[-1])
            return times, traj, ratios, False, iterations


def picard_solve(
    theta0: SpectralField,
    p: ModelParams,
    s: float,
    tol: float = 1e-9,
    t_max: float | None = None,
) -> tuple[PicardTrajectory, PicardCertificate]:
    """Fixed-point solve of the regularized model on its guaranteed horizon.

    The iteration theta_(m+1) = theta_0 + int_0^t rhs(theta_m) runs on
    T = mu / (4 R), R = 2 ||theta_0||_s, discretized by composite Simpson
    on two levels.  rhs(theta_0) is evaluated once and serves node 0,
    which is always theta_0, on every sweep.  Level 0 solves on
    PICARD_NODES nodes from the constant guess theta_0, whose first sweep
    needs no further evaluation, and measures the contraction ratios.
    Level 1 solves on 2 PICARD_NODES - 1 nodes from level 0's trajectory,
    with even nodes copied and midpoints cubic in t, and often agrees
    after one sweep; when the constant guess converged on its first sweep
    (a steady datum), level 1 starts from it too.  Level 1's gap, its
    sup-H^s distance to level 0 on the shared nodes, is recorded.

    The certificate's `levels` holds each level's nodes, iterations, ratios
    and gap (None on level 0); `ratios` lists every measured ratio in level
    order, while `nodes` and `iterations` are level 1's.  A level ends
    converged once a sweep moves its trajectory by at most `tol`.  A ratio
    above PICARD_RATIO_LIMIT ends it unconverged when measured at round-off,
    a distance of at most PICARD_ROUNDOFF R, and otherwise raises
    NoContraction with t = 0; so `converged` is False only when `tol` lies
    below what round-off resolves.  `tol` and `t_max` must be positive and
    finite, and ||theta_0||_s finite.
    """
    _positive_finite("tol", tol)
    if p.model != "regularized":
        raise ValidationError("picard_solve requires the regularized model")
    if s <= 1.0:
        raise ValidationError(f"picard_solve requires s > 1, got s={s}")

    grid = theta0.grid
    R = 2.0 * diagnostics.sobolev_norm(theta0, s)
    if not math.isfinite(R):
        raise ValidationError(f"||theta_0||_{s:g} of the initial data is not finite ({R / 2.0})")
    T = p.mu / (4.0 * R) if R > 0.0 else np.inf
    if t_max is not None:
        T = min(T, _positive_finite("t_max", t_max))
    if not np.isfinite(T):
        raise ValidationError("zero initial data needs an explicit t_max horizon")

    c0 = theta0.coeffs
    nonlinear = RhsSplit(grid, p).nonlinear
    f0 = nonlinear(c0)
    floor = PICARD_ROUNDOFF * R
    _, coarse, ratios, converged, iters = _picard_iterate(
        grid, nonlinear, c0, f0, None, PICARD_NODES, T, s, tol, floor
    )
    levels = [PicardLevel(nodes=PICARD_NODES, iterations=iters, ratios=ratios, gap=None)]
    steady = converged and iters == 1  # the constant guess is a fixed point to tol
    times, traj, ratios, converged, iters = _picard_iterate(
        grid, nonlinear, c0, f0, None if steady else coarse, 2 * PICARD_NODES - 1,
        T, s, tol, floor,
    )
    gap = _sup_hs_distance(grid, traj[::2], coarse, s)
    del coarse  # level 0 goes before the states are copied out
    levels.append(PicardLevel(nodes=len(traj), iterations=iters, ratios=ratios, gap=gap))

    cert = PicardCertificate(
        R=R, T=T, s=s, nodes=len(traj), iterations=iters,
        ratios=[r for level in levels for r in level.ratios], converged=converged, levels=levels,
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
) -> ContinuedSolution:
    """Chain Picard horizons until `horizon`, re-seeding at each endpoint.

    Each segment is a `picard_solve` that recomputes R and T from its own
    initial data, which is exactly the extension argument; each segment's
    level 0 starts cold from its own initial data, so every certificate
    measures its own ratios.  A segment that stalled at round-off above
    `tol` (certificate `converged` False) is chained like any other.  A
    segment's NoContraction is re-raised with the time reached so far
    added.  `horizon` must be positive and finite.
    """
    _positive_finite("horizon", horizon)
    times = [0.0]
    states = [theta0]
    certificates = []
    t_reached = 0.0
    current = theta0
    while not certificates or t_reached < horizon - 1e-12:  # at least one segment
        try:
            traj, cert = picard_solve(current, p, s, tol=tol, t_max=horizon - t_reached)
        except NoContraction as exc:
            raise NoContraction(t_reached + exc.t, exc.ratio) from exc
        certificates.append(cert)
        times.extend((t_reached + t for t in traj.times[1:]))
        states.extend(traj.states[1:])
        t_reached += float(traj.times[-1])
        current = traj.states[-1]
    return ContinuedSolution(times=np.asarray(times), states=states, certificates=certificates)
