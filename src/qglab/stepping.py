"""Time integration and the contraction-mapping local solver.

Two marching schemes are provided: an integrating-factor RK4 ("etd-rk4")
that advances the stiff fractional dissipation exactly through the factor
exp(-kappa |k|^(2 alpha) dt), and plain RK4 on the full right-hand side.
`etd_rk4_step` forms the one RK4 tableau; plain RK4 is that step with the
unit factors (1, 1, dt, 2).  It equals the classical expressions value for
value: a complex product with 1 is exact bar the sign of a zero, which can
turn from -0 to +0.  `Integrator` holds the factors and right-hand side of
either scheme for the model's `RhsSplit` and checks the blow-up sentinel;
`run` and `compare_mu` march with it.  For the inviscid and regularized
models, which have no linear part, the two schemes coincide.
An integrator owns the stage arrays k1..k4 and a stage, which every step
overwrites, so it serves one thread; `advance` returns a fresh array.

The Picard solver iterates the integral form of the regularized model,
theta -> theta_0 + int_0^t rhs(theta) with the same split, on the horizon T = mu / (4 R) with
R = 2 ||theta_0||_s, and certifies the observed contraction ratios; the
theory guarantees a factor of 1/2 on that horizon.  A solve evaluates
rhs(theta_0) once and sweeps on PICARD_NODES nodes from the constant guess
theta(t) = theta_0.  It sweeps until a sweep moves the trajectory by at
most tol, which converges it, or until a ratio above PICARD_RATIO_LIMIT is
measured: at round-off, a distance of at most 64 eps R, that ratio ends
the solve unconverged, and above it the ratio raises NoContraction.  Below
the limit each sweep shrinks the distance by at least 1/0.55, so no sweep
cap is needed.  The final sweep's right-hand-side values also give a
Richardson estimate of the quadrature error, with no further evaluation.
A sweep writes into node arrays: the node values, and two trajectories
that successive sweeps alternate between, and works on whole node stacks.
Its distance overwrites the trajectory it retires with the difference,
squares its float view in place, weights it by `Grid.sobolev_weights(s)`,
the H^s weight that `sobolev_norm` sums too, formed once per solve, and
sums each node's row, so it allocates no state.  The distance and
Simpson's integral write only into arrays that the caller passes; neither
has a fresh-array default.  The returned states are checked once as a
stack, by `SpectralField`'s rule, and each node is copied into its own
frozen field (`spectral.node_fields`).
`continue_solution` hands one RhsSplit and one set of node arrays to
every segment.

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
from .spectral import Grid, SpectralField, node_fields

log = logging.getLogger(__name__)

SCHEMES = ("etd-rk4", "rk4")
BLOWUP_SENTINEL = 1e12
STEP_COUNT_RTOL = 4.0 * np.finfo(np.float64).eps  # t_end / dt may miss an integer by this much
# Simpson nodes on [0, T].  The Richardson check integrates again on the even
# nodes alone, (m + 1) / 2 of m, and `cumulative_simpson` needs four samples,
# so m = 7 is the fewest; on the guaranteed horizon that check already reads
# round-off there.
PICARD_NODES = 7
PICARD_ROUNDOFF = 64.0 * np.finfo(np.float64).eps  # times R: sweep distances at which round-off may stall


@dataclass(frozen=True)
class StepperConfig:
    """Marching controls; t_end must be a whole number of steps of dt.

    `diag_every` and `snapshot_every` count steps: each must be a Python
    int or a numpy integer, so a NaN or 2.5 raises ValidationError instead
    of sampling no step or the wrong ones.  They are held as Python ints,
    so a narrow numpy integer cannot overflow against a step index.
    """

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
        for name in ("diag_every", "snapshot_every"):  # as Grid takes n
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # frozen dataclass
        if self.diag_every < 1:
            raise ValidationError("diag_every must be >= 1")
        if self.snapshot_every < 0:
            raise ValidationError("snapshot_every must be >= 0")

    @property
    def nsteps(self) -> int:
        """Number of steps of size dt from 0 to t_end."""
        return round(self.t_end / self.dt)


def etd_rk4_step(c, factors, nonlinear, dt, work):
    """One integrating-factor RK4 step; the linear flow is applied exactly.

    `factors` are the `etd_factors` of the linear part, or the unit
    factors of none, which make the step classical RK4 (`rk4_step`).
    `work` is five arrays of c's shape, k1..k4 and a stage, which
    `nonlinear(x, out=)` and the stage combinations overwrite.  Only the
    returned state is fresh.
    """
    exp_half, exp_full, dt_exp_half, two_exp_half = factors
    k1, k2, k3, k4, a = work
    # each stage in the operation order of its plain expression; a k not
    # yet evaluated serves as the stage's second temporary
    nonlinear(c, out=k1)
    np.multiply(0.5 * dt, k1, out=a)  # exp_half (c + dt/2 k1)
    np.add(c, a, out=a)
    np.multiply(exp_half, a, out=a)
    nonlinear(a, out=k2)
    np.multiply(exp_half, c, out=a)  # exp_half c + dt/2 k2
    np.add(a, np.multiply(0.5 * dt, k2, out=k3), out=a)
    nonlinear(a, out=k3)
    np.multiply(exp_full, c, out=a)  # exp_full c + dt exp_half k3
    np.add(a, np.multiply(dt_exp_half, k3, out=k4), out=a)
    nonlinear(a, out=k4)
    # exp_full c + dt/6 (exp_full k1 + 2 exp_half (k2 + k3) + k4)
    np.add(k2, k3, out=k2)
    np.multiply(two_exp_half, k2, out=k2)
    np.multiply(exp_full, k1, out=k1)
    np.add(k1, k2, out=k1)
    np.add(k1, k4, out=k1)
    np.multiply(dt / 6.0, k1, out=k1)
    return np.add(np.multiply(exp_full, c, out=a), k1)


def rk4_step(c, rhs_fn, dt, work):
    """Classical RK4 on the full right-hand side `rhs_fn(x, out=)`.

    It is `etd_rk4_step` with the unit factors (1, 1, dt, 2), which give
    the classical stages and combination value for value; only the sign
    of a zero can differ from the plain expressions.  `work` is five
    arrays of c's shape, k1..k4 and a stage, which the step overwrites;
    only the returned state is fresh.
    """
    return etd_rk4_step(c, _unit_factors(dt), rhs_fn, dt, work)


def _unit_factors(dt: float) -> tuple:
    """The `etd_factors` of a zero linear part: they reduce the step to classical RK4."""
    return 1.0, 1.0, dt, 2.0


def etd_factors(linear: np.ndarray, dt: float) -> tuple:
    """The `factors` (exp(L dt/2), exp(L dt), dt exp(L dt/2), 2 exp(L dt/2)) of `etd_rk4_step`.

    `linear` is the diagonal linear part L; the last two factors are the
    products that the step's expression forms, computed once.
    """
    exp_half = np.exp(0.5 * dt * linear)
    return exp_half, np.exp(dt * linear), dt * exp_half, 2.0 * exp_half


class Integrator:
    """Steps of one model at a fixed dt, built once per (grid, params, dt, scheme).

    Holds the model's RhsSplit, one (factors, rhs) pair of `etd_rk4_step`
    and the five work arrays of a step, all overwritten by the next step;
    so an integrator serves one thread.  For etd-rk4 on a model with a
    linear part the pair is the `etd_factors` with the nonlinear part,
    otherwise the unit factors with the full split, which is plain RK4.
    `advance` returns a fresh array.
    """

    def __init__(self, grid: Grid, p: ModelParams, dt: float, scheme: str):
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {scheme!r}")
        self.split = RhsSplit(grid, p)
        self.dt = dt
        self.work = np.empty((5, *grid.shape), dtype=np.complex128)
        if scheme == "etd-rk4" and self.split.linear is not None:
            self.factors, self.rhs = etd_factors(self.split.linear, dt), self.split.nonlinear
        else:
            self.factors, self.rhs = _unit_factors(dt), self.split

    def advance(self, c: np.ndarray, t: float) -> np.ndarray:
        """Coefficients one step after c; raises UnstableStep at time t past the sentinel."""
        out = etd_rk4_step(c, self.factors, self.rhs, self.dt, self.work)
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
    failure time attached.  A dt above the advisory advective bound
    2.8 / (max|u| kmax), kmax = n/3 the dealias cutoff, logs a warning.
    """
    grid = theta0.grid
    nsteps = cfg.nsteps
    integrator = Integrator(grid, p, cfg.dt, cfg.scheme)

    c = theta0.coeffs
    first = diagnostics.make_record(theta0, 0.0, p, s=cfg.s, sigma=cfg.sigma)
    umax = first.q_inf - first.lp[np.inf]  # |u|_inf up to one rounding, and never negative
    limit = 2.8 / (umax * grid.n / 3.0) if umax > 0.0 else np.inf
    if cfg.dt > limit:
        log.warning("dt=%g exceeds advisory CFL bound %g", cfg.dt, limit)
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
class PicardCertificate:
    """Measured evidence for the contraction argument on one horizon."""

    R: float  # 2 ||theta_0||_s
    T: float  # horizon actually used (<= mu / (4 R))
    s: float
    nodes: int  # quadrature nodes on [0, T]
    iterations: int  # sweeps
    ratios: list  # every measured contraction ratio, in sweep order
    converged: bool
    quadrature: float  # Richardson estimate of the final trajectory's sup-H^s quadrature error

    def __str__(self) -> str:
        ratios = " ".join(f"{r:.4f}" for r in self.ratios) or "-"
        return (
            f"nodes = {self.nodes}   iterations = {self.iterations}   ratios = {ratios}"
            f"   quadrature = {self.quadrature:.3e}"
        )


@dataclass
class PicardTrajectory:
    times: np.ndarray
    states: list  # SpectralField at each node


def cumulative_simpson(values: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Cumulative integral of uniformly sampled values along axis 0, written to `out`.

    Composite Simpson on even nodes; odd nodes add the last subinterval of
    the cubic through the four nearest samples.  Exact for polynomials of
    degree <= 3.  Needs at least four samples.  `out` has the shape of
    `values` and must not overlap it; each node is accumulated in its own
    row with one reused temporary, and `out` is returned.
    """
    tmp = np.empty_like(values[0])
    out[0] = 0.0
    row = out[1]  # (h / 24) (9 v0 + 19 v1 - 5 v2 + v3), left to right
    np.multiply(9.0, values[0], out=row)
    row += np.multiply(19.0, values[1], out=tmp)
    row -= np.multiply(5.0, values[2], out=tmp)
    row += values[3]
    np.multiply(h / 24.0, row, out=row)
    for i in range(2, len(values)):
        row = out[i]
        if i % 2 == 0:  # out[i - 2] + (h / 3) (v[i-2] + 4 v[i-1] + v[i])
            np.add(values[i - 2], np.multiply(4.0, values[i - 1], out=tmp), out=row)
            row += values[i]
            np.multiply(h / 3.0, row, out=row)
            np.add(out[i - 2], row, out=row)
        else:  # out[i - 1] + (h / 24) (v[i-3] - 5 v[i-2] + 19 v[i-1] + 9 v[i])
            np.subtract(values[i - 3], np.multiply(5.0, values[i - 2], out=tmp), out=row)
            row += np.multiply(19.0, values[i - 1], out=tmp)
            row += np.multiply(9.0, values[i], out=tmp)
            np.multiply(h / 24.0, row, out=row)
            np.add(out[i - 1], row, out=row)
    return out


def _sup_hs_distance(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """sup over nodes of ||a - b||_s for stacked coefficient arrays; overwrites `b`.

    `weights` is `Grid.sobolev_weights(s)[..., None]`, one real
    (n, n/2+1, 1) plane that broadcasts over the real and imaginary parts
    of a coefficient and that a solve forms once, so the mean counts at
    s = 0; a single state, with no node axis, is one node and gets its full
    norm.  The difference a - b is written into `b`, which must have the
    broadcast shape with each node contiguous; its float view is squared
    and weighted in place, so a sweep's distance allocates no state, and
    `a` is left as it is.  Each node's row is summed and the largest sum
    taken; a NaN at any node makes the distance NaN.
    """
    terms = np.subtract(a, b, out=b).view(np.float64).reshape(*b.shape, 2)
    np.square(terms, out=terms)
    terms *= weights
    return 2.0 * np.pi * math.sqrt(terms.reshape(*b.shape[:-2], -1).sum(axis=-1).max())


def _add_to_nodes(stack: np.ndarray, c: np.ndarray) -> np.ndarray:
    """stack += c at every node, in place, on the float views; returns `stack`.

    The same additions as the complex ones, but numpy buffers a complex add
    that broadcasts over nodes, three states' worth, and a real one not.
    Each node of `stack` and `c` must have a contiguous last axis.
    """
    np.add(stack.view(np.float64), c.view(np.float64), out=stack.view(np.float64))
    return stack


def _positive_finite(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:  # also rejects NaN
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def _picard_work(grid: Grid, p: ModelParams) -> tuple:
    """The RhsSplit and node arrays of Picard solves of `p` on `grid`.

    The arrays are three (PICARD_NODES, *grid.shape) stacks: the rhs
    values at the nodes and the two trajectories that sweeps alternate
    between.  A solve overwrites all of them, so solves that share them
    run one after another.
    """
    return RhsSplit(grid, p), [np.empty((PICARD_NODES, *grid.shape), dtype=np.complex128) for _ in range(3)]


def _picard_iterate(nonlinear, c0, T, weights, tol, floor, stack):
    """Sweeps on the nodes of `stack` from the constant guess theta(t) = theta_0.

    `stack` holds the rhs values and the two trajectories, as
    `_picard_work` makes them, for any number of nodes; the returned
    trajectory is one of them.  Distances are weighted by `weights`, as
    `_sup_hs_distance` takes them.  Ends as `picard_solve` describes, with
    `floor` the round-off distance, and returns (times, trajectory,
    ratios, converged, iterations, quadrature estimate).
    """
    rhs_vals, *pair = stack  # sweeps alternate between the two trajectories
    nodes = len(rhs_vals)
    times = np.linspace(0.0, T, nodes)
    h = times[1] - times[0]
    # the constant guess has rhs f0 at every node, so the first sweep evaluates nothing
    nonlinear(c0, out=rhs_vals[0])
    rhs_vals[1:] = rhs_vals[0]
    traj = pair[0]
    traj[:] = c0
    ratios = []
    diff = None
    iterations = 0
    while True:
        iterations += 1
        if iterations > 1:
            for i in range(1, nodes):  # node 0 is always theta_0 and keeps f0
                nonlinear(traj[i], out=rhs_vals[i])
        new = _add_to_nodes(cumulative_simpson(rhs_vals, h, out=pair[iterations % 2]), c0)
        prev_diff, diff = diff, _sup_hs_distance(new, traj, weights)  # overwrites the retired trajectory
        retired, traj = traj, new
        if prev_diff is not None:  # every sweep after the first measures a ratio
            ratios.append(diff / prev_diff)
        if diff <= tol:
            break
        if ratios and not ratios[-1] <= PICARD_RATIO_LIMIT:  # NaN fails the test
            if not diff <= floor:
                raise NoContraction(0.0, ratios[-1])
            break
    # Simpson's error is O(h^4), so S_h - S_2h on the even nodes is about 15
    # times S_h's error; S_2h goes into the retired trajectory's even nodes,
    # strided like traj[::2], so that their difference needs no ufunc buffer
    coarse = _add_to_nodes(cumulative_simpson(rhs_vals[::2], 2.0 * h, out=retired[::2]), c0)
    quadrature = _sup_hs_distance(traj[::2], coarse, weights) / 15.0
    return times, traj, ratios, diff <= tol, iterations, quadrature


def picard_solve(
    theta0: SpectralField,
    p: ModelParams,
    s: float,
    tol: float = 1e-9,
    t_max: float | None = None,
    *,
    _work: tuple | None = None,
) -> tuple[PicardTrajectory, PicardCertificate]:
    """Fixed-point solve of the regularized model on its guaranteed horizon.

    The iteration theta_(m+1) = theta_0 + int_0^t rhs(theta_m) runs on
    T = mu / (4 R), R = 2 ||theta_0||_s, discretized by composite Simpson
    on PICARD_NODES nodes from the constant guess theta_0.  rhs(theta_0)
    is evaluated once; it serves every node on the first sweep, which
    needs no further evaluation, and node 0, which is always theta_0, on
    every later sweep.  A steady datum therefore costs one evaluation.

    A solve ends converged once a sweep moves the trajectory by at most
    `tol`.  A ratio above PICARD_RATIO_LIMIT ends it unconverged when
    measured at round-off, a distance of at most PICARD_ROUNDOFF R, and
    otherwise raises NoContraction with t = 0; so `converged` is False
    only when `tol` lies below what round-off resolves.  The certificate
    records the nodes, the sweeps, every measured ratio and `quadrature`,
    the Richardson estimate sup ||S_h - S_2h||_s / 15 of the returned
    trajectory's quadrature error.  S_h is the trajectory and S_2h the
    same integral of the final sweep's rhs on the even nodes alone, with
    step 2h; they are compared on those nodes, so the check costs no
    evaluation.  `s` must be finite and exceed 1, `tol` and `t_max` must
    be positive and finite, and so must the Parseval sum
    (||theta_0||_s / 2 pi)^2 of the data, the size of the sums that
    `_sup_hs_distance` forms.  The solve works in a fresh `_picard_work`,
    or in `_work`, the one that `continue_solution` hands every segment.
    """
    _positive_finite("tol", tol)
    if p.model != "regularized":
        raise ValidationError("picard_solve requires the regularized model")
    if not 1.0 < s < math.inf:  # also rejects NaN
        raise ValidationError(f"picard_solve requires a finite s > 1, got s={s}")

    grid = theta0.grid
    R = 2.0 * diagnostics.sobolev_norm(theta0, s)
    root = R / (4.0 * math.pi)  # the sweep distances are 2 pi sqrt of Parseval sums as large as root^2
    if not math.isfinite(root * root):
        raise ValidationError(f"the Parseval sum of ||theta_0||_{s:g} = {R / 2.0} is not finite")
    T = p.mu / (4.0 * R) if R > 0.0 else np.inf
    if t_max is not None:
        T = min(T, _positive_finite("t_max", t_max))
    if not np.isfinite(T):
        raise ValidationError("zero initial data needs an explicit t_max horizon")

    split, stack = _picard_work(grid, p) if _work is None else _work
    times, traj, ratios, converged, iters, quadrature = _picard_iterate(
        split.nonlinear, theta0.coeffs, T, grid.sobolev_weights(s)[..., None], tol, PICARD_ROUNDOFF * R, stack
    )
    del split, stack  # a fresh work's arrays, bar the trajectory, are freed before the states are copied
    cert = PicardCertificate(
        R=R, T=T, s=s, nodes=PICARD_NODES, iterations=iters,
        ratios=ratios, converged=converged, quadrature=quadrature,
    )
    return PicardTrajectory(times=times, states=node_fields(grid, traj)), cert


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
    initial data, which is exactly the extension argument; each segment
    starts cold from the constant guess of its own initial data, so every
    certificate measures its own ratios.  A segment that stalled at
    round-off above `tol` (certificate `converged` False) is chained like
    any other.  A segment's NoContraction is re-raised with the time
    reached so far added.  `horizon` must be positive and finite, and `s`
    as `picard_solve` requires.
    """
    _positive_finite("horizon", horizon)
    work = _picard_work(theta0.grid, p)  # one split and one set of node arrays for every segment
    times = [0.0]
    states = [theta0]
    certificates = []
    t_reached = 0.0
    current = theta0
    while not certificates or t_reached < horizon - 1e-12:  # at least one segment
        try:
            traj, cert = picard_solve(current, p, s, tol=tol, t_max=horizon - t_reached, _work=work)
        except NoContraction as exc:
            raise NoContraction(t_reached + exc.t, exc.ratio) from exc
        certificates.append(cert)
        times.extend((t_reached + t for t in traj.times[1:]))
        states.extend(traj.states[1:])
        t_reached += float(traj.times[-1])
        current = traj.states[-1]
    return ContinuedSolution(times=np.asarray(times), states=states, certificates=certificates)
