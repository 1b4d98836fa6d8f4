"""The four benchmark studies: their inputs, the timed call into qglab, and the checks.

Each study is built once per process (its constructor is the set-up that
`setup_s` measures), then `run()` is timed repeatedly.  `check()` applies
the acceptance tolerances to a result outside the timed region and returns
the names of the checks that failed; `digest()` hashes the numerical result
so repeats of one build can be compared bit for bit.

`tol_scale` multiplies every upper tolerance; the self-test sets it to 0 to
plant a failure.  `LAYERS_RUN` and `LAYERS_IDLE` name the trace keys that
must be nonzero and zero when the study is traced (see `tracing.py`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil

import numpy as np

import qglab
from qglab.cli import cli_main

MU_LIST = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
EPS_REMAINDER = (0.25, 0.125)
EPS_DECAY = tuple(2.0**-k for k in range(2, 7))

# Problem sizes.  The full sizes keep one study between 0.4 and 1.2 s on a
# 2-core box, so the two seed-reference runs that bracket each repeat (see
# run.py) sit close to it in time and a 25 s run still holds 10 to 25
# repeats; the toy sizes only smoke-test.
SIZES = {
    False: dict(
        march_n=128, march_t_end=0.05, snapshot_every=25,
        sweep_n=64, sweep_t_end=0.05,
        picard_n=64, picard_horizon=0.05,
        flux_n=64, flux_init="random:8,2.5", rough_n=128, rough_init="random:60,1.5",
        eps_remainder=EPS_REMAINDER,
    ),
    True: dict(
        march_n=32, march_t_end=0.02, snapshot_every=10,
        sweep_n=32, sweep_t_end=0.02,
        picard_n=32, picard_horizon=0.02,
        flux_n=32, flux_init="random:8,2.5", rough_n=32, rough_init="random:14,1.5",
        eps_remainder=(0.25,),
    ),
}

MARCH_CONFIG = """\
model = dissipative
alpha = 0.5
kappa = 0.1
n = {n}
dt = 0.001
t_end = {t_end}
scheme = etd-rk4
init = cmt
diag_every = 10
snapshot_every = {snapshot_every}
output_dir = {output_dir}
"""


def _hash(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _floats(*values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def _warm_symbols(theta):
    """Build the grid's cached multipliers through the public operators."""
    qglab.riesz_velocity(theta)
    qglab.dealias(theta)


class Study:
    """Hooks a study may override: an untimed reference result and per-repeat cleanup."""

    def reference(self):
        pass

    def reset(self):
        pass


class March(Study):
    """`qglab simulate`: dissipative etd-rk4 run with series CSV and snapshots."""

    LAYERS_RUN = ("spectral.fft", "models.advection", "stepping.steps", "stepping.run",
                  "diagnostics.record", "io.config", "io.snapshot_write", "io.series_write")
    LAYERS_IDLE = ("spectral.pad", "spectral.stencil", "stepping.picard", "diagnostics.flux",
                   "experiments.sweep", "io.snapshot_read")

    def __init__(self, workdir: str, seed: int, toy: bool):
        size = SIZES[toy]
        self.output_dir = os.path.join(workdir, "march-out")
        self.config_path = os.path.join(workdir, "march.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(MARCH_CONFIG.format(
                n=size["march_n"], t_end=size["march_t_end"],
                snapshot_every=size["snapshot_every"], output_dir=self.output_dir,
            ))
        self.cfg = qglab.load_config(self.config_path)
        _warm_symbols(self.cfg.initial_field())

    def reference(self):
        """Untimed library run of the same config: the final state the CLI must write."""
        res = qglab.run(self.cfg.initial_field(), self.cfg.model_params(), self.cfg.stepper_config())
        self.final_values = qglab.inverse_transform(res.final).values
        self.final_t = res.records[-1].t
        self.n_files = len(res.samples) + 1  # intermediate snapshots plus final.qgw

    def reset(self):
        shutil.rmtree(self.output_dir, ignore_errors=True)

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(["simulate", "--config", self.config_path])

    def check(self, exit_code, tol_scale=1.0):
        if exit_code != 0:
            return [f"march.exit_code: cli_main returned {exit_code}"]
        failed = []
        series = qglab.io.read_series(os.path.join(self.output_dir, "series.csv"))
        residual = float(np.max(series["balance_residual"]))
        if not residual <= 1e-5 * tol_scale:
            failed.append(f"march.energy_balance_residual: {residual:.3e} > 1e-5")
        linf = series["linf"]
        ratio = float(np.max(linf) / linf[0])
        if not ratio <= 1.0 + 1e-3 * tol_scale:
            failed.append(f"march.sup_ratio: {ratio:.8f} > 1 + 1e-3")
        snap = qglab.load_snapshot(os.path.join(self.output_dir, "final.qgw"))
        if snap.values.tobytes() != self.final_values.astype("<f8").tobytes() or snap.t != self.final_t:
            failed.append("march.final_snapshot: reloaded values are not bit-identical to the final state")
        written = len(os.listdir(self.output_dir)) - 1  # minus series.csv
        if written != self.n_files:
            failed.append(f"march.snapshot_count: {written} files, expected {self.n_files}")
        return failed

    def digest(self, exit_code):
        names = sorted(os.listdir(self.output_dir))
        chunks = []
        for name in names:
            with open(os.path.join(self.output_dir, name), "rb") as fh:
                chunks += [name.encode(), fh.read()]
        return _hash(*chunks)


class MuSweep(Study):
    """`compare_mu`: five regularized runs and two inviscid references on one grid."""

    LAYERS_RUN = ("spectral.fft", "models.advection", "stepping.steps", "stepping.run",
                  "diagnostics.norm", "experiments.sweep")
    LAYERS_IDLE = ("spectral.pad", "spectral.stencil", "stepping.picard", "diagnostics.flux",
                   "io.snapshot_write", "io.snapshot_read")

    def __init__(self, workdir: str, seed: int, toy: bool):
        size = SIZES[toy]
        self.theta0 = qglab.cmt(qglab.Grid(size["sweep_n"]))
        _warm_symbols(self.theta0)
        self.t_end = size["sweep_t_end"]
        self.cfg = qglab.StepperConfig(dt=1e-3, t_end=self.t_end, scheme="rk4")

    def run(self):
        return qglab.compare_mu(self.theta0, 0.5, MU_LIST, self.t_end, self.cfg)

    def check(self, res, tol_scale=1.0):
        failed = []
        if not 0.9 <= res.slope_l2 <= 2.1 * tol_scale:
            failed.append(f"mu_sweep.slope_l2: {res.slope_l2:.4f} outside [0.9, 2.1]")
        if not np.all(np.diff(res.err_l2) < 0.0):
            failed.append("mu_sweep.err_l2_decreasing: err_l2 is not strictly decreasing in mu")
        return failed

    def digest(self, res):
        return _hash(
            np.asarray(res.err_l2, "<f8").tobytes(), np.asarray(res.err_modified, "<f8").tobytes(),
            _floats(res.slope_l2, res.slope_modified, res.reference_self_error),
        )


class PicardChain(Study):
    """`continue_solution`: chained certified Picard horizons of the regularized model."""

    LAYERS_RUN = ("spectral.fft", "models.advection", "stepping.picard", "diagnostics.norm")
    LAYERS_IDLE = ("spectral.pad", "spectral.stencil", "stepping.steps", "stepping.run",
                   "diagnostics.flux", "io.snapshot_write", "io.snapshot_read")

    def __init__(self, workdir: str, seed: int, toy: bool):
        size = SIZES[toy]
        self.theta0 = qglab.cmt(qglab.Grid(size["picard_n"]))
        _warm_symbols(self.theta0)
        self.params = qglab.ModelParams("regularized", alpha=0.5, mu=1.0)
        self.horizon = size["picard_horizon"]

    def run(self):
        return qglab.continue_solution(self.theta0, self.params, 2.0, self.horizon)

    def check(self, sol, tol_scale=1.0):
        failed = []
        certs = sol.certificates
        if not all(c.converged for c in certs):
            failed.append("picard_chain.converged: a certificate did not converge")
        worst = max((max(c.ratios) for c in certs if c.ratios), default=0.0)
        if not worst <= 0.55 * tol_scale:
            failed.append(f"picard_chain.ratio: worst contraction ratio {worst:.4f} > 0.55")
        if not sol.times[-1] >= self.horizon - 1e-12:
            failed.append(f"picard_chain.horizon: reached t={sol.times[-1]:.6g} < {self.horizon}")
        return failed

    def digest(self, sol):
        certs = sol.certificates
        return _hash(
            np.asarray(sol.times, "<f8").tobytes(),
            np.ascontiguousarray(sol.states[-1].coeffs).tobytes(),
            _floats(*(r for c in certs for r in c.ratios)),
            np.asarray([c.iterations for c in certs], "<i8").tobytes(),
        )


class FluxRemainder(Study):
    """`coarse_grained_flux` with the stencil remainder, then `flux_decay_exponent`."""

    LAYERS_RUN = ("spectral.fft", "spectral.pad", "spectral.stencil", "diagnostics.flux",
                  "io.snapshot_read")
    LAYERS_IDLE = ("models.advection", "stepping.steps", "stepping.run", "stepping.picard",
                   "experiments.sweep", "io.snapshot_write")

    def __init__(self, workdir: str, seed: int, toy: bool):
        size = SIZES[toy]
        self.eps_remainder = size["eps_remainder"]
        self.smooth_path = os.path.join(workdir, "smooth.qgw")
        self.rough_path = os.path.join(workdir, "rough.qgw")
        for path, n, init in ((self.smooth_path, size["flux_n"], size["flux_init"]),
                              (self.rough_path, size["rough_n"], size["rough_init"])):
            field = qglab.from_init_string(qglab.Grid(n), init, seed)
            snap = qglab.Snapshot(n=n, t=0.0, alpha=0.5, kappa=0.0, mu=0.0, model="inviscid",
                                  values=qglab.inverse_transform(field).values)
            qglab.save_snapshot(snap, path)

    def run(self):
        theta = qglab.load_snapshot(self.smooth_path).to_field()
        estimates = [qglab.coarse_grained_flux(theta, eps, with_remainder=True)
                     for eps in self.eps_remainder]
        rough = qglab.load_snapshot(self.rough_path).to_field()
        slope = qglab.flux_decay_exponent(rough, 0.5, EPS_DECAY)
        return estimates, slope

    def check(self, result, tol_scale=1.0):
        estimates, slope = result
        failed = []
        for est in estimates:
            rel = est.decomposition_l1_error / est.sigma_l1
            if not rel <= 0.02 * tol_scale:
                failed.append(f"flux_remainder.decomposition: {rel:.4f} > 0.02 at eps={est.eps:g}")
        if not math.isfinite(slope):
            failed.append(f"flux_remainder.decay_exponent: {slope} is not finite")
        return failed

    def digest(self, result):
        estimates, slope = result
        return _hash(_floats(*(v for e in estimates for v in (
            e.sigma_l1, e.flux_integral, e.r_l32, e.decomposition_l1_error)), slope))


STUDIES = {
    "march": March,
    "mu_sweep": MuSweep,
    "picard_chain": PicardChain,
    "flux_remainder": FluxRemainder,
}
