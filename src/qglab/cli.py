"""Command-line surface.

Subcommands: simulate, picard, norms, flux, compare-mu, check-inequality.
Exit codes: 0 success, 1 validation or usage error, 2 runtime error
(unstable step, failed contraction, violated inequality, degenerate fit).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics, experiments, io, presets, stepping
from .errors import (
    DegenerateFit,
    NoContraction,
    QGLabError,
    ReferenceTooCoarse,
    UnstableStep,
    ValidationError,
    Violation,
)
from .spectral import Grid

_RUNTIME_ERRORS = (UnstableStep, NoContraction, Violation, ReferenceTooCoarse, DegenerateFit)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", help="integrate a configured run and write series + snapshots")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None, help="override the configured output directory")

    p = sub.add_parser("picard", help="contraction-mapping solve of the regularized model")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=float, default=None, help="chain local solves up to this time")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("norms", help="print diagnostics of a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--s", type=float, action="append", default=None, help="Sobolev indices (repeatable)")
    p.add_argument("--q", type=float, action="append", default=None,
                   help="Lebesgue exponents (repeatable, 'inf' allowed)")
    p.add_argument("--sigma", type=float, default=2.0)

    p = sub.add_parser("flux", help="coarse-grained flux over a list of scales")
    p.add_argument("--snapshot", default=None)
    p.add_argument("--init", default=None, help="preset to synthesize when no snapshot is given")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", required=True, help="comma-separated scale list")
    p.add_argument("--s", type=float, default=None, help="assumed regularity, reported against 3s-1")
    p.add_argument("--profile", choices=("gaussian", "raised-cosine"), default="gaussian")
    p.add_argument("--no-remainder", action="store_true", help="skip the stencil quadrature of r_eps")

    p = sub.add_parser("compare-mu", help="mu -> 0 convergence sweep against the inviscid reference")
    p.add_argument("--config", required=True)
    p.add_argument("--mu-list", required=True, help="comma-separated mu values")

    p = sub.add_parser("check-inequality", help="empirical constants for the interpolation inequalities")
    p.add_argument("--lemma", choices=("log", "gn"), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode-cap", type=int, default=32)

    return parser


def _cmd_simulate(args) -> int:
    cfg = io.load_config(args.config)
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    theta0 = cfg.initial_field()
    p = cfg.model_params()
    result = stepping.run(theta0, p, cfg.stepper_config())

    os.makedirs(cfg.output_dir, exist_ok=True)
    series_path = os.path.join(cfg.output_dir, "series.csv")
    io.write_series(series_path, result.records, cfg.s)
    final_t = result.records[-1].t
    io.save_snapshot(
        io.Snapshot.from_state(final_t, result.final, p),
        os.path.join(cfg.output_dir, "final.qgw"),
    )
    for idx, (t, state) in enumerate(result.samples):
        io.save_snapshot(
            io.Snapshot.from_state(t, state, p),
            os.path.join(cfg.output_dir, f"snap_{idx:06d}.qgw"),
        )
    last = result.records[-1]
    print(f"integrated {cfg.model} model to t={final_t:g} on n={cfg.n} (scheme {cfg.scheme})")
    print(f"|theta|_2 = {last.lp[2.0]:.12g}   balance residual = {last.balance_residual:.3e}")
    print(f"series: {series_path}")
    return 0


def _cmd_picard(args) -> int:
    cfg = io.load_config(args.config)
    theta0 = cfg.initial_field()
    p = cfg.model_params()
    if args.horizon is not None:
        sol = stepping.continue_solution(theta0, p, cfg.s, args.horizon, tol=args.tol)
        converged = sum(c.converged for c in sol.certificates)
        print(f"reached t={sol.times[-1]:g} in {len(sol.certificates)} segments ({converged} converged)")
        worst = max((max(c.ratios) for c in sol.certificates if c.ratios), default=0.0)
        print(f"worst contraction ratio: {worst:.4f}")
        final = sol.states[-1]
        print(f"||theta||_{cfg.s:g} at end: {diagnostics.sobolev_norm(final, cfg.s):.12g}")
        return 0
    traj, cert = stepping.picard_solve(theta0, p, cfg.s, tol=args.tol)
    print(f"R = {cert.R:.12g}   T = {cert.T:.12g}   s = {cert.s:g}   converged = {cert.converged}")
    print(cert)
    return 0


def _cmd_norms(args) -> int:
    snap = io.load_snapshot(args.snapshot)
    qs = args.q or [2.0, 3.0, 4.0, np.inf]
    indices = args.s or [1.0, 2.0]
    # every value, with the |theta|_2 of the energy line whatever --q asks for, is
    # computed before any line is printed, so a bad index leaves no partial output
    lp, hs, q_inf, ladder = diagnostics.state_norms(snap.to_field(), (*qs, 2.0), indices, args.sigma)
    lines = [f"snapshot t={snap.t:g} model={snap.model} n={snap.n}"]
    lines += [f"|theta|_{q:g} = {lp[q]:.12g}" for q in qs]
    lines += [f"||theta||_{s:g} = {hs[s]:.12g}" for s in indices]
    lines.append(f"energy = {lp[2.0] * lp[2.0]:.12g}")  # a float product: inf past the double range
    lines.append(f"q_inf = {q_inf:.12g}")
    lines.append(f"ladder(sigma={args.sigma:g}) = {ladder:.12g}")
    print("\n".join(lines))
    return 0


def _cmd_flux(args) -> int:
    if args.snapshot is not None:
        theta = io.load_snapshot(args.snapshot).to_field()
    elif args.init is not None:
        theta = presets.from_init_string(Grid(args.n), args.init, args.seed)
    else:
        raise ValidationError("flux needs --snapshot or --init")
    eps_list = [float(e) for e in args.eps.split(",") if e.strip()]
    estimates = diagnostics.flux_scan(theta, eps_list, args.profile, with_remainder=not args.no_remainder)
    for est in estimates:
        extra = ""
        if est.r_l32 is not None:
            extra = f"  |r|_3/2 = {est.r_l32:.6g}  decomp_l1_err = {est.decomposition_l1_error:.3e}"
        print(
            f"eps = {est.eps:<10g} profile = {est.profile}  |sigma|_1 = {est.sigma_l1:.6g}  "
            f"flux = {est.flux_integral: .6e}{extra}"
        )
    if len(estimates) >= 2:
        try:
            slope = diagnostics.fit_loglog_slope(
                [est.eps for est in estimates], [abs(est.flux_integral) for est in estimates]
            )
            line = f"fitted decay exponent: {slope:.4f}"
            if args.s is not None:
                line += f"   (criticality bound 3s-1 = {3 * args.s - 1:.4f})"
            print(line)
        except DegenerateFit:
            print("fitted decay exponent: degenerate (flux at round-off floor)")
    return 0


def _cmd_compare_mu(args) -> int:
    cfg = io.load_config(args.config)
    mu_list = [float(v) for v in args.mu_list.split(",") if v.strip()]
    theta0 = cfg.initial_field()
    result = experiments.compare_mu(
        theta0, cfg.alpha, mu_list, cfg.t_end, cfg.stepper_config()
    )
    print(f"reference: inviscid, dt = {result.reference_dt:g}, self-error = {result.reference_self_error:.3e}")
    for mu, e2, em in zip(result.mu_list, result.err_l2, result.err_modified):
        print(f"mu = {mu:<10g} sup|w|_2 = {e2:.6e}   sup(|w|_2^2 + mu ||w||_a^2) = {em:.6e}")
    print(f"slopes: l2 = {result.slope_l2:.4f}   modified = {result.slope_modified:.4f}")
    return 0


def _cmd_check_inequality(args) -> int:
    if args.lemma == "log":
        const = diagnostics.log_interpolation_constant(
            args.trials, sigma=args.sigma, mode_cap=args.mode_cap, seed=args.seed
        )
        print(f"max |F|_inf / bracket over {args.trials} trials: {const:.6g}")
        return 0
    worst = diagnostics.gn_constant(args.trials, mode_cap=args.mode_cap, seed=args.seed)
    print(f"max relative interpolation residual over {args.trials} trials: {worst:.3e}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "picard": _cmd_picard,
    "norms": _cmd_norms,
    "flux": _cmd_flux,
    "compare-mu": _cmd_compare_mu,
    "check-inequality": _cmd_check_inequality,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except (QGLabError, ValueError, OSError) as exc:  # any other qglab error is a validation error
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
