"""Contraction-mapping local solve of the regularized model, with receipts.

The integral form theta(t) = theta_0 + int_0^t rhs(theta) is iterated on
the horizon T = mu / (4 R), R = 2 ||theta_0||_s, where the fixed-point map
is a 1/2-contraction.  The certificate records the observed ratios, which
sit far below the guaranteed bound on smooth data, and a Richardson
estimate of the quadrature error taken from the final sweep's values.
Chaining horizons re-seeds R and T at each endpoint, which is exactly the
extension argument.
"""

import numpy as np

import qglab

grid = qglab.Grid(64)
theta0 = qglab.cmt(grid)
p = qglab.ModelParams("regularized", alpha=0.5, mu=1.0)

traj, cert = qglab.picard_solve(theta0, p, s=2.0, tol=1e-10)
print(f"R = 2||theta0||_2 = {cert.R:.6f}")
print(f"T = mu/(4R)       = {cert.T:.6f}")
print(f"converged         = {cert.converged}")
print(f"certificate: {cert}")
print("(theory guarantees ratios <= 0.5 on this horizon)")

# Cross-validate the fixed point against the marching integrator.
nsteps = (cert.nodes - 1) * 4
cfg = qglab.StepperConfig(dt=cert.T / nsteps, t_end=cert.T, scheme="rk4",
                          diag_every=nsteps, snapshot_every=4)
res = qglab.run(theta0, p, cfg)
gap = max(
    qglab.sobolev_norm(state - ps, 2.0)
    for (_, state), ps in zip(res.samples, traj.states)
)
print(f"sup-H^2 gap to the RK4 trajectory on [0, T]: {gap:.3e}")

# Chain horizons to a macroscopic time.
sol = qglab.continue_solution(theta0, p, s=2.0, horizon=0.5, tol=1e-8)
print(f"\nchained {len(sol.certificates)} segments to t = {sol.times[-1]:.3f}")
print(f"||theta||_2 along the way: {qglab.sobolev_norm(sol.states[0], 2.0):.4f}"
      f" -> {qglab.sobolev_norm(sol.states[-1], 2.0):.4f}")
worst = max(max(c.ratios, default=0.0) for c in sol.certificates)
print(f"worst ratio over all segments: {worst:.5f}")
