"""Dissipative model: energy balance and maximum principle.

With kappa > 0 the energy identity
    |theta(t)|_2^2 + 2 kappa int_0^t ||theta||_alpha^2 = |theta_0|_2^2
closes to quadrature accuracy, and every L^q norm obeys the maximum
principle.
"""

import numpy as np

import qglab

grid = qglab.Grid(64)
theta0 = qglab.cmt(grid)
p = qglab.ModelParams("dissipative", alpha=0.5, kappa=0.1)
cfg = qglab.StepperConfig(dt=1e-3, t_end=2.0, diag_every=20)

res = qglab.run(theta0, p, cfg)

print("t      |theta|_inf   energy      2k*int||.||^2   balance")
for r in res.records[::20]:
    print(
        f"{r.t:5.2f}  {r.lp[np.inf]:.8f}  {r.energy:10.6f}  {r.diss_integral:12.6f}"
        f"  {r.balance_residual:.2e}"
    )

print()
print("max balance residual:", qglab.energy_balance_residual(res.records))
for q in (2.0, np.inf):
    rep = qglab.max_principle_check(res.records, q)
    print(f"maximum principle q={q}: worst margin {rep.worst_margin:.3e} (slack {rep.slack:.1e})")
