"""Conservation laws of the inviscid and regularized models.

The inviscid flow conserves every L^p norm of theta; at smooth (spectral)
level the L^2 norm is conserved to time-integration accuracy.  The
regularized model trades plain energy for the modified energy
|theta|_2^2 + mu ||theta||_alpha^2, which it conserves exactly.
"""

import numpy as np

import qglab

grid = qglab.Grid(64)
theta0 = qglab.cmt(grid)  # sin x1 sin x2 + cos x2

cfg = qglab.StepperConfig(dt=1e-3, t_end=1.0, scheme="rk4", diag_every=100)

print("== inviscid ==")
res = qglab.run(theta0, qglab.ModelParams("inviscid"), cfg)
e0 = res.records[0].energy
for r in res.records[::2]:
    print(f"t={r.t:4.1f}  |theta|_2={r.lp[2.0]:.12f}  drift={abs(r.energy / e0 - 1):.2e}")

print()
print("== regularized, mu = 1, alpha = 1/2 ==")
p = qglab.ModelParams("regularized", alpha=0.5, mu=1.0)
res = qglab.run(theta0, p, cfg)
m0 = res.records[0].mod_energy
for r in res.records[::2]:
    print(
        f"t={r.t:4.1f}  energy={r.energy:.6f}  modified={r.mod_energy:.12f}"
        f"  drift={abs(r.mod_energy / m0 - 1):.2e}"
    )
print()
print("plain energy moves around, the modified energy does not:")
energies = np.array([r.energy for r in res.records])
print(f"  energy spread {energies.max() - energies.min():.3e}, "
      f"modified-energy drift {max(abs(r.mod_energy / m0 - 1) for r in res.records):.3e}")
print(f"balance residual of the energy law: {qglab.energy_balance_residual(res.records):.3e}")
