"""Scale-local (Duchon-Robert style) energy flux across mollification scales.

sigma_eps = u_eps theta_eps - (u theta)_eps measures the transfer that the
scale-eps coarse graining cannot see; its pairing with grad theta_eps is
the flux whose eps -> 0 limit detects anomalous dissipation.  For a field
of Besov regularity s the flux is bounded by eps^(3s-1): smooth fields
decay at least quadratically, and s = 1/3 is the Onsager-critical exponent
where the bound degenerates.
"""

import numpy as np

import qglab
from qglab.diagnostics import HALF_SQUARE, coarse_grained_flux

eps_list = [2.0**-k for k in range(2, 7)]

# Smooth band-limited field: quadratic (or faster) decay.
smooth = qglab.random_shell_field(qglab.Grid(64), 6, 1.5, 1)
print("smooth field, |k| <= 6:")
for est in qglab.flux_scan(smooth, eps_list, with_remainder=False):
    print(f"  eps={est.eps:<8g} flux = {est.flux_integral: .3e}   |sigma|_1 = {est.sigma_l1:.3e}")
print("  fitted exponent:", f"{qglab.flux_decay_exponent(smooth, 2.0, eps_list):.3f}")

# Rough field at s = 1/2: decay near 3s - 1 = 1/2.
rough = qglab.random_shell_field(qglab.Grid(128), 60, 1.5, 3)
print("\nrough field, |theta_hat| ~ |k|^-1.5 (Besov s = 0.5):")
print("  fitted exponent:", f"{qglab.flux_decay_exponent(rough, 0.5, eps_list):.3f}",
      "(criticality bound 3s-1 = 0.5)")

# Onsager-critical roughness: the bound degenerates to zero.
critical = qglab.random_shell_field(qglab.Grid(128), 60, 4.0 / 3.0, 3)
print("\ncritical field, s = 1/3:")
print("  fitted exponent:", f"{qglab.flux_decay_exponent(critical, 1/3, eps_list):.3f}",
      "(bound 3s-1 = 0)")

# The decomposition sigma_eps = (u - u_eps)(theta - theta_eps) - r_eps is
# checked by evaluating r_eps independently on a 21x21 stencil quadrature.
est = coarse_grained_flux(smooth, 0.125, with_remainder=True, dr_profile=HALF_SQUARE)
print(f"\ndecomposition check at eps = 0.125:")
print(f"  |sigma|_1 = {est.sigma_l1:.4e}, |r|_3/2 = {est.r_l32:.4e}")
print(f"  identity defect (L1, relative): {est.decomposition_l1_error / est.sigma_l1:.4f}")
integral = (2 * np.pi) ** 2 * float(np.mean(est.dr_field.values))
print(f"  dissipation-field integral vs -flux: {integral:.6e} / {-est.flux_integral:.6e}")
