"""Tour of the spectral core: transforms, fractional Laplacian, Riesz velocity.

Everything lives on the periodic square [0, 2pi]^2.  The scalar theta is
carried as normalized Fourier coefficients; the advecting velocity is
recovered mode by mode from the Riesz transforms, u = (-R2 theta, R1 theta).
"""

import numpy as np

import qglab

grid = qglab.Grid(64)

# A single cosine mode is the simplest real field.
theta = qglab.single_mode(grid, 2, 0)  # cos(2 x1)
print("mean of cos(2 x1):", theta.mean)

# Lambda^beta multiplies each mode by |k|^beta.  For cos(2 x1), |k| = 2.
lam = qglab.apply_sqrt_laplacian(theta, 1.0)
print("Lambda cos(2x1) amplitude (expect 2):", np.max(np.abs(qglab.inverse_transform(lam).values)))

half = qglab.apply_sqrt_laplacian(theta, 0.5)
print("Lambda^1/2 amplitude (expect 2^0.5 = %.6f):" % np.sqrt(2), np.max(np.abs(qglab.inverse_transform(half).values)))

# The velocity of cos(x1) is (0, sin x1): purely meridional, exactly
# divergence free.
theta = qglab.single_mode(grid, 1, 0)
u1, u2 = qglab.riesz_velocity(theta)
div = grid.k1 * u1.coeffs + grid.k2 * u2.coeffs
print("max |u1| (expect 0):", np.max(np.abs(u1.coeffs)))
print("divergence, mode by mode (expect 0):", np.max(np.abs(div)))

# Operator identities hold to round-off on zero-mean band-limited fields.
f = qglab.random_shell_field(grid, 20, 2.0, 1)
compose = qglab.apply_sqrt_laplacian(qglab.apply_sqrt_laplacian(f, 0.7), -0.3)
direct = qglab.apply_sqrt_laplacian(f, 0.4)
print("Lambda^a Lambda^b vs Lambda^(a+b):", np.max(np.abs(compose.coeffs - direct.coeffs)))

# Parseval with the package normalization: integral of f^2 over the box
# equals (2 pi)^2 times the coefficient power sum.  The stored rfft2 half
# spectrum counts its k1 = 0 and k1 = n/2 columns once and the others twice.
phys = qglab.inverse_transform(f)
lhs = (2 * np.pi) ** 2 * np.mean(phys.values**2)
rhs = (2 * np.pi) ** 2 * np.sum(grid.parseval_weights * np.abs(f.coeffs) ** 2)
print("Parseval defect:", abs(lhs - rhs) / rhs)

# Mollification is a spectral low-pass with unit mass; the approximation
# error decays like eps^s when the spectrum decays like |k|^-(s+1).
for eps in (0.25, 0.125, 0.0625):
    smoothed = qglab.mollify(f, qglab.Mollifier(eps))
    print(f"eps={eps}: |f - f_eps|_2 = {qglab.sobolev_norm(f - smoothed, 0.0):.6f}")
