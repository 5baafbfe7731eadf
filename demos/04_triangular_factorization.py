"""Factor a discretized convolution-plus-identity operator as A^T A.

The factor produced by the wave route is upper triangular up to
discretization leakage, and the report compares it against a plain
Cholesky factorization of the same matrix.
"""

import numpy as np

from canonfactor import (build_toeplitz, cholesky_oracle,
                         factor_via_transform, step_weight)

mu = step_weight(2.0, 1.0)

# the discretized operator itself: symmetric, Toeplitz, spectrum inside
# the weight's essential range
wh = build_toeplitz(mu, 64, 0.2)
eigs = np.linalg.eigvalsh(wh.matrix)
print(f"64x64 discretization: eigenvalues in [{eigs[0]:.3f}, {eigs[-1]:.3f}],"
      f" symbol bounds ({mu.c1:.1f}, {mu.c2:.1f})")

print("\nfactor quality vs resolution (span 12.8):")
print("   n     residual    vs Cholesky   pre-zero leakage   cond^2")
for n in (128, 256, 512):
    A, rep = factor_via_transform(mu, 12.8, n)
    print(f"  {n:4d}   {rep.residual:.2e}    {rep.vs_cholesky:.2e}"
          f"      {rep.leakage:.2e}        {rep.cond ** 2:.3f}")

# the returned factor is exactly triangular; the leakage column above is
# the below-diagonal mass that was measured before being zeroed
print("\nstored factor strictly triangular:", np.array_equal(A, np.triu(A)))

# cond(A)^2 tracks cond(W) = c2/c1 for these weights
print(f"cond(A)^2 = {rep.cond ** 2:.3f} vs c2/c1 = {mu.c2 / mu.c1:.1f}")

# Cholesky of the same matrix, for scale; the report's vs_cholesky is
# this ratio, read off symmetric eigensolves rather than SVDs
L = cholesky_oracle(build_toeplitz(mu, 512, 12.8 / 512).matrix)
print(f"|A - L^T| / |L| = {np.linalg.norm(A - L.T, 2) / np.linalg.norm(L, 2):.2e}"
      f"  (report: {rep.vs_cholesky:.2e})")
