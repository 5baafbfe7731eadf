"""Generalized Fourier transform attached to a canonical system.

For the free system the transform is the classical Fourier integral and
the reproducing kernel of the transform image is the Paley-Wiener sinc.
For a system built from a weight w, mapping a compactly supported f and
integrating |F f|^2 w dx reproduces the squared norm of f.
"""

import numpy as np

from canonfactor import (HalfLineFunction, Hamiltonian, f_mu_apply,
                         inverse_spectral, isometry_residual, krein_wave,
                         reproducing_kernel, sinc_bump_weight)

# free waves are plane waves
free = Hamiltonian.identity(8.0, 4)
z, t = 1.7 + 0.2j, 3.0
print(f"free wave vs e^(izt): "
      f"{abs(krein_wave(free, t, z) - np.exp(1j * z * t)):.2e}")

# Paley-Wiener kernel on [0, r]: integrating e^(izt) against itself
r, zz, lam = 2.0, 0.9, 0.4
k = reproducing_kernel(free, r, zz, lam)
u = zz - lam
ref = np.exp(1j * r * u / 2.0) * np.sin(r * u / 2.0) / (np.pi * u)
print(f"Paley-Wiener kernel error: {abs(k - ref):.2e}")

# transform of the indicator of [0, 2] under the free system is the
# Fourier integral (e^(2iz) - 1) / (iz sqrt(2 pi))
f = HalfLineFunction([0.0, 2.0], [1.0], tail=0.0)
zs = np.array([0.5, 1.0, 2.5])
F = f_mu_apply(free, f, zs)
ref = (np.exp(2j * zs) - 1.0) / (1j * zs * np.sqrt(2.0 * np.pi))
print(f"free transform of an indicator: max error "
      f"{np.max(np.abs(F - ref)):.2e}")

# isometry against a genuine weight: int |F f|^2 w dx = |f|^2 / (2 pi),
# up to grid resolution and x-truncation
mu = sinc_bump_weight(0.5, 1.0)
rng = np.random.default_rng(5)
f = HalfLineFunction(np.linspace(0.0, 2.0, 5), rng.normal(size=4), tail=0.0)
print("\nisometry residual vs grid resolution:")
for N in (64, 128, 256):
    ham = inverse_spectral(mu, 16.0, N)
    print(f"  N = {N:3d}   {isometry_residual(ham, mu, f):.2e}")
