"""Generalized Fourier transform attached to a canonical system.

For the free system the transform is the classical Fourier integral and
the reproducing kernel of the transform image is the Paley-Wiener sinc.
For a system built from a weight w, mapping a compactly supported f and
integrating |F f|^2 w dx reproduces the squared norm of f; a table shows
that isometry, and the density round trip, converging at second order
in the number of cells.
"""

import numpy as np

from canonfactor import (HalfLineFunction, Hamiltonian, f_mu_apply,
                         inverse_spectral, isometry_residual, krein_wave,
                         reproducing_kernel, sinc_bump_weight,
                         spectral_density)

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

# the inverse map converges at second order: the density round trip
# (max relative error at 41 points on [-5, 5]) and the worst isometry
# residual of three random 8-step functions on [0, 2] against a weight
# w, int |F f|^2 w dx = |f|^2 up to grid resolution and x-truncation,
# on the sinc bump at R = 20
mu = sinc_bump_weight(0.5, 1.0)
xs = np.linspace(-5.0, 5.0, 41)
rng = np.random.default_rng(6)
fs = [HalfLineFunction.from_uniform(rng.uniform(-1.0, 1.0, 8), span=2.0)
      for _ in range(3)]
sizes = np.array([256, 512, 1024, 2048])
figures = []
print("\n     N   density round trip   isometry residual")
for n in sizes:
    ham = inverse_spectral(mu, 20.0, n)
    figures.append([np.max(np.abs(spectral_density(ham, xs) - mu(xs)) / mu(xs)),
                    max(isometry_residual(ham, mu, f) for f in fs)])
    print(f"  {n:4d}   {figures[-1][0]:18.2e}   {figures[-1][1]:17.2e}")
orders = -np.polyfit(np.log2(sizes), np.log2(figures), 1)[0]
print(f"  fitted order   {orders[0]:11.2f}   {orders[1]:17.2f}")
