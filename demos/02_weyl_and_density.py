"""Weyl functions: nesting disks, boundary densities, and duality."""

import numpy as np

from canonfactor import (Hamiltonian, boundary_values, spectral_density,
                         step_weight, inverse_spectral, weyl_function,
                         weyl_sweep)

# a constant diagonal Hamiltonian diag(c, 1/c) has m(z) = i/c for every
# z in the upper half-plane
for c in (0.5, 1.0, 3.0):
    ham = Hamiltonian.constant([[c, 0.0], [0.0, 1.0 / c]],
                               span=20.0, n_cells=10)
    m = weyl_function(ham, 1.0 + 1.0j)
    print(f"c={c:3.1f}: m = {m:.12f}  (expect {1j / c:.1f})")

# the sweep also reports how small the last nesting disk got
ham = inverse_spectral(step_weight(2.0, 1.0), 16.0, 160)
zs = np.array([0.3 + 0.5j, -1.0 + 1.0j, 2.0 + 0.25j])
ms, diams = weyl_sweep(ham, zs)
print("\nstep-weight system:")
for z, m, d in zip(zs, ms, diams):
    print(f"  z = {z:12.3f}  m = {m:22.12f}  disk diameter {d:.1e}")

# the density is read off the wave at the end of the grid:
# w(x) = sqrt(det C) / (Theta(R, x)^T C Theta(R, x)), C = H_last
xs = np.array([0.0, 0.5, 1.5, 3.0])
w = spectral_density(ham, xs)
print("\nrecovered density vs the exact step (2 inside [-1,1], 1 outside):")
for x, wi in zip(xs, w):
    print(f"  x = {x:4.1f}   w = {wi:.4f}")

# the same sweep gives the whole boundary value of the continued system,
# m(x + i0) = (Phi^T C Theta + i sqrt(det C)) / (Theta^T C Theta): its
# imaginary part is the density above, its real part the conjugate
# function, for the step (1/pi) log|(1 - x)/(1 + x)|
m0 = boundary_values(ham, xs)
print("\nboundary value m(x + i0) vs the exact conjugate function:")
for x, m in zip(xs, m0):
    exact = np.log(abs((1.0 - x) / (1.0 + x))) / np.pi
    print(f"  x = {x:4.1f}   m0 = {m:.4f}   (expect real part {exact:+.4f})")

# duality: the dual Hamiltonian swaps the diagonal and flips the sign
# of the off-diagonal entries, and its Weyl function is -1/m
dual = ham.dual()
z = 0.7 + 0.6j
# Im z = 0.6 certifies the disk only to ~3e-8 on a span-16 grid, so ask
# for that much and no more
m = weyl_function(ham, z, tol=1e-6)
md = weyl_function(dual, z, tol=1e-6)
print(f"\nm * m_dual = {m * md:.10f}  (expect -1)")
