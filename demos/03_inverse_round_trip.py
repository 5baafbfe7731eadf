"""
Weight -> Hamiltonian -> weight round trip
==========================================

inverse_spectral builds a piecewise-constant Hamiltonian whose spectral
density approximates a given weight.  Running the forward solver on the
result and reading the density off the wave at the end of the grid
closes the loop; the error drops about fourfold each time the cell count
doubles.
"""

import numpy as np

from canonfactor import (constant_weight, inverse_spectral, sinc_bump_weight,
                         spectral_density, step_weight)

mu = sinc_bump_weight(0.5, 1.0)
xs = np.linspace(-3.0, 3.0, 13)
exact = mu(xs)

print("sinc-bump weight, span 20:")
for N in (128, 256, 512):
    ham = inverse_spectral(mu, 20.0, N)
    w = spectral_density(ham, xs)
    err = np.max(np.abs(w - exact))
    print(f"  N = {N:4d}   max density error {err:.2e}")

# the inversion report carries grid diagnostics
ham, rep = inverse_spectral(mu, 20.0, 256, report=True)
print(f"\nreport: {rep.n_cells} cells of width {rep.eta:.4f}, "
      f"cond {rep.cond:.1f}, max |det - 1| = {rep.max_det_dev:.1e}")

# discontinuous weights work too, just with slower interior convergence
step = step_weight(2.0, 1.0)
ham = inverse_spectral(step, 16.0, 256)
xs = np.array([0.0, 0.5, 2.0, 4.0])
w = spectral_density(ham, xs)
print("\nstep weight (2 on [-1,1], 1 outside), x away from the jump:")
for x, wi, wx in zip(xs, w, step(xs)):
    print(f"  x = {x:4.1f}   recovered {wi:.4f}   exact {wx:.1f}")

# a constant weight inverts exactly: the Hamiltonian is diag(1/c, c)
ham = inverse_spectral(constant_weight(2.0), 4.0, 4)
print("\nconstant weight 2 gives cells diag(1/2, 2):")
print(ham.cells[0])
