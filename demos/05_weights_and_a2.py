"""
Weights: entropy functionals, the discrete symbol, and A2 characteristics
=========================================================================
"""

import numpy as np

from canonfactor import (HalfLineFunction, a2_classical, a2_ell1,
                         build_toeplitz, decompose_L1_L2, lemma2_harness,
                         norm_L1, norm_L2, step_weight, szego_K)

# K(mu, z) is the gap in Jensen's inequality between the Poisson mean of
# w and the exponential of the Poisson mean of log w.  For the 2-on-[-1,1]
# step at z = i it has the closed form log(3/2) - log(2)/2.
mu = step_weight(2.0, 1.0)
K = szego_K(mu, 1j)
print(f"K(step, i)  = {K:.12f}")
print(f"closed form = {np.log(1.5) - 0.5 * np.log(2.0):.12f}")

q = (2.0 / np.pi) * np.arctan(0.5)
print(f"K(step, 2i) = {szego_K(mu, 2j):.12f}")
print(f"closed form = {np.log(1.0 + q) - q * np.log(2.0):.12f}")

# the discrete symbol at step h is the Gram matrix of the sampled
# exponentials in L2(w dx) on the Nyquist window |x| <= pi/h; for a step
# of height c on [-a, a] inside that window its column is exactly
# delta_m + (c - 1)(a h/pi) sinch(a h m), here c = 2 and a = 1
h, m = 0.25, np.arange(16)
col = build_toeplitz(mu, m.size, h).matrix[:, 0]
ref = (m == 0) + (h / np.pi) * np.sinc(h * m / np.pi)
print(f"\nToeplitz column of the step vs its windowed sinc: "
      f"{np.max(np.abs(col - ref)):.1e}")

# half-line functions: split into an L1 part and an L2 part achieving
# the infimal sum of norms
f = HalfLineFunction([0.0, 1.0, 2.0, 3.0], [3.0, 0.2, 1.4], tail=0.0)
f1, f2 = decompose_L1_L2(f)
print(f"\n|f1|_1 + |f2|_2 = {norm_L1(f1) + norm_L2(f2):.6f}"
      f"  (pure L1 {norm_L1(f):.3f}, pure L2 {norm_L2(f):.3f})")

# the classical A2 characteristic of the two-step 1/2 profile is 9/8
g = HalfLineFunction([0.0, 1.0, 2.0], [1.0, 2.0], tail=1.0)
print(f"\n[g]_A2      = {a2_classical(g):.6f}  (exact 9/8 = 1.125)")
print(f"[g]_2,ell1  = {a2_ell1(g):.6f}")

# the harness wires the two characteristics together for a product pair
rep = lemma2_harness(g, g)
print(f"harness: defect {rep.defect:.4f}, [h]_2,ell1 {rep.a2_ell1_h:.4f}, "
      f"ratio {rep.ratio:.4f}")
