"""The discrete symbol: the one place a weight becomes the first column
of its discrete Wiener-Hopf matrix.

At step h that matrix is the Gram matrix of the sampled exponentials
e_j = sqrt(h/2pi) e^{ixjh} in L2(w dx) over the Nyquist window
|x| <= pi/h,

    W[j, l] = (h/2pi) int_{-pi/h}^{pi/h} w(x) e^{ix(j - l)h} dx,

so its spectrum lies in [c1, c2] for every bounded w, whatever its tail
(Gohberg & Feldman, Convolution Equations and Projection Methods for
Their Solution, 1974).  Both the column and the factor's pairing read
the windowed moments mu(k) = (h/pi) int_0^{pi/h} w(x) e^{ixhk/2} dx of
``_moments``; the column is their real even lags.  All desk weights are
even, making W real; odd weights are rejected rather than
half-supported.  Weights, ``truncate_weight`` too, live in ``measures``.
The column refuses, before any moment, a symbol with 0 < c1 <= eps c2,
past 1/eps in contrast; ``_positivity_lost`` words every refusal.
"""

from math import isqrt

import numpy as np

from .errors import SpectralPositivityError, UnsupportedFeatureError
from .quadrature import gauss_legendre

_ORDER = 16             # Gauss-Legendre nodes per panel of the moments


def _check_even(mu):
    probe = np.array([0.37, 1.21, 2.9, mu.window * 0.63 + 0.11])
    if not np.allclose(mu(probe), mu(-probe), rtol=0, atol=1e-12):
        raise UnsupportedFeatureError(
            "only even weights are supported (real symmetric Toeplitz "
            "matrix)")


def _moments(mu, h, n):
    """mu(k) = sum_x c(x) e^{ixhk/2}, k = 0..2n, over the quadrature:
    order-16 Gauss-Legendre on P = max(n, 4) panels of [0, pi/h], c = w *
    weight * h/pi.  Uncut panels, x = (p + u_q) pi/(P h), are one
    length-4P FFT over p and a 16-term twiddle sum.  A panel that a
    breakpoint of w cuts is split there, and its nodes are summed as the
    product of two phase tables, e^{ixhBs/2} and e^{ixhr/2} for
    k = Bs + r, B ~ sqrt(2n): memory (nodes x 2 sqrt(2n)), not
    nodes x 2n.  mu(-k) = conj mu(k), since c is real."""
    _check_even(mu)
    X = np.pi / h
    P = max(n, 4)
    edges = np.linspace(0.0, X, P + 1)
    fine = np.unique(np.concatenate([
        edges, [b for b in mu.breakpoints if 0.0 < b < X]]))
    panel = np.searchsorted(edges, fine[:-1], side="right") - 1
    cut = np.bincount(panel, minlength=P) > 1
    x_u, wq_u = gauss_legendre(_ORDER, edges[:-1], edges[1:])   # (P, 16)
    c_u = np.where(cut[:, None], 0.0, wq_u) * mu(x_u)
    K = 2 * n + 1
    u, _ = gauss_legendre(_ORDER, 0.0, 1.0)
    # rfft sums against e^{-i...}; c is real, so the e^{+i...} sums are
    # the conjugates of the K twiddled ones
    G = np.fft.rfft(c_u.T, 4 * P)[:, :K]
    m = np.einsum("qk,qk->k", G, np.exp(-0.5j * np.pi / P
                                        * u[:, None] * np.arange(K))).conj()
    x_c, wq_c = gauss_legendre(_ORDER, fine[:-1][cut[panel]],
                               fine[1:][cut[panel]])
    x_c = x_c.ravel()
    c_c = wq_c.ravel() * mu(x_c)
    B = isqrt(K - 1) + 1
    high = np.exp(0.5j * h * B * np.outer(np.arange(-(-K // B)), x_c))
    low = np.exp(0.5j * h * np.outer(x_c, np.arange(B)))
    low *= c_c[:, None]
    m += (high @ low).ravel()[:K]
    return m * (h / np.pi)


def _positivity_lost(mu, found):
    """The SpectralPositivityError for a section of mu that failed its
    positivity test: c1 = 0, or else rounding at contrast c2/c1, since
    the windowed section's spectrum lies in [c1, c2]."""
    if mu.c1 <= 0:
        return SpectralPositivityError(
            f"{found}; the symbol must be bounded away from zero")
    return SpectralPositivityError(
        f"{found} in double precision, although c1 = {mu.c1:.3g} > 0: "
        f"rounding at contrast c2/c1 = {mu.c2 / mu.c1:.3g} (refused from "
        "1/eps = 4.5e15 on, before any pass; below, a step weight passes "
        "up to ~1e12 and beyond that depending on the size)")


def _toeplitz_column(mu, h, n):
    """First column of the order-n discrete Wiener-Hopf matrix at step
    h: the real even lags Re mu(2m), m < n, of ``_moments``.  Refused
    before any moment if 0 < c1 <= eps c2; c1 = 0 is left to the pass."""
    if 0.0 < mu.c1 <= np.finfo(float).eps * mu.c2:
        raise _positivity_lost(mu, "sections of this symbol are not resolved")
    return _moments(mu, h, n)[:2 * n:2].real.copy()
