"""Accelerants: the regular part k of the convolution kernel delta + k.

k(t) = (1/2pi) int (w(x) - 1) e^{-ixt} dx, so w - 1 must be integrable;
weights with tail != 1 go through truncate_weight first.  All desk
weights are even, making k real and even; odd weights are rejected
rather than half-supported.  k is evaluated at exactly the times asked
for: from the weight's closed form where it has one, which also carries
any band limit (the sinc bump's hat vanishes beyond 2B), and by panel
quadrature of w - 1 otherwise.  This module is the one place a weight
becomes the first column of its discrete Wiener-Hopf matrix.
"""

import numpy as np

from .errors import DomainError, UnsupportedFeatureError, ValidationError
from .measures import SpectralMeasure
from .quadrature import gauss_legendre

_BLOCK = 1 << 16        # times x quadrature nodes per block of cos(t x)


def truncate_weight(mu, j):
    """Replace w by 1 outside [-j, j]; bounds widen to include 1."""
    if not 0 < j < np.inf:
        raise DomainError(f"truncation radius must be in (0, inf), got {j}")
    j = float(j)
    if mu.tail == 1.0 and mu.window <= j and mu.tail_bound is None:
        return mu          # already 1 beyond [-j, j]

    def dens(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= j, mu(x), 1.0)

    out = SpectralMeasure(
        dens, min(mu.c1, 1.0), max(mu.c2, 1.0), tail=1.0, window=j,
        label="truncated", params=dict(mu.params, j=j, base=mu.label),
        breakpoints=sorted({-j, j, *(b for b in mu.breakpoints
                                     if -j < b < j)}))
    return out


def _check_even(mu):
    probe = np.array([0.37, 1.21, 2.9, mu.window * 0.63 + 0.11])
    if not np.allclose(mu(probe), mu(-probe), rtol=0, atol=1e-12):
        raise UnsupportedFeatureError(
            "only even weights are supported (real symmetric accelerant)")


def _numeric_kernel(mu, times):
    """(1/pi) int_0^X (w(x)-1) cos(xt) dx on GL panels resolving cos(x*t)."""
    if mu.tail != 1.0:
        raise DomainError(
            "w - 1 is not integrable (tail != 1); apply truncate_weight")
    X = mu.window
    if mu.tail_deviation(X) * X > 1e-10:
        raise DomainError(
            f"w - 1 is not negligible beyond the window {X:g}; "
            "apply truncate_weight first")
    t_max = max(np.max(times, initial=0.0), 1.0)
    # ~6 nodes per period of the fastest oscillation
    n_panels = int(np.ceil(X * t_max / np.pi)) + len(mu.breakpoints) + 4
    edges = np.unique(np.concatenate([
        np.linspace(0.0, X, n_panels + 1),
        [b for b in np.abs(mu.breakpoints) if 0 < b < X]]))
    nodes, wq = gauss_legendre(8, edges[:-1], edges[1:])
    nodes = nodes.ravel()
    dev = (np.asarray(mu(nodes), dtype=float) - 1.0) * wq.ravel()
    # values[m] = (1/pi) sum dev * cos(x * t_m), a block of times at a
    # time, so memory is O(_BLOCK + len(times)), not len(times) x nodes
    t = np.reshape(times, -1)
    values = np.empty(t.shape)
    rows = max(1, _BLOCK // nodes.size)
    for lo in range(0, t.size, rows):
        values[lo:lo + rows] = np.cos(np.multiply.outer(t[lo:lo + rows],
                                                        nodes)) @ dev
    return values.reshape(np.shape(times)) / np.pi


def accelerant_from_weight(mu, t):
    """k(t) at the given times: the weight's closed form when it has one,
    zero for w = 1, and the numeric kernel otherwise."""
    mu.require_numeric()
    t = np.abs(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValidationError("accelerant times must be finite")
    if mu.is_constant:
        if mu.c1 != 1.0:
            raise DomainError(
                "w - 1 is not integrable for constant w != 1; truncate first")
        return np.zeros_like(t)
    closed = mu.closed_form_accelerant()
    if closed is not None:
        return np.asarray(closed(t), dtype=float)
    _check_even(mu)
    return _numeric_kernel(mu, t)


def _toeplitz_column(mu, h, n):
    """First column of the discrete Wiener-Hopf matrix I + h k((j-l) h)."""
    col = h * accelerant_from_weight(mu, h * np.arange(n))
    col[0] += 1.0
    return col
