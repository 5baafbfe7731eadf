"""Spectral measures: absolutely continuous weights w(x) dx on the line.

The desk weights used throughout tests and demos are closed forms:

    constant     w = c
    step         w = inner on [-a, a], outer elsewhere
    cosine-bump  w = 1 + A cos^2(pi x / (2a)) on [-a, a]
    sinc-bump    w = 1 + A (sin(Bx)/(Bx))^2        (band-limited accelerant)

Each closed form knows its accelerant k(t) = (1/2pi) int (w-1) e^{-ixt} dx
exactly when w - 1 is integrable.
"""

import numpy as np

from .errors import DomainError, ValidationError
from .solver import sinch
from .tables import read_table, write_table


class SpectralMeasure:
    """Absolutely continuous measure w(x) dx with density bounds.

    Parameters
    ----------
    density : callable
        Vectorized x -> w(x).
    c1, c2 : float
        Essential bounds 0 <= c1 <= w <= c2 < inf (c1 = 0 allowed for
        degenerate test weights; most operations require c1 > 0).
    tail : float or None
        Limit value of w at +-infinity, in [c1, c2]; None if not constant.
    window : float
        Finite X >= 0 such that |w(x) - tail| <= tail_bound(X), |x| >= X.
    tail_bound : callable or None
        Decreasing bound on |w - tail| beyond the window; None means the
        deviation vanishes identically outside the window.
    """

    def __init__(self, density, c1, c2, tail=None, window=0.0,
                 tail_bound=None, label="custom", params=None,
                 breakpoints=()):
        if not (0 <= c1 <= c2 < np.inf and 0 <= window < np.inf
                and (tail is None or c1 <= tail <= c2)):
            raise ValidationError(
                f"need 0 <= c1 <= tail <= c2 < inf and 0 <= window < inf, "
                f"got c1={c1}, c2={c2}, tail={tail}, window={window}")
        self._density = density
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.tail = None if tail is None else float(tail)
        self.window = float(window)
        self.tail_bound = tail_bound
        self.label = label
        self.params = dict(params or {})
        self.breakpoints = [float(b) for b in breakpoints]  # kinks of w
        self._accel = None       # optional closed-form accelerant callable

    def __call__(self, x):
        return np.asarray(self._density(np.asarray(x, dtype=float)))

    def require_positive(self):
        if self.c1 <= 0:
            raise DomainError("operation needs a density bounded away from 0")

    @property
    def is_constant(self):
        """w = c > 0, read off the bounds; the label only names the weight."""
        return 0 < self.c1 == self.c2

    def closed_form_accelerant(self):
        """Callable k(t) when known exactly, else None."""
        return self._accel

    def tail_deviation(self, X):
        """Upper bound for |w(x) - tail| on |x| >= X."""
        if self.tail is None:
            raise DomainError("measure has no constant tail")
        if X >= self.window:
            return 0.0 if self.tail_bound is None else float(self.tail_bound(X))
        return max(self.c2 - self.tail, self.tail - self.c1)

    def __repr__(self):
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"SpectralMeasure({self.label}{', ' + ps if ps else ''})"


# -- closed-form families ----------------------------------------------------

def constant_weight(c):
    if not 0 < c < np.inf:
        raise DomainError(f"constant weight must be in (0, inf), got {c}")
    m = SpectralMeasure(lambda x: np.full_like(x, c, dtype=float), c, c,
                        tail=c, window=0.0, label="constant", params={"c": c})
    return m


def step_weight(inner=2.0, half_width=1.0, outer=1.0):
    """w = inner on [-a, a], outer outside."""
    if not (0 <= inner < np.inf and 0 < outer < np.inf
            and 0 < half_width < np.inf):
        raise DomainError("step weight needs finite inner >= 0, outer, a > 0")
    a = float(half_width)

    def dens(x):
        return np.where(np.abs(x) <= a, float(inner), float(outer))

    m = SpectralMeasure(dens, min(inner, outer), max(inner, outer),
                        tail=outer, window=a, label="step",
                        params={"inner": inner, "half_width": a,
                                "outer": outer},
                        breakpoints=(-a, a))
    if outer == 1.0:
        amp = inner - 1.0
        m._accel = lambda t: amp * a / np.pi * sinch(a * np.asarray(t, float))
    return m


def cosine_bump_weight(amplitude=1.0, half_width=1.0):
    """w = 1 + A cos^2(pi x / (2a)) for |x| <= a, 1 outside."""
    A, a = float(amplitude), float(half_width)
    if not (np.isfinite(A) and 0 < a < np.inf):
        raise DomainError(f"need finite A and 0 < a < inf, got {A}, {a}")
    b = np.pi / a

    def dens(x):
        x = np.asarray(x, float)
        return 1.0 + np.where(np.abs(x) <= a,
                              A * np.cos(np.pi * x / (2 * a)) ** 2, 0.0)

    # (1/2pi) int_{-a}^{a} A cos^2(pi x/2a) e^{-ixt} dx, written with
    # cos^2 = (1 + cos(bx))/2 so every singularity is a removable sinc one
    def accel(t):
        t = np.asarray(t, dtype=float)
        s = sinch(a * t) + 0.5 * (sinch(a * (b - t)) + sinch(a * (b + t)))
        return (A * a / (2 * np.pi)) * s

    m = SpectralMeasure(dens, min(1.0, 1.0 + A), max(1.0, 1.0 + A),
                        tail=1.0, window=a, label="cosine-bump",
                        params={"amplitude": A, "half_width": a},
                        breakpoints=(-a, a))
    m._accel = accel
    return m


def sinc_bump_weight(amplitude=0.5, scale=1.0):
    """w = 1 + A (sin(Bx)/(Bx))^2; accelerant is the triangle on [-2B, 2B]."""
    A, B = float(amplitude), float(scale)
    if not (np.isfinite(A) and 0 < B < np.inf):
        raise DomainError(f"need finite A and 0 < B < inf, got {A}, {B}")

    def dens(x):
        return 1.0 + A * sinch(B * np.asarray(x, float)) ** 2

    def accel(t):
        t = np.asarray(t, dtype=float)
        return (A / (2 * B)) * np.clip(1.0 - np.abs(t) / (2 * B), 0.0, None)

    m = SpectralMeasure(dens, min(1.0, 1.0 + A), max(1.0, 1.0 + A),
                        tail=1.0, window=200.0 / B,
                        tail_bound=lambda X: abs(A) / (B * X) ** 2,
                        label="sinc-bump", params={"amplitude": A, "scale": B})
    m._accel = accel
    return m


def sampled_weight(x, w, tail=1.0):
    """Piecewise-linear interpolant of samples, constant ``tail`` outside.

    ``tail=None`` extends by the edge samples instead and leaves the
    measure without a declared tail, so entropy-style functionals that
    need one will refuse it.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.ndim != 1 or x.shape != w.shape or x.size < 2:
        raise ValidationError("need matching 1-d sample arrays, length >= 2")
    if not np.all(np.diff(x) > 0):
        raise ValidationError("sample abscissae must be strictly increasing")
    if np.any(w < 0):
        raise ValidationError("density samples must be nonnegative")

    lo = float(w[0] if tail is None else tail)
    hi = float(w[-1] if tail is None else tail)

    def dens(q):
        return np.interp(q, x, w, left=lo, right=hi)

    ext = (lo, hi) if tail is None else (tail,)
    c1 = float(min(w.min(), *ext))
    c2 = float(max(w.max(), *ext))
    return SpectralMeasure(dens, c1, c2, tail=tail,
                           window=float(max(abs(x[0]), abs(x[-1]))),
                           label="sampled", params={"n": x.size},
                           breakpoints=x)


WEIGHT_FAMILIES = {
    "constant": constant_weight,
    "step": step_weight,
    "cosine-bump": cosine_bump_weight,
    "sinc-bump": sinc_bump_weight,
}


def weight_by_name(name, **params):
    try:
        fam = WEIGHT_FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown weight family {name!r}; know {sorted(WEIGHT_FAMILIES)}")
    return fam(**params)


# -- file format: '#weight v1', rows 'x w(x)' --------------------------------

_WEIGHT_HEADER = "#weight v1"


def write_weight(measure, path, x):
    """Sample the density on abscissae x and write the tabular format.

    A non-finite sample raises ValidationError before the file is opened.
    """
    x = np.asarray(x, dtype=float)
    write_table(path, _WEIGHT_HEADER, np.column_stack([x, measure(x)]))


def read_weight(path, tail=1.0):
    _, rows = read_table(path, _WEIGHT_HEADER, 0, 2)
    xs, ws = rows.T
    return sampled_weight(xs, ws, tail=tail)
