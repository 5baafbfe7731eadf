"""Piecewise-constant functions on the half line and their weight norms.

Carries the L1+L2 norm with its constructive truncation split, the
ell^1-style Muckenhoupt characteristic over sliding windows [n, n+2],
the classical A2 characteristic over a grid-aligned interval family,
and the harness pairing a multiplier g with a candidate weight h.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedFeatureError, ValidationError
from .hamiltonian import Grid, _read_rows


class HalfLineFunction:
    """Piecewise-constant f on [0, span), optionally constant after."""

    def __init__(self, grid, values, tail=None):
        if not isinstance(grid, Grid):
            grid = Grid(grid)
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells,):
            raise ValidationError(
                f"need one value per cell: {values.shape} vs {grid.n_cells}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("values must be finite")
        self.grid = grid
        self.values = values
        self.tail = None if tail is None else float(tail)

    @classmethod
    def from_uniform(cls, values, span=None, tail=None):
        values = np.asarray(values, dtype=float)
        span = float(span) if span is not None else float(len(values))
        nodes = np.linspace(0.0, span, len(values) + 1)
        return cls(Grid(nodes), values, tail=tail)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = t < self.grid.span
        if not np.all(inside) and self.tail is None:
            raise DomainError("evaluation beyond the grid needs a tail value")
        idx = np.minimum(np.searchsorted(self.grid.nodes, t, side="right") - 1,
                         self.grid.n_cells - 1)
        idx = np.maximum(idx, 0)
        vals = self.values[idx]
        if self.tail is not None:
            vals = np.where(inside, vals, self.tail)
        return vals if vals.ndim else float(vals)

    def dilate(self, y):
        """t -> f(t/y): stretch the grid, keep values."""
        if y <= 0:
            raise DomainError("dilation factor must be positive")
        return HalfLineFunction(Grid(self.grid.nodes * y), self.values.copy(),
                                tail=self.tail)

    def with_values(self, values, tail="keep"):
        return HalfLineFunction(self.grid, values,
                                tail=self.tail if tail == "keep" else tail)

    def integrate(self, a, b, transform=None):
        """Exact integral of (transform of) f over [a, b], tail included."""
        if b < a:
            raise DomainError("integration bounds out of order")
        vals = self.values if transform is None else transform(self.values)
        nodes = self.grid.nodes
        lo = np.clip(nodes[:-1], a, b)
        hi = np.clip(nodes[1:], a, b)
        total = float(np.dot(hi - lo, vals))
        if b > self.grid.span:
            if self.tail is None:
                raise DomainError("window reaches beyond the grid; no tail")
            tv = self.tail if transform is None else float(
                transform(np.array([self.tail]))[0])
            total += (b - max(a, self.grid.span)) * tv
        return total

    def __repr__(self):
        t = "" if self.tail is None else f", tail={self.tail:g}"
        return (f"HalfLineFunction({self.grid.n_cells} cells on "
                f"[0, {self.grid.span:g}]{t})")


# -- L1 + L2 ------------------------------------------------------------------

def _objective(absf, widths, c):
    spike = np.maximum(absf - c, 0.0)
    body = np.minimum(absf, c)
    return float(np.dot(widths, spike) + np.sqrt(np.dot(widths, body * body)))


def _require_l1l2(f):
    if f.tail not in (None, 0.0):
        raise UnsupportedFeatureError(
            "nonzero constant tail is not in L1 + L2")


def _norm_and_level(absf, widths, scans=257):
    cmax = float(absf.max(initial=0.0))
    if cmax == 0.0:
        return 0.0, 0.0
    cand = np.unique(np.concatenate([
        np.linspace(0.0, cmax, scans), absf[absf > 0]]))
    vals = np.array([_objective(absf, widths, c) for c in cand])
    k = int(np.argmin(vals))
    lo = cand[max(k - 1, 0)]
    hi = cand[min(k + 1, len(cand) - 1)]
    # golden-section polish inside the bracketing pair
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = _objective(absf, widths, c1), _objective(absf, widths, c2)
    for _ in range(60):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = _objective(absf, widths, c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = _objective(absf, widths, c2)
    c_best = 0.5 * (a + b)
    v_best = _objective(absf, widths, c_best)
    if vals[k] < v_best:
        c_best, v_best = cand[k], vals[k]
    return v_best, float(c_best)


def norm_L1_plus_L2(f):
    """min over c of ||(|f|-c)_+||_1 + ||min(|f|,c)||_2.

    Operational value: an upper bound for the true infimum over all
    splits, and within a universal constant of it.
    """
    _require_l1l2(f)
    return _norm_and_level(np.abs(f.values), f.grid.widths)[0]


def decompose_L1_L2(f):
    """Split f = f1 + f2 with |f1|, |f2| <= |f| per cell.

    f1 carries the spikes (L1 part), f2 the bounded body (L2 part); the
    truncation level is optimized separately for the positive and
    negative parts, and the recomposition f1 + f2 == f holds exactly in
    floating point (cells where rounding would break it are pushed
    entirely into f2).
    """
    _require_l1l2(f)
    widths = f.grid.widths
    v = f.values
    pos = np.maximum(v, 0.0)
    neg = np.maximum(-v, 0.0)
    _, c_pos = _norm_and_level(pos, widths)
    _, c_neg = _norm_and_level(neg, widths)
    f2 = np.clip(v, -c_neg, c_pos)        # representable: v or the level
    f1 = v - f2
    for _ in range(4):
        bad = (f1 + f2) != v
        if not bad.any():
            break
        f2[bad] = v[bad] - f1[bad]
        bad = (f1 + f2) != v
        if not bad.any():
            break
        f1[bad] = v[bad] - f2[bad]
    bad = (f1 + f2) != v
    if bad.any():                          # guaranteed-exact fallback
        f1[bad] = 0.0
        f2[bad] = v[bad]
    return f.with_values(f1), f.with_values(f2)


def norm_L1(f):
    _require_l1l2(f)
    return float(np.dot(f.grid.widths, np.abs(f.values)))


def norm_L2(f):
    _require_l1l2(f)
    return float(np.sqrt(np.dot(f.grid.widths, f.values ** 2)))


# -- Muckenhoupt characteristics ----------------------------------------------

def _require_positive(f, need_tail=True):
    if np.any(f.values <= 0):
        raise DomainError("A2 operations need strictly positive values")
    if need_tail:
        if f.tail is None or f.tail <= 0:
            raise DomainError("A2 operations need a positive constant tail")


def a2_ell1_terms(f, window=2.0, offset=0.0):
    """Window defects avg-product terms of the ell1 characteristic.

    Windows are [n + offset, n + offset + window] for n = 0, 1, ...; the
    series stops once a window lies entirely in the constant tail (its
    term vanishes by the Hoelder equality case).
    """
    _require_positive(f)
    if window <= 0:
        raise DomainError("window length must be positive")
    n_stop = int(np.ceil(max(f.grid.span - offset, 0.0))) + 1
    terms = []
    for n in range(n_stop):
        a = n + offset
        b = a + window
        i1 = f.integrate(a, b)
        i2 = f.integrate(a, b, transform=lambda x: 1.0 / x)
        terms.append(i1 * i2 - window * window)
    return np.asarray(terms)


def a2_ell1(f, window=2.0, offset=0.0):
    """Sum of window defects; 0 iff f is (a.e.) constant."""
    if np.all(f.values == f.values[0]) and (f.tail == f.values[0]):
        _require_positive(f)
        return 0.0                          # Hoelder equality case, exact
    terms = a2_ell1_terms(f, window=window, offset=offset)
    return float(np.sum(np.maximum(terms, 0.0)))


def _candidate_nodes(f, interval_budget):
    nodes = [f.grid.nodes]
    for level in range(1, int(interval_budget) + 1):
        k = 2 ** level
        sub = np.concatenate([
            np.linspace(a, b, k + 1)[1:-1]
            for a, b in zip(f.grid.nodes[:-1], f.grid.nodes[1:])])
        nodes.append(sub)
    span = f.grid.span
    nodes.append(span * np.array([1.0625, 1.125, 1.25, 1.5, 2.0, 4.0, 8.0,
                                  16.0, 100.0]))
    return np.unique(np.concatenate(nodes))


def a2_classical(f, interval_budget=3):
    """sup over intervals of avg(f) * avg(1/f), >= 1 with equality iff
    constant.

    The supremum is taken over intervals with endpoints on the grid, on
    dyadic refinements of it up to interval_budget levels, and on a
    geometric family reaching into the tail.
    """
    if np.all(f.values == f.values[0]) and (f.tail in (None, f.values[0])):
        _require_positive(f, need_tail=False)
        return 1.0                          # Hoelder equality case, exact
    _require_positive(f)
    pts = _candidate_nodes(f, interval_budget)
    F = np.array([f.integrate(0.0, b) for b in pts])
    G = np.array([f.integrate(0.0, b, transform=lambda x: 1.0 / x)
                  for b in pts])
    dF = F[None, :] - F[:, None]
    dG = G[None, :] - G[:, None]
    dt = pts[None, :] - pts[:, None]
    iu = np.triu_indices(len(pts), k=1)
    prod = (dF[iu] / dt[iu]) * (dG[iu] / dt[iu])
    return float(np.max(prod))


# -- inequality harness --------------------------------------------------------

@dataclass
class HarnessReport:
    norm_log_deriv: float       # ||g'/g|| in the L1+L2 norm
    defect: float               # ||gh + 1/(gh) - 2||_L1
    a2_ell1_h: float            # [h]_{2,ell1}
    ratio: float                # a2_ell1_h / (defect^2 + 1)


def log_derivative(g):
    """phi = g'/g of the piecewise log-linear interpolant of g.

    Cell values of g are read as node samples (value at the cell's left
    node); the function continues into the constant tail, so phi = 0
    beyond the grid.
    """
    _require_positive(g)
    lg = np.log(np.append(g.values, g.tail))
    phi = np.diff(lg) / g.grid.widths
    return HalfLineFunction(g.grid, phi, tail=0.0)


def _exp_linear_defect(a, b, t0, t1):
    """int_{t0}^{t1} (e^{a+bt} + e^{-a-bt} - 2) dt, closed form."""
    dt = t1 - t0
    if abs(b) * dt < 1e-8:
        u0 = a + b * (t0 + t1) / 2.0
        return (np.exp(u0) + np.exp(-u0) - 2.0) * dt
    e1, e0 = np.exp(a + b * t1), np.exp(a + b * t0)
    return (e1 - e0) / b + (1.0 / e1 - 1.0 / e0) / (-b) - 2.0 * dt


def lemma2_harness(g, h):
    """Report the quantities pairing a multiplier g with a weight h.

    g is interpreted as piecewise log-linear (so g'/g is piecewise
    constant); h is piecewise constant.  Returns the L1+L2 norm of g'/g,
    the L1 defect of gh + (gh)^{-1} - 2, the ell1 characteristic of h,
    and the witness ratio a2 / (defect^2 + 1).
    """
    _require_positive(g)
    _require_positive(h)
    phi = log_derivative(g)
    norm_phi = norm_L1_plus_L2(phi)

    # refine both grids; on each piece g*h = exp(a + b t) with h constant
    cut = np.unique(np.concatenate([g.grid.nodes, h.grid.nodes]))
    lg_nodes = np.log(np.append(g.values, g.tail))
    defect = 0.0
    for t0, t1 in zip(cut[:-1], cut[1:]):
        mid = 0.5 * (t0 + t1)
        gi = g.grid.cell_index(min(mid, g.grid.span * (1 - 1e-12)))
        b = phi.values[gi] if mid < g.grid.span else 0.0
        base = lg_nodes[gi] + b * (t0 - g.grid.nodes[gi]) if \
            mid < g.grid.span else np.log(g.tail)
        a = base - b * t0 + np.log(h(mid))
        defect += _exp_linear_defect(a, b, t0, t1)
    # constant tail beyond the refined grid
    u_tail = g.tail * h.tail
    if abs(u_tail - 1.0) > 1e-14:
        defect = np.inf
    a2h = a2_ell1(h)
    return HarnessReport(norm_phi, float(defect), a2h,
                         float(a2h / (defect ** 2 + 1.0)))


# -- file format: '#halfline v1', rows 't_start t_end value' -------------------

_HALFLINE_HEADER = "#halfline v1"


def write_halfline(f, path):
    lines = [_HALFLINE_HEADER]
    for a, b, v in zip(f.grid.nodes[:-1], f.grid.nodes[1:], f.values):
        lines.append(f"{repr(float(a))} {repr(float(b))} {repr(float(v))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_halfline(path, tail=None):
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or raw[0] != _HALFLINE_HEADER:
        raise ValidationError(f"{path}: missing '{_HALFLINE_HEADER}' header")
    rows = _read_rows(path, raw[1:], 3)
    if not np.array_equal(rows[1:, 0], rows[:-1, 1]):
        raise ValidationError(f"{path}: rows do not tile the half line")
    nodes = np.append(rows[:, 0], rows[-1, 1])
    return HalfLineFunction(Grid(nodes), rows[:, 2], tail=tail)
