"""Piecewise-constant functions on the half line and their weight norms.

Carries the L1+L2 norm with its constructive truncation split, the
ell^1-style Muckenhoupt characteristic over sliding windows [n, n+2],
the classical A2 characteristic over a grid-aligned interval family,
and the harness pairing a multiplier g with a candidate weight h.

The L1+L2 truncation level is exact: the split objective has a closed
form between consecutive values of |f|, so its minimum is read off the
breakpoints and one stationary point per piece.  Both Muckenhoupt
characteristics take their interval averages from the antiderivatives
of f and 1/f (one cumulative sum each), and the classical one scans its
endpoint pairs in row blocks, in memory linear in the endpoint count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedFeatureError, ValidationError
from .hamiltonian import Grid
from .tables import read_table, write_table


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
        if tail is not None and not np.isfinite(tail):
            raise ValidationError(f"tail must be finite, got {tail}")
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
        vals = self.values[self.grid.cell_index(np.minimum(t, self.grid.span))]
        if self.tail is not None:
            vals = np.where(inside, vals, self.tail)
        return vals if vals.ndim else float(vals)

    def dilate(self, y):
        """t -> f(t/y): stretch the grid, keep values."""
        return HalfLineFunction(self.grid.dilate(y), self.values.copy(),
                                tail=self.tail)

    def with_values(self, values):
        return HalfLineFunction(self.grid, values, tail=self.tail)

    def integrate(self, a, b, transform=None):
        """Exact integral of (transform of) f over [a, b], tail included."""
        if not a <= b:
            raise DomainError(f"integration bounds [{a}, {b}] out of order")
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

def _require_l1l2(f):
    if f.tail not in (None, 0.0):
        raise UnsupportedFeatureError(
            "nonzero constant tail is not in L1 + L2")


def _norm_and_level(absf, widths):
    """Exact min over c >= 0 of ||(|f| - c)_+||_1 + ||min(|f|, c)||_2,
    and a level c attaining it.

    With |f| sorted, piece k is [a_k, a_{k+1}] (a_0 = 0, a_{n+1} = inf):
    there the cells above c have width B and integral S, the cells below
    have squared L2 norm Q, and the objective is S - B c + sqrt(Q + B c^2).
    That is convex in c, with its minimum at c = sqrt(Q / (1 - B)) when
    B < 1 and at the right end otherwise, so the least value over every
    piece's left end and clipped stationary point is the global minimum.
    """
    order = np.argsort(absf)
    a, w = absf[order], widths[order]
    if a[-1] == 0.0:
        return 0.0, 0.0
    # both results are 1-homogeneous in |f|: work at max |f| near 1, where
    # the squares stay in range, and scale back exactly by a power of two
    e = math.frexp(a[-1])[1]
    a = np.ldexp(a, -e)
    lo = np.concatenate([[0.0], a])
    hi = np.concatenate([a, [np.inf]])
    Q = np.concatenate([[0.0], np.cumsum(w * a * a)])
    B = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    S = np.concatenate([np.cumsum((w * a)[::-1])[::-1], [0.0]])
    stat = lo.copy()
    inner = B < 1.0
    stat[inner] = np.sqrt(Q[inner] / (1.0 - B[inner]))
    c = np.concatenate([lo, np.clip(stat, lo, hi)])
    k = np.tile(np.arange(lo.size), 2)
    vals = S[k] - B[k] * c + np.sqrt(Q[k] + B[k] * c * c)
    best = int(np.argmin(vals))
    return float(np.ldexp(vals[best], e)), float(np.ldexp(c[best], e))


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
    floating point (where f - level rounds, f2 is the exact remainder
    f - f1).  Every step is 1-homogeneous, so it holds at any scale of f.
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
    # v - level rounds only when the level is below |v|/2 (Sterbenz), and
    # then f1 lies within a factor 2 of v, so v - f1 is exact: one
    # subtraction makes f1 + f2 == v, with |f2| <= |v|/2
    bad = (f1 + f2) != v
    f2[bad] = v[bad] - f1[bad]
    return f.with_values(f1), f.with_values(f2)


def norm_L1(f):
    _require_l1l2(f)
    return float(np.dot(f.grid.widths, np.abs(f.values)))


def norm_L2(f):
    _require_l1l2(f)
    # squared at max |f| near 1, then scaled back by a power of two
    e = math.frexp(np.abs(f.values).max())[1]
    v = np.ldexp(f.values, -e)
    return float(np.ldexp(np.sqrt(np.dot(f.grid.widths, v ** 2)), e))


# -- Muckenhoupt characteristics ----------------------------------------------

def _require_positive(f, need_tail=True):
    if np.any(f.values <= 0):
        raise DomainError("A2 operations need strictly positive values")
    if need_tail:
        if f.tail is None or f.tail <= 0:
            raise DomainError("A2 operations need a positive constant tail")


def _primitive(f, t, inverse=False):
    """int_0^t f (or 1/f) for every t in the array t, tail included.

    One cumulative sum over the cells and a cell lookup; t < 0 counts
    from 0.  The tail must be set when some t lies beyond the grid.  The
    sum runs in long double where the platform has it, so a difference
    of two values keeps the accuracy of a direct sum over its window.
    """
    nodes, vals, tail = f.grid.nodes, f.values, f.tail
    if inverse:
        vals, tail = 1.0 / vals, 1.0 / tail
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    prim = np.concatenate([[0.0], np.cumsum(np.diff(nodes) * vals,
                                            dtype=np.longdouble)])
    t_in = np.minimum(t, nodes[-1])
    k = f.grid.cell_index(t_in)
    inside = prim[k] + (t_in - nodes[k]) * vals[k]
    return inside + np.maximum(t - nodes[-1], 0.0) * tail


def a2_ell1_terms(f, window=2.0, offset=0.0):
    """Window defects avg-product terms of the ell1 characteristic.

    Windows are [n + offset, n + offset + window] for n = 0, 1, ...; the
    series stops once a window lies entirely in the constant tail (its
    term vanishes by the Hoelder equality case).  Every window integral
    is a difference of the antiderivatives of f and 1/f.
    """
    _require_positive(f)
    if not (0 < window < np.inf and np.isfinite(offset)):
        raise DomainError(f"need 0 < window < inf and a finite offset, "
                          f"got window = {window}, offset = {offset}")
    n_stop = int(np.ceil(max(f.grid.span - offset, 0.0))) + 1
    a = np.arange(n_stop) + offset
    b = a + window
    i1 = (_primitive(f, b) - _primitive(f, a)).astype(float)
    i2 = (_primitive(f, b, inverse=True)
          - _primitive(f, a, inverse=True)).astype(float)
    return i1 * i2 - window * window


def a2_ell1(f, window=2.0, offset=0.0):
    """Sum of window defects; 0 iff f is (a.e.) constant."""
    terms = a2_ell1_terms(f, window=window, offset=offset)
    if np.all(f.values == f.values[0]) and (f.tail == f.values[0]):
        return 0.0                          # Hoelder equality case, exact
    return float(np.sum(np.maximum(terms, 0.0)))


def _candidate_nodes(f, interval_budget):
    nodes = f.grid.nodes
    cands = [nodes]
    for level in range(1, int(interval_budget) + 1):
        k = 2 ** level
        step = np.diff(nodes) / k
        cands.append((nodes[:-1, None]
                      + np.arange(1, k) * step[:, None]).ravel())
    span = f.grid.span
    cands.append(span * np.array([1.0625, 1.125, 1.25, 1.5, 2.0, 4.0, 8.0,
                                  16.0, 100.0]))
    return np.unique(np.concatenate(cands))


_PAIR_BLOCK = 2 ** 16     # entries per row block of the pair scan


def _sup_pair_product(t, F, G):
    """max over i < j of (F_j - F_i)(G_j - G_i) / (t_j - t_i)^2, t increasing.

    Rows go in blocks of about _PAIR_BLOCK entries, each against the
    columns after the block's first row.  The value is symmetric in i and
    j, so the few pairs with j < i inside a block repeat valid ones, and
    the diagonal (0 / 0) is skipped, keeping 0 * 0 = 0.
    """
    rows = max(1, _PAIR_BLOCK // t.size)
    # one set of block arrays for the scan: fresh ones per block went back
    # to the system and were faulted in again (~16k page faults a pass)
    bufs = np.empty((3, rows * t.size))
    best = 0.0
    for i0 in range(0, t.size - 1, rows):
        i = slice(i0, min(i0 + rows, t.size - 1))
        j = slice(i0 + 1, None)
        shape = (i.stop - i0, t.size - i0 - 1)
        dt2, prod, dG = bufs[:, :shape[0] * shape[1]].reshape((3,) + shape)
        np.square(np.subtract(t[j], t[i, None], out=dt2), out=dt2)
        np.multiply(np.subtract(F[j], F[i, None], out=prod),
                    np.subtract(G[j], G[i, None], out=dG), out=prod)
        np.divide(prod, dt2, out=prod, where=dt2 > 0.0)
        best = max(best, float(np.max(prod)))
    return best


def a2_classical(f, interval_budget=3):
    """sup over intervals of avg(f) * avg(1/f), >= 1 with equality iff
    constant.

    The supremum is taken over intervals with endpoints on the grid, on
    dyadic refinements of it up to interval_budget levels, and on a
    geometric family reaching into the tail.  The averages come from the
    antiderivatives of f and 1/f at the candidate endpoints, and the
    pairs are scanned in row blocks, so memory stays linear in the
    number of endpoints.
    """
    if np.all(f.values == f.values[0]) and (f.tail in (None, f.values[0])):
        _require_positive(f, need_tail=False)
        return 1.0                          # Hoelder equality case, exact
    _require_positive(f)
    pts = _candidate_nodes(f, interval_budget)
    return _sup_pair_product(pts, _primitive(f, pts).astype(float),
                             _primitive(f, pts, inverse=True).astype(float))


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
        gi = g.grid.cell_index(min(mid, g.grid.span))
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
    nodes = f.grid.nodes
    write_table(path, _HALFLINE_HEADER,
                np.column_stack([nodes[:-1], nodes[1:], f.values]))


def read_halfline(path, tail=None):
    _, rows = read_table(path, _HALFLINE_HEADER, 0, 3)
    if not np.array_equal(rows[1:, 0], rows[:-1, 1]):
        raise ValidationError(f"{path}: rows do not tile the half line")
    nodes = np.append(rows[:, 0], rows[-1, 1])
    return HalfLineFunction(Grid(nodes), rows[:, 2], tail=tail)
