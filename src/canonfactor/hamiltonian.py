"""Grids, Hamiltonians, and their structural operations.

A Hamiltonian here is a piecewise-constant map t -> H(t) on [0, T] with
2x2 real symmetric positive semidefinite cells.  The signature matrix is
fixed once for the whole package:

    J = [[0, -1],
         [1,  0]]

and every formula downstream (transfer matrices, Weyl limits, waves) is
derived consistently with this choice.
"""

import numpy as np

from .errors import DomainError, ValidationError
from .tables import read_table, write_table

# Fixed sign convention; J^2 = -I, J^{-1} = -J = J^T.
J = np.array([[0.0, -1.0], [1.0, 0.0]])
J.setflags(write=False)

DET_TOL = 1e-9          # unimodular cells: |det - 1| below this
PSD_TOL = 1e-12         # PSD slack on the determinant


class Grid:
    """Strictly increasing breakpoints 0 = t_0 < t_1 < ... < t_K.

    Cells are the half-open intervals [t_k, t_{k+1}); the function value on
    the last cell also serves for t = t_K.
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValidationError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValidationError("grid must start at t = 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValidationError("grid nodes must be strictly increasing")
        if not np.all(np.isfinite(nodes)):
            raise ValidationError("grid nodes must be finite")
        nodes.setflags(write=False)
        self.nodes = nodes

    @property
    def n_cells(self):
        return self.nodes.size - 1

    @property
    def widths(self):
        return np.diff(self.nodes)

    @property
    def span(self):
        return float(self.nodes[-1])

    def dilate(self, y):
        """The nodes times a finite y > 0."""
        if not np.isfinite(y) or y <= 0:
            raise DomainError(f"dilation factor must be positive, got {y}")
        return Grid(self.nodes * y)

    def clip(self, t, name="t", scale=1.0):
        """t (a number or an array) cut to [0, scale * span], with 1e-12
        relative slack past the end for a last node rounded below the
        nominal span; DomainError naming ``name`` outside it or on NaN."""
        t = np.asarray(t, dtype=float)
        end = scale * self.span
        bad = ~((0 <= t) & (t <= end + 1e-12 * max(1.0, end)))
        if np.any(bad):
            where = "grid span" if scale == 1 else f"{scale:g} x grid span"
            raise DomainError(f"{name} = {float(t[bad].flat[0])!r} outside "
                              f"{where} [0, {end!r}]")
        t = np.minimum(t, end)
        return t if t.ndim else float(t)

    def cell_index(self, t):
        """Index of the cell holding each t (last cell closed on the
        right), after ``clip``."""
        k = np.searchsorted(self.nodes, self.clip(t), side="right") - 1
        k = np.minimum(k, self.n_cells - 1)
        return k if k.ndim else int(k)

    def __eq__(self, other):
        return isinstance(other, Grid) and np.array_equal(self.nodes, other.nodes)

    def __repr__(self):
        return f"Grid({self.n_cells} cells on [0, {self.span:g}])"


class Hamiltonian:
    """Piecewise-constant 2x2 symmetric PSD matrix function on a grid.

    Parameters
    ----------
    grid : Grid
    cells : array_like, shape (K, 2, 2)
        One symmetric PSD matrix per grid cell.

    ``unimodular`` is read off the cells on construction: True when every
    cell has |det - 1| <= DET_TOL, the gauge the waves need.  Cells and
    grid are read-only, so it cannot go stale.
    """

    def __init__(self, grid, cells):
        if not isinstance(grid, Grid):
            grid = Grid(grid)
        cells = np.asarray(cells, dtype=float)
        if cells.shape != (grid.n_cells, 2, 2):
            raise ValidationError(
                f"cells shape {cells.shape} does not match grid with "
                f"{grid.n_cells} cells")
        cells.setflags(write=False)
        self.grid = grid
        self.cells = cells
        self.unimodular = _check_cells(cells) <= DET_TOL

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, span, n_cells=1):
        g = Grid(np.linspace(0.0, span, n_cells + 1))
        return cls(g, np.tile(np.eye(2), (n_cells, 1, 1)))

    @classmethod
    def constant(cls, matrix, span, n_cells=1):
        m = np.asarray(matrix, dtype=float)
        g = Grid(np.linspace(0.0, span, n_cells + 1))
        return cls(g, np.tile(m, (n_cells, 1, 1)))

    @classmethod
    def from_entries(cls, nodes, h1, h, h2):
        h1 = np.asarray(h1, float); h = np.asarray(h, float); h2 = np.asarray(h2, float)
        cells = np.stack(
            [np.stack([h1, h], axis=-1), np.stack([h, h2], axis=-1)], axis=-2)
        return cls(Grid(nodes), cells)

    # -- views ------------------------------------------------------------

    @property
    def h1(self):
        return self.cells[:, 0, 0]

    @property
    def h(self):
        return self.cells[:, 0, 1]

    @property
    def h2(self):
        return self.cells[:, 1, 1]

    @property
    def dets(self):
        return self.h1 * self.h2 - self.h * self.h

    def at(self, t):
        """Cell matrix at time t."""
        return self.cells[self.grid.cell_index(t)]

    # -- structural operations --------------------------------------------

    def dual(self):
        """Dual Hamiltonian J^T H J (swaps h1 <-> h2 and flips h)."""
        cells = np.einsum("ij,kjl,lm->kim", J.T, self.cells, J)
        return Hamiltonian(self.grid, cells)

    def dilate(self, y):
        """Time rescaling t -> H(t / y): grid nodes multiply by y.

        Cell matrices are untouched, so PSD/unimodularity and cell
        eigenvalues are preserved exactly.
        """
        return Hamiltonian(self.grid.dilate(y), self.cells)

    def sqrt_cells(self):
        """Per-cell symmetric PSD square roots, shape (K, 2, 2)."""
        return sqrt_psd_cells(self.cells)

    def __eq__(self, other):
        return (isinstance(other, Hamiltonian)
                and self.grid == other.grid
                and np.array_equal(self.cells, other.cells))

    def __repr__(self):
        tag = "unimodular, " if self.unimodular else ""
        return f"Hamiltonian({tag}{self.grid.n_cells} cells on [0, {self.grid.span:g}])"


def sqrt_psd_cells(c):
    """Square roots of the PSD 2x2 matrices c of shape (K, 2, 2).

    Closed form: sqrt(A) = (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A));
    zero matrices give zero.  The input is not checked.
    """
    s = np.sqrt(np.maximum(
        c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0], 0.0))
    denom = c[:, 0, 0] + c[:, 1, 1] + 2.0 * s
    root = np.sqrt(np.where(denom > 0, denom, 1.0))
    out = (c + s[:, None, None] * np.eye(2)) / root[:, None, None]
    out[denom <= 0] = 0.0
    return out


def random_unimodular(rng, n_cells, span):
    """Random unimodular Hamiltonian for property tests.

    Cell widths are uniformly jittered; entries are built as
    h1 = e^u, h2 = (1 + h^2)/h1 so that det = 1 holds to rounding.
    """
    widths = rng.uniform(0.5, 1.5, n_cells)
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    nodes *= span / nodes[-1]
    h1 = np.exp(rng.uniform(-0.8, 0.8, n_cells))
    h = rng.uniform(-0.6, 0.6, n_cells)
    h2 = (1.0 + h * h) / h1
    return Hamiltonian.from_entries(nodes, h1, h, h2)


def _check_cells(c):
    """Max |det - 1| over the cells c (K, 2, 2), which must be finite,
    exactly symmetric and PSD with a determinant in double range."""
    issues = []
    with np.errstate(over="ignore", invalid="ignore"):
        dets = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    if not np.all(np.isfinite(c)):
        issues.append("cells must be finite")
    elif not np.all(np.isfinite(dets)):
        # inf - inf = nan would pass every sign check below
        bad = int(np.argmin(np.isfinite(dets)))
        issues.append(f"cell {bad} has a determinant beyond double range")
    if not np.allclose(c[:, 0, 1], c[:, 1, 0], rtol=0, atol=0):
        issues.append("cells must be exactly symmetric")
    if np.any(c[:, 0, 0] < -PSD_TOL) or np.any(c[:, 1, 1] < -PSD_TOL):
        issues.append("negative diagonal entry (not PSD)")
    if np.any(dets < -PSD_TOL):
        bad = int(np.argmin(dets))
        issues.append(f"cell {bad} has det = {dets[bad]:.3g} < 0 (not PSD)")
    if issues:
        raise ValidationError("; ".join(issues))
    return float(np.max(np.abs(dets - 1.0)))


# -- file format ------------------------------------------------------------
#
#   #canon-hamiltonian v1
#   t_start t_end h1 h h2        (one row per cell, full decimal precision)

_HAM_HEADER = "#canon-hamiltonian v1"


def write_hamiltonian(ham, path):
    n = ham.grid.nodes
    c = ham.cells
    write_table(path, _HAM_HEADER, np.column_stack(
        [n[:-1], n[1:], c[:, 0, 0], c[:, 0, 1], c[:, 1, 1]]))


def read_hamiltonian(path):
    _, rows = read_table(path, _HAM_HEADER, 0, 5)
    if not np.array_equal(rows[1:, 0], rows[:-1, 1]):
        raise ValidationError(f"{path}: cell intervals do not tile the grid")
    nodes = np.append(rows[:, 0], rows[-1, 1])
    h1, h, h2 = rows[:, 2:].T
    return Hamiltonian.from_entries(nodes, h1, h, h2)
