"""Transfer matrices for the canonical system J dM/dt = z H(t) M, M(0) = I.

With J = [[0,-1],[1,0]] the system reads M' = -z J H M.  On a cell where
H is the constant matrix C, the generator G = J C is trace free with
G^2 = -det(C) I, so the propagator over a step of width s is the closed
form

    exp(-z s G) = cos(z s d) I - z s * sinch(z s d) G,     d = sqrt(det C),

valid for every complex z including the degenerate cells det C = 0.  All
entries of M(t, z) are entire functions of z, and det M(t, z) = 1 because
tr G = 0.

Everything built from M (transfer matrices, Weyl disks, wave
amplitudes, the energy identity) comes from one sweep, ``_sweep``,
which multiplies the propagators cell by cell, left to right.  They are
filled a block of cells at a time, in place, into one buffer allocated
per sweep.  The trig of the closed form (cos and sinch) depends on a
cell only through its step and d, and the cells of a recovered
Hamiltonian share a few such pairs (3 among 2048 cells), so when the
distinct pairs fit in one block the trig is evaluated once per pair
and gathered into every block; otherwise each block evaluates the trig
of its own cells straight into the buffer.  Either way memory stays
O(``_BLOCK``), however many distinct pairs there are.  A cell whose growth
|Im z| * width * d exceeds ``_MAX_GROWTH`` is cut into equal substeps.
After every step the state of each z is divided by a power of two
(frexp/ldexp), which is exact: wherever the unscaled product is finite
and normal, the rescaled one with its scale put back equals it bit for
bit, and past double range the scale-free ratios stay available.

The sweep follows the dtype of z.  For real z the generator J H is real,
so M(t, z) is real with det 1: the propagators (real ``cos``, real
``sinch``) and the state are float64, at a fraction of the cost of
complex arithmetic, and no cell is cut into substeps.  Complex z runs
the same code in complex128.
"""

import numpy as np

from .errors import DomainError
from .hamiltonian import J
from .quadrature import gauss_kronrod

_BLOCK = 1 << 18        # cells x z per block of propagators
_MAX_GROWTH = 200.0     # largest |Im z| * step * d of one substep


def sinch(x):
    """sin(x)/x for real or complex x; real x gives a real result.

    Below |x| = 1e-4 the series 1 - x^2/6 + x^4/120 replaces the quotient,
    which loses nothing to cancellation but is 0/0 at 0, and inf+nanj in
    numpy's complex division by a subnormal x (1e-310, 5e-324, 1e-310j).
    """
    x = np.asarray(x)
    x = x.astype(np.result_type(x, np.float64), copy=False)
    small = np.abs(x) < 1e-4
    out = np.asarray(np.sin(x) / np.where(small, 1.0, x))
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0 + xs ** 4 / 120.0
    return out


def _trig(steps, d, z, c, s):
    """Write c = cos(theta) and s = z step sinch(theta), theta = z step d,
    one row shaped like z per pair (step, d = sqrt(det C))."""
    zw = steps[:, None] * z
    theta = zw * d[:, None]
    np.cos(theta, out=c)
    np.multiply(zw, sinch(theta), out=s)


def _fill(P, g):
    """Turn P[0, 0] = c, P[0, 1] = s into the propagators c I + s g in place.

    P : (2, 2, B, nz) with the trig of B cells in its first row;
    g = -J C per cell, shape (2, 2, B, 1).
    """
    np.multiply(P[0, 1], g[1, 1], out=P[1, 1])
    P[1, 1] += P[0, 0]
    np.multiply(P[0, 1], g[0, 0], out=P[1, 0])
    P[0, 0] += P[1, 0]
    np.multiply(P[0, 1], g[1, 0], out=P[1, 0])
    P[0, 1] *= g[0, 1]
    return P


def _generators(cells):
    """-J C per cell, shaped (2, 2, B, 1) for ``_fill``."""
    return -np.moveaxis(J @ cells, 0, -1)[..., None]


def _sweep(ham, z, m, t=None):
    """March the first m columns of M(., z) across the grid.

    z is a finite 1-D real or complex array.  Yields (k, state, scale) at
    t_0 = 0 and after each cell k = 1, 2, ...: M(t_k, z)[:, :m] equals
    state * 2**scale, with state of shape (2, m, nz) and the integer
    exponents scale of shape (nz,).  The state is float64 for real z
    and complex128 for complex z.  With t the grid is cut at t, so the
    last node yielded is t itself.  Yielded arrays are never modified.
    """
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    nodes = ham.grid.nodes
    if t is None:
        t = nodes[-1]
    n = min(int(np.searchsorted(nodes, t, side="left")), ham.grid.n_cells)
    widths = np.minimum(nodes[1:n + 1], t) - nodes[:n]
    d = np.sqrt(np.maximum(ham.dets[:n], 0.0))
    im_max = np.max(np.abs(z.imag), initial=0.0)
    nsub = np.maximum(1, np.ceil(im_max * widths * d / _MAX_GROWTH)).astype(int)
    steps = widths / nsub
    g = _generators(ham.cells[:n])

    state = np.eye(2, m, dtype=np.result_type(z, np.float64))[..., None]
    state = state.repeat(z.size, axis=-1)
    scale = np.zeros(z.size, dtype=np.int64)
    yield 0, state, scale
    per_block = max(1, _BLOCK // max(z.size, 1))
    # the trig depends on a cell only through (step, d); when the distinct
    # pairs fit in a block, each is evaluated once and gathered per block
    _, first, pair = np.unique(steps + 1j * d, return_index=True,
                               return_inverse=True)
    shared = first.size <= per_block
    if shared:
        c, s = (np.empty((first.size, z.size), dtype=state.dtype)
                for _ in range(2))
        _trig(steps[first], d[first], z, c, s)
    P = np.empty((2, 2, min(per_block, n), z.size), dtype=state.dtype)
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        Pb = P[:, :, :hi - lo]
        if shared:     # "clip": the rows are valid, and "raise" buffers
            np.take(c, pair[lo:hi], axis=0, out=Pb[0, 0], mode="clip")
            np.take(s, pair[lo:hi], axis=0, out=Pb[0, 1], mode="clip")
        else:
            _trig(steps[lo:hi], d[lo:hi], z, Pb[0, 0], Pb[0, 1])
        _fill(Pb, g[:, :, lo:hi])
        for k in range(lo, hi):
            Pk = Pb[:, :, k - lo, None, :]                # (2, 2, 1, nz)
            for _ in range(nsub[k]):
                state = Pk[:, 0] * state[0] + Pk[:, 1] * state[1]
                e = np.frexp(np.abs(state).max(axis=(0, 1)))[1]
                state *= np.ldexp(1.0, -e)
                scale = scale + e
            yield k + 1, state, scale


def _restore(state, scale, t, z):
    """state * 2**scale along the last axis; DomainError on overflow."""
    with np.errstate(over="ignore"):
        out = np.ldexp(state.view(float), np.repeat(scale, 2)).view(complex)
    if not np.all(np.isfinite(out)):
        growth = np.max(np.abs(np.imag(z)), initial=0.0) * t
        raise DomainError(
            f"M(t, z) overflows double precision at |Im z| * t = "
            f"{growth:.4g}; reduce Im z or t")
    return out


class TransferMatrix:
    """Value M(t, z) of the fundamental solution.

    ``theta`` is the first column (the solution with value (1, 0) at t = 0),
    ``phi`` the second.  For an array of z the matrix has shape (nz, 2, 2).
    """

    def __init__(self, t, z, matrix):
        self.t = t
        self.z = z
        self.m = matrix

    @property
    def theta(self):
        return self.m[..., :, 0]

    @property
    def phi(self):
        return self.m[..., :, 1]

    @property
    def det(self):
        m = self.m
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def transfer_matrix(ham, t, z):
    """M(t, z): the sweep cut at t, with its scale put back.

    t is one time inside the grid.  z may be a scalar or an array.  Raises
    DomainError where an entry of M(t, z) is beyond double range.
    """
    t = ham.grid.time(t)
    z = np.asarray(z, dtype=complex)
    for _, state, scale in _sweep(ham, z.reshape(-1), 2, t):
        pass
    M = np.moveaxis(_restore(state, scale, t, z), -1, 0)
    return TransferMatrix(t, z, M.reshape(z.shape + (2, 2)))


def j_energy_residual(ham, r, z):
    """Defect of the energy identity at time r:

        <J Theta(r), Theta(r)> = 2i Im(z) * int_0^r <H Theta, Theta> dt.

    The right side is integrated by ``gauss_kronrod`` to 1e-10 relative,
    one segment per cell; Theta at the quadrature nodes is one in-cell
    propagator applied to Theta at the cell start.  r takes the same
    rounding slack as ``transfer_matrix``.  Returns |LHS - RHS|.
    """
    r = ham.grid.time(r, "r")
    z = np.array([complex(z)])
    _, states, scales = zip(*_sweep(ham, z, 1, r))
    theta = _restore(np.concatenate(states, axis=-1)[:, 0],   # (2, n + 1)
                     np.concatenate(scales), r, z)
    th = theta[:, -1]
    lhs = np.vdot(th, J @ th)   # sum (J th)_j conj(th_j)
    if r == 0.0:
        return abs(lhs)
    n = theta.shape[1] - 1                  # cells starting before r
    nodes = ham.grid.nodes
    d = np.sqrt(np.maximum(ham.dets, 0.0))
    g = _generators(ham.cells)

    def h_energy(x):
        k = ham.grid.cell_index(x)
        P = np.empty((2, 2, x.size, 1), dtype=complex)
        _trig(x - nodes[k], d[k], z, P[0, 0], P[0, 1])
        P = _fill(P, g[:, :, k])[..., 0]
        th_x = P[:, 0] * theta[0, k] + P[:, 1] * theta[1, k]
        return np.einsum("ik,kij,jk->k", th_x.conj(), ham.cells[k],
                         th_x).real[None]

    rhs = 2j * z[0].imag * gauss_kronrod(
        h_energy, np.append(nodes[:n], r), 0.0, 1e-10)[0]
    return abs(lhs - rhs)
