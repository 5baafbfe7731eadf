"""Triangular factorization of truncated Wiener-Hopf matrices.

The discrete model of the operator with symbol w on a window of length
R is the N x N Toeplitz matrix, h = R / N,

    W[j, l] = (h/2pi) int_{-pi/h}^{pi/h} w(x) e^{ix(j - l)h} dx,

the Gram matrix of the sampled exponentials e_j = sqrt(h/2pi) e^{i x t_j},
t_j = j h, in L2(w dx) over the Nyquist window |x| <= pi/h (the column
of ``accelerant``).  The upper factor is assembled by pairing the
exponentials against the waves of the Hamiltonian recovered from w, read
straight off the wave values of the inverse map's Levinson pass, and is
compared against a direct Cholesky oracle.  The pairing and W read the
same windowed moments of w; the factor forms the dense W for the oracle
and the residual alone.  Its report makes one eigensolve, of A^T A for
the exact cond(A); the residual and the distance to the oracle are
certified upper bounds on their 2-norms from O(n^2) 1- and inf-norms.
``build_toeplitz`` adds the certified extremes of W, from the O(n^2)
brackets of the inverse layer.

The pairing needs no sweep.  Row i pairs conj(alpha_i) = conj(q_i
Theta(a_i, x)) e^{ix a_i}, a_i = i h/2, against e^{ixhj} on quadrature
nodes x with weights c(x) (w included), so A[i, j] = Re conj(q_i) .
U_i(2j - i) for the moments U_c(k) = sum_x c(x) Theta(a_c, x)
e^{ixhk/2}.  A recovered cell has width h/2 and det 1, so its
propagator cos(xh/2) I - sin(xh/2) J C_c shifts k by one, and

    U_0(k) = (mu(k), 0),    mu(k) = sum_x c(x) e^{ixhk/2},
    U_{c+1}(k) = (U_c(k+1) + U_c(k-1))/2 - J C_c (U_c(k+1) - U_c(k-1))/(2i).

The moments of w (``accelerant._moments``) are one FFT over the
quadrature panels, and each cell is two 2x2 products on O(n) lags: A
takes O(n^2) time and memory.
"""

from dataclasses import dataclass

import numpy as np

from .accelerant import _moments, _toeplitz_column
from .errors import DomainError, SpectralPositivityError, ValidationError
from .inverse import _cell_waves, _certified_section, _check_span
from .tables import read_table, write_table


def _dense_toeplitz(col):
    """The symmetric Toeplitz matrix with first column col."""
    i = np.arange(len(col))
    return col[np.abs(i[:, None] - i)]


@dataclass
class DiscreteWienerHopf:
    """Truncated discrete Wiener-Hopf matrix with its spectral frame.

    min_eig <= lambda_min(W) and max_eig >= lambda_max(W) are certified
    bounds, each within 1e-10 relative, as in ``InversionReport``; so
    ``cond`` is an upper bound.
    """

    matrix: np.ndarray
    min_eig: float
    max_eig: float

    @property
    def cond(self):
        return self.max_eig / self.min_eig


def build_toeplitz(mu, n, h):
    """Discrete Wiener-Hopf matrix of the weight mu at step h, size n."""
    n = _check_span(h, n, "h")
    if mu.is_constant:
        c = mu.c1
        W = c * np.eye(n)
        lo = hi = c
    else:
        col = _toeplitz_column(mu, h, n)
        lo, hi = _certified_section(mu, col)
        W = _dense_toeplitz(col)
    return DiscreteWienerHopf(W, lo, hi)


def cholesky_oracle(W):
    """Lower Cholesky factor of the discrete matrix, W = L L^T."""
    try:
        return np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        raise SpectralPositivityError(
            "Cholesky failed: matrix is not positive definite")


def chain_preservation_check(A):
    """max over k of ||(I - P_k) A P_k||_F, P_k = first-k projection.

    Zero iff A maps each leading coordinate block into itself, i.e. is
    upper triangular as stored (time-increasing coordinate order).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n < 2:
        return 0.0
    # entry (i, j), i > j, is in the block of k = j + 1..i: it enters
    # with column j and leaves with row i
    sq = np.tril(A, -1)
    sq *= sq
    leaks = np.cumsum(sq.sum(axis=0) - sq.sum(axis=1))[:-1]
    return float(np.sqrt(max(leaks.max(), 0.0)))


@dataclass
class FactorReport:
    """Key-value summary of a factorization run.

    ``cond`` is cond(A), from the eigenvalues of A^T A (``inf`` if A^T A
    is singular).  ``residual`` >= ||W - A^T A||_2 / ||W||_2 and
    ``vs_cholesky`` >= ||A - L^T||_2 / ||L||_2, L the Cholesky factor of
    W, are certified upper bounds: ||S||_2 <= ||S||_1 for the symmetric
    S = W - A^T A, ||D||_2 <= sqrt(||D||_1 ||D||_inf) for D = A - L^T,
    and ||W||_2 = ||L||_2^2 >= lambda_max(A^T A) - ||S||_1 (Weyl).  They
    read 1.07-1.11x the exact 2-norms on the sinc bump and 1.39-1.92x on
    the step weight at n = 96 to 2048, ratios that do not grow with n.
    Both are ``inf`` when that lower bound on ||W||_2 is not positive, a
    factor too far from W to certify anything.  ``leakage`` is the
    below-diagonal mass of A before it was zeroed, relative to ||A||_F.
    ``pe_floor`` and ``max_reflection`` are the health figures of the wave
    pass the factor reads, prod (1 - k^2) and max |k| of its reflection
    coefficients k, as in ``InversionReport``.
    """

    n: int
    h: float
    residual: float
    cond: float
    leakage: float
    vs_cholesky: float
    min_abs_diag: float
    symbol_bounds: tuple
    pe_floor: float
    max_reflection: float

    def __str__(self):
        lines = [
            f"n={self.n}",
            f"h={self.h:.6g}",
            f"residual={self.residual:.6e}",
            f"cond={self.cond:.6e}",
            f"leakage={self.leakage:.6e}",
            f"vs_cholesky={self.vs_cholesky:.6e}",
            f"min_abs_diag={self.min_abs_diag:.6e}",
            f"symbol_bounds={self.symbol_bounds[0]:.6g},{self.symbol_bounds[1]:.6g}",
            f"pe_floor={self.pe_floor:.6e}",
            f"max_reflection={self.max_reflection:.6e}",
        ]
        return "\n".join(lines)


def _lag_assembly(p, mom, n):
    """A[i, j] = Re conj(q_i) . U_i(2j - i), q_i = (1, -i) sqrt(C_i), by
    the moment recursion of the module docstring written as U_{c+1}(k) =
    M_c U_c(k+1) + conj(M_c) U_c(k-1), M_c = (I + i J C_c)/2.  The cells
    are the det-1 C_c = diag(p_c^2, 1/p_c^2) of the wave values p at the
    nodes c h/2, so sqrt(C_c) = diag(p_c, 1/p_c).  mom holds the moments
    mu(k), k = 0..2n, of ``accelerant._moments``.  U_c is held for |k| <=
    2n - c, all the lags later rows read."""
    q = 1.0 / p
    # I + i J diag(a, b) = [[1, -i b], [i a, 1]]
    M = np.full((n, 2, 2), 0.5 + 0j)
    M[:, 0, 1] = -0.5j * (q * q)
    M[:, 1, 0] = 0.5j * (p * p)
    U = np.zeros((2, 4 * n + 1), dtype=complex)
    U[0] = np.concatenate([mom[:0:-1].conj(), mom])   # mu(-k) = conj
    A = np.empty((n, n))
    for i in range(n):
        if i:
            U = M[i - 1] @ U[:, 2:] + M[i - 1].conj() @ U[:, :-2]
        # U[:, m] holds U_i(m - 2n + i): lag 2j - i sits at 2(n - i + j)
        Ui = U[:, 2 * (n - i):4 * n - 2 * i:2]
        A[i] = p[i] * Ui[0].real - q[i] * Ui[1].imag
    if not np.all(np.isfinite(A)):
        raise DomainError("wave amplitudes overflow on the Nyquist window")
    return A


def factor_via_transform(mu, R, n):
    """Upper triangular factor A with A^T A ~= the discrete matrix.

    Takes the wave values of the Hamiltonian of mu on [0, R/2] from the
    inverse map's wave pass (n cells, so wave cells line up with the
    discrete times t_j = j R/n), samples the waves
    phi_j = sqrt(h/2pi) P_{t_j} on the Nyquist window, and fills
    A[i, j] = <e_j, phi_i>_{L2(w dx)}.  Rows with negative diagonal are
    sign-flipped (A^T A is unchanged); entries below the diagonal are
    zeroed and their pre-zero mass reported as leakage.  A comes off the
    moment recursion ``_lag_assembly``: O(n^2) time and memory, no sweep.
    The report adds the oracle's Cholesky, one product A^T A and its
    eigensolve (``FactorReport`` has the bounds).
    """
    mu.require_positive()
    n = _check_span(R, n, "R")
    h = float(R) / n
    if mu.is_constant:
        c = mu.c1
        A = np.sqrt(c) * np.eye(n)
        report = FactorReport(n, h, 0.0, 1.0, 0.0, 0.0, float(np.sqrt(c)),
                              (c, c), pe_floor=1.0, max_reflection=0.0)
        return A, report

    # A = 2 Re int_0^X conj(alpha_i e^{ix t_i}) e^{ix t_j} w(x) dx h/2pi;
    # the integrand is conjugate-even in x, so the half-window suffices.
    # W is the Gram matrix of the same pairing: its column is the real
    # even lags of the moments.
    p, _, pe_floor, kmax = _cell_waves(mu, R / 2.0, n)
    mom = _moments(mu, h, n)
    W = _dense_toeplitz(mom[:2 * n:2].real)
    A = _lag_assembly(p, mom, n)

    diag = np.diag(A).copy()
    signs = np.where(diag < 0.0, -1.0, 1.0)
    A *= signs[:, None]
    leakage = chain_preservation_check(A)
    A = np.triu(A)

    # one eigensolve, for cond(A)^2 = cond(A^T A); the bounds of the
    # ``FactorReport`` docstring, with w_lo <= ||W||_2 by Weyl.  |W - G|
    # and |D| overwrite G.
    G = A.T @ A
    lam = np.linalg.eigvalsh(G)
    cond = np.sqrt(lam[-1] / lam[0]) if lam[0] > 0.0 else np.inf
    e1 = np.abs(np.subtract(W, G, out=G), out=G).sum(axis=0).max()
    w_lo = lam[-1] - e1
    D = np.abs(np.subtract(A, cholesky_oracle(W).T, out=G), out=G)
    with np.errstate(all="ignore"):
        residual = e1 / w_lo
        vs_chol = np.sqrt(D.sum(axis=0).max() * D.sum(axis=1).max() / w_lo)
    if not (w_lo > 0.0 and np.isfinite(residual) and np.isfinite(vs_chol)):
        residual = vs_chol = np.inf        # no certified bound
    report = FactorReport(
        n, h, float(residual), float(cond),
        float(leakage / max(np.linalg.norm(A), 1e-300)),
        float(vs_chol), float(np.abs(np.diag(A)).min()),
        (mu.c1, mu.c2), pe_floor, kmax)
    return A, report


def write_matrix(A, path):
    """Write a dense matrix as `#matrix v1 <rows> <cols>` text, one row per
    line.  Non-finite entries raise ValidationError before the file is
    opened."""
    A = np.asarray(A, dtype=float)
    write_table(path, f"#matrix v1 {A.shape[0]} {A.shape[1]}", A)


def read_matrix(path):
    """Read a `#matrix v1` file back into an ndarray."""
    shape, A = read_table(path, "#matrix v1", 2, None)
    if A.shape != shape:
        raise ValidationError(f"{path}: shape mismatch with header")
    return A
