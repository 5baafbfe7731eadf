"""Triangular factorization of truncated Wiener-Hopf matrices.

The discrete model of the operator with symbol w on a window of length
R is the N x N Toeplitz matrix

    W[j, l] = delta_{jl} + h k((j - l) h),    h = R / N,

with k the kernel of w (Fourier transform of w - 1).  W is the Gram
matrix of the sampled exponentials e_j = sqrt(h/2pi) e^{i x t_j},
t_j = j h, in L2(w dx) over the Nyquist window |x| <= pi/h, up to
aliasing.  The upper factor is assembled by pairing the exponentials
against sampled waves of the Hamiltonian recovered from w, and is
compared against a direct Cholesky oracle.  The factor forms the dense
W from the Toeplitz column of ``accelerant`` for the oracle and the
residual alone, and reads every 2-norm of its report off a symmetric
eigensolve of a matrix it already holds.  ``build_toeplitz`` adds the
certified extremes of W, from the O(n^2) brackets of the inverse layer.

The pairing depends on i and j only through the lag j - i + i // 2 once
the unphased wave amplitude of row i is known (the cells of the
recovered Hamiltonian start at i h/2, so the wave's phase is a lag
shift), and its quadrature nodes sit on uniform panels of the Nyquist
window, so each row is a handful of FFTs over the panels: A takes
O(n^2 log n) time.  The amplitudes come off one real-axis sweep in
real arithmetic, and each row is paired as it arrives, so memory is
O(n^2), the size of A itself.  Panels that a breakpoint of w cuts are split there
and summed directly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .accelerant import _toeplitz_column
from .errors import DomainError, SpectralPositivityError, ValidationError
from .inverse import _certified_extremes, inverse_spectral
from .quadrature import gauss_legendre
from .tables import read_table, write_table
from .transform import _amplitude_rows

_ORDER = 16             # Gauss-Legendre nodes per panel of the pairing


@dataclass
class DiscreteWienerHopf:
    """Truncated discrete Wiener-Hopf matrix with its spectral frame.

    min_eig <= lambda_min(W) and max_eig >= lambda_max(W) are certified
    bounds, each within 1e-10 relative, as in ``InversionReport``; so
    ``cond`` is an upper bound.
    """

    n: int
    h: float
    matrix: np.ndarray
    symbol_bounds: tuple
    min_eig: float
    max_eig: float

    @property
    def cond(self):
        return self.max_eig / self.min_eig


def _check_size(n, length, name):
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if not (0 < length < np.inf):
        raise ValidationError(f"{name} must be positive and finite, "
                              f"got {length}")


def build_toeplitz(mu, n, h):
    """Discrete Wiener-Hopf matrix of the weight mu at step h, size n."""
    mu.require_numeric()
    _check_size(n, h, "h")
    if mu.is_constant:
        c = mu.c1
        W = c * np.eye(n)
        lo = hi = c
    else:
        col = _toeplitz_column(mu, h, n)
        lo, hi = map(float, _certified_extremes(col))
        W = toeplitz(col)
    if lo <= 0.0:
        raise SpectralPositivityError(
            f"matrix not positive definite (min eigenvalue {lo:.3e}); "
            "the symbol must be bounded away from zero")
    return DiscreteWienerHopf(n, float(h), W, (mu.c1, mu.c2), lo, hi)


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
    sq = A * A
    colsum_below = np.cumsum(sq[::-1], axis=0)[::-1]   # sum over i >= k
    blocks = np.cumsum(colsum_below, axis=1)            # then over j < k
    leaks = blocks[np.arange(1, n), np.arange(n - 1)]
    return float(np.sqrt(max(leaks.max(), 0.0)))


@dataclass
class FactorReport:
    """Key-value summary of a factorization run."""

    n: int
    h: float
    residual: float
    cond: float
    leakage: float
    vs_cholesky: float
    min_abs_diag: float
    symbol_bounds: tuple

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
        ]
        return "\n".join(lines)


def _lag_assembly(ham, mu, h, n):
    """A[i, j] = Re T_i(j - i + i // 2), T_i(m) = sum_x g_i(x) e^{ixhm}.

    Row i pairs the wave alpha_i = e^{-ix a_i} beta_i against the
    exponentials: conj(alpha_i) e^{ixh(j - i)} = conj(beta_i) e^{ixh(j - i
    + i/2)}, since a_i = i h/2 on the uniform half-step grid of
    ``inverse_spectral`` (any other grid raises DomainError).  So the
    phase is a lag shift of i // 2, with g_i = conj(beta_i) c for even i
    and conj(beta_i) c e^{ixh/2} for odd i, where beta_i comes off the
    real sweep state in real arithmetic.

    The nodes x are order-16 Gauss-Legendre on P = max(n, 4) uniform
    panels of [0, pi/h], with c = w * weight * h/pi.  On an uncut panel p
    the nodes are x = (p + u_k) pi/(P h), so the sum over those panels is
    one length-2P FFT over p per offset u_k, then a 16-term sum against
    the twiddles e^{i pi m u_k / P}.  A panel that a breakpoint of w
    cuts is split there, and its nodes are summed directly against the
    phases e^{i x h m}.  The lags m run over [-(n // 2), n - 1].  Each
    amplitude row is paired as it comes off the real-axis sweep, so
    memory is A plus O(n * cut nodes).
    """
    a = ham.grid.nodes[:n]
    if not np.allclose(a, 0.5 * h * np.arange(n), rtol=1e-13, atol=1e-13 * h):
        raise DomainError("the lag assembly needs the cell nodes i h/2")
    X = np.pi / h
    P = max(n, 4)
    edges = np.linspace(0.0, X, P + 1)
    fine = np.unique(np.concatenate([
        edges, [b for b in mu.breakpoints if 0.0 < b < X]]))
    panel = np.searchsorted(edges, fine[:-1], side="right") - 1
    cut = np.bincount(panel, minlength=P) > 1
    x_u, wq_u = gauss_legendre(_ORDER, edges[:-1], edges[1:])   # (P, 16)
    x_c, wq_c = gauss_legendre(_ORDER, fine[:-1][cut[panel]],
                               fine[1:][cut[panel]])
    x = np.concatenate([x_u.ravel(), x_c.ravel()])
    wq = np.concatenate([np.where(cut[:, None], 0.0, wq_u).ravel(),
                         wq_c.ravel()])
    c = np.asarray(mu(x), dtype=float) * wq * (h / np.pi)
    half_shift = np.exp(0.5j * h * x)

    m = np.arange(-(n // 2), n)                                 # the lags
    u, _ = gauss_legendre(_ORDER, 0.0, 1.0)
    twiddle = np.exp(1j * np.pi / P * u[:, None] * m)           # (16, L)
    phase = np.exp(1j * h * x_c.reshape(-1, 1) * m)             # (Qc, L)
    n_u = x_u.size

    A = np.empty((n, n))
    for i, g, _ in _amplitude_rows(ham, x, n):          # real x: scale 0
        g.real *= c
        g.imag *= -c                                    # g = conj(beta) c
        if i % 2:
            g *= half_shift
        # unscaled inverse FFT: G[m, k] = sum_p g[p, k] e^{i pi p m/P}
        G = np.fft.ifft(g[:n_u].reshape(P, _ORDER), 2 * P, axis=0,
                        norm="forward")
        T = np.einsum("mk,km->m", G[m % (2 * P)], twiddle)
        T += g[n_u:] @ phase
        # lag j - i + i // 2 sits at index j + n // 2 - (i - i // 2)
        lo = n // 2 - (i - i // 2)
        A[i] = T.real[lo:lo + n]
    if not np.all(np.isfinite(A)):
        raise DomainError("wave amplitudes overflow on the Nyquist window")
    return A


def _sym_norm2(S):
    """2-norm of the symmetric matrix S, max |eigenvalue|.

    numpy's LAPACK, not scipy's: the scipy wheel bundles its own
    OpenBLAS, whose eigensolve measured ~3x slower than numpy's when it
    ran between numpy BLAS calls (2 cores, 512 x 512)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(S))))


def factor_via_transform(mu, R, n):
    """Upper triangular factor A with A^T A ~= the discrete matrix.

    Recovers the Hamiltonian of mu on [0, R/2] (n cells, so wave cells
    line up with the discrete times t_j = j R/n), samples the waves
    phi_j = sqrt(h/2pi) P_{t_j} on the Nyquist window, and fills
    A[i, j] = <e_j, phi_i>_{L2(w dx)}.  Rows with negative diagonal are
    sign-flipped (A^T A is unchanged); entries below the diagonal are
    zeroed and their pre-zero mass reported as leakage.

    The pairing is the lag-FFT assembly ``_lag_assembly``, one amplitude
    row at a time: O(n^2 log n) time and O(n^2) memory.
    """
    mu.require_positive()
    _check_size(n, R, "R")
    h = float(R) / n
    if mu.is_constant:
        c = mu.c1
        A = np.sqrt(c) * np.eye(n)
        report = FactorReport(n, h, 0.0, 1.0, 0.0, 0.0, float(np.sqrt(c)),
                              (c, c))
        return A, report

    W = toeplitz(_toeplitz_column(mu, h, n))
    # A = 2 Re int_0^X conj(alpha_i e^{ix t_i}) e^{ix t_j} w(x) dx h/2pi;
    # the integrand is conjugate-even in x, so the half-window suffices.
    A = _lag_assembly(inverse_spectral(mu, R / 2.0, n), mu, h, n)

    diag = np.diag(A).copy()
    signs = np.where(diag < 0.0, -1.0, 1.0)
    A *= signs[:, None]
    leakage = chain_preservation_check(A)
    A = np.triu(A)

    # every 2-norm from a symmetric matrix already at hand: ||W||, and
    # ||L|| = sqrt(||W||) since W = L L^T; cond(A)^2 = cond(A^T A);
    # ||A - L^T||^2 = ||D^T D|| for D = A - L^T.  W - G and D overwrite
    # G, which keeps one n x n array fewer alive at the peak.
    G = A.T @ A
    lam = np.linalg.eigvalsh(G)
    cond = np.sqrt(lam[-1] / lam[0]) if lam[0] > 0.0 else np.inf
    scale = _sym_norm2(W)
    residual = _sym_norm2(np.subtract(W, G, out=G)) / scale
    D = np.subtract(A, cholesky_oracle(W).T, out=G)
    vs_chol = np.sqrt(_sym_norm2(D.T @ D) / scale)
    report = FactorReport(
        n, h, float(residual), float(cond),
        float(leakage / max(np.linalg.norm(A), 1e-300)),
        float(vs_chol), float(np.abs(np.diag(A)).min()),
        (mu.c1, mu.c2))
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
