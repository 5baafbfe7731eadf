"""Inverse spectral problem: from a bounded weight w to a unimodular
Hamiltonian on [0, R] whose boundary density reproduces w.

Route: the Toeplitz matrix W = I + eta*k((j-l)eta) is exactly the Gram
matrix of the sampled exponentials sqrt(eta/2pi) e^{i x t_j} in
L2(w dx) (Poisson summation over the Nyquist window), so its triangular
factor W = L L^T performs the causal orthonormalization that defines the
wave family.  Row j of L^{-1} is the j-th backward predictor of the
Levinson-Durbin recursion scaled by 1/sqrt(P_j), P_j its prediction
error, so the recursion evaluates the orthonormalized waves at x = 0,
y = L^{-1} 1, from the first column of W alone: O(M^2) time and O(M)
memory for M wave samples, and no matrix is ever formed.  The wave value
at time 2t determines the first column of sqrt(H) at time t; the second
column follows from symmetry and det = 1.

The wave grid oversamples the Hamiltonian grid twice (wave times live on
[0, 2R]), so each H cell owns two wave samples.

The report's eigenvalue bounds are certified: Lanczos on an FFT matvec
brackets the extremes of W, and a Levinson positive-definiteness pass on
W - sigma I (the inertia test of Cybenko & Van Loan) certifies each
shift sigma.  Each certified pass also leaves the predictor that makes
(W - sigma I)^{-1} a Gohberg-Semencul FFT matvec, and shift-and-invert
Lanczos on it picks the next shift, so ~2-4 passes per end give
min_eig <= lambda_min(W), max_eig >= lambda_max(W), each within
_EIG_RTOL relative, and cond is an upper bound.
"""

from dataclasses import dataclass, field

import numpy as np

from .accelerant import _toeplitz_column
from .errors import SpectralPositivityError, ValidationError
from .hamiltonian import Grid, Hamiltonian

_EIG_RTOL = 1e-10       # relative width of the certified eigenvalue brackets
_LANCZOS_STEPS = 60


@dataclass
class InversionReport:
    """Diagnostics attached to an inverse_spectral run.

    min_eig/max_eig are certified bounds on the extreme eigenvalues of
    the Toeplitz section; pe_floor = min_j P_j / P_0 and max_reflection
    = max_j |k_j| are the Levinson recursion's health figures (positivity
    is lost as pe_floor -> 0, equivalently max_reflection -> 1).
    """

    n_cells: int
    eta: float
    min_eig: float
    max_eig: float
    max_det_dev: float
    pe_floor: float
    max_reflection: float
    cond: float = field(init=False)
    ill_conditioned: bool = field(init=False)

    def __post_init__(self):
        self.cond = self.max_eig / self.min_eig if self.min_eig > 0 else np.inf
        self.ill_conditioned = self.cond > 1e12


def _levinson(col, y=None, a=None):
    """Levinson-Durbin recursion on the symmetric Toeplitz column col.

    Returns (positive, pe_floor, max_reflection) with pe_floor =
    min_j P_j / P_0 and max_reflection = max_j |k_j|.  The recursion stops
    at the first prediction error P_j <= 0 or reflection coefficient
    |k_j| >= 1, where positive is False: the matrix is positive definite
    iff it runs to the end.  Given y, it fills y[j] = (sum of the j-th
    backward predictor) / sqrt(P_j), i.e. y = L^{-1} 1 for the Cholesky
    factor L.  Given a (length M), the recursion runs in it, and a
    positive pass leaves there the forward predictor: toeplitz(col) a =
    P e_0 with a[0] = 1 and P = a @ col.
    """
    M = len(col)
    p0 = float(col[0])
    if not p0 > 0.0:
        return False, 0.0, 1.0
    # the backward predictor of a symmetric Toeplitz matrix is the forward
    # predictor a reversed, and the dot against col[j:0:-1] is the dot of
    # a[:j] against a forward slice of the reversed column
    rcol = col[::-1].copy()
    a = np.empty(M) if a is None else a
    a[:] = 0.0
    a[0] = 1.0
    p = pmin = p0
    kmax = 0.0
    if y is not None:
        y[0] = 1.0 / np.sqrt(p)
    for j in range(1, M):
        k = -float(a[:j] @ rcol[M - 1 - j:M - 1]) / p
        a[1:j + 1] += k * a[j - 1::-1]
        if y is None:
            p *= (1.0 - k) * (1.0 + k)
        else:
            # P_j from its definition (W_j a_j = P_j e_0): the product
            # P_{j-1} (1 - k_j^2) drifts to ~3e-14 relative in y at 4096
            # steps, the dot stays at ~1e-15
            p = float(a[:j + 1] @ col[:j + 1])
        if not (abs(k) < 1.0 and p > 0.0):
            return False, 0.0, 1.0
        pmin = min(pmin, p)
        kmax = max(kmax, abs(k))
        if y is not None:
            y[j] = a[:j + 1].sum() / np.sqrt(p)
    return True, pmin / p0, kmax


def _fft_len(M):
    """Power-of-two FFT length >= 2M - 1 (2M - 1 can be prime, ~20x
    slower), enough for a linear Toeplitz product of order M."""
    return 1 << (2 * M - 2).bit_length()


def _toeplitz_matvec(col):
    """v -> toeplitz(col) v through the circulant (col, 0, ..., col[:0:-1])."""
    M, L = len(col), _fft_len(len(col))
    circ = np.fft.rfft(np.concatenate([col, np.zeros(L - 2 * M + 1),
                                       col[:0:-1]]))
    return lambda v: np.fft.irfft(circ * np.fft.rfft(v, L), L)[:M]


def _inverse_matvec(a, p):
    """v -> toeplitz(col)^{-1} v from the forward predictor a and its
    error P (toeplitz(col) a = P e_0) by the Gohberg-Semencul formula
    (L(a) L(a)^T - L(b) L(b)^T) / P, b = Z J a, in O(M log M); L(v) is
    lower-triangular Toeplitz with first column v, J the reversal and Z
    the down-shift."""
    M, L = len(a), _fft_len(len(a))
    fa = np.fft.rfft(a, L)
    fb = np.fft.rfft(np.concatenate([[0.0], a[:0:-1]]), L)

    def apply(v):
        fv = np.fft.rfft(v, L)
        # L(x)^T v is the correlation of x with v: conj in frequency
        ua = np.fft.irfft(fa.conj() * fv, L)[:M]
        ub = np.fft.irfft(fb.conj() * fv, L)[:M]
        return np.fft.irfft(fa * np.fft.rfft(ua, L) - fb * np.fft.rfft(ub, L),
                            L)[:M] / p
    return apply


def _lanczos_extremes(matvec, M):
    """Extreme Ritz pairs of the symmetric operator matvec on R^M.

    Fully reorthogonalized Lanczos from a fixed pseudo-random start.
    Returns ((theta_min, res_min, x_min), (theta_max, res_max, x_max)):
    Ritz values in [lambda_min, lambda_max], their residual norms and
    unit Ritz vectors.
    """
    m = min(_LANCZOS_STEPS, M)
    Q = np.empty((m, M))
    alpha = np.empty(m)
    beta = np.empty(m)
    q = np.random.default_rng(0).standard_normal(M)
    q /= np.linalg.norm(q)
    for i in range(m):
        Q[i] = q
        v = matvec(q)
        alpha[i] = q @ v
        for _ in range(2):          # twice is enough (Kahan-Parlett)
            v -= Q[:i + 1].T @ (Q[:i + 1] @ v)
        beta[i] = np.linalg.norm(v)
        if beta[i] <= 1e-14 * abs(alpha[i]):
            m = i + 1               # invariant subspace: Ritz values exact
            break
        q = v / beta[i]
    # eigh reads the lower triangle of the tridiagonal
    theta, S = np.linalg.eigh(np.diag(alpha[:m]) + np.diag(beta[:m - 1], -1))
    res = beta[m - 1] * np.abs(S[-1])
    x = S[:, [0, -1]].T @ Q[:m]
    return (theta[0], res[0], x[0]), (theta[-1], res[-1], x[1])


def _certified_min(col, theta, res):
    """Certified lower bound on lambda_min(toeplitz(col)).

    theta >= lambda_min is a Ritz value and res its residual norm.  A
    shift sigma is certified when the Levinson pass on col - sigma e_0
    runs through (W - sigma I positive definite, so lambda_min > sigma).
    Shift-and-invert shrinks the bracket (lo certified, hi): Lanczos on
    the inverse of W - lo I, from the predictor of the pass at lo, finds
    its top Ritz pair (theta', r'); the Rayleigh quotient of the Ritz
    vector lowers hi, and the next shift lo + 1/(theta' + 2 r') lies
    just below lambda_min once theta' has converged (one that fails
    lowers hi; a non-finite or out-of-bracket one bisects).  Stops at
    _EIG_RTOL relative width, or, once lo <= 0, at M eps |col[0]| width
    or at hi <= 0 <= col[0], and returns the certified end.
    """
    M = len(col)
    W = _toeplitz_matvec(col)

    def inverse_at(sigma):
        """The inverse matvec of W - sigma I, None if not definite."""
        shifted = col.copy()
        shifted[0] -= sigma
        a = np.empty(M)
        if not _levinson(shifted, a=a)[0]:
            return None
        return _inverse_matvec(a, a @ shifted)

    hi = theta
    # the floor keeps the downward search moving from theta = res = 0
    step = max(res, 0.5 * _EIG_RTOL * abs(theta), np.finfo(float).tiny)
    lo = hi - step
    while (inv := inverse_at(lo)) is None:
        hi, step = lo, 4.0 * step
        lo = hi - step
    floor = M * np.finfo(float).eps * abs(col[0])
    for _ in range(64):     # bisection alone reaches float resolution
        if hi - lo <= _EIG_RTOL * max(abs(lo), abs(hi)):
            break
        # no relative width is met about lambda_min = 0; hi <= 0 settles
        # positive definiteness, the question a nonnegative diagonal
        # leaves open (-W at the max end has a negative one)
        if lo <= 0.0 and (hi - lo <= floor or hi <= 0.0 <= col[0]):
            break
        # a singular section overflows the inverse; its nan shift bisects
        with np.errstate(all="ignore"):
            _, (t, r, x) = _lanczos_extremes(inv, M)
            hi = min(hi, x @ W(x) / (x @ x))   # a nan quotient keeps hi
            s = min(lo + 1.0 / (t + 2.0 * r),
                    hi - 0.5 * _EIG_RTOL * abs(hi))
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        nxt = inverse_at(s)
        if nxt is None:
            hi = s
        else:
            lo, inv = s, nxt
    return lo


def _certified_extremes(col):
    """(min_eig, max_eig) bracketing the spectrum of toeplitz(col).

    min_eig <= lambda_min and max_eig >= lambda_max, each within
    _EIG_RTOL relative; O(M^2) time per Levinson pass, a few passes per
    end, O(M) memory.
    """
    (t_lo, r_lo, _), (t_hi, r_hi, _) = _lanczos_extremes(
        _toeplitz_matvec(col), len(col))
    # lambda_max(W) = -lambda_min(-W)
    return _certified_min(col, t_lo, r_lo), -_certified_min(-col, -t_hi, r_hi)


def _check_span(length, n, name):
    """The size n as an int; ValidationError naming the bad argument
    unless 0 < length < inf and n is a whole number >= 1 (NaN fails
    every comparison, so the check fails closed)."""
    if not (0 < length < np.inf):
        raise ValidationError(f"{name} must be positive and finite, "
                              f"got {length}")
    if not (1 <= n < np.inf and n == int(n)):
        raise ValidationError(f"the size must be a whole number >= 1, "
                              f"got {n}")
    return int(n)


def _positivity_lost(mu, found):
    """The SpectralPositivityError for a section of mu that failed its
    positivity test: c1 = 0, or rounding at contrast c2/c1, or aliasing."""
    if mu.c1 <= 0:
        return SpectralPositivityError(
            f"{found}; the symbol must be bounded away from zero")
    return SpectralPositivityError(
        f"{found} in double precision, although c1 = {mu.c1:.3g} > 0: "
        f"rounding at contrast c2/c1 = {mu.c2 / mu.c1:.3g} (from ~1/eps = "
        "4.5e15 on) or a step that aliases the weight")


def _cell_waves(mu, R, N):
    """Wave values p at x = 0 on the N cells of [0, R], with the Toeplitz
    column of their Levinson pass and its health figures (pe_floor,
    max_reflection).

    The wave grid t_j = j eta, eta = R/N, holds 2N samples y = L^{-1} 1.
    H cell i covers [i, i+1] R/N, i.e. wave times [2i, 2i+2] eta.  The
    discrete orthogonal system lags the continuous wave by half a step
    (y_j sits at t_j + eta/2), so the mean of the two samples inside a
    cell is the unbiased midpoint value; it restores second-order
    round-trip accuracy where either sample alone is first-order.  p is
    the (1, 1) entry of the diagonal sqrt(H) on each cell, and 1/p its
    (2, 2) entry: det H = 1 is the normalization gauge.
    """
    col = _toeplitz_column(mu, float(R) / N, 2 * N)
    y = np.empty(2 * N)
    positive, pe_floor, kmax = _levinson(col, y)
    if not positive:
        raise _positivity_lost(
            mu, "discretized Wiener-Hopf matrix is not positive definite")
    p = 0.5 * (y[0::2] + y[1::2])
    if np.any(p <= 0):
        raise SpectralPositivityError(
            "recovered wave has a nonpositive diagonal entry; the weight "
            "data is inconsistent with a positive definite kernel")
    return p, col, pe_floor, kmax


def inverse_spectral(mu, R, N, report=False):
    """Unimodular Hamiltonian on [0, R] with boundary density ~ w.

    Constant weights are handled in closed form (no kernel: w = c gives
    H = diag(1/c, c)); everything else goes through the sampled
    accelerant, which requires w = 1 outside a finite window (use
    truncate_weight first when it is not).
    """
    mu.require_positive()
    N = _check_span(R, N, "R")
    eta = float(R) / N
    if mu.is_constant:
        c = mu.c1
        ham = Hamiltonian.constant([[1.0 / c, 0.0], [0.0, c]],
                                   span=float(R), n_cells=N)
        if report:
            # the operator is c times the identity; its spectrum is {c}
            return ham, InversionReport(N, eta, c, c, 0.0,
                                        pe_floor=1.0, max_reflection=0.0)
        return ham

    p, col, pe_floor, kmax = _cell_waves(mu, R, N)
    q = 1.0 / p
    cells = np.zeros((N, 2, 2))
    cells[:, 0, 0] = p * p
    cells[:, 1, 1] = q * q
    ham = Hamiltonian(Grid(np.linspace(0.0, float(R), N + 1)), cells)
    if report:
        lo, hi = _certified_extremes(col)
        rep = InversionReport(N, eta, float(lo), float(hi),
                              float(np.max(np.abs(ham.dets - 1.0))),
                              pe_floor, kmax)
        return ham, rep
    return ham
