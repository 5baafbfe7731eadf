"""Waves P_t(z), the spectral transform, and the reproducing kernel.

Inside a cell where H is the constant matrix H_c, the row vector
q = (1, -i) sqrt(H_c) is a left eigenvector of J H_c with eigenvalue -i
(this is where det sqrt(H) = 1 enters), so the wave

    P_{2 tau}(z) = e^{i tau z} (Psi+ - i Psi-),   Psi = sqrt(H) Theta,

collapses to a single exponential in wave time t = 2 tau:

    P_t(z) = beta_c(z) e^{iz(t - a_c)},   beta_c(z) = q_c Theta(a_c, z),

with the unphased amplitude beta_c frozen at the cell's left node a_c.
``_amplitude_rows`` yields beta_c off one sweep, one row per cell: for
real z in real arithmetic, with the sweep's power-of-two scale put back
by ldexp and no complex exponential per row and node; for complex z as
a mantissa with that scale apart.  Both consumers take each row as it
comes, and the phase e^{-iz a_c}, and for complex z the scale, go into
an exponential that they compute anyway: ``wave_amplitudes`` returns
alpha_c = beta_c e^{-iz a_c}, so P_t = alpha_c e^{izt}, for
``krein_wave`` and the kernel checks, and ``f_mu_apply`` integrates
beta_c e^{iz(t - a_c)} over each segment in closed form: for real z it
carries the phase of a whole wave cell from the cell before, one
complex exponential per distinct cell width, while complex z keeps the
sweep's scale inside a direct exponential.  (The factor pushes
quadrature moments through the cells instead; see ``factorize``.)
P_t jumps at the wave nodes 2 a_c with sqrt(H); ``krein_wave`` is
right-continuous there.  ``reproducing_kernel`` is the closed form in
Theta itself, against which the amplitudes are checked.

``isometry_residual`` checks Plancherel, ||F f||_mu = ||f||, by
quadrature on the half axis x >= 0 alone.  With S = diag(1, -1), S J S
= -J and H real give the mirror identity F_H f(-x) = conj(F_{SHS} f(x))
for real x and real f, so the half x < 0 is a second transform on the
mirrored cells SHS (H with its off-diagonal entries negated), and no
second transform at all when H is diagonal on the support of f, as every
Hamiltonian ``inverse_spectral`` returns is.  ``f_mu_apply`` itself
takes arbitrary z and does not mirror.
"""

import math

import numpy as np

from .errors import DomainError
from .hamiltonian import Hamiltonian, J, sqrt_psd_cells
from .quadrature import gauss_legendre
from .solver import _sweep, sinch, transfer_matrix


def _amplitude_rows(ham, z, k_use):
    """Yield (c, beta, scale) for the cells c < k_use, left to right, with
    beta_c(z) = q_c Theta(a_c, z) = beta * 2**scale and no phase applied.

    z is a 1-D real or complex array, and beta a fresh complex array
    shaped like z that the consumer may overwrite.  For real z, Re beta
    and Im beta are two real combinations of the real sweep state, the
    power-of-two scale is put back by ldexp, and scale is 0 (|beta_c| =
    |alpha_c| there, so beta overflows only where the wave does).
    Complex z yields the sweep's integer exponents apart, for the
    consumer's exponential.
    """
    S = sqrt_psd_cells(ham.cells)
    # q_c = (1, -i) sqrt(H_c): row0 - i*row1
    real = not np.iscomplexobj(z)
    for c, theta, scale in _sweep(ham, z, 1, ham.grid.nodes[k_use - 1]):
        th0, th1 = theta[0, 0], theta[1, 0]
        if real:
            # numpy's ldexp is ~15x faster on int32 exponents than int64
            e = scale.astype(np.int32)
            beta = np.empty(z.size, dtype=complex)
            with np.errstate(over="ignore"):
                beta.real = np.ldexp(S[c, 0, 0] * th0 + S[c, 0, 1] * th1, e)
                beta.imag = np.ldexp(-(S[c, 1, 0] * th0 + S[c, 1, 1] * th1),
                                     e)
            yield c, beta, 0
        else:
            yield c, ((S[c, 0, 0] - 1j * S[c, 1, 0]) * th0
                      + (S[c, 0, 1] - 1j * S[c, 1, 1]) * th1), scale


def _wave_cells(ham, t_max, name="t_max"):
    """The k_use of ``_amplitude_rows`` for the transform: the number of
    cells whose waves reach wave time t_max, all of them for None."""
    if not ham.unimodular:
        raise DomainError("waves need a unimodular Hamiltonian")
    t_max = 2.0 * ham.grid.span if t_max is None else t_max
    t_max = ham.grid.time(t_max, name, 2.0)
    return max(1, int(np.searchsorted(ham.grid.nodes[:-1], t_max / 2.0,
                                      side="left")))


def _phase(z, shift, scales):
    """e^{i z shift} 2**scales, the scale kept inside the exponent so no
    intermediate overflows."""
    return np.exp(1j * z * shift + np.log(2.0) * scales)


def wave_amplitudes(ham, z, t_max=None):
    """Per-cell amplitudes alpha_c(z) with P_t(z) = alpha_c(z) e^{izt}.

    Valid for wave times t in [2 a_c, 2 b_c] (cell c's interval doubled).
    Returns (alphas, wave_nodes): alphas is complex of shape (K,) +
    z.shape, and wave_nodes = 2 * grid nodes, truncated to cells reaching
    t_max.  Real z sweeps in real arithmetic; each row alpha_c = beta_c
    e^{-i z a_c} goes into alphas as the sweep yields it.

    Known limit: on a decaying wave the relative accuracy is lost once
    Im z * t exceeds ~20, because q Theta(a_c) cancels two components of
    size e^{Im z a_c} down to e^{-Im z a_c} (on the free system, 5e-4
    relative at z = 1 + 5i, t = 8, and pure noise at z = 1 + 10i,
    t = 4).  Real z, and the Im z <= 1 of the acceptance criteria, are
    unaffected.
    """
    z = np.asarray(z)
    z = z.astype(np.result_type(z, np.float64), copy=False)
    k_use = _wave_cells(ham, t_max)
    zs = z.reshape(-1)
    alphas = np.empty((k_use, zs.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, beta, scale in _amplitude_rows(ham, zs, k_use):
            alphas[c] = beta
            alphas[c] *= _phase(zs, -ham.grid.nodes[c], scale)
    if not np.all(np.isfinite(alphas)):
        raise DomainError("wave amplitudes overflow; reduce Im z or span")
    return (alphas.reshape((k_use,) + z.shape),
            2.0 * ham.grid.nodes[:k_use + 1])


def krein_wave(ham, t, z):
    """The complex wave value P_t(z) = alpha_c(z) e^{izt} read off
    ``wave_amplitudes``, c the cell holding t/2: right-continuous at the
    wave nodes, where sqrt(H) jumps, and the last cell at t = 2 * span."""
    t = ham.grid.time(t, "t", 2.0)
    z = complex(z)
    c = ham.grid.cell_index(t / 2.0)
    alphas, _ = wave_amplitudes(ham, z, t_max=2.0 * ham.grid.nodes[c + 1])
    return complex(alphas[c] * np.exp(1j * z * t))


def reproducing_kernel(ham, r, z, lam):
    """k_{r,lam}(z) = e^{ir(z - conj lam)/2} <J Theta(r/2, z), Theta(r/2,
    lam)> / (pi (z - conj lam)), with the removable singularity at
    z = conj(lam) filled by a Richardson central difference.
    """
    r = ham.grid.time(r, "r", 2.0)
    if r == 0.0:
        raise DomainError("r must be positive")
    z, lam = complex(z), complex(lam)
    lbar = np.conj(lam)
    delta = z - lbar
    tau = r / 2.0
    th_lam = transfer_matrix(ham, tau, lam).theta

    def numer(zz):
        th = transfer_matrix(ham, tau, zz).theta
        return np.exp(1j * r * (zz - lbar) / 2.0) * np.vdot(th_lam, J @ th)

    if abs(delta) >= 1e-6:
        return complex(numer(z) / (np.pi * delta))
    # N(conj lam) = 0, so the kernel is N'(mid)/pi up to O(delta^2)
    mid = lbar + delta / 2.0
    hstep = 1e-3 * max(1.0, abs(mid))
    d1 = (numer(mid + hstep) - numer(mid - hstep)) / (2.0 * hstep)
    d2 = (numer(mid + hstep / 2) - numer(mid - hstep / 2)) / hstep
    return complex((4.0 * d2 - d1) / (3.0 * np.pi))


def f_mu_apply(ham, f, z_grid):
    """(1/sqrt(2pi)) int f(t) P_t(z) dt for piecewise-constant f.

    f is a HalfLineFunction supported on its grid [0, r] in wave time
    (tail must be absent or zero); the integral is exact per refined cell: on a
    segment [u, v] of wave cell c it is beta_c e^{iz(mid - a_c)} (v - u)
    sinc(z (v - u)/2), mid = (u + v)/2, with a real sinc for real z.  The
    result is shaped like z_grid (a Python complex for a scalar z).

    For real z a whole wave cell [2 a_c, 2 b_c] has phase e^{iz b_c} and
    sinc factor 2 w_c sinch(z w_c), w_c = b_c - a_c: the phase is carried
    from the cell before by the factor e^{iz w_c}, which with the sinc
    factor is recomputed only when the width changes (a memo of one).
    Segments that split a cell, and complex z, take e^{iz(mid - a_c)}
    directly, complex z with the sweep's scale inside the exponent.
    """
    if f.tail not in (None, 0.0):
        raise DomainError("f must be supported inside its grid")
    r = f.grid.span
    z = np.asarray(z_grid)
    shape = z.shape
    z = z.reshape(-1).astype(np.result_type(z, np.float64), copy=False)
    k_use = _wave_cells(ham, r, "f span")
    wave_nodes = 2.0 * ham.grid.nodes[:k_use + 1]
    edges = np.unique(np.concatenate([
        f.grid.nodes, np.clip(wave_nodes, 0.0, r)]))
    # every segment lies in the f cell of its left edge
    fvals = f.values[f.grid.cell_index(edges[:-1])]
    out = np.zeros(z.shape, dtype=complex)
    real = not np.iscomplexobj(z)
    width = carried = None    # last whole-cell width; cell the phase is at
    # the segments run left to right, so each row is read as it comes
    rows = _amplitude_rows(ham, z, k_use)
    c, beta, scale = next(rows)
    for u, v, fv in zip(edges[:-1], edges[1:], fvals):
        if v - u <= 1e-15 or fv == 0.0:
            continue
        mid = 0.5 * (u + v)
        while c < k_use - 1 and wave_nodes[c + 1] < mid:
            c, beta, scale = next(rows)
        half = 0.5 * (v - u)
        with np.errstate(over="ignore", invalid="ignore"):
            if real and u == wave_nodes[c] and v == wave_nodes[c + 1]:
                if half != width:
                    width = half
                    step = np.exp(1j * z * width)
                    sinc = 2.0 * width * sinch(z * width)
                if carried == c - 1:
                    phase *= step
                else:
                    phase = np.exp(1j * z * ham.grid.nodes[c + 1])
                carried = c
                out += beta * phase * (fv * sinc)
            else:
                out += (beta * _phase(z, mid - ham.grid.nodes[c], scale)
                        * (fv * 2.0 * half * sinch(z * half)))
    if not np.all(np.isfinite(out)):
        raise DomainError("wave transform overflows; reduce Im z or span")
    out /= np.sqrt(2.0 * np.pi)
    return complex(out[0]) if not shape else out.reshape(shape)


# Si(x)/x = sum_k (-1)^k x^2k / ((2k + 1) (2k + 1)!), highest power first;
# at x = 2 the 13th term is below 1e-17 of the sum
_SI_SERIES = np.array([(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1))
                       for k in range(12, -1, -1)])
_E1_DEPTH = 120     # continued-fraction terms; 100 reach rounding at x = 2


def _si_complement(x):
    """pi/2 - Si(x) = int_x^inf sin(t)/t dt, elementwise for x >= 0.

    Up to x = 2 it is pi/2 minus the power series of Si.  Beyond, it is
    -Im E1(ix), with the continued fraction
    E1(ix) = e^{-ix} / (1 + ix - 1/(3 + ix - 4/(5 + ix - ...)))
    (Numerical Recipes, 2nd ed., section 6.9) evaluated bottom-up: no
    cancellation against pi/2 as x grows.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 2.0
    xs = x[small]
    out[small] = np.pi / 2.0 - xs * np.polyval(_SI_SERIES, xs * xs)
    ix = 1j * x[~small]
    tail = np.zeros_like(ix)
    for i in range(_E1_DEPTH, 0, -1):
        tail = i * i / (2 * i + 1 + ix - tail)
    out[~small] = -(np.exp(-ix) / (1.0 + ix - tail)).imag
    return out


def _plancherel_tail(f, X, w_tail):
    """Exact int_{|x|>X} |F f|^2 w dx for identity waves (P_t = e^{ixt}).

    F f = -(1/sqrt(2pi)) sum_k d_k e^{ixt_k}/(ix) over the nodes t_k of
    f, d_k the jump of f at t_k (f = 0 off its grid); expanding the
    square gives integrals int_{|x|>X} e^{ix tau}/x^2 dx with the closed
    form 2 [cos(tau X)/X - |tau| (pi/2 - Si(|tau| X))].
    """
    t = f.grid.nodes
    d = np.diff(f.values, prepend=0.0, append=0.0)
    tau = np.abs(t[:, None] - t[None, :])
    T = 2.0 * (np.cos(tau * X) / X - tau * _si_complement(tau * X))
    return w_tail * float(d @ T @ d) / (2.0 * np.pi)


def isometry_residual(ham, mu, f, X=1e3):
    """| ||F f||^2_{L2(mu), truncated at X} + tail - ||f||^2_{L2} |.

    The window integral is order-8 Gauss-Legendre on panels resolving the
    oscillation of |F f|^2, laid on the half axis [0, X] only and split
    at every |b| of ``mu.breakpoints`` inside it.  The negative half
    axis comes from the mirror identity: for real x and S = diag(1, -1),
    F_H f(-x) = conj(F_{SHS} f(x)), so the window sums |F_H f(x)|^2 w(x)
    + |F_{SHS} f(x)|^2 w(-x) over the nodes x >= 0.  When the cells
    holding the waves of f have no off-diagonal entry, SHS = H and one
    transform serves both halves; else the second runs on the mirrored
    cells.  The tail beyond X is exact (via Si) when the Hamiltonian is
    the identity on the support of f and w has an exact constant tail
    inside X, else it is estimated from the asymptotic mean of
    |x F f(x)|^2 over the outer decade of both halves of the window.
    """
    mu.require_positive()
    if mu.tail is None:
        raise DomainError("isometry quadrature needs a constant-tail weight")
    if not 0 < X < np.inf:
        raise DomainError(f"X must be positive and finite, got {X}")
    r = f.grid.span
    k_use = _wave_cells(ham, r, "f span")
    norm_f = float(np.dot(f.grid.widths, f.values ** 2))

    # the half x >= 0 of n_panels equal panels on [-X, X], cut at 0
    n_panels = int(np.ceil(4.0 * X * max(r, 1.0) / np.pi))
    edges = np.unique(np.concatenate([
        X - (2.0 * X / n_panels) * np.arange((n_panels + 1) // 2), [0.0],
        [abs(p) for p in mu.breakpoints if 0 < abs(p) < X]]))
    nodes, wq = gauss_legendre(8, edges[:-1], edges[1:])
    nodes = nodes.ravel()

    F = f_mu_apply(ham, f, nodes)
    if np.any(ham.cells[:k_use, 0, 1]):
        # S H S, S = diag(1, -1): H with its off-diagonal entries negated
        mirror = Hamiltonian.from_entries(ham.grid.nodes, ham.h1, -ham.h,
                                          ham.h2)
        F_neg = f_mu_apply(mirror, f, nodes)
    else:
        F_neg = F
    # |F f|^2 w at x plus, through the mirror, at -x, for the nodes x >= 0
    both = (np.abs(F) ** 2 * np.asarray(mu(nodes), dtype=float)
            + np.abs(F_neg) ** 2 * np.asarray(mu(-nodes), dtype=float))
    window = float(np.sum(wq.ravel() * both))

    ident = np.allclose(ham.cells[:k_use],
                        np.eye(2), rtol=0.0, atol=1e-13)
    if ident and mu.tail_bound is None and mu.window <= X:
        tail = _plancherel_tail(f, X, mu.tail)
    else:
        outer = nodes >= 0.7 * X
        c_avg = 0.5 * float(np.mean(nodes[outer] ** 2 * both[outer]))
        tail = 2.0 * c_avg / X
    return abs(window + tail - norm_f)
