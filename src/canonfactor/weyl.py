"""Weyl function, boundary values and density, and the Szego functional.

The half-line limit m(z) = lim Phi^-/Theta^- is certified through the
nested Weyl disks: at each grid node the candidate values fill a disk of
radius |det M| / (2 |Im(Theta^- conj(Theta^+))|), and the disks shrink
as the sweep advances.  Both the radius and the candidate value are
ratios of same-scaled matrix entries, so the sweep's power-of-two
rescaling of M (needed once Im z * t is large) cancels exactly.

The boundary values of a Hamiltonian on [0, R] are read off the wave at
the end of the grid.  Continue H past R by its last cell
C = [[a, b], [b, c]], d = sqrt(det C).  Past R the L2 solution
m Theta - Phi lies along v = (c, -b + i d), the eigenvector of J C for
-i d, so m = (Phi x v) / (Theta x v); with |Theta x v|^2 =
c Theta^T C Theta and det M = 1 this is

    m(x + i0) = (Phi^T C Theta + i d) / (Theta^T C Theta),

Theta, Phi the columns of M(R, x).  Its imaginary part, the density
w(x) = d / (Theta^T C Theta), is 1/|E_R(x)|^2 for det C = 1 and the de
Branges function E_R = Psi_+ - i Psi_-, Psi = sqrt(C) Theta(R, x) (de
Branges, *Hilbert Spaces of Entire Functions*, 1968; for OPUC it is the
Bernstein-Szego approximation, Simon, *OPUC* Part 1, 2005).  M(R, x)
comes off one real-arithmetic sweep over the whole grid: the real part
is a ratio of same-scaled entries, and the density has the power-of-two
scale put back exactly.  A singular last cell has no such boundary
value.

The Szego functional integrates w - tail and log(w / tail) against the
Poisson kernel with a batched adaptive Gauss-Kronrod rule: one density
evaluation per round serves both integrands on every live interval, and
each breakpoint segment keeps its own (epsabs 1e-13, epsrel 1e-12)
tolerance, as one ``quad`` call per segment and integrand would.
"""

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import gauss_kronrod
from .solver import _sweep


def weyl_sweep(ham, z, tol=1e-12):
    """March the transfer matrix, tracking Weyl-disk values and diameters.

    Returns (m, diameter) shaped like z: the disk value at the node with
    the smallest diameter seen so far, and that diameter.  Stops early
    once every point is certified below tol.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise DomainError("Weyl function needs Im z > 0")
    best_d = np.full(z.size, np.inf)
    best_m = np.full(z.size, 1j, dtype=complex)
    # diameter 2 |det M| / (2 |Im(Theta^- conj Theta^+)|); an empty
    # denominator gives inf or nan, which never beats best_d
    with np.errstate(divide="ignore", invalid="ignore"):
        for _, ((tp, fp), (tm, fm)), _ in _sweep(ham, z.reshape(-1), 2):
            diam = np.abs(tp * fm - fp * tm) / np.abs((tm * np.conj(tp)).imag)
            take = diam < best_d
            best_d = np.where(take, diam, best_d)
            best_m = np.where(take, fm / tm, best_m)
            if np.all(best_d <= tol):
                break
    return best_m.reshape(z.shape), best_d.reshape(z.shape)


def weyl_function(ham, z, tol=1e-12):
    """m(z) once the Weyl disk has diameter <= tol, else ConvergenceError."""
    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    m, d = weyl_sweep(ham, np.atleast_1d(np.asarray(z, dtype=complex)), tol)
    worst = float(np.max(d))
    if worst > tol:
        raise ConvergenceError(
            f"Weyl disk diameter {worst:.3e} > tol {tol:.1e} at grid end "
            f"(span {ham.grid.span:g}); extend the Hamiltonian or relax tol",
            last_residual=worst)
    return complex(m.ravel()[0]) if scalar else m


def boundary_values(ham, x):
    """Boundary value m(x + i0) of ham at the real points x.

    The exact value for H continued past R by its last cell C,
    m = (Phi^T C Theta + i sqrt(det C)) / (Theta^T C Theta) with
    Theta, Phi = M(R, x), off one real-axis sweep (see the module
    docstring); DomainError for a singular C.  The real part is the
    conjugate function, the imaginary part the density.
    """
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    det = ham.dets[-1]
    if not det > 0.0:
        raise DomainError("boundary values need a last cell with det > 0")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    for _, state, scale in _sweep(ham, xs.reshape(-1), 2):
        pass
    (t0, f0), (t1, f1) = state
    C = ham.cells[-1]
    q = C[0, 0] * t0 * t0 + 2.0 * C[0, 1] * t0 * t1 + C[1, 1] * t1 * t1
    r = (f0 * (C[0, 0] * t0 + C[0, 1] * t1)
         + f1 * (C[0, 1] * t0 + C[1, 1] * t1))
    # Im m from d / q with the scale put back, not from the Moebius ratio
    # (Phi x v) / (Theta x v): that loses Im m once it is far below |Re m|
    m = np.empty(xs.size, dtype=complex)
    m.real, m.imag = r / q, np.ldexp(np.sqrt(det) / q, -2 * scale)
    return complex(m[0]) if scalar else m.reshape(xs.shape)


def spectral_density(ham, x, eps=None, ratio=None, eps_min=None):
    """Boundary density of ham at the real points x: Im ``boundary_values``.

    w(x) = sqrt(det C) / (Theta(R, x)^T C Theta(R, x)), the exact
    density of H continued past R by its last cell C; DomainError for a
    singular C.  eps, ratio and eps_min are accepted and ignored: they
    set the eps ladder of earlier versions, and stay only because the
    benchmark's set-up and workloads (bench/) still pass them, until
    the benchmark refresh of ROADMAP item 1 removes them.
    """
    return boundary_values(ham, x).imag


# -- Szego functional ---------------------------------------------------------

def szego_K(mu, z):
    """log of the Poisson mean of mu minus the Poisson mean of log w.

    Nonnegative by Jensen; exactly zero for constant weights.  Constant
    tails are handled in closed form: only the deviation w - tail is
    integrated numerically, so no truncation correction is needed.
    Isolated zeros of the density are fine (log w stays integrable);
    densities negative on a set of positive measure are not.

    Both Poisson integrals come from one batched adaptive Gauss-Kronrod
    run (``quadrature.gauss_kronrod``): each round evaluates the density
    once on the 21 nodes of every live interval of every segment.
    """
    z = complex(z)
    if not (np.isfinite(z.real) and 0 < z.imag < np.inf):
        raise DomainError(f"szego_K needs a finite z with Im z > 0, got {z}")
    if mu.is_constant:
        return 0.0
    if mu.tail is None or mu.tail == 0:
        raise DomainError("szego_K needs a constant tail > 0")
    tail = mu.tail
    u, v = z.real, z.imag

    W = X = max(mu.window, abs(u) + 50.0 * v, 50.0)
    if mu.tail_bound is not None:
        # push X out until the residual tail deviation is negligible
        while mu.tail_deviation(X) * 2.0 * v / (np.pi * X) > 1e-13 and X < 1e7:
            X *= 2.0
    # Each breakpoint segment keeps its own tolerance.  A single qagp
    # call over the full (possibly huge) range lets the extrapolation
    # table settle on a wrong limit near kinks while reporting a tiny
    # error estimate; per-segment refinement does not.
    pts = {p for p in mu.breakpoints if -X < p < X}
    pts.update((-W, W))
    # geometric sub-edges on the far tails keep each segment's dynamic
    # range small, so few bisections reach the tolerance there
    e = W
    while e * 4.0 < X:
        e *= 4.0
        pts.update((-e, e))
    edges = [-X] + sorted(pts) + [X]

    def integrands(t):
        w = mu(t)
        poisson = (v / np.pi) / ((t - u) ** 2 + v ** 2)
        return np.stack([(w - tail) * poisson, np.log(w / tail) * poisson])

    dev1, dev2 = gauss_kronrod(integrands, edges, epsabs=1e-13,
                               epsrel=1e-12)
    return float(np.log(tail + dev1) - (np.log(tail) + dev2))
