"""The package's two quadrature rules.

``gauss_legendre``: order-p Gauss-Legendre on many panels at once, exact
per panel on polynomials of degree 2p - 1.  Every fixed panel rule in
the package (accelerant, factor pairing, isometry window, kernel Gram
matrix) is built from it.

``gauss_kronrod``: adaptive integration over many intervals at once
(the energy identity, the Szego functional).
One G10/K21 pair (the QUADPACK ``qk21`` rule) with its error estimate,
applied to every live interval in one array call per round: each round
evaluates the integrand on all live intervals' 21 nodes together, keeps
the intervals that pass, and bisects only the ones that fail.  The
integrand maps a 1-d array of abscissae to an array of shape (k, n), so
k integrands that share an expensive factor are integrated from one
evaluation.

Each starting interval (a "segment") is refined on its own, as one
``quad`` call per segment would be: an interval of width dx in a segment
of width L is accepted once, for every integrand, its error estimate is
within dx/L of max(epsabs, epsrel * |current segment estimate|), or is
below the round-off floor 50 eps int|f| of the interval (QUADPACK's), or
once the interval is narrower than 1e-12 max(1, |midpoint|), which keeps
nodes off integrable endpoint singularities.  Apart from intervals taken
at the floor or the minimum width, the accepted error estimates of a
segment therefore add up to at most its tolerance.
"""

import numpy as np

from .errors import ConvergenceError, DomainError

# nonnegative G10/K21 abscissae, descending; the Gauss nodes are the odd
# entries (QUADPACK qk21)
_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208608057104, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1:10:2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338]


def _mirror(half, sign=1.0):
    return np.concatenate([sign * half[:-1], half[::-1]])


NODES = _mirror(_X, -1.0)           # ascending on [-1, 1]
WEIGHTS_K = _mirror(_WK)
WEIGHTS_G = _mirror(_WG)

_EPS = np.finfo(float).eps
_MIN_WIDTH = 1e-12
_MAX_LIVE = 20000        # live intervals: a round's arrays stay at tens of MB


_GL_CACHE = {}


def gauss_legendre(order, a, b):
    """Gauss-Legendre nodes and weights of the given order on [a, b].

    a and b may be arrays of panels; the nodes then run along a new
    trailing axis, so panels (n,) give nodes and weights of shape
    (n, order).  The reference rule is cached per order.
    """
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    x, w = _GL_CACHE[order]
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b)[..., None], 0.5 * (b - a)[..., None]
    return mid + half * x, half * w


def _qk21(f, a, b):
    """K21 values, error estimates and round-off floors on [a_i, b_i].

    Returns three (k, m) arrays for the m intervals and k integrands.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.asarray(f((c[:, None] + h[:, None] * NODES).ravel()), dtype=float)
    fv = fv.reshape(-1, a.size, NODES.size)
    # a non-finite value gives a non-finite resk, whose segment is then
    # not refined, so the nan error estimates it brings are never used
    with np.errstate(invalid="ignore", divide="ignore"):
        resk = (fv @ WEIGHTS_K) * h
        mean = resk / (2.0 * h)
        err = np.abs((fv @ WEIGHTS_G) * h - resk)
        resabs = (np.abs(fv) @ WEIGHTS_K) * h
        resasc = (np.abs(fv - mean[..., None]) @ WEIGHTS_K) * h
        # QUADPACK's scaling of |K21 - G10|
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk, err, 50.0 * _EPS * resabs


def _by_segment(vals, seg, n_seg):
    """Sum the columns of vals (k, m) into the n_seg segments seg (m,)."""
    return np.stack([np.bincount(seg, weights=v, minlength=n_seg)
                     for v in vals])


def gauss_kronrod(f, edges, epsabs, epsrel):
    """Integrals of the k rows of f over [edges[0], edges[-1]].

    f maps a 1-d array of abscissae to an array of shape (k, n).  Each
    consecutive pair of edges is a segment with its own tolerance
    max(epsabs, epsrel * |segment integral|); zero-width segments are
    skipped.  A segment whose estimate for an integrand is not finite is
    not refined for it, so a non-integrable integrand gives inf or nan
    as ``quad`` would.  Raises ConvergenceError when a round would leave
    more than 20,000 intervals live.  Returns the (k,) array of
    integrals.
    """
    edges = np.asarray(edges, dtype=float)
    keep = edges[1:] > edges[:-1]
    if not keep.any():
        raise DomainError("Gauss-Kronrod needs an interval of positive width")
    a, b = edges[:-1][keep], edges[1:][keep]
    seg_width = b - a
    n_seg = seg_width.size
    seg = np.arange(n_seg)
    done = 0.0
    while a.size:
        res, err, floor = _qk21(f, a, b)
        estimate = done + _by_segment(res, seg, n_seg)
        share = (b - a) / seg_width[seg]
        tol = np.maximum(epsabs, epsrel * np.abs(estimate))[:, seg] * share
        diverged = ~np.isfinite(estimate)[:, seg]
        ok = np.all((err <= np.maximum(tol, floor)) | diverged, axis=0)
        ok |= (b - a) <= _MIN_WIDTH * np.maximum(1.0, np.abs(0.5 * (a + b)))
        done = done + _by_segment(res[:, ok], seg[ok], n_seg)
        if 2 * np.count_nonzero(~ok) > _MAX_LIVE:
            raise ConvergenceError(
                f"Gauss-Kronrod: {2 * np.count_nonzero(~ok)} live intervals "
                f"exceed the limit {_MAX_LIVE}",
                last_residual=float(np.max(err[:, ~ok])))
        a, b, seg = a[~ok], b[~ok], seg[~ok]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        seg = np.concatenate([seg, seg])
    return done.sum(axis=1)
