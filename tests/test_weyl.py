"""Weyl functions, boundary densities, and the Szego functional."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from canonfactor import (ConvergenceError, DomainError, Grid, Hamiltonian,
                         SpectralMeasure, boundary_values, constant_weight,
                         cosine_bump_weight, random_unimodular,
                         sampled_weight, sinc_bump_weight, spectral_density,
                         step_weight, szego_K, weyl_function, weyl_sweep)
from canonfactor.quadrature import gauss_kronrod


def test_weyl_diagonal_constant():
    # H = diag(c, 1/c) has m(z) = i/c
    for c in (0.5, 1.0, 2.0):
        ham = Hamiltonian.constant([[c, 0.0], [0.0, 1.0 / c]], span=60.0)
        m = weyl_function(ham, 1j, tol=1e-10)
        assert abs(m - 1j / c) < 1e-10


def test_weyl_full_constant():
    # constant H = [[h1, h], [h, h2]] with det 1 has m(z) = (h + i)/h1
    ham = Hamiltonian.constant([[2.0, 1.0], [1.0, 1.0]], span=60.0)
    for z in (1j, 0.5 + 1j, 2j):
        m = weyl_function(ham, z, tol=1e-10)
        assert abs(m - (1.0 + 1j) / 2.0) < 1e-9


def test_weyl_dual_is_minus_inverse():
    rng = np.random.default_rng(41)
    for _ in range(6):
        h1 = float(np.exp(rng.uniform(-0.7, 0.7)))
        h = float(rng.uniform(-0.5, 0.5))
        ham = Hamiltonian.constant([[h1, h], [h, (1 + h * h) / h1]],
                                   span=60.0)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        m = weyl_function(ham, z, tol=1e-9)
        md = weyl_function(ham.dual(), z, tol=1e-9)
        assert abs(md + 1.0 / m) < 1e-8


def test_weyl_sweep_reports_diameter():
    ham = Hamiltonian.identity(30.0, 3)
    m, diam = weyl_sweep(ham, 1j)
    assert abs(m - 1j) < 1e-12
    assert 0 <= diam < 1e-12


def test_weyl_function_raises_when_disk_too_large():
    ham = Hamiltonian.identity(3.0, 3)
    with pytest.raises(ConvergenceError) as ei:
        weyl_function(ham, 0.1j, tol=1e-12)
    assert ei.value.last_residual > 0


def test_weyl_requires_upper_half_plane():
    ham = Hamiltonian.identity(10.0, 2)
    with pytest.raises(DomainError):
        weyl_function(ham, 1.0 - 1j)


def test_non_finite_z_rejected():
    ham = Hamiltonian.identity(10.0, 2)
    with pytest.raises(DomainError):
        weyl_sweep(ham, np.array([1 + 1j * np.nan]))
    with pytest.raises(DomainError):
        weyl_sweep(ham, np.array([1j, np.inf + 1j]))
    with pytest.raises(DomainError):
        spectral_density(ham, [np.nan])
    with pytest.raises(DomainError):
        spectral_density(ham, [0.0, np.inf])
    with pytest.raises(DomainError):
        spectral_density(Hamiltonian.constant(np.diag([2.0, 1.0]), 10.0),
                         [np.nan])
    with pytest.raises(DomainError):
        boundary_values(ham, [0.0, np.inf])


def test_herglotz_b_residual_decays():
    # m has no linear term, b = lim Im m(iy)/y = 0: the ratio falls with y
    ham = Hamiltonian.identity(40.0, 4)
    r1, r2 = (weyl_function(ham, 1j * y, tol=1e-10).imag / y
              for y in (5.0, 20.0))
    assert r2 < r1
    assert r2 < 0.06


def test_boundary_values_free_system():
    ham = Hamiltonian.identity(30.0, 6)
    xs = np.concatenate([np.linspace(-60.0, 60.0, 241), [1e3, -7e3]])
    assert np.max(np.abs(boundary_values(ham, xs) - 1j)) <= 1e-13
    assert boundary_values(ham, 0.3) == pytest.approx(1j, abs=1e-13)


def test_boundary_values_constant_cell():
    # Phi^T C Theta and Theta^T C Theta are conserved on a constant cell,
    # so m = (b + i sqrt(det C)) / a for C = [[a, b], [b, c]]
    for C in ([[2.0, 1.0], [1.0, 1.0]], [[0.5, -0.3], [-0.3, 2.18]],
              [[2.0, 0.0], [0.0, 1.0]], [[0.4, 0.5], [0.5, 3.0]],
              [[30.0, -4.0], [-4.0, 0.6]]):
        (a, b), (_, c) = C
        exact = (b + 1j * np.sqrt(a * c - b * b)) / a
        ham = Hamiltonian.constant(C, span=10.0, n_cells=3)
        m = boundary_values(ham, np.linspace(-20.0, 20.0, 81))
        assert np.max(np.abs(m / exact - 1.0)) <= 1e-13


def test_density_is_imaginary_part_of_boundary_value():
    rng = np.random.default_rng(8)
    for scaled in (False, True):
        ham = random_unimodular(rng, 6, 4.0)
        if scaled:
            ham = _scaled(ham, rng)
        xs = rng.uniform(-40.0, 40.0, 25)
        assert np.array_equal(boundary_values(ham, xs).imag,
                              spectral_density(ham, xs))
        assert boundary_values(ham, 1.5).imag == spectral_density(ham, 1.5)


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 8),
       span=st.floats(0.5, 10.0), x=st.floats(-50.0, 50.0),
       scaled=st.booleans())
def test_boundary_values_duality(seed, n_cells, span, x, scaled):
    # the dual Hamiltonian has m_dual = -1/m, also on the real axis
    rng = np.random.default_rng(seed)
    ham = random_unimodular(rng, n_cells, span)
    if scaled:
        ham = _scaled(ham, rng)
    m = boundary_values(ham, x)
    assert abs(m * boundary_values(ham.dual(), x) + 1.0) <= 1e-12


def test_spectral_density_matches_step_weight(step_mu):
    from canonfactor import inverse_spectral
    ham = inverse_spectral(step_mu, 12.0, 192)
    xs = np.array([-2.5, -0.4, 0.3, 1.8, 3.0])
    w = spectral_density(ham, xs)
    assert np.max(np.abs(w - step_mu(xs)) / step_mu(xs)) < 2e-2


# -- density from the endpoint wave -------------------------------------------

def test_wave_density_free_system():
    ham = Hamiltonian.identity(30.0, 6)
    xs = np.concatenate([np.linspace(-60.0, 60.0, 241), [1e3, -7e3]])
    assert np.max(np.abs(spectral_density(ham, xs) - 1.0)) <= 1e-13


def test_wave_density_constant_cell():
    # Theta^T C Theta is conserved on a constant cell, so w = 1/h1 when
    # det C = 1, and w = sqrt(det C)/h1 for any det C > 0
    for h1, h in ((2.0, 1.0), (0.5, -0.3), (3.0, 0.0)):
        C = [[h1, h], [h, (1.0 + h * h) / h1]]
        ham = Hamiltonian.constant(C, span=13.0, n_cells=7)
        assert ham.unimodular
        xs = np.linspace(-50.0, 50.0, 201)
        w = spectral_density(ham, xs)
        assert np.max(np.abs(w * h1 - 1.0)) <= 1e-13
        assert spectral_density(ham, 0.7) == pytest.approx(1.0 / h1,
                                                           rel=1e-13)
    for C in ([[2.0, 0.0], [0.0, 1.0]], [[0.4, 0.5], [0.5, 3.0]]):
        ham = Hamiltonian.constant(C, span=10.0, n_cells=3)
        assert not ham.unimodular
        exact = np.sqrt(np.linalg.det(C)) / C[0][0]
        w = spectral_density(ham, np.linspace(-20.0, 20.0, 81))
        assert np.max(np.abs(w / exact - 1.0)) <= 1e-13


def test_wave_density_singular_last_cell():
    cells = [np.eye(2), [[1.0, 0.0], [0.0, 0.0]]]
    ham = Hamiltonian(Grid([0.0, 1.0, 2.0]), cells)
    with pytest.raises(DomainError, match="det > 0"):
        spectral_density(ham, [0.0, 1.0])
    with pytest.raises(DomainError, match="det > 0"):
        boundary_values(ham, 0.5)


def _scaled(ham, rng):
    """ham with each cell times a random factor in [e^-0.7, e^0.7]."""
    f = np.exp(rng.uniform(-0.7, 0.7, ham.grid.n_cells))[:, None, None]
    return Hamiltonian(ham.grid, ham.cells * f)


def test_wave_density_mpmath_oracle():
    # M(R, x) = (Theta, Phi) as the product of the cell exponentials
    # exp(-x width J C), in 40-digit arithmetic
    J = mpmath.matrix([[0, -1], [1, 0]])
    for seed, n_cells, scaled in ((3, 2, False), (4, 3, False),
                                  (5, 3, True)):
        rng = np.random.default_rng(seed)
        ham = random_unimodular(rng, n_cells, 5.0)
        if scaled:
            ham = _scaled(ham, rng)
        xs = np.array([-31.0, -2.5, 0.0, 0.4, 1.7, 9.0, 120.0])
        w = spectral_density(ham, xs)
        m = boundary_values(ham, xs)
        for x, wx, mx in zip(xs, w, m):
            with mpmath.workdps(40):
                M = mpmath.eye(2)
                for C, width in zip(ham.cells, ham.grid.widths):
                    G = J * mpmath.matrix(C.tolist())
                    M = mpmath.expm(-mpmath.mpf(x) * width * G) * M
                theta, phi = M[:, 0], M[:, 1]
                C = mpmath.matrix(ham.cells[-1].tolist())
                q = (theta.T * C * theta)[0]
                d = mpmath.sqrt(mpmath.det(C))
                ref = float(d / q)
                ref_m = complex(((phi.T * C * theta)[0] + 1j * d) / q)
            assert abs(wx - ref) <= 1e-13 * ref, (seed, x)
            assert abs(mx - ref_m) <= 1e-12 * abs(ref_m), (seed, x)


def _continued(ham, length):
    """ham followed by its last cell on [R, R + length]."""
    nodes = np.append(ham.grid.nodes, ham.grid.span + length)
    cells = np.concatenate([ham.cells, ham.cells[-1:]])
    return Hamiltonian(Grid(nodes), cells)


def _poisson_mean(ham, x, eps, T=400.0):
    """(1/pi) int eps / ((t - x)^2 + eps^2) w(t) dt of the wave density.

    Adaptive Gauss-Kronrod on |t - x| <= T in unit segments; beyond T
    the kernel's remaining mass times the Hann-windowed mean of w over
    T/2 < |t - x| < T (w is almost periodic there).
    """
    def f(t):
        w = spectral_density(ham, t)
        hann = np.sin(2.0 * np.pi * np.abs(t - x) / T) ** 2
        return np.stack([w * (eps / np.pi) / ((t - x) ** 2 + eps ** 2),
                         np.where(np.abs(t - x) > T / 2, w * hann, 0.0)])

    edges = np.linspace(x - T, x + T, int(2 * T) + 1)
    inner, band = gauss_kronrod(f, edges, epsabs=1e-12, epsrel=1e-10)
    tail = 1.0 - 2.0 / np.pi * np.arctan(T / eps)
    return inner + tail * band / (T / 2)


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 8),
       span=st.floats(0.5, 10.0), x=st.floats(-3.0, 3.0),
       eps=st.floats(0.3, 1.0), scaled=st.booleans())
def test_wave_density_poisson_identity(seed, n_cells, span, x, eps, scaled):
    # continued by its last cell over 40/eps, the Weyl disk at x + i eps
    # shrinks below 1e-12, and Im m(x + i eps) is the Poisson mean of the
    # density of the continued system; scaled cells are not unimodular
    rng = np.random.default_rng(seed)
    ham = random_unimodular(rng, n_cells, span)
    if scaled:
        ham = _scaled(ham, rng)
    m, diam = weyl_sweep(_continued(ham, 40.0 / eps),
                         np.array([x + 1j * eps]), tol=0.0)
    assert diam[0] <= 1e-12
    assert abs(_poisson_mean(ham, x, eps) - m[0].imag) <= 1e-4 * m[0].imag


# -- Szego functional ----------------------------------------------------------

def test_szego_constant_weights_exactly_zero():
    for c in (0.5, 1.0, 3.0):
        for z in (1j, 2j, 0.7 + 0.9j):
            assert szego_K(constant_weight(c), z) == 0.0


def test_szego_step_oracle():
    # w = 2 on [-1,1], 1 elsewhere.  Poisson means at z = i are closed
    # form: (1/pi) int w/(1+x^2) = 1.5 and (1/pi) int log w/(1+x^2) =
    # (log 2)/2, so K = log 1.5 - (log 2)/2.
    K = szego_K(step_weight(2.0, 1.0), 1j)
    assert abs(K - (np.log(1.5) - 0.5 * np.log(2.0))) < 1e-11


def test_szego_step_oracle_other_point():
    # same weight at z = 2i: Poisson mass of [-1,1] is (2/pi) atan(1/2)
    q = (2.0 / np.pi) * np.arctan(0.5)
    K = szego_K(step_weight(2.0, 1.0), 2j)
    assert abs(K - (np.log(1.0 + q) - q * np.log(2.0))) < 1e-11


def test_szego_nonnegative_and_scale_invariant():
    mu = step_weight(2.0, 1.0)
    scaled = step_weight(6.0, 1.0, outer=3.0)    # 3 * w
    for z in (1j, 0.5 + 2j, -1.0 + 0.7j):
        K = szego_K(mu, z)
        assert K >= -1e-12
        assert abs(szego_K(scaled, z) - K) < 1e-10


def test_szego_rejects_bad_inputs():
    with pytest.raises(DomainError):
        szego_K(step_weight(2.0, 1.0), 1.0)       # real z
    with pytest.raises(DomainError):
        # sampled weights carry no tail model unless told
        szego_K(sampled_weight([-1.0, 1.0], [1.0, 2.0], tail=None), 1j)


def test_szego_rejects_singular_part():
    from canonfactor import UnsupportedFeatureError
    mu = SpectralMeasure(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         1.0, 1.0, tail=1.0, singular=[(0.0, 1.0)])
    with pytest.raises(UnsupportedFeatureError):
        szego_K(mu, 1j)


def quad_szego_K(mu, z):
    """szego_K with one scalar ``quad`` per segment: the independent oracle.

    Same segment edges as the library (window, breakpoints, the pushed-out
    X and its geometric sub-edges), but each integrand is integrated on
    its own by QUADPACK with Python callbacks.
    """
    u, v = z.real, z.imag
    tail = mu.tail
    X = max(mu.window, abs(u) + 50.0 * v, 50.0)
    if mu.tail_bound is not None:
        while (mu.tail_deviation(X) * 2.0 * v / (np.pi * X) > 1e-13
               and X < 1e7):
            X *= 2.0
    W = min(X, max(mu.window, abs(u) + 50.0 * v, 50.0))
    pts = {p for p in mu.breakpoints if -X < p < X} | {-W, W}
    e = W
    while e * 4.0 < X:
        e *= 4.0
        pts.update((-e, e))
    edges = [-X] + sorted(pts) + [X]

    def poisson(t):
        return (v / np.pi) / ((t - u) ** 2 + v ** 2)

    def segmented(g):
        return sum(quad(g, lo, hi, limit=800, epsabs=1e-13, epsrel=1e-12)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo)

    dev1 = segmented(lambda t: (float(mu(t)) - tail) * poisson(t))
    dev2 = segmented(lambda t: np.log(float(mu(t)) / tail) * poisson(t))
    return float(np.log(tail + dev1) - (np.log(tail) + dev2))


szego_points = st.sampled_from([1j, 2j, 0.7 + 0.9j]) | st.builds(
    complex, st.floats(-2.0, 2.0), st.floats(0.3, 3.0))


@given(inner=st.floats(0.2, 4.0), half_width=st.floats(0.2, 2.0),
       z=szego_points)
def test_szego_step_matches_quad(inner, half_width, z):
    mu = step_weight(inner, half_width)
    assert abs(szego_K(mu, z) - quad_szego_K(mu, z)) <= 1e-12


@given(amplitude=st.floats(-0.8, 2.0), half_width=st.floats(0.2, 2.0),
       z=szego_points)
def test_szego_cosine_bump_matches_quad(amplitude, half_width, z):
    mu = cosine_bump_weight(amplitude, half_width)
    assert abs(szego_K(mu, z) - quad_szego_K(mu, z)) <= 1e-12


# each quad oracle call on a sinc bump takes most of a second
@settings(max_examples=6)
@given(amplitude=st.floats(-0.5, 1.0), scale=st.floats(0.7, 1.5),
       z=szego_points)
def test_szego_sinc_bump_matches_quad(amplitude, scale, z):
    mu = sinc_bump_weight(amplitude, scale)
    assert abs(szego_K(mu, z) - quad_szego_K(mu, z)) <= 1e-12
