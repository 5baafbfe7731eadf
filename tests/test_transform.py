"""Krein waves, reproducing kernels, and the spectral transform isometry."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonfactor import (DomainError, HalfLineFunction, Hamiltonian,
                         ValidationError, constant_weight, f_mu_apply, isometry_residual,
                         factor_via_transform, inverse_spectral, krein_wave,
                         random_unimodular, reproducing_kernel,
                         sampled_weight, sinc_bump_weight, step_weight,
                         transfer_matrix, wave_amplitudes)
from canonfactor import solver, transform
from canonfactor.hamiltonian import sqrt_psd_cells
from canonfactor.quadrature import gauss_legendre


def test_sqrt_psd_hand_values():
    # the per-cell root behind the waves: I, [[2,1],[1,1]] and 0
    ham = Hamiltonian.from_entries([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0],
                                   [0.0, 1.0, 0.0], [1.0, 1.0, 0.0])
    roots = sqrt_psd_cells(ham.cells)
    assert np.allclose(roots[0], np.eye(2))
    assert np.allclose(roots[1],
                       np.array([[3.0, 1.0], [1.0, 2.0]]) / np.sqrt(5.0))
    assert np.allclose(roots[2], 0.0)
    # an indefinite cell never reaches the root: validation rejects it
    with pytest.raises(ValidationError, match="not PSD"):
        Hamiltonian.from_entries([0.0, 1.0], [1.0], [2.0], [1.0])


def test_wave_amplitudes_free_system():
    ham = Hamiltonian.identity(4.0, 5)
    zs = np.linspace(-20.0, 20.0, 31)
    alphas, wave_nodes = wave_amplitudes(ham, zs)
    assert alphas.shape == (5, 31)
    assert np.max(np.abs(alphas - 1.0)) < 1e-13
    assert np.allclose(wave_nodes, 2.0 * ham.grid.nodes)


def test_wave_amplitudes_reject_non_finite_z():
    ham = Hamiltonian.identity(4.0, 5)
    with pytest.raises(DomainError):
        wave_amplitudes(ham, np.array([0.5, np.nan]))


def test_krein_wave_free_system_is_exponential():
    ham = Hamiltonian.identity(6.0, 6)
    for t in (0.0, 1.3, 5.0):
        for z in (0.7, -2.0, 1.0 + 0.5j):
            w = krein_wave(ham, t, z)
            assert abs(w - np.exp(1j * z * t)) < 1e-12 * max(
                1.0, abs(np.exp(1j * z * t)))


def _sqrt_2x2(A):
    # symmetric PSD square root from the eigendecomposition
    lam, V = np.linalg.eigh(A)
    return (V * np.sqrt(np.maximum(lam, 0.0))) @ V.T


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 6),
       span=st.floats(0.5, 6.0), re=st.floats(-3.0, 3.0),
       im=st.floats(-0.5, 1.0), fracs=st.lists(st.floats(0.0, 1.0),
                                               max_size=4))
def test_krein_wave_matches_theta_formula(seed, n_cells, span, re, im,
                                          fracs):
    # oracle: P_t(z) = e^{izt/2} (1, -i) sqrt(H_c) Theta(t/2, z), with c
    # the cell holding t/2 (the right-hand one at a node), at every wave
    # node, at t = 0 and 2 span, and at drawn times in between.  The
    # oracle cancels where P_t(z) decays, so the error is taken relative
    # to the size of its terms, |e^{izt/2}| |sqrt(H_c)| |Theta|.
    ham = random_unimodular(np.random.default_rng(seed), n_cells, span)
    z = complex(re, im)
    ts = np.concatenate([2.0 * ham.grid.nodes,
                         2.0 * ham.grid.span * np.asarray(fracs)])
    for t in ts:
        c = ham.grid.cell_index(t / 2.0)
        theta = transfer_matrix(ham, t / 2.0, z).theta
        root = _sqrt_2x2(ham.cells[c])
        psi = root @ theta
        ref = np.exp(0.5j * z * t) * (psi[0] - 1j * psi[1])
        size = (abs(np.exp(0.5j * z * t)) * np.linalg.norm(root, 2)
                * np.linalg.norm(theta))
        assert abs(krein_wave(ham, t, z) - ref) <= 1e-13 * size


def test_krein_wave_t_zero_constant_in_z():
    # P_0 is a z-independent constant (the wave has no room to evolve)
    rng = np.random.default_rng(13)
    ham = random_unimodular(rng, 4, span=4.0)
    vals = [krein_wave(ham, 0.0, z) for z in (0.0, 1.5, 2j)]
    assert np.max(np.abs(np.diff(vals))) < 1e-14
    assert abs(krein_wave(Hamiltonian.identity(2.0, 1), 0.0, 1.7)
               - 1.0) < 1e-14


def test_reproducing_kernel_free_is_paley_wiener():
    ham = Hamiltonian.identity(3.0, 3)
    r = 2.0
    for z, lam in [(0.3, 1.1), (0.5 + 0.2j, -0.4 + 0.7j), (2.0, 2.0 + 1j)]:
        u = z - np.conj(lam)
        ref = np.exp(1j * r * u / 2.0) * np.sin(r * u / 2.0) / (np.pi * u)
        k = reproducing_kernel(ham, r, z, lam)
        assert abs(k - ref) < 1e-12


def test_reproducing_kernel_diagonal_limit():
    # z = conj(lam) is a removable singularity; for H = I and real z the
    # limit is r/(2 pi)
    ham = Hamiltonian.identity(3.0, 3)
    k = reproducing_kernel(ham, 2.0, 0.7, 0.7)
    assert abs(k - 1.0 / np.pi) < 1e-9
    near = reproducing_kernel(ham, 2.0, 0.7 + 2e-7, 0.7)
    assert abs(near - k) < 1e-6


def test_wave_norm_identity_free_system():
    # int_0^r |P_t(z)|^2 dt = (1 - e^{-2 r Im z}) / (2 Im z) for H = I,
    # summed in closed form over the per-cell amplitudes
    ham = Hamiltonian.identity(4.0, 4)

    def energy(r, z):
        alphas, wave_nodes = wave_amplitudes(ham, np.array([z]), t_max=r)
        lo = np.minimum(wave_nodes[:-1], r)
        hi = np.minimum(wave_nodes[1:], r)
        y = 2.0 * z.imag
        seg = (np.exp(-y * lo) - np.exp(-y * hi)) / y
        return float(np.sum(np.abs(alphas[:, 0]) ** 2 * seg))

    assert abs(energy(1.0, 1j) - (1.0 - np.exp(-2.0)) / 2.0) < 1e-13
    for r, z in [(2.0, 0.5j), (1.5, 1.0 + 0.25j)]:
        ref = (1.0 - np.exp(-2.0 * r * z.imag)) / (2.0 * z.imag)
        assert abs(energy(r, z) - ref) < 1e-12


def test_f_mu_apply_free_is_fourier():
    # for H = I the transform reduces to the ordinary Fourier integral
    # over [0, span(f)], computable in closed form for step functions
    ham = Hamiltonian.identity(3.0, 3)
    f = HalfLineFunction([0.0, 0.8, 2.0], [1.0, -0.5], tail=0.0)
    xs = np.array([-2.0, -0.3, 0.0, 1.7])
    got = f_mu_apply(ham, f, xs)
    ref = np.empty_like(xs, dtype=complex)
    for i, x in enumerate(xs):
        if x == 0.0:
            ref[i] = (0.8 * 1.0 + 1.2 * (-0.5)) / np.sqrt(2 * np.pi)
        else:
            seg1 = (np.exp(1j * x * 0.8) - 1.0) / (1j * x)
            seg2 = (np.exp(1j * x * 2.0) - np.exp(1j * x * 0.8)) / (1j * x)
            ref[i] = (seg1 - 0.5 * seg2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_isometry_plancherel_control(rng):
    ham = Hamiltonian.identity(2.0, 2)
    mu = constant_weight(1.0)
    for _ in range(3):
        vals = rng.normal(size=5)
        f = HalfLineFunction(np.linspace(0.0, 2.0, 6), vals, tail=0.0)
        assert isometry_residual(ham, mu, f) < 1e-8


def test_sine_integral_matches_scipy():
    # the series up to x = 2, the continued fraction of E1(ix) beyond:
    # Si against scipy's sici on both sides of the switch and in the far
    # tail (measured 6.7e-16), and pi/2 - Si, which the continued
    # fraction gives without cancellation, against 40-digit mpmath
    # within a few ulp of its envelope 1/x (measured 2.1 eps / x)
    from scipy.special import sici
    x = np.concatenate([np.geomspace(1e-8, 1e7, 20001),
                        np.nextafter(2.0, [0.0, 4.0])])
    si = np.pi / 2 - transform._si_complement(x)
    assert np.max(np.abs(si - sici(x)[0])) <= 4 * np.finfo(float).eps
    far = np.geomspace(2.0, 1e7, 61)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.pi / 2 - mpmath.si(v)) for v in far])
    err = np.abs(transform._si_complement(far) - ref) * far
    assert np.max(err) <= 4 * np.finfo(float).eps
    assert transform._si_complement(np.zeros(2)).tolist() == [np.pi / 2] * 2
    assert transform._si_complement(np.empty((0, 2))).shape == (0, 2)


def test_isometry_recovered_bump(bump_mu, bump_ham):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=4)
    f = HalfLineFunction(np.linspace(0.0, 2.0, 5), vals, tail=0.0)
    assert isometry_residual(bump_ham, bump_mu, f) < 5e-3


def test_wave_amplitudes_truncation_matches_full():
    rng = np.random.default_rng(31)
    ham = random_unimodular(rng, 6, span=6.0)
    zs = np.array([0.4, -1.2, 2.5])
    full, nodes_full = wave_amplitudes(ham, zs)
    part, nodes_part = wave_amplitudes(ham, zs, t_max=nodes_full[3])
    assert np.array_equal(nodes_part, nodes_full[:4])
    assert np.allclose(part, full[:3], rtol=1e-12)


_FOLD_HAMILTONIANS = {
    "inverse_spectral": lambda: inverse_spectral(
        sinc_bump_weight(0.5, 1.0), 6.4, 64),
    # off-diagonal cells: every entry of sqrt(H) enters beta
    "random_unimodular": lambda: random_unimodular(
        np.random.default_rng(7), 40, 6.0),
}


@pytest.mark.parametrize("name", sorted(_FOLD_HAMILTONIANS))
def test_real_axis_matches_complex_arithmetic(name):
    # real x takes the real sweep, the real beta combinations and a real
    # sinc; x + 0j runs the same formulas in complex arithmetic
    ham = _FOLD_HAMILTONIANS[name]()
    x = np.linspace(-40.0, 40.0, 161)
    f = HalfLineFunction.from_uniform(
        np.random.default_rng(8).uniform(-1.0, 1.0, 9), span=9.0)
    got, ref = f_mu_apply(ham, f, x), f_mu_apply(ham, f, x + 0j)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    alphas, _ = wave_amplitudes(ham, x)
    ref_alphas, _ = wave_amplitudes(ham, x + 0j)
    assert np.all(np.abs(alphas - ref_alphas) <= 1e-13 * np.abs(ref_alphas))


def _amplitude_integrals(ham, f, z):
    """(1/sqrt(2pi)) sum over segments [u, v] of f alpha_c (e^{izv} -
    e^{izu})/(iz), the closed form of int f(t) P_t(z) dt with P_t =
    alpha_c e^{izt} (alpha_c (v - u) at z = 0), in blocks of z."""
    r = f.grid.span
    out = np.empty(z.shape, dtype=complex)
    for lo in range(0, z.size, 256):
        zc = z[lo:lo + 256]
        alphas, wave_nodes = wave_amplitudes(ham, zc, t_max=r)
        edges = np.unique(np.concatenate([f.grid.nodes,
                                          np.clip(wave_nodes, 0.0, r)]))
        mid = 0.5 * (edges[:-1] + edges[1:])
        c = np.minimum(np.searchsorted(wave_nodes, mid) - 1, len(alphas) - 1)
        e = np.exp(1j * np.outer(edges, zc))
        with np.errstate(divide="ignore", invalid="ignore"):
            seg = np.where(zc == 0, np.diff(edges)[:, None],
                           np.diff(e, axis=0) / (1j * zc))
        out[lo:lo + 256] = np.sum(f(mid)[:, None] * alphas[c] * seg, axis=0)
    return out / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("name", sorted(_FOLD_HAMILTONIANS))
def test_f_mu_apply_matches_amplitude_integrals(name):
    # the reference integrates alpha_c e^{izt} = P_t(z) per segment in
    # closed form; f_mu_apply folds e^{-iz a_c} into its own exponential
    ham = _FOLD_HAMILTONIANS[name]()
    f = HalfLineFunction.from_uniform(
        np.random.default_rng(9).uniform(-1.0, 1.0, 7), span=7.0)
    z = np.array([0.6, -2.5, 7.0, 1.0 + 0.4j, -3.0 - 0.3j, 0.5j])
    ref = _amplitude_integrals(ham, f, z)
    got = f_mu_apply(ham, f, z)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shift", [0.0, 0.3j], ids=["real", "complex"])
def test_f_mu_apply_keeps_the_shape_of_z(shift):
    # a 2-D z is the flat call reshaped; a scalar z gives a Python complex
    ham = _FOLD_HAMILTONIANS["random_unimodular"]()
    f = HalfLineFunction.from_uniform([1.0, -0.5, 0.25], span=6.0)
    z = (np.linspace(-5.0, 5.0, 12) + shift).reshape(3, 4)
    got = f_mu_apply(ham, f, z)
    assert np.array_equal(got, f_mu_apply(ham, f, z.ravel()).reshape(3, 4))
    one = f_mu_apply(ham, f, z[1, 2])
    assert type(one) is complex
    assert abs(one - got[1, 2]) <= 1e-14 * abs(got[1, 2])


_LONG_HAMILTONIANS = {
    "inverse_spectral": lambda: inverse_spectral(
        sinc_bump_weight(0.5, 1.0), 20.0, 2048),
    "random_unimodular": lambda: random_unimodular(
        np.random.default_rng(11), 2048, 20.0),
}


@pytest.mark.parametrize("name", sorted(_LONG_HAMILTONIANS))
def test_f_mu_apply_holds_over_the_whole_wave_range(name):
    # f on all of [0, 2 span]: for real x the phase e^{ix b_c} is carried
    # across 2048 cells by products, and |x b_c| reaches 4e4 (relative
    # errors 4.5e-15 and 2.5e-13 measured)
    ham = _LONG_HAMILTONIANS[name]()
    f = HalfLineFunction.from_uniform(
        np.random.default_rng(12).uniform(-1.0, 1.0, 9),
        span=2.0 * ham.grid.span)
    x = np.linspace(-1e3, 1e3, 4001)
    got = f_mu_apply(ham, f, x)
    ref = _amplitude_integrals(ham, f, x)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_f_mu_apply_memory_is_bounded_by_the_block():
    # every cell width and (step, sqrt det) pair is distinct here, so a
    # trig or phase cache per width or pair would hold ~200 MB; the
    # sweep's block buffer bounds the peak (16.8 MiB measured; fresh
    # per-cell propagator blocks peaked at 24.2 MiB)
    ham = _LONG_HAMILTONIANS["random_unimodular"]()
    f = HalfLineFunction.from_uniform(
        np.random.default_rng(12).uniform(-1.0, 1.0, 9),
        span=2.0 * ham.grid.span)
    x = np.linspace(-1e3, 1e3, 4001)
    tracemalloc.start()
    try:
        f_mu_apply(ham, f, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


def test_f_mu_apply_keeps_the_scale_in_the_exponent():
    # free system on [0, 800]: alpha_c = e^{-2iz a_c} overflows for
    # Im z > 0 while P_t(z) = e^{izt} and its transform stay small; for
    # Im z < 0 the transform itself overflows and must raise, not
    # return nan
    ham = Hamiltonian.identity(400.0, 40)
    f = HalfLineFunction.from_uniform(np.ones(4), span=800.0)
    z = np.array([1.0 + 3.0j, 1.0 + 0.95j])
    with pytest.raises(DomainError, match="overflow"):
        wave_amplitudes(ham, z)
    ref = (np.exp(800j * z) - 1.0) / (1j * z * np.sqrt(2.0 * np.pi))
    got = f_mu_apply(ham, f, z)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            f_mu_apply(ham, f, np.array([1.0 - 3.0j]))


_MU = sinc_bump_weight(0.5, 1.0)
_HAM = inverse_spectral(_MU, 6.4, 64)
_F = HalfLineFunction(np.linspace(0.0, 2.0, 5), [0.5, -1.0, 0.0, 2.0],
                      tail=0.0)
_X = np.linspace(-10.0, 10.0, 41)
_ONE_SWEEP = {
    "wave_amplitudes": lambda: wave_amplitudes(_HAM, _X + 0.3j),
    "f_mu_apply": lambda: f_mu_apply(_HAM, _F, _X),
    "krein_wave": lambda: krein_wave(_HAM, 3.0, 1.0 + 0.5j),
    "isometry_residual": lambda: isometry_residual(_HAM, _MU, _F, X=50.0),
}


@pytest.mark.parametrize("name", sorted(_ONE_SWEEP))
def test_each_consumer_sweeps_once(name, monkeypatch):
    # every consumer reads the amplitude rows off a single sweep; a
    # consumer that sweeps again to re-read the rows fails here
    calls = []
    sweep = transform._sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(transform, "_sweep", counting)
    _ONE_SWEEP[name]()
    assert len(calls) == 1


def test_factor_makes_no_sweep(monkeypatch):
    # the factor pushes quadrature moments through the cells; a factor
    # that reads amplitude rows off a sweep again fails here
    calls = []
    sweep = solver._sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(transform, "_sweep", counting)
    monkeypatch.setattr(solver, "_sweep", counting)
    factor_via_transform(_MU, 12.8, 32)
    assert len(calls) == 0


def _mirrored(ham):
    """S H S, S = diag(1, -1): H with its off-diagonal entries negated."""
    return Hamiltonian.from_entries(ham.grid.nodes, ham.h1, -ham.h, ham.h2)


_MIRROR_HAMILTONIANS = {
    **_FOLD_HAMILTONIANS,
    "random_unimodular_6": lambda: random_unimodular(
        np.random.default_rng(4), 6, 6.0),
}


@pytest.mark.parametrize("name", sorted(_MIRROR_HAMILTONIANS))
def test_f_mu_apply_mirror_identity(name):
    # F_H f(-x) = conj(F_{SHS} f(x)) for real x, bit for bit: the half
    # axis x < 0 of the Plancherel check rests on it.  A recovered H is
    # diagonal, so SHS = H; on off-diagonal cells the naive conj(F_H f(x))
    # is off by 0.23 and 3.7 on the two random_unimodular cases here
    ham = _MIRROR_HAMILTONIANS[name]()
    f = HalfLineFunction.from_uniform(
        np.random.default_rng(13).uniform(-1.0, 1.0, 7), span=7.0)
    x = np.random.default_rng(14).uniform(0.0, 30.0, 50)
    got = f_mu_apply(ham, f, -x)
    assert np.array_equal(got, np.conj(f_mu_apply(_mirrored(ham), f, x)))
    naive = np.max(np.abs(got - np.conj(f_mu_apply(ham, f, x))))
    if name == "inverse_spectral":
        assert _mirrored(ham) == ham and naive == 0.0
    else:
        assert naive > 1e-2


def _full_axis_residual(ham, mu, f, X):
    """The Plancherel residual by quadrature over all of [-X, X]: one
    transform at every node, no mirror, the tail as in ``isometry_residual``."""
    r = f.grid.span
    n_panels = int(np.ceil(4.0 * X * max(r, 1.0) / np.pi))
    edges = np.unique(np.concatenate([
        np.linspace(-X, X, n_panels + 1),
        [p for p in mu.breakpoints if -X < p < X], [0.0]]))
    nodes, wq = gauss_legendre(8, edges[:-1], edges[1:])
    nodes = nodes.ravel()
    F = f_mu_apply(ham, f, nodes)
    dens = np.asarray(mu(nodes), dtype=float)
    window = float(np.sum(wq.ravel() * np.abs(F) ** 2 * dens))
    k_use = transform._wave_cells(ham, r, "f span")
    if (np.allclose(ham.cells[:k_use], np.eye(2), rtol=0.0, atol=1e-13)
            and mu.tail_bound is None and mu.window <= X):
        tail = transform._plancherel_tail(f, X, mu.tail)
    else:
        outer = np.abs(nodes) >= 0.7 * X
        tail = 2.0 * float(np.mean(np.abs(nodes[outer] * F[outer]) ** 2
                                   * dens[outer])) / X
    return abs(window + tail - float(np.dot(f.grid.widths, f.values ** 2)))


# _XS samples an asymmetric weight, w(-x) != w(x), whose kinks |b| cut
# many half-axis panels; a step's kinks +-0.7 both cut at 0.7
_XS = np.linspace(-3.1, 4.3, 23)
_ISOMETRY_CASES = {
    "identity-step": lambda: (Hamiltonian.identity(2.0, 2),
                              step_weight(2.0, 0.7)),
    "diagonal-bump": lambda: (_HAM, _MU),
    "diagonal-step": lambda: (_HAM, step_weight(2.5, 0.7)),
    "offdiagonal-step": lambda: (_FOLD_HAMILTONIANS["random_unimodular"](),
                                 step_weight(2.0, 0.7)),
    "offdiagonal-sampled": lambda: (
        _FOLD_HAMILTONIANS["random_unimodular"](),
        sampled_weight(_XS, 1.0 + 0.3 * np.sin(_XS) ** 2 + 0.05 * _XS)),
}


@pytest.mark.parametrize("X", [45.0, 50.0])
@pytest.mark.parametrize("name", sorted(_ISOMETRY_CASES))
def test_isometry_matches_full_axis_quadrature(name, X):
    # the half axis and the mirror against one transform over [-X, X];
    # 4.0 X r / pi is 114.6 (odd ceiling: 0 cuts the middle panel) at
    # X = 45 and 127.3 (even) at X = 50
    ham, mu = _ISOMETRY_CASES[name]()
    f = HalfLineFunction.from_uniform(
        np.random.default_rng(15).uniform(-1.0, 1.0, 6), span=2.0)
    ref = _full_axis_residual(ham, mu, f, X)
    assert abs(isometry_residual(ham, mu, f, X=X) - ref) <= 1e-14


@pytest.mark.parametrize("name, calls, nodes", [
    ("diagonal-bump", 1, 8 * 64), ("diagonal-step", 1, 8 * 65),
    ("identity-step", 1, 8 * 65), ("offdiagonal-step", 2, 8 * 65)])
def test_isometry_transforms_the_half_axis(name, calls, nodes, monkeypatch):
    # X = 50, r = 2: 128 panels on [-50, 50], so 64 on [0, 50], and the
    # step's |b| = 0.7 cuts one more; one transform when H is diagonal on
    # the support of f (SHS = H), a second on the mirrored cells else
    ham, mu = _ISOMETRY_CASES[name]()
    seen = []
    apply = transform.f_mu_apply

    def counting(h, f, z):
        seen.append((h, np.asarray(z)))
        return apply(h, f, z)

    monkeypatch.setattr(transform, "f_mu_apply", counting)
    isometry_residual(ham, mu, _F, X=50.0)
    assert len(seen) == calls
    assert [z.size for _, z in seen] == [nodes] * calls
    assert all(np.all((0.0 <= z) & (z <= 50.0)) for _, z in seen)
    assert seen[0][0] is ham
    if calls == 2:
        assert seen[1][0] == _mirrored(ham)
        assert np.array_equal(seen[1][1], seen[0][1])
