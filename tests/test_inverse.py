"""Inverse spectral recovery: shortcuts, round trips, diagnostics."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular, toeplitz

from canonfactor import (DomainError, HalfLineFunction,
                         SpectralPositivityError, build_toeplitz,
                         constant_weight, inverse_spectral,
                         isometry_residual, sinc_bump_weight,
                         spectral_density, step_weight, weyl_function)
from canonfactor import accelerant, inverse

# sinc bumps and steps; w < 1 somewhere for a negative amplitude or an
# inner value below 1, where the windowed section still keeps its
# spectrum in [c1, c2]
weights = st.one_of(
    st.builds(sinc_bump_weight, st.floats(-0.6, 1.5), st.floats(0.5, 2.0)),
    st.builds(step_weight, st.floats(0.3, 3.0), st.floats(0.3, 2.0)))


def dense_section(mu, span, n):
    """The order-2n Toeplitz matrix of the inverse map and its spectrum,
    built densely as the oracle for the column route."""
    col = accelerant._toeplitz_column(mu, span / n, 2 * n)
    W = toeplitz(col)
    eigs = np.linalg.eigvalsh(W)
    if eigs[0] < -1e-8:
        with pytest.raises(SpectralPositivityError):
            inverse._cell_waves(mu, span, n)
    assume(eigs[0] > 1e-8)
    return col, W, eigs


def test_constant_weight_shortcut_exact():
    for c in (0.5, 1.0, 2.0):
        ham = inverse_spectral(constant_weight(c), 10.0, 8)
        assert np.allclose(ham.cells, np.diag([1.0 / c, c]))
        m = weyl_function(ham.dilate(8.0), 1j, tol=1e-10)
        assert abs(m - 1j * c) < 1e-9


def test_recovered_hamiltonian_is_unimodular(bump_mu):
    ham = inverse_spectral(bump_mu, 12.0, 96)
    assert np.max(np.abs(ham.dets - 1.0)) < 1e-13
    eigs = np.linalg.eigvalsh(ham.cells)
    assert np.all(eigs > 0)


def test_round_trip_bump_refines(bump_mu):
    xs = np.linspace(-4.0, 4.0, 33)
    truth = bump_mu(xs)
    errs = {}
    for n in (128, 256):
        ham = inverse_spectral(bump_mu, 20.0, n)
        w = spectral_density(ham, xs)
        errs[n] = float(np.max(np.abs(w - truth) / truth))
    assert errs[256] < 1e-3
    assert errs[128] / errs[256] > 1.5


def test_round_trip_step_weight(step_mu):
    # span 12 truncation alone caps the accuracy near 3e-2; span 16 does
    # not, leaving the grid as the limiting error (~4e-3 here)
    ham = inverse_spectral(step_mu, 16.0, 192)
    xs = np.array([0.0, 0.5, 2.0])
    w = spectral_density(ham, xs)
    assert np.max(np.abs(w - step_mu(xs)) / step_mu(xs)) < 1e-2


def test_inversion_report(bump_mu):
    ham, rep = inverse_spectral(bump_mu, 10.0, 64, report=True)
    assert rep.n_cells == 64
    assert rep.eta == 10.0 / 64
    assert 0 < rep.min_eig <= rep.max_eig
    assert rep.cond >= 1.0
    assert rep.max_det_dev < 1e-13
    assert not rep.ill_conditioned
    assert 0 < rep.pe_floor <= 1.0
    assert 0 <= rep.max_reflection < 1.0
    assert "pe_floor=" in repr(rep) and "max_reflection=" in repr(rep)


def test_report_reuses_the_wave_pass(bump_mu, monkeypatch):
    # pe_floor and max_reflection come off the one Levinson pass that
    # computes the wave; every other pass certifies a shifted column
    _, col, _, _ = inverse._cell_waves(bump_mu, 10.0, 64)
    k = inverse._levinson(col)[0]
    calls = []
    levinson = inverse._levinson

    def counted(c):
        calls.append(c.copy())
        return levinson(c)

    monkeypatch.setattr(inverse, "_levinson", counted)
    inverse._certified_extremes(col, -np.inf, np.inf)
    certify = len(calls)
    calls.clear()
    _, rep = inverse_spectral(bump_mu, 10.0, 64, report=True)
    assert len(calls) == 1 + certify
    assert sum(np.array_equal(c, col) for c in calls) == 1
    assert abs(rep.pe_floor - np.prod(1.0 - k * k)) <= 1e-12
    assert abs(rep.max_reflection - np.max(np.abs(k))) <= 1e-12


def test_constant_weight_report_health():
    _, rep = inverse_spectral(constant_weight(2.0), 10.0, 8, report=True)
    assert (rep.min_eig, rep.max_eig, rep.cond) == (2.0, 2.0, 1.0)
    assert (rep.pe_floor, rep.max_reflection) == (1.0, 0.0)


@given(mu=weights, n=st.integers(2, 256), span=st.floats(2.0, 20.0))
def test_levinson_matches_cholesky(mu, n, span):
    ref_col, W, _ = dense_section(mu, span, n)
    p, col, _, _ = inverse._cell_waves(mu, span, n)
    assert np.array_equal(col, ref_col)
    ref = solve_triangular(cholesky(W, lower=True), np.ones(2 * n),
                           lower=True)
    # y_j = prod_{i<=j} sqrt((1 + k_i) / (1 - k_i)) / sqrt(P_0)
    k = inverse._levinson(col)[0]
    y = np.exp(np.cumsum(np.arctanh(k))) / np.sqrt(col[0])
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
    # each cell's wave value is the mean of its two samples of L^{-1} 1
    ref = 0.5 * (ref[0::2] + ref[1::2])
    assert np.max(np.abs(p - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("c", [1e2, 1e3])
@pytest.mark.parametrize("n", [512, 1024])
def test_wave_values_at_high_reflection(c, n):
    # max |k| reaches 0.16-0.80 here, where the product form of P_j has
    # the most to lose against the dense solve
    mu = step_weight(c, 1.0)
    p, col, pe_floor, kmax = inverse._cell_waves(mu, 6.4, n)
    ref = solve_triangular(cholesky(toeplitz(col), lower=True),
                           np.ones(2 * n), lower=True)
    ref = 0.5 * (ref[0::2] + ref[1::2])
    assert np.max(np.abs(p - ref)) <= 1e-12 * np.max(np.abs(ref))
    k = inverse._levinson(col)[0]
    assert kmax > 0.1
    assert pe_floor == np.prod(1.0 - k * k)
    assert kmax == np.max(np.abs(k))


def test_levinson_is_the_positivity_test():
    # the pass runs through just below lambda_min and stops just above
    _, col, _, _ = inverse._cell_waves(step_weight(2.0, 1.0), 6.4, 32)
    lam = np.linalg.eigvalsh(toeplitz(col))[0]
    delta = 1e-6 * lam
    below, above = col.copy(), col.copy()
    below[0] -= lam - delta
    above[0] -= lam + delta
    assert inverse._levinson(below) is not None
    assert inverse._levinson(above) is None


@given(mu=weights, n=st.integers(2, 256), span=st.floats(2.0, 20.0))
def test_report_extremes_are_certified(mu, n, span):
    _, _, eigs = dense_section(mu, span, n)
    if mu.is_constant:      # the exact branch: the section is c I
        eigs = np.array([mu.c1])
    _, rep = inverse_spectral(mu, span, n, report=True)
    # _EIG_RTOL = 1e-10 relative, plus eigvalsh's rounding on the far side
    ulp = 4 * np.spacing(eigs[-1])
    assert eigs[0] * (1 - 1e-10) - ulp <= rep.min_eig <= eigs[0]
    assert eigs[-1] <= rep.max_eig <= eigs[-1] * (1 + 1e-10) + ulp
    assert rep.cond >= eigs[-1] / eigs[0]


def _counted_levinson(monkeypatch):
    """Count the Levinson passes from here on; returns the growing list."""
    calls = []
    levinson = inverse._levinson

    def counted(*args, **kw):
        calls.append(1)
        return levinson(*args, **kw)

    monkeypatch.setattr(inverse, "_levinson", counted)
    return calls


def test_certified_extremes_take_few_passes(monkeypatch):
    # the bottom of this spectrum is a cluster (lambda_1 - lambda_0 ~ 7e-12)
    # that bisection took 21 Levinson passes to bracket
    _, col, _, _ = inverse._cell_waves(sinc_bump_weight(0.5, 1.0), 20.0,
                                       2048)
    calls = _counted_levinson(monkeypatch)
    inverse._certified_extremes(col, -np.inf, np.inf)
    assert len(calls) <= 6


@pytest.mark.parametrize("mu, passes, runs", [
    (sinc_bump_weight(0.5, 1.0), 4, 2),
    (step_weight(2.0, 1.0), 3, 1),
], ids=["sinc-0.5-1.0", "step-2-1"])
def test_report_work_with_the_symbol_bounds(monkeypatch, mu, passes, runs):
    # the wave pass, then per end one pass at the first shift and at most
    # one shift-and-invert Lanczos run and its pass: on the bump the first
    # Ritz value reads 1 + 5.9e-6 with residual 3.1e-5 while lambda_min =
    # 1 + 2.7e-8 and c1 = 1, and the seed c1 (1 - 5e-11) saves a pass
    # and a Lanczos run (5 and 3 without it); on the step both ends sit
    # at c1 = 1 and c2 = 2
    calls = _counted_levinson(monkeypatch)
    lanczos = inverse._lanczos_extremes
    runs_seen = []

    def counted(*args):
        runs_seen.append(1)
        return lanczos(*args)

    monkeypatch.setattr(inverse, "_lanczos_extremes", counted)
    inverse_spectral(mu, 20.0, 2048, report=True)
    assert (len(calls), len(runs_seen)) == (passes, runs)


@pytest.mark.parametrize("amplitude", [0.3, 0.5, 0.7])
def test_seeded_brackets_match_dense_spectrum(amplitude):
    # the seeded first shift sits at c1 (1 - 5e-11), within the bracket's
    # width of lambda_min: the certified ends must still enclose the
    # spectrum of the order-4096 section, with test_report_extremes'
    # slack for eigvalsh's rounding
    mu = sinc_bump_weight(amplitude, 1.0)
    _, col, _, _ = inverse._cell_waves(mu, 20.0, 2048)
    eigs = np.linalg.eigvalsh(toeplitz(col))
    _, rep = inverse_spectral(mu, 20.0, 2048, report=True)
    ulp = 4 * np.spacing(eigs[-1])
    assert eigs[0] * (1 - 1e-10) - ulp <= rep.min_eig <= eigs[0]
    assert eigs[-1] <= rep.max_eig <= eigs[-1] * (1 + 1e-10) + ulp


def test_singular_sections_stop_early(monkeypatch):
    # lambda_min = 0 admits no relative bracket: these took 130, 67 and
    # 85 passes (2.5 s) when only the relative stop ended the search;
    # now 2, 3 and 21
    calls = _counted_levinson(monkeypatch)
    with pytest.raises(SpectralPositivityError):
        build_toeplitz(step_weight(0.0, 1.0), 1, np.pi)
    assert len(calls) <= 2
    calls.clear()
    # spectrum {0, 0, 3}
    lo, hi = inverse._certified_extremes(np.ones(3), -np.inf, np.inf)
    assert lo <= 0.0 and 3.0 <= hi <= 3.0 * (1 + 1e-10)
    assert len(calls) <= 3
    calls.clear()
    with pytest.raises(SpectralPositivityError):
        build_toeplitz(step_weight(0.0, 0.5), 2048, 0.05)
    assert len(calls) <= 24


def test_inverse_map_converges_at_second_order():
    # the density round trip of criterion 4 and the worst isometry
    # residual of the first three of criterion 6's functions fall ~4x
    # per doubling of N
    # (orders 2.01 and 2.26 measured); the step-to-step ratios of the
    # isometry are uneven (8.4, 2.0, 8.6), so the order is fitted over
    # all four sizes.  A first-order inverse map reads ~1 here.
    mu = sinc_bump_weight(0.5, 1.0)
    xs = np.linspace(-5.0, 5.0, 41)
    truth = mu(xs)
    rng = np.random.default_rng(6)
    fs = [HalfLineFunction.from_uniform(rng.uniform(-1.0, 1.0, 8), span=2.0)
          for _ in range(3)]
    sizes = np.array([256, 512, 1024, 2048])
    figures = []
    for n in sizes:
        ham = inverse_spectral(mu, 20.0, n)
        density = spectral_density(ham, xs)
        figures.append([np.max(np.abs(density - truth) / truth),
                        max(isometry_residual(ham, mu, f) for f in fs)])
    orders = -np.polyfit(np.log2(sizes), np.log2(figures), 1)[0]
    assert np.all(orders >= 1.8), orders


@pytest.mark.parametrize("M", [1, 2, 7, 64])
def test_gohberg_semencul_inverse_matches_solve(M):
    rng = np.random.default_rng(M)
    for _ in range(4):
        # an autocorrelation sequence is a positive semidefinite column
        g = rng.standard_normal(M)
        col = np.correlate(g, g, "full")[M - 1:] / M
        col[0] += 0.5
        out = inverse._levinson(col)
        assert out is not None
        a = out[1]
        apply = inverse._inverse_matvec(a, a @ col)
        v = rng.standard_normal(M)
        ref = np.linalg.solve(toeplitz(col), v)
        assert np.max(np.abs(apply(v) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("mu", [sinc_bump_weight(0.5, 1.0),
                                sinc_bump_weight(0.3, 0.8),
                                sinc_bump_weight(1.5, 0.5),
                                step_weight(2.0, 1.0)],
                         ids=["sinc-0.5-1.0", "sinc-0.3-0.8", "sinc-1.5-0.5",
                              "step-2-1"])
def test_certified_extremes_match_dense_spectrum(mu):
    # at sinc-1.5-0.5, 60 Lanczos steps leave the top Ritz value
    # unconverged, so the max end, the minimum of -W whose hi is always
    # <= 0, needs its relative stop
    _, col, _, _ = inverse._cell_waves(mu, 20.0, 1024)
    eigs = np.linalg.eigvalsh(toeplitz(col))
    _, rep = inverse_spectral(mu, 20.0, 1024, report=True)
    assert rep.min_eig <= eigs[0] <= rep.min_eig * (1 + 1e-10)
    assert rep.max_eig * (1 - 1e-10) <= eigs[-1] <= rep.max_eig


@pytest.mark.parametrize("col", [
    [1.0, 1.1, 0.0, 0.0],             # |k_1| > 1 at the first step
    [1.0, 0.6, 0.0, 0.0, 0.0, 0.0],   # order-4 section positive, order 5 not
])
def test_indefinite_column_raises(monkeypatch, col):
    col = np.array(col)
    assert np.linalg.eigvalsh(toeplitz(col))[0] < 0
    monkeypatch.setattr(inverse, "_toeplitz_column",
                        lambda mu, h, n: col.copy())
    with pytest.raises(SpectralPositivityError):
        inverse._cell_waves(sinc_bump_weight(0.5, 1.0), 4.0, len(col) // 2)


@pytest.mark.parametrize("extremes", [(1e-3, 1e16), (0.0, 2.0),
                                      (-1e-3, 2.0)])
def test_certified_sections_past_double_precision_are_refused(
        monkeypatch, extremes):
    # one rule wherever the certificate is read: min_eig <= eps max_eig
    # refuses; the report once returned min_eig = 0.049 at cond 2e17
    mu = step_weight(2.0, 1.0)
    monkeypatch.setattr(inverse, "_certified_extremes",
                        lambda col, c1=None, c2=None: extremes)
    for call in (lambda: build_toeplitz(mu, 8, 0.5),
                 lambda: inverse_spectral(mu, 4.0, 8, report=True)):
        with pytest.raises(SpectralPositivityError,
                           match="double precision"):
            call()
    monkeypatch.setattr(inverse, "_certified_extremes",
                        lambda col, c1=None, c2=None: (1.0, 1e15))
    assert build_toeplitz(mu, 8, 0.5).cond == 1e15
    assert inverse_spectral(mu, 4.0, 8, report=True)[1].cond == 1e15


def test_inverse_memory_is_linear_in_n(bump_mu):
    # the dense route held three 2N x 2N matrices, 272 MB at N = 2048
    tracemalloc.start()
    try:
        inverse_spectral(bump_mu, 20.0, 2048, report=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_inverse_scales_with_the_weight():
    # the windowed symbol needs no tail 1: a weight twice another has
    # twice its section, and the recovered density doubles with it
    xs = np.linspace(-3.0, 3.0, 13)
    double = spectral_density(
        inverse_spectral(step_weight(3.0, 1.0, outer=2.0), 12.8, 128), xs)
    single = spectral_density(
        inverse_spectral(step_weight(1.5, 1.0), 12.8, 128), xs)
    assert np.max(np.abs(double - 2.0 * single)) <= 1e-12 * np.max(double)


def test_inverse_requires_positive_floor():
    mu = step_weight(0.0, 0.5)        # c1 = 0 violates the hypothesis
    with pytest.raises(DomainError):
        inverse_spectral(mu, 4.0, 8)


def test_inverse_deterministic(bump_mu):
    a = inverse_spectral(bump_mu, 8.0, 48)
    b = inverse_spectral(bump_mu, 8.0, 48)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.grid.nodes, b.grid.nodes)


@pytest.mark.parametrize("fault", ["overshoot", "nan"])
def test_certificate_survives_a_bad_ritz_pair(monkeypatch, fault):
    # a shift-and-invert Ritz value that overshoots puts the next shift
    # above lambda_min, whose Levinson pass fails and lowers hi; a nan
    # one puts the shift outside the bracket, which then bisects.  From
    # a crude start (hi far above lambda_min, so the Rayleigh quotient
    # of the far-end vector handed back leaves hi where it is), the
    # result is still a certified lower bound within _EIG_RTOL.
    _, col, _, _ = inverse._cell_waves(sinc_bump_weight(0.5, 1.0), 10.0, 64)
    eigs = np.linalg.eigvalsh(toeplitz(col))
    start = eigs[0] + 1e-3 * (eigs[-1] - eigs[0])
    lanczos, levinson = inverse._lanczos_extremes, inverse._levinson
    events = []

    def faulty(matvec, M):
        low, (t, r, x) = lanczos(matvec, M)
        if "ritz" not in events:
            t, x = (0.5 * t if fault == "overshoot" else np.nan), low[2]
        events.append("ritz")
        return low, (t, r, x)

    def passes(c):
        out = levinson(c)
        events.append((col[0] - c[0], out is not None))
        return out

    monkeypatch.setattr(inverse, "_lanczos_extremes", faulty)
    monkeypatch.setattr(inverse, "_levinson", passes)
    lo = inverse._certified_min(col, start, 2.0 * (start - eigs[0]),
                                -np.inf)
    shift, certified = events[events.index("ritz") + 1]
    if fault == "overshoot":
        assert shift > eigs[0] and not certified
    else:
        assert np.isfinite(shift)
    ulp = 4 * np.spacing(eigs[-1])
    assert eigs[0] * (1 - inverse._EIG_RTOL) - ulp <= lo
    # lo lies within an ulp of lambda_min, past what eigvalsh resolves;
    # a 50-digit Levinson pass on col - lo e_0 runs through, so lo is a
    # true lower bound on the spectrum of the rounded column
    assert _positive_definite_50_digits(col, lo)


def _positive_definite_50_digits(col, shift):
    """The Levinson positivity test of toeplitz(col) - shift I in 50-digit
    arithmetic: True iff every prediction error P_j is positive."""
    with mpmath.workdps(50):
        c = [mpmath.mpf(float(v)) for v in col]
        c[0] -= mpmath.mpf(float(shift))
        a, p = [mpmath.mpf(1)], c[0]
        for j in range(1, len(c)):
            if p <= 0:
                return False
            k = -mpmath.fsum(a[i] * c[j - i] for i in range(j)) / p
            a = [x + k * y for x, y in zip(a + [0], [0] + a[::-1])]
            p *= 1 - k * k
        return p > 0
