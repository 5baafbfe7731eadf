"""Transfer-matrix solver against closed forms and structural properties."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canonfactor import (DomainError, HalfLineFunction, Hamiltonian, J,
                         constant_weight, f_mu_apply, inverse_spectral,
                         isometry_residual, j_energy_residual, krein_wave,
                         random_unimodular, reproducing_kernel,
                         sinc_bump_weight, transfer_matrix, wave_amplitudes)
from canonfactor import solver
from canonfactor.solver import _restore, _sweep, sinch


def _sin_over_x(x):
    with mpmath.workdps(50):
        x = mpmath.mpmathify(x)
        return mpmath.mpf(1) if x == 0 else mpmath.sin(x) / x


_SMALL = st.floats(-1e-4, 1e-4)


@given(st.one_of(_SMALL, st.floats(-1e300, 1e300)))
@example(0.0)
@example(-0.0)
@example(9.999999999999999e-05)
@example(1e-4)
@example(np.pi)
def test_sinch_real_within_2_ulp(x):
    got = sinch(np.array([x]))
    assert got.dtype == np.float64          # real in, real out
    exact = _sin_over_x(x)
    assert abs(mpmath.mpf(float(got[0])) - exact) <= 2 * np.spacing(
        abs(float(exact)))


@given(st.one_of(_SMALL, st.floats(-1e6, 1e6)),
       st.one_of(_SMALL, st.floats(-700.0, 700.0)))
@example(0.0, 0.0)
@example(3e-5, -7e-5)
def test_sinch_complex_against_mpmath(re, im):
    # complex sin followed by a complex division: componentwise errors
    # reach ~2.6 eps |sin(x)/x| (seen on random draws), so the bound is
    # 3 eps relative to the modulus
    z = complex(re, im)
    got = sinch(np.array([z]))
    assert got.dtype == np.complex128
    exact = _sin_over_x(z)
    err = abs(mpmath.mpc(complex(got[0])) - exact)
    assert err <= 3 * np.finfo(float).eps * abs(exact)


def test_sinch_real_dtypes():
    for x in (np.arange(3), np.float32([0.5, 2.0]), 0.25):
        assert sinch(x).dtype == np.float64


def test_sinch_subnormal_complex():
    # numpy's complex division by these gives inf+nanj; the series does not
    z = np.array([1e-310 + 0j, 5e-324 + 0j, 1e-310j])
    assert np.array_equal(sinch(z), np.ones(3))


def test_free_system_is_rotation():
    ham = Hamiltonian.identity(8.0, 8)
    zs = np.linspace(-4.0, 4.0, 17)
    for t in (0.0, 0.5, 3.75, 8.0):
        M = transfer_matrix(ham, t, zs).m
        assert np.allclose(M[..., 0, 0], np.cos(zs * t), atol=5e-15)
        assert np.allclose(M[..., 0, 1], np.sin(zs * t), atol=5e-15)
        assert np.allclose(M[..., 1, 0], -np.sin(zs * t), atol=5e-15)


def test_constant_diagonal_cell_closed_form():
    # H = diag(2, 1/2): M(t,z) = [[cos zt, sin(zt)/2], [-2 sin zt, cos zt]]
    ham = Hamiltonian.constant([[2.0, 0.0], [0.0, 0.5]], span=3.0)
    for z in (0.7, 1.3 + 0.4j, 2j):
        for t in (0.4, 1.0, 3.0):
            M = transfer_matrix(ham, t, z).m
            zt = z * t
            ref = np.array([[np.cos(zt), 0.5 * np.sin(zt)],
                            [-2.0 * np.sin(zt), np.cos(zt)]])
            assert np.max(np.abs(M - ref)) < 1e-12 * max(1.0, np.abs(ref).max())


def test_interior_times_continuous():
    rng = np.random.default_rng(5)
    ham = random_unimodular(rng, 4, span=4.0)
    z = 1.1 + 0.3j
    assert np.allclose(transfer_matrix(ham, 0.0, z).m, np.eye(2))
    # M(t, z) is continuous across cell boundaries
    for node in ham.grid.nodes[1:-1]:
        left = transfer_matrix(ham, node - 1e-9, z).m
        right = transfer_matrix(ham, node + 1e-9, z).m
        assert np.max(np.abs(left - right)) < 1e-7
    assert abs(transfer_matrix(ham, 3.3, z).det - 1.0) < 1e-12


def test_unimodularity_seeded_sweep():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(30):
        ham = random_unimodular(rng, 8, span=float(rng.uniform(3.0, 10.0)))
        zs = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-0.4, 0.4, 4)
        for t in rng.uniform(0.0, ham.grid.span, 3):
            dev = np.max(np.abs(transfer_matrix(ham, t, zs).det - 1.0))
            worst = max(worst, float(dev))
    assert worst < 1e-10


def test_theta_phi_columns_and_shapes():
    ham = Hamiltonian.identity(2.0, 2)
    zs = np.array([1j, 2.0, -1.0 + 0.5j])
    tm = transfer_matrix(ham, 1.5, zs)
    assert tm.theta.shape == (3, 2)
    assert tm.phi.shape == (3, 2)
    assert np.allclose(tm.theta[:, 0], np.cos(1.5 * zs))
    assert np.allclose(tm.phi[:, 1], np.cos(1.5 * zs))


def test_sweep_rows_rebuild_transfer_matrix():
    # every node's state, its scale put back, is Theta there; each state
    # is rescaled to largest modulus in [1/2, 1]
    rng = np.random.default_rng(23)
    ham = random_unimodular(rng, 5, span=5.0)
    z = np.array([0.5 + 0.8j, 2j])
    rows = list(_sweep(ham, z, 1))
    assert [k for k, _, _ in rows] == list(range(ham.grid.n_cells + 1))
    for (k, state, scale), node in zip(rows, ham.grid.nodes):
        rebuilt = (state[:, 0] * np.exp2(scale)).T
        ref = transfer_matrix(ham, node, z).theta
        assert np.allclose(rebuilt, ref, rtol=1e-12, atol=0.0)
        top = np.max(np.abs(state), axis=(0, 1))
        assert np.all((top >= 0.5) & (top <= 1.0))


@given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 12),
       span=st.floats(0.5, 20.0),
       xs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8))
def test_real_sweep_matches_complex(seed, n_cells, span, xs):
    # real z runs the sweep in float64; the same points as complex128
    # give the same states to rounding and the same power-of-two scales
    ham = random_unimodular(np.random.default_rng(seed), n_cells, span)
    x = np.asarray(xs)
    real = list(_sweep(ham, x, 2))
    cplx = list(_sweep(ham, x.astype(complex), 2))
    assert len(real) == len(cplx) == n_cells + 1
    for (k, a, sa), (kc, b, sb) in zip(real, cplx):
        assert k == kc
        assert a.dtype == np.float64 and b.dtype == np.complex128
        assert np.array_equal(sa, sb)
        top = np.max(np.abs(b), axis=(0, 1))
        assert np.all(np.abs(a - b) <= 1e-14 * top)
    alphas, nodes = wave_amplitudes(ham, x)
    ref, ref_nodes = wave_amplitudes(ham, x + 0j)
    assert alphas.dtype == np.complex128
    assert np.array_equal(nodes, ref_nodes)
    assert np.all(np.abs(alphas - ref) <= 1e-14 * np.abs(ref))


def test_rescale_is_exact():
    # the m = 1 and m = 2 sweeps remove different powers of two (Phi,
    # which only the m = 2 maximum sees, is 4x larger than Theta here);
    # with the scale put back both must give the unscaled product bit
    # for bit
    ham = Hamiltonian.constant([[0.25, 0.0], [0.0, 4.0]], span=30.0,
                               n_cells=12)
    z = np.array([0.3 + 2.0j, -1.0 + 5.0j, 2.0 + 0.1j])
    one = list(_sweep(ham, z, 1))
    two = list(_sweep(ham, z, 2))
    assert len(one) == len(two) == ham.grid.n_cells + 1
    assert any(np.any(s1 != s2) for (_, _, s1), (_, _, s2) in zip(one, two))
    for (_, a, s1), (_, b, s2) in zip(one, two):
        assert np.array_equal(_restore(a, s1, 30.0, z),
                              _restore(b[:, :1], s2, 30.0, z))


def test_matches_per_cell_product():
    # reference: the plain product of one closed-form propagator per cell
    rng = np.random.default_rng(37)
    ham = random_unimodular(rng, 9, span=7.0)
    zs = np.array([0.4 + 0.3j, -2.0 + 1.0j, 3.0 - 0.5j])
    ref = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
    for k in range(ham.grid.n_cells):
        d = np.sqrt(ham.dets[k])
        theta = zs * ham.grid.widths[k] * d
        G = J @ ham.cells[k]
        P = (np.cos(theta)[:, None, None] * np.eye(2)
             - (zs * ham.grid.widths[k] * np.sinc(theta / np.pi))[:, None, None]
             * G)
        ref = P @ ref
    M = transfer_matrix(ham, ham.grid.span, zs).m
    assert np.max(np.abs(M - ref)) < 1e-13 * np.max(np.abs(ref))


def _per_cell_sweep(ham, z, m):
    """The states and scales of the sweep from one closed-form propagator
    per cell, evaluated cell by cell, with the same substeps and rescale."""
    state = np.eye(2, m, dtype=np.result_type(z, np.float64))[..., None]
    state = state.repeat(z.size, axis=-1)
    scale = np.zeros(z.size, dtype=np.int64)
    rows = [(state, scale)]
    im_max = np.max(np.abs(z.imag), initial=0.0)
    for C, width in zip(ham.cells, ham.grid.widths):
        d = np.sqrt(np.maximum(C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0], 0.0))
        nsub = max(1, int(np.ceil(im_max * width * d / 200.0)))
        zw = width / nsub * z
        theta = zw * d
        P = (zw * sinch(theta)) * -(J @ C)[..., None]
        P[0, 0] += np.cos(theta)
        P[1, 1] += np.cos(theta)
        for _ in range(nsub):
            state = P[:, 0, None] * state[0] + P[:, 1, None] * state[1]
            e = np.frexp(np.abs(state).max(axis=(0, 1)))[1]
            state *= np.ldexp(1.0, -e)
            scale = scale + e
        rows.append((state, scale))
    return rows


_SWEEP_CASES = {
    # 2048 cells, 3 distinct (step, sqrt det) pairs
    "recovered": lambda: (
        inverse_spectral(sinc_bump_weight(0.5, 1.0), 20.0, 2048),
        np.linspace(-40.0, 40.0, 8)),
    # every pair distinct; complex z makes one block 256 KiB, past which
    # numpy may evaluate a product of temporaries in either operand
    # order, and complex128 products round differently by order
    "random_unimodular": lambda: (
        random_unimodular(np.random.default_rng(41), 2048, 20.0),
        np.linspace(-40.0, 40.0, 8) + 0.25j),
    "det_zero": lambda: (
        Hamiltonian.from_entries(np.linspace(0.0, 6.0, 7),
                                 [1.0, 0.0, 1.0, 2.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                                 [0.0, 1.0, 1.0, 0.5, 0.0, 1.0]),
        np.linspace(-40.0, 40.0, 8) + 0.5j),
    # |Im z| * width * sqrt(det) up to ~550 > 200: cells take 2 or 3 substeps
    "complex_substeps": lambda: (
        random_unimodular(np.random.default_rng(43), 12, 12.0),
        np.array([1.0 + 300j, -2.0 + 450j, 0.5 - 120j, 3.0, 0.1j, 7.0 - 1j,
                  -4.0 + 20j, 2.0 + 60j])),
}


@pytest.mark.parametrize("block", [solver._BLOCK, 64],
                         ids=["one-block", "8-cell-blocks"])
@pytest.mark.parametrize("name", sorted(_SWEEP_CASES))
def test_sweep_matches_per_cell_propagators(name, block, monkeypatch):
    # the sweep evaluates the trig once per distinct (step, d) and
    # gathers it into each block; the states must not move by a bit
    monkeypatch.setattr(solver, "_BLOCK", block)
    ham, z = _SWEEP_CASES[name]()
    if name == "complex_substeps":
        growth = np.max(np.abs(z.imag)) * ham.grid.widths * np.sqrt(ham.dets)
        assert np.max(growth) > 2 * 200.0
    for m in (1, 2):
        got = list(_sweep(ham, z, m))
        ref = _per_cell_sweep(ham, z, m)
        assert len(got) == len(ref) == ham.grid.n_cells + 1
        for (_, a, sa), (b, sb) in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b) and np.array_equal(sa, sb)


def test_sweep_takes_one_trig_row_per_distinct_step(monkeypatch):
    # the 2048 cells of the recovered sinc bump share 3 (step, sqrt det)
    # pairs; a sweep with a propagator trig per cell passes 2048 rows
    ham = inverse_spectral(sinc_bump_weight(0.5, 1.0), 20.0, 2048)
    pairs = np.unique(ham.grid.widths + 1j * np.sqrt(ham.dets)).size
    rows = []

    def counted(x):
        rows.append(len(x))
        return sinch(x)

    monkeypatch.setattr(solver, "sinch", counted)
    for _ in _sweep(ham, np.linspace(-1e3, 1e3, 4001), 1):   # 32 blocks
        pass
    assert pairs == 3
    assert sum(rows) <= pairs


def test_overflow_is_domain_error():
    # Im z * t = 8000 puts M(t, z) far beyond double range
    ham = inverse_spectral(sinc_bump_weight(0.5, 1.0), 20.0, 64)
    with pytest.raises(DomainError, match="Im z"):
        transfer_matrix(ham, 20.0, 1 + 400j)
    # the rescaled sweep itself stays finite
    for _, state, scale in _sweep(ham, np.array([1 + 400j]), 1):
        assert np.all(np.isfinite(state))
    assert np.log(2.0) * scale[0] > 7000.0


def test_non_finite_z_rejected():
    ham = Hamiltonian.identity(2.0, 2)
    for z in (np.nan, 1.0 + 1j * np.inf, complex(np.inf, 0.0)):
        with pytest.raises(DomainError):
            transfer_matrix(ham, 1.0, z)
        with pytest.raises(DomainError):
            next(_sweep(ham, np.array([0.5j, z]), 1))


_NAN_TIME_CALLS = {
    "transfer_matrix": lambda ham: transfer_matrix(ham, np.nan, 1 + 0.5j),
    "j_energy_residual": lambda ham: j_energy_residual(ham, np.nan, 0.5j),
    "krein_wave": lambda ham: krein_wave(ham, np.nan, 1.0),
    "reproducing_kernel": lambda ham: reproducing_kernel(ham, np.nan,
                                                         1.0, 0.5j),
    "Grid.cell_index": lambda ham: ham.grid.cell_index(np.nan),
    "Hamiltonian.at": lambda ham: ham.at(np.nan),
    "wave_amplitudes": lambda ham: wave_amplitudes(ham, 1.0, t_max=np.nan),
    "HalfLineFunction at -5": lambda ham: HalfLineFunction.from_uniform(
        [1.0, 2.0], tail=1.0)(-5.0),
    "HalfLineFunction at NaN": lambda ham: HalfLineFunction.from_uniform(
        [1.0, 2.0], tail=1.0)(np.nan),
}


@pytest.mark.parametrize("call", list(_NAN_TIME_CALLS))
def test_nan_time_rejected(call):
    # NaN fails every comparison, so a range check must fail closed
    with pytest.raises(DomainError):
        _NAN_TIME_CALLS[call](Hamiltonian.identity(4.0, 4))


def test_negative_t_max_rejected():
    # a negative wave time once truncated to the first cell
    ham = Hamiltonian.identity(4.0, 4)
    with pytest.raises(DomainError, match="t_max"):
        wave_amplitudes(ham, 1.0, t_max=-3.0)


def test_j_energy_residual_small():
    rng = np.random.default_rng(29)
    for _ in range(5):
        ham = random_unimodular(rng, 4, span=3.0)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1.0))
        assert j_energy_residual(ham, ham.grid.span, z) < 1e-8


def test_j_energy_residual_matches_the_identity_closed_form():
    # H = I: <J Theta, Theta> and the right side are both
    # -i sinh(2 Im z r) (up to sign), so the defect is pure rounding
    for r in (1.0, 4.0, 10.0):
        ham = Hamiltonian.identity(r, 4)
        for z in (1 + 0.5j, 0.3 + 1j, 2j, -1 + 0.2j):
            scale = abs(np.sinh(2.0 * z.imag * r))
            assert j_energy_residual(ham, r, z) <= 1e-14 * scale
    # r = 0 has no cell to integrate over: the defect is |LHS| = 0
    assert j_energy_residual(Hamiltonian.identity(2.0, 2), 0.0, 1 + 1j) == 0


def test_j_energy_residual_takes_the_span_slack():
    # this grid ends at 5.999999999999999; transfer_matrix accepts
    # t = 6.0 under its 1e-12 relative slack, and so does the energy
    rng = np.random.default_rng(5)
    random_unimodular(rng, 12, span=6.0)
    ham = random_unimodular(rng, 12, span=6.0)
    assert ham.grid.span < 6.0
    transfer_matrix(ham, 6.0, 1 + 0.5j)
    assert j_energy_residual(ham, 6.0, 1 + 0.5j) < 1e-10
    with pytest.raises(DomainError, match="outside grid span"):
        j_energy_residual(ham, 6.0 + 1e-9, 1 + 0.5j)


def _rounded_span_ham():
    # the second draw ends at 5.999999999999999, below its nominal span 6
    rng = np.random.default_rng(5)
    random_unimodular(rng, 12, span=6.0)
    return random_unimodular(rng, 12, span=6.0)


def _f_on(r):
    return HalfLineFunction.from_uniform([1.0, -0.5, 0.25], span=r)


# every entry point taking a time t on the grid (or the wave time 2t), and
# the argument its error names
_SPAN_CALLS = {
    "transfer_matrix": ("t", lambda ham, t: transfer_matrix(
        ham, t, 1 + 0.5j).m),
    "j_energy_residual": ("r", lambda ham, t: j_energy_residual(ham, t, 0.5j)),
    "Grid.cell_index": ("t", lambda ham, t: ham.grid.cell_index(t)),
    "Hamiltonian.at": ("t", lambda ham, t: ham.at(t)),
    "wave_amplitudes": ("t_max", lambda ham, t: wave_amplitudes(
        ham, 1.0, t_max=2 * t)[0]),
    "krein_wave": ("t", lambda ham, t: krein_wave(ham, 2 * t, 1.0)),
    "reproducing_kernel": ("r", lambda ham, t: reproducing_kernel(
        ham, 2 * t, 1.0, 1 + 0.5j)),
    "f_mu_apply": ("f span", lambda ham, t: f_mu_apply(
        ham, _f_on(2 * t), 1.0)),
    "isometry_residual": ("f span", lambda ham, t: isometry_residual(
        ham, constant_weight(1.0), _f_on(2 * t), X=50.0)),
}


@pytest.mark.parametrize("call", list(_SPAN_CALLS))
def test_one_time_axis_takes_the_span_slack(call):
    # one rule everywhere: a time within 1e-12 relative of the span (a
    # wave time of 2 span) is cut to it, and 1e-9 past it is refused
    name, fn = _SPAN_CALLS[call]
    ham = _rounded_span_ham()
    assert ham.grid.span < 6.0
    assert np.all(np.isfinite(fn(ham, 6.0)))
    with pytest.raises(DomainError, match=f"^{name} = 6.000000001|"
                                          f"^{name} = 12.000000002"):
        fn(ham, 6.0 + 1e-9)


@pytest.mark.parametrize("call", ["transfer_matrix", "j_energy_residual",
                                  "wave_amplitudes", "krein_wave",
                                  "reproducing_kernel"])
def test_single_time_entry_points_refuse_an_array(call):
    # these take one time (Grid.clip is elementwise); an array once ran
    # into an untyped TypeError or "truth value of an array" ValueError
    name, fn = _SPAN_CALLS[call]
    with pytest.raises(DomainError, match=f"^{name} must be a single time"):
        fn(_rounded_span_ham(), np.array([1.0, 2.0]))


def test_cell_index_is_elementwise():
    g = _rounded_span_ham().grid
    mids = 0.5 * (g.nodes[1:] + g.nodes[:-1])
    ts = np.concatenate([g.nodes, mids, [6.0]])
    ks = g.cell_index(ts)
    assert ks.shape == ts.shape
    assert ks.tolist() == [g.cell_index(t) for t in ts]
    assert np.array_equal(g.cell_index(g.nodes[:-1]), np.arange(g.n_cells))
    assert np.array_equal(g.cell_index(mids), np.arange(g.n_cells))
    # the last cell is closed on the right, at the span and within slack
    assert g.cell_index(g.span) == g.cell_index(6.0) == g.n_cells - 1
    # an array message names the offending value, not the array
    with pytest.raises(DomainError, match=r"^t = -1\.0 outside grid span"):
        g.cell_index(np.array([0.0, -1.0, 2.0, np.nan]))
