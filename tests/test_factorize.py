"""Discretized Wiener-Hopf operators and their triangular factorization."""

import tracemalloc
import warnings

import numpy as np
import pytest

from canonfactor import (DomainError, Grid, Hamiltonian, SpectralMeasure,
                         SpectralPositivityError, ValidationError,
                         build_toeplitz, chain_preservation_check,
                         cholesky_oracle, constant_weight,
                         cosine_bump_weight, factor_via_transform,
                         inverse_spectral, read_matrix,
                         sampled_weight, sinc_bump_weight, step_weight,
                         wave_amplitudes, write_matrix, write_weight)
from canonfactor import factorize, inverse
from canonfactor.quadrature import gauss_legendre


def test_build_toeplitz_constant():
    wh = build_toeplitz(constant_weight(2.0), 6, 0.5)
    assert np.allclose(wh.matrix, 2.0 * np.eye(6))
    assert wh.symbol_bounds == (2.0, 2.0)
    assert wh.cond == 1.0
    # c I exactly: I + (c - 1) I rounds for c = 0.1 and 0.3
    for c in (0.1, 0.3):
        wh = build_toeplitz(constant_weight(c), 4, 0.5)
        assert np.array_equal(wh.matrix, np.diag(np.full(4, c)))
        assert wh.min_eig == wh.max_eig == c


def test_build_toeplitz_step_structure():
    wh = build_toeplitz(step_weight(2.0, 1.0), 32, 0.2)
    A = wh.matrix
    assert np.allclose(A, A.T)
    # Toeplitz: constant diagonals
    assert np.allclose(np.diff(np.diag(A, 1)), 0.0, atol=1e-15)
    assert wh.min_eig > 0
    # symbol bounds bracket the spectrum (Grenander-Szego)
    assert wh.min_eig >= wh.symbol_bounds[0] - 1e-10
    assert wh.max_eig <= wh.symbol_bounds[1] + 1e-10
    # the extremes are certified: on the outer side of the dense
    # eigenvalues, within 1e-9 relative, also for a 1 x 1 section
    for n in (32, 1):
        wh = build_toeplitz(step_weight(2.0, 1.0), n, 0.2)
        eigs = np.linalg.eigvalsh(wh.matrix)
        assert eigs[0] * (1.0 - 1e-9) <= wh.min_eig <= eigs[0]
        assert eigs[-1] <= wh.max_eig <= eigs[-1] * (1.0 + 1e-9)


def test_cholesky_oracle_hand_value():
    L = cholesky_oracle(np.array([[2.0, 1.0], [1.0, 2.0]]))
    ref = np.array([[np.sqrt(2.0), 0.0],
                    [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
    assert np.allclose(L, ref, atol=1e-15)


def test_cholesky_oracle_rejects_indefinite():
    with pytest.raises(SpectralPositivityError):
        cholesky_oracle(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_chain_preservation_check_values():
    eps = 1e-3
    A = np.array([[1.0, 5.0], [eps, 1.0]])
    assert abs(chain_preservation_check(A) - eps) < 1e-18
    assert chain_preservation_check(np.triu(np.ones((5, 5)))) == 0.0
    B = np.zeros((3, 3))
    B[2, 0] = 3.0
    B[2, 1] = 4.0
    assert abs(chain_preservation_check(B) - 5.0) < 1e-15


def _leaks_by_blocks(A):
    """Reference: every block mass sum_{i >= k, j < k} A[i, j]^2 from two
    cumulative sums over the whole of A."""
    n = A.shape[0]
    if n < 2:
        return 0.0
    sq = A * A
    colsum_below = np.cumsum(sq[::-1], axis=0)[::-1]
    blocks = np.cumsum(colsum_below, axis=1)
    leaks = blocks[np.arange(1, n), np.arange(n - 1)]
    return float(np.sqrt(max(leaks.max(), 0.0)))


@pytest.mark.parametrize("kind, n", [("random", 1), ("random", 2),
                                     ("random", 9), ("random", 300),
                                     ("upper", 50), ("graded", 64)])
def test_chain_preservation_check_matches_block_sums(kind, n):
    # one pass over the strict lower triangle gives the block masses of
    # the two-cumsum formula
    A = np.random.default_rng(n).normal(size=(n, n))
    if kind == "upper":
        A = np.triu(A)
    elif kind == "graded":
        A *= np.exp(-np.abs(np.subtract.outer(np.arange(n), np.arange(n))))
    ref = _leaks_by_blocks(A)
    assert abs(chain_preservation_check(A) - ref) <= 1e-13 * ref


def test_factor_constant_weight_is_scaled_identity():
    A, rep = factor_via_transform(constant_weight(4.0), 4.0, 8)
    assert np.allclose(A, 2.0 * np.eye(8))
    assert rep.residual < 1e-14
    assert rep.leakage == 0.0


def test_factor_step_weight_small():
    A, rep = factor_via_transform(step_weight(2.0, 1.0), 9.6, 96)
    assert rep.residual < 1e-3
    assert rep.vs_cholesky < 1e-2
    # rep.leakage is the below-diagonal mass *before* it is zeroed, a
    # discretization diagnostic; ~1e-5 at this coarse n
    assert rep.leakage < 1e-4
    assert np.array_equal(A, np.triu(A))    # stored factor is triangular
    assert rep.cond ** 2 < 1.2 * 2.0
    assert rep.min_abs_diag > 0


def test_factor_bump_weight_small(bump_mu):
    A, rep = factor_via_transform(bump_mu, 9.6, 96)
    assert rep.residual < 1e-3
    assert rep.vs_cholesky < 2e-2
    assert rep.cond ** 2 < 1.2 * 1.5


@pytest.mark.parametrize("mu, R, n, tol", [
    pytest.param(step_weight(2.0, 1.0), 9.6, 96, 1e-12, id="step_mu"),
    pytest.param(sinc_bump_weight(0.5, 1.0), 9.6, 96, 1e-12, id="bump_mu"),
    # c1/c2 = 1e-14, yet cond(A) ~ 148; the eigensolve of A^T A squares
    # that and still agrees with the SVD's cond to ~1e-11
    pytest.param(step_weight(1e-14, 1.0), 12.8, 32, 1e-9, id="inner_1e-14"),
    # the criterion-7 weights and sizes
    *(pytest.param(mu, 12.8, n, 1e-12, id=f"{tag}_{n}")
      for tag, mu in (("crit7_step", step_weight(2.0, 1.0)),
                      ("crit7_bump", sinc_bump_weight(0.5, 1.0)))
      for n in (256, 512)),
])
def test_factor_report_norms_match_svd(mu, R, n, tol):
    # cond comes off the report's one eigensolve and stays where the SVD
    # puts it; residual and vs_cholesky are O(n^2) upper bounds on the
    # 2-norms of the dense oracle, never below them and within 2.5x
    # (1.07-1.92x measured on these cases)
    A, rep = factor_via_transform(mu, R, n)
    W = build_toeplitz(mu, n, R / n).matrix
    L = np.linalg.cholesky(W)
    norm2 = np.linalg.norm
    cond = np.linalg.cond(A)
    assert abs(rep.cond - cond) <= tol * cond
    exact = {"residual": norm2(W - A.T @ A, 2) / norm2(W, 2),
             "vs_cholesky": norm2(A - L.T, 2) / norm2(L, 2)}
    for field, b in exact.items():
        assert b <= getattr(rep, field) <= 2.5 * b, field


def test_factor_report_makes_one_eigensolve(monkeypatch):
    # only cond needs a spectrum; the other report norms are O(n^2) sums
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(S):
        shapes.append(S.shape)
        return eigvalsh(S)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    factor_via_transform(sinc_bump_weight(0.5, 1.0), _R, 64)
    assert shapes == [(64, 64)]


@pytest.mark.parametrize("scale", [0.0, 1e-3])
def test_useless_factor_reports_infinite_bounds(scale, monkeypatch):
    # a factor with lambda_max(A^T A) <= ||W - A^T A||_1 certifies no
    # lower bound on ||W||: its residual and vs_cholesky read inf, quietly
    rng = np.random.default_rng(5)
    monkeypatch.setattr(
        factorize, "_lag_assembly",
        lambda p, mu, h, n: scale * np.triu(rng.normal(size=(n, n))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = factor_via_transform(step_weight(2.0, 1.0), _R, 64)
    assert rep.residual == rep.vs_cholesky == np.inf


# call -> (call on the length, its name, the error type of length <= 0)
_LENGTH_CALLS = {
    "build_toeplitz-constant": (
        lambda v: build_toeplitz(constant_weight(2.0), 4, v), "h",
        ValidationError),
    "build_toeplitz-step": (
        lambda v: build_toeplitz(step_weight(2.0, 1.0), 4, v), "h",
        ValidationError),
    "factor_via_transform-constant": (
        lambda v: factor_via_transform(constant_weight(4.0), v, 8), "R",
        ValidationError),
    "factor_via_transform-step": (
        lambda v: factor_via_transform(step_weight(2.0, 1.0), v, 8), "R",
        ValidationError),
    "inverse_spectral-constant": (
        lambda v: inverse_spectral(constant_weight(2.0), v, 8), "R",
        DomainError),
    "inverse_spectral-bump": (
        lambda v: inverse_spectral(sinc_bump_weight(0.5, 1.0), v, 8), "R",
        DomainError),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0],
                         ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("call", sorted(_LENGTH_CALLS))
def test_bad_length_rejected(call, value):
    # NaN fails every comparison: the length checks must fail closed and
    # name the argument, never return h = nan
    fn, name, error = _LENGTH_CALLS[call]
    with pytest.raises(error, match=f"^{name} must be positive"):
        fn(value)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0, 8.5],
                         ids=["nan", "inf", "zero", "fraction"])
def test_bad_size_rejected(value):
    # NaN and inf pass an n < 1 check and int() of them is untyped; 8.5
    # cells were truncated to 8, or built a 9 x 9 matrix labelled n = 8.5
    bump, step = sinc_bump_weight(0.5, 1.0), step_weight(2.0, 1.0)
    for fn in (lambda: inverse_spectral(bump, 4.0, value),
               lambda: factor_via_transform(step, 4.0, value),
               lambda: build_toeplitz(step, value, 0.5)):
        with pytest.raises(ValidationError, match="size must be a whole number"):
            fn()


def test_whole_float_size_accepted():
    # a whole-number float size is the int it equals, in every entry point
    bump, step = sinc_bump_weight(0.5, 1.0), step_weight(2.0, 1.0)
    for fn in (lambda n: inverse_spectral(bump, 4.0, n).cells,
               lambda n: factor_via_transform(step, 4.0, n)[0],
               lambda n: build_toeplitz(step, n, 0.5).matrix,
               lambda n: build_toeplitz(constant_weight(2.0), n, 0.5).matrix):
        assert np.array_equal(fn(8.0), fn(8))
    assert type(build_toeplitz(step, 8.0, 0.5).n) is int


def _dense_assembly(p, mu, h, n):
    """Reference pairing: the waves of the Hamiltonian diag(p^2, 1/p^2)
    on the cells [c, c + 1] h/2, order-16 Gauss-Legendre on the max(n, 4)
    uniform panels of [0, pi/h], also cut at the breakpoints of w, and
    one dense (n, Q) x (Q, n) product."""
    cells = np.zeros((n, 2, 2))
    cells[:, 0, 0], cells[:, 1, 1] = p * p, 1.0 / (p * p)
    ham = Hamiltonian(Grid(0.5 * h * np.arange(n + 1)), cells)
    X = np.pi / h
    edges = np.unique(np.concatenate([
        np.linspace(0.0, X, max(n, 4) + 1),
        [p for p in mu.breakpoints if 0.0 < p < X]]))
    nodes, wq = gauss_legendre(16, edges[:-1], edges[1:])
    nodes, wq = nodes.ravel(), wq.ravel()
    alphas = wave_amplitudes(ham, nodes + 0j)[0][:n]
    phase = np.exp(1j * nodes[None, :] * (h * np.arange(n))[:, None])
    B = (np.conj(alphas * phase) * (np.asarray(mu(nodes)) * wq)[None, :]
         * (h / np.pi))
    return (B @ phase.T).real


_R = 12.8


def _sampled(n):
    """Even piecewise-linear weight with ~50 breakpoints on each side,
    one of them exactly on an interior panel edge of the size-n pairing
    (P = max(n, 4) panels of [0, pi n/R])."""
    P = max(n, 4)
    edge = np.linspace(0.0, np.pi / (_R / n), P + 1)[P // 2 + 1]
    xp = np.unique(np.concatenate([np.linspace(0.05, 20.0, 48), [edge]]))
    x = np.concatenate([-xp[::-1], xp])
    return sampled_weight(x, 1.0 + 0.5 * np.cos(x) ** 2)


_WEIGHTS = {
    "step": lambda n: step_weight(2.0, 1.0),
    "cosine-bump": lambda n: cosine_bump_weight(1.0, 1.0),
    "sinc-bump": lambda n: sinc_bump_weight(0.5, 1.0),
    "sampled": _sampled,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 37, 128])
@pytest.mark.parametrize("name", sorted(_WEIGHTS))
def test_lag_assembly_matches_dense_pairing(name, n, monkeypatch):
    mu = _WEIGHTS[name](n)
    h = _R / n
    if name == "sampled" and n >= 37:
        # dozens of panels are cut, and the edge breakpoint cuts none
        inside = [b for b in mu.breakpoints if 0.0 < b < np.pi / h]
        on_edge = np.isin(inside, np.linspace(0.0, np.pi / h, n + 1))
        assert on_edge.sum() == 1 and (~on_edge).sum() >= 19
    p = inverse._cell_waves(mu, _R / 2.0, n)[0]
    A = factorize._lag_assembly(p, mu, h, n)
    assert A.shape == (n, n)
    assert np.max(np.abs(A - _dense_assembly(p, mu, h, n))) <= 1e-12
    A, rep = factor_via_transform(mu, _R, n)
    monkeypatch.setattr(factorize, "_lag_assembly", _dense_assembly)
    A_ref, ref = factor_via_transform(mu, _R, n)
    assert np.max(np.abs(A - A_ref)) <= 1e-12
    for field in ("residual", "cond", "leakage", "vs_cholesky",
                  "min_abs_diag"):
        a, b = getattr(rep, field), getattr(ref, field)
        # the bounds of a useless factor read inf on both routes
        assert a == b or abs(a - b) <= 1e-12 * max(1.0, abs(b)), field


@pytest.mark.parametrize("mu", [step_weight(2.0, 1.0),
                                sinc_bump_weight(0.5, 1.0)],
                         ids=["step", "sinc-bump"])
def test_factor_converges_at_second_order(mu):
    # residual and vs_cholesky fall ~4x per doubling of n (observed
    # orders 1.97-1.98); a first-order regression reads ~1 here
    sizes = np.array([256, 512, 1024])
    figures = np.array([[rep.residual, rep.vs_cholesky] for rep in
                        (factor_via_transform(mu, _R, n)[1] for n in sizes)])
    orders = -np.polyfit(np.log2(sizes), np.log2(figures), 1)[0]
    assert np.all(orders >= 1.8), orders


def test_factor_memory_stays_below_one_dense_node_array():
    # one (n, 16n) complex array at n = 512 is 64 MiB; the streamed
    # assembly holds none
    mu = step_weight(2.0, 1.0)
    factor_via_transform(mu, _R, 8)
    tracemalloc.start()
    try:
        factor_via_transform(mu, _R, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 16 * 512 * 16


def test_factor_report_is_parsable():
    _, rep = factor_via_transform(constant_weight(1.0), 2.0, 4)
    text = str(rep)
    assert "residual=" in text
    assert "leakage=" in text
    assert "cond=" in text


def test_vanishing_weight_degenerates():
    # w = 0 on [-1/2, 1/2]: the discrete operator stays positive at any
    # finite size but its floor collapses as the grid refines
    lows = [build_toeplitz(step_weight(0.0, 0.5), n, 0.05).min_eig
            for n in (32, 64, 128)]
    assert lows[0] > lows[1] > lows[2] > 0
    # w = 0 on [-1, 1] and h = pi give the singular 1 x 1 section [0]
    with pytest.raises(SpectralPositivityError):
        build_toeplitz(step_weight(0.0, 1.0), 1, np.pi)


def test_degenerate_sections_are_warning_free():
    # the inverse Lanczos of a (near-)singular section overflows; the
    # certificate must bisect past it quietly and end in the typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lows = [build_toeplitz(step_weight(0.0, 0.5), n, 0.05).min_eig
                for n in (32, 64, 128)]
        assert lows[0] > lows[1] > lows[2] > 0
        with pytest.raises(SpectralPositivityError):
            build_toeplitz(step_weight(0.0, 1.0), 1, np.pi)


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    A = rng.normal(size=(7, 5))
    path = tmp_path / "m.txt"
    write_matrix(A, path)
    back = read_matrix(path)
    assert np.array_equal(back, A)


@pytest.mark.parametrize("text", [
    "#matrix v1 2 2\n",                    # header only
    "#matrix v1\n1 2\n3 4\n",              # short header
    "#matrix v1 2 2\n1 2\n3 x\n",          # non-numeric field
    "#matrix v1 2 2\n1 2\n3\n",            # ragged rows
])
def test_read_matrix_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValidationError, match="bad.txt"):
        read_matrix(path)


def _write_matrix_with(bad, path):
    write_matrix([[1.0, bad], [0.0, 1.0]], path)


def _write_weight_with(bad, path):
    # a measure whose density is non-finite for x > 0
    mu = SpectralMeasure(lambda x: np.where(x > 0.0, bad, 1.0), 1.0, 1.0)
    write_weight(mu, path, [-1.0, 0.5, 1.0])


_BAD = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("write, bad", [
    *(pytest.param(_write_matrix_with, b, id=str(b)) for b in _BAD),
    *(pytest.param(_write_weight_with, b, id=f"weight:{b}")
      for b in _BAD)])
def test_write_matrix_rejects_nonfinite(tmp_path, write, bad):
    path = tmp_path / "m.txt"
    with pytest.raises(ValidationError, match="m.txt"):
        write(bad, path)
    assert not path.exists()
