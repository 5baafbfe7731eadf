"""Weight families, file format, and the discrete symbol."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from canonfactor import (DomainError, HalfLineFunction, Hamiltonian,
                         SpectralMeasure, UnsupportedFeatureError,
                         ValidationError, a2_ell1, build_toeplitz,
                         constant_weight, cosine_bump_weight,
                         factor_via_transform, inverse_spectral,
                         isometry_residual, read_weight, sampled_weight,
                         sinc_bump_weight, step_weight, szego_K,
                         truncate_weight, write_weight)
from canonfactor import accelerant


def test_weight_family_bounds():
    mu = step_weight(2.0, 1.0)
    assert mu.c1 == 1.0 and mu.c2 == 2.0
    assert mu.tail == 1.0 and mu.window == 1.0
    mu = sinc_bump_weight(0.5, 1.0)
    assert mu.c1 == 1.0 and mu.c2 == 1.5
    mu = constant_weight(0.7)
    assert mu.is_constant and mu(123.0) == 0.7


@pytest.mark.parametrize("keep_tail", [True, False])
@pytest.mark.parametrize("c", [1.0, 2.0])
def test_equal_samples_take_the_constant_path(c, keep_tail):
    # constancy is read off the bounds, with or without a declared tail
    mu = sampled_weight([-1.0, 0.0, 2.0], [c, c, c],
                        tail=c if keep_tail else None)
    assert mu.is_constant
    ham = inverse_spectral(mu, 4.0, 8)
    assert np.array_equal(ham.cells, np.tile(np.diag([1.0 / c, c]), (8, 1, 1)))
    assert np.array_equal(build_toeplitz(mu, 5, 0.5).matrix, c * np.eye(5))
    A, _ = factor_via_transform(mu, 4.0, 6)
    assert np.array_equal(A, np.sqrt(c) * np.eye(6))
    assert szego_K(mu, 2.0j) == 0.0


def test_zero_bounds_are_not_constant():
    assert not SpectralMeasure(np.zeros_like, 0.0, 0.0).is_constant


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _odd_weight():
    # 1 + 1/2 on (0, 1] only: bounded, tail 1, and not even
    return SpectralMeasure(
        lambda x: np.where((0 < x) & (x <= 1), 1.5, 1.0), 1.0, 1.5,
        tail=1.0, window=1.0)


# weights with a tail other than 1: the windowed section is the Gram
# matrix of w, so its spectrum lies in [c1, c2] whatever the tail
_TAIL_NOT_ONE = {
    "step outer 3": step_weight(2.0, 1.0, outer=3.0),
    "sampled tail 2": sampled_weight([-1.0, 0.0, 1.0], [1.0, 3.0, 1.0],
                                     tail=2.0),
}
# each call's certified (or, for the factor, computed) spectrum of W
_KERNEL_CALLS = {
    "build_toeplitz": lambda mu: _extremes(build_toeplitz(mu, 4, 0.5)),
    "inverse_spectral": lambda mu: _extremes(
        inverse_spectral(mu, 4.0, 8, report=True)[1]),
    "factor_via_transform": lambda mu: _extremes(factor_via_transform(
        mu, 4.0, 8)[0], gram=True),
}


def _extremes(out, gram=False):
    if gram:
        lam = np.linalg.eigvalsh(out.T @ out)
        return lam[0], lam[-1]
    return out.min_eig, out.max_eig


# keyword arguments that break SpectralMeasure(_one, c1=1, c2=2, ...)
_BAD_BOUNDS = {
    "tail nan": {"tail": np.nan, "window": 1.0},
    "tail inf": {"tail": np.inf},
    "tail above c2": {"tail": 3.0},
    "tail below c1": {"tail": 0.5},
    "window nan": {"window": np.nan},
    "window inf": {"window": np.inf},
    "window negative": {"window": -1.0},
    "c2 inf": {"c2": np.inf},
}

# the symbol's contract, one check per rule: SpectralMeasure checks the
# bounds at construction (a NaN tail once reached szego_K as nan) and
# _check_even evenness; a tail other than 1 is no error, so those cases
# are (None, the weight, its call)
_CONTRACT = {
    **{f"SpectralMeasure {k}": (ValidationError, None,
                                lambda kw=kw: SpectralMeasure(
                                    _one, **{"c1": 1.0, "c2": 2.0, **kw}))
       for k, kw in _BAD_BOUNDS.items()},
    **{f"{call} {weight}": (None, _TAIL_NOT_ONE[weight],
                            lambda c=call, w=weight: _KERNEL_CALLS[c](
                                _TAIL_NOT_ONE[w]))
       for call in _KERNEL_CALLS for weight in _TAIL_NOT_ONE},
    "odd weight": (UnsupportedFeatureError, "even",
                   lambda: build_toeplitz(_odd_weight(), 4, 0.5)),
}


@pytest.mark.parametrize("case", list(_CONTRACT))
def test_the_symbol_contract(case):
    error, match, call = _CONTRACT[case]
    if error is None:
        lo, hi = call()
        mu = match
        assert mu.c1 * (1.0 - 1e-10) <= lo <= hi <= mu.c2 * (1.0 + 1e-10)
        return
    with pytest.raises(error, match=match):
        call()


def test_weight_evaluation_vectorized():
    mu = step_weight(2.0, 1.0)
    xs = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    assert np.array_equal(mu(xs), [1.0, 2.0, 2.0, 2.0, 1.0])


def test_weight_file_round_trip(tmp_path):
    x = np.linspace(-3.0, 3.0, 25)
    mu = sampled_weight(x, 1.0 + 0.5 * np.exp(-x * x), tail=1.0)
    path = tmp_path / "w.txt"
    write_weight(mu, path, x)
    back = read_weight(path)
    assert np.array_equal(back(x), mu(x))
    path.write_text("1.0 2.0\n")
    with pytest.raises(ValidationError):
        read_weight(path)


@pytest.mark.parametrize("body", ["", "0 x\n1 2\n", "0 1 2\n"])
def test_read_weight_malformed_rows(tmp_path, body):
    path = tmp_path / "w.txt"
    path.write_text("#weight v1\n" + body)
    with pytest.raises(ValidationError):
        read_weight(path)


# -- the discrete symbol ------------------------------------------------------

def _column_by_quad(mu, h, lags):
    """(h/pi) int_0^{pi/h} w(x) cos(xhm) dx by scipy's QAWO, piece by
    piece between the breakpoints of w."""
    X = np.pi / h
    cuts = [0.0, *sorted(b for b in mu.breakpoints if 0.0 < b < X), X]
    return np.array([h / np.pi * sum(
        quad(mu, a, b, weight="cos", wvar=h * m, epsabs=1e-13,
             epsrel=1e-13, limit=200)[0] for a, b in zip(cuts, cuts[1:]))
        for m in lags])


@pytest.mark.parametrize("mu", [sinc_bump_weight(0.5, 1.0),
                                sinc_bump_weight(-0.6, 1.0),
                                cosine_bump_weight(1.0, 1.0),
                                step_weight(2.0, 1.0, outer=3.0)],
                         ids=["sinc-0.5", "sinc-neg0.6", "cosine-bump",
                              "step-outer-3"])
def test_toeplitz_column_matches_quad(mu):
    # the column is the windowed Gram column of w, for any tail
    h, n = 0.25, 96
    lags = np.array([0, 1, 2, 7, 30, 61, 95])
    col = accelerant._toeplitz_column(mu, h, n)
    assert np.max(np.abs(col[lags] - _column_by_quad(mu, h, lags))) <= 1e-13


def test_step_column_is_the_windowed_sinc():
    # for a step inside the window, delta_m + (c - 1)(a h/pi) sinch(a h m)
    # exactly, the sampled kernel with no aliasing
    c, a, h, n = 3.0, 1.3, 0.2, 200
    m = np.arange(n)
    ref = (m == 0) + (c - 1.0) * (a * h / np.pi) * np.sinc(a * h * m / np.pi)
    col = accelerant._toeplitz_column(step_weight(c, a), h, n)
    assert np.max(np.abs(col - ref)) <= 1e-14


@pytest.mark.parametrize("h", [np.pi, 1.0, 0.5])
def test_low_step_section_is_certified(h):
    # c1 = 0.01 > 0, so the section is positive definite at every step;
    # the periodized column had min eigenvalues -8.9, -2.96 and -0.98
    tw = build_toeplitz(step_weight(0.01, 10.0), 64, h)
    assert tw.min_eig >= 0.01 * (1.0 - 1e-10)


def test_sampled_weight_memory_is_bounded():
    # the cut panels once took a (lags x nodes) table of exponentials:
    # 552 MB traced for the factor of this weight at n = 1024
    x = np.linspace(-5.0, 5.0, 1001)
    mu = sampled_weight(x, 1.0 + 0.5 * np.exp(-x * x))
    for call in (lambda: inverse_spectral(mu, 20.0, 2048),
                 lambda: factor_via_transform(mu, 12.8, 1024)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6


def test_truncate_weight_clamps_deviation():
    mu = sinc_bump_weight(0.5, 1.0)
    cut = truncate_weight(mu, 3.0)
    assert cut(10.0) == mu.tail
    assert cut(0.5) == mu(0.5)
    assert cut.window <= 3.0


def test_repr_names_the_density_and_its_bounds():
    # the name is read off the function that defined the density
    assert repr(step_weight(2.0, 1.0)) == (
        "SpectralMeasure(step_weight, c1=1.0, c2=2.0, tail=1.0)")
    assert repr(truncate_weight(sinc_bump_weight(0.5, 1.0), 3.0)) == (
        "SpectralMeasure(truncate_weight, c1=1.0, c2=1.5, tail=1.0)")
    assert repr(SpectralMeasure(np.zeros_like, 0.0, 0.0)) == (
        "SpectralMeasure(zeros_like, c1=0.0, c2=0.0, tail=None)")


_STEPS = HalfLineFunction.from_uniform([1.0, 2.0, 0.5], span=3.0, tail=1.0)

# each once returned nan, a plausible weight (NaN parameters made c1 = c2
# = 1 through the builtin min, so the weight read as constant) or an
# untyped error
_NONFINITE_CALLS = {
    "sinc_bump_weight A": lambda: sinc_bump_weight(np.nan, 1.0),
    "sinc_bump_weight B": lambda: sinc_bump_weight(0.5, np.nan),
    "cosine_bump_weight A": lambda: cosine_bump_weight(np.nan, 1.0),
    "cosine_bump_weight a": lambda: cosine_bump_weight(1.0, np.inf),
    "step_weight": lambda: step_weight(2.0, np.nan),
    "constant_weight": lambda: constant_weight(np.inf),
    "truncate_weight nan": lambda: truncate_weight(
        sinc_bump_weight(0.5, 1.0), np.nan),
    "truncate_weight inf": lambda: truncate_weight(
        sinc_bump_weight(0.5, 1.0), np.inf),
    "szego_K": lambda: szego_K(step_weight(2.0, 1.0), complex(np.nan, 1.0)),
    "a2_ell1 window nan": lambda: a2_ell1(_STEPS, window=np.nan),
    "a2_ell1 window inf": lambda: a2_ell1(_STEPS, window=np.inf),
    "isometry_residual X": lambda: isometry_residual(
        Hamiltonian.identity(2.0), constant_weight(1.0),
        HalfLineFunction.from_uniform([1.0, -1.0], span=2.0), X=np.nan),
    "HalfLineFunction tail": lambda: HalfLineFunction.from_uniform(
        [1.0, 2.0], tail=np.nan),
    "HalfLineFunction.integrate": lambda: _STEPS.integrate(np.nan, 1.0),
}


@pytest.mark.parametrize("call", list(_NONFINITE_CALLS))
def test_nonfinite_parameters_are_refused(call):
    with pytest.raises(DomainError):
        _NONFINITE_CALLS[call]()
