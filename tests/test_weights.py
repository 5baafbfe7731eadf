"""Weight families, file format, and accelerant kernels."""

import tracemalloc

import numpy as np
import pytest

from canonfactor import (DomainError, HalfLineFunction, Hamiltonian,
                         SpectralMeasure, UnsupportedFeatureError,
                         ValidationError, a2_ell1,
                         accelerant_from_weight, build_toeplitz,
                         constant_weight, cosine_bump_weight,
                         factor_via_transform, inverse_spectral,
                         isometry_residual, read_weight, sampled_weight,
                         sinc_bump_weight, step_weight, szego_K,
                         truncate_weight, weight_by_name, write_weight)
from canonfactor import accelerant, inverse


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
    if c == 1.0:
        assert not accelerant_from_weight(mu, [0.0, 1.0]).any()
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


# weights whose w - 1 is not integrable; the constant one takes the closed
# form w = c everywhere but in the accelerant itself
_TAIL_NOT_ONE = {
    "constant 2": constant_weight(2.0),
    "step outer 3": step_weight(2.0, 1.0, outer=3.0),
    "sampled tail 2": sampled_weight([-1.0, 1.0], [1.0, 3.0], tail=2.0),
}
_KERNEL_CALLS = {
    "accelerant_from_weight": lambda mu: accelerant_from_weight(
        mu, [0.0, 1.0]),
    "build_toeplitz": lambda mu: build_toeplitz(mu, 4, 0.5),
    "inverse_spectral": lambda mu: inverse_spectral(mu, 4.0, 8),
    "factor_via_transform": lambda mu: factor_via_transform(mu, 4.0, 8),
}

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
# bounds at construction (a NaN tail once reached szego_K as nan),
# accelerant_from_weight the integrability of w - 1, _check_even evenness
_CONTRACT = {
    **{f"SpectralMeasure {k}": (ValidationError, None,
                                lambda kw=kw: SpectralMeasure(
                                    _one, **{"c1": 1.0, "c2": 2.0, **kw}))
       for k, kw in _BAD_BOUNDS.items()},
    **{f"{call} {weight}": (DomainError, "truncate_weight",
                            lambda c=call, w=weight: _KERNEL_CALLS[c](
                                _TAIL_NOT_ONE[w]))
       for call in _KERNEL_CALLS for weight in _TAIL_NOT_ONE
       if call == "accelerant_from_weight" or weight != "constant 2"},
    "odd weight": (UnsupportedFeatureError, "even",
                   lambda: accelerant_from_weight(_odd_weight(), [0.0, 1.0])),
}


@pytest.mark.parametrize("case", list(_CONTRACT))
def test_the_symbol_contract(case):
    error, match, call = _CONTRACT[case]
    with pytest.raises(error, match=match):
        call()


def test_weight_by_name_dispatch():
    mu = weight_by_name("step", inner=3.0, half_width=0.5)
    assert mu(0.0) == 3.0 and mu(0.7) == 1.0
    with pytest.raises(DomainError):
        weight_by_name("nope")
    with pytest.raises(DomainError):
        weight_by_name("constant", c=-1.0)


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


# -- accelerants ---------------------------------------------------------------

def test_step_accelerant_is_sinc():
    # w - 1 = indicator of [-1,1]: k(t) = sin t / (pi t)
    mu = step_weight(2.0, 1.0)
    k = mu.closed_form_accelerant()
    ts = np.linspace(-6.0, 6.0, 41)
    ref = np.sinc(ts / np.pi) / np.pi
    assert np.max(np.abs(k(ts) - ref)) < 1e-14
    assert abs(k(0.0) - 1.0 / np.pi) < 1e-15


def test_sinc_bump_accelerant_is_hat():
    # w = 1 + A sinc^2(Bx) transforms to a triangular hat of radius 2B
    A, B = 0.5, 1.0
    ts = np.linspace(-3.0, 3.0, 25)
    k = accelerant_from_weight(sinc_bump_weight(A, B), ts)
    ref = (A / (2.0 * B)) * np.maximum(1.0 - np.abs(ts) / (2.0 * B), 0.0)
    assert np.max(np.abs(k - ref)) < 1e-14


def test_negative_control_accelerant():
    # w = 1 - indicator[-1/2,1/2]: k(t) = -sin(t/2)/(pi t)
    k = step_weight(0.0, 0.5).closed_form_accelerant()
    ts = np.array([0.3, 1.0, 4.0])
    assert np.allclose(k(ts), -np.sin(ts / 2.0) / (np.pi * ts), atol=1e-14)


def _density_only(mu):
    """The same weight without its stored closed-form accelerant."""
    return SpectralMeasure(mu, mu.c1, mu.c2, tail=1.0, window=mu.window,
                           breakpoints=mu.breakpoints)


def test_numeric_accelerant_matches_closed_forms():
    ts = np.linspace(0.0, 4.0, 33)
    for mu in (step_weight(2.0, 1.0), cosine_bump_weight(1.0, 1.0),
               sinc_bump_weight(0.5, 1.0)):
        ref = mu.closed_form_accelerant()
        dev = np.max(np.abs(accelerant_from_weight(mu, ts) - ref(ts)))
        assert dev < 1e-9, mu.label
    # the panel quadrature of w - 1 (the sinc bump's slow tail would
    # need ~10^7 nodes, so only the compactly supported deviations)
    for mu in (step_weight(2.0, 1.0), cosine_bump_weight(1.0, 1.0)):
        ref = mu.closed_form_accelerant()
        k = accelerant_from_weight(_density_only(mu), ts)
        assert np.max(np.abs(k - ref(ts))) < 1e-9, mu.label


def test_accelerant_even_and_interpolates():
    mu = cosine_bump_weight(1.0, 1.0)
    ts = np.linspace(0.0, 4.9, 23)
    for m in (mu, _density_only(mu)):
        assert np.allclose(accelerant_from_weight(m, -ts),
                           accelerant_from_weight(m, ts))


def test_truncate_weight_clamps_deviation():
    mu = sinc_bump_weight(0.5, 1.0)
    cut = truncate_weight(mu, 3.0)
    assert cut(10.0) == mu.tail
    assert cut(0.5) == mu(0.5)
    assert cut.window <= 3.0


def test_constant_weight_has_zero_accelerant():
    k = accelerant_from_weight(constant_weight(1.0), np.linspace(-2, 2, 9))
    assert np.array_equal(k, np.zeros(9))
    with pytest.raises(DomainError, match="truncate"):
        accelerant_from_weight(constant_weight(2.0), [0.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        accelerant_from_weight(step_weight(2.0, 1.0), [0.0, np.nan])


def test_numeric_kernel_memory_is_blocked(monkeypatch):
    # the kernel of a truncated weight has no closed form; the whole
    # (2N, Q) array cos(t x) took 97 MB traced at N = 1024
    mu = truncate_weight(sinc_bump_weight(0.5, 1.0), 30.0)
    inverse._cell_waves(mu, 20.0, 8)
    tracemalloc.start()
    try:
        col = inverse._cell_waves(mu, 20.0, 1024)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    # one block of every time is the one-shot kernel
    monkeypatch.setattr(accelerant, "_BLOCK", 1 << 62)
    ref = inverse._cell_waves(mu, 20.0, 1024)[1]
    assert np.max(np.abs(col - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_numeric_kernel_refuses_a_tail_beyond_the_window():
    # a tail bound says w - 1 reaches past the window; doubling the
    # window up to 1e6 took 6.5 s for 16 times of the sinc bump and
    # still missed its closed form by 4.9e-8, so the kernel refuses
    # before it evaluates anything beyond the evenness probe
    mu = sinc_bump_weight(0.5, 1.0)
    points = []

    def dens(x):
        points.append(np.size(x))
        return mu(x)

    plain = SpectralMeasure(dens, mu.c1, mu.c2, tail=1.0, window=mu.window,
                            tail_bound=mu.tail_bound)
    with pytest.raises(DomainError, match="truncate_weight"):
        accelerant_from_weight(plain, np.linspace(0.0, 4.0, 16))
    assert sum(points) <= 8
    # a bound already negligible at the window lets the kernel run
    tight = SpectralMeasure(dens, mu.c1, mu.c2, tail=1.0, window=30.0,
                            tail_bound=lambda X: 0.0)
    k = accelerant_from_weight(tight, [0.0, 1.0])
    assert np.all(np.isfinite(k))


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
    "a2_ell1 offset nan": lambda: a2_ell1(_STEPS, offset=np.nan),
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
