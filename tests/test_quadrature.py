"""Batched adaptive Gauss-Kronrod quadrature."""

import numpy as np
import pytest

from canonfactor import ConvergenceError, DomainError
from canonfactor.quadrature import (NODES, WEIGHTS_G, WEIGHTS_K,
                                    gauss_kronrod, gauss_legendre)


def test_gauss_legendre_exact_on_uneven_panels():
    # the order-p rule integrates every monomial of degree <= 2p - 1
    # exactly on each panel, whatever the panel widths
    edges = np.array([-1.0, -0.7, -0.65, 0.1, 0.9, 1.2])
    a, b = edges[:-1], edges[1:]
    for p in (1, 2, 3, 8, 10, 16):
        x, w = gauss_legendre(p, a, b)
        assert x.shape == w.shape == (a.size, p)
        for k in range(2 * p):
            got = np.sum(w * x ** k, axis=1)
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert np.max(np.abs(got - exact)) <= 1e-13, (p, k)


def test_rules_are_exact_on_polynomials():
    gauss, _ = np.polynomial.legendre.leggauss(10)
    assert np.allclose(NODES[1::2], gauss, rtol=0, atol=1e-15)
    for p in range(32):
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
        assert abs(WEIGHTS_K @ NODES ** p - exact) < 1e-15
        if p < 20:
            assert abs(WEIGHTS_G @ NODES ** p - exact) < 1e-15


def test_integrands_share_one_evaluation():
    calls = []

    def f(t):
        calls.append(t.size)
        return np.stack([np.cos(t), 1.0 / (1.0 + t * t), np.sqrt(t)])

    got = gauss_kronrod(f, [0.0, 1.0, 3.0, 10.0], 1e-13, 1e-12)
    ref = [np.sin(10.0), np.arctan(10.0), (2.0 / 3.0) * 10.0 ** 1.5]
    assert np.max(np.abs(got - ref)) < 1e-12
    # one call per round covers every live interval of every segment;
    # only the sqrt endpoint keeps bisecting, down to the minimum width
    assert calls[0] == 3 * 21 and all(n % 21 == 0 for n in calls)
    assert len(calls) <= 45


def test_segments_keep_their_own_tolerance():
    # 1e6 on [0, 1] beside a 1e-7 Lorentzian peak on [1, 2]: a tolerance
    # taken from the total (1e-6) would accept the small segment's first
    # K21 value, which is off by ~5e-8
    s, w = 6e-10, 0.02

    def f(t):
        return np.where(t < 1.0, 1e6, s / (w * w + (t - 1.5) ** 2))[None]

    got = gauss_kronrod(f, [0.0, 1.0, 2.0], 1e-13, 1e-12)[0]
    exact = 1e6 + (s / w) * 2.0 * np.arctan(0.5 / w)
    assert abs(got - exact) < 1e-9


def test_nonfinite_integrand_propagates():
    f = lambda t: np.log(np.where(t < 0.5, 0.0, 1.0))[None, :]
    with np.errstate(divide="ignore"):
        assert gauss_kronrod(f, [0.0, 0.25, 1.0], 1e-13, 1e-12)[0] == -np.inf


def test_live_interval_cap_raises():
    # a pseudo-random integrand never passes the error test, so
    # bisection would run to the minimum width: 2^40 intervals
    calls = []

    def noise(t):
        calls.append(t.size)
        return np.sin(1e9 * t * t)[None, :]

    with pytest.raises(ConvergenceError) as info:
        gauss_kronrod(noise, [0.0, 1.0], 1e-13, 1e-12)
    assert max(calls) <= 20000 * 21
    assert info.value.last_residual > 1e-13


def test_empty_range_rejected():
    with pytest.raises(DomainError):
        gauss_kronrod(lambda t: t[None, :], [1.0, 1.0], 1e-13, 1e-12)
