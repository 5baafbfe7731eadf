"""Half-line functions: L1+L2 splits, Muckenhoupt characteristics, harness."""

import numpy as np
import pytest

from canonfactor import (DomainError, HalfLineFunction, ValidationError,
                         a2_classical, a2_ell1, decompose_L1_L2,
                         lemma2_harness, log_derivative, norm_L1,
                         norm_L1_plus_L2, norm_L2, read_halfline,
                         write_halfline)


def rand_fn(rng, n_cells=8, span=None):
    widths = rng.uniform(0.1, 1.4, n_cells)
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    if span is not None:
        nodes *= span / nodes[-1]
    vals = rng.normal(size=n_cells) * 10.0 ** rng.uniform(-1, 2, n_cells)
    vals[rng.random(n_cells) < 0.15] = 0.0
    return HalfLineFunction(nodes, vals)


def test_norms_hand_values():
    f = HalfLineFunction([0.0, 1.0, 2.0], [1.0, 3.0])
    assert norm_L1(f) == 4.0
    assert norm_L2(f) == np.sqrt(10.0)
    # single constant cell: |f|_{1,2} = min over splits; putting all of
    # f in one part gives min(c*T, c*sqrt(T))
    g = HalfLineFunction([0.0, 4.0], [2.0])
    assert norm_L1_plus_L2(g) <= 2.0 * 2.0 + 1e-12


def test_split_exactness_seeded_loop():
    rng = np.random.default_rng(101)
    for _ in range(60):
        f = rand_fn(rng)
        f1, f2 = decompose_L1_L2(f)
        # float-exact recomposition and pointwise domination
        assert np.array_equal(f1.values + f2.values, f.values)
        assert np.all(np.abs(f1.values) <= np.abs(f.values) + 0.0)
        assert np.all(np.abs(f2.values) <= np.abs(f.values) + 0.0)
        assert np.all(f1.values * f.values >= 0.0)
        assert np.all(f2.values * f.values >= 0.0)
        bound = 4.0 * norm_L1_plus_L2(f) + 1e-12
        assert norm_L1(f1) + norm_L2(f2) <= bound


def test_split_degenerate_cases():
    z = HalfLineFunction([0.0, 1.0], [0.0])
    f1, f2 = decompose_L1_L2(z)
    assert norm_L1(f1) == 0.0 and norm_L2(f2) == 0.0
    c = HalfLineFunction([0.0, 2.0], [5.0])
    f1, f2 = decompose_L1_L2(c)
    assert np.array_equal(f1.values + f2.values, c.values)


def test_infimal_norm_below_both_pure_norms():
    rng = np.random.default_rng(59)
    for _ in range(20):
        f = rand_fn(rng, 6)
        n = norm_L1_plus_L2(f)
        assert n <= norm_L1(f) + 1e-10
        assert n <= norm_L2(f) + 1e-10


def test_a2_constant_exact():
    for c in (0.7, 1.0, 2.5):
        f = HalfLineFunction([0.0, 3.0], [c], tail=c)
        assert a2_classical(f) == 1.0
        assert a2_ell1(f) == 0.0


def test_a2_classical_two_step_hand_value():
    # f = 1 on [0,1], 2 on [1,2], tail 1.  Best interval is [1-s, 1+s]:
    # avg f * avg 1/f = (3/2)(3/4) = 9/8.
    f = HalfLineFunction([0.0, 1.0, 2.0], [1.0, 2.0], tail=1.0)
    assert abs(a2_classical(f) - 9.0 / 8.0) < 1e-12


def test_a2_ell1_hand_values():
    # single bump cell: only the windows overlapping [0,1] contribute
    f = HalfLineFunction([0.0, 1.0], [2.0], tail=1.0)
    # window [0,2]: (2+1)(1/2+1) - 4 = 1/2; all later windows vanish
    assert abs(a2_ell1(f) - 0.5) < 1e-12
    g = HalfLineFunction([0.0, 1.0, 2.0], [1.0, 2.0], tail=1.0)
    # windows [0,2] and [1,3] each contribute 1/2
    assert abs(a2_ell1(g) - 1.0) < 1e-12


def test_a2_invariant_under_dilation():
    f = HalfLineFunction([0.0, 1.0, 2.0], [1.0, 2.0], tail=1.0)
    base = a2_classical(f)
    for y in (0.25, 4.0):
        assert abs(a2_classical(f.dilate(y)) - base) < 1e-12


def test_a2_requires_positive_values():
    f = HalfLineFunction([0.0, 1.0, 2.0], [1.0, -2.0], tail=1.0)
    with pytest.raises(DomainError):
        a2_classical(f)
    with pytest.raises(DomainError):
        a2_ell1(HalfLineFunction([0.0, 1.0], [1.0]))  # no tail


def test_log_derivative_piecewise():
    g = HalfLineFunction([0.0, 1.0, 2.0], [1.0, np.e], tail=np.e)
    phi = log_derivative(g)
    # log g goes 0 -> 1 -> 1, so phi = (1, 0)
    assert np.allclose(phi.values, [1.0, 0.0])
    assert phi.tail == 0.0


def test_lemma2_harness_identity_pair():
    # g = h = 1: no defect anywhere
    g = HalfLineFunction([0.0, 1.0], [1.0], tail=1.0)
    rep = lemma2_harness(g, g)
    assert rep.norm_log_deriv == 0.0
    assert rep.defect == 0.0
    assert rep.a2_ell1_h == 0.0
    assert rep.ratio == 0.0


def test_lemma2_harness_flags_mismatched_tail():
    g = HalfLineFunction([0.0, 1.0], [1.0], tail=2.0)
    h = HalfLineFunction([0.0, 1.0], [1.0], tail=1.0)
    rep = lemma2_harness(g, h)
    assert rep.defect == np.inf


def test_halfline_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    f = rand_fn(rng, 5)
    path = tmp_path / "f.txt"
    write_halfline(f, path)
    back = read_halfline(path)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.grid.nodes, f.grid.nodes)


@pytest.mark.parametrize("body", ["", "0 1 x\n", "0 1 inf\n", "0 1\n"])
def test_read_halfline_malformed_rows(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("#halfline v1\n" + body)
    with pytest.raises(ValidationError):
        read_halfline(path)


def test_integrate_with_tail_and_transform():
    f = HalfLineFunction([0.0, 1.0, 2.0], [2.0, 4.0], tail=1.0)
    assert f.integrate(0.0, 2.0) == 6.0
    assert f.integrate(1.5, 3.0) == 0.5 * 4.0 + 1.0
    assert abs(f.integrate(0.0, 2.0, transform=lambda x: 1.0 / x)
               - (0.5 + 0.25)) < 1e-15
