"""Half-line functions: L1+L2 splits, Muckenhoupt characteristics, harness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonfactor import (DomainError, HalfLineFunction, ValidationError,
                         a2_classical, a2_ell1, a2_ell1_terms,
                         decompose_L1_L2, inverse_spectral, lemma2_harness,
                         log_derivative, norm_L1, norm_L1_plus_L2, norm_L2,
                         read_halfline, sinc_bump_weight, write_halfline)
from canonfactor.halfline import _candidate_nodes, _norm_and_level


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


@pytest.mark.parametrize("s", [1e200, 1e-200])
def test_l1l2_functionals_are_homogeneous_at_extreme_scales(s):
    # the squares of s * f overflow or underflow double range; the norms
    # and the split must still scale with s (nan, inf, 0 and a one-sided
    # split before)
    nodes = [0.0, 1.0, 2.0, 3.0, 3.5]
    base = np.array([3.0, 1.0, -1.0, 0.2])
    f, g = HalfLineFunction(nodes, base), HalfLineFunction(nodes, s * base)
    with np.errstate(all="raise"):
        assert norm_L1_plus_L2(g) == pytest.approx(s * norm_L1_plus_L2(f),
                                                   rel=1e-14)
        assert norm_L2(g) == pytest.approx(s * norm_L2(f), rel=1e-14)
        g1, g2 = decompose_L1_L2(g)
    assert abs(norm_L1_plus_L2(f) - 3.3196385345395663) < 1e-14
    f1, f2 = decompose_L1_L2(f)
    assert np.array_equal(g1.values + g2.values, g.values)
    assert np.all(np.abs(g1.values) <= np.abs(g.values))
    assert np.all(np.abs(g2.values) <= np.abs(g.values))
    assert np.allclose(g1.values, s * f1.values, rtol=1e-14, atol=0.0)
    assert np.allclose(g2.values, s * f2.values, rtol=1e-14, atol=0.0)


def test_split_fixup_is_exact_where_the_level_rounds():
    # count the cells where v - level rounds, so the fix-up is exercised
    rng = np.random.default_rng(7)
    seen = 0
    for _ in range(400):
        vals = rng.normal(size=6) * 10.0 ** rng.uniform(-8, 8, 6)
        f = HalfLineFunction(np.arange(7.0) * 0.3, vals)
        f1, f2 = decompose_L1_L2(f)
        assert np.array_equal(f1.values + f2.values, vals)
        assert np.all(np.abs(f1.values) <= np.abs(vals))
        assert np.all(np.abs(f2.values) <= np.abs(vals))
        _, c_pos = _norm_and_level(np.maximum(vals, 0.0), f.grid.widths)
        _, c_neg = _norm_and_level(np.maximum(-vals, 0.0), f.grid.widths)
        clipped = np.clip(vals, -c_neg, c_pos)
        seen += int(np.sum((vals - clipped) + clipped != vals))
    assert seen > 0


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


# -- oracles: dense pair arrays and a scanned level search --------------------

def dense_a2_classical(f):
    """sup of avg(f) avg(1/f) over all candidate pairs, from P x P arrays
    and one windowed integral per endpoint."""
    nodes = f.grid.nodes
    pts = [nodes, f.grid.span * np.array([1.0625, 1.125, 1.25, 1.5, 2.0, 4.0,
                                          8.0, 16.0, 100.0])]
    for level in range(1, 4):
        pts += [np.linspace(a, b, 2 ** level + 1)[1:-1]
                for a, b in zip(nodes[:-1], nodes[1:])]
    pts = np.unique(np.concatenate(pts))
    assert np.array_equal(pts, _candidate_nodes(f))
    F = np.array([f.integrate(0.0, b) for b in pts])
    G = np.array([f.integrate(0.0, b, transform=lambda x: 1.0 / x)
                  for b in pts])
    iu = np.triu_indices(len(pts), k=1)
    dt = (pts[None, :] - pts[:, None])[iu]
    dF = (F[None, :] - F[:, None])[iu]
    dG = (G[None, :] - G[:, None])[iu]
    return float(np.max((dF / dt) * (dG / dt)))


def scanned_norm_and_level(absf, widths, scans=257):
    """257-point scan of the split objective, then 60 golden-section
    steps inside the best bracket."""
    def objective(c):
        spike = np.maximum(absf - c, 0.0)
        body = np.minimum(absf, c)
        return float(np.dot(widths, spike)
                     + np.sqrt(np.dot(widths, body * body)))

    cmax = float(absf.max(initial=0.0))
    if cmax == 0.0:
        return 0.0, 0.0
    cand = np.unique(np.concatenate([
        np.linspace(0.0, cmax, scans), absf[absf > 0]]))
    vals = np.array([objective(c) for c in cand])
    k = int(np.argmin(vals))
    a, b = cand[max(k - 1, 0)], cand[min(k + 1, len(cand) - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = objective(c1), objective(c2)
    for _ in range(60):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = objective(c2)
    c_best = 0.5 * (a + b)
    v_best = objective(c_best)
    if vals[k] < v_best:
        c_best, v_best = cand[k], vals[k]
    return v_best, float(c_best)


positive_cells = st.lists(st.tuples(st.floats(0.05, 2.0),
                                    st.floats(0.05, 20.0)),
                          min_size=1, max_size=12)


@given(cells=positive_cells, tail=st.floats(0.05, 20.0))
def test_a2_classical_matches_dense_oracle(cells, tail):
    widths, vals = np.array(cells).T
    f = HalfLineFunction(np.concatenate([[0.0], np.cumsum(widths)]), vals,
                         tail=tail)
    ref = dense_a2_classical(f)
    assert abs(a2_classical(f) - ref) <= 1e-13 * ref


@given(cells=st.lists(st.tuples(st.floats(0.05, 2.0),
                                st.floats(0.0, 1e3) | st.just(0.0)),
                      min_size=1, max_size=40))
def test_exact_level_never_above_scan(cells):
    widths, absf = np.array(cells).T
    value, level = _norm_and_level(absf, widths)
    ref, _ = scanned_norm_and_level(absf, widths)
    assert value <= ref * (1.0 + 1e-14)
    assert 0.0 <= level <= absf.max()


def test_exact_level_on_drawn_functions():
    rng = np.random.default_rng(2)
    gain = 0.0
    for _ in range(300):
        f = rand_fn(rng, int(rng.integers(1, 30)))
        absf, widths = np.abs(f.values), f.grid.widths
        value, _ = _norm_and_level(absf, widths)
        ref, _ = scanned_norm_and_level(absf, widths)
        assert value <= ref * (1.0 + 1e-14)
        gain = max(gain, (ref - value) / max(ref, 1e-300))
    assert gain < 1e-12      # the scan was already at the minimum


def test_a2_ell1_terms_are_windowed_integrals():
    # 4,000 cells over [0, 2000]: the antiderivative reaches ~5e3, so a
    # double-precision running sum would leave ~1e-11 in each window
    rng = np.random.default_rng(8)
    f = HalfLineFunction.from_uniform(rng.uniform(0.2, 5.0, 4000),
                                      span=2000.0, tail=1.7)
    terms = a2_ell1_terms(f, window=2.0)
    ref = [f.integrate(n, n + 2.0)
           * f.integrate(n, n + 2.0, transform=lambda x: 1.0 / x) - 4.0
           for n in range(len(terms))]
    assert np.max(np.abs(terms - ref)) < 1e-12


def test_a2_classical_memory_is_linear():
    # P x P arrays over these P = 4,106 candidate endpoints take ~700 MB
    ham = inverse_spectral(sinc_bump_weight(0.5, 1.0), 20.0, 512)
    f = HalfLineFunction(ham.grid.nodes, ham.h1, tail=1.0)
    tracemalloc.start()
    try:
        value = a2_classical(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value >= 1.0
    assert peak < 64 * 2 ** 20
