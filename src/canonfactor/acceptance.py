"""Eleven-point acceptance suite.

Each criterion is a callable taking a shared context and returning a
CriterionResult; run_acceptance executes a selection in order and emits
one PASS/FAIL line per criterion.  The context lazily caches the two
expensive shared artifacts (the Hamiltonians recovered from the
band-limited bump at N = 256 and 512) so criteria 4, 5, 6 and 10 reuse
them instead of re-inverting.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .factorize import (build_toeplitz, chain_preservation_check,
                        factor_via_transform)
from .halfline import (HalfLineFunction, a2_classical, a2_ell1,
                       decompose_L1_L2, norm_L1, norm_L1_plus_L2, norm_L2)
from .hamiltonian import Hamiltonian, random_unimodular
from .inverse import inverse_spectral
from .measures import (SpectralMeasure, constant_weight, cosine_bump_weight,
                       sinc_bump_weight, step_weight)
from .quadrature import gauss_legendre
from .solver import transfer_matrix
from .transform import isometry_residual, reproducing_kernel, wave_amplitudes
from .weyl import spectral_density, szego_K, weyl_sweep


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.index:2d} {self.name}: {self.detail}"


NAMES = {
    1: "free-system exactness",
    2: "unimodularity",
    3: "dilation identity",
    4: "inverse round trip",
    5: "kernel identity",
    6: "transform isometry",
    7: "triangular factorization",
    8: "Szego functional",
    9: "L1+L2 split suite",
    10: "A2 suite",
    11: "negative control",
}


class AcceptanceContext:
    """Lazy cache for artifacts shared between criteria."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._cache = {}

    def rng(self, salt):
        return np.random.default_rng(1000 * self.seed + salt)

    @property
    def bump_mu(self):
        # band-limited bump w = 1 + 0.5 (sin x / x)^2, c1 = 1, c2 = 1.5
        if "mu" not in self._cache:
            self._cache["mu"] = sinc_bump_weight(0.5, 1.0)
        return self._cache["mu"]

    def recovered(self, n):
        key = ("ham", n)
        if key not in self._cache:
            self._cache[key] = inverse_spectral(self.bump_mu, 20.0, n)
        return self._cache[key]

    def round_trip_error(self, n):
        """Max relative density error of the recovered Hamiltonian on |x|<=5."""
        key = ("err", n)
        if key not in self._cache:
            xs = np.linspace(-5.0, 5.0, 41)
            dens = spectral_density(self.recovered(n), xs)
            truth = np.asarray(self.bump_mu(xs), dtype=float)
            self._cache[key] = float(np.max(np.abs(dens - truth) / truth))
        return self._cache[key]


# -- criteria -----------------------------------------------------------------

def criterion_1(ctx):
    # For the identity Hamiltonian M(t, z) is the plane rotation by angle
    # z t; the comparison is a genuine rotation matrix only for real z,
    # so the grid is real.  (For complex z the entries grow like
    # e^{|Im z| t}, which makes an absolute 1e-10 comparison meaningless
    # in double precision; complex arguments are exercised elsewhere.)
    ham = Hamiltonian.identity(10.0, 10)
    ts = np.linspace(0.0, 10.0, 21)
    zs = np.linspace(-5.0, 5.0, 25)
    t0 = time.perf_counter()
    worst = 0.0
    for t in ts:
        M = transfer_matrix(ham, t, zs).m
        zt = zs * t
        rot = np.empty_like(M)
        rot[..., 0, 0] = np.cos(zt)
        rot[..., 0, 1] = np.sin(zt)
        rot[..., 1, 0] = -np.sin(zt)
        rot[..., 1, 1] = np.cos(zt)
        worst = max(worst, float(np.max(np.abs(M - rot))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    return CriterionResult(1, NAMES[1], ok,
                           f"max |M - rotation| = {worst:.2e} (tol 1e-10), "
                           f"runtime {elapsed:.3f}s (< 1s)")


def criterion_2(ctx):
    # det M = 1 holds exactly; numerically it is computed as a difference
    # of products of entries of size e^{|Im z| t}, so the z grid keeps
    # |Im z| t <= ~6 to leave the 1e-9 absolute tolerance an order of
    # magnitude above the double-precision cancellation floor.
    rng = ctx.rng(2)
    worst = 0.0
    for _ in range(20):
        ham = random_unimodular(rng, 8, span=float(rng.uniform(4.0, 12.0)))
        ts = rng.uniform(0.0, ham.grid.span, 5)
        zs = rng.uniform(-3, 3, 5) + 1j * rng.uniform(-0.5, 0.5, 5)
        for t in ts:
            dev = np.max(np.abs(transfer_matrix(ham, t, zs).det - 1.0))
            worst = max(worst, float(dev))
    ok = worst <= 1e-9
    return CriterionResult(2, NAMES[2], ok,
                           f"max |det M - 1| = {worst:.2e} over 20 random "
                           f"8-cell Hamiltonians x 25 (t,z) (tol 1e-9)")


def criterion_3(ctx):
    rng = ctx.rng(3)
    hams = [
        Hamiltonian.constant([[2.0, 1.0], [1.0, 1.0]], span=80.0, n_cells=4),
        random_unimodular(rng, 6, span=80.0),
        random_unimodular(rng, 6, span=80.0),
    ]
    zs = np.array([0.5j, 1.0j, 1.0 + 1.0j, 2.0j, -1.0 + 1.5j])
    ys = [0.25, 0.5, 1.0, 2.0, 4.0]
    worst, worst_diam = 0.0, 0.0
    for ham in hams:
        for y in ys:
            m_dil, d1 = weyl_sweep(ham.dilate(y), zs, tol=0.0)
            m_arg, d2 = weyl_sweep(ham, y * zs, tol=0.0)
            worst = max(worst, float(np.max(np.abs(m_dil - m_arg))))
            worst_diam = max(worst_diam, float(np.max(d1)), float(np.max(d2)))
    ok = worst <= 1e-6 and worst_diam <= 1e-7
    return CriterionResult(3, NAMES[3], ok,
                           f"max |m^y(z) - m(yz)| = {worst:.2e} (tol 1e-6), "
                           f"disks certified to {worst_diam:.1e}")


def criterion_4(ctx):
    e256 = ctx.round_trip_error(256)
    e512 = ctx.round_trip_error(512)
    ratio = e256 / e512 if e512 > 0 else np.inf
    ok = e512 <= 1e-3 and ratio >= 1.5
    return CriterionResult(4, NAMES[4], ok,
                           f"rel density error {e512:.2e} at N=512 (tol 1e-3),"
                           f" {e256:.2e} at N=256, refinement ratio "
                           f"{ratio:.2f} (>= 1.5)")


def _kernel_gram(ham, r, zs):
    """(1/2pi) int_0^r conj(P_t(lam)) P_t(z) dt on a GL grid, all pairs.

    Each wave cell below r is cut into nsub equal panels, enough to
    resolve the fastest e^{i(z - conj lam)t}, with an order-10 rule each;
    P_t(z) = alpha_c(z) e^{izt} at every node t from one amplitude sweep.
    """
    wave_nodes = 2.0 * ham.grid.nodes
    edges = np.unique(np.concatenate([wave_nodes[wave_nodes < r], [0.0, r]]))
    om = max(abs(complex(a) - np.conj(complex(b))) for a in zs for b in zs)
    nsub = np.maximum(
        1, np.ceil(np.diff(edges) * max(om, 1e-9) / 2.0).astype(int))
    u, v, n = (np.repeat(e, nsub) for e in (edges[:-1], edges[1:], nsub))
    s = np.arange(n.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
    ts, wq = gauss_legendre(10, u + (v - u) * s / n,
                            u + (v - u) * (s + 1) / n)
    ts = ts.ravel()
    alphas, _ = wave_amplitudes(ham, np.asarray(zs), t_max=r)
    P = alphas[ham.grid.cell_index(ts / 2)] * np.exp(1j * np.outer(ts, zs))
    return (P * wq.reshape(-1, 1)).T @ np.conj(P) / (2.0 * np.pi)


def criterion_5(ctx):
    zs = [0.3 + 0.4j, -1.0 + 0.7j, 2.0 + 0.25j, 0.9j]
    r = 2.0
    worst = 0.0
    for ham in (Hamiltonian.identity(1.0, 2), ctx.recovered(512)):
        lhs = _kernel_gram(ham, r, zs)
        rhs = np.array([[reproducing_kernel(ham, r, z, lam) for lam in zs]
                        for z in zs])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-8
    return CriterionResult(5, NAMES[5], ok,
                           f"max |quadrature - closed form| = {worst:.2e} "
                           f"on 4x4 (z,lam) grids (tol 1e-8)")


def criterion_6(ctx):
    rng = ctx.rng(6)
    fs = [HalfLineFunction.from_uniform(rng.uniform(-1.0, 1.0, 8), span=2.0)
          for _ in range(5)]
    ham_id = Hamiltonian.identity(1.0, 1)
    mu_one = constant_weight(1.0)
    worst_free = max(isometry_residual(ham_id, mu_one, f, X=1e3) for f in fs)
    ham = ctx.recovered(512)
    mu = ctx.bump_mu
    worst_bump = max(isometry_residual(ham, mu, f, X=1e3) for f in fs)
    ok = worst_free <= 1e-8 and worst_bump <= 1e-3
    return CriterionResult(6, NAMES[6], ok,
                           f"Plancherel control {worst_free:.2e} (tol 1e-8), "
                           f"bump weight {worst_bump:.2e} (tol 1e-3), X=1e3")


def criterion_7(ctx):
    checks = []
    detail = []
    for mu, tag in ((step_weight(2.0, 1.0), "step"),
                    (ctx.bump_mu, "bump")):
        res = {}
        for n in (256, 512):
            A, rep = factor_via_transform(mu, 12.8, n)
            res[n] = rep
            leak = chain_preservation_check(A)
            checks.append(leak <= 1e-10)
            checks.append(rep.vs_cholesky <= 2e-2)
            checks.append(rep.cond ** 2 <= 1.2 * (mu.c2 / mu.c1))
        checks.append(res[256].residual <= 1e-2)
        checks.append(res[512].residual <= 5e-3)
        detail.append(f"{tag}: res {res[256].residual:.1e}/{res[512].residual:.1e}"
                      f" (tol 1e-2/5e-3), vs chol {res[512].vs_cholesky:.1e},"
                      f" cond^2 {res[512].cond ** 2:.2f}")
    ok = all(checks)
    return CriterionResult(7, NAMES[7], ok,
                           "; ".join(detail) + "; triangularity exact")


def _dual_step_density():
    """Closed-form density of the dual measure of the 2-on-[-1,1] step.

    m(x + i0) = g(x) + i w(x) with g the conjugate function
    (1/pi) ln|(1-x)/(1+x)|; the dual Weyl function is -1/m, so the dual
    density is w / (w^2 + g^2).
    """
    def wd(x):
        x = np.asarray(x, dtype=float)
        w = np.where(np.abs(x) <= 1.0, 2.0, 1.0)
        with np.errstate(divide="ignore"):
            g = np.log(np.abs((1.0 - x) / (1.0 + x))) / np.pi
        out = np.where(np.isfinite(g), w / (w * w + g * g), 0.0)
        return out

    def bound(X):
        g = np.log((X + 1.0) / (X - 1.0)) / np.pi
        return g * g

    return SpectralMeasure(wd, 0.0, 2.0, tail=1.0, window=1.0,
                           tail_bound=bound, breakpoints=(-1.0, 0.0, 1.0))


def criterion_8(ctx):
    weights = [step_weight(2.0, 1.0), cosine_bump_weight(1.0, 1.0),
               ctx.bump_mu]
    zs = [1j, 2j, 0.7 + 0.9j]
    kmin = min(szego_K(mu, z) for mu in weights for z in zs)
    const_ok = all(szego_K(constant_weight(c), 1j) == 0.0
                   for c in (0.5, 1.0, 3.0))
    mu = step_weight(2.0, 1.0)
    k_mu = szego_K(mu, 1j)
    k_dual = szego_K(_dual_step_density(), 1j)
    dual_gap = abs(k_dual - k_mu)
    ok = kmin >= -1e-12 and const_ok and dual_gap <= 1e-4
    return CriterionResult(8, NAMES[8], ok,
                           f"min K = {kmin:.1e} (>= -1e-12), constant K == 0 "
                           f"exact: {const_ok}, dual equality gap "
                           f"{dual_gap:.2e} (tol 1e-4)")


def criterion_9(ctx):
    rng = ctx.rng(9)
    bad = 0
    worst_ratio = 0.0
    for _ in range(100):
        nc = int(rng.integers(3, 12))
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.4, nc))])
        vals = rng.normal(0.0, 1.0, nc) * 10.0 ** rng.uniform(-1.0, 2.0)
        vals[rng.random(nc) < 0.15] = 0.0
        f = HalfLineFunction(nodes, vals)
        f1, f2 = decompose_L1_L2(f)
        exact = np.array_equal(f1.values + f2.values, f.values)
        dom = (np.all(np.abs(f1.values) <= np.abs(f.values))
               and np.all(np.abs(f2.values) <= np.abs(f.values)))
        total = norm_L1(f1) + norm_L2(f2)
        opnorm = norm_L1_plus_L2(f)
        ratio = total / opnorm if opnorm > 0 else (0.0 if total == 0 else np.inf)
        worst_ratio = max(worst_ratio, ratio)
        if not (exact and dom and total <= 4.0 * opnorm + 1e-12):
            bad += 1
    ok = bad == 0
    return CriterionResult(9, NAMES[9], ok,
                           f"100 seeded splits: {bad} violations, worst "
                           f"(|f1|_1+|f2|_2)/|f|_op = {worst_ratio:.3f} (<= 4)")


def criterion_10(ctx):
    const_ok = True
    for c in (0.7, 1.0, 2.5):
        fc = HalfLineFunction.from_uniform(np.full(4, c), span=8.0, tail=c)
        const_ok &= a2_classical(fc) == 1.0 and a2_ell1(fc) == 0.0
    ham = ctx.recovered(512)
    spreads = []
    finite = True
    for comp in ("h1", "h2"):
        vals = []
        for y in (0.25, 1.0, 4.0):
            hy = ham.dilate(y)
            f = HalfLineFunction(hy.grid.nodes, getattr(hy, comp), tail=1.0)
            a2 = a2_classical(f)
            finite &= np.isfinite(a2)
            vals.append(a2)
        spreads.append(max(vals) / min(vals))
    ok = const_ok and finite and max(spreads) <= 2.0
    return CriterionResult(10, NAMES[10], ok,
                           f"constant exactness: {const_ok}; [h1]_2,[h2]_2 "
                           f"finite with dilation spread "
                           f"{max(spreads):.3f} (<= 2) over y in {{1/4,1,4}}")


def criterion_11(ctx):
    mu = step_weight(inner=0.0, half_width=0.5)
    mins = [build_toeplitz(mu, n, 0.05).min_eig for n in (128, 256, 512)]
    decreasing = mins[0] > mins[1] > mins[2] > 0
    ok = decreasing and mins[2] <= 0.5 * mins[0]
    return CriterionResult(11, NAMES[11], ok,
                           "min eig of W at N=128/256/512: "
                           + "/".join(f"{m:.2e}" for m in mins)
                           + " (strictly decreasing toward 0)")


CRITERIA = {i: fn for i, fn in enumerate(
    [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
     criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
     criterion_11], start=1)}


def run_acceptance(indices=None, printer=None, seed=0):
    """Run the numbered criteria (all by default), each once, one result
    line each; an unknown index raises DomainError before any runs.

    A criterion that raises is reported as FAIL with the exception; the
    rest of the suite still runs.
    """
    chosen = sorted(set(indices or CRITERIA))
    if unknown := [i for i in chosen if i not in CRITERIA]:
        raise DomainError(f"no acceptance criterion {unknown}")
    ctx = AcceptanceContext(seed=seed)
    results = []
    for idx in chosen:
        try:
            res = CRITERIA[idx](ctx)
        except Exception as exc:
            res = CriterionResult(idx, NAMES[idx], False,
                                  f"raised {type(exc).__name__}: {exc}")
        results.append(res)
        if printer is not None:
            printer(res.line())
    return results
