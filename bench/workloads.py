"""The three benchmark workloads: input generation, passes and gates.

A workload draws the parameters of one pass from a numpy Generator,
builds the library inputs from them (weights, z sets, half-line
functions) and runs the pass.  A pass is a list of tasks; each task
calls into the library, checks the outputs against a reference and
reports whether it met its accuracy gate.  A task that raises counts as
failed and the pass goes on, as the acceptance suite does.

Every pass draws its own parameters, so no two passes of one run share
an input.
"""

import numpy as np

from canonfactor import factorize, halfline, inverse, measures, solver
from canonfactor import transform, weyl

# -- shared input families ----------------------------------------------------


def _sinc_bump_params(rng):
    return {"amplitude": float(rng.uniform(0.3, 0.7)),
            "scale": float(rng.uniform(0.8, 1.2))}


def _step_params(rng):
    return {"inner": float(rng.uniform(1.5, 3.0)),
            "half_width": float(rng.uniform(0.5, 1.5))}


def run_task(name, fn, tasks):
    """Run fn() -> (ok, figures) and append its record to tasks.

    An exception marks the task failed; the caller goes on.
    """
    try:
        ok, figures = fn()
    except Exception as exc:
        tasks.append({"task": name, "ok": False,
                      "error": f"{type(exc).__name__}: {exc}"})
        return False
    tasks.append({"task": name, "ok": bool(ok), **figures})
    return bool(ok)


# -- invert -------------------------------------------------------------------

INVERT_SPAN, INVERT_CELLS = 20.0, 2048
INVERT_X = np.linspace(-5.0, 5.0, 41)
INVERT_TIMES = (5.0, 10.0, 20.0)


def draw_invert(rng):
    return {
        "weight": _sinc_bump_params(rng),
        "z": {"re": rng.uniform(-5.0, 5.0, 25).tolist(),
              "im": rng.uniform(-0.3, 0.3, 25).tolist()},
        "functions": [rng.uniform(-1.0, 1.0, 8).tolist() for _ in range(2)],
    }


def run_invert(p):
    """Weight -> Hamiltonian (with report), density round trip, det M = 1
    along the grid, and the Plancherel identity of the wave transform."""
    tasks = []
    mu = measures.sinc_bump_weight(**p["weight"])
    state = {}

    def invert():
        ham, rep = inverse.inverse_spectral(mu, INVERT_SPAN, INVERT_CELLS,
                                            report=True)
        state["ham"] = ham
        return np.isfinite(rep.cond), {"cond": float(rep.cond)}

    def round_trip():
        dens = weyl.spectral_density(state["ham"], INVERT_X, eps=2.4,
                                     ratio=0.75, eps_min=0.3)
        truth = np.asarray(mu(INVERT_X), dtype=float)
        err = float(np.max(np.abs(dens - truth) / truth))
        return err <= 1e-3, {"roundtrip_err": err}

    def unimodular():
        z = np.asarray(p["z"]["re"]) + 1j * np.asarray(p["z"]["im"])
        dev = max(float(np.max(np.abs(
            solver.transfer_matrix(state["ham"], t, z).det - 1.0)))
            for t in INVERT_TIMES)
        return dev <= 1e-9, {"det_dev": dev}

    def isometry():
        worst = max(transform.isometry_residual(
            state["ham"], mu,
            halfline.HalfLineFunction.from_uniform(v, span=2.0), X=1e3)
            for v in p["functions"])
        return worst <= 1e-3, {"plancherel_residual": float(worst)}

    if run_task("inverse_spectral", invert, tasks):
        run_task("round_trip", round_trip, tasks)
        run_task("det_M", unimodular, tasks)
        run_task("isometry", isometry, tasks)
    else:
        for name in ("round_trip", "det_M", "isometry"):
            tasks.append({"task": name, "ok": False,
                          "error": "no Hamiltonian"})
    return tasks


# -- factorize ----------------------------------------------------------------

FACTOR_R, FACTOR_N = 12.8, 512


def draw_factorize(rng):
    return {"step": _step_params(rng), "sinc_bump": _sinc_bump_params(rng)}


def _factor_task(mu):
    """The criterion-7 gates on one factorization."""
    A, rep = factorize.factor_via_transform(mu, FACTOR_R, FACTOR_N)
    leak = factorize.chain_preservation_check(A)
    ok = (rep.residual <= 5e-3 and rep.vs_cholesky <= 2e-2
          and rep.cond ** 2 <= 1.2 * (mu.c2 / mu.c1) and leak <= 1e-10)
    return ok, {"factor_residual": rep.residual,
                "vs_cholesky": rep.vs_cholesky,
                "cond_sq_over_bound": rep.cond ** 2 / (mu.c2 / mu.c1),
                "leakage": leak}


def run_factorize(p):
    tasks = []
    run_task("step", lambda: _factor_task(measures.step_weight(**p["step"])),
             tasks)
    run_task("sinc_bump", lambda: _factor_task(
        measures.sinc_bump_weight(**p["sinc_bump"])), tasks)
    return tasks


# -- functionals --------------------------------------------------------------

SZEGO_Z = (1j, 2j, 0.7 + 0.9j)
A2_DILATIONS = (0.25, 1.0, 4.0)
A2_SPAN, A2_CELLS = 20.0, 512


def draw_functionals(rng):
    splits = []
    for _ in range(200):
        nc = int(rng.integers(3, 12))
        vals = rng.normal(0.0, 1.0, nc) * 10.0 ** rng.uniform(-1.0, 2.0)
        vals[rng.random(nc) < 0.15] = 0.0
        splits.append({"widths": rng.uniform(0.1, 1.4, nc).tolist(),
                       "values": vals.tolist()})
    return {
        "steps": [_step_params(rng) for _ in range(3)],
        "cosine_bump": {"amplitude": float(rng.uniform(0.5, 1.5)),
                        "half_width": float(rng.uniform(0.5, 1.5))},
        "sinc_bump": _sinc_bump_params(rng),
        "a2_weight": _sinc_bump_params(rng),
        "splits": splits,
    }


def step_szego_closed_form(inner, half_width, z):
    """K for w = c on [-a, a], 1 outside: log(1 + (c-1)P) - P log c,
    with P the Poisson mass of [-a, a] seen from z."""
    u, v = z.real, z.imag
    P = (np.arctan((half_width - u) / v)
         + np.arctan((half_width + u) / v)) / np.pi
    return float(np.log1p((inner - 1.0) * P) - P * np.log(inner))


def run_functionals(p):
    tasks = []

    def szego_steps():
        err = max(abs(weyl.szego_K(measures.step_weight(**s), z)
                      - step_szego_closed_form(s["inner"], s["half_width"], z))
                  for s in p["steps"] for z in SZEGO_Z)
        return err <= 1e-10, {"szego_closed_form_err": float(err)}

    def szego_bumps():
        kmin = min(weyl.szego_K(mu, z)
                   for mu in (measures.cosine_bump_weight(**p["cosine_bump"]),
                              measures.sinc_bump_weight(**p["sinc_bump"]))
                   for z in SZEGO_Z)
        return kmin >= -1e-12, {"szego_min": float(kmin)}

    def a2():
        ham = inverse.inverse_spectral(
            measures.sinc_bump_weight(**p["a2_weight"]), A2_SPAN, A2_CELLS)
        vals = []
        for y in A2_DILATIONS:
            hy = ham.dilate(y)
            vals.append(halfline.a2_classical(
                halfline.HalfLineFunction(hy.grid.nodes, hy.h1, tail=1.0)))
        spread = max(vals) / min(vals)
        ok = all(np.isfinite(v) and v >= 1.0 for v in vals) and spread <= 2.0
        return ok, {"a2_min": float(min(vals)), "a2_spread": float(spread)}

    def splits():
        bad = 0
        for s in p["splits"]:
            nodes = np.concatenate([[0.0], np.cumsum(s["widths"])])
            f = halfline.HalfLineFunction(nodes, s["values"])
            f1, f2 = halfline.decompose_L1_L2(f)
            exact = np.array_equal(f1.values + f2.values, f.values)
            dom = (np.all(np.abs(f1.values) <= np.abs(f.values))
                   and np.all(np.abs(f2.values) <= np.abs(f.values)))
            total = halfline.norm_L1(f1) + halfline.norm_L2(f2)
            bound = 4.0 * halfline.norm_L1_plus_L2(f) + 1e-12
            bad += not (exact and dom and total <= bound)
        return bad == 0, {"split_violations": bad}

    run_task("szego_steps", szego_steps, tasks)
    run_task("szego_bumps", szego_bumps, tasks)
    run_task("a2_classical", a2, tasks)
    run_task("decompose_L1_L2", splits, tasks)
    return tasks


WORKLOADS = {
    "invert": (draw_invert, run_invert),
    "factorize": (draw_factorize, run_factorize),
    "functionals": (draw_functionals, run_functionals),
}
