"""canonfactor benchmark: one workload, one seed, one closed-loop run.

Usage, from the root of the repository:

    python3 bench/run.py --workload {invert,factorize,functionals}
                         --seed N --seconds S --trace {0,1}

One process, one caller: each pass starts after the previous one returns,
and a new pass starts only while it is expected to end within S seconds
(the first always runs).  Every
pass draws fresh inputs from the seed and checks every output against
its gate (see workloads.py).  BLAS threads are capped at the number of
CPUs this process may run on.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: median pass
time, set-up time (median over fresh processes), peak RSS.  --trace 1
alternates untraced and traced passes, then runs one pass under
tracemalloc, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it print the same
figures for a reader, and bench/out/ receives the full record (drawn
parameters, task figures, and in traced runs every span).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result; exit without one."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("invert", "factorize", "functionals"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: set up as a run would, then exit (times setup_s)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_library(root):
    """Import canonfactor from src/ of the checkout, nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "canonfactor", "__init__.py")):
        raise BenchError(f"no src/canonfactor under {root}; run from the "
                         "root of the repository")
    sys.path[:0] = [src, BENCH_DIR]
    import canonfactor
    if not os.path.abspath(canonfactor.__file__).startswith(src + os.sep):
        raise BenchError(f"imported canonfactor from {canonfactor.__file__}")
    return canonfactor


def warm_up():
    """One tiny call into each layer, so lazy loading and BLAS start-up
    are done before the first timed pass."""
    from canonfactor import factorize, inverse, measures, weyl
    mu = measures.sinc_bump_weight(0.5, 1.0)
    ham = inverse.inverse_spectral(mu, 4.0, 32, report=True)[0]
    weyl.spectral_density(ham, [0.0, 1.0], eps=2.4, eps_min=1.0)
    weyl.szego_K(measures.step_weight(2.0, 1.0), 1j)
    factorize.factor_via_transform(measures.step_weight(2.0, 1.0), 3.2, 16)


def environment(canonfactor, nproc):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "blas_threads": int(os.environ[BLAS_VARS[0]]),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "canonfactor": canonfactor.__version__,
            "machine": platform.machine()}


def load_metric_spec(root):
    """Metric names and units from BENCHMARK.json, the single list."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}")
    return spec["end_to_end"], spec["per_layer"]


# -- running passes -----------------------------------------------------------

class Passes:
    """Draws the inputs of pass i (the i-th draw from the seed) and runs it."""

    def __init__(self, workload, seed):
        import numpy as np
        from workloads import WORKLOADS
        self.draw, self.run_pass = WORKLOADS[workload]
        self.rng = np.random.default_rng(seed)
        self.params = [self.draw(self.rng)]   # pass 0 is drawn in set-up
        self.records = []

    def next_params(self):
        i = len(self.records)
        while len(self.params) <= i:
            self.params.append(self.draw(self.rng))
        return i, self.params[i]

    def run(self, kind, recorder=None, memory=False):
        i, p = self.next_params()
        if recorder is not None:
            recorder.start(i, memory=memory)
        t = time.perf_counter()
        try:
            tasks = self.run_pass(p)
        finally:
            wall = time.perf_counter() - t
            if recorder is not None:
                recorder.stop()
        rec = {"pass": i, "kind": kind, "wall_s": wall, "params": p,
               "tasks": tasks}
        self.records.append(rec)
        return rec

    def tasks(self):
        return [t for r in self.records for t in r["tasks"]]


def setup_probe_times(args):
    """Wall time of SETUP_PROBES fresh processes that set up and exit."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t)
        if done.returncode != 0:
            raise BenchError("setup probe failed: "
                             + done.stderr.decode(errors="replace")[-500:])
    return times


def tail_percentile(values):
    """Highest of p99/p95/p90/p75 with >= 10 samples above it, or None."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n - int(-(-p * n // 100)) >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def gated_figures(tasks):
    """Largest value of each numeric figure over the tasks."""
    out = {}
    for t in tasks:
        for key, val in t.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                out[key] = max(out.get(key, val), val)
    return out


def time_left(t_start, seconds, last):
    """Is there time for one more step as long as the last one?"""
    return time.perf_counter() - t_start + last <= seconds


def run_timed(args, passes):
    t_start = time.perf_counter()
    rec = passes.run("timed")
    while time_left(t_start, args.seconds, rec["wall_s"]):
        rec = passes.run("timed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = setup_probe_times(args)
    walls = [r["wall_s"] for r in passes.records]
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(probes),
               "peak_rss_mb": peak_rss_mb}
    extra = {"pass_walls_s": walls, "setup_probes_s": probes,
             "tail_percentile": tail_percentile(walls)}
    return metrics, extra


def run_traced(args, passes, per_layer):
    """Untraced and traced passes in turn, then one tracemalloc pass.

    Times are medians over the traced passes; counts come from the first
    traced pass, whose inputs depend on the seed alone.
    """
    from tracing import Recorder
    recorder = Recorder()
    t_start = time.perf_counter()
    profiles = []
    pair_s = 0.0
    while not profiles or time_left(t_start, args.seconds, pair_s):
        pair_s = passes.run("untraced")["wall_s"]
        rec = passes.run("traced", recorder)
        pair_s += rec["wall_s"]
        profiles.append(recorder.pass_profile(rec["pass"], rec["wall_s"]))
    mem = passes.run("memory", recorder, memory=True)

    def med(get):
        return statistics.median(get(p) for p in profiles)

    def wall(kind):
        return statistics.median(r["wall_s"] for r in passes.records
                                 if r["kind"] == kind)

    figures = gated_figures(passes.tasks())
    metrics = {
        "trace.wall_s": wall("traced"),
        "trace.untraced_wall_s": wall("untraced"),
        "trace.overhead_s": wall("traced") - wall("untraced"),
        "trace.remainder_s": med(lambda p: p["remainder_s"]),
        "trace.spans": float(profiles[0]["spans"]),
        "roundtrip_err": figures.get("roundtrip_err", 0.0),
        "factor_residual": figures.get("factor_residual", 0.0),
        **recorder.peak_mb(mem["pass"]),
    }
    # the rest are named <layer>.self_s, <layer>.<fn>.self_s (self time),
    # <layer>.<fn>.s (inclusive time) or a work count
    for name in (m["name"] for m in per_layer if m["name"] not in metrics):
        head, _, kind = name.rpartition(".")
        if kind == "self_s" and "." not in head:
            metrics[name] = med(lambda p: p["module_self_s"].get(head, 0.0))
        elif kind == "self_s":
            metrics[name] = med(lambda p: p["self_s"].get(head, 0.0))
        elif kind == "s":
            metrics[name] = med(lambda p: p["incl_s"].get(head, 0.0))
        else:
            metrics[name] = float(profiles[0]["counts"].get(name, 0))
    return metrics, profiles, recorder


# -- reporting ----------------------------------------------------------------

def report_traced(profiles):
    """Per traced pass: dominant layer, top spans, and the identity
    layer self times + remainder = traced wall."""
    lines = []
    for k, p in enumerate(profiles):
        mods = sorted(p["module_self_s"].items(), key=lambda kv: -kv[1])
        total = sum(p["module_self_s"].values()) + p["remainder_s"]
        lines.append(f"traced pass {k}: dominant layer {mods[0][0]} "
                     f"({mods[0][1]:.3f} s self); layers "
                     + ", ".join(f"{m} {s:.3f}" for m, s in mods)
                     + f"; remainder {p['remainder_s']:.3f}; sum {total:.3f} s"
                     f" vs traced pass {p['wall_s']:.3f} s")
        top = sorted(p["self_s"].items(), key=lambda kv: -kv[1])[:6]
        lines.append("  top self time: "
                     + ", ".join(f"{n} {s:.3f}" for n, s in top))
    return lines


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    root = os.getcwd()
    canonfactor = import_library(root)
    end_to_end, per_layer = load_metric_spec(root)
    passes = Passes(args.workload, args.seed)
    warm_up()
    if args.setup_probe:
        return 0
    env = environment(canonfactor, nproc)

    lines = [f"canonfactor bench: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}; closed loop, "
             "1 caller",
             "env: " + " ".join(f"{k}={v}" for k, v in env.items())]
    record = {"args": vars(args), "env": env}
    if args.trace == 0:
        metrics, extra = run_timed(args, passes)
        spec = end_to_end
        tail = extra["tail_percentile"]
        lines.append(
            f"passes={len(passes.records)}; tail percentile: "
            + (f"p{tail[0]} = {tail[1]:.4f} s" if tail else
               "n/a (needs >= 11 passes)"))
        record.update(extra)
    else:
        metrics, profiles, recorder = run_traced(args, passes, per_layer)
        spec = per_layer
        lines += report_traced(profiles)
        record.update({"profiles": profiles, "trace": recorder.dump()})

    tasks = passes.tasks()
    failed = sum(not t["ok"] for t in tasks)
    out = {}
    for m in spec:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} is not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    for name, v in out.items():
        lines.append(f"{name:<44} {v['value']:.6g} {v['unit']}")
    lines.append(f"{'failed_frac':<44} {failed / len(tasks):.6g} ratio "
                 f"({failed} of {len(tasks)} tasks)")
    for key, val in sorted(gated_figures(tasks).items()):
        lines.append(f"{'max ' + key:<44} {val:.6g}")

    record.update({"passes": passes.records, "metrics": out,
                   "failed": failed, "attempted": len(tasks)})
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    lines.append(f"record: {os.path.relpath(path, root)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(tasks),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
