"""Spans and work counts around the calls into canonfactor's layers.

The recorder wraps every public function of every canonfactor module at
each module attribute that names it, so a call is seen whether it comes
from the benchmark or from another module (``weyl`` looks up
``propagator`` in its own namespace, ``factorize`` looks up
``inverse_spectral`` in its own, and so on).  Two hot methods,
``HalfLineFunction.integrate`` and ``SpectralMeasure.__call__``, are
counted but not timed: they run ~10^5 times a pass and a span each would
cost more than the work.

A span is (name, start, end, parent, pass id).  Spans stay in memory and
are written out with the results.  Layer names are module names of
``canonfactor``; a span's self time is its duration minus the time its
child spans cover.

The library itself is not changed: ``stop`` puts every original
attribute back, so passes run outside ``start``/``stop`` are untraced.
"""

import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

MODULES = ("accelerant", "factorize", "halfline", "hamiltonian", "inverse",
           "measures", "solver", "transform", "weyl")

# spans whose tracemalloc peak is reported, and the metric it goes to
PEAK_SPANS = {
    "inverse.inverse_spectral": "inverse.peak_alloc_mb",
    "factorize.factor_via_transform": "factorize.peak_alloc_mb",
    "halfline.a2_classical": "halfline.a2_classical.peak_alloc_mb",
}


def _size(x):
    return getattr(x, "size", 1)


def _z_cells(c, key, ham, z, *args, **kwargs):
    c[key] += _size(z) * ham.grid.n_cells


def _z_count(c, key, ham, z, *args, **kwargs):
    c[key] += _size(z)


# work counts taken from the arguments of a call:
# span name -> (metric, counter(counts, metric, *args, **kwargs))
COUNTERS = {
    "solver.propagator": ("solver.propagator.calls", None),
    "accelerant.accelerant_from_weight":
        ("accelerant.accelerant_from_weight.calls", None),
    "weyl.weyl_sweep": ("weyl.weyl_sweep.z_cells", _z_cells),
    "solver.node_thetas": ("solver.node_thetas.z_cells", _z_cells),
    "transform.wave_amplitudes": ("transform.wave_amplitudes.z_count",
                                  _z_count),
}


class _Frame:
    __slots__ = ("index", "base", "max_abs")

    def __init__(self, index, base):
        self.index = index
        self.base = base
        self.max_abs = base


class Recorder:
    """In-memory span and count store for one process.

    ``start(pass_id, memory)`` installs the wrappers for one traced pass
    and ``stop()`` removes them.  With ``memory`` set, spans named in
    PEAK_SPANS run under tracemalloc (started only while such a span is
    open, so the rest of the pass keeps its speed) and record their peak
    above the traced memory at entry.
    """

    def __init__(self):
        self.names = []            # span name table
        self._name_ids = {}
        self.spans = []            # [name_id, start, end, parent, pass_id]
        self.peaks = {}            # span index -> peak bytes above entry
        self.counts = defaultdict(Counter)   # pass_id -> counts
        self.pass_id = None
        self.current = None        # counts of the pass being traced
        self.memory = False
        self._stack = []
        self._peak_stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self._name_id(name), time.perf_counter(), None,
                           parent, self.pass_id])
        self._stack.append(index)
        if self.memory and name in PEAK_SPANS:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            if self._peak_stack:
                outer = self._peak_stack[-1]
                outer.max_abs = max(outer.max_abs, peak)
            tracemalloc.reset_peak()
            self._peak_stack.append(_Frame(index, cur))
        return index

    def _exit(self, index):
        if self._peak_stack and self._peak_stack[-1].index == index:
            frame = self._peak_stack.pop()
            peak = max(frame.max_abs, tracemalloc.get_traced_memory()[1])
            self.peaks[index] = peak - frame.base
            if self._peak_stack:
                outer = self._peak_stack[-1]
                outer.max_abs = max(outer.max_abs, peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.stop()
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _timed(self, fn, name):
        key, counter = COUNTERS.get(name, (None, None))
        rec = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(rec.current, key, *args, **kwargs)
            elif key is not None:
                rec.current[key] += 1
            index = rec._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._exit(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key, points_key=None):
        """Count calls of a hot method (and points of its first argument)
        without a span."""
        rec = self

        def wrapper(obj, *args, **kwargs):
            c = rec.current
            c[key] += 1
            if points_key is not None:
                c[points_key] += _size(args[0])
            return fn(obj, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers -------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def start(self, pass_id, memory=False):
        """Trace the calls of one pass: wrap every public canonfactor
        function at each module attribute that names it."""
        self.pass_id = pass_id
        self.memory = memory
        self.current = self.counts[pass_id]
        modules = [importlib.import_module(f"canonfactor.{m}")
                   for m in MODULES]
        wrapped = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("canonfactor.")):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                if fn not in wrapped:
                    wrapped[fn] = self._timed(fn, name)
                self._patch(mod, attr, wrapped[fn])
        halfline = importlib.import_module("canonfactor.halfline")
        measures = importlib.import_module("canonfactor.measures")
        self._patch(halfline.HalfLineFunction, "integrate", self._counted(
            halfline.HalfLineFunction.integrate, "halfline.integrate.calls"))
        self._patch(measures.SpectralMeasure, "__call__", self._counted(
            measures.SpectralMeasure.__call__, "measures.density.calls",
            "measures.density.points"))

    def stop(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.pass_id = self.current = None
        self.memory = False

    # -- analysis ----------------------------------------------------------

    def pass_profile(self, pass_id, wall):
        """Self and inclusive seconds per span name, per-module self
        seconds, and the part of the pass wall time outside every span.

        The module self times plus the remainder add up to ``wall``.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child = Counter()
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s = Counter(), Counter()
        top = 0.0
        for i, (nid, start, end, parent, _) in spans:
            name = self.names[nid]
            self_s[name] += (end - start) - child[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:
                incl_s[name] += end - start
            if parent < 0:
                top += end - start
        modules = Counter()
        for name, sec in self_s.items():
            modules[name.split(".", 1)[0]] += sec
        return {"wall_s": wall, "self_s": dict(self_s),
                "incl_s": dict(incl_s), "module_self_s": dict(modules),
                "remainder_s": wall - top, "spans": len(spans),
                "counts": dict(self.counts[pass_id])}

    def peak_mb(self, pass_id):
        """Largest tracemalloc peak per PEAK_SPANS metric in one pass."""
        out = dict.fromkeys(PEAK_SPANS.values(), 0.0)
        for index, peak in self.peaks.items():
            nid, _, _, _, pid = self.spans[index]
            if pid == pass_id:
                key = PEAK_SPANS[self.names[nid]]
                out[key] = max(out[key], peak / 2 ** 20)
        return out

    def dump(self):
        return {"names": self.names, "spans": self.spans,
                "span_fields": ["name_id", "start", "end", "parent", "pass"],
                "peaks_bytes": {str(k): v for k, v in self.peaks.items()}}
