"""Spans around the public layers of snopto, recorded from outside the package.

`install()` wraps every public function of the traced modules, rebinding
the wrapper in every snopto namespace that imported the original, plus
the numpy and scipy entry points that `snopto.detect` and `snopto.synth`
look up in their own globals. Each call records one span (name, parent,
operation id, start, end) in memory. Counters that the per-layer metrics
need (trials, samples, matrix sizes) are taken at the same boundaries.
Nothing under `src/` changes; uninstalling is exiting the process.

`layer_metrics()` derives busy and self times from the spans: a span's
self time is its duration minus the durations of its direct children.
Kernel operation counts (`*.flops`, `*.nxn_bytes`) are computed from the
matrix sizes, not measured.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "detect", "synth", "spectra", "gaussian_dynamics", "feasibility")
_LIBRARY_ENTRY_POINTS = ("cholesky", "solve_triangular", "toeplitz")
_RANDOM_ENTRY_POINTS = ("SeedSequence", "default_rng")


class Recorder:
    """Spans in parallel lists; a span's id is its index."""

    def __init__(self):
        self.names: list[str] = []
        self.name, self.parent, self.op, self.nested = [], [], [], []
        self.start, self.end = [], []
        self.op_id = -1
        self.counts = defaultdict(float)
        self.covariances: set = set()
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._index: dict[str, int] = {}

    def intern(self, name: str) -> int:
        self._index[name] = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        return self._index[name]

    def active(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return name in self._index and self._depth[self._index[name]] > 0

    def wrap(self, name: str, fn, hook=None):
        idx = self.intern(name)
        stack, depth = self._stack, self._depth
        names_col, parent, op, nested = self.name, self.parent, self.op, self.nested
        start, end = self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            names_col.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            nested.append(depth[idx] > 0)
            end.append(0)
            stack.append(sid)
            depth[idx] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                depth[idx] -= 1
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn, updated=())
        return traced

    def write(self, path) -> None:
        """All spans as gzip CSV: id, op, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,parent,name,start_ns,end_ns\n")
            names = self.names
            for sid, (o, p, n, s, e) in enumerate(zip(self.op, self.parent, self.name,
                                                       self.start, self.end)):
                fh.write(f"{sid},{o},{p},{names[n]},{s},{e}\n")


class _Proxy:
    """A module stand-in: overridden attributes first, the module for the rest."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


# ------------------------------------------------------------- counters


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _y_ensemble(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = int(round(a["duration"] / a["dt"]))
    trials = int(a["n_trials"])
    rec.counts["y_ensemble.trials"] += trials
    rec.counts["y_ensemble.samples"] += trials * n
    if a["truth"].kind != "flat":
        rec.counts["colour.flops"] += n * n * trials
    if rec.active("detect.tau_min") and a["truth"].kind == "flat":
        rec.counts["tau_min.samples_per_trial"] += n


def _tau_min(rec, fn, args, kwargs, result):
    rec.counts["tau_min.final_n"] += result.n_samples


def _threshold_search(rec, fn, args, kwargs, result):
    if rec.active("detect.tau_min"):
        rec.counts["tau_min.probes"] += 1


def _cholesky(rec, fn, args, kwargs, result):
    a = args[0]
    n = a.shape[0]
    rec.counts["factorize.flops"] += n**3 / 3.0
    rec.counts["nxn_bytes"] += 8 * n * n
    # the covariances are Toeplitz, so shape and first row identify them
    rec.covariances.add((a.shape, hash(a[0].tobytes())))


def _toeplitz(rec, fn, args, kwargs, result):
    rec.counts["nxn_bytes"] += 8 * result.size


def _solve_triangular(rec, fn, args, kwargs, result):
    n = args[0].shape[0]
    cols = result.shape[1] if result.ndim > 1 else 1
    rec.counts["whiten.flops"] += n * n * cols


def _evaluate(rec, fn, args, kwargs, result):
    rec.counts["evaluate.points"] += result.grid.size


def _evolve_moments(rec, fn, args, kwargs, result):
    store_every = _bound(fn, args, kwargs)["store_every"]
    rec.counts["evolve_moments.steps"] += (result.times.size - 1) * store_every


_HOOKS = {
    "detect.y_ensemble": _y_ensemble,
    "detect.tau_min": _tau_min,
    "detect.threshold_search": _threshold_search,
    "detect.cholesky": _cholesky,
    "detect.toeplitz": _toeplitz,
    "detect.solve_triangular": _solve_triangular,
    "spectra.evaluate": _evaluate,
    "gaussian_dynamics.evolve_moments": _evolve_moments,
}


def install() -> Recorder:
    """Wrap the traced layers of the already importable snopto package."""
    rec = Recorder()
    wrapped = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"snopto.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[obj] = rec.wrap(name, obj, _HOOKS.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "snopto" and not modname.startswith("snopto."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for short in ("detect", "synth"):
        mod = sys.modules[f"snopto.{short}"]
        for attr in _LIBRARY_ENTRY_POINTS:
            if hasattr(mod, attr):
                name = f"{short}.{attr}"
                setattr(mod, attr, rec.wrap(name, getattr(mod, attr), _HOOKS.get(name)))
        np_mod = getattr(mod, "np", None)
        if np_mod is not None:
            random = _Proxy(np_mod.random, **{
                attr: rec.wrap(f"{short}.{attr}", getattr(np_mod.random, attr))
                for attr in _RANDOM_ENTRY_POINTS
            })
            mod.np = _Proxy(np_mod, random=random)
    return rec


# ------------------------------------------------------------- metrics

# (metric, unit, better); values are per cycle
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("detect.seed.calls", "count", "lower"),
    ("detect.seed_s", "s", "lower"),
    ("detect.factorize.calls", "count", "lower"),
    ("detect.factorize.s", "s", "lower"),
    ("detect.factorize.distinct_ratio", "ratio", "higher"),
    ("detect.factorize.flops", "flop", "lower"),
    ("detect.nxn_bytes", "B", "lower"),
    ("detect.colour.flops", "flop", "lower"),
    ("detect.whiten.calls", "count", "lower"),
    ("detect.whiten.s", "s", "lower"),
    ("detect.whiten.flops", "flop", "lower"),
    ("detect.y_ensemble.calls", "count", "lower"),
    ("detect.y_ensemble.s", "s", "lower"),
    ("detect.y_ensemble.self_s", "s", "lower"),
    ("detect.y_ensemble.trials", "count", "higher"),
    ("detect.y_ensemble.samples", "count", "lower"),
    ("detect.y_ensemble.ns_per_sample", "ns", "lower"),
    ("detect.tau_min.calls", "count", "lower"),
    ("detect.tau_min.s", "s", "lower"),
    ("detect.tau_min.probes", "count", "lower"),
    ("detect.tau_min.samples_per_trial", "count", "lower"),
    ("detect.tau_min.useful_ratio", "ratio", "higher"),
    ("detect.threshold_search.calls", "count", "lower"),
    ("detect.threshold_search.s", "s", "lower"),
    ("detect.outcome_probs.calls", "count", "lower"),
    ("detect.outcome_probs.s", "s", "lower"),
    ("synth.gen_baseband.calls", "count", "lower"),
    ("synth.gen_baseband.s", "s", "lower"),
    ("synth.covariance_row.calls", "count", "lower"),
    ("synth.covariance_row.s", "s", "lower"),
    ("synth.factorize.s", "s", "lower"),
    ("synth.demodulate.s", "s", "lower"),
    ("spectra.evaluate.calls", "count", "lower"),
    ("spectra.evaluate.s", "s", "lower"),
    ("spectra.evaluate.points", "count", "lower"),
    ("spectra.feature.s", "s", "lower"),
    ("gaussian_dynamics.evolve_moments.calls", "count", "lower"),
    ("gaussian_dynamics.evolve_moments.s", "s", "lower"),
    ("gaussian_dynamics.evolve_moments.steps", "count", "lower"),
    ("gaussian_dynamics.evolve_moments.ns_per_step", "ns", "lower"),
    ("feasibility.report.s", "s", "lower"),
    ("feasibility.optimize_beta.calls", "count", "lower"),
    ("feasibility.optimize_beta.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, bytes_written: int) -> dict:
    """Per-layer metrics of one traced cycle, without trace.overhead_frac."""
    import numpy as np

    name = np.asarray(rec.name, dtype=np.int64)
    parent = np.asarray(rec.parent, dtype=np.int64)
    dur = (np.asarray(rec.end, dtype=np.int64) - np.asarray(rec.start, dtype=np.int64)) * 1e-9
    outer = ~np.asarray(rec.nested, dtype=bool)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    k = len(rec.names)
    calls_by = np.bincount(name, minlength=k)
    busy_by = np.bincount(name[outer], weights=dur[outer], minlength=k)
    self_by = np.bincount(name, weights=dur - children, minlength=k)

    def total(by, names=(), prefix=None) -> float:
        return float(sum(by[i] for i, n in enumerate(rec.names)
                         if n in names or (prefix is not None and n.startswith(prefix))))

    def calls(*names):
        return total(calls_by, names)

    def busy(*names):
        return total(busy_by, names)

    c = rec.counts
    factorizations = calls("detect.cholesky")
    drawn = c["tau_min.samples_per_trial"]
    m = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.s": busy("cli.main"),
        "cli.self_s": total(self_by, prefix="cli."),
        "cli.bytes_written": bytes_written,
        "detect.seed.calls": calls("detect.SeedSequence"),
        "detect.seed_s": busy("detect.SeedSequence", "detect.default_rng"),
        "detect.factorize.calls": factorizations,
        "detect.factorize.s": busy("detect.cholesky"),
        "detect.factorize.distinct_ratio": _ratio(len(rec.covariances), factorizations),
        "detect.factorize.flops": c["factorize.flops"],
        "detect.nxn_bytes": c["nxn_bytes"],
        "detect.colour.flops": c["colour.flops"],
        "detect.whiten.calls": calls("detect.solve_triangular"),
        "detect.whiten.s": busy("detect.solve_triangular"),
        "detect.whiten.flops": c["whiten.flops"],
        "detect.y_ensemble.calls": calls("detect.y_ensemble"),
        "detect.y_ensemble.s": busy("detect.y_ensemble"),
        "detect.y_ensemble.self_s": total(self_by, ("detect.y_ensemble",)),
        "detect.y_ensemble.trials": c["y_ensemble.trials"],
        "detect.y_ensemble.samples": c["y_ensemble.samples"],
        "detect.y_ensemble.ns_per_sample": 1e9 * _ratio(busy("detect.y_ensemble"), c["y_ensemble.samples"]),
        "detect.tau_min.calls": calls("detect.tau_min"),
        "detect.tau_min.s": busy("detect.tau_min"),
        "detect.tau_min.probes": c["tau_min.probes"],
        "detect.tau_min.samples_per_trial": drawn,
        "detect.tau_min.useful_ratio": _ratio(c["tau_min.final_n"], drawn),
        "detect.threshold_search.calls": calls("detect.threshold_search"),
        "detect.threshold_search.s": busy("detect.threshold_search"),
        "detect.outcome_probs.calls": calls("detect.outcome_probs"),
        "detect.outcome_probs.s": busy("detect.outcome_probs"),
        "synth.gen_baseband.calls": calls("synth.gen_baseband"),
        "synth.gen_baseband.s": busy("synth.gen_baseband"),
        "synth.covariance_row.calls": calls("synth.covariance_row"),
        "synth.covariance_row.s": busy("synth.covariance_row"),
        "synth.factorize.s": busy("synth.cholesky"),
        "synth.demodulate.s": busy("synth.demodulate"),
        "spectra.evaluate.calls": calls("spectra.evaluate"),
        "spectra.evaluate.s": busy("spectra.evaluate"),
        "spectra.evaluate.points": c["evaluate.points"],
        "spectra.feature.s": busy("spectra.pre_feature", "spectra.post_feature", "spectra.measure_feature"),
        "gaussian_dynamics.evolve_moments.calls": calls("gaussian_dynamics.evolve_moments"),
        "gaussian_dynamics.evolve_moments.s": busy("gaussian_dynamics.evolve_moments"),
        "gaussian_dynamics.evolve_moments.steps": c["evolve_moments.steps"],
        "gaussian_dynamics.evolve_moments.ns_per_step": 1e9 * _ratio(
            busy("gaussian_dynamics.evolve_moments"), c["evolve_moments.steps"]),
        "feasibility.report.s": busy("feasibility.pre_report", "feasibility.post_report"),
        "feasibility.optimize_beta.calls": calls("feasibility.optimize_beta"),
        "feasibility.optimize_beta.s": busy("feasibility.optimize_beta"),
    }
    return {k: float(v) for k, v in m.items()}
