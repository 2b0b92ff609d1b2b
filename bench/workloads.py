"""The four benchmark workloads: the operations of one cycle and their checks.

A cycle is the unit the benchmark times. Its operations are built from
(workload, seed, cycle index) alone, so the same seed gives the same inputs.
Every operation is either a `snopto` command line (run through
`snopto.cli.main`, as a user would) or one library call, and each carries a
check on what it produced. Operations inside one cycle never repeat their
exact inputs, so no in-process cache of the program serves a hit that a
command-line user would not get.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("detect_ref", "detect_long", "taumin_peak", "curves")


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Op:
    label: str
    outdir: Path
    check: Callable  # check(op, value) raises CheckFailed
    argv: list | None = None  # command line for snopto.cli.main
    call: Callable | None = None  # library operation, call() -> value
    trials: int = 0  # Monte Carlo trials the operation scores
    meta: dict = field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _one(outdir: Path, pattern: str) -> Path:
    found = sorted(outdir.glob(pattern))
    _require(len(found) == 1, f"{outdir.name}: expected one {pattern}, found {len(found)}")
    return found[0]


def _report(op: Op) -> dict:
    return json.loads(_one(op.outdir, "*.json").read_text())["result"]


def _csv_columns(path: Path) -> tuple[list[str], list[str]]:
    """Header names and the data lines of a CSV curve written by the CLI."""
    header, data = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                header.append(line[1:].strip())
            else:
                data.append(line)
    return [c.strip() for c in header[-1].split(",")], data


# ------------------------------------------------------------- detect_*

# criterion-4 problem of the release gate: 0.62 dip, gamma 1, dt 0.14, y_th 2
_DETECT = ["--kind", "dip", "--amp", "0.62", "--gamma", "1", "--dt", "0.14", "--yth", "2"]

# frozen criterion-4 targets (correct, wrong, indecision) and the gate's
# tolerances, which hold at 1e5 trials per truth
_C4_TARGETS = {"flat": (0.802, 0.021, 0.177), "dip": (0.787, 0.011, 0.202)}
_C4_TOL = (0.010, 0.005, 0.010)
_C4_TRIALS = 100_000

DETECT_REF_TRIALS = 10_000
DETECT_LONG_TRIALS = 512
DETECT_LONG_DURATION = "840.84"  # 6006 samples, the longest d = 0.62 / p = 1% probe


def _check_rates(op: Op, value) -> dict:
    rep = _report(op)
    total = rep["p_correct"] + rep["p_wrong"] + rep["p_indecision"]
    _require(abs(total - 1.0) < 1e-9, f"{op.label}: rates sum to {total}")
    _require(rep["n_trials"] == op.trials, f"{op.label}: n_trials {rep['n_trials']}")
    return rep


def _check_detect_ref(op: Op, value) -> None:
    rep = _check_rates(op, value)
    # the gate's tolerances widened by the Monte Carlo error ratio sqrt(1e5 / n)
    scale = math.sqrt(_C4_TRIALS / op.trials)
    for key, target, tol in zip(("p_correct", "p_wrong", "p_indecision"),
                                _C4_TARGETS[op.meta["truth"]], _C4_TOL):
        _require(abs(rep[key] - target) <= tol * scale,
                 f"{op.label}: {key} {rep[key]:.5f} vs target {target} +- {tol * scale:.4f}")


def _check_detect_long(op: Op, value) -> None:
    rep = _check_rates(op, value)
    _require(rep["p_correct"] >= 0.98, f"{op.label}: p_correct {rep['p_correct']:.4f} < 0.98")


def _detect_ops(rng: random.Random, workdir: Path, duration: str, trials: int, check) -> list[Op]:
    seed = rng.randrange(2**31)
    ops = []
    for truth in ("flat", "dip"):
        outdir = workdir / f"detect_{truth}"
        argv = ["detect", "--truth", truth, *_DETECT, "--duration", duration,
                "--n", str(trials), "--seed", str(seed), "--jobs", "1", "--outdir", str(outdir)]
        ops.append(Op(f"detect_{truth}", outdir, argv=argv, check=check, trials=trials,
                      meta={"truth": truth}))
    return ops


# ------------------------------------------------------------- taumin_peak

TAUMIN_TRIALS = 10_000
_TAUMIN_HEIGHTS = ("30", "100")  # criterion-5 peak points at p = 10 %


def _check_taumin(op: Op, value) -> None:
    rep = _report(op)
    _require(rep["n_trials"] == TAUMIN_TRIALS, f"{op.label}: n_trials {rep['n_trials']}")
    ratio = rep["tau_min_halved"] / rep["fit"]["seconds"]
    _require(0.65 <= ratio <= 1.35, f"{op.label}: measured/law {ratio:.3f} outside [0.65, 1.35]")


def _taumin_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for h in _TAUMIN_HEIGHTS:
        outdir = workdir / f"taumin_h{h}"
        argv = ["taumin", "--kind", "peak", "--amp", h, "--gamma", "1", "--p", "10",
                "--n", str(TAUMIN_TRIALS), "--seed", str(rng.randrange(2**31)),
                "--jobs", "1", "--outdir", str(outdir)]
        ops.append(Op(f"taumin_h{h}", outdir, argv=argv, check=_check_taumin))
    return ops


# ------------------------------------------------------------- curves

# criterion-6 anchors of the reference designs: (result key, value, rel tol)
_FEAS_ANCHORS = {
    "pre": (("tau_min_scaled", 1.6 * 3600, 0.05), ("input_power", 0.432, 0.05),
            ("peak_height_or_dip", 8235.0, 0.05)),
    "post": (("tau_min_scaled", 13 * 86400, 0.05), ("input_power", 4.8e-9, 0.05),
             ("coherence_time", 5 * 3600, 0.05)),
}
DYNAMICS_T_FINAL = "10000"
_SYNTH_DT = 0.14
_SYNTH_DURATIONS = {"cholesky": 500.0, "circulant": 1400.0}  # n = 3571 and 10000
_PSD_N, _PSD_DT = 2**20, 0.05


def _check_spectrum(op: Op, value) -> None:
    rep = _report(op)
    _require(rep["baseline"] > 0 and rep["omega_q"] > 0, f"{op.label}: bad summary block")
    if op.meta["prescription"] != "qm":
        _require(rep["feature"]["amplitude"] > 0, f"{op.label}: feature amplitude")
    names, lines = _csv_columns(_one(op.outdir, "*.csv"))
    _require(names == ["omega", "value"], f"{op.label}: columns {names}")
    for line in lines:
        w, s = map(float, line.split())
        _require(w > 0 and s > 0 and math.isfinite(s), f"{op.label}: bad row {line!r}")


def _check_feasibility(op: Op, value) -> None:
    rep = _report(op)
    for key, ref, tol in _FEAS_ANCHORS[op.meta["prescription"]]:
        _require(abs(rep[key] / ref - 1.0) <= tol, f"{op.label}: {key} {rep[key]:.6g} vs {ref:.6g}")
    _require(rep["sweep"]["tau_min"] > 0, f"{op.label}: sweep tau_min")
    _, lines = _csv_columns(_one(op.outdir, "*_sweep.csv"))
    _require(len(lines) == 481, f"{op.label}: {len(lines)} sweep rows")


def _check_dynamics(op: Op, value) -> None:
    names, lines = _csv_columns(_one(op.outdir, "*.csv"))
    _require(names[-1] == "energy", f"{op.label}: columns {names}")
    energy = [float(line.rsplit(" ", 1)[1]) for line in lines]
    drift = max(abs(e / energy[0] - 1.0) for e in energy)
    _require(len(energy) > 500_000, f"{op.label}: {len(energy)} rows")
    _require(drift <= 1e-9, f"{op.label}: energy drift {drift:.3e} > 1e-9")


def _check_synth(op: Op, value) -> None:
    names, lines = _csv_columns(_one(op.outdir, "*.csv"))
    x = [float(line) for line in lines]
    n = round(op.meta["duration"] / _SYNTH_DT)
    _require(len(x) == n, f"{op.label}: {len(x)} samples, expected {n}")
    # lag-0 covariance r_0 = 1/dt + sign * a * gamma / 4; the sample variance
    # of n correlated draws stays within 15 % (over five standard errors)
    var = sum(v * v for v in x) / n
    r0 = 1.0 / _SYNTH_DT + op.meta["sign"] * op.meta["amp"] / 4.0
    _require(abs(var / r0 - 1.0) <= 0.15, f"{op.label}: variance {var:.4f} vs r_0 {r0:.4f}")


def _check_quadratures(op: Op, value) -> None:
    import numpy as np

    xc, xs = (q.samples for q in value)
    _require(xc.size == _PSD_N and np.all(np.isfinite(xc)) and np.all(np.isfinite(xs)),
             f"{op.label}: bad quadrature arrays")
    # a proper baseband splits into uncorrelated quadratures of equal power
    vc, vs = float(np.mean(xc * xc)), float(np.mean(xs * xs))
    corr = float(np.mean(xc * xs)) / math.sqrt(vc * vs)
    _require(abs(vc / vs - 1.0) <= 0.05, f"{op.label}: quadrature power ratio {vc / vs:.4f}")
    _require(abs(corr) <= 0.03, f"{op.label}: quadrature correlation {corr:.4f}")


def _check_rerun(op: Op, value) -> None:
    source = op.meta["source"]
    for path in sorted(source.iterdir()):
        twin = op.outdir / path.name
        _require(twin.is_file() and twin.read_bytes() == path.read_bytes(),
                 f"{op.label}: {path.name} not reproduced byte for byte")


def _demodulated_record(seed: int, amp: float, center: float):
    from snopto.synth import DemodConfig, demodulate, gen_from_psd, quadratures

    def psd(omega):
        return 0.5 + amp / (1.0 + ((abs(omega) - center) / 0.25) ** 2)

    record = gen_from_psd(psd, _PSD_N * _PSD_DT, _PSD_DT, seed)
    return quadratures(demodulate(record, DemodConfig(center, 2.0)))


def _curves_ops(rng: random.Random, workdir: Path) -> list[Op]:
    seed = str(rng.randrange(2**31))
    ops = []
    for pres in ("qm", "pre", "post"):
        outdir = workdir / f"spectrum_{pres}"
        ops.append(Op(f"spectrum_{pres}", outdir, check=_check_spectrum, meta={"prescription": pres},
                      argv=["spectrum", "--prescription", pres, "--seed", seed, "--outdir", str(outdir)]))
    for pres in ("pre", "post"):
        outdir = workdir / f"feasibility_{pres}"
        ops.append(Op(f"feasibility_{pres}", outdir, check=_check_feasibility,
                      meta={"prescription": pres},
                      argv=["feasibility", "--prescription", pres, "--sweep", "--seed", seed,
                            "--outdir", str(outdir)]))
    outdir = workdir / "dynamics"
    ops.append(Op("dynamics", outdir, check=_check_dynamics, argv=[
        "dynamics", "--t-final", DYNAMICS_T_FINAL, "--store-every", "1",
        "--squeeze", repr(round(rng.uniform(0.1, 0.8), 6)),
        "--x0", repr(round(rng.uniform(0.5, 3.0), 6) * 1e-16),
        "--p0", repr(round(rng.uniform(0.0, 3.0), 6) * 1e-18),
        "--seed", seed, "--outdir", str(outdir)]))
    for path, (kind, sign, lo, hi) in {"cholesky": ("dip", -1.0, 0.3, 0.8),
                                       "circulant": ("peak", 1.0, 2.0, 20.0)}.items():
        outdir = workdir / f"synth_{path}"
        amp = round(rng.uniform(lo, hi), 6)
        duration = _SYNTH_DURATIONS[path]
        ops.append(Op(f"synth_{path}", outdir, check=_check_synth,
                      meta={"duration": duration, "amp": amp, "sign": sign},
                      argv=["synth", "--kind", kind, "--amp", repr(amp), "--gamma", "1",
                            "--duration", repr(duration), "--dt", repr(_SYNTH_DT),
                            "--seed", str(rng.randrange(2**31)), "--outdir", str(outdir)]))
    psd_seed, amp, center = rng.randrange(2**31), rng.uniform(2.0, 8.0), rng.uniform(8.0, 12.0)
    ops.append(Op("demodulate", workdir / "demodulate", check=_check_quadratures,
                  call=lambda: _demodulated_record(psd_seed, amp, center)))
    source = workdir / "spectrum_pre"
    outdir = workdir / "rerun"
    ops.append(Op("rerun_config", outdir, check=_check_rerun, meta={"source": source},
                  argv=["spectrum", "--config", str(source / f"spectrum_pre_seed{seed}.json"),
                        "--outdir", str(outdir)]))
    return ops


def build_cycle(workload: str, seed: int, cycle: int, workdir: Path) -> list[Op]:
    """Operations of one cycle; the inputs depend only on (workload, seed, cycle)."""
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    if workload == "detect_ref":
        return _detect_ops(rng, workdir, "200", DETECT_REF_TRIALS, _check_detect_ref)
    if workload == "detect_long":
        return _detect_ops(rng, workdir, DETECT_LONG_DURATION, DETECT_LONG_TRIALS, _check_detect_long)
    if workload == "taumin_peak":
        return _taumin_ops(rng, workdir)
    if workload == "curves":
        return _curves_ops(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
