"""snopto benchmark: four command-line workloads, timed end to end, plus a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; snopto is imported from its `src/`.
Workloads: detect_ref, detect_long, taumin_peak, curves (see bench/README.md
and bench/workloads.py). Every cycle of a workload runs in a fresh worker
process (bench/worker.py) with --jobs 1 and one BLAS thread, the way a
command-line user runs snopto.

--trace 0 first spawns set-up probes, then runs cycles with distinct
inputs until S seconds are used, and reports the end-to-end metrics:
setup_s (median spawn-to-ready time of every process it started),
wall_s (mean cycle time) and peak_rss_mb (largest worker peak RSS).

--trace 1 alternates plain and traced workers on the same cycle inputs
until S seconds are used and reports the per-layer metrics of the traced
cycles (mean per cycle) and trace.overhead_frac, the median traced cycle
time over the median plain one, minus 1. Spans go to
.bench_out/spans/<workload>-seed<N>-<k>.csv.gz.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. A run record with every sample and the environment goes to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
MIN_CYCLES = 2
RUN_LIMIT_S = 170.0  # every worker is stopped by then
# one BLAS thread: on a shared machine a second thread mostly adds noise,
# and it keeps dense-BLAS and single-threaded kernels comparable
BLAS_THREADS = "1"


class Run:
    """Spawns the workers of one benchmark run and collects what they report."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.env = None
        self.child_env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
                          "OMP_NUM_THREADS": BLAS_THREADS, "PYTHONDONTWRITEBYTECODE": "1"}

    def worker(self, mode: str, cycle: int, spans: Path | None = None) -> dict | None:
        """Run one worker to completion; None if it crashed or overran."""
        self.spawned += 1
        workdir = OUT / "work" / f"{self.workload}-{os.getpid()}-{self.spawned}"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--cycle", str(cycle), "--mode", mode,
               "--workdir", str(workdir)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.child_env,
                                stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            stdout = ""
            print(f"worker {mode} cycle {cycle} overran the run limit", file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        elapsed = time.monotonic() - spawned
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker {mode} cycle {cycle} exited with {proc.returncode}", file=sys.stderr)
            if mode != "probe":
                self.attempted += 1
                self.failed += 1
            return None
        res = json.loads(lines[-1])
        res["elapsed"] = elapsed
        self.setup_s.append(res["ready"] - spawned)
        if mode == "probe":
            self.env = res["env"]
        else:
            self.attempted += res["ops"]
            self.failed += res["failed"]
        return res

    def out_of_time(self, t0: float, seconds: float, per_cycle: list[float], least: int) -> bool:
        """Whether to stop: at least `least` cycles, none that would end past `seconds`."""
        elapsed = time.monotonic() - t0
        if elapsed > RUN_LIMIT_S / 2:
            return True
        if len(per_cycle) < least:
            return False
        return elapsed + statistics.median(per_cycle) > seconds


def plain_run(run: Run, seconds: float) -> tuple[dict, dict]:
    for _ in range(SETUP_PROBES):
        run.worker("probe", 0)
    cycles, per_cycle = [], []
    t0 = time.monotonic()
    while not run.out_of_time(t0, seconds, per_cycle, MIN_CYCLES):
        res = run.worker("plain", len(per_cycle))
        per_cycle.append(res["elapsed"] if res else float("inf"))
        if res is not None:
            cycles.append(res)
    wall = [sum(c["op_s"]) for c in cycles]
    # the mean, not the median: a run holds two to six cycles, the seed moves
    # the taumin probe count from cycle to cycle, and the mean uses them all
    metrics = {
        "setup_s": {"value": statistics.median(run.setup_s) if run.setup_s else 0.0, "unit": "s"},
        "wall_s": {"value": statistics.fmean(wall) if wall else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": max((c["peak_rss_mb"] for c in cycles), default=0.0), "unit": "MB"},
    }
    trials = cycles[0]["trials"] if cycles else 0
    record = {"setup_s": run.setup_s, "wall_s": wall, "cycles": cycles,
              "trials_per_s": trials / metrics["wall_s"]["value"] if trials else None}
    return metrics, record


def traced_run(run: Run, seconds: float) -> tuple[dict, dict]:
    run.worker("probe", 0)
    plain, traced, per_cycle = [], [], []
    t0 = time.monotonic()
    pair = 0
    while not run.out_of_time(t0, seconds, per_cycle, 1):
        spans = OUT / "spans" / f"{run.workload}-seed{run.seed}-{pair}.csv.gz"
        order = ("plain", "traced") if pair % 2 == 0 else ("traced", "plain")
        started = time.monotonic()
        for mode in order:
            res = run.worker(mode, 0, spans if mode == "traced" else None)
            if res is not None:
                (plain if mode == "plain" else traced).append(res)
        per_cycle.append(time.monotonic() - started)
        pair += 1
    layers = {}
    for name, _, _ in PER_LAYER:
        values = [c["layers"][name] for c in traced if name in c.get("layers", {})]
        layers[name] = statistics.fmean(values) if values else 0.0
    plain_wall = [sum(c["op_s"]) for c in plain]
    traced_wall = [sum(c["op_s"]) for c in traced]
    if plain_wall and traced_wall:
        layers["trace.overhead_frac"] = statistics.median(traced_wall) / statistics.median(plain_wall) - 1.0
    metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit, _ in PER_LAYER}
    record = {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall, "traced": traced}
    return metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "snopto" / "__init__.py").is_file():
        print(f"error: no snopto package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, record = traced_run(run, args.seconds)
    else:
        metrics, record = plain_run(run, args.seconds)
    if run.env is None or run.attempted == 0:
        print("error: no worker completed; see stderr above", file=sys.stderr)
        return 1

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=run.env, attempted=run.attempted, failed=run.failed)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {run.attempted} ops, "
          f"{run.failed} failed, fail_frac = {run.failed / run.attempted:.6g}")
    print("# env " + json.dumps(run.env, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if record.get("trials_per_s") is not None:
        print(f"# trials_per_s = {record['trials_per_s']:.6g} 1/s")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
