"""One benchmark process: a set-up probe, or one timed cycle of a workload.

    python3 bench/worker.py --workload W --seed S --cycle K --mode plain|traced|probe \
        --workdir DIR [--spans FILE]

The process imports snopto from the checkout's `src/`, builds the cycle's
inputs and records the monotonic time at which it is ready (the parent
subtracts its spawn time to get set-up time). A probe stops there. A plain
cycle runs every operation, timing each one, then records the process's
peak RSS and checks the outputs. A traced cycle does the same with the
layers wrapped by `tracing.install()`, writes its spans to FILE and
derives the per-layer metrics from them. The last line of stdout is one
JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_snopto():
    sys.path.insert(0, str(SRC))
    import snopto.cli

    if Path(snopto.cli.__file__).resolve().parent != SRC / "snopto":
        raise ImportError(f"snopto imported from {snopto.cli.__file__}, not {SRC}")
    return snopto.cli


def _blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            try:
                out[pkg.__name__] = int(getattr(ctypes.CDLL(str(lib)), symbol)())
            except (OSError, AttributeError):
                continue
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(pkg):
        try:
            return pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError, AttributeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }


def _run(cli, op) -> object:
    if op.call is not None:
        return op.call()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    if rc != 0:
        raise RuntimeError(f"{op.label}: snopto exited with {rc}")
    return None


def _bytes_written(op) -> int:
    if op.argv is None or not op.outdir.is_dir():
        return 0
    return sum(p.stat().st_size for p in op.outdir.iterdir())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycle", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "plain", "traced"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    cli = _import_snopto()
    from workloads import CheckFailed, build_cycle

    ops = build_cycle(args.workload, args.seed, args.cycle, args.workdir)
    rec = None
    if args.mode == "traced":
        import tracing

        rec = tracing.install()
    out = {"ready": time.monotonic(), "ops": len(ops)}
    if args.mode == "probe":
        out["env"] = environment()
        print(json.dumps(out))
        return 0

    times, errors, values = [], [], {}
    for k, op in enumerate(ops):
        if rec is not None:
            rec.op_id = k
        t0 = time.monotonic()
        try:
            values[k] = _run(cli, op)
        except Exception:
            errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        times.append(time.monotonic() - t0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["op_s"] = times
    out["trials"] = sum(op.trials for op in ops)

    for k, value in values.items():
        try:
            ops[k].check(ops[k], value)
        except CheckFailed as exc:
            errors.append(str(exc))
        except Exception:
            errors.append(f"{ops[k].label} check: {traceback.format_exc(limit=3)}")
    if rec is not None:
        written = sum(_bytes_written(op) for op in ops)
        out["layers"] = tracing.layer_metrics(rec, written)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            rec.write(args.spans)
    shutil.rmtree(args.workdir, ignore_errors=True)
    out["failed"] = len(errors)
    for message in errors:
        print(message, file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
