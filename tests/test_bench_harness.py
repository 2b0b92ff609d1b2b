"""One traced cycle of every benchmark workload runs on the code in `src/`.

`bench/tracing.py` reads fields of the library's results and the names of
its arguments (`evaluate(...).grid`, `tau_min(...).n_samples`,
`evolve_moments(...).times`, the parameters of `y_ensemble`), so a change
under `src/` can break the benchmark while every library test passes.
Each workload of `BENCHMARK.json` runs its cycle 0 here, traced, in a fresh
`bench/worker.py` process started as `bench/run.py` starts it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# the worker stamps the scipy version into every run
pytest.importorskip("scipy")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cycle_runs_clean(tmp_path, workload):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", "0",
            "--cycle", "0", "--mode", "traced", "--workdir", str(tmp_path / "work")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["layers"]
