"""What importing and running snopto loads, checked in a fresh interpreter.

The command line imports numpy and the standard library only. numpy loads
some submodules lazily on first use; any such import inside a run lands in
the run's own time, so the Monte Carlo commands and `spectrum` must add
none. A future
scipy use belongs inside the function that needs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import snopto

SRC = Path(snopto.__file__).resolve().parents[1]


def _run(code: str, tmp_path) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    out = _run(
        "import json, sys, snopto.cli\n"
        "print(json.dumps({'scipy': 'scipy' in sys.modules,"
        " 'numpy.random': 'numpy.random' in sys.modules}))",
        tmp_path,
    )
    assert out == {"scipy": False, "numpy.random": True}


def test_monte_carlo_runs_add_no_numpy_module(tmp_path):
    runs = [
        ["taumin", "--kind", "peak", "--amp", "30", "--n", "200", "--outdir", "taumin"],
        ["detect", "--truth", "flat", "--kind", "dip", "--amp", "0.62", "--duration", "20",
         "--dt", "0.14", "--yth", "1", "--n", "300", "--outdir", "detect"],
        ["spectrum", "--outdir", "spectrum"],
    ]
    out = _run(
        "import contextlib, io, json, sys\n"
        "from snopto.cli import main\n"
        "added = {}\n"
        f"for argv in {runs!r}:\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    assert rc == 0, argv\n"
        "    added[argv[0]] = sorted(m for m in set(sys.modules) - before\n"
        "                            if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(json.dumps(added))",
        tmp_path,
    )
    assert out == {"taumin": [], "detect": [], "spectrum": []}
