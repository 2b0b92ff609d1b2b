"""Command line front end.

Seven subcommands map onto the library layers: `material` prints the
builtin table, `spectrum` and `dynamics` emit deterministic curves,
`synth` draws a stationary record, `detect` and `taumin` run the Monte
Carlo decision machinery, and `feasibility` evaluates the planning laws.

Every run resolves its settings in three layers: built-in defaults, then
a config file (`--config`, one `key = value` per line, # comments), then
explicit flags. Each subcommand declares its options once, as the key ->
default table in `_SPECS`; the parser is generated from it, and flag and
config values go through the same conversion. Physical values accept unit suffixes ("10 mHz", "300 K",
"432 mW", "184 amu", "0.0478 A2", "1.6 h"); frequencies given in hertz
are converted to angular form, since every frequency in the package is
angular. Emitted files embed the fully resolved config and master seed;
JSON outputs can be fed straight back through --config, and rerunning an
emitted config reproduces the file byte for byte.

Exit codes: 0 success, 1 domain or runtime failure, 2 usage or config
problems (argparse keeps its native behavior for unknown flags).

Output location: --outdir, else $SNOPTO_OUTDIR, else the working
directory. Every file is named <command>_<tag>_seed<seed>.json or .csv,
and the feasibility sweep curve <command>_<tag>_seed<seed>_sweep.csv; the
tag is the prescription, material, kind or truth of the run. So reruns
overwrite their own outputs and nothing else. Each path is printed as its
file is written; a refused run writes and prints nothing. On spectrum,
dynamics and feasibility nothing random runs, and the seed is only that
run label. No plotting here; curves are emitted as plot-ready CSV.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .constants import AMU
from .detect import HypothesisPair, check_search, fit_prediction, outcome_probs, tau_min
from .errors import BoundedSearchError, ConfigError, DomainError
from .feasibility import (
    PRE_DESIGN,
    ExperimentConfig,
    check_sweep,
    design,
    optimize_beta,
    report,
)
from .gaussian_dynamics import COLUMNS, GaussianState, _moment_blocks, check_step
from .materials import BUILTIN, delta_x_zp, get_material, omega_sn
from .response import frequency_grid, gamma_squared
from .spectra import (
    SpectrumParams,
    beta_limit,
    default_grid,
    evaluate,
    feature,
)
from .synth import BasebandModel, gen_baseband

_TWO_PI = 2.0 * math.pi

# Suffix -> factor to SI. The hertz family lands in rad/s on purpose.
# Matching tries longer suffixes first so "mHz" wins over "Hz" and
# "amu" over a bare trailing letter; the last row reads a bare number.
_UNITS = [
    ("THz", _TWO_PI * 1e12),
    ("GHz", _TWO_PI * 1e9),
    ("MHz", _TWO_PI * 1e6),
    ("kHz", _TWO_PI * 1e3),
    ("mHz", _TWO_PI * 1e-3),
    ("uHz", _TWO_PI * 1e-6),
    ("amu", AMU),
    ("A^2", 1e-20),
    ("Hz", _TWO_PI),
    ("mK", 1e-3),
    ("uK", 1e-6),
    ("pW", 1e-12),
    ("nW", 1e-9),
    ("uW", 1e-6),
    ("mW", 1e-3),
    ("kg", 1.0),
    ("mg", 1e-6),
    ("ms", 1e-3),
    ("us", 1e-6),
    ("A2", 1e-20),
    ("K", 1.0),
    ("W", 1.0),
    ("g", 1e-3),
    ("h", 3600.0),
    ("d", 86400.0),
    ("s", 1.0),
    ("", 1.0),
]


def parse_quantity(text) -> float:
    """A float, optionally with a unit suffix, normalized to SI."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    s = str(text).strip()
    for suffix, factor in _UNITS:
        head = s[: len(s) - len(suffix)].strip()
        if not s.endswith(suffix) or not head:
            continue
        try:
            value = float(head) * factor
        except ValueError:
            continue
        if not math.isfinite(value):
            raise ConfigError(f"non-finite quantity {text!r}")
        return value
    raise ConfigError(f"cannot parse quantity {text!r}")


def _to_int(value) -> int:
    """An exact integer; float spellings such as "1e5" must be whole."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return int(str(value))
    except ValueError:
        pass
    try:
        f = float(value)
    except (TypeError, ValueError):
        f = math.nan
    if isinstance(value, bool) or not f.is_integer():
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(f)


def _to_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    s = str(value).strip().lower()
    if s in ("true", "yes", "on", "1"):
        return True
    if s in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


_STR_KEYS = {"material", "prescription", "kind", "truth"}
_INT_KEYS = {"seed", "jobs", "n", "store_every", "npoints", "max_samples", "n_grid"}
_BOOL_KEYS = {"fit_only", "sweep"}


def _convert(key: str, value):
    if key in _STR_KEYS:
        return str(value)
    if key in _INT_KEYS:
        return _to_int(value)
    if key in _BOOL_KEYS:
        return _to_bool(value)
    return parse_quantity(value)


def load_config(path) -> dict:
    """Key = value document, or the config block of an emitted JSON report."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}") from None
        block = data.get("config", data)
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: JSON config block must be an object")
        return dict(block)
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, eq, value = s.partition("=")
        if not eq or not key.strip():
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_REQUIRED = object()


def resolve(args, spec: dict) -> dict:
    """Three-layer merge: defaults, then config file, then explicit flags."""
    file_conf = load_config(args.config) if args.config else {}
    conf = {}
    for key, default in spec.items():
        if getattr(args, key) is not None:
            conf[key] = _convert(key, getattr(args, key))
        elif file_conf.get(key) is not None:
            conf[key] = _convert(key, file_conf[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        else:
            conf[key] = default
    # emitted configs legitimately carry keys for other subcommands' shared
    # knobs; only complain about ones nothing recognizes
    unknown = set(file_conf) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return conf


def _output(args, conf: dict, tag: str, suffix: str) -> Path:
    """<outdir>/<command>_<tag>_seed<seed><suffix>, the one naming rule, with outdir created.

    outdir is --outdir, else $SNOPTO_OUTDIR, else the working directory.
    """
    out = Path(args.outdir or os.environ.get("SNOPTO_OUTDIR") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{args.command}_{tag}_seed{conf['seed']}{suffix}"


def _emit_json(path: Path, command: str, conf: dict, result) -> None:
    """The report of a run, with its resolved config; prints path."""
    payload = {
        "command": command,
        "version": __version__,
        "master_seed": conf.get("seed", 0),
        "config": conf,
        "result": result,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(path)


def _emit_csv(path: Path, command: str, conf: dict, names, blocks) -> None:
    """Header lines of conf, the column names, then the rows at %.17g; prints path.

    blocks is an iterable of (rows, len(names)) float arrays, written as
    each comes, so a generator of blocks is held one block at a time.

    The rows are the bytes np.savetxt(path, data, fmt="%.17g", header=...)
    writes, formatted in numpy by csvtext.write_rows; its module docstring
    states why every byte is exact and how the memory a file holds at
    once is bounded.
    """
    # imported here, not with cli: where no bytecode is cached, compiling it
    # at start-up cost every command 2 ms and 0.6 MB of peak memory
    from .csvtext import write_rows

    lines = [f"command = {command}", f"version = {__version__}"]
    lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in conf.items()]
    lines.append(", ".join(names))
    with open(path, "wb") as fh:
        fh.write(("# " + "\n# ".join(lines) + "\n").encode())
        write_rows(fh, blocks)
    print(path)


# ---------------------------------------------------------------- options

# Each subcommand's options, key -> default, in the order CSV headers list
# them. The parser is generated from these: every key becomes
# --key-with-hyphens, a store_true switch for _BOOL_KEYS, and its value is
# parsed by _convert whether it comes from a flag or a config file. The
# apparatus defaults are the reference design of the planning laws.
_SPECS = {
    "spectrum": {
        **PRE_DESIGN,
        "prescription": "pre",
        "beta": None,
        "wmin": None,
        "wmax": None,
        "npoints": None,
        "seed": 0,
    },
    "dynamics": {
        **PRE_DESIGN,
        "t_final": _REQUIRED,
        "dt": None,
        "store_every": 1,
        "x0": 0.0,
        "p0": 0.0,
        "squeeze": 0.0,
        "sn_weight": 0.5,
        "seed": 0,
    },
    "synth": {
        "kind": "peak",
        "amp": None,
        "gamma": 1.0,
        "duration": _REQUIRED,
        "dt": _REQUIRED,
        "seed": 0,
    },
    "detect": {
        "truth": _REQUIRED,
        "kind": "dip",
        "amp": _REQUIRED,
        "gamma": 1.0,
        "duration": _REQUIRED,
        "dt": _REQUIRED,
        "yth": _REQUIRED,
        "n": 10000,
        "seed": 0,
        "jobs": 1,
    },
    "taumin": {
        "kind": "dip",
        "amp": _REQUIRED,
        "gamma": 1.0,
        "p": 10.0,
        "dt_gamma": 0.14,
        "n": 10000,
        "max_samples": 8192,
        "fit_only": False,
        "seed": 0,
        "jobs": 1,
    },
    "feasibility": {
        # unset design keys take the defaults of the chosen prescription
        **dict.fromkeys(PRE_DESIGN),
        "prescription": _REQUIRED,
        "beta": None,
        "sweep": False,
        "p": 10.0,
        "n_grid": 481,
        "seed": 0,
    },
}

# every resolvable key, for tolerating emitted configs across commands
_ALL_KEYS = {"command", "version"}.union(*_SPECS.values())

_HELP = {
    "config": "key = value file, or an emitted JSON report",
    "outdir": "output directory (default $SNOPTO_OUTDIR or .)",
    "seed": "master seed of the random draws, stamped into outputs",
    "jobs": "Monte Carlo worker count",
    "material": "builtin material name (e.g. W, Os)",
    "mass": "total mass, e.g. '200 g'",
    "omega_cm": "trap frequency, e.g. '10 mHz' (hertz become angular)",
    "q": "mechanical quality factor",
    "t0": "bath temperature, e.g. '300 K'",
    "i_in": "input power, e.g. '432 mW'",
    "omega_c": "carrier, e.g. '0.2 THz'",
    "prescription": "qm, pre or post (feasibility: pre or post)",
    "beta": "measurement strength (overrides --i-in)",
    "wmin": "lower end of a log grid, with --wmax",
    "npoints": "grid points between --wmin and --wmax (default 2001)",
    "kind": "flat, peak or dip (detect, taumin: peak or dip)",
    "truth": "flat, or the alternative kind",
    "n": "trial count (taumin: per probed duration)",
    "p": "confidence target in percent",
    "fit_only": "emit the printed-fit estimate without Monte Carlo",
    "sweep": "also emit the strength sweep curve",
}


# commands that draw nothing at random: there --seed is only a run label,
# naming the output files and stamped into them
_LABEL_SEED = {"spectrum", "dynamics", "feasibility"}
_LABEL_SEED_HELP = "run label that names and stamps the outputs (nothing random runs)"


def _experiment(conf) -> ExperimentConfig:
    return ExperimentConfig.build(**{key: conf[key] for key in PRE_DESIGN})


# ---------------------------------------------------------------- material

def cmd_material(args) -> int:
    """builtin material table"""
    if args.all:
        specs = BUILTIN
    elif args.name:
        specs = (get_material(args.name),)
    else:
        raise ConfigError("give a material name or --all")
    keys = ("name", "atomic_mass_amu", "debye_waller_A2", "density_g_cm3", "delta_x_zp_pm", "omega_sn")
    widths = [max(len(k), 12) for k in keys]
    print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for spec in specs:
        values = (spec.atomic_mass / AMU, spec.debye_waller_B / 1e-20, spec.density / 1e3,
                  delta_x_zp(spec.debye_waller_B) / 1e-12, omega_sn(spec))
        cells = (spec.name, *(f"{v:.4f}" for v in values))
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0


# ---------------------------------------------------------------- spectrum

def cmd_spectrum(args) -> int:
    """output spectrum curve plus feature block"""
    conf = resolve(args, _SPECS["spectrum"])
    exp = _experiment(conf)
    if conf["beta"] is None and conf["i_in"] <= 0:
        # recorded so that a --config rerun takes the same from_beta path;
        # a beta recomputed from alpha_sq may differ in the last digit
        conf["beta"] = beta_limit(exp.osc, exp.material).recommended
    if conf["beta"] is None:
        params = SpectrumParams.from_optics(exp.osc, exp.optics)
    else:
        params = SpectrumParams.from_beta(exp.osc, conf["beta"])
    prescription = conf["prescription"]
    if (conf["wmin"] is None) != (conf["wmax"] is None):
        raise ConfigError("give both --wmin and --wmax, or neither")
    if conf["wmin"] is not None:
        npoints = 2001 if conf["npoints"] is None else conf["npoints"]
        grid = frequency_grid(conf["wmin"], conf["wmax"], npoints)
    elif conf["npoints"] is not None:
        raise ConfigError("--npoints needs --wmin and --wmax")
    else:
        grid = default_grid(params, prescription)
    spectrum = evaluate(prescription, grid, params)
    peak_or_dip = feature(prescription, params)
    _emit_csv(_output(args, conf, prescription, ".csv"), "spectrum", conf,
              ("omega", "value"), [np.column_stack((spectrum.grid, spectrum.values))])
    _emit_json(_output(args, conf, prescription, ".json"), "spectrum", conf, {
        "baseline": params.baseline,
        "beta": params.beta,
        "gamma_sq": params.gamma_sq,
        "omega_q": params.omega_q,
        "well_resolved": params.well_resolved,
        "feature": asdict(peak_or_dip) if peak_or_dip else None,
    })
    return 0


# ---------------------------------------------------------------- dynamics

def cmd_dynamics(args) -> int:
    """moment trajectory CSV"""
    conf = resolve(args, _SPECS["dynamics"])
    exp = _experiment(conf)
    state = GaussianState.ground(exp.osc).squeezed(conf["squeeze"]).displaced(conf["x0"], conf["p0"])
    conf["dt"] = check_step(exp.osc, conf["t_final"], conf["dt"], conf["store_every"])
    blocks = _moment_blocks(state, exp.osc, conf["t_final"], conf["dt"], conf["sn_weight"], conf["store_every"])
    _emit_csv(_output(args, conf, conf["material"], ".csv"), "dynamics", conf, COLUMNS, blocks)
    return 0


# ---------------------------------------------------------------- synth

def _alt_model(conf) -> BasebandModel:
    kind = conf["kind"]
    if kind not in ("peak", "dip"):
        return BasebandModel(kind)  # flat, or the model's own kind error
    if conf.get("amp") is None:
        raise ConfigError(f"--amp is required for kind {kind!r}")
    return BasebandModel(kind, amplitude=conf["amp"], fwhm_gamma=conf["gamma"])


def cmd_synth(args) -> int:
    """draw one stationary record"""
    conf = resolve(args, _SPECS["synth"])
    model = _alt_model(conf)
    series = gen_baseband(model, conf["duration"], conf["dt"], conf["seed"])
    header_conf = {"dt": series.dt, "n": series.n, "seed": series.seed, "model": series.model_tag, **{k: v for k, v in conf.items() if k not in ("dt", "seed")}}
    _emit_csv(_output(args, conf, conf["kind"], ".csv"), "synth", header_conf, ("sample",), [series.samples[:, None]])
    return 0


# ---------------------------------------------------------------- detect

def cmd_detect(args) -> int:
    """Monte Carlo verdict rates at a threshold"""
    conf = resolve(args, _SPECS["detect"])
    if conf["truth"] not in ("flat", conf["kind"]):
        raise ConfigError(f"truth must be flat or {conf['kind']!r}, got {conf['truth']!r}")
    alt = _alt_model(conf)
    pair = HypothesisPair(BasebandModel("flat"), alt)
    truth = pair.null_model if conf["truth"] == "flat" else alt
    report = outcome_probs(
        truth, pair, conf["duration"], conf["dt"], conf["yth"],
        conf["n"], conf["seed"], jobs=conf["jobs"],
    )
    _emit_json(_output(args, conf, conf["truth"], ".json"), "detect", conf, asdict(report))
    return 0


# ---------------------------------------------------------------- taumin

def cmd_taumin(args) -> int:
    """minimum record length search"""
    conf = resolve(args, _SPECS["taumin"])
    fit = fit_prediction(conf["kind"], conf["amp"], conf["gamma"], p=conf["p"])
    fit_block = asdict(fit)
    settings = (conf["p"] / 100.0, conf["dt_gamma"], conf["n"], conf["seed"], conf["jobs"], conf["max_samples"])
    if conf["fit_only"]:
        # tau_min does not run, but the report records its settings
        check_search(*settings)
        result = {"fit": fit_block}
    else:
        pair = HypothesisPair(BasebandModel("flat"), _alt_model(conf))
        result = {**tau_min(pair, *settings).as_dict(), "fit": fit_block}
    _emit_json(_output(args, conf, conf["kind"], ".json"), "taumin", conf, result)
    return 0


# ------------------------------------------------------------- feasibility

def cmd_feasibility(args) -> int:
    """planning report from the anchored laws"""
    conf = resolve(args, _SPECS["feasibility"])
    prescription = conf["prescription"]
    defaults = design(prescription)
    # the report records p and n_grid with or without the sweep that reads them
    check_sweep(conf["p"], conf["n_grid"])
    conf.update((k, v) for k, v in defaults.items() if conf[k] is None)
    exp = _experiment(conf)
    result = asdict(report(prescription, exp, beta=conf["beta"]))
    conf["beta"] = result["beta_used"]
    if conf["sweep"]:
        sweep = optimize_beta(gamma_squared(exp.osc), exp.osc.gamma_m, p=conf["p"], n_grid=conf["n_grid"])
        result["sweep"] = {k: v for k, v in sweep._asdict().items() if k not in ("betas", "taus")}
        _emit_csv(_output(args, conf, prescription, "_sweep.csv"), "feasibility", conf,
                  ("beta", "tau_min"), [np.column_stack((sweep.betas, sweep.taus))])
    _emit_json(_output(args, conf, prescription, ".json"), "feasibility", conf, result)
    return 0


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; main dispatches on its command."""
    parser = argparse.ArgumentParser(
        prog="snopto",
        description="Spectra, trajectories, synthetic records, decision statistics and planning laws.",
    )
    parser.add_argument("--version", action="version", version=f"snopto {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("material", help=cmd_material.__doc__)
    p.add_argument("name", nargs="?", help="element symbol, e.g. W")
    p.add_argument("--all", action="store_true", help="print every builtin row")

    for name, spec in _SPECS.items():
        p = subs.add_parser(name, help=globals()["cmd_" + name].__doc__)
        for key in ("config", "outdir", *spec):
            label = key == "seed" and name in _LABEL_SEED
            # default None: an option not given is None, switches included
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=_LABEL_SEED_HELP if label else _HELP.get(key),
                           action="store_true" if key in _BOOL_KEYS else "store")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a rebound cmd_* name is the one that runs
        return globals()["cmd_" + args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, BoundedSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
