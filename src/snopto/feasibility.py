"""Experiment planning: time, power and signal-size estimates plus the
measurement-strength sweep.

Two kinds of answers live here. The anchored power laws (one table,
ANCHORED_LAWS, one evaluator, anchored_law, reported by pre_report and
post_report) take a quoted reference design and scale it: each value is a
reference number times printed exponents of the parameter ratios, so
evaluating at the reference point reproduces the reference value to
machine precision by construction. We deliberately do not re-derive the
prefactors from the response chain; the quoted values encode rounding and
modeling choices we could only degrade, and the spread between the two
routes is tracked in tests rather than hidden. The numeric side
(optimize_beta) sweeps the measurement strength and scores each point with
the Monte Carlo fit machinery, which is how the 0.31 / Gamma^2 rule of
thumb is cross-checked.

A note on run length: the detection statistic accumulates over records a
few feature coherence times long, so the apparatus never needs to stay
stable for the whole tau_min. Runs over single coherence times, repeated
or in parallel, add up the same way; reports carry coherence_time
(one over the feature width) for exactly that planning question.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import AMU
from .detect import fit_in_range, fit_prediction
from .errors import ConfigError, DomainError
from .materials import MaterialSpec, get_material, omega_sn
from .response import (
    OpticalConfig,
    OscillatorConfig,
    gamma_squared,
    gamma_squared_approx,
)
from .spectra import SpectrumParams, beta_limit, dip_depth, dip_width, post_feature, pre_feature

HOUR = 3600.0
DAY = 86400.0

# Reference design points the power laws are anchored to, keyed by the
# arguments of ExperimentConfig.build; the command line takes its defaults
# from them too. The "pre" design is a room-temperature tungsten pendulum
# read out hard; "post" is a cryogenic osmium one read out softly.
PRE_DESIGN = {
    "material": "W",
    "mass": 0.2,  # kg
    "omega_cm": 2.0 * math.pi * 0.010,
    "q": 1.0e4,
    "t0": 300.0,
    "i_in": 0.0,
    "transmissivity": 1.0e-2,
    "omega_c": 2.0 * math.pi * 0.2e12,
}
POST_DESIGN = {
    **PRE_DESIGN,
    "material": "Os",
    "omega_cm": 2.0 * math.pi * 0.004,
    "q": 1.0e7,
    "t0": 1.0,
}
DESIGNS = {"pre": PRE_DESIGN, "post": POST_DESIGN}

# The points the laws are anchored at: the reference designs with the
# rounded atomic mass (amu) and trap frequencies the laws were quoted with,
# not the isotope-averaged ones, so that the anchor evaluation is exact.
_PRE_ANCHOR = {**PRE_DESIGN, "m_atom": 184.0, "omega_sn": 0.359}
_POST_ANCHOR = {**POST_DESIGN, "omega_sn": 0.488}

# Each law: (value at the anchor, the anchor, factors). A factor
# (quantity, e) contributes (x / x_anchor) ** e if e > 0 and
# (x_anchor / x) ** -e if e < 0, multiplied in the listed order; the
# orientation and order are part of the law, as they fix the last bits.
ANCHORED_LAWS = {
    # minimum measurement time (s) for the peak signature
    "pre_tau_scaled": (1.6 * HOUR, _PRE_ANCHOR, (
        ("t0", 0.73), ("omega_cm", 0.47), ("m_atom", -0.49),
        ("mass", -0.73), ("q", -0.47), ("omega_sn", -1.96))),
    # input optical power (W) to run at a tenth of the strength limit
    "pre_input_power": (0.432, _PRE_ANCHOR, (
        ("q", -1), ("m_atom", 2.0 / 3.0), ("mass", 2), ("omega_cm", 1),
        ("omega_sn", 2.0 / 3.0), ("omega_c", -1), ("transmissivity", 2))),
    # normalized peak height h at a tenth of the strength limit
    "pre_peak_height": (8235.0, _PRE_ANCHOR, (
        ("q", 2), ("m_atom", 2.0 / 3.0), ("mass", 1), ("omega_cm", -2),
        ("omega_sn", 8.0 / 3.0), ("t0", -1))),
    # minimum measurement time (s) for the dip signature
    "post_tau_scaled": (13.0 * DAY, _POST_ANCHOR, (
        ("q", -1), ("t0", 1), ("omega_sn", -3), ("omega_cm", 1))),
    # input optical power (W) to run at the optimal dip strength
    "post_input_power": (4.8e-9, _POST_ANCHOR, (
        ("q", 1), ("t0", -2), ("mass", 2), ("omega_cm", -1),
        ("omega_sn", 4), ("omega_c", -1), ("transmissivity", 2))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One candidate apparatus: oscillator, its material, and the probe."""

    osc: OscillatorConfig
    material: MaterialSpec
    optics: OpticalConfig

    @classmethod
    def build(
        cls,
        material=PRE_DESIGN["material"],
        mass: float = PRE_DESIGN["mass"],
        omega_cm: float = PRE_DESIGN["omega_cm"],
        q: float = PRE_DESIGN["q"],
        t0: float = PRE_DESIGN["t0"],
        i_in: float = PRE_DESIGN["i_in"],
        transmissivity: float = PRE_DESIGN["transmissivity"],
        omega_c: float = PRE_DESIGN["omega_c"],
    ) -> "ExperimentConfig":
        """Assemble a config with the trap frequency taken from the material."""
        spec = get_material(material) if isinstance(material, str) else material
        osc = OscillatorConfig(
            mass=mass, omega_cm=omega_cm, omega_sn=omega_sn(spec), q=q, t0=t0
        )
        return cls(osc=osc, material=spec, optics=OpticalConfig(i_in, transmissivity, omega_c))

    @classmethod
    def reference_pre(cls) -> "ExperimentConfig":
        return cls.build(**PRE_DESIGN)

    @classmethod
    def reference_post(cls) -> "ExperimentConfig":
        return cls.build(**POST_DESIGN)


@dataclass(frozen=True)
class FeasibilityReport:
    """Planning summary for one prescription at one design point.

    peak_height_or_dip is the normalized feature size: the peak height h
    for the pre prescription (from the anchored law) and the dip depth d
    for post (from the closed form, since no law is quoted for it).
    validity_flags maps named regime checks to booleans; a False entry
    means the numbers are returned anyway but extrapolate beyond where
    the underlying fits and approximations were established.
    """

    prescription: str
    tau_min_scaled: float  # s
    input_power: float  # W
    peak_height_or_dip: float
    beta_used: float
    coherence_time: float  # s, one over the feature full width
    validity_flags: dict = field(default_factory=dict)

    def __post_init__(self):
        design(self.prescription)  # refuses any other prescription
        for name in ("tau_min_scaled", "input_power", "peak_height_or_dip", "coherence_time"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")
        if self.beta_used <= 0:
            raise DomainError("beta_used must be > 0")


def anchored_law(name: str, config: ExperimentConfig) -> float:
    """Evaluate the law ANCHORED_LAWS[name] at a design."""
    value, anchor, factors = ANCHORED_LAWS[name]
    osc, opt = config.osc, config.optics
    if osc.omega_cm <= 0 or osc.omega_sn <= 0 or osc.t0 <= 0 or osc.gamma_m <= 0:
        raise DomainError(
            "scaling laws need omega_cm, omega_sn, t0 and gamma_m all > 0"
        )
    design = {
        "t0": osc.t0,
        "omega_cm": osc.omega_cm,
        "m_atom": config.material.atomic_mass / AMU,
        "mass": osc.mass,
        "q": float(osc.q) if osc.q is not None else osc.omega_cm / osc.gamma_m,
        "omega_sn": osc.omega_sn,
        "omega_c": opt.omega_c,
        "transmissivity": opt.transmissivity,
    }
    return value * math.prod(
        (design[k] / anchor[k]) ** e if e > 0 else (anchor[k] / design[k]) ** -e
        for k, e in factors
    )


# the rule of thumb's optimal dip strength is this over gamma_sq
_RULE_OF_THUMB = 0.31


class BetaOpt(NamedTuple):
    value: float
    band: tuple  # (low, high): strengths achieving within ~12% of the optimum
    in_regime: bool  # gamma_sq lies where the rule of thumb was established


def post_beta_opt(gamma_sq: float) -> BetaOpt:
    """Rule-of-thumb optimal measurement strength 0.31 / gamma_sq.

    The minimum is soft; anything in the attached band lands within about
    12% of the optimal measurement time. Outside gamma_sq < 0.1 the value
    is still returned with in_regime False.
    """
    if gamma_sq <= 0:
        raise DomainError(f"gamma_sq must be > 0, got {gamma_sq}")
    return BetaOpt(
        value=_RULE_OF_THUMB / gamma_sq,
        band=(0.1 / gamma_sq, 0.7 / gamma_sq),
        in_regime=gamma_sq < 0.1,
    )


class BetaSweep(NamedTuple):
    beta_opt: float
    tau_min: float  # s, fit-based, at beta_opt
    depth_at_opt: float
    betas: np.ndarray
    taus: np.ndarray  # s
    law_ratio: float  # beta_opt * gamma_sq / _RULE_OF_THUMB
    warnings: tuple = ()  # those of the fit at beta_opt


def check_sweep(p: float, n_grid: int) -> None:
    """Refuse every setting of optimize_beta that no sweep takes.

    optimize_beta checks here before it sweeps; a caller that records these
    settings without sweeping checks here too.
    """
    if not 0 < p < 100:
        raise ConfigError(f"p must be a percentage in (0, 100), got {p}")
    if n_grid < 16:
        raise ConfigError(f"n_grid must be at least 16, got {n_grid}")


def optimize_beta(gamma_sq: float, gamma_m: float, p: float = 10.0, n_grid: int = 481) -> BetaSweep:
    """Numeric sweep of the measurement strength for the dip signature.

    Each strength is scored by the fit-based measurement time of a dip of
    depth dip_depth(beta, gamma_sq) and width dip_width(beta, gamma_m). Four
    decades around 1/gamma_sq are scanned on a log grid; the returned
    law_ratio says how far the numeric argmin sits from the 0.31/gamma_sq
    rule of thumb (1.0 means exactly on it), and warnings are those of the
    fit at beta_opt.
    """
    if gamma_sq <= 0 or gamma_m <= 0:
        raise DomainError("gamma_sq and gamma_m must be > 0")
    check_sweep(p, n_grid)
    betas = np.geomspace(1e-2 / gamma_sq, 1e2 / gamma_sq, n_grid)
    depths = np.array([dip_depth(b, gamma_sq) for b in betas])
    fits = [fit_prediction("dip", d, dip_width(b, gamma_m), p=p) for b, d in zip(betas, depths)]
    taus = np.array([fit.seconds for fit in fits])
    k = int(np.argmin(taus))
    return BetaSweep(
        beta_opt=float(betas[k]),
        tau_min=float(taus[k]),
        depth_at_opt=float(depths[k]),
        betas=betas,
        taus=taus,
        law_ratio=float(betas[k] * gamma_sq / _RULE_OF_THUMB),
        warnings=fits[k].warnings,
    )


def _common_flags(config: ExperimentConfig, beta_used: float, fwhm: float, recommended: float) -> dict:
    """Flags both reports share; recommended is beta_limit(...).recommended."""
    osc = config.osc
    return {
        "beta_limit": beta_used <= recommended * (1.0 + 1e-12),
        "narrowband": fwhm <= 1e-3 * osc.omega_q,
        "peak_separation": abs(osc.omega_q - osc.omega_cm) > 10.0 * fwhm,
        # the trap should contribute at most a tenth of omega_q^2, so the
        # feature sits essentially at the gravitational frequency
        "omega_hierarchy": osc.omega_cm**2 <= osc.omega_sn**2 / 10.0,
    }


def pre_report(config: ExperimentConfig, beta: float = None) -> FeasibilityReport:
    """Planning numbers for the peak signature.

    beta defaults to a tenth of the strength limit for this material and
    oscillator, which is the operating point the anchored laws assume.
    Passing a larger beta does not change the reported time or power (the
    laws are functions of the design, not of beta) but trips the
    beta_limit flag.
    """
    tau, power, height = (
        anchored_law(k, config) for k in ("pre_tau_scaled", "pre_input_power", "pre_peak_height")
    )
    osc = config.osc
    recommended = beta_limit(osc, config.material).recommended
    if beta is None:
        beta = recommended
    if beta <= 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    feat = pre_feature(SpectrumParams.from_beta(osc, beta))
    g2_exact = gamma_squared(osc)
    g2_approx = gamma_squared_approx(osc)
    flags = _common_flags(config, beta, feat.fwhm, recommended)
    flags["gamma_sq_regime"] = abs(g2_approx / g2_exact - 1.0) <= 0.1
    flags["fit_range"] = fit_in_range("peak", height)
    return FeasibilityReport(
        prescription="pre",
        tau_min_scaled=tau,
        input_power=power,
        peak_height_or_dip=height,
        beta_used=beta,
        coherence_time=1.0 / feat.fwhm,
        validity_flags=flags,
    )


def post_report(config: ExperimentConfig, beta: float = None) -> FeasibilityReport:
    """Planning numbers for the dip signature.

    beta defaults to the 0.31/gamma_sq rule of thumb evaluated at this
    design's gamma_sq. The dip depth is computed from the closed form at
    the strength actually used; time and power come from the anchored
    laws, which assume the rule-of-thumb strength.
    """
    tau, power = (anchored_law(k, config) for k in ("post_tau_scaled", "post_input_power"))
    osc = config.osc
    rule = post_beta_opt(gamma_squared(osc))
    if beta is None:
        beta = rule.value
    if beta <= 0:
        raise DomainError(f"beta must be > 0, got {beta}")
    feat = post_feature(SpectrumParams.from_beta(osc, beta))
    flags = _common_flags(config, beta, feat.fwhm, beta_limit(osc, config.material).recommended)
    flags["gamma_sq_regime"] = rule.in_regime
    flags["fit_range"] = fit_in_range("dip", feat.amplitude)
    return FeasibilityReport(
        prescription="post",
        tau_min_scaled=tau,
        input_power=power,
        peak_height_or_dip=feat.amplitude,
        beta_used=beta,
        coherence_time=1.0 / feat.fwhm,
        validity_flags=flags,
    )


def design(prescription: str) -> dict:
    """The reference design of a prescription; ConfigError for any but pre and post."""
    if prescription not in DESIGNS:
        raise ConfigError(f"prescription must be {' or '.join(DESIGNS)}, got {prescription!r}")
    return DESIGNS[prescription]


def report(prescription: str, config: ExperimentConfig, beta: float = None) -> FeasibilityReport:
    """pre_report or post_report, by prescription name.

    The table is built per call, from names looked up then, so a report
    function rebound in this module is the one that runs.
    """
    design(prescription)
    return {"pre": pre_report, "post": post_report}[prescription](config, beta=beta)
