"""Output-light noise spectra for the three measurement prescriptions.

Everything is shot-noise normalized: a bare interferometer reads 1/2 at all
frequencies (double-sided convention), and mechanical motion adds on top.
Three predictions share that baseline.

  qm    standard quantum mechanics; back-action drives the classical
        response g_c, thermal noise adds a Lorentzian at omega_cm, and
        nothing happens at omega_q.
  pre   the nonlinear gravitational term evaluated along the forward
        evolution adds a narrow Lorentzian peak at omega_q of height h_pre
        and width gamma_m on the local baseline 1/2 + beta gamma_sq.
  post  evaluating it along the measured (retrodicted) trajectory instead
        correlates the record with itself through the filter k_filter, and
        the peak turns into a wide shallow dip, depth d_post and width
        (beta + 1) gamma_m.

The filter form used here,

    S_BA = (alpha^2 dG g_q* / hbar^2) (alpha^2 / 2 + s_fzp),

follows from the fact that only the in-phase light quadrature and the
zero-point force are correlated with the nonlinear term; the out-of-phase
shot noise is not and drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR
from .errors import ConfigError, DomainError
from .materials import MaterialSpec, delta_x_zp
from .response import (
    OpticalConfig,
    OscillatorConfig,
    alpha_squared,
    beta as _beta,
    g_c,
    g_q,
    delta_g,
    gamma_squared,
    s_fzp,
    s_x_th,
)

PRESCRIPTIONS = ("qm", "pre", "post")


@dataclass(frozen=True)
class SpectrumParams:
    """Oscillator plus measurement strength; the argument bundle for all spectra."""

    osc: OscillatorConfig
    alpha_sq: float

    def __post_init__(self):
        if not self.alpha_sq >= 0:
            raise DomainError(f"alpha_sq must be >= 0, got {self.alpha_sq}")

    @classmethod
    def from_optics(cls, osc: OscillatorConfig, opt: OpticalConfig) -> "SpectrumParams":
        return cls(osc=osc, alpha_sq=alpha_squared(opt))

    @classmethod
    def from_beta(cls, osc: OscillatorConfig, beta_value: float) -> "SpectrumParams":
        """Convenient when the dimensionless strength is the natural knob."""
        if beta_value < 0:
            raise DomainError(f"beta must be >= 0, got {beta_value}")
        a2 = beta_value * osc.mass * HBAR * osc.gamma_m * osc.omega_q
        return cls(osc=osc, alpha_sq=a2)

    @property
    def beta(self) -> float:
        if self.alpha_sq == 0.0:
            return 0.0
        return _beta(self.alpha_sq, self.osc)

    @property
    def gamma_sq(self) -> float:
        return gamma_squared(self.osc)

    @property
    def omega_q(self) -> float:
        return self.osc.omega_q

    @property
    def baseline(self) -> float:
        return 0.5 + self.beta * self.gamma_sq

    @property
    def well_resolved(self) -> bool:
        """Whether the thermal peak at omega_cm stays clear of the feature at omega_q."""
        return abs(self.osc.omega_q - self.osc.omega_cm) > 10.0 * self.osc.gamma_m


@dataclass(frozen=True)
class LorentzianFeature:
    kind: str  # "peak" | "dip"
    prescription: str  # "pre" | "post"
    center: float  # rad/s
    amplitude: float  # relative to baseline
    fwhm: float  # rad/s
    baseline: float
    valid_narrowband: bool

    def __post_init__(self):
        if not self.amplitude >= 0:
            raise DomainError("feature amplitude must be >= 0")
        if self.kind == "dip" and self.amplitude >= 1:
            raise DomainError("dip depth must be < 1")
        if not self.fwhm > 0:
            raise DomainError("fwhm must be > 0")


@dataclass(frozen=True)
class OutputSpectrum:
    grid: np.ndarray
    values: np.ndarray


def s_qm(omega, params: SpectrumParams):
    """Standard-QM output spectrum: shot floor, back action on g_c, thermal noise."""
    p, osc = params, params.osc
    gc2 = np.abs(g_c(omega, osc)) ** 2
    return 0.5 + (p.alpha_sq**2 / (2.0 * HBAR**2)) * gc2 + (p.alpha_sq / HBAR**2) * s_x_th(omega, osc)


def s_aa(omega, params: SpectrumParams):
    """Ensemble-free part of the record: shot floor plus g_q driven by back action and zero-point force."""
    p, osc = params, params.osc
    gq2 = np.abs(g_q(omega, osc)) ** 2
    return 0.5 + (p.alpha_sq**2 / (2.0 * HBAR**2)) * gq2 + (p.alpha_sq / HBAR**2) * gq2 * s_fzp(omega, osc)


def s_pre_total(omega, params: SpectrumParams):
    """Forward-evaluated prescription: s_aa plus the classical thermal Lorentzian."""
    p, osc = params, params.osc
    return s_aa(omega, params) + (p.alpha_sq / HBAR**2) * s_x_th(omega, osc)


def k_filter(omega, params: SpectrumParams):
    """Correlation filter K = S_BA / S_AA; identically zero when omega_sn = 0."""
    p, osc = params, params.osc
    s_ba = (
        (p.alpha_sq / HBAR**2)
        * delta_g(omega, osc)
        * np.conj(g_q(omega, osc))
        * (p.alpha_sq / 2.0 + s_fzp(omega, osc))
    )
    return s_ba / s_aa(omega, params)


def s_post_total(omega, params: SpectrumParams):
    """Retrodicted prescription: |1 + K|^2 s_aa plus the thermal Lorentzian."""
    p, osc = params, params.osc
    filtered = np.abs(1.0 + k_filter(omega, params)) ** 2 * s_aa(omega, params)
    return filtered + (p.alpha_sq / HBAR**2) * s_x_th(omega, osc)


def _pick(prescription: str, **table):
    """table[prescription], or a ConfigError for a name outside PRESCRIPTIONS.

    Callers build the table per call, from names looked up then, so a
    function rebound in this module is the one that runs.
    """
    if prescription not in table:
        raise ConfigError(f"prescription must be one of {PRESCRIPTIONS}, got {prescription!r}")
    return table[prescription]


def evaluate(prescription: str, omega, params: SpectrumParams) -> OutputSpectrum:
    fn = _pick(prescription, qm=s_qm, pre=s_pre_total, post=s_post_total)
    omega = np.asarray(omega, dtype=float)
    return OutputSpectrum(
        grid=omega,
        values=np.asarray(fn(omega, params), dtype=float),
    )


def pre_feature(params: SpectrumParams) -> LorentzianFeature:
    """Closed-form peak: h = beta (beta + 2) / (2 (1/2 + beta gamma_sq)), width gamma_m."""
    b, baseline = params.beta, params.baseline
    return LorentzianFeature(
        kind="peak",
        prescription="pre",
        center=params.omega_q,
        amplitude=b * (b + 2.0) / (2.0 * baseline),
        fwhm=params.osc.gamma_m,
        baseline=baseline,
        valid_narrowband=params.well_resolved,
    )


def dip_depth(beta: float, gamma_sq: float) -> float:
    """Normalized depth of the post dip, h_pre / (beta + 1)^2."""
    return beta * (beta + 2.0) / (2.0 * (0.5 + beta * gamma_sq) * (beta + 1.0) ** 2)


def dip_width(beta: float, gamma_m: float) -> float:
    """Full width of the post dip, (beta + 1) gamma_m: the measurement broadens it."""
    return (beta + 1.0) * gamma_m


def post_feature(params: SpectrumParams) -> LorentzianFeature:
    """Closed-form dip: depth dip_depth(beta, gamma_sq), width dip_width(beta, gamma_m)."""
    b = params.beta
    return LorentzianFeature(
        kind="dip",
        prescription="post",
        center=params.omega_q,
        amplitude=dip_depth(b, params.gamma_sq),
        fwhm=dip_width(b, params.osc.gamma_m),
        baseline=params.baseline,
        valid_narrowband=params.well_resolved,
    )


def feature(prescription: str, params: SpectrumParams) -> LorentzianFeature | None:
    """The closed-form feature of a prescription: the pre peak, the post dip, None for qm."""
    fn = _pick(prescription, qm=None, pre=pre_feature, post=post_feature)
    return None if fn is None else fn(params)


def delta_x_cm(params: SpectrumParams) -> float:
    """Steady-state center-of-mass spread sqrt((beta + 2)/2) times the omega_q ground-state width."""
    return float(np.sqrt((params.beta + 2.0) / 2.0 * HBAR / (2.0 * params.osc.mass * params.omega_q)))


class BetaLimit(NamedTuple):
    limit: float
    recommended: float  # limit / 10


def beta_limit(osc: OscillatorConfig, material: MaterialSpec) -> BetaLimit:
    """Largest beta before the measured spread reaches the lattice zero-point spread.

    The spread delta_x_cm^2 = (beta + 2) / 2 * hbar / (2 M omega_q) is the
    ground-state width hbar / (2 M omega_q) plus a back-action part
    beta hbar / (4 M omega_q). The limit is the beta at which that part
    reaches delta_x_zp^2,

        beta = 2 delta_x_zp^2 / (hbar / 2 M omega_q),

    where delta_x_cm^2 = delta_x_zp^2 + hbar / (2 M omega_q): for a
    macroscopic pendulum the ground-state width is negligible, and
    delta_x_cm equals delta_x_zp. Running at a tenth of that keeps the
    rigid-lattice picture comfortably valid.
    """
    dx = delta_x_zp(material.debye_waller_B)
    lim = 2.0 * dx**2 / (HBAR / (2.0 * osc.mass * osc.omega_q))
    return BetaLimit(limit=lim, recommended=lim / 10.0)


_GRID_BROAD = 600  # log-spaced points over six decades around omega_q
_GRID_FINE = 801  # linear points across each resonance window


def default_grid(params: SpectrumParams, prescription: str = "pre") -> np.ndarray:
    """Log-spaced broad grid with linear refinements around omega_cm and omega_q.

    Both features are narrow (widths of order gamma_m, which can be many
    orders below omega_q), so a plain log grid would miss them entirely;
    each resonance gets a +-20 FWHM linear window. The pieces are merged
    into ascending distinct values: np.unique would do, but it imports
    numpy.ma on first use, so repeats are dropped with a neighbour mask.
    """
    osc = params.osc
    wq = params.omega_q
    fwhm_q = dip_width(params.beta, osc.gamma_m) if prescription == "post" else osc.gamma_m
    pieces = [np.geomspace(wq * 1e-3, wq * 1e3, _GRID_BROAD)]
    for center, width in ((osc.omega_cm, osc.gamma_m), (wq, fwhm_q)):
        if center > 0 and width > 0:
            lo = max(center - 20.0 * width, center * 1e-6)
            pieces.append(np.linspace(lo, center + 20.0 * width, _GRID_FINE))
    grid = np.concatenate(pieces)
    grid.sort()
    keep = grid > 0
    keep[1:] &= grid[1:] != grid[:-1]
    return grid[keep]


def measure_feature(omega, values, kind: str):
    """Numeric (center, amplitude, fwhm, baseline) from a sampled spectrum window.

    The window should bracket one feature and nothing else; the baseline is
    estimated from the outer 20 percent of samples on each side. Amplitude
    follows the same relative-to-baseline convention as the closed forms.
    Half-width points are located by linear interpolation on each flank.
    """
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    if omega.ndim != 1 or omega.size < 16 or omega.shape != values.shape:
        raise ConfigError("need matching 1-d arrays with at least 16 samples")
    edge = max(2, omega.size // 5)
    baseline = float(np.median(np.concatenate([values[:edge], values[-edge:]])))
    if baseline <= 0:
        raise DomainError("non-positive baseline estimate")
    idx = int(np.argmax(values)) if kind == "peak" else int(np.argmin(values))
    center = float(omega[idx])
    extremum = float(values[idx])
    if kind == "peak":
        amplitude = (extremum - baseline) / baseline
        half = baseline + (extremum - baseline) / 2.0
        above = values >= half
    elif kind == "dip":
        amplitude = (baseline - extremum) / baseline
        half = baseline - (baseline - extremum) / 2.0
        above = values <= half
    else:
        raise ConfigError(f"kind must be 'peak' or 'dip', got {kind!r}")

    def crossing(i_from, i_to, step):
        prev = i_from
        for i in range(i_from, i_to, step):
            if not above[i]:
                x0, x1 = omega[i], omega[prev]
                y0, y1 = values[i], values[prev]
                if y1 == y0:
                    return x0
                return x0 + (half - y0) * (x1 - x0) / (y1 - y0)
            prev = i
        raise DomainError("half-maximum crossing not inside the window")

    left = crossing(idx, -1, -1)
    right = crossing(idx, omega.size, 1)
    return center, amplitude, float(right - left), baseline
