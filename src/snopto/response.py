"""Mechanical response functions, thermal force spectra, and coupling strengths.

Two susceptibilities matter. The classical response g_c is the textbook
damped oscillator at the pendulum frequency omega_cm. The quantum response
g_q is the same oscillator shifted to

    omega_q = sqrt(omega_cm^2 + omega_sn^2),

which is where quantum uncertainty rotates once the gravitational trap of
the lattice is included. Both are written in one retarded convention,
Im[g] * omega >= 0; published forms sometimes flip the damping sign between
the two, but every observable downstream depends only on |g|^2 and
Im[g]/omega, which are convention stable, and the matched convention is what
makes delta_g vanish identically when omega_sn = 0.

Spectral densities are double sided throughout (integrals run over positive
and negative frequencies with measure d omega / 2 pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class OscillatorConfig:
    """Mechanical oscillator and bath.

    gamma_m may be given directly or through the quality factor q
    (gamma_m = omega_cm / q); supplying both is allowed only if they agree.
    omega_sn = 0 and t0 = 0 are valid and recover standard quantum mechanics
    and a zero-temperature bath.
    """

    mass: float  # kg
    omega_cm: float  # rad/s
    omega_sn: float  # rad/s
    gamma_m: float | None = None  # rad/s
    q: float | None = None
    t0: float = 0.0  # K

    def __post_init__(self):
        if self.mass <= 0:
            raise DomainError(f"mass must be > 0, got {self.mass}")
        if self.omega_cm < 0 or self.omega_sn < 0 or self.t0 < 0:
            raise DomainError("omega_cm, omega_sn and t0 must be >= 0")
        if self.gamma_m is None and self.q is None:
            object.__setattr__(self, "gamma_m", 0.0)
        elif self.gamma_m is None:
            if self.q <= 0:
                raise DomainError(f"q must be > 0, got {self.q}")
            object.__setattr__(self, "gamma_m", self.omega_cm / self.q)
        elif self.q is not None:
            expect = self.omega_cm / self.q
            if abs(self.gamma_m - expect) > 1e-9 * max(self.gamma_m, expect):
                raise ConfigError(
                    f"gamma_m = {self.gamma_m} inconsistent with omega_cm/q = {expect}"
                )
        if self.gamma_m < 0:
            raise DomainError(f"gamma_m must be >= 0, got {self.gamma_m}")

    @property
    def omega_q(self) -> float:
        return float(np.hypot(self.omega_cm, self.omega_sn))


@dataclass(frozen=True)
class OpticalConfig:
    """Probe light: input power i_in (W), power transmissivity, carrier omega_c (rad/s)."""

    i_in: float
    transmissivity: float
    omega_c: float

    def __post_init__(self):
        if not 0 < self.transmissivity <= 1:
            raise DomainError(f"transmissivity must be in (0, 1], got {self.transmissivity}")
        if self.i_in < 0:
            raise DomainError(f"i_in must be >= 0, got {self.i_in}")
        if self.omega_c <= 0:
            raise DomainError(f"omega_c must be > 0, got {self.omega_c}")


def alpha_squared(opt: OpticalConfig) -> float:
    """Measurement coupling alpha^2 = (8 i_in / T) (hbar omega_c / c^2) (1 / T)."""
    return (8.0 * opt.i_in / opt.transmissivity) * (HBAR * opt.omega_c / C_LIGHT**2) / opt.transmissivity


def _response(omega, center: float, osc: OscillatorConfig):
    """Position response 1 / (M (center^2 - omega^2 - i omega gamma_m))."""
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (osc.mass * (center**2 - omega**2 - 1j * omega * osc.gamma_m))


def g_c(omega, osc: OscillatorConfig):
    """Classical position response, centered at omega_cm."""
    return _response(omega, osc.omega_cm, osc)


def g_q(omega, osc: OscillatorConfig):
    """Quantum position response, identical in form to g_c but centered at omega_q."""
    return _response(omega, osc.omega_q, osc)


def delta_g(omega, osc: OscillatorConfig):
    """g_c - g_q, evaluated as M omega_sn^2 g_c g_q.

    The product form is an algebraic identity (the two denominators differ
    by M omega_sn^2) and avoids cancellation where the difference is tiny.
    It is exactly zero everywhere when omega_sn = 0.
    """
    return osc.mass * osc.omega_sn**2 * g_c(omega, osc) * g_q(omega, osc)


def s_fzp(omega, osc: OscillatorConfig):
    """Zero-point force spectral density hbar |omega| M gamma_m (N^2 s, double sided)."""
    return HBAR * np.abs(np.asarray(omega, dtype=float)) * osc.mass * osc.gamma_m


def s_fcl(omega, osc: OscillatorConfig):
    """Classical-bath force spectral density, exact Planck form.

    2 hbar |omega| M gamma_m / (exp(hbar |omega| / k_B t0) - 1), symmetrized
    through |omega| so that it is even like every other double-sided density
    here. At omega = 0 the limit 2 k_B t0 M gamma_m is used; at t0 = 0 it
    vanishes. At high temperature it tends to that flat value everywhere.
    """
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    w = np.abs(np.atleast_1d(omega))
    if osc.t0 == 0.0:
        out = np.zeros_like(w)
        return out[0] if scalar else out
    arg = HBAR * w / (K_B * osc.t0)
    out = np.empty_like(w)
    tiny = arg < 1e-12
    big = arg > 700.0
    mid = ~(tiny | big)
    out[tiny] = 2.0 * K_B * osc.t0 * osc.mass * osc.gamma_m
    out[big] = 0.0
    out[mid] = 2.0 * HBAR * w[mid] * osc.mass * osc.gamma_m / np.expm1(arg[mid])
    return out[0] if scalar else out


def s_x_th(omega, osc: OscillatorConfig):
    """Thermal position noise 2 k_B t0 Im[g_c(omega)] / omega (m^2 s).

    Computed through the pole-free identity Im[g_c]/omega = gamma_m M |g_c|^2,
    which also supplies the omega = 0 limit 2 k_B t0 gamma_m / (M omega_cm^4).
    """
    gc = g_c(omega, osc)
    return 2.0 * K_B * osc.t0 * osc.gamma_m * osc.mass * np.abs(gc) ** 2


def beta(alpha_sq: float, osc: OscillatorConfig) -> float:
    """Dimensionless measurement strength alpha^2 / (M hbar gamma_m omega_q)."""
    if osc.gamma_m <= 0 or osc.omega_q <= 0:
        raise DomainError("beta requires gamma_m > 0 and omega_q > 0")
    return alpha_sq / (osc.mass * HBAR * osc.gamma_m * osc.omega_q)


def gamma_squared(osc: OscillatorConfig) -> float:
    """Dimensionless thermal strength, exact form.

    (2 k_B t0 / hbar omega_q) * gamma_m^2 omega_q^2 / (gamma_m^2 omega_q^2 + omega_sn^4).
    """
    if osc.omega_q <= 0:
        raise DomainError("gamma_squared requires omega_q > 0")
    g2w2 = (osc.gamma_m * osc.omega_q) ** 2
    return (2.0 * K_B * osc.t0 / (HBAR * osc.omega_q)) * g2w2 / (g2w2 + osc.omega_sn**4)


def gamma_squared_approx(osc: OscillatorConfig) -> float:
    """High-Q simplification 2 k_B t0 gamma_m^2 / (hbar omega_sn^3)."""
    if osc.omega_sn <= 0:
        raise DomainError("the high-Q form requires omega_sn > 0")
    return 2.0 * K_B * osc.t0 * osc.gamma_m**2 / (HBAR * osc.omega_sn**3)


def frequency_grid(start: float, stop: float, count: int) -> np.ndarray:
    """Log-spaced evaluation grid for CSV emission."""
    if count < 2:
        raise ConfigError(f"grid count must be >= 2, got {count}")
    if start <= 0 or stop <= start:
        raise ConfigError("log grid needs 0 < start < stop")
    return np.geomspace(start, stop, count)
