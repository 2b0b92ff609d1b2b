"""First and second moments of a Gaussian state under the gravitationally
trapped oscillator.

For a quadratic Hamiltonian a Gaussian state stays Gaussian, so five numbers
evolve in closed form and nothing else exists. The closure splits:

    d<x>/dt  =  <p>/M            d Vxx/dt = 2 Cxp / M
    d<p>/dt  = -M w_cm^2 <x>     d Cxp/dt = Vpp / M - M w_q^2 Vxx
                                 d Vpp/dt = -2 M w_q^2 Cxp

The means feel only the bare pendulum frequency omega_cm while the
covariance rotates at omega_q = sqrt(omega_cm^2 + omega_sn^2). That split is
the whole observable: watch the center ring at one frequency and the
uncertainty ellipse at another.

The conserved energy is

    E = <p^2>/2M + (1/2) M w_cm^2 <x^2> + (1/2) M w_sn^2 Vxx

with <p^2> = Vpp + <p>^2 and <x^2> = Vxx + <x>^2. The last term carries a
factor 1/2 on the full gravitational potential expectation M w_sn^2 Vxx;
dE/dt = 0 follows directly from the equations above, and dropping that half
(sn_weight = 1) produces a secular drift proportional to Cxp, which is the
standard numerical control for having the factor right.

No damping or light enters here; this module is the closed-system picture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import ConfigError, DomainError
from .response import OscillatorConfig


@dataclass(frozen=True)
class GaussianState:
    mean_x: float  # m
    mean_p: float  # kg m/s
    var_xx: float  # m^2
    cov_xp: float  # kg m^2/s
    var_pp: float  # kg^2 m^2/s^2

    def __post_init__(self):
        if self.var_xx <= 0 or self.var_pp <= 0:
            raise DomainError("variances must be > 0")
        het = self.var_xx * self.var_pp - self.cov_xp**2
        if het < (HBAR / 2) ** 2 * (1 - 1e-9):
            raise DomainError(
                f"state violates the uncertainty bound: Vxx Vpp - Cxp^2 = {het:.6e}"
                f" < (hbar/2)^2"
            )

    @classmethod
    def ground(cls, osc: OscillatorConfig) -> "GaussianState":
        """Vacuum of the oscillator at omega_q."""
        w = osc.omega_q
        if w <= 0:
            raise DomainError("ground state needs a positive frequency")
        return cls(0.0, 0.0, HBAR / (2 * osc.mass * w), 0.0, HBAR * osc.mass * w / 2)

    def displaced(self, dx: float = 0.0, dp: float = 0.0) -> "GaussianState":
        return GaussianState(self.mean_x + dx, self.mean_p + dp, self.var_xx, self.cov_xp, self.var_pp)

    def squeezed(self, r: float) -> "GaussianState":
        """Scale var_xx by exp(-2r) and var_pp by exp(+2r) (pure x squeeze).

        A squeeze whose scaled variances overflow, as they do once exp(2|r|)
        passes the largest double (|r| > 354.89), is refused with a
        DomainError before numpy can warn of the overflow. So is one that
        leaves either variance below the smallest normal double, where its
        rounding decides whether the state passes the uncertainty bound.
        """
        if self.cov_xp != 0.0:
            raise DomainError("squeeze helper expects an axis-aligned state")
        try:
            with np.errstate(over="raise"):
                var_xx, var_pp = self.var_xx * np.exp(-2 * r), self.var_pp * np.exp(2 * r)
        except FloatingPointError:
            raise DomainError(f"squeeze r = {r!r} overflows the variances") from None
        if min(var_xx, var_pp) < np.finfo(float).tiny:
            raise DomainError(f"squeeze r = {r!r} underflows the variances")
        return GaussianState(self.mean_x, self.mean_p, var_xx, 0.0, var_pp)


@dataclass(frozen=True)
class MomentTrajectory:
    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_xx: np.ndarray
    cov_xp: np.ndarray
    var_pp: np.ndarray
    energy: np.ndarray


def energy(state: GaussianState, osc: OscillatorConfig, sn_weight: float = 0.5) -> float:
    """Total energy (J); sn_weight = 0.5 is the conserved definition.

    sn_weight multiplies the gravitational potential expectation
    M omega_sn^2 var_xx. Pass 1.0 to reproduce the non-conserved naive form
    used as a negative control in the tests.
    """
    return _energy(state.mean_x, state.mean_p, state.var_xx, state.var_pp, osc, sn_weight)


def _energy(mean_x, mean_p, var_xx, var_pp, osc: OscillatorConfig, sn_weight: float):
    """`energy` from the bare moments, scalars or arrays alike."""
    m = osc.mass
    p2 = var_pp + mean_p**2
    x2 = var_xx + mean_x**2
    return p2 / (2 * m) + 0.5 * m * osc.omega_cm**2 * x2 + sn_weight * m * osc.omega_sn**2 * var_xx


# the record columns of _moment_blocks, in the order of MomentTrajectory's
# fields; the dynamics CSV header names them
COLUMNS = ("t", "mean_x", "mean_p", "var_xx", "cov_xp", "var_pp", "energy")

# rows per block of _moment_blocks: the in-block angle tables hold this many
# entries, and memory does not grow with t_final
_BLOCK_ROWS = 4096


def evolve_moments(
    state0: GaussianState,
    osc: OscillatorConfig,
    t_final: float,
    dt: float | None = None,
    sn_weight: float = 0.5,
    store_every: int = 1,
) -> MomentTrajectory:
    """The exact moment flow, recorded at t = k dt store_every up to t_final.

    There is no integration step: every record is the closed-form flow at
    its time (see _moment_blocks). dt sets the record grid and store_every
    keeps every store_every-th point of it, k up to ceil(t_final / dt) //
    store_every. dt defaults to a thousandth of the omega_q period and is
    refused above a hundredth of it, so the records resolve the ellipse's
    turn. The energy column uses the given sn_weight so the conservation
    control can be run side by side.

    The records are the blocks of _moment_blocks joined end to end.
    """
    dt = check_step(osc, t_final, dt, store_every)
    rows = np.concatenate([*_moment_blocks(state0, osc, t_final, dt, sn_weight, store_every)])
    return MomentTrajectory(*rows.T)


def check_step(osc: OscillatorConfig, t_final: float, dt: float | None, store_every: int) -> float:
    """The record spacing dt evolve_moments uses, after checking its arguments.

    dt defaults to a thousandth of the omega_q period and must be at most a
    hundredth of it; t_final must be positive and store_every at least 1.
    """
    wq = osc.omega_q
    if wq <= 0:
        raise DomainError("evolution needs omega_q > 0")
    period = 2 * np.pi / wq
    if dt is None:
        dt = period / 1000.0
    if dt <= 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    if dt > period / 100.0:
        raise ConfigError(
            f"dt = {dt:.3e} too coarse: need dt <= {period / 100.0:.3e} (one hundredth of the omega_q period)"
        )
    if t_final <= 0:
        raise ConfigError(f"t_final must be > 0, got {t_final}")
    if store_every < 1:
        raise ConfigError("store_every must be >= 1")
    return dt


def _moment_blocks(
    state0: GaussianState,
    osc: OscillatorConfig,
    t_final: float,
    dt: float,
    sn_weight: float,
    store_every: int,
):
    """Yield the records of evolve_moments as (rows, 7) blocks in COLUMNS order.

    Row i holds t = i h, h = dt store_every, the five moments of the exact
    flow at t and their energy. The means turn at w = omega_cm,

        x = x0 cos(w t) + p0 / (M w) sin(w t),   p = p0 cos(w t) - M w x0 sin(w t),

    or coast, x = x0 + p0 t / M, at omega_cm = 0. With u = p / (M omega_q)
    the covariance is R(omega_q t) V0 R(omega_q t)^T, which in the double
    angle phi = 2 omega_q t reads

        Vxx = a + b cos(phi) + c sin(phi),   Vuu = a - b cos(phi) - c sin(phi),
        Cxu = c cos(phi) - b sin(phi),

    with a = (Vxx0 + Vuu0) / 2, b = (Vxx0 - Vuu0) / 2 and c = Cxu0. Blocks
    hold 4096 rows, so memory does not grow with t_final. The cos and sin of
    a row's angle come by angle addition from one table of in-block offsets
    j h (j < 4096) and the cos and sin at the block's start, at half the
    cost of a cos and a sin per row. Adding 0.0 to the moment columns writes
    a zero moment as 0, never -0. dt is the step check_step returned for
    these arguments.
    """
    h = dt * store_every
    n_rec = int(np.ceil(t_final / dt)) // store_every + 1
    m, w, w2 = osc.mass, osc.omega_cm, 2 * osc.omega_q
    scale = m * osc.omega_q
    x0, p0 = state0.mean_x, state0.mean_p
    vuu = state0.var_pp / scale**2
    a, b, c = (state0.var_xx + vuu) / 2, (state0.var_xx - vuu) / 2, state0.cov_xp / scale
    offsets = np.arange(min(n_rec, _BLOCK_ROWS)) * h
    cos_w, sin_w = np.cos(w * offsets), np.sin(w * offsets)
    cos_w2, sin_w2 = np.cos(w2 * offsets), np.sin(w2 * offsets)
    for start in range(0, n_rec, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, n_rec - start)
        rows = np.empty((k, 7))
        t, x, p, vxx, cxp, vpp, e = rows.T
        t[:] = np.arange(start, start + k) * h
        if w > 0:
            cos_t, sin_t = _turned(w * t[0], cos_w[:k], sin_w[:k])
            x[:] = x0 * cos_t + p0 / (m * w) * sin_t
            p[:] = p0 * cos_t - m * w * x0 * sin_t
        else:
            x[:] = x0 + p0 / m * t
            p[:] = p0
        cos_t, sin_t = _turned(w2 * t[0], cos_w2[:k], sin_w2[:k])
        swing = b * cos_t + c * sin_t
        vxx[:] = a + swing
        cxp[:] = scale * (c * cos_t - b * sin_t)
        vpp[:] = scale**2 * (a - swing)
        # not the energy column: np.empty left it unset, and a signaling nan
        # there would raise the invalid flag and print a RuntimeWarning
        rows[:, 1:6] += 0.0
        e[:] = _energy(x, p, vxx, vpp, osc, sn_weight)
        yield rows


def _turned(angle: float, cos_offset: np.ndarray, sin_offset: np.ndarray):
    """cos and sin of angle + offset, by angle addition."""
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    return cos_a * cos_offset - sin_a * sin_offset, sin_a * cos_offset + cos_a * sin_offset


def ellipse_angle(traj: MomentTrajectory, osc: OscillatorConfig) -> np.ndarray:
    """Unwrapped principal-axis angle of the uncertainty ellipse (rad).

    Momentum is rescaled by M omega_q so the exact covariance flow is a pure
    rotation; the angle then falls linearly in time at the rotation rate.
    One full turn of the ellipse looks the same twice, hence the unwrap
    works on 2 theta. Degenerate (circular) states give a meaningless angle.
    """
    scale = osc.mass * osc.omega_q
    vxx = traj.var_xx
    vpp = traj.var_pp / scale**2
    cxp = traj.cov_xp / scale
    theta2 = np.arctan2(2 * cxp, vxx - vpp)
    return np.unwrap(theta2) / 2.0


def ellipse_frequency(traj: MomentTrajectory, osc: OscillatorConfig) -> float:
    """Ellipse rotation rate (rad/s) from a least-squares slope of the angle."""
    theta = ellipse_angle(traj, osc)
    t = traj.times - traj.times.mean()
    slope = float(np.dot(t, theta - theta.mean()) / np.dot(t, t))
    return abs(slope)


def fft_peak_frequency(times: np.ndarray, signal: np.ndarray) -> float:
    """Dominant frequency (rad/s) of an evenly sampled real record.

    Hann window, discrete transform, then a three-point parabolic refinement
    of the peak bin on log magnitude. The DC bin is excluded. Note that a
    variance record oscillates at twice the underlying rotation rate; the
    caller halves where appropriate.
    """
    y = np.asarray(signal, dtype=float)
    t = np.asarray(times, dtype=float)
    if y.size != t.size or y.size < 16:
        raise ConfigError("need matching arrays with at least 16 samples")
    dt = t[1] - t[0]
    y = (y - y.mean()) * np.hanning(y.size)
    mag = np.abs(np.fft.rfft(y))
    k = int(np.argmax(mag[1:])) + 1
    if 1 <= k < mag.size - 1 and mag[k - 1] > 0 and mag[k + 1] > 0:
        lm, l0, lp = np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1])
        denom = lm - 2 * l0 + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    return float((k + delta) * 2 * np.pi / (y.size * dt))


def mean_frequency(traj: MomentTrajectory) -> float:
    """Oscillation frequency (rad/s) of the mean position record."""
    return fft_peak_frequency(traj.times, traj.mean_x)
