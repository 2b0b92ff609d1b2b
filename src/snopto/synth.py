"""Stationary Gaussian record synthesis and demodulation.

The measured photocurrent, shot-noise normalized, is modeled around a
narrow feature as a unit white floor plus a Lorentzian peak or dip:

    S(omega) = 1 +- a / (1 + 4 omega^2 / gamma^2)

in double-sided convention with the d omega / 2 pi measure. Its
autocovariance is a delta at lag zero (value 1/dt once discretized)
plus +- a (gamma/4) exp(-gamma |tau| / 2).

The featured law has a single-pole covariance, r_0 = 1/dt + s and
r_k = s rho^k with s = +- a gamma / 4 and rho = exp(-gamma dt / 2), so one
AR step turns a record into an MA(1) series: w_0 = x_0 and
w_k = x_k - rho x_{k-1} have a tridiagonal covariance. Its bidiagonal
Cholesky factor comes from one scalar pass (the innovations algorithm of
Brockwell & Davis, Time Series: Theory and Methods, sections 5.2 and 8.7),
which stops once it repeats itself exactly (see covariance_factor), and
composed with the AR step it is the exact Cholesky factor of the
Toeplitz covariance. CovarianceFactor applies it in O(n) per record:
colouring standard normals draws a record, whitening a record scores it,
and the log-determinant is a sum over the gains. No n x n matrix is ever
formed.

Short records are statistically legitimate at any length >= 2 (the
covariance is exact, nothing here is asymptotic); they are only
spectrally unresolved. A caller who wants a periodogram that resolves the
feature should use durations well beyond 1/gamma, e.g. the default 200/gamma.

Demodulation mixes a band around a carrier down to zero frequency:
forward transform, keep the bins in [center - sigma, center + sigma],
inverse transform, multiply by exp(-i center t). Every transform runs in
its own input buffer (np.fft's out=, numpy >= 2.0), as do the scaling of
gen_from_psd's draw and the band mask, so each function holds one complex
array of the record's length while it transforms; demodulate forms its
mixer in a second one only after the transforms' work arrays are freed.
gen_from_psd returns a record that owns its samples. Since the kept band
lives entirely at positive frequencies the complex baseband is proper
(its pseudo-spectrum would need support at -2 center, which is outside
the band), which is exactly why its real and imaginary parts come out as
independent quadratures.

Seed discipline, versioned as SEED_CONTRACT and used verbatim by the
decision Monte Carlo: trials come in blocks of TRIAL_BLOCK = 256. Block b
of a run with master seed s and spawn prefix p holds trials b*256 through
b*256 + 255 and draws from one stream,
numpy.random.default_rng(numpy.random.SeedSequence(entropy=s,
spawn_key=p + (b,))), filled time-major: its first n draws of 256 are the
first standard normals of those 256 trials, so trial i is column i % 256 of
block i // 256 and its record is the exact factor applied to that column.
A partial last block still draws its full width, so no trial depends on
how many trials run, or how they are split into chunks or workers. Every
stream, of a block or of a single record, is built once, by _stream; the
block rule is implemented once, in _tiles, which draws it in short time
tiles; normals and the Monte Carlo engine both read it there, and the tile
length changes no draw.
gen_ensemble uses the prefix (); the duration search of the detect module
keys truth t (0 flat, 1 featured) by the prefix (t,) and uses nested
records: its record of n samples is the first n samples of a longer one,
so every duration sees the same noise.

A single record (gen_baseband, gen_from_psd) draws from its own one-trial
stream, trial_rng(s, 0) = SeedSequence(entropy=s, spawn_key=(0,)), rather
than a whole block; it is not trial 0 of gen_ensemble. Contract 1 keyed
the search by (n, t, i), fresh noise per duration; contract 2 seeded
every trial on its own by (i,) or (t, i); contract 3 is the current rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy loads numpy.random lazily; import it with the package, not inside the first draw
import numpy.random  # noqa: F401

from .errors import ConfigError, DomainError

KINDS = ("flat", "peak", "dip")
TRIAL_BLOCK = 256  # trials per random stream (seed contract 3)
SEED_CONTRACT = 3  # version of the seed-derivation rule in the module docstring
_TILE_ROWS = 16  # rows per time tile of _tiles: 32 kB per block


@dataclass(frozen=True)
class BasebandModel:
    kind: str
    amplitude: float = 0.0  # h for a peak, d for a dip
    fwhm_gamma: float = 0.0  # rad/s

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.amplitude < 0:
            raise DomainError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.kind != "flat":
            if self.fwhm_gamma <= 0:
                raise ConfigError("peak/dip models need fwhm_gamma > 0")
            if self.kind == "dip" and self.amplitude >= 1:
                raise DomainError(
                    f"dip amplitude {self.amplitude} >= 1 makes the spectrum non-positive"
                )

    @property
    def tag(self) -> str:
        if self.kind == "flat":
            return "flat"
        return f"{self.kind}(a={self.amplitude:g},gamma={self.fwhm_gamma:g})"

    @property
    def _sign(self) -> float:
        return {"flat": 0.0, "peak": 1.0, "dip": -1.0}[self.kind]

    def pole(self, dt: float) -> tuple:
        """(s, rho) of the covariance r_k = s rho^k at step dt; rho is 0 when s is 0."""
        s = self._sign * self.amplitude * self.fwhm_gamma / 4.0
        return s, (math.exp(-self.fwhm_gamma * dt / 2.0) if s else 0.0)

    def psd(self, omega):
        """Double-sided spectrum, unit white floor plus the feature."""
        omega = np.asarray(omega, dtype=float)
        if self.kind == "flat":
            return np.ones_like(omega)
        lor = 1.0 / (1.0 + 4.0 * omega**2 / self.fwhm_gamma**2)
        return 1.0 + self._sign * self.amplitude * lor


@dataclass(frozen=True)
class BasebandSeries:
    dt: float
    samples: np.ndarray
    seed: int
    model_tag: str

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise DomainError("a series needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("series contains non-finite samples")

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ComplexBaseband:
    dt: float
    samples: np.ndarray
    seed: int
    model_tag: str

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))


@dataclass(frozen=True)
class DemodConfig:
    center: float  # rad/s, the carrier (the trap-stiffened resonance in use)
    halfwidth_sigma: float  # rad/s

    def __post_init__(self):
        if self.halfwidth_sigma <= 0:
            raise ConfigError("halfwidth_sigma must be > 0")
        if self.center - self.halfwidth_sigma <= 0:
            raise ConfigError(
                "band must sit at positive frequencies: center - halfwidth must be > 0"
            )


def target_autocovariance(model: BasebandModel, lag, dt: float | None = None):
    """Autocovariance of the model spectrum at the given lag (s).

    The continuous part is +- a (gamma/4) exp(-gamma |lag| / 2); the white
    floor contributes only at lag 0, where its discretized value 1/dt is
    added when dt is supplied. Without dt the white part is omitted, which
    is the convenient convention for closed-form checks of the feature.
    """
    lag = np.asarray(lag, dtype=float)
    if model.kind == "flat":
        cont = np.zeros_like(lag)
    else:
        g = model.fwhm_gamma
        cont = model._sign * model.amplitude * (g / 4.0) * np.exp(-g * np.abs(lag) / 2.0)
    if dt is not None:
        cont = np.where(lag == 0.0, cont + 1.0 / dt, cont)
    return cont if cont.ndim else float(cont)


def _check_grid(n: int, dt: float):
    if n < 1:
        raise ConfigError("need n >= 1")
    if dt <= 0:
        raise ConfigError(f"dt must be > 0, got {dt}")


def covariance_row(model: BasebandModel, n: int, dt: float) -> np.ndarray:
    """First row of the n x n discrete covariance (Toeplitz) matrix."""
    _check_grid(n, dt)
    return target_autocovariance(model, np.arange(n) * dt, dt)


@dataclass(frozen=True)
class CovarianceFactor:
    """Exact Cholesky factor L of a baseband law's Toeplitz covariance.

    L = A^-1 M, where A is the AR step (unit diagonal, -rho below it) and
    M is the lower bidiagonal Cholesky factor of Cov(A x), with diagonal m
    and subdiagonal l (l[0] is unused). A record of shape (n,), or a batch
    of records as the columns of an (n, trials) array, is transformed along
    its first axis, so a batch runs each recursion once over time. The
    result goes to out when it is given, an array of the input's shape
    that is not the input.
    """

    rho: float
    m: np.ndarray
    l: np.ndarray

    @property
    def logdet(self) -> float:
        """log det of the covariance, 2 sum log m_k."""
        return 2.0 * float(np.sum(np.log(self.m)))

    def colour(self, z: np.ndarray, k: int = 0, carry: tuple | None = None, out=None) -> np.ndarray:
        """L z: a record of the law from standard normals z.

        z may instead hold rows k, k + 1, ... of longer records, with carry
        their rows k - 1 of z and of the result, (z_{k-1}, x_{k-1}).
        """
        rows = (slice(k, k + z.shape[0]),) + (None,) * (z.ndim - 1)  # gains as a column
        m, l = self.m[rows], self.l[rows]
        x = np.multiply(z, m, out=out)
        x[1:] += l[1:] * z[:-1]
        if carry is not None:
            z_prev, x_prev = carry
            x[0] += l[0] * z_prev
            x[0] += self.rho * x_prev
        _recur(x, [self.rho] * len(x))
        return x

    def whiten(self, x: np.ndarray, k: int = 0, carry: tuple | None = None, out=None) -> np.ndarray:
        """L^-1 x: the standardized innovations of record x.

        x may instead hold rows k, k + 1, ... of longer records, with carry
        their rows k - 1 of x and of the result, (x_{k-1}, u_{k-1}).
        """
        rows = (slice(k, k + x.shape[0]),) + (None,) * (x.ndim - 1)  # gains as a column
        m = self.m[rows]
        g = self.l[rows] / m
        u = np.positive(x, out=out)  # a copy of x, in out when given
        u[1:] -= self.rho * x[:-1]
        if carry is not None:
            x_prev, u_prev = carry
            u[0] -= self.rho * x_prev
        u /= m
        if carry is not None:
            u[0] -= g[0] * u_prev
        # u_j - g_j u_{j-1} is u_j + (-g_j) u_{j-1} bit for bit: negation is exact
        _recur(u, (-g[1:]).ravel().tolist())
        return u


def _recur(x: np.ndarray, coefs) -> None:
    """x[j] += c_j x[j - 1] in place for j = 1, 2, ..., with c_1, c_2, ... from coefs.

    A batch runs row by row, two ufunc calls per row into one scratch row;
    a single record runs as a loop over Python floats. Each product and
    each sum is rounded once, as in x[j] += c * x[j - 1], so a column of a
    batch comes out bit for bit as the record run alone.
    """
    if x.ndim == 1:
        v = x.tolist()
        acc = v[0]
        for j, c in zip(range(1, len(v)), coefs):
            acc = v[j] = v[j] + c * acc
        x[:] = v
        return
    mul, add = np.multiply, np.add  # bound once, not looked up per row
    rows = list(x)
    t = np.empty_like(rows[0])
    for prev, row, c in zip(rows, rows[1:], coefs):
        add(row, mul(prev, c, t), row)


def covariance_factor(model: BasebandModel, n: int, dt: float) -> CovarianceFactor:
    """The O(n) Cholesky factor of the n x n covariance of covariance_row.

    With w = A x, Cov(w) is tridiagonal: r_0 then (1 + rho^2)/dt +
    s (1 - rho^2) on the diagonal, -rho/dt beside it. One scalar pass
    factors it: l_k = (-rho/dt) / m_{k-1} and m_k = sqrt(diag - l_k^2).
    Step k reads nothing but m_{k-1}, so once m_k == m_{k-1} every later
    step repeats step k bit for bit; the pass stops there and fills the
    rest. The reference laws reach that point within a few hundred steps
    (k = 327 for the 0.62 dip at dt gamma = 0.14, 45 for a height-30
    peak); a 0.99 dip at dt gamma = 0.01 does not within 20 000, and runs
    every step. The flat law has s = 0 and is taken with rho = 0, which
    makes the factor diagonal.
    """
    _check_grid(n, dt)
    s, rho = model.pole(dt)
    diag = (1.0 + rho * rho) / dt + s * (1.0 - rho * rho)
    off = -rho / dt
    m, l = np.empty(n), np.zeros(n)
    v = 1.0 / dt + s
    for k in range(n):
        if k:
            l[k] = off / m[k - 1]
            v = diag - l[k] * l[k]
        if not v > 0:
            raise DomainError("covariance is not positive definite")
        m[k] = math.sqrt(v)
        if k and m[k] == m[k - 1]:  # the fixed point of the recursion
            m[k + 1 :] = m[k]
            l[k + 1 :] = l[k]
            break
    return CovarianceFactor(rho=rho, m=m, l=l)


def _check_seed(master_seed: int):
    if master_seed < 0:
        raise ConfigError(f"master seed must be >= 0, got {master_seed}")


def _stream(master_seed: int, key: tuple) -> np.random.Generator:
    """default_rng(SeedSequence(entropy=master_seed, spawn_key=key)): every stream of the contract."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """One-trial generator of a single record; the documented bit-exact rule."""
    _check_seed(master_seed)
    return _stream(master_seed, (trial_index,))


def _tiles(master_seed: int, prefix: tuple, n: int, lo: int, hi: int):
    """The first n normals of trials lo..hi-1 under seed contract 3, in time tiles.

    Yields (k, z) per tile of at most _TILE_ROWS rows, z a C-contiguous
    (rows, hi - lo) array whose column j holds rows k, k + 1, ... of trial
    lo + j. Per tile, one standard_normal call per block fills that
    block's next rows at full width, and one copy moves the block's trials
    into z. z is a view of one buffer that the next tile overwrites.
    """
    _check_seed(master_seed)
    blocks = [(b * TRIAL_BLOCK, _stream(master_seed, prefix + (b,)).standard_normal)
              for b in range(lo // TRIAL_BLOCK, -(-hi // TRIAL_BLOCK))]
    drawn = np.empty((min(_TILE_ROWS, n), TRIAL_BLOCK))
    z = np.empty((min(_TILE_ROWS, n), hi - lo))
    for k in range(0, n, _TILE_ROWS):
        rows = min(_TILE_ROWS, n - k)
        for base, draw in blocks:  # trials first..last-1 of the block starting at trial base
            draw(out=drawn[:rows])
            first, last = max(lo, base), min(hi, base + TRIAL_BLOCK)
            z[:rows, first - lo : last - lo] = drawn[:rows, first - base : last - base]
        yield k, z[:rows]


def normals(master_seed: int, prefix: tuple, n: int, lo: int, hi: int) -> np.ndarray:
    """(n, hi - lo) standard normals of trials lo..hi-1 under seed contract 3.

    Column j is the first n normals of trial lo + j, copied tile by tile
    from _tiles, the draw the Monte Carlo engine streams.
    """
    z = np.empty((n, hi - lo))
    for k, tile in _tiles(master_seed, prefix, n, lo, hi):
        z[k : k + tile.shape[0]] = tile
    return z


def _check_resolution(model: BasebandModel, dt: float):
    # a flat or amplitude-0 law has no feature to resolve
    if model.amplitude != 0 and dt * model.fwhm_gamma > 0.5:
        raise ConfigError(
            f"dt * gamma = {dt * model.fwhm_gamma:.3f} > 0.5: the feature is unresolved"
        )


def _record_length(duration: float, dt: float) -> int:
    if dt <= 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    n = int(round(duration / dt))
    if n < 2:
        raise ConfigError(f"duration {duration} at dt {dt} gives {n} samples; need >= 2")
    return n


def _colour(model: BasebandModel, z: np.ndarray, dt: float) -> np.ndarray:
    if model.kind == "flat":
        return z / np.sqrt(dt)
    return covariance_factor(model, z.shape[0], dt).colour(z)


def gen_baseband(model: BasebandModel, duration: float, dt: float, seed: int) -> BasebandSeries:
    """Draw one zero-mean stationary Gaussian record of the model spectrum.

    n = round(duration / dt) samples, the exact factor of the model's
    covariance applied to n standard normals from the one-trial stream
    trial_rng(seed, 0), at O(n) cost for any n. Deterministic given
    (model, duration, dt, seed).
    """
    n = _record_length(duration, dt)
    _check_resolution(model, dt)
    samples = _colour(model, trial_rng(int(seed), 0).standard_normal(n), dt)
    return BasebandSeries(dt=dt, samples=samples, seed=int(seed), model_tag=model.tag)


def gen_ensemble(
    model: BasebandModel,
    duration: float,
    dt: float,
    master_seed: int,
    n_trials: int,
) -> np.ndarray:
    """(n_trials, n) array of independent records under seed contract 3.

    Row i colours column i of normals(master_seed, (), n, 0, n_trials);
    the whole ensemble runs through the factor in one batched pass.
    """
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    n = _record_length(duration, dt)
    _check_resolution(model, dt)
    return _colour(model, normals(master_seed, (), n, 0, n_trials), dt).T


def gen_from_psd(psd, duration: float, dt: float, seed: int) -> BasebandSeries:
    """Record with an arbitrary smooth double-sided spectrum psd(omega).

    Frequency-domain synthesis on the record's own grid: bin k gets
    variance psd(omega_k)/dt. Exact for the circularly-stationary law whose
    spectrum is the sampled psd; for smooth spectra that is the target law
    up to resolution, which is all the full-record demodulation tests need.
    """
    n = _record_length(duration, dt)
    lam = np.asarray(psd(2 * np.pi * np.fft.fftfreq(n, d=dt)), dtype=float) / dt
    if lam.min() < 0:
        raise DomainError(f"psd must be >= 0 everywhere (min {lam.min():.3e})")
    rng = trial_rng(int(seed), 0)
    z = np.empty(n, dtype=complex)
    draw = np.empty(n)  # one buffer for both draws: the generator fills contiguous arrays only
    rng.standard_normal(out=draw)
    z.real = draw
    rng.standard_normal(out=draw)
    z.imag = draw
    del draw
    lam /= n
    z *= np.sqrt(lam, out=lam)
    del lam
    np.fft.fft(z, out=z)
    # a contiguous copy, so the record does not pin the complex transform
    return BasebandSeries(dt=dt, samples=z.real.copy(), seed=int(seed), model_tag="psd")


def demodulate(series: BasebandSeries, cfg: DemodConfig) -> ComplexBaseband:
    """Mix the band [center - sigma, center + sigma] down to zero frequency.

    Returns the complex baseband at the original sampling; the caller
    usually trims the edges, where the sharp band truncation rings.
    """
    nyquist = np.pi / series.dt
    if cfg.center + cfg.halfwidth_sigma > nyquist:
        raise ConfigError(
            f"band edge {cfg.center + cfg.halfwidth_sigma:.4g} exceeds the Nyquist"
            f" frequency {nyquist:.4g} rad/s"
        )
    n = series.n
    omega = 2 * np.pi * np.fft.fftfreq(n, d=series.dt)
    keep = (omega >= cfg.center - cfg.halfwidth_sigma) & (omega <= cfg.center + cfg.halfwidth_sigma)
    del omega
    xi = series.samples.astype(complex)
    np.fft.fft(xi, out=xi)
    xi *= keep
    np.fft.ifft(xi, out=xi)
    # exp(-i center t), formed from its purely imaginary exponent; a running
    # sum of ones gives the sample indices exactly. The transforms' work
    # arrays are released by now, so this second complex array stays below
    # the peak the forward transform sets
    mixer = np.empty_like(xi)
    mixer.real = 0.0
    t = mixer.imag
    t.fill(1.0)
    t[0] = 0.0
    np.cumsum(t, out=t)
    t *= series.dt
    t *= -cfg.center
    xi *= np.exp(mixer, out=mixer)
    return ComplexBaseband(
        dt=series.dt,
        samples=xi,
        seed=series.seed,
        model_tag=series.model_tag,
    )


def quadratures(xi: ComplexBaseband) -> tuple[BasebandSeries, BasebandSeries]:
    """Split the complex baseband into its two real quadratures.

    xi_c = (xi + xi*)/2 is the real part, xi_s = (xi - xi*)/2i the
    imaginary part. Because the demodulation band excludes the mirror
    frequencies the baseband is proper and the two come out statistically
    independent, each carrying half the band's spectral density. Both own
    their samples, so neither pins the complex baseband.
    """
    return (
        BasebandSeries(xi.dt, xi.samples.real.copy(), xi.seed, xi.model_tag + ":c"),
        BasebandSeries(xi.dt, xi.samples.imag.copy(), xi.seed, xi.model_tag + ":s"),
    )


def read_series(path) -> BasebandSeries:
    """Read back the CSV `snopto synth` writes: `# key = value` header, one sample per row."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
    samples = np.loadtxt(path)
    return BasebandSeries(
        dt=float(meta["dt"]),
        samples=samples,
        seed=int(meta["seed"]),
        model_tag=meta.get("model", ""),
    )
