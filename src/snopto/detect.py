"""Likelihood-ratio discrimination between a flat and a featured spectrum.

One real quadrature record x of length N, sampled at dt, is scored under
two zero-mean stationary Gaussian laws: white (unit double-sided floor,
variance 1/dt per sample) and white plus a Lorentzian feature. The
statistic is

    Y = log L(x | flat) - log L(x | featured)

so positive Y favors the flat spectrum and negative Y the featured one.
With a threshold y_th > 0 the verdicts are "QM" (Y > y_th), "SN"
(Y < -y_th), and "none" in between: the featured spectrum is what the
semiclassical self-gravity story predicts for the light leaving the
cavity, the flat one is the standard-theory expectation, once the
prescription-specific peak or dip is normalized away.

Likelihoods are exact multivariate-normal densities with Toeplitz
covariance. Both the per-series path and the Monte Carlo engine score
through synth.CovarianceFactor, the O(N) exact Cholesky factor of the
Lorentzian-on-white law: whitening a record gives its quadratic form, the
factor's gains give the log-determinant, and the engine streams chunks
of trials through time in short tiles, drawing, colouring, whitening and
summing each tile in one pass, so its working memory does not depend on
the record length. No N x N matrix is formed. The Whittle (periodogram)
approximation is kept as the approximation criterion 7 tests,
cross-checked against the exact form.

Everything random is reproducible (synth.SEED_CONTRACT, version 3):
trials are drawn in blocks of synth.TRIAL_BLOCK = 256, block b from one
stream SeedSequence(entropy=master_seed, spawn_key=prefix + (b,)) filled
time-major, and trial i is column i % 256 of block i // 256. The prefix
is () for outcome_probs and (truth_index,) for the duration search,
truth 0 the flat law and 1 the alt, with no duration in the key: records
are nested, the record of n samples being the first n samples of the
trial's longer record, so one pass over time scores every duration up to
its length and every duration sees the same noise. Chunks and worker
ranges are cut at block boundaries, so results do not depend on --jobs.
The duration search keeps one such pass at a time, as a mapping from
each recorded length to its (flat, alt) rows of Y.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .errors import BoundedSearchError, ConfigError, DomainError
from .synth import (
    TRIAL_BLOCK,
    BasebandModel,
    BasebandSeries,
    _check_resolution,
    _check_seed,
    _record_length,
    _tiles,
    covariance_factor,
)

_CHUNK_TRIALS = 8 * TRIAL_BLOCK  # trials per chunk: 8 blocks, 256 kB per tile array


@dataclass(frozen=True)
class HypothesisPair:
    null_model: BasebandModel
    alt_model: BasebandModel

    def __post_init__(self):
        if self.null_model.kind != "flat":
            raise ConfigError("null_model must be the flat spectrum")
        if self.alt_model.kind not in ("peak", "dip"):
            raise ConfigError("alt_model must be a peak or a dip")
        # alt amplitude 0 is tolerated (the two laws coincide and Y is
        # exactly zero); it is useful as a degenerate sanity case.

    @property
    def gamma(self) -> float:
        return self.alt_model.fwhm_gamma


@dataclass(frozen=True)
class DecisionReport:
    p_correct: float
    p_wrong: float
    p_indecision: float
    y_th: float
    n_trials: int
    master_seed: int
    truth_tag: str = ""

    def __post_init__(self):
        total = self.p_correct + self.p_wrong + self.p_indecision
        if abs(total - 1.0) > 1.0 / max(self.n_trials, 1) + 1e-12:
            raise DomainError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class FitPrediction:
    seconds: float  # halved (two-quadrature) convention
    seconds_unhalved: float
    coherence_times: float  # halved, in units of 2/gamma
    coherence_times_unhalved: float
    warnings: tuple = ()


@dataclass(frozen=True)
class TauMinResult:
    tau_min: float  # s, single-quadrature (one real record meets the target)
    tau_min_halved: float  # s, two-quadrature convention (divide by 2)
    y_th_used: float
    confidence_p: float
    n_trials: int
    fit_prediction: float  # s, halved convention, from the printed fits
    master_seed: int
    n_samples: int
    # (n_samples, feasible, y_th, worst) per probe, in search order; a
    # diagnostic, left out of as_dict so reports do not change
    probes: tuple = ()

    def __post_init__(self):
        if self.tau_min <= 0:
            raise DomainError("tau_min must be > 0")

    def as_dict(self) -> dict:
        """The report fields: every field but the probe trace."""
        return {k: v for k, v in asdict(self).items() if k != "probes"}


# ---------------------------------------------------------------- likelihoods


def _flat_log_likelihood(x: np.ndarray, dt: float) -> float:
    n = x.size
    return -0.5 * n * math.log(2 * math.pi / dt) - 0.5 * dt * float(np.dot(x, x))


def log_likelihood(series: BasebandSeries, model: BasebandModel) -> float:
    """Exact log-density of the record under the model's stationary law.

    Flat (or zero-amplitude) models reduce to the diagonal closed form.
    Featured models whiten the record with the exact O(N) factor of the
    Toeplitz covariance: each sample is scored against its best linear
    prediction from the past, and the factor's gains give the
    log-determinant, without materializing the matrix.
    """
    x = series.samples
    dt = series.dt
    if model.kind == "flat" or model.amplitude == 0.0:
        return _flat_log_likelihood(x, dt)
    _check_resolution(model, dt)
    factor = covariance_factor(model, x.size, dt)
    u = factor.whiten(x)
    return -0.5 * (x.size * math.log(2 * math.pi) + factor.logdet + float(np.dot(u, u)))


def whittle_log_likelihood(series: BasebandSeries, model: BasebandModel) -> float:
    """Periodogram (Whittle) approximation of log_likelihood.

    The discrete spectrum of the exponential autocovariance is the aliased
    AR(1) kernel: with rho = exp(-gamma dt / 2) and s = +-a gamma / 4,

        f(theta_k) = 1/dt + s (1 - rho^2) / (1 - 2 rho cos theta_k + rho^2).

    Exact for the flat part (it reproduces the diagonal closed form to
    rounding), O(1/N) off on featured models; the tests pin the defect.
    """
    x = series.samples
    dt = series.dt
    n = x.size
    if model.kind == "flat" or model.amplitude == 0.0:
        return _flat_log_likelihood(x, dt)
    theta = 2 * np.pi * np.arange(n) / n
    s, rho = model.pole(dt)
    f = 1.0 / dt + s * (1 - rho**2) / (1 - 2 * rho * np.cos(theta) + rho**2)
    if f.min() <= 0:
        raise DomainError("Whittle spectrum is not positive")
    per = np.abs(np.fft.fft(x)) ** 2 / n
    return -0.5 * (n * math.log(2 * math.pi) + float(np.sum(np.log(f))) + float(np.sum(per / f)))


def estimator_y(series: BasebandSeries, pair: HypothesisPair, method: str = "exact") -> float:
    """Y = log L(flat) - log L(featured); positive favors the flat law."""
    if method == "exact":
        ll = log_likelihood
    elif method == "whittle":
        ll = whittle_log_likelihood
    else:
        raise ConfigError(f"unknown method {method!r}")
    return ll(series, pair.null_model) - ll(series, pair.alt_model)


# ------------------------------------------------------------ the MC engine


def _y_batch(
    truth: BasebandModel,
    alt: BasebandModel,
    ns: list,
    dt: float,
    master_seed: int,
    spawn_prefix: tuple,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Y at every record length in ns (ascending) for trials lo..hi-1.

    Returns a (len(ns), hi - lo) block from one pass over time. Trial i
    takes max(ns) standard normals from its column of the seed-contract
    stream. The factor is causal and the first n gains of a longer factor
    are the length-n factor, so the record of n samples is the first n
    samples of the long one. Sample k adds half of (2 log m_k + log dt) +
    u_k^2 - dt x_k^2 to Y: the log-determinant difference and the two
    quadratic forms. A running sum along time then gives Y at every
    prefix; it adds the samples of each trial in time order, so no value
    depends on how many trials share a chunk or a worker.

    Each chunk of _CHUNK_TRIALS trials advances through time in the tiles
    of synth._tiles, C-contiguous (rows, trials) arrays: each tile is
    drawn, coloured with the truth's factor and whitened with the alt's
    into buffers that belong to the chunk, with the last rows of z, x and
    u carried across the tile edge. The running sum is np.add.reduce over
    axis 0 of the tile's rows, the sum so far added into the first: over
    two or more C-contiguous columns it adds the rows in order, column by
    column, the order of a row-by-row sum. Over a single column it would
    sum pairwise, so a one-trial chunk reduces its column beside a column
    of zeros. A recorded row reads the same reduce cut at that row. When
    the truth is the alt law the whitened vector is the draw itself, so
    only colouring runs; a flat truth is white noise, z / sqrt(dt) as
    synth draws it, so only whitening runs. Besides the result, only the
    factors' one-dimensional arrays grow with the record length.
    """
    n = ns[-1]
    rows = [m - 1 for m in ns]
    f_alt = covariance_factor(alt, n, dt)
    # a flat truth's factor goes unused; diagonal, it stops after one step
    f_truth = f_alt if truth == alt else covariance_factor(truth, n, dt)
    lndet = np.cumsum(2.0 * np.log(f_alt.m) + math.log(dt))[rows]

    out = np.empty((len(ns), hi - lo))
    sqrt_dt = math.sqrt(dt)
    for start in range(lo, hi, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, hi)
        width = stop - start
        j = 0  # next row of ns to record
        carry_x = carry_u = None  # rows carried from the previous tile
        for k, z in _tiles(master_seed, spawn_prefix, n, start, stop):
            r = z.shape[0]
            if not k:  # the chunk's buffers, as long as its first, longest tile
                xs, us = np.zeros((2, r, max(width, 2)))
                y = np.zeros(max(width, 2))
            x, u = xs[:r, :width], us[:r, :width]
            if truth.kind == "flat":
                np.divide(z, sqrt_dt, out=x)
            else:
                f_truth.colour(z, k, carry_x, out=x)
                carry_x = z[-1].copy(), x[-1].copy()
            if f_truth is f_alt:
                np.multiply(z, z, out=u)
            else:
                f_alt.whiten(x, k, carry_u, out=u)
                carry_u = x[-1].copy(), u[-1].copy()
                u *= u
            x *= x
            x *= dt
            u -= x
            # the sum so far enters the tile's first row, and a recorded
            # row reads the sum up to it
            us[0] += y
            while j < len(ns) and rows[j] < k + r:
                np.add.reduce(us[: rows[j] - k + 1], axis=0, out=y)
                out[j, start - lo : stop - lo] = y[:width]
                j += 1
            np.add.reduce(us[:r], axis=0, out=y)
    out += lndet[:, None]
    out *= 0.5
    return out


def _y_table(
    truth: BasebandModel,
    alt: BasebandModel,
    ns: list,
    dt: float,
    n_trials: int,
    master_seed: int,
    spawn_prefix: tuple,
    jobs: int,
) -> np.ndarray:
    """_y_batch over trials 0..n_trials-1, split into `jobs` worker ranges.

    Ranges are cut at block boundaries, so no block's stream is drawn by
    two workers.
    """
    args = (truth, alt, ns, dt, master_seed, spawn_prefix)
    if jobs <= 1 or n_trials < 2 * _CHUNK_TRIALS:
        return _y_batch(*args, 0, n_trials)
    n_blocks = -(-n_trials // TRIAL_BLOCK)
    bounds = np.minimum(np.linspace(0, n_blocks, jobs + 1).astype(int) * TRIAL_BLOCK, n_trials)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futs = [pool.submit(_y_batch, *args, a, b) for a, b in ranges]
        return np.concatenate([f.result() for f in futs], axis=1)


def check_run(n_trials: int, jobs: int) -> None:
    """Refuse a trial or worker count no Monte Carlo run takes."""
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")


def check_search(
    confidence_p: float, dt_gamma: float, n_trials: int, master_seed: int, jobs: int, max_samples: int
) -> None:
    """Refuse every setting of tau_min that no search takes.

    tau_min checks here before it draws; a caller that records these
    settings without running the search checks here too.
    """
    if not 0 < confidence_p < 1:
        raise ConfigError(f"confidence_p must be in (0, 1), got {confidence_p}")
    if dt_gamma <= 0 or dt_gamma > 0.5:
        raise ConfigError(f"dt_gamma must be in (0, 0.5], got {dt_gamma}")
    check_run(n_trials, jobs)
    if max_samples < 2:
        raise ConfigError(f"max_samples must be >= 2, got {max_samples}")
    _check_seed(master_seed)


def y_ensemble(
    truth: BasebandModel,
    pair: HypothesisPair,
    duration: float,
    dt: float,
    n_trials: int,
    master_seed: int,
    jobs: int = 1,
) -> np.ndarray:
    """n_trials independent draws of Y under the given truth."""
    n = _record_length(duration, dt)
    check_run(n_trials, jobs)
    _check_resolution(truth, dt)
    if pair.alt_model.amplitude == 0:
        # the two laws coincide, so every Y is exactly zero; nothing is drawn
        _check_seed(master_seed)
        return np.zeros(n_trials)
    _check_resolution(pair.alt_model, dt)
    return _y_table(truth, pair.alt_model, [n], dt, n_trials, master_seed, (), jobs)[0]


def _nested_rows(
    pair: HypothesisPair, ns, dt: float, n_trials: int, master_seed: int, jobs: int
) -> dict:
    """{n: (flat Y, alt Y)} for every n in ns: views of one nested pass per truth."""
    ns = sorted(set(ns))
    flat, alt = (
        _y_table(t, pair.alt_model, ns, dt, n_trials, master_seed, (j,), jobs)
        for j, t in enumerate((pair.null_model, pair.alt_model))
    )
    return {n: (flat[k], alt[k]) for k, n in enumerate(ns)}


def _verdict_rates(y: np.ndarray, y_th: float) -> tuple:
    """The decision rule: fractions of y that say QM (Y > y_th), SN (Y < -y_th), none."""
    n = y.size
    n_qm = int(np.count_nonzero(y > y_th))
    n_sn = int(np.count_nonzero(y < -y_th))
    return n_qm / n, n_sn / n, (n - n_qm - n_sn) / n


def outcome_probs(
    truth: BasebandModel,
    pair: HypothesisPair,
    duration: float,
    dt: float,
    y_th: float,
    n_trials: int,
    master_seed: int,
    jobs: int = 1,
) -> DecisionReport:
    """Monte Carlo verdict rates for records generated under `truth`."""
    if y_th < 0:
        raise ConfigError(f"y_th must be >= 0, got {y_th}")
    y = y_ensemble(truth, pair, duration, dt, n_trials, master_seed, jobs=jobs)
    p_qm, p_sn, p_none = _verdict_rates(y, y_th)
    p_correct, p_wrong = (p_qm, p_sn) if truth.kind == "flat" else (p_sn, p_qm)
    return DecisionReport(
        p_correct=p_correct,
        p_wrong=p_wrong,
        p_indecision=p_none,
        y_th=y_th,
        n_trials=n_trials,
        master_seed=master_seed,
        truth_tag=truth.tag,
    )


# -------------------------------------------------------- threshold search


def threshold_search(y_flat: np.ndarray, y_alt: np.ndarray, confidence_p: float):
    """Best threshold for two empirical Y ensembles.

    The candidate levels are the merged absolute values of both ensembles,
    plus zero, ascending: every level at which a verdict count of
    _verdict_rates can change. At a level c the larger wrong rate,
    max(#(y_flat < -c)/nf, #(y_alt > c)/na), never rises as c grows, and
    the larger undecided rate, max(#(|y_flat| <= c)/nf, #(|y_alt| <= c)/na),
    never falls. So over the levels the worst of the four is valley
    shaped: it is the wrong rate before the first level where the
    undecided rate catches up and the undecided rate from there on, and
    its minimum is at that level or the one before. Bisection finds that
    level, and a second bisection the last level that still reaches the
    minimum, so ties go to the larger (more cautious) threshold. Each
    level costs four binary searches into the sorted ensembles, and every
    rate is an integer count over n.

    Returns (feasible, y_th, worst) where worst is the largest of the four
    rates at y_th and feasible means worst <= p. Each ensemble must be
    nonempty (ConfigError) and finite (DomainError).
    """
    if not 0 < confidence_p < 1:
        raise ConfigError(f"confidence_p must be in (0, 1), got {confidence_p}")
    sf = np.sort(y_flat)
    sa = np.sort(y_alt)
    nf, na = sf.size, sa.size
    if not nf or not na:
        raise ConfigError("threshold_search needs at least one Y under each truth")
    # sorting puts -inf first and nan or +inf last
    if not all(math.isfinite(v) for v in (sf[0], sf[-1], sa[0], sa[-1])):
        raise DomainError("threshold_search needs finite Y")
    levels = np.concatenate([np.abs(sf), np.abs(sa), [0.0]])
    levels.sort()

    def rates(i: int) -> tuple:
        """(larger wrong rate, larger undecided rate) at level i."""
        c = levels[i]
        below_f, upto_f = sf.searchsorted(-c, "left"), sf.searchsorted(c, "right")
        below_a, upto_a = sa.searchsorted(-c, "left"), sa.searchsorted(c, "right")
        return (
            max(below_f / nf, (na - upto_a) / na),
            max((upto_f - below_f) / nf, (upto_a - below_a) / na),
        )

    def undecided_leads(i: int) -> bool:
        wrong, undecided = rates(i)
        return undecided >= wrong

    # the first level where the undecided rate leads; the largest level
    # leaves every trial undecided, so there is one
    k = bisect.bisect_left(range(levels.size), True, key=undecided_leads)
    best = rates(k)[1]
    wrong_before = rates(k - 1)[0] if k else math.inf
    if wrong_before < best:
        j, best = k - 1, wrong_before
    else:  # the last level the undecided rate holds at the minimum
        j = bisect.bisect_right(range(levels.size), best, lo=k, key=lambda i: rates(i)[1]) - 1
    return bool(best <= confidence_p), float(levels[j]), float(best)


def _erfcinv(y: float) -> float:
    """Inverse complementary error function on (0, 2): erfc(x) = y.

    erfc(x) = 2 Phi(-x sqrt 2) for the standard normal CDF Phi, so
    x = -Phi^-1(y / 2) / sqrt 2.
    """
    return -NormalDist().inv_cdf(y / 2.0) / math.sqrt(2.0)


# The confidence law of the printed fits, (a - b erfcinv(p/100))^2. It falls
# to 0 at p* = 100 erfc(a/b), about 57.3 %, and rises again above it, where
# a looser target would read as a longer measurement.
_CONFIDENCE_LAW = (2.94, 7.38)
_P_TURN = 100.0 * math.erfc(_CONFIDENCE_LAW[0] / _CONFIDENCE_LAW[1])


def fit_in_range(kind: str, amplitude: float) -> bool:
    """Whether a feature of this size lies where the printed fits hold.

    A peak needs height h > 10 and a dip depth d < 0.9; fit_prediction
    warns outside, and the feasibility reports' fit_range flag reads here.
    """
    if kind not in ("peak", "dip"):
        raise ConfigError(f"kind must be peak or dip, got {kind!r}")
    return amplitude > 10.0 if kind == "peak" else amplitude < 0.9


def fit_prediction(kind: str, amplitude: float, gamma: float, p: float = 10.0) -> FitPrediction:
    """Measurement-time estimate from the printed Monte Carlo fits.

    p is the confidence target in PERCENT (10.0 means every failure rate
    at or below 10%). The coherence time of the feature is 2/gamma. The
    dip fit 18.3/d^2 - 10.7/d and the peak fit 13.5/h^0.73 are the halved
    (two-quadrature) convention at p = 10; the unhalved twin is twice
    that, matching the single-record search this module performs. Other
    confidence levels scale by the (2.94 - 7.38 erfcinv(p/100))^2 law
    normalized to unity at p = 10; from its zero at p* = 100 erfc(2.94/7.38)
    on, the estimate carries a warning.
    """
    if gamma <= 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if not 0 < p < 100:
        raise ConfigError(f"p must be a percentage in (0, 100), got {p}")
    in_range = fit_in_range(kind, amplitude)  # refuses any other kind
    if kind == "peak":
        if amplitude <= 0:
            raise DomainError("peak fit needs amplitude > 0")
        ct_halved = 13.5 / amplitude**0.73
        warnings = [] if in_range else ["peak fit is unreliable below h of about 10"]
    else:
        if not 0 < amplitude < 1:
            raise DomainError("dip fit needs 0 < amplitude < 1")
        ct_halved = 18.3 / amplitude**2 - 10.7 / amplitude
        warnings = [] if in_range else ["dip fit breaks down as d approaches 1"]
    if p >= _P_TURN:
        warnings.append(f"confidence law reaches 0 at p = {_P_TURN:.1f}% and turns back up above it")
    a, b = _CONFIDENCE_LAW

    def conf(pp: float) -> float:
        return (a - b * _erfcinv(pp / 100.0)) ** 2

    ct_halved *= conf(p) / conf(10.0)
    coherence = 2.0 / gamma
    return FitPrediction(
        seconds=ct_halved * coherence,
        seconds_unhalved=2 * ct_halved * coherence,
        coherence_times=ct_halved,
        coherence_times_unhalved=2 * ct_halved,
        warnings=tuple(warnings),
    )


def _unresolved(lo: int, hi: int) -> bool:
    """Whether the bracket lo < hi is still wider than 5% of hi, or one sample."""
    return hi - lo > max(1, int(0.05 * hi))


def _bisection_tree(lo: int, hi: int) -> list:
    """Every length the bisection between infeasible lo and feasible hi can probe."""
    if not _unresolved(lo, hi):
        return []
    mid = (lo + hi) // 2
    return [mid] + _bisection_tree(lo, mid) + _bisection_tree(mid, hi)


def _shortest_feasible(score, n0: int, max_samples: int, confidence_p: float) -> tuple:
    """The duration search: the shortest feasible length, to 5% or one sample.

    score(n, record) -> (feasible, y_th, worst) judges the record of n
    samples; feasibility is taken to be monotone in n. record is a
    prefetch hint: the lengths the search may probe next, which an oracle
    may score in the same pass as n. The search starts at n0. If n0 is
    feasible it halves down to the two-sample floor until a length fails;
    otherwise it doubles until a length passes, the last doubling stopping
    at max_samples. Then it bisects the bracket, infeasible below and
    feasible above, until it is no wider than 5% of its upper end, or one
    sample (_unresolved). One sample scores nothing, so the floor's lower
    end is 1, never probed.

    The hints are chosen so that an oracle that prepares n and its hint
    whenever n is not among the lengths it last prepared does that once
    per bracket. The first probe hints the halving chain and the bisection
    tree of the octave below n0, where the bracket lands whenever n0 is
    within a factor two; each doubling probe hints the tree of its
    bracket; a bracket found lower in the chain hints its tree with its
    first bisection probe.

    Returns (n, probes): n is the upper end of the final bracket and probes
    maps each probed length, in probe order, to its score. Raises
    BoundedSearchError, with the probes' worst rates as diagnostics, when
    max_samples itself is probed and infeasible; it is last_infeasible.
    """
    probes = {}

    def feasible(n: int, record=()) -> bool:
        probes[n] = score(n, record)
        return probes[n][0]

    chain = [n0]
    while chain[-1] > 2:
        chain.append(max(2, chain[-1] // 2))

    # lo infeasible, hi feasible: the bracket, then the bisection interval
    lo, hi = 1, n0
    first_octave = _bisection_tree(chain[1], n0) if n0 > 2 else []
    if feasible(n0, chain + first_octave):
        for m in chain[1:]:
            if not feasible(m):
                lo = m
                break
            hi = m
    else:
        while hi < max_samples:
            lo, hi = hi, min(2 * hi, max_samples)
            if feasible(hi, _bisection_tree(lo, hi)):
                break
        else:
            raise BoundedSearchError(
                f"no duration up to {max_samples} samples reaches "
                f"confidence {confidence_p}",
                diagnostics={
                    "max_samples": max_samples,
                    "last_infeasible": hi,
                    "probes": {k: v[2] for k, v in probes.items()},
                },
            )

    tree = _bisection_tree(lo, hi)
    while _unresolved(lo, hi):
        mid = (lo + hi) // 2
        if feasible(mid, tree):
            hi = mid
        else:
            lo = mid
    return hi, probes


def tau_min(
    pair: HypothesisPair,
    confidence_p: float,
    dt_gamma: float = 0.14,
    n_trials: int = 10000,
    master_seed: int = 0,
    jobs: int = 1,
    max_samples: int = 8192,
) -> TauMinResult:
    """Shortest record for which some threshold meets the confidence target.

    confidence_p is a fraction in (0, 1): every one of the four failure
    rates (wrong or undecided, under either truth) must be at or below it.
    Each probed length is judged by threshold_search on its two Y rows: the
    threshold that minimizes the worst of the four, found by bisecting the
    sorted levels, ties going to the larger threshold; the length is
    feasible when that worst rate is at or below confidence_p.
    dt_gamma is the sampling step in units of 1/gamma. Durations are whole
    numbers of samples. _shortest_feasible runs the search: it starts from
    the printed-fit estimate (capped at max_samples), halves or doubles up
    to max_samples to bracket the answer, then bisects to 5% relative (or
    one sample). The reported tau_min is the single-record (one quadrature)
    duration; the halved field is the two-quadrature convention the figure
    fits use.

    Probes read Y from one pass cache: a mapping from each length of the
    latest nested pass to its (flat, alt) rows. One pass per truth draws
    every trial to the longest length it records and scores all of them.
    A probe the cache lacks draws a new pass over the probe and the
    search's hint, releasing the previous pass first, so one pass is held
    at a time, 16 bytes per trial per recorded length, and each bracket
    costs one pass.
    """
    if pair.alt_model.amplitude <= 0:
        raise DomainError("tau_min needs a nonzero alternative amplitude")
    check_search(confidence_p, dt_gamma, n_trials, master_seed, jobs, max_samples)
    gamma = pair.gamma
    dt = dt_gamma / gamma
    fit = fit_prediction(pair.alt_model.kind, pair.alt_model.amplitude, gamma, p=100 * confidence_p)

    rows = {}  # the pass cache

    def score(n: int, record) -> tuple:
        if n not in rows:
            rows.clear()  # release the previous pass before drawing the next
            rows.update(_nested_rows(pair, [n, *record], dt, n_trials, master_seed, jobs))
        return threshold_search(*rows[n], confidence_p)

    n0 = min(max(2, int(round(fit.seconds_unhalved / dt))), max_samples)
    n, probes = _shortest_feasible(score, n0, max_samples, confidence_p)
    return TauMinResult(
        tau_min=n * dt,
        tau_min_halved=n * dt / 2.0,
        y_th_used=probes[n][1],
        confidence_p=confidence_p,
        n_trials=n_trials,
        fit_prediction=fit.seconds,
        master_seed=master_seed,
        n_samples=n,
        probes=tuple((m, *v) for m, v in probes.items()),
    )
