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
factor's gains give the log-determinant, and the engine colours and
whitens whole batches of trials in one pass over time. No N x N matrix is
formed. The Whittle (periodogram) approximation is kept as the
approximation criterion 7 tests, cross-checked against the exact form.

Everything random is reproducible: trial i of outcome_probs draws from
SeedSequence(entropy=master_seed, spawn_key=(i,)), and the duration
search uses spawn_key=(n_samples, truth_index, i) so that every duration
probed gets fresh, fully determined noise.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcinv

from .errors import BoundedSearchError, ConfigError, DomainError
from .synth import BasebandModel, BasebandSeries, covariance_factor

_CHUNK = 2048  # trials coloured and whitened per batch


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

    def as_dict(self) -> dict:
        return {
            "p_correct": self.p_correct,
            "p_wrong": self.p_wrong,
            "p_indecision": self.p_indecision,
            "y_th": self.y_th,
            "n_trials": self.n_trials,
            "master_seed": self.master_seed,
            "truth_tag": self.truth_tag,
        }


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

    def __post_init__(self):
        if self.tau_min <= 0:
            raise DomainError("tau_min must be > 0")

    def as_dict(self) -> dict:
        return {
            "tau_min": self.tau_min,
            "tau_min_halved": self.tau_min_halved,
            "y_th_used": self.y_th_used,
            "confidence_p": self.confidence_p,
            "n_trials": self.n_trials,
            "fit_prediction": self.fit_prediction,
            "master_seed": self.master_seed,
            "n_samples": self.n_samples,
        }


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
    if dt * model.fwhm_gamma > 0.5:
        raise ConfigError(
            f"dt * gamma = {dt * model.fwhm_gamma:.3f} > 0.5: the model's feature"
            " is unresolved at this sampling"
        )
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
    rho = math.exp(-model.fwhm_gamma * dt / 2)
    s = model._sign * model.amplitude * model.fwhm_gamma / 4.0
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


def decide(y: float, y_th: float) -> str:
    """Map a statistic to a verdict: "QM", "SN", or "none"."""
    if y_th < 0:
        raise ConfigError(f"y_th must be >= 0, got {y_th}")
    if y > y_th:
        return "QM"
    if y < -y_th:
        return "SN"
    return "none"


# ------------------------------------------------------------ the MC engine


def _y_batch(
    truth: BasebandModel,
    alt: BasebandModel,
    n: int,
    dt: float,
    master_seed: int,
    spawn_prefix: tuple,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Y for trials lo..hi-1, each drawn from its own derived stream.

    Each chunk of trials is coloured with the truth's factor and whitened
    with the alt's. When the truth is the alt law the whitened vector is
    the draw itself, so only colouring runs; a flat truth is white noise,
    so only whitening runs. The flat quadratic form is dt times the
    column sums of squares, and the log-determinant difference is a
    constant shared by every trial.
    """
    f_alt = covariance_factor(alt, n, dt)
    if truth.kind == "flat":
        f_truth = None
    elif truth == alt:
        f_truth = f_alt
    else:
        f_truth = covariance_factor(truth, n, dt)
    lndet_alt = f_alt.logdet
    lndet_flat = -n * math.log(dt)

    out = np.empty(hi - lo)
    sqrt_dt = math.sqrt(dt)
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        z = np.empty((n, stop - start))
        for i in range(start, stop):
            ss = np.random.SeedSequence(entropy=master_seed, spawn_key=spawn_prefix + (i,))
            z[:, i - start] = np.random.default_rng(ss).standard_normal(n)
        x = z / sqrt_dt if f_truth is None else f_truth.colour(z)
        u = z if f_truth is f_alt else f_alt.whiten(x)
        q_alt = np.sum(u * u, axis=0)
        q_flat = dt * np.sum(x * x, axis=0)
        out[start - lo : stop - lo] = 0.5 * ((lndet_alt - lndet_flat) + (q_alt - q_flat))
    return out


def y_ensemble(
    truth: BasebandModel,
    pair: HypothesisPair,
    duration: float,
    dt: float,
    n_trials: int,
    master_seed: int,
    spawn_prefix: tuple = (),
    jobs: int = 1,
) -> np.ndarray:
    """n_trials independent draws of Y under the given truth."""
    if dt <= 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    n = int(round(duration / dt))
    if n < 2:
        raise ConfigError(f"duration {duration} at dt {dt} gives {n} samples; need >= 2")
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if truth.kind != "flat" and dt * truth.fwhm_gamma > 0.5:
        raise ConfigError("dt too coarse for the truth model's feature")
    if pair.alt_model.amplitude > 0 and dt * pair.gamma > 0.5:
        raise ConfigError("dt too coarse for the alternative model's feature")

    args = (truth, pair.alt_model, n, dt, master_seed, spawn_prefix)
    if jobs <= 1 or n_trials < 2 * _CHUNK:
        return _y_batch(*args, 0, n_trials)
    bounds = np.linspace(0, n_trials, jobs + 1).astype(int)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futs = [
            pool.submit(_y_batch, *args, int(bounds[j]), int(bounds[j + 1]))
            for j in range(jobs)
        ]
        return np.concatenate([f.result() for f in futs])


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
    n_qm = int(np.count_nonzero(y > y_th))
    n_sn = int(np.count_nonzero(y < -y_th))
    n_none = n_trials - n_qm - n_sn
    if truth.kind == "flat":
        n_correct, n_wrong = n_qm, n_sn
    else:
        n_correct, n_wrong = n_sn, n_qm
    return DecisionReport(
        p_correct=n_correct / n_trials,
        p_wrong=n_wrong / n_trials,
        p_indecision=n_none / n_trials,
        y_th=y_th,
        n_trials=n_trials,
        master_seed=master_seed,
        truth_tag=truth.tag,
    )


# -------------------------------------------------------- threshold search


def threshold_search(y_flat: np.ndarray, y_alt: np.ndarray, confidence_p: float):
    """Best threshold for two empirical Y ensembles.

    Sweeps every level at which any verdict count can change (the merged
    absolute values of both ensembles, plus zero) and evaluates the four
    failure rates: wrong and undecided under each truth. Returns
    (feasible, y_th, worst) where worst is the largest of the four at the
    chosen threshold; the threshold minimizes worst, with ties broken
    toward the larger (more cautious) value. Feasible means worst <= p.
    """
    if not 0 < confidence_p < 1:
        raise ConfigError(f"confidence_p must be in (0, 1), got {confidence_p}")
    nf, na = y_flat.size, y_alt.size
    sf = np.sort(y_flat)
    sa = np.sort(y_alt)
    af = np.sort(np.abs(y_flat))
    aa = np.sort(np.abs(y_alt))
    cand = np.unique(np.concatenate([af, aa, [0.0]]))

    wrong_flat = np.searchsorted(sf, -cand, side="left") / nf
    indec_flat = np.searchsorted(af, cand, side="right") / nf
    wrong_alt = (na - np.searchsorted(sa, cand, side="right")) / na
    indec_alt = np.searchsorted(aa, cand, side="right") / na
    worst = np.maximum.reduce([wrong_flat, indec_flat, wrong_alt, indec_alt])

    best_worst = worst.min()
    # ties toward the larger threshold: scan the equal-minimum set from above
    j = int(np.nonzero(worst == best_worst)[0][-1])
    return bool(best_worst <= confidence_p), float(cand[j]), float(best_worst)


def _feasibility_at(
    pair: HypothesisPair,
    n: int,
    dt: float,
    confidence_p: float,
    n_trials: int,
    master_seed: int,
    jobs: int,
):
    duration = n * dt
    yf = y_ensemble(
        pair.null_model, pair, duration, dt, n_trials, master_seed,
        spawn_prefix=(n, 0), jobs=jobs,
    )
    ya = y_ensemble(
        pair.alt_model, pair, duration, dt, n_trials, master_seed,
        spawn_prefix=(n, 1), jobs=jobs,
    )
    return threshold_search(yf, ya, confidence_p)


def fit_prediction(kind: str, amplitude: float, gamma: float, p: float = 10.0) -> FitPrediction:
    """Measurement-time estimate from the printed Monte Carlo fits.

    p is the confidence target in PERCENT (10.0 means every failure rate
    at or below 10%). The coherence time of the feature is 2/gamma. The
    dip fit 18.3/d^2 - 10.7/d and the peak fit 13.5/h^0.73 are the halved
    (two-quadrature) convention at p = 10; the unhalved twin is twice
    that, matching the single-record search this module performs. Other
    confidence levels scale by the (2.94 - 7.38 erfcinv(p/100))^2 law
    normalized to unity at p = 10.
    """
    if gamma <= 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if not 0 < p < 100:
        raise ConfigError(f"p must be a percentage in (0, 100), got {p}")
    warnings = []
    if kind == "peak":
        if amplitude <= 0:
            raise DomainError("peak fit needs amplitude > 0")
        if amplitude <= 10:
            warnings.append("peak fit is unreliable below h of about 10")
        ct_halved = 13.5 / amplitude**0.73
    elif kind == "dip":
        if not 0 < amplitude < 1:
            raise DomainError("dip fit needs 0 < amplitude < 1")
        if amplitude >= 0.9:
            warnings.append("dip fit breaks down as d approaches 1")
        ct_halved = 18.3 / amplitude**2 - 10.7 / amplitude
    else:
        raise ConfigError(f"kind must be peak or dip, got {kind!r}")

    def conf(pp: float) -> float:
        return (2.94 - 7.38 * erfcinv(pp / 100.0)) ** 2

    ct_halved *= conf(p) / conf(10.0)
    coherence = 2.0 / gamma
    return FitPrediction(
        seconds=ct_halved * coherence,
        seconds_unhalved=2 * ct_halved * coherence,
        coherence_times=ct_halved,
        coherence_times_unhalved=2 * ct_halved,
        warnings=tuple(warnings),
    )


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
    dt_gamma is the sampling step in units of 1/gamma. Durations are whole
    numbers of samples; the search starts from the printed-fit estimate,
    brackets geometrically, then bisects to 5% relative (or one sample).
    The reported tau_min is the single-record (one quadrature) duration;
    the halved field is the two-quadrature convention the figure fits use.
    """
    if pair.alt_model.amplitude <= 0:
        raise DomainError("tau_min needs a nonzero alternative amplitude")
    if not 0 < confidence_p < 1:
        raise ConfigError(f"confidence_p must be in (0, 1), got {confidence_p}")
    if dt_gamma <= 0 or dt_gamma > 0.5:
        raise ConfigError(f"dt_gamma must be in (0, 0.5], got {dt_gamma}")
    gamma = pair.gamma
    dt = dt_gamma / gamma
    fit = fit_prediction(pair.alt_model.kind, pair.alt_model.amplitude, gamma, p=100 * confidence_p)

    def feasible(n: int):
        return _feasibility_at(pair, n, dt, confidence_p, n_trials, master_seed, jobs)

    n0 = max(2, int(round(fit.seconds_unhalved / dt)))
    n0 = min(n0, max_samples)
    probe = {}

    ok, y_th, worst = feasible(n0)
    probe[n0] = (ok, y_th, worst)
    if ok:
        hi_feasible = n0
        lo_infeasible = None
        lo = n0
        while lo > 2:
            lo = max(2, lo // 2)
            ok2, y2, w2 = feasible(lo)
            probe[lo] = (ok2, y2, w2)
            if ok2:
                hi_feasible = lo
            else:
                lo_infeasible = lo
                break
        if lo_infeasible is None:
            # feasible all the way down to the two-sample floor
            return TauMinResult(
                tau_min=hi_feasible * dt,
                tau_min_halved=hi_feasible * dt / 2.0,
                y_th_used=probe[hi_feasible][1],
                confidence_p=confidence_p,
                n_trials=n_trials,
                fit_prediction=fit.seconds,
                master_seed=master_seed,
                n_samples=hi_feasible,
            )
    else:
        lo_infeasible = n0
        hi = n0
        while True:
            hi = hi * 2
            if hi > max_samples:
                raise BoundedSearchError(
                    f"no duration up to {max_samples} samples reaches "
                    f"confidence {confidence_p}",
                    diagnostics={
                        "max_samples": max_samples,
                        "last_infeasible": lo_infeasible,
                        "probes": {k: v[2] for k, v in probe.items()},
                    },
                )
            ok, y_th, worst = feasible(hi)
            probe[hi] = (ok, y_th, worst)
            if ok:
                break
            lo_infeasible = hi
        hi_feasible = hi

    while hi_feasible - lo_infeasible > max(1, int(0.05 * hi_feasible)):
        mid = (hi_feasible + lo_infeasible) // 2
        ok, y_th, worst = feasible(mid)
        probe[mid] = (ok, y_th, worst)
        if ok:
            hi_feasible = mid
        else:
            lo_infeasible = mid

    y_th_used = probe[hi_feasible][1]
    return TauMinResult(
        tau_min=hi_feasible * dt,
        tau_min_halved=hi_feasible * dt / 2.0,
        y_th_used=y_th_used,
        confidence_p=confidence_p,
        n_trials=n_trials,
        fit_prediction=fit.seconds,
        master_seed=master_seed,
        n_samples=hi_feasible,
    )


def duration_sweep(
    pair: HypothesisPair,
    sample_counts,
    dt: float,
    confidence_p: float,
    n_trials: int,
    master_seed: int,
    jobs: int = 1,
) -> list:
    """Threshold-search summary per duration, for tabulating search curves."""
    rows = []
    for n in sample_counts:
        n = int(n)
        duration = n * dt
        yf = y_ensemble(
            pair.null_model, pair, duration, dt, n_trials, master_seed,
            spawn_prefix=(n, 0), jobs=jobs,
        )
        ya = y_ensemble(
            pair.alt_model, pair, duration, dt, n_trials, master_seed,
            spawn_prefix=(n, 1), jobs=jobs,
        )
        ok, y_th, worst = threshold_search(yf, ya, confidence_p)
        nf = yf.size
        rows.append(
            {
                "n_samples": n,
                "duration": duration,
                "feasible": ok,
                "y_th": y_th,
                "worst": worst,
                "p_wrong_flat": float(np.mean(yf < -y_th)),
                "p_indecision_flat": float(np.mean(np.abs(yf) <= y_th)),
                "p_wrong_alt": float(np.mean(ya > y_th)),
                "p_indecision_alt": float(np.mean(np.abs(ya) <= y_th)),
            }
        )
    return rows
