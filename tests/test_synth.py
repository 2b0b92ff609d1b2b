"""Generators against their own covariance targets, demodulation bookkeeping."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.linalg import toeplitz

import snopto
from conftest import ORACLE_GRID
from snopto.errors import ConfigError, DomainError
from snopto.synth import (
    BasebandModel,
    BasebandSeries,
    ComplexBaseband,
    DemodConfig,
    covariance_factor,
    demodulate,
    gen_baseband,
    gen_ensemble,
    gen_from_psd,
    normals,
    quadratures,
    target_autocovariance,
    trial_rng,
)

PEAK = BasebandModel("peak", amplitude=10.0, fwhm_gamma=1.0)
DIP = BasebandModel("dip", amplitude=0.62, fwhm_gamma=1.0)
FLAT = BasebandModel("flat")
SRC = Path(snopto.__file__).resolve().parents[1]


def _dense_factor(model, n, dt):
    return np.linalg.cholesky(toeplitz(target_autocovariance(model, np.arange(n) * dt, dt)))


def _full_factor_pass(model, n, dt):
    # covariance_factor's scalar recursion with every one of the n steps
    # computed: the reference for its stop at the fixed point
    s, rho = model.pole(dt)
    diag = (1.0 + rho * rho) / dt + s * (1.0 - rho * rho)
    off = -rho / dt
    m = np.empty(n)
    l = np.zeros(n)
    v = 1.0 / dt + s
    for k in range(n):
        if k:
            l[k] = off / m[k - 1]
            v = diag - l[k] * l[k]
        if not v > 0:
            raise DomainError("covariance is not positive definite")
        m[k] = math.sqrt(v)
    return m, l


def _first_repeat(m):
    # the first k with m[k] == m[k - 1], or None
    k = np.flatnonzero(m[1:] == m[:-1])
    return int(k[0]) + 1 if k.size else None


class TestModel:
    def test_dip_amplitude_at_or_above_one_rejected(self):
        with pytest.raises(DomainError):
            BasebandModel("dip", amplitude=1.0, fwhm_gamma=1.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(DomainError):
            BasebandModel("peak", amplitude=-0.1, fwhm_gamma=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BasebandModel("notch", amplitude=0.5, fwhm_gamma=1.0)

    def test_featured_model_needs_width(self):
        with pytest.raises(ConfigError):
            BasebandModel("peak", amplitude=1.0, fwhm_gamma=0.0)

    def test_psd_values(self):
        assert PEAK.psd(0.0) == pytest.approx(11.0)
        # half width at half maximum of the feature is gamma/2
        assert PEAK.psd(0.5) == pytest.approx(6.0)
        assert DIP.psd(0.0) == pytest.approx(0.38)
        assert np.all(FLAT.psd(np.linspace(-9, 9, 101)) == 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        d=st.floats(min_value=0.0, max_value=0.999),
        g=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_valid_dip_spectrum_stays_positive(self, d, g):
        model = BasebandModel("dip", amplitude=d, fwhm_gamma=g)
        w = np.linspace(-10 * g, 10 * g, 301)
        assert np.all(model.psd(w) > 0)


class TestTargetAutocovariance:
    def test_flat_vanishes_off_zero(self):
        assert target_autocovariance(FLAT, 0.3) == 0.0
        assert target_autocovariance(FLAT, 0.0) == 0.0

    def test_flat_white_part(self):
        assert target_autocovariance(FLAT, 0.0, dt=0.14) == pytest.approx(1 / 0.14)

    def test_peak_lag_zero_continuous_part(self):
        # the feature integrates to a * gamma / 4 over d omega / 2 pi
        assert target_autocovariance(PEAK, 0.0) == pytest.approx(2.5)

    def test_discrete_lag_zero_frozen(self):
        assert target_autocovariance(PEAK, 0.0, dt=0.14) == pytest.approx(9.642857142857142)

    def test_exponential_decay_ratio(self):
        g = PEAK.fwhm_gamma
        c1 = target_autocovariance(PEAK, 0.7)
        c2 = target_autocovariance(PEAK, 0.7 + 2.0 / g)
        assert c2 / c1 == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_dip_sign(self):
        assert target_autocovariance(DIP, 0.5) < 0

    @settings(max_examples=50, deadline=None)
    @given(
        lag=st.floats(min_value=0.0, max_value=50.0),
        a=st.floats(min_value=1e-3, max_value=50.0),
        g=st.floats(min_value=0.05, max_value=20.0),
    )
    def test_even_and_decaying(self, lag, a, g):
        model = BasebandModel("peak", amplitude=a, fwhm_gamma=g)
        c_plus = target_autocovariance(model, lag)
        c_minus = target_autocovariance(model, -lag)
        assert c_plus == c_minus
        assert 0 < c_plus <= target_autocovariance(model, 0.0) * (1 + 1e-12)

    def test_covariance_row_structure(self):
        row = target_autocovariance(PEAK, np.arange(8) * 0.14, 0.14)
        assert row.shape == (8,)
        assert row[0] == pytest.approx(9.642857142857142)
        assert row[1] == pytest.approx(2.5 * np.exp(-0.07))


class TestCovarianceFactor:
    @pytest.mark.parametrize("model,dt,n", ORACLE_GRID)
    def test_matches_dense_cholesky(self, model, dt, n):
        factor = covariance_factor(model, n, dt)
        lfac = _dense_factor(model, n, dt)
        z = np.random.default_rng(n).standard_normal((n, 3))
        x = lfac @ z
        assert np.abs(factor.colour(z) - x).max() <= 1e-11 * np.abs(x).max()
        assert np.abs(factor.whiten(x) - z).max() <= 1e-11 * np.abs(z).max()
        sign, logdet = np.linalg.slogdet(toeplitz(target_autocovariance(model, np.arange(n) * dt, dt)))
        assert sign > 0
        assert factor.logdet == pytest.approx(logdet, rel=1e-12)

    def test_records_transform_independently(self):
        # a batch column is bit-identical to the same record run alone
        factor = covariance_factor(DIP, 200, 0.14)
        z = np.random.default_rng(5).standard_normal((200, 4))
        x = factor.colour(z)
        assert np.array_equal(factor.colour(z[:, 2]), x[:, 2])
        assert np.array_equal(factor.whiten(x[:, 1]), factor.whiten(x)[:, 1])

    def test_flat_law_is_diagonal(self):
        factor = covariance_factor(FLAT, 5, 0.1)
        assert factor.rho == 0.0
        z = np.arange(5.0)
        assert np.allclose(factor.colour(z), z / np.sqrt(0.1), rtol=1e-15)
        assert factor.logdet == pytest.approx(-5 * np.log(0.1), rel=1e-15)

    # float.hex of m and l at n = 6006, dt 0.14: entries 0, k - 1, k,
    # k + 1 and n - 1 around the first k with m[k] == m[k - 1], then
    # math.fsum of the array
    FROZEN = {
        ("dip", 327): {
            "m": ("0x1.525cc0366bdc1p+1", "0x1.5187f6d5dc3a5p+1", "0x1.5187f6d5dc3a5p+1",
                  "0x1.5187f6d5dc3a5p+1", "0x1.5187f6d5dc3a5p+1", "0x1.eeed5a1daf5e0p+13"),
            "l": ("0x0.0p+0", "-0x1.43476bf5b694bp+1", "-0x1.43476bf5b694cp+1",
                  "-0x1.43476bf5b694cp+1", "-0x1.43476bf5b694cp+1", "-0x1.d9f20fb5f1502p+13"),
        },
        ("peak", 45): {
            "m": ("0x1.e9cdfbf4644dap+1", "0x1.90f1bdfc23d48p+1", "0x1.90f1bdfc23d48p+1",
                  "0x1.90f1bdfc23d48p+1", "0x1.90f1bdfc23d48p+1", "0x1.25f89b173913ap+14"),
            "l": ("0x0.0p+0", "-0x1.1026394d5c622p+1", "-0x1.1026394d5c623p+1",
                  "-0x1.1026394d5c623p+1", "-0x1.1026394d5c623p+1", "-0x1.8ef7e43f63722p+13"),
        },
    }

    @pytest.mark.parametrize("model,k", [(DIP, 327), (BasebandModel("peak", 30.0, 1.0), 45)],
                             ids=["dip0.62", "peak30"])
    def test_frozen_factor_past_its_fixed_point(self, model, k):
        factor = covariance_factor(model, 6006, 0.14)
        assert _first_repeat(factor.m) == k
        for name in ("m", "l"):
            v = getattr(factor, name)
            got = tuple(v[i].hex() for i in (0, k - 1, k, k + 1, 6005)) + (math.fsum(v).hex(),)
            assert got == self.FROZEN[model.kind, k][name]


class TestFactorFixedPoint:
    # once m[k] == m[k - 1], every later step of the scalar recursion
    # repeats step k exactly; covariance_factor must equal the full pass

    @pytest.mark.parametrize("dt", [0.01, 0.14, 0.5])
    @pytest.mark.parametrize("model", [PEAK, DIP], ids=lambda m: m.kind)
    def test_equals_the_full_pass_around_the_fixed_point(self, model, dt):
        k = _first_repeat(_full_factor_pass(model, 20000, dt)[0])
        assert k is not None
        for n in (k - 1, k, k + 1, 4 * k):
            m, l = _full_factor_pass(model, n, dt)
            factor = covariance_factor(model, n, dt)
            assert np.array_equal(factor.m, m), n
            assert np.array_equal(factor.l, l), n

    def test_equals_the_full_pass_without_a_fixed_point(self):
        model = BasebandModel("dip", amplitude=0.99, fwhm_gamma=1.0)
        m, l = _full_factor_pass(model, 20000, 0.01)
        assert _first_repeat(m) is None
        factor = covariance_factor(model, 20000, 0.01)
        assert np.array_equal(factor.m, m)
        assert np.array_equal(factor.l, l)

    @pytest.mark.parametrize("dt", [3.0, 10.0])
    def test_not_positive_definite_rejected(self, dt):
        # r_0 < 0 at dt 10; at dt 3 r_0 > 0 and a later step fails
        model = BasebandModel("dip", amplitude=0.99, fwhm_gamma=1.0)
        with pytest.raises(DomainError, match="positive definite"):
            _full_factor_pass(model, 50, dt)
        with pytest.raises(DomainError, match="positive definite"):
            covariance_factor(model, 50, dt)


class TestGeneratorBasics:
    def test_deterministic_given_seed(self):
        a = gen_baseband(PEAK, 200.0, 0.14, seed=77)
        b = gen_baseband(PEAK, 200.0, 0.14, seed=77)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_series(self):
        a = gen_baseband(PEAK, 200.0, 0.14, seed=77)
        b = gen_baseband(PEAK, 200.0, 0.14, seed=78)
        assert not np.array_equal(a.samples, b.samples)

    def test_records_colour_the_trial_streams(self):
        # the documented streams: record i of an ensemble is the exact
        # covariance factor applied to column i of normals(seed, (), n, ...),
        # and a single record colours the one-trial stream trial_rng(seed, 0)
        n, dt = 300, 0.14
        lfac = _dense_factor(DIP, n, dt)
        x = gen_ensemble(DIP, n * dt, dt, master_seed=31, n_trials=3)
        z = normals(31, (), n, 0, 3)
        for i in range(3):
            expected = lfac @ z[:, i]
            assert np.abs(x[i] - expected).max() <= 1e-11 * np.abs(expected).max()
        s = gen_baseband(DIP, n * dt, dt, seed=31)
        expected = lfac @ trial_rng(31, 0).standard_normal(n)
        assert np.abs(s.samples - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_length_and_metadata(self):
        s = gen_baseband(PEAK, 200.0, 0.14, seed=1)
        assert s.n == round(200.0 / 0.14)
        assert s.seed == 1
        assert "peak" in s.model_tag

    def test_unresolved_feature_rejected(self):
        with pytest.raises(ConfigError):
            gen_baseband(PEAK, 200.0, 0.6, seed=1)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            gen_baseband(FLAT, 0.1, 0.14, seed=1)

    def test_flat_series_variance(self):
        s = gen_baseband(FLAT, 2000.0, 0.1, seed=3)
        var = s.samples.var()
        # iid white at 1/dt = 10; estimator sigma = var * sqrt(2/n)
        assert abs(var - 10.0) < 3 * 10.0 * np.sqrt(2 / s.n)

    def test_flat_lag_one_uncorrelated(self):
        s = gen_baseband(FLAT, 10000.0, 0.1, seed=11)
        x = s.samples
        rho1 = np.mean(x[:-1] * x[1:]) / x.var()
        assert abs(rho1) < 3 / np.sqrt(x.size)

    def test_flat_marginal_normality_ks(self):
        s = gen_baseband(FLAT, 1000.0, 0.1, seed=21)
        z = s.samples * np.sqrt(s.dt)
        assert z.size == 10000
        assert stats.kstest(z, "norm").pvalue > 0.01

    # float.hex of (first, last, math.fsum) of a 1429-sample record per
    # law at dt 0.14, seed 37
    FROZEN = {
        "flat": ("0x1.1599aa6a84e91p+1", "0x1.696e8c65b70f5p+1", "-0x1.140625e6c60b0p+7"),
        "peak": ("0x1.428ad78756cd9p+1", "0x1.2341ea1682b06p+1", "-0x1.c50a1716372adp+8"),
        "dip": ("0x1.12925fcaf2735p+1", "0x1.754d2e4c6fcf0p+1", "-0x1.57f72c080d91fp+6"),
    }

    @pytest.mark.parametrize("model", [FLAT, PEAK, DIP], ids=lambda m: m.kind)
    def test_frozen_bits(self, model):
        x = gen_baseband(model, 1429 * 0.14, 0.14, seed=37).samples
        assert x.size == 1429
        assert (x[0].hex(), x[-1].hex(), math.fsum(x).hex()) == self.FROZEN[model.kind]

    def test_trial_rng_rule_is_stable(self):
        # the documented derivation: SeedSequence(entropy=s, spawn_key=(i,))
        a = trial_rng(12345, 7).standard_normal(4)
        ss = np.random.SeedSequence(entropy=12345, spawn_key=(7,))
        b = np.random.default_rng(ss).standard_normal(4)
        assert np.array_equal(a, b)


def _block(seed, prefix, b, n):
    # seed contract 3 spelled out: block b is one time-major (n, 256) draw
    ss = np.random.SeedSequence(entropy=seed, spawn_key=prefix + (b,))
    return np.random.default_rng(ss).standard_normal((n, 256))


class TestSeedContract:
    def test_trial_i_is_column_of_its_block(self):
        n = 37
        want = np.concatenate([_block(5, (1,), b, n) for b in range(3)], axis=1)
        assert np.array_equal(normals(5, (1,), n, 0, 600), want[:, :600])
        # ranges cut inside a block, or holding one trial, read the same columns
        for lo, hi in ((7, 555), (256, 512), (300, 301), (0, 1)):
            assert np.array_equal(normals(5, (1,), n, lo, hi), want[:, lo:hi]), (lo, hi)

    def test_shorter_records_are_prefixes(self):
        long = normals(9, (0,), 1000, 0, 300)
        assert np.array_equal(normals(9, (0,), 123, 0, 300), long[:123])
        assert np.array_equal(normals(9, (0,), 2, 250, 300), long[:2, 250:])

    def test_prefix_and_seed_select_the_stream(self):
        base = normals(4, (), 8, 0, 256)
        assert np.array_equal(base, _block(4, (), 0, 8))
        assert not np.array_equal(base, normals(4, (0,), 8, 0, 256))
        assert not np.array_equal(base, normals(5, (), 8, 0, 256))

    @pytest.mark.parametrize("lo,hi", [(0, 0), (0, 3), (300, 300)])
    def test_negative_seed_rejected(self, lo, hi):
        # also when the trial range is empty and no stream is drawn
        with pytest.raises(ConfigError, match="master seed"):
            normals(-1, (), 4, lo, hi)
        with pytest.raises(ConfigError, match="master seed"):
            trial_rng(-1, 0)

    def test_ensemble_rows_do_not_depend_on_its_size(self):
        x = gen_ensemble(PEAK, 40 * 0.14, 0.14, master_seed=3, n_trials=300)
        assert np.array_equal(gen_ensemble(PEAK, 40 * 0.14, 0.14, master_seed=3, n_trials=7), x[:7])


class TestGeneratorStatistics:
    def test_lag_zero_covariance_ensemble(self):
        # 10^4 realizations at the reference record shape; the mean of the
        # per-record variance estimate must sit within 3 sigma of
        # 1/dt + a gamma / 4
        x = gen_ensemble(PEAK, 200.0, 0.14, master_seed=100, n_trials=10000)
        c0 = (x**2).mean(axis=1)
        target = target_autocovariance(PEAK, 0.0, dt=0.14)
        sigma = c0.std(ddof=1) / np.sqrt(c0.size)
        assert abs(c0.mean() - target) < 3 * sigma

    def test_peak_marginal_normality_ks(self):
        x = gen_ensemble(PEAK, 200.0, 0.14, master_seed=101, n_trials=10000)
        # one sample per record: iid across the ensemble
        z = x[:, 0] / np.sqrt(target_autocovariance(PEAK, 0.0, dt=0.14))
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_ensemble_autocovariance_matches_target(self):
        n_tr, dur, dt = 3000, 168.0, 0.14
        x = gen_ensemble(PEAK, dur, dt, master_seed=200, n_trials=n_tr)
        n = x.shape[1]
        c0 = target_autocovariance(PEAK, 0.0, dt=dt)
        for k in range(0, 21, 4):
            emp = np.mean(x[:, : n - k] * x[:, k:]) if k else np.mean(x**2)
            tgt = target_autocovariance(PEAK, k * dt, dt=dt)
            assert abs(emp - tgt) < 0.01 * c0, f"lag {k}"

    def test_mean_periodogram_matches_psd(self):
        # Welch average over the ensemble against the target spectrum,
        # within 5% through the feature band
        dur, dt = 200.0, 0.14
        x = gen_ensemble(PEAK, dur, dt, master_seed=400, n_trials=6000)
        n = x.shape[1]
        pxx = (np.abs(np.fft.fft(x, axis=1)) ** 2).mean(axis=0) * dt / n
        omega = 2 * np.pi * np.fft.fftfreq(n, d=dt)
        band = np.abs(omega) <= 5 * PEAK.fwhm_gamma
        ratio = pxx[band] / PEAK.psd(omega[band])
        assert np.abs(ratio - 1).max() < 0.05

    def test_dip_ensemble_lag_zero(self):
        x = gen_ensemble(DIP, 200.0, 0.14, master_seed=500, n_trials=4000)
        c0 = (x**2).mean(axis=1)
        target = target_autocovariance(DIP, 0.0, dt=0.14)
        sigma = c0.std(ddof=1) / np.sqrt(c0.size)
        assert abs(c0.mean() - target) < 3 * sigma


class TestGenFromPsd:
    def test_white_noise_floor(self):
        s = gen_from_psd(lambda w: np.ones_like(w), 1000.0, 0.1, seed=9)
        var = s.samples.var()
        assert abs(var - 10.0) < 3 * 10.0 * np.sqrt(2 / s.n)

    def test_negative_psd_rejected(self):
        with pytest.raises(DomainError):
            gen_from_psd(lambda w: np.cos(w), 100.0, 0.1, seed=9)

    def test_mean_periodogram_reproduces_psd(self):
        dur, dt = 200.0, 0.14

        def psd(w):
            return PEAK.psd(w)

        n = round(dur / dt)
        pxx = np.zeros(n)
        for i in range(500):
            s = gen_from_psd(psd, dur, dt, seed=i)
            pxx += np.abs(np.fft.fft(s.samples)) ** 2
        pxx *= dt / n / 500
        omega = 2 * np.pi * np.fft.fftfreq(n, d=dt)
        band = np.abs(omega) <= 5.0
        ratio = pxx[band] / psd(omega[band])
        assert np.abs(ratio - 1).max() < 3 * 1 / np.sqrt(500) * 3


class TestDemodulation:
    def test_band_beyond_nyquist_rejected(self):
        s = gen_baseband(FLAT, 100.0, 0.1, seed=1)
        with pytest.raises(ConfigError):
            demodulate(s, DemodConfig(center=30.0, halfwidth_sigma=5.0))

    def test_band_must_be_positive(self):
        with pytest.raises(ConfigError):
            DemodConfig(center=1.0, halfwidth_sigma=2.0)
        with pytest.raises(ConfigError):
            DemodConfig(center=1.0, halfwidth_sigma=0.0)

    def test_pure_tone_becomes_dc(self):
        n, dt = 16384, 0.05
        t = np.arange(n) * dt
        domega = 2 * np.pi / (n * dt)
        wq = 5215 * domega  # on the record's own frequency grid
        series = BasebandSeries(dt, np.cos(wq * t + 0.3), seed=0, model_tag="tone")
        xi = demodulate(series, DemodConfig(center=wq, halfwidth_sigma=2.0)).samples
        trim = slice(n // 10, -n // 10)
        expected = 0.5 * np.exp(1j * 0.3)
        assert np.abs(xi[trim] - expected).max() < 1e-6

    def test_shifted_tone_becomes_complex_exponential(self):
        n, dt = 16384, 0.05
        t = np.arange(n) * dt
        domega = 2 * np.pi / (n * dt)
        wq = 5215 * domega
        delta = 130 * domega
        series = BasebandSeries(dt, np.cos((wq + delta) * t), seed=0, model_tag="tone")
        xi = demodulate(series, DemodConfig(center=wq, halfwidth_sigma=2.0)).samples
        trim = slice(n // 10, -n // 10)
        assert np.abs(np.abs(xi[trim]) - 0.5).max() < 1e-9
        phase = np.unwrap(np.angle(xi[trim]))
        tt = t[trim]
        slope = np.polyfit(tt, phase, 1)[0]
        assert slope == pytest.approx(delta, rel=1e-9)


def _carrier_psd(omega):
    """White floor plus a Lorentzian line at 10 rad/s, 0.5 rad/s wide."""
    return 0.5 + 4.0 / (1.0 + ((np.abs(omega) - 10.0) / 0.25) ** 2)


class TestDemodulatedRecordFrozen:
    # float.hex of (first, last, math.fsum) of the record, the cosine and
    # the sine quadrature, per record length: a power of two and an odd n
    FROZEN = {
        2**16: [
            ("0x1.9eb748e1688a4p+2", "0x1.52cf531a347d4p+2", "0x1.0e67542ebd333p+7"),
            ("0x1.05e465c896db1p+0", "0x1.885ad3bcc06b9p-1", "0x1.a9919e4a39d70p+10"),
            ("0x1.7768c583bf9acp-2", "-0x1.9220875a34ec0p-1", "-0x1.8b5199d24d678p+10"),
        ],
        3001: [
            ("0x1.d765d5697318cp+0", "-0x1.93b8f2d11bf7bp-1", "0x1.cee8ade777861p+4"),
            ("-0x1.424b0f5fd4506p-1", "0x1.36788d215c6acp-3", "0x1.ce7b692a728b0p+6"),
            ("-0x1.a40316ab96e29p-2", "-0x1.7a6da1d5c77eep-1", "-0x1.c642c0d979ed2p+9"),
        ],
    }

    @pytest.mark.parametrize("n", list(FROZEN))
    def test_bits(self, n):
        dt = 0.05
        record = gen_from_psd(_carrier_psd, n * dt, dt, seed=23)
        c, s = quadratures(demodulate(record, DemodConfig(10.0, 2.0)))
        got = [(x[0].hex(), x[-1].hex(), math.fsum(x).hex())
               for x in (record.samples, c.samples, s.samples)]
        assert record.n == n
        assert got == self.FROZEN[n]

    # sha256 of the record, the cosine and the sine quadrature at 2^20
    # samples, the length the benchmark demodulates
    SHA256 = (
        "0fa69ec21252e0d08e370edf10c0694d5abb6080f60f1b4f99ab1d47846f2d9e",
        "1fb12ea491c19b57e9b7d1abd3ddde1c8617ca6624446cb29d47fbe10fdcdcb9",
        "828f40ffdf98b09817f6a037b5bf3bfcf85136f086f54a602a3ff11a30f6f931",
    )

    def test_sha256_at_2_20(self):
        n, dt = 2**20, 0.05
        record = gen_from_psd(_carrier_psd, n * dt, dt, seed=23)
        c, s = quadratures(demodulate(record, DemodConfig(10.0, 2.0)))
        got = tuple(hashlib.sha256(x.samples.tobytes()).hexdigest() for x in (record, c, s))
        assert record.n == n
        assert got == self.SHA256


class TestDemodulationMemory:
    def test_record_owns_its_samples(self):
        # a view of the complex transform would pin 16 B per sample
        record = gen_from_psd(_carrier_psd, 3001 * 0.05, 0.05, seed=1)
        assert record.samples.shape == (3001,)
        assert record.samples.flags.owndata

    def test_quadratures_own_their_samples(self):
        # views of the complex baseband would pin 16 B per sample
        record = gen_from_psd(_carrier_psd, 3001 * 0.05, 0.05, seed=1)
        c, s = quadratures(demodulate(record, DemodConfig(10.0, 2.0)))
        assert c.samples.shape == s.samples.shape == (3001,)
        assert c.samples.flags.owndata and s.samples.flags.owndata

    def test_peak_bytes_per_sample(self):
        # out-of-place synthesis and mixing peaked at 89 B per sample, the
        # in-place pair at 49 (record 8, two complex arrays 32, one real
        # temporary 8)
        n, dt = 2**18, 0.05
        tracemalloc.start()
        try:
            record = gen_from_psd(_carrier_psd, n * dt, dt, seed=2)
            demodulate(record, DemodConfig(10.0, 2.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 64

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_rss_per_sample_in_a_fresh_process(self, tmp_path):
        # tracemalloc misses pocketfft's work arrays (about 32 MB per 2^20
        # complex transform), so read the peak RSS: record 8, one complex
        # buffer 16, mask 1 and the work arrays read 58.5 B per sample, a
        # second complex array per transform 74.5. VmHWM, not ru_maxrss,
        # which keeps the spawning test runner's larger peak across exec
        code = (
            "import numpy as np\n"
            "from snopto.synth import DemodConfig, demodulate, gen_from_psd, quadratures\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "psd = lambda w: 0.5 + 4.0 / (1.0 + ((np.abs(w) - 10.0) / 0.25) ** 2)\n"
            "n, dt = 2**20, 0.05\n"
            "base = hwm()\n"
            "record = gen_from_psd(psd, n * dt, dt, seed=2)\n"
            "quadratures(demodulate(record, DemodConfig(10.0, 2.0)))\n"
            "print((hwm() - base) * 1024 / n)\n"
        )
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 64


class TestQuadratures:
    def test_real_input_gives_zero_sine_quadrature(self):
        xi = ComplexBaseband(
            dt=0.1, samples=np.linspace(1, 2, 64) + 0j, seed=0, model_tag="x",
        )
        c, s = quadratures(xi)
        assert np.all(s.samples == 0.0)
        assert np.array_equal(c.samples, np.linspace(1, 2, 64))

    def test_parseval_identity(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        xi = ComplexBaseband(0.1, z, 0, "x")
        c, s = quadratures(xi)
        lhs = np.mean(c.samples**2) + np.mean(s.samples**2)
        rhs = np.mean(np.abs(z) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class _FullRecord:
    """A record with the full anatomy: white floor, thermal bump at the
    pendulum frequency, Lorentzian feature at the trap-stiffened one.
    """

    N, DT = 8000, 0.05
    DOMEGA = 2 * np.pi / (N * DT)
    WQ = 2546 * DOMEGA  # ~40 rad/s, on the frequency grid
    WCM = 509 * DOMEGA  # ~8 rad/s
    H, GAMMA_F = 12.0, 1.0
    SIGMA = 8.0
    R = 1600

    @classmethod
    def psd(cls, w):
        def lor(center, fw):
            return 1.0 / (1.0 + 4 * (w - center) ** 2 / fw**2) + 1.0 / (
                1.0 + 4 * (w + center) ** 2 / fw**2
            )

        return 1.0 + cls.H * lor(cls.WQ, cls.GAMMA_F) + 50.0 * lor(cls.WCM, 0.5)


@pytest.fixture(scope="module")
def ensemble():
    fr = _FullRecord
    cfg = DemodConfig(center=fr.WQ, halfwidth_sigma=fr.SIGMA)
    n = fr.N
    pxx_xi = np.zeros(n)
    pxx_c = np.zeros(n)
    lag_step, n_lags = 10, 21
    ccf = np.zeros((fr.R, n_lags))
    for i in range(fr.R):
        rec = gen_from_psd(fr.psd, n * fr.DT, fr.DT, seed=i)
        xi = demodulate(rec, cfg)
        c, s = quadratures(xi)
        pxx_xi += np.abs(np.fft.fft(xi.samples)) ** 2
        pxx_c += np.abs(np.fft.fft(c.samples)) ** 2
        for j in range(n_lags):
            k = j * lag_step
            ccf[i, j] = np.mean(c.samples[: n - k] * s.samples[k:]) if k else np.mean(
                c.samples * s.samples
            )
    pxx_xi *= fr.DT / n / fr.R
    pxx_c *= fr.DT / n / fr.R
    return pxx_xi, pxx_c, ccf


class TestFullRecordDemodulation:
    """Demodulating the feature band must hand back the baseband peak model."""

    def test_complex_baseband_spectrum(self, ensemble):
        fr = _FullRecord
        pxx_xi, _, _ = ensemble
        delta = 2 * np.pi * np.fft.fftfreq(fr.N, d=fr.DT)
        band = np.abs(delta) <= 5 * fr.GAMMA_F
        expected = fr.psd(fr.WQ + delta[band])
        ratio = pxx_xi[band] / expected
        assert np.abs(ratio - 1).max() < 0.10

    def test_quadrature_spectrum_matches_baseband_model(self, ensemble):
        fr = _FullRecord
        _, pxx_c, _ = ensemble
        delta = 2 * np.pi * np.fft.fftfreq(fr.N, d=fr.DT)
        band = np.abs(delta) <= 5 * fr.GAMMA_F
        model = BasebandModel("peak", amplitude=fr.H, fwhm_gamma=fr.GAMMA_F)
        # each quadrature carries half of the band's density
        ratio = 2 * pxx_c[band] / model.psd(delta[band])
        assert np.abs(ratio - 1).max() < 0.10

    def test_quadratures_uncorrelated_at_all_lags(self, ensemble):
        _, _, ccf = ensemble
        mean = ccf.mean(axis=0)
        sig = ccf.std(axis=0, ddof=1) / np.sqrt(_FullRecord.R)
        assert np.abs(mean / sig).max() < 3.0


class TestSeriesIO:
    def test_series_validation(self):
        with pytest.raises(DomainError):
            BasebandSeries(0.1, np.array([1.0, np.inf]), 0, "x")
        with pytest.raises(DomainError):
            BasebandSeries(0.1, np.array([1.0]), 0, "x")
        with pytest.raises(ConfigError):
            BasebandSeries(-0.1, np.array([1.0, 2.0]), 0, "x")
