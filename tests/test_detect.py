"""Likelihoods against dense oracles, verdict rates against frozen targets."""

import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz
from scipy.special import erfcinv

from conftest import ORACLE_GRID
from snopto import detect, synth
from snopto.errors import BoundedSearchError, ConfigError, DomainError
from snopto.detect import (
    DecisionReport,
    HypothesisPair,
    TauMinResult,
    _erfcinv,
    estimator_y,
    fit_in_range,
    fit_prediction,
    log_likelihood,
    outcome_probs,
    tau_min,
    threshold_search,
    whittle_log_likelihood,
    y_ensemble,
)
from snopto.synth import (
    TRIAL_BLOCK,
    BasebandModel,
    BasebandSeries,
    gen_baseband,
    gen_ensemble,
    normals,
    target_autocovariance,
)

DIP = BasebandModel("dip", amplitude=0.62, fwhm_gamma=1.0)
PEAK = BasebandModel("peak", amplitude=10.0, fwhm_gamma=1.0)
FLAT = BasebandModel("flat")
PAIR_DIP = HypothesisPair(FLAT, DIP)
PAIR_PEAK = HypothesisPair(FLAT, PEAK)

# Y bit for bit under seed contract 3, as float.hex: per n of _FROZEN_NS
# (tile edges and a partial last tile), trial 0, trial 299 (in the partial
# second block) and the exact sum over all 300 trials. A change to the
# random stream or to the order of the kernel's float operations moves them.
_FROZEN_NS = [2, 15, 16, 17, 33, 300]
_FROZEN_Y = {
    "flat": [
        ("-0x1.dc6534af7b125p-7", "-0x1.54c891ab72ee4p-6", "-0x1.0712af229cb28p-2"),
        ("-0x1.d8894bf953fcap-5", "-0x1.3e4bd53a89c74p-3", "0x1.f2e7fde86d2b8p+2"),
        ("-0x1.6b074df1e8f00p-8", "-0x1.18643cfc98e1ep-3", "0x1.41bbbcfd6b821p+3"),
        ("0x1.a0a41cde42838p-4", "-0x1.77f45f2fdfd94p-4", "0x1.492c55b4a4c26p+3"),
        ("0x1.5018b3428677cp+0", "-0x1.73c39f15f60bcp-2", "0x1.91e961a47c2e6p+4"),
        ("0x1.c18ba96c507fbp+1", "-0x1.6e2d6fd1514b0p-3", "0x1.69484408c9a66p+8"),
    ],
    "dip": [
        ("-0x1.e0eb2873d207cp-7", "-0x1.563d75d8e158fp-6", "-0x1.091fc1689e2bep-1"),
        ("-0x1.28a80b2eb45ccp-4", "-0x1.405f33c19d1d6p-3", "-0x1.03c3250d59e16p+2"),
        ("-0x1.eb380038aa020p-6", "-0x1.1f23f63a97bb2p-3", "-0x1.bb910690ff4d4p+1"),
        ("0x1.eb2eb49aa2a40p-5", "-0x1.9b711effc0718p-4", "-0x1.270c6f338cf3cp+2"),
        ("0x1.614009f29a489p-1", "-0x1.77197d238d34cp-2", "-0x1.0aaf59ef0abcep+4"),
        ("0x1.f358d741c57b8p-2", "-0x1.78729e8b49056p+0", "-0x1.c3ce546c16d50p+7"),
    ],
    "peak-under-dip": [
        ("-0x1.aa01016e22091p-7", "-0x1.39de3350152c0p-6", "0x1.004362fc88735p+2"),
        ("0x1.0cc923e155430p-3", "-0x1.1aa1474443440p-3", "0x1.8b2efb75bae5cp+7"),
        ("0x1.22bab2e91840ep-2", "-0x1.824dfed681811p-4", "0x1.c122e293a5954p+7"),
        ("0x1.1f2dec8ab5c28p-1", "0x1.e2a9068c86400p-10", "0x1.f00d63e0d9df0p+7"),
        ("0x1.304c536c7bf50p+3", "-0x1.2c0aa0e210c44p-2", "0x1.60074321f91d6p+9"),
        ("0x1.8a62ddb8035cbp+5", "0x1.4bd159343a614p+4", "0x1.334a77545760ep+13"),
    ],
}


def _dense_loglike(x, model, dt):
    sigma = toeplitz(target_autocovariance(model, np.arange(x.size) * dt, dt))
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    quad = x @ np.linalg.solve(sigma, x)
    return -0.5 * (x.size * np.log(2 * np.pi) + logdet + quad)


def _dense_y(x, pair, dt):
    return _dense_loglike(x, pair.null_model, dt) - _dense_loglike(x, pair.alt_model, dt)


def _dense_record(model, z, dt):
    return np.linalg.cholesky(toeplitz(target_autocovariance(model, np.arange(z.size) * dt, dt))) @ z


def _brute_force_search(yf, ya, p):
    """The threshold search's oracle: every distinct level scored one at a
    time by the decision rule, returning (feasible, the largest level that
    reaches the least worst rate, that rate)."""
    levels = np.unique(np.concatenate([np.abs(yf), np.abs(ya), [0.0]]))
    worst = []
    for level in levels:
        _, wrong_flat, none_flat = detect._verdict_rates(yf, level)
        wrong_alt, _, none_alt = detect._verdict_rates(ya, level)
        worst.append(max(wrong_flat, none_flat, wrong_alt, none_alt))
    best = min(worst)
    return best <= p, float(max(v for v, w in zip(levels, worst) if w == best)), best


# Y ensembles with heavy ties: small integers, one-decimal roundings, and
# signed zeros, 1 to 300 values
_TIED_VALUES = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),
    st.sampled_from([0.0, -0.0]),
)
_ENSEMBLES = st.lists(_TIED_VALUES, min_size=1, max_size=300).map(np.array)


class TestPairAndDecide:
    def test_null_must_be_flat(self):
        with pytest.raises(ConfigError):
            HypothesisPair(PEAK, DIP)

    def test_alt_must_be_featured(self):
        with pytest.raises(ConfigError):
            HypothesisPair(FLAT, BasebandModel("flat"))

    def test_decide_trivials(self):
        # Y > y_th is a QM verdict and Y < -y_th an SN verdict, correct under
        # the flat truth and under the featured truth respectively
        for truth in (FLAT, DIP):
            y = y_ensemble(truth, PAIR_DIP, 50.0, 0.14, 300, master_seed=9)
            rep = outcome_probs(truth, PAIR_DIP, 50.0, 0.14, 1.0, 300, master_seed=9)
            qm, sn = np.count_nonzero(y > 1.0) / 300, np.count_nonzero(y < -1.0) / 300
            assert (rep.p_correct, rep.p_wrong) == ((qm, sn) if truth is FLAT else (sn, qm))
            assert 0 < qm and 0 < sn and qm + sn < 1

    def test_boundary_is_indecision(self):
        # a threshold equal to a realised |Y| leaves that trial undecided,
        # since |Y| = y_th is neither Y > y_th nor Y < -y_th; just below it,
        # that one trial is decided
        for truth in (FLAT, DIP):
            y_th = float(np.abs(y_ensemble(truth, PAIR_DIP, 50.0, 0.14, 300, master_seed=8)).max())
            at = outcome_probs(truth, PAIR_DIP, 50.0, 0.14, y_th, 300, master_seed=8)
            assert at.p_indecision == 1.0
            below = outcome_probs(truth, PAIR_DIP, 50.0, 0.14, np.nextafter(y_th, 0.0), 300, master_seed=8)
            assert below.p_indecision == 299 / 300


class TestLogLikelihood:
    def test_flat_closed_form(self):
        s = gen_baseband(FLAT, 50.0, 0.14, seed=3)
        n, dt = s.n, s.dt
        expected = -0.5 * n * math.log(2 * math.pi / dt) - 0.5 * dt * np.sum(s.samples**2)
        assert log_likelihood(s, FLAT) == pytest.approx(expected, rel=1e-14)

    def test_two_sample_dense_oracle(self):
        s = BasebandSeries(0.14, np.array([0.7, -1.3]), 0, "x")
        ll = log_likelihood(s, PEAK)
        assert ll == pytest.approx(_dense_loglike(s.samples, PEAK, 0.14), rel=1e-12)

    @pytest.mark.parametrize("model", [PEAK, DIP])
    def test_dense_oracle_n64(self, model):
        s = gen_baseband(model, 64 * 0.14, 0.14, seed=8)
        ll = log_likelihood(s, model)
        assert ll == pytest.approx(_dense_loglike(s.samples, model, 0.14), rel=1e-12)

    def test_cross_model_dense_oracle(self):
        # record drawn under one law, scored under the other
        s = gen_baseband(FLAT, 64 * 0.14, 0.14, seed=9)
        ll = log_likelihood(s, DIP)
        assert ll == pytest.approx(_dense_loglike(s.samples, DIP, 0.14), rel=1e-12)

    @pytest.mark.parametrize("model,dt,n", ORACLE_GRID)
    def test_dense_oracle_grid(self, model, dt, n):
        # a white record scored under the featured law, across the grid
        x = np.random.default_rng(n).standard_normal(n) / math.sqrt(dt)
        ll = log_likelihood(BasebandSeries(dt, x, 0, "x"), model)
        assert ll == pytest.approx(_dense_loglike(x, model, dt), rel=1e-12)

    def test_unresolved_model_rejected(self):
        s = BasebandSeries(0.6, np.zeros(16) + 0.1, 0, "x")
        with pytest.raises(ConfigError):
            log_likelihood(s, PEAK)

    # float.hex of the exact log-likelihood of a record drawn under each
    # featured law (seed 31, dt 0.14) and scored under that law
    FROZEN = {
        ("dip", 1429): "-0x1.a82e8c6d0706ap+11",
        ("dip", 6006): "-0x1.c151b9a48752cp+13",
        ("peak", 1429): "-0x1.b90b0155243b4p+11",
        ("peak", 6006): "-0x1.d3059b5d69e3fp+13",
    }

    @pytest.mark.parametrize("kind,n", list(FROZEN))
    def test_frozen_bits(self, kind, n):
        model = {"dip": DIP, "peak": PEAK}[kind]
        s = gen_baseband(model, n * 0.14, 0.14, seed=31)
        assert s.n == n
        assert log_likelihood(s, model).hex() == self.FROZEN[kind, n]

    def test_zero_amplitude_alt_gives_exactly_zero_y(self):
        s = gen_baseband(FLAT, 100.0, 0.14, seed=12)
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=0.0, fwhm_gamma=1.0))
        assert estimator_y(s, pair) == 0.0


class TestWhittle:
    def test_flat_reduces_to_closed_form(self):
        s = gen_baseband(FLAT, 50.0, 0.14, seed=3)
        assert whittle_log_likelihood(s, FLAT) == pytest.approx(log_likelihood(s, FLAT), rel=1e-14)

    @staticmethod
    def _pooled_ratio(n):
        # RMS of the Y deviation over 100 records, half per truth, against
        # the RMS of Y itself: the deviation is an O(1) end-of-record
        # effect, so pointwise ratios blow up on records that land near
        # Y = 0 while the ensemble ratio shrinks like 1/N
        dt = 0.14
        ys, dys = [], []
        for seed, truth in ((42, DIP), (43, FLAT)):
            xs = gen_ensemble(truth, n * dt, dt, master_seed=seed, n_trials=50)
            for row in xs:
                s = BasebandSeries(dt, row, 0, "x")
                y_exact = estimator_y(s, PAIR_DIP)
                dys.append(estimator_y(s, PAIR_DIP, method="whittle") - y_exact)
                ys.append(y_exact)
        ys, dys = np.asarray(ys), np.asarray(dys)
        return float(np.sqrt(np.mean(dys**2) / np.mean(ys**2)))

    def test_against_exact_on_hundred_trials(self):
        assert self._pooled_ratio(2857) <= 0.05

    def test_shorter_records_degrade_gracefully(self):
        # at the reference 200/gamma record the pooled deviation measures
        # about 6%, a regression bound rather than a design target
        assert self._pooled_ratio(1429) <= 0.08

    def test_quadratic_form_error_scales_as_one_over_n(self):
        n, dt = 512, 0.14
        sigma = toeplitz(target_autocovariance(DIP, np.arange(n) * dt, dt))
        inv = np.linalg.inv(sigma)
        theta = 2 * np.pi * np.arange(n) / n
        rho = math.exp(-DIP.fwhm_gamma * dt / 2)
        s = -DIP.amplitude * DIP.fwhm_gamma / 4
        f = 1 / dt + s * (1 - rho**2) / (1 - 2 * rho * np.cos(theta) + rho**2)
        xs = gen_ensemble(DIP, n * dt, dt, master_seed=44, n_trials=20)
        for x in xs:
            q_exact = x @ inv @ x
            q_w = float(np.sum(np.abs(np.fft.fft(x)) ** 2 / n / f))
            assert abs(q_w - q_exact) / q_exact < 10.0 / n

    # float.hex of the Whittle log-likelihood of a record drawn under each
    # featured law (seed 31, dt 0.14) and scored under that law
    FROZEN = {
        ("dip", 300): "-0x1.64319a72b4ebbp+9",
        ("dip", 1429): "-0x1.a82d7683c8b54p+11",
        ("peak", 300): "-0x1.72564a4e0f98fp+9",
        ("peak", 1429): "-0x1.b905c4775c379p+11",
    }

    @pytest.mark.parametrize("kind,n", list(FROZEN))
    def test_frozen_bits(self, kind, n):
        model = {"dip": DIP, "peak": PEAK}[kind]
        s = gen_baseband(model, n * 0.14, 0.14, seed=31)
        assert s.n == n
        assert whittle_log_likelihood(s, model).hex() == self.FROZEN[kind, n]

    def test_unknown_method_rejected(self):
        s = gen_baseband(FLAT, 50.0, 0.14, seed=3)
        with pytest.raises(ConfigError):
            estimator_y(s, PAIR_DIP, method="fastest")


class TestEngine:
    def test_engine_matches_single_series_path(self):
        # the batched engine, the per-series likelihood and the dense
        # Cholesky route are three routes to the same number
        n, dt = 300, 0.14
        ys = y_ensemble(DIP, PAIR_DIP, n * dt, dt, 5, master_seed=7)
        z = normals(7, (), n, 0, 5)
        for i in range(5):
            x = _dense_record(DIP, z[:, i], dt)
            s = BasebandSeries(dt, x, 0, "x")
            assert ys[i] == pytest.approx(estimator_y(s, PAIR_DIP), rel=1e-10)
            assert ys[i] == pytest.approx(_dense_y(x, PAIR_DIP, dt), rel=1e-10)

    def test_flat_truth_matches_generator(self):
        n, dt = 200, 0.14
        ys = y_ensemble(FLAT, PAIR_DIP, n * dt, dt, 3, master_seed=11)
        z = normals(11, (), n, 0, 3)
        for i in range(3):
            s = BasebandSeries(dt, z[:, i] / np.sqrt(dt), 0, "x")
            assert ys[i] == pytest.approx(estimator_y(s, PAIR_DIP), rel=1e-10)
            assert ys[i] == pytest.approx(_dense_y(s.samples, PAIR_DIP, dt), rel=1e-10)

    @pytest.mark.parametrize("truth,pair", [(PEAK, PAIR_DIP), (DIP, PAIR_PEAK)])
    def test_featured_truth_other_than_alt_matches_dense(self, truth, pair):
        # records coloured by the truth's factor, whitened by the alt's
        n, dt = 300, 0.14
        ys = y_ensemble(truth, pair, n * dt, dt, 4, master_seed=13)
        z = normals(13, (), n, 0, 4)
        for i in range(4):
            x = _dense_record(truth, z[:, i], dt)
            assert ys[i] == pytest.approx(_dense_y(x, pair, dt), rel=1e-10)

    @pytest.mark.parametrize("truth", [FLAT, DIP, PEAK])
    def test_chunks_are_sized_by_samples(self, truth):
        # 2048 trials of 8192 samples stream through tiles of 16 x 2048
        # samples, 256 kB per array; only the factors (64 kB per array)
        # grow with the record, where one (n, chunk) array would be 128 MB
        tracemalloc.start()
        try:
            y_ensemble(truth, PAIR_DIP, 8192 * 0.14, 0.14, 2048, master_seed=18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("truth", [FLAT, DIP])
    def test_memory_stays_linear_in_record_length(self, truth):
        # a dense factor at n = 8192 alone would be 537 MB; the batch of
        # 64 records is 4 MB per array
        tracemalloc.start()
        try:
            y_ensemble(truth, PAIR_DIP, 8192 * 0.14, 0.14, 64, master_seed=17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("truth", [FLAT, DIP])
    def test_results_independent_of_jobs(self, truth):
        # 4100 trials is past the two-chunk threshold, so jobs=2 really
        # splits the run across worker processes
        dt = 0.14
        one = y_ensemble(truth, PAIR_DIP, 64 * dt, dt, 4100, master_seed=19, jobs=1)
        two = y_ensemble(truth, PAIR_DIP, 64 * dt, dt, 4100, master_seed=19, jobs=2)
        assert np.array_equal(one, two)
        assert np.array_equal(one[:7], y_ensemble(truth, PAIR_DIP, 64 * dt, dt, 7, master_seed=19))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_needs_a_worker(self, jobs):
        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            y_ensemble(DIP, PAIR_DIP, 14.0, 0.14, 100, master_seed=0, jobs=jobs)
        with pytest.raises(ConfigError, match="jobs"):
            outcome_probs(DIP, PAIR_DIP, 14.0, 0.14, 1.0, 100, master_seed=0, jobs=jobs)

    @pytest.mark.parametrize("truth", [FLAT, DIP])
    def test_one_trial_chunk_matches_wide_chunk(self, truth):
        # 4097 trials make the chunks [0, 2048), [2048, 4096) and
        # [4096, 4097), so trial 4096 is alone in its chunk, and two jobs
        # take the pool; a column sum of an (n, 1) block used to round
        # differently from the same column inside a wider block
        dt = 0.14
        one = y_ensemble(truth, PAIR_DIP, 300 * dt, dt, 4097, master_seed=3, jobs=1)
        two = y_ensemble(truth, PAIR_DIP, 300 * dt, dt, 4097, master_seed=3, jobs=2)
        assert np.array_equal(one, two)
        assert np.array_equal(one[:1], y_ensemble(truth, PAIR_DIP, 300 * dt, dt, 1, master_seed=3))

    @pytest.mark.parametrize("n", [1, 2, 255, 1429, 6006, 8192, 2**22, 2**23])
    def test_chunks_hold_whole_blocks(self, n):
        # a chunk spans whole blocks, and its tiles are C-contiguous, at
        # most _TILE_ROWS rows by one column per trial of the chunk,
        # whatever the record length
        assert detect._CHUNK_TRIALS % TRIAL_BLOCK == 0
        k, z = next(synth._tiles(0, (), n, 0, detect._CHUNK_TRIALS))
        assert k == 0 and z.shape == (min(n, synth._TILE_ROWS), detect._CHUNK_TRIALS)
        assert z.flags.c_contiguous

    def test_results_independent_of_chunk_size(self, monkeypatch):
        # 4099 trials in one-block chunks, one partial block at the end,
        # against the default eight-block chunks
        dt = 0.14
        wide = y_ensemble(DIP, PAIR_DIP, 40 * dt, dt, 4099, master_seed=23)
        monkeypatch.setattr(detect, "_CHUNK_TRIALS", TRIAL_BLOCK)
        assert np.array_equal(wide, y_ensemble(DIP, PAIR_DIP, 40 * dt, dt, 4099, master_seed=23))

    @pytest.mark.parametrize("rows", [1, 3, 10**6])
    def test_results_independent_of_tile_length(self, monkeypatch, rows):
        # one-row tiles, tiles whose edges miss every tile edge of the
        # default, and one tile longer than the record
        dt, truths = 0.14, (FLAT, DIP, PEAK)
        tables = [detect._y_table(DIP, ((t, (1,)),), _FROZEN_NS, dt, 300, 5, 1)[0] for t in truths]
        z = normals(5, (1,), 300, 100, 300)
        monkeypatch.setattr(synth, "_TILE_ROWS", rows)
        for truth, table in zip(truths, tables):
            assert np.array_equal(detect._y_table(DIP, ((truth, (1,)),), _FROZEN_NS, dt, 300, 5, 1)[0], table)
        assert np.array_equal(normals(5, (1,), 300, 100, 300), z)

    def test_nested_pass_independent_of_jobs(self):
        # a nested pass split across two workers, cut at a block boundary
        dt, ns = 0.14, [3, 20, 64]
        one = detect._y_table(DIP, ((PEAK, (0,)),), ns, dt, 4099, 8, 1)[0]
        two = detect._y_table(DIP, ((PEAK, (0,)),), ns, dt, 4099, 8, 2)[0]
        assert np.array_equal(one, two)
        short = detect._y_table(DIP, ((PEAK, (0,)),), [20], dt, 300, 8, 1)[0, 0]
        assert np.array_equal(one[1, :300], short)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("pass_, laws", [
        (lambda jobs: detect._nested_rows(PAIR_DIP, [3, 20], 0.14, 4099, 8, jobs), [DIP]),
        (lambda jobs: detect._nested_rows(PAIR_PEAK, [20], 0.14, 4099, 8, jobs), [PEAK]),
        (lambda jobs: y_ensemble(FLAT, PAIR_DIP, 20 * 0.14, 0.14, 4099, 8, jobs), [DIP]),
        (lambda jobs: y_ensemble(PEAK, PAIR_DIP, 20 * 0.14, 0.14, 4099, 8, jobs), [DIP, PEAK]),
    ], ids=["nested-dip", "nested-peak", "flat-under-dip", "peak-under-dip"])
    def test_one_factor_per_featured_law(self, monkeypatch, jobs, pass_, laws):
        # a pass factors each featured law once, in the process that
        # dispatches its tasks, and never the flat law
        built = []

        def counting(model, n, dt):
            built.append(model)
            return synth.covariance_factor(model, n, dt)

        monkeypatch.setattr(detect, "covariance_factor", counting)
        pass_(jobs)
        assert built == laws

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_nested_pass_is_one_task_set(self, monkeypatch, jobs):
        # 4099 trials make three chunks per truth, the last a partial block:
        # the tasks of both truths share one pool, and the rows do not
        # depend on how many workers score them
        pools = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        ns = [3, 20, 64]
        one = detect._nested_rows(PAIR_DIP, ns, 0.14, 4099, 8, 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        many = detect._nested_rows(PAIR_DIP, ns, 0.14, 4099, 8, jobs)
        assert len(pools) == 1
        for n in ns:
            assert all(np.array_equal(a, b) for a, b in zip(one[n], many[n]))

    @pytest.mark.parametrize("truth,pair", [(FLAT, PAIR_DIP), (DIP, PAIR_DIP), (PEAK, PAIR_DIP),
                                            (DIP, PAIR_PEAK)])
    def test_nested_prefixes_equal_short_records(self, truth, pair):
        # one pass to 300 samples scores every prefix as its own record,
        # bit for bit
        dt, ns = 0.14, [2, 3, 50, 299, 300]
        table = detect._y_table(pair.alt_model, ((truth, (1,)),), ns, dt, 37, 4, 1)[0]
        assert table.shape == (len(ns), 37)
        for row, n in zip(table, ns):
            short = detect._y_table(pair.alt_model, ((truth, (1,)),), [n], dt, 37, 4, 1)[0, 0]
            assert np.array_equal(row, short)

    @pytest.mark.parametrize("name,truth", [("flat", FLAT), ("dip", DIP), ("peak-under-dip", PEAK)])
    def test_y_frozen_bit_for_bit(self, name, truth):
        table = detect._y_table(DIP, ((truth, (1,)),), _FROZEN_NS, 0.14, 300, 5, 1)[0]
        got = [(row[0].hex(), row[-1].hex(), math.fsum(row).hex()) for row in table]
        assert got == _FROZEN_Y[name]
        # a chunk that starts inside a block reads the same columns
        f_dip = synth.covariance_factor(DIP, 300, 0.14)
        colour = None if truth == FLAT else synth.covariance_factor(truth, 300, 0.14)
        rows = [n - 1 for n in _FROZEN_NS]
        lndet = np.cumsum(2.0 * np.log(f_dip.m) + math.log(0.14))[rows]
        batch = detect._y_batch(colour, None if truth == DIP else f_dip, rows, lndet, 0.14, 5, (1,), 100, 300)
        assert np.array_equal(batch, table[:, 100:])

    # the same pin for records past the dip factor's fixed point (k = 327):
    # float.hex of trial 0, trial 299 and the exact sum of Y at n = 1429
    # and n = 6006
    FROZEN_LONG = {
        "flat": [
            ("0x1.6dd9c1cdd9df0p+3", "0x1.c66a43e8084acp+2", "0x1.d52c4e5f029a3p+10"),
            ("0x1.402a5619ab440p+5", "0x1.1709bf7d4cda0p+5", "0x1.d55efdd531dd9p+12"),
        ],
        "dip": [
            ("-0x1.c33148a3ca280p-2", "-0x1.6313b23ddc1f8p+1", "-0x1.087903d453f2ep+10"),
            ("-0x1.d5aa9dcb4b000p+2", "-0x1.3bfb447575ec0p+3", "-0x1.2435af85079cbp+12"),
        ],
    }

    @pytest.mark.parametrize("name,truth", [("flat", FLAT), ("dip", DIP)])
    def test_long_records_frozen_bit_for_bit(self, name, truth):
        table = detect._y_table(DIP, ((truth, (1,)),), [1429, 6006], 0.14, 300, 5, 1)[0]
        got = [(row[0].hex(), row[-1].hex(), math.fsum(row).hex()) for row in table]
        assert got == self.FROZEN_LONG[name]

    def test_sign_of_ensemble_means(self):
        dur, dt = 200.0, 0.14
        yf = y_ensemble(FLAT, PAIR_DIP, dur, dt, 1000, master_seed=21)
        ya = y_ensemble(DIP, PAIR_DIP, dur, dt, 1000, master_seed=21)
        assert yf.mean() > 0
        assert ya.mean() < 0

    def test_two_modes_separated_roughly_gaussian(self):
        dur, dt = 200.0, 0.14
        yf = y_ensemble(FLAT, PAIR_DIP, dur, dt, 1000, master_seed=22)
        ya = y_ensemble(DIP, PAIR_DIP, dur, dt, 1000, master_seed=22)
        gap = yf.mean() - ya.mean()
        assert gap > max(yf.std(), ya.std())

        def skew(y):
            c = y - y.mean()
            return np.mean(c**3) / np.mean(c**2) ** 1.5

        # a single record's Y is noticeably right-skewed at this length
        # (measures about +0.55 under the flat truth); the near-Gaussian
        # statistic is the measurement's total, two quadratures per run
        yf2 = yf + y_ensemble(FLAT, PAIR_DIP, dur, dt, 1000, master_seed=23)
        ya2 = ya + y_ensemble(DIP, PAIR_DIP, dur, dt, 1000, master_seed=23)
        assert abs(skew(yf2)) < 0.5
        assert abs(skew(ya2)) < 0.5
        assert abs(skew(yf)) < 0.8
        assert abs(skew(ya)) < 0.8

    def test_median_abs_y_nondecreasing_in_duration(self):
        dt = 0.14
        meds = []
        for n in (179, 357, 714, 1429, 2857):
            ya = detect._y_table(DIP, ((DIP, (n,)),), [n], dt, 1000, 30, 1)[0, 0]
            meds.append(np.median(np.abs(ya)))
        assert all(b >= a for a, b in zip(meds, meds[1:]))

    def test_guards(self):
        with pytest.raises(ConfigError):
            y_ensemble(FLAT, PAIR_DIP, 0.14, 0.14, 10, 0)  # one sample
        with pytest.raises(ConfigError):
            y_ensemble(FLAT, PAIR_DIP, 100.0, -0.1, 10, 0)
        with pytest.raises(ConfigError):
            y_ensemble(FLAT, PAIR_DIP, 100.0, 0.14, 0, 0)
        with pytest.raises(ConfigError):
            y_ensemble(DIP, PAIR_DIP, 100.0, 0.7, 10, 0)  # unresolved feature

    def test_featureless_alternative_gives_exactly_zero_y(self):
        # the two laws coincide, so Y is zero in every trial, as estimator_y
        # gives it, under either truth; the settings are still checked
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=0.0, fwhm_gamma=1.0))
        for truth in (FLAT, pair.alt_model):
            y = y_ensemble(truth, pair, 14.0, 0.14, 100, 0)
            assert y.dtype == np.float64 and np.array_equal(y, np.zeros(100))
        with pytest.raises(ConfigError, match="master seed must be >= 0, got -1"):
            y_ensemble(FLAT, pair, 14.0, 0.14, 100, -1)
        with pytest.raises(ConfigError, match="n_trials"):
            y_ensemble(FLAT, pair, 14.0, 0.14, 0, 0)


class TestOutcomeProbs:
    def test_deterministic(self):
        a = outcome_probs(DIP, PAIR_DIP, 50.0, 0.14, 2.0, 500, master_seed=5)
        b = outcome_probs(DIP, PAIR_DIP, 50.0, 0.14, 2.0, 500, master_seed=5)
        assert a == b

    def test_sum_rule(self):
        rep = outcome_probs(FLAT, PAIR_DIP, 50.0, 0.14, 2.0, 777, master_seed=6)
        assert abs(rep.p_correct + rep.p_wrong + rep.p_indecision - 1.0) < 1e-12

    def test_degenerate_threshold_gives_indecision(self):
        for truth in (FLAT, DIP):
            rep = outcome_probs(truth, PAIR_DIP, 25.0, 0.14, 1e9, 500, master_seed=7)
            assert rep.p_indecision == 1.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            outcome_probs(FLAT, PAIR_DIP, 25.0, 0.14, -1.0, 100, master_seed=0)

    def test_verdict_table_quick(self):
        # the frozen verdict rates at the reference operating point,
        # checked here with a fifth of the full trial count (the full
        # 10^5-trial version lives in the acceptance suite)
        kw = dict(duration=200.0, dt=0.14, y_th=2.0, n_trials=20000)
        rep_d = outcome_probs(DIP, PAIR_DIP, master_seed=1000, **kw)
        assert rep_d.p_correct == pytest.approx(0.787, abs=0.015)
        assert rep_d.p_wrong == pytest.approx(0.011, abs=0.007)
        assert rep_d.p_indecision == pytest.approx(0.202, abs=0.015)
        rep_f = outcome_probs(FLAT, PAIR_DIP, master_seed=1000, **kw)
        assert rep_f.p_correct == pytest.approx(0.802, abs=0.015)
        assert rep_f.p_wrong == pytest.approx(0.021, abs=0.007)
        assert rep_f.p_indecision == pytest.approx(0.177, abs=0.015)

    # exact (correct, wrong, indecision) at the reference operating point:
    # Y is a weighted sum of chi-square variables whose weights come from
    # the eigenvalues of the dip covariance, and Imhof's inversion (Imhof
    # 1961, Biometrika 48:419) gives its distribution without Monte Carlo
    EXACT_RATES = {"dip": (0.78563, 0.01107, 0.20330), "flat": (0.80539, 0.02042, 0.17419)}

    @pytest.mark.parametrize("truth", [DIP, FLAT], ids=["dip", "flat"])
    def test_rates_match_the_exact_law(self, truth):
        # an oracle independent of the random stream: each rate within
        # four binomial standard errors of its exact value
        n = 20000
        rep = outcome_probs(truth, PAIR_DIP, 200.0, 0.14, 2.0, n, master_seed=1001)
        got = (rep.p_correct, rep.p_wrong, rep.p_indecision)
        for p_mc, p in zip(got, self.EXACT_RATES[truth.kind]):
            assert abs(p_mc - p) <= 4 * math.sqrt(p * (1 - p) / n), (got, p)

    def test_report_validation(self):
        with pytest.raises(DomainError):
            DecisionReport(0.5, 0.2, 0.2, 2.0, 100, 0)


class TestThresholdSearch:
    def test_well_separated_is_feasible(self):
        yf = np.linspace(4.0, 8.0, 50)
        ya = -np.linspace(4.0, 8.0, 50)
        ok, y_th, worst = threshold_search(yf, ya, 0.1)
        assert ok
        assert worst == 0.0
        assert 0.0 <= y_th < 4.0

    def test_overlapping_is_infeasible(self):
        rng = np.random.default_rng(0)
        yf = rng.standard_normal(400)
        ya = rng.standard_normal(400)
        ok, _, worst = threshold_search(yf, ya, 0.05)
        assert not ok
        assert worst > 0.05

    def test_symmetric_two_point_case(self):
        yf = np.array([1.0, -1.0])
        ya = np.array([-1.0, 1.0])
        ok, y_th, worst = threshold_search(yf, ya, 0.6)
        assert ok and y_th == 0.0 and worst == 0.5
        ok2, _, _ = threshold_search(yf, ya, 0.4)
        assert not ok2

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigError):
            threshold_search(np.zeros(4), np.zeros(4), 0.0)

    level_cases = pytest.mark.parametrize(
        "yf, ya",
        [
            ([1.0, -1.0, 2.0, -2.0, 0.0], [-1.0, 1.0, 0.0, 0.0, 3.0]),
            ([0.0, 0.0, -0.0], [0.0, -0.0]),
            ([5.0], [-5.0]),
            ([-1.0, 2.0, 3.0], [-2.0, -3.0, 1.0]),  # levels 0 and 1 tie at worst 1/3
            (np.round(np.random.default_rng(1).standard_normal(500), 1),
             np.round(np.random.default_rng(2).standard_normal(300) * 2, 1)),
        ],
        ids=["ties", "zeros", "single", "tied-minimum", "rounded-normals"],
    )

    @level_cases
    def test_search_matches_brute_force(self, yf, ya):
        yf, ya = np.asarray(yf, dtype=float), np.asarray(ya, dtype=float)
        assert threshold_search(yf, ya, 0.3) == _brute_force_search(yf, ya, 0.3)

    @settings(max_examples=200, deadline=None)
    @given(
        yf=_ENSEMBLES,
        ya=_ENSEMBLES,
        shape=st.sampled_from(["as drawn", "all zero", "identical", "mirrored"]),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_search_matches_brute_force_on_tied_ensembles(self, yf, ya, shape, p):
        if shape == "all zero":
            yf, ya = np.zeros(yf.size), -np.zeros(ya.size)
        elif shape == "identical":
            ya = yf.copy()
        elif shape == "mirrored":
            ya = -yf
        ok, y_th, worst = threshold_search(yf, ya, p)
        want_ok, want_y_th, want_worst = _brute_force_search(yf, ya, p)
        # bit for bit: the threshold is never a negative zero
        assert (ok, y_th.hex(), worst.hex()) == (want_ok, want_y_th.hex(), want_worst.hex())

    @pytest.mark.parametrize("yf, ya", [([], [1.0]), ([1.0], []), ([], [])])
    def test_empty_ensemble_rejected(self, yf, ya):
        with pytest.raises(ConfigError, match="at least one Y"):
            threshold_search(np.array(yf), np.array(ya), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("under", ["flat", "alt"])
    def test_non_finite_y_rejected(self, bad, under):
        # a NaN trial is undecided under the decision rule, yet a search
        # that sorts it last would score it as a level
        y = np.array([1.0, bad, -2.0])
        yf, ya = (y, np.array([-1.0])) if under == "flat" else (np.array([1.0]), y)
        with pytest.raises(DomainError, match="finite"):
            threshold_search(yf, ya, 0.1)

    # (feasible at p = 0.3, y_th, worst) per level case, as float.hex
    FROZEN_SEARCH = {
        "ties": (False, "0x0.0p+0", "0x1.999999999999ap-2"),
        "zeros": (False, "0x0.0p+0", "0x1.0000000000000p+0"),
        "single": (True, "0x0.0p+0", "0x0.0p+0"),
        "tied-minimum": (False, "0x1.0000000000000p+0", "0x1.5555555555555p-2"),
        "rounded-normals": (False, "0x1.999999999999ap-2", "0x1.999999999999ap-2"),
    }

    @level_cases
    def test_search_frozen(self, request, yf, ya):
        ok, y_th, worst = threshold_search(np.asarray(yf, dtype=float), np.asarray(ya, dtype=float), 0.3)
        assert (ok, y_th.hex(), worst.hex()) == self.FROZEN_SEARCH[request.node.callspec.id]

    # (n, feasible at p = 0.1, y_th, worst) on nested Monte Carlo ensembles,
    # y_th and worst as float.hex: both benchmark peak points at every
    # length their search probes (1e4 trials), and a dip pass (2000 trials)
    FROZEN_NESTED = {
        "peak-h30-seed0": [
            (16, False, "0x1.54e6d8a21cc6cp-1", "0x1.652bd3c361134p-3"),
            (24, False, "0x1.6f4e904c95928p-1", "0x1.fd21ff2e48e8ap-4"),
            (28, False, "0x1.79438dce71748p-1", "0x1.ad42c3c9eecc0p-4"),
            (29, False, "0x1.7dda991b92dc0p-1", "0x1.9c0ebedfa43fep-4"),
            (30, True, "0x1.7f848178521e0p-1", "0x1.87fcb923a29c7p-4"),
            (32, True, "0x1.7c56517e24dd8p-1", "0x1.72474538ef34dp-4"),
        ],
        "peak-h100-seed1": [
            (6, False, "0x1.772413cae194cp-1", "0x1.6b1c432ca57a8p-3"),
            (9, False, "0x1.7d429bd3c4748p-1", "0x1.09d495182a993p-3"),
            (11, False, "0x1.945f63ba4996cp-1", "0x1.bda5119ce075fp-4"),
            (12, False, "0x1.9e92f85a2bd58p-1", "0x1.9b3d07c84b5ddp-4"),
            (13, True, "0x1.a484bcc332efcp-1", "0x1.7a786c226809dp-4"),
        ],
        "dip-d0.62-seed0": [
            (357, False, "0x1.d5a2e95cc1760p-2", "0x1.83126e978d4fep-3"),
            (714, False, "0x1.f7cb1d24a0020p-2", "0x1.ccccccccccccdp-4"),
            (1429, True, "0x1.21d5dd97bc780p-1", "0x1.95810624dd2f2p-5"),
        ],
    }

    @pytest.mark.parametrize("name,alt,n_trials,seed", [
        ("peak-h30-seed0", BasebandModel("peak", amplitude=30.0, fwhm_gamma=1.0), 10000, 0),
        ("peak-h100-seed1", BasebandModel("peak", amplitude=100.0, fwhm_gamma=1.0), 10000, 1),
        ("dip-d0.62-seed0", DIP, 2000, 0),
    ])
    def test_search_frozen_on_nested_ensembles(self, name, alt, n_trials, seed):
        ns = [n for n, *_ in self.FROZEN_NESTED[name]]
        rows = detect._nested_rows(HypothesisPair(FLAT, alt), ns, 0.14, n_trials, seed, 1)
        got = []
        for n in ns:
            ok, y_th, worst = threshold_search(*rows[n], 0.10)
            got.append((n, ok, y_th.hex(), worst.hex()))
        assert got == self.FROZEN_NESTED[name]


class TestFitPrediction:
    def test_peak_frozen_values(self):
        assert fit_prediction("peak", 100.0, 1.0).coherence_times == pytest.approx(0.4681, rel=1e-3)
        assert fit_prediction("peak", 30.0, 1.0).coherence_times == pytest.approx(1.1273, rel=1e-3)
        # the single-quadrature twin of the h = 1000 point is 27/1000^0.73
        fp = fit_prediction("peak", 1000.0, 1.0)
        assert fp.coherence_times_unhalved == pytest.approx(0.1744, rel=1e-3)
        assert fp.coherence_times_unhalved == pytest.approx(27.0 / 1000.0**0.73, rel=1e-12)

    def test_dip_frozen_values(self):
        assert fit_prediction("dip", 0.62, 1.0).coherence_times == pytest.approx(30.349, rel=1e-3)
        assert fit_prediction("dip", 0.4, 1.0).coherence_times == pytest.approx(87.625, rel=1e-3)
        assert fit_prediction("dip", 0.8, 1.0).coherence_times == pytest.approx(15.219, rel=1e-3)

    def test_confidence_scaling_frozen(self):
        base = fit_prediction("dip", 0.62, 1.0, p=10.0).coherence_times
        assert fit_prediction("dip", 0.62, 1.0, p=5.0).coherence_times / base == pytest.approx(
            53.11 / 31.85, rel=2e-3
        )
        assert fit_prediction("dip", 0.62, 1.0, p=1.0).coherence_times / base == pytest.approx(
            110.29 / 31.85, rel=2e-3
        )

    def test_erfcinv_against_scipy(self):
        # every p from 0.01 % to 99.99 % in steps of 0.01 %
        y = np.arange(1, 10000) / 1e4
        got = np.array([_erfcinv(v) for v in y])
        np.testing.assert_allclose(got, erfcinv(y), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("amp, gamma", [(30.0, 1.0), (100.0, 0.25), (1000.0, 3.0)])
    def test_peak_closed_form_at_p10(self, amp, gamma):
        ct = 13.5 / amp**0.73
        fp = fit_prediction("peak", amp, gamma, p=10.0)
        assert fp.coherence_times == ct
        assert fp.coherence_times_unhalved == 2 * ct
        assert fp.seconds == ct * (2.0 / gamma)
        assert fp.seconds_unhalved == 2 * ct * (2.0 / gamma)

    @pytest.mark.parametrize("amp, gamma", [(0.4, 1.0), (0.62, 0.25), (0.8, 3.0)])
    def test_dip_closed_form_at_p10(self, amp, gamma):
        ct = 18.3 / amp**2 - 10.7 / amp
        fp = fit_prediction("dip", amp, gamma, p=10.0)
        assert fp.coherence_times == ct
        assert fp.coherence_times_unhalved == 2 * ct
        assert fp.seconds == ct * (2.0 / gamma)
        assert fp.seconds_unhalved == 2 * ct * (2.0 / gamma)

    def test_seconds_scale_with_gamma(self):
        a = fit_prediction("dip", 0.62, 1.0)
        b = fit_prediction("dip", 0.62, 4.0)
        assert a.seconds == pytest.approx(4 * b.seconds, rel=1e-12)
        assert a.seconds_unhalved == pytest.approx(2 * a.seconds, rel=1e-12)

    def test_warnings(self):
        assert fit_prediction("peak", 10.0, 1.0).warnings
        assert fit_prediction("peak", 11.0, 1.0).warnings == ()
        assert fit_prediction("dip", 0.95, 1.0).warnings
        assert fit_prediction("dip", 0.62, 1.0).warnings == ()

    @pytest.mark.parametrize("kind,amp,in_range", [
        ("peak", math.nextafter(10.0, 0.0), False),
        ("peak", 10.0, False),
        ("peak", math.nextafter(10.0, math.inf), True),
        ("dip", math.nextafter(0.9, 0.0), True),
        ("dip", 0.9, False),
    ])
    def test_warns_exactly_outside_the_fit_range(self, kind, amp, in_range):
        assert fit_in_range(kind, amp) is in_range
        assert bool(fit_prediction(kind, amp, 1.0).warnings) is (not in_range)

    def test_fit_range_refuses_other_kinds(self):
        with pytest.raises(ConfigError):
            fit_in_range("notch", 1.0)

    def test_warns_where_the_confidence_law_turns_back_up(self):
        # (2.94 - 7.38 erfcinv(p/100))^2 reaches 0 at p* = 100 erfc(2.94/7.38),
        # about 57.3 %, and grows again above it
        p_turn = 100.0 * math.erfc(2.94 / 7.38)
        assert 57.3 < p_turn < 57.4
        for p in (10.0, 50.0, 57.0, math.nextafter(p_turn, 0.0)):
            assert fit_prediction("dip", 0.62, 1.0, p=p).warnings == (), p
        at, above = (fit_prediction("dip", 0.62, 1.0, p=p) for p in (p_turn, 90.0))
        assert at.seconds < 1e-20 < fit_prediction("dip", 0.62, 1.0, p=50.0).seconds < above.seconds
        for p in (p_turn, math.nextafter(p_turn, 100.0), 60.0, 90.0):
            (warning,) = fit_prediction("dip", 0.62, 1.0, p=p).warnings
            assert "57.3%" in warning and "turns back up" in warning
        # the law's warning follows the fit's own
        assert fit_prediction("peak", 5.0, 1.0, p=90.0).warnings[1] == warning

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_prediction("notch", 1.0, 1.0)
        with pytest.raises(ConfigError):
            fit_prediction("dip", 0.62, 1.0, p=0.0)
        with pytest.raises(DomainError):
            fit_prediction("dip", 1.2, 1.0)
        with pytest.raises(DomainError):
            fit_prediction("peak", 0.0, 1.0)


class TestTauMin:
    def test_dip_reference_point(self):
        res = tau_min(PAIR_DIP, 0.10, dt_gamma=0.14, n_trials=2000, master_seed=50)
        assert isinstance(res, TauMinResult)
        # within 35% of the printed-fit expectation, in halved convention
        assert abs(res.tau_min_halved - res.fit_prediction) / res.fit_prediction < 0.35
        assert res.tau_min == pytest.approx(2 * res.tau_min_halved)
        assert res.tau_min == pytest.approx(res.n_samples * 0.14)
        assert res.y_th_used >= 0.0

    def test_big_peak_resolves_in_a_few_samples(self):
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=1000.0, fwhm_gamma=1.0))
        res = tau_min(pair, 0.10, dt_gamma=0.14, n_trials=1500, master_seed=51)
        assert 2 <= res.n_samples <= 10

    def test_deterministic(self):
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=1000.0, fwhm_gamma=1.0))
        a = tau_min(pair, 0.10, n_trials=500, master_seed=52)
        b = tau_min(pair, 0.10, n_trials=500, master_seed=52)
        assert a == b

    def test_bounded_search_failure(self):
        pair = HypothesisPair(FLAT, BasebandModel("dip", amplitude=0.15, fwhm_gamma=1.0))
        with pytest.raises(BoundedSearchError) as exc:
            tau_min(pair, 0.01, n_trials=400, master_seed=53, max_samples=64)
        diag = exc.value.diagnostics
        assert diag["max_samples"] == 64
        # every probe is infeasible, and the last one is the last doubling
        assert diag["probes"] and all(w > 0.01 for w in diag["probes"].values())
        assert max(diag["probes"]) == diag["last_infeasible"] <= 64

    def test_last_doubling_probes_max_samples(self):
        # the fit estimate, 3003 samples, fails and its double passes the
        # bound: the search probes max_samples itself before giving up
        res = tau_min(PAIR_DIP, 0.01, n_trials=2000, master_seed=0, max_samples=5000)
        assert [(n, ok) for n, ok, _, _ in res.probes[:2]] == [(3003, False), (5000, True)]
        assert 3003 < res.n_samples <= 5000

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_needs_a_trial(self, n_trials):
        with pytest.raises(ConfigError, match="n_trials"):
            tau_min(PAIR_PEAK, 0.10, n_trials=n_trials, master_seed=0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_needs_a_worker(self, jobs):
        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            tau_min(PAIR_PEAK, 0.10, n_trials=100, master_seed=0, jobs=jobs)

    def test_probe_trace_kept_out_of_the_report(self):
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=300.0, fwhm_gamma=1.0))
        res = tau_min(pair, 0.10, n_trials=400, master_seed=0)
        assert list(res.as_dict()) == [
            "tau_min", "tau_min_halved", "y_th_used", "confidence_p", "n_trials",
            "fit_prediction", "master_seed", "n_samples",
        ]
        ns = [n for n, *_ in res.probes]
        assert len(ns) == len(set(ns)) >= 2
        by_n = {n: (ok, y_th, worst) for n, ok, y_th, worst in res.probes}
        assert by_n[res.n_samples][0] and by_n[res.n_samples][1] == res.y_th_used
        # the shortest feasible probe is the answer, within 5% (or one
        # sample) of the longest infeasible one below it
        assert res.n_samples == min(n for n, (ok, _, _) in by_n.items() if ok)
        lo = max(n for n, (ok, _, _) in by_n.items() if not ok and n < res.n_samples)
        assert res.n_samples - lo <= max(1, int(0.05 * res.n_samples))
        for ok, _, worst in by_n.values():
            assert ok == (worst <= 0.10)

    def test_jobs_do_not_change_the_search(self):
        # 4100 trials split across two workers on every pass
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=300.0, fwhm_gamma=1.0))
        one = tau_min(pair, 0.10, n_trials=4100, master_seed=57, jobs=1)
        two = tau_min(pair, 0.10, n_trials=4100, master_seed=57, jobs=2)
        assert one == two

    # one stream per block of 256 trials and truth: 400 trials are 2 blocks
    SEEDS_PER_PASS = 2 * math.ceil(400 / 256)

    @staticmethod
    def _count_seeds(monkeypatch):
        made = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        return made

    def test_bracket_in_first_octave_draws_one_pass(self, monkeypatch):
        # the pass to the fit estimate records the halving chain and the
        # bisection tree of the octave below it
        made = self._count_seeds(monkeypatch)
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=300.0, fwhm_gamma=1.0))
        res = tau_min(pair, 0.10, n_trials=400, master_seed=0)
        oks = [ok for _, ok, _, _ in res.probes]
        assert oks[:2] == [True, False] and len(oks) > 2  # bracket below n0, then bisection
        assert [n for n, *_ in res.probes] == [6, 3, 4, 5]
        assert len(made) == self.SEEDS_PER_PASS

    def test_deeper_bracket_draws_a_second_pass(self, monkeypatch):
        made = self._count_seeds(monkeypatch)
        pair = HypothesisPair(FLAT, DIP)
        res = tau_min(pair, 0.40, n_trials=400, master_seed=0)
        oks = [ok for _, ok, _, _ in res.probes]
        assert oks[:3] == [True, True, True] and False in oks  # bracket three octaves down
        assert [n for n, *_ in res.probes] == [57, 28, 14, 7, 10, 12, 11]
        assert len(made) == 2 * self.SEEDS_PER_PASS

    def test_doubling_pass_records_its_bisection_tree(self, monkeypatch):
        made = self._count_seeds(monkeypatch)
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=10.0, fwhm_gamma=1.0))
        # seed 1: at seed 0 the contract-3 draws make the fit estimate feasible
        res = tau_min(pair, 0.10, n_trials=400, master_seed=1)
        oks = [ok for _, ok, _, _ in res.probes]
        assert oks[:2] == [False, True] and len(oks) > 2  # one doubling, then bisection
        assert [n for n, *_ in res.probes] == [72, 144, 108, 90, 81, 85, 87]
        assert len(made) == 2 * self.SEEDS_PER_PASS

    # the full probe traces of the three pass-count runs above, (n,
    # feasible, y_th, worst) with y_th and worst as float.hex
    FROZEN_PROBES = {
        "first-octave": [
            (6, True, "0x1.48b36923e7f94p-1", "0x1.47ae147ae147bp-4"),
            (3, False, "0x1.9c28950d616d2p-1", "0x1.23d70a3d70a3dp-3"),
            (4, False, "0x1.ba5c094ececb4p-1", "0x1.d70a3d70a3d71p-4"),
            (5, True, "0x1.7fe505677ddb4p-1", "0x1.851eb851eb852p-4"),
        ],
        "deeper-bracket": [
            (57, True, "0x1.b8271a8eb84acp-3", "0x1.5c28f5c28f5c3p-2"),
            (28, True, "0x1.35d33ce26dc36p-3", "0x1.947ae147ae148p-2"),
            (14, True, "0x1.8eb74529def70p-4", "0x1.999999999999ap-2"),
            (7, False, "0x1.779ca8e5b7882p-5", "0x1.9c28f5c28f5c3p-2"),
            (10, False, "0x1.1002ee805bf7ap-4", "0x1.9c28f5c28f5c3p-2"),
            (12, True, "0x1.3b9a698a7d1cbp-4", "0x1.947ae147ae148p-2"),
            (11, False, "0x1.1f8847cfdba08p-4", "0x1.9c28f5c28f5c3p-2"),
        ],
        "doubling": [
            (72, False, "0x1.5e492502046a0p-1", "0x1.eb851eb851eb8p-4"),
            (144, True, "0x1.e0d7d75504630p-1", "0x1.5c28f5c28f5c3p-5"),
            (108, True, "0x1.d6c73e44895f0p-1", "0x1.1eb851eb851ecp-4"),
            (90, True, "0x1.9b814bd44fbb0p-1", "0x1.851eb851eb852p-4"),
            (81, False, "0x1.777eb69c85a18p-1", "0x1.b851eb851eb85p-4"),
            (85, False, "0x1.b60f3177533c0p-1", "0x1.a3d70a3d70a3dp-4"),
            (87, False, "0x1.b56de890c97b8p-1", "0x1.a3d70a3d70a3dp-4"),
        ],
    }

    @pytest.mark.parametrize("name,alt,p,seed", [
        ("first-octave", BasebandModel("peak", amplitude=300.0, fwhm_gamma=1.0), 0.10, 0),
        ("deeper-bracket", DIP, 0.40, 0),
        ("doubling", BasebandModel("peak", amplitude=10.0, fwhm_gamma=1.0), 0.10, 1),
    ])
    def test_probe_traces_frozen(self, name, alt, p, seed):
        res = tau_min(HypothesisPair(FLAT, alt), p, n_trials=400, master_seed=seed)
        got = [(n, ok, y_th.hex(), worst.hex()) for n, ok, y_th, worst in res.probes]
        assert got == self.FROZEN_PROBES[name]

    def test_one_stream_per_block_of_trials(self, monkeypatch):
        # one nested pass over 1e4 trials seeds 2 truths x 40 blocks, not 2e4 trials
        made = self._count_seeds(monkeypatch)
        detect._nested_rows(PAIR_PEAK, [2, 3], 0.14, 10000, 0, 1)
        assert len(made) == 2 * 40

    @pytest.mark.parametrize("max_samples", [1, 0])
    def test_needs_two_samples(self, max_samples):
        with pytest.raises(ConfigError, match="max_samples"):
            tau_min(PAIR_PEAK, 0.10, n_trials=100, master_seed=0, max_samples=max_samples)

    def test_validation(self):
        with pytest.raises(ConfigError):
            tau_min(PAIR_DIP, 1.5, n_trials=100)
        with pytest.raises(ConfigError):
            tau_min(PAIR_DIP, 0.1, dt_gamma=0.9, n_trials=100)
        pair0 = HypothesisPair(FLAT, BasebandModel("peak", amplitude=0.0, fwhm_gamma=1.0))
        with pytest.raises(DomainError):
            tau_min(pair0, 0.1, n_trials=100)


def _fake_search(n_star: int, n0: int, max_samples: int):
    """The duration search on the oracle "feasible iff n >= n_star".

    Returns (n, probes) or the BoundedSearchError, and the (n, record)
    of every call to the oracle in order.
    """
    calls = []

    def score(n, record):
        calls.append((n, tuple(record)))
        return n >= n_star, 0.0, 0.0 if n >= n_star else 1.0

    try:
        return detect._shortest_feasible(score, n0, max_samples, 0.1), calls
    except BoundedSearchError as exc:
        return exc, calls


class TestShortestFeasible:
    """The duration search alone, on a monotone fake oracle: no Monte Carlo."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_search_on_a_monotone_oracle(self, data):
        max_samples = data.draw(st.integers(2, 9000), label="max_samples")
        n0 = data.draw(st.integers(2, max_samples), label="n0")
        n_star = data.draw(st.integers(1, 9000), label="n_star")
        result, calls = _fake_search(n_star, n0, max_samples)
        ns = [n for n, _ in calls]
        assert len(ns) == len(set(ns)), "a length probed twice"
        assert ns[0] == n0 and all(2 <= n <= max_samples for n in ns)

        # raised exactly when max_samples itself fails, after probing it
        assert isinstance(result, BoundedSearchError) == (n_star > max_samples)
        if isinstance(result, BoundedSearchError):
            diag = result.diagnostics
            assert diag["last_infeasible"] == max_samples == ns[-1]
            assert list(diag["probes"]) == ns
            return
        n, probes = result
        assert list(probes) == ns
        assert probes[n][0] and n >= n_star
        assert n == min(m for m, (ok, _, _) in probes.items() if ok)
        # one sample scores nothing: 1 stands for the infeasible floor
        lo = max([1] + [m for m, (ok, _, _) in probes.items() if not ok and m < n])
        assert n - lo <= max(1, int(0.05 * n))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_pass_per_bracket(self, data):
        max_samples = data.draw(st.integers(2, 9000), label="max_samples")
        n0 = data.draw(st.integers(2, max_samples), label="n0")
        n_star = data.draw(st.integers(1, max_samples), label="n_star")
        _, calls = _fake_search(n_star, n0, max_samples)
        # an oracle that scores a probe and its hint in one pass, whenever
        # the probe is not in its last pass, makes one pass for the first
        # probe, one per doubling probe, and at most one more for a bracket
        # found below the first octave; every other probe is in the pass
        cached, passes = set(), []
        for n, record in calls:
            if n not in cached:
                cached = {n, *record}
                passes.append(n)
        ns = [n for n, _ in calls]
        if n0 < n_star:
            top = next(k for k, n in enumerate(ns) if n >= n_star)  # the last doubling
            assert all(ns[k] == min(2 * ns[k - 1], max_samples) for k in range(1, top + 1))
            assert passes == ns[: top + 1]
        else:
            assert passes[0] == n0 and len(passes) <= 2
            assert all(n < max(2, n0 // 2) for n in passes[1:])

    def test_calls_only_its_oracle(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the search reached the Monte Carlo layer")

        for name in ("_nested_rows", "_y_table", "_y_batch", "threshold_search", "covariance_factor"):
            monkeypatch.setattr(detect, name, forbidden)
        for n_star, n0 in [(5, 300), (700, 40), (3000, 8192), (9000, 8192)]:
            _, calls = _fake_search(n_star, n0, 8192)
            assert calls


class TestDurationSweep:
    """One nested pass per truth scores several durations, as the search does."""

    def test_rows_are_consistent(self):
        ns = [357, 714, 1071]
        ys = detect._nested_rows(PAIR_DIP, ns, 0.14, 800, 60, 1)
        worsts = []
        for n in ns:
            yf, ya = ys[n]
            ok, y_th, worst = threshold_search(yf, ya, 0.10)
            _, wrong_flat, none_flat = detect._verdict_rates(yf, y_th)
            wrong_alt, _, none_alt = detect._verdict_rates(ya, y_th)
            four = [wrong_flat, none_flat, wrong_alt, none_alt]
            assert worst == pytest.approx(max(four), abs=1e-12)
            assert ok == (worst <= 0.10)
            worsts.append(worst)
        # more data cannot make the best achievable worst-rate larger
        assert worsts[2] <= worsts[0] + 0.02

    def test_rows_equal_the_search_probes(self):
        # a nested pass over the probed lengths scores the search's records
        pair = HypothesisPair(FLAT, BasebandModel("peak", amplitude=30.0, fwhm_gamma=1.0))
        res = tau_min(pair, 0.10, n_trials=500, master_seed=61)
        ys = detect._nested_rows(pair, [n for n, *_ in res.probes], 0.14, 500, 61, 1)
        for n, ok, y_th, worst in res.probes:
            assert threshold_search(*ys[n], 0.10) == (ok, y_th, worst)
