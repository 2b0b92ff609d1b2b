"""Release gate: one test per advertised guarantee, run with -v as a checklist.

Every number a README or report quotes is pinned here against the code that
produces it. The tests are ordered from table lookups (milliseconds) through
Monte Carlo scaling laws (minutes); the two heavy ones carry the slow marker
but still run by default. Criterion 7 is the fast property battery that is
meant to gate every build, so it asserts its own wall time.

All Monte Carlo entries are seeded and therefore bit-stable: the measured
numbers quoted in the comments are what these exact calls produce, not a
typical draw.
"""

import time

import numpy as np
import pytest

from snopto import feasibility as feas
from snopto import materials as mat
from snopto import spectra as sp
from snopto.constants import HBAR, K_B
from snopto.detect import (
    HypothesisPair,
    estimator_y,
    fit_prediction,
    outcome_probs,
    tau_min,
    y_ensemble,
)
from snopto.gaussian_dynamics import (
    GaussianState,
    ellipse_frequency,
    evolve_moments,
    mean_frequency,
)
from snopto.response import OscillatorConfig
from snopto.synth import (
    BasebandModel,
    BasebandSeries,
    gen_baseband,
    gen_ensemble,
    target_autocovariance,
)

# ---------------------------------------------------------------- criterion 1

# Published per-element gravitational trap frequencies (rad/s); the built-in
# material table must reproduce each within 1 percent.
PUBLISHED_OMEGA_SN = {
    "W": 0.3592,
    "Os": 0.4879,
    "Pt": 0.2843,
    "Nb": 0.1386,
    "Ge": 0.1039,
    "Fe": 0.0990,
    "Si": 0.0495,
}


def test_criterion_1_material_table():
    worst = 0.0
    for name, published in PUBLISHED_OMEGA_SN.items():
        w = mat.omega_sn(mat.get_material(name))
        rel = abs(w / published - 1.0)
        worst = max(worst, rel)
        print(f"{name:>2}: omega_sn = {w:.6f} vs {published} ({100 * rel:.3f}%)")
        assert w == pytest.approx(published, rel=0.01), name
    print(f"worst deviation {100 * worst:.3f}% (limit 1%)")


# ---------------------------------------------------------------- criterion 2

# Undamped 200 g pendulum with the trap frequency a decade above the swing:
# the mean coasts at omega_cm while the uncertainty ellipse turns at omega_q.
DYN = OscillatorConfig(mass=0.2, omega_cm=2 * np.pi * 0.005, omega_sn=0.3592, gamma_m=0.0)


def test_criterion_2_two_frequency_dynamics():
    period_cm = 2 * np.pi / DYN.omega_cm
    period_q = 2 * np.pi / DYN.omega_q

    # frequency split, each rotation followed for 100 of its own cycles
    s0 = GaussianState.ground(DYN).squeezed(0.4).displaced(dx=1e-16)
    traj = evolve_moments(s0, DYN, 100 * period_cm, dt=period_q / 200)
    w_mean = mean_frequency(traj)
    w_ell = ellipse_frequency(traj, DYN)
    print(f"mean rotation    {w_mean:.6f} vs omega_cm {DYN.omega_cm:.6f}")
    print(f"ellipse rotation {w_ell:.6f} vs omega_q  {DYN.omega_q:.6f}")
    assert w_mean == pytest.approx(DYN.omega_cm, rel=1e-3)
    assert w_ell == pytest.approx(DYN.omega_q, rel=1e-3)

    # conserved energy (half weight on the trap potential) over 100 cycles
    s0e = GaussianState.ground(DYN).squeezed(0.5).displaced(dx=1e-16, dp=2e-18)
    traj_e = evolve_moments(s0e, DYN, 100 * period_q, dt=period_q / 5000, store_every=50)
    drift = np.abs(traj_e.energy / traj_e.energy[0] - 1.0).max()
    print(f"conserved-energy drift {drift:.2e} (limit 1e-9)")
    assert drift < 1e-9

    # negative control: full weight on the trap potential is not conserved
    # for a squeezed state, and the defect is far above integrator error
    s0c = GaussianState.ground(DYN).squeezed(0.5)
    traj_c = evolve_moments(s0c, DYN, 10 * period_q, dt=period_q / 1000, sn_weight=1.0)
    swing = np.abs(traj_c.energy / traj_c.energy[0] - 1.0).max()
    print(f"full-weight control swing {swing:.2e} (must exceed 1e-3)")
    assert swing > 1e-3


# ---------------------------------------------------------------- criterion 3


def _solved_osc(gamma_sq_target: float, gamma_m: float) -> OscillatorConfig:
    # Solve the bath temperature so that the thermal strength comes out at
    # the requested value; omega_cm = omega_sn/10 keeps the trap dominant.
    base = OscillatorConfig(mass=1.0, omega_cm=0.05, omega_sn=0.5, gamma_m=gamma_m)
    g2w2 = (base.gamma_m * base.omega_q) ** 2
    t0 = gamma_sq_target * HBAR * base.omega_q * (g2w2 + base.omega_sn**4) / (2 * K_B * g2w2)
    return OscillatorConfig(mass=1.0, omega_cm=0.05, omega_sn=0.5, gamma_m=gamma_m, t0=t0)


def test_criterion_3_feature_closed_forms():
    # gamma_m/omega_q = 2e-5, well inside the narrowband regime the closed
    # forms assume
    osc = _solved_osc(0.05, 1e-5)
    params = sp.SpectrumParams.from_beta(osc, 10.0)

    feat = sp.pre_feature(params)
    w = np.linspace(osc.omega_q - 150 * osc.gamma_m, osc.omega_q + 150 * osc.gamma_m, 16001)
    center, amp, fwhm, _ = sp.measure_feature(w, sp.s_pre_total(w, params), "peak")
    print(f"peak: center off {abs(center - feat.center) / osc.gamma_m:.3f} gamma_m, "
          f"amp rel {abs(amp / feat.amplitude - 1):.4f}, fwhm rel {abs(fwhm / feat.fwhm - 1):.4f}")
    assert abs(center - feat.center) < osc.gamma_m
    assert amp == pytest.approx(feat.amplitude, rel=0.03)
    assert fwhm == pytest.approx(feat.fwhm, rel=0.05)

    feat_d = sp.post_feature(params)
    w = np.linspace(feat_d.center - 40 * feat_d.fwhm, feat_d.center + 40 * feat_d.fwhm, 16001)
    center, amp, fwhm, _ = sp.measure_feature(w, sp.s_post_total(w, params), "dip")
    print(f"dip:  center off {abs(center - feat_d.center) / osc.gamma_m:.3f} gamma_m, "
          f"amp rel {abs(amp / feat_d.amplitude - 1):.4f}, fwhm rel {abs(fwhm / feat_d.fwhm - 1):.4f}")
    assert abs(center - feat_d.center) < osc.gamma_m
    assert amp == pytest.approx(feat_d.amplitude, rel=0.03)
    assert fwhm == pytest.approx(feat_d.fwhm, rel=0.05)

    # at the depth-optimal drive the dip bottoms out near 0.62 of baseline
    for g2 in (0.05, 0.01):
        osc_g = _solved_osc(g2, 1e-5)
        beta = feas.post_beta_opt(g2).value
        depth = sp.post_feature(sp.SpectrumParams.from_beta(osc_g, beta)).amplitude
        print(f"gamma_sq = {g2}: depth at optimal drive {depth:.4f}")
        assert depth == pytest.approx(0.62, abs=0.02)


# ---------------------------------------------------------------- criterion 4

FLAT = BasebandModel("flat")
DIP62 = BasebandModel("dip", amplitude=0.62, fwhm_gamma=1.0)
PAIR62 = HypothesisPair(FLAT, DIP62)


@pytest.mark.slow
def test_criterion_4_decision_rates():
    # reference decision problem: 0.62 dip, record of 200 coherence halves,
    # dt = 0.14, threshold 2, 1e5 trials per truth. measured at master seed
    # 0 (seed contract 3): dip truth (0.78591, 0.01107, 0.20302), flat
    # truth (0.80571, 0.01971, 0.17458)
    targets = {
        "dip": (DIP62, 0.787, 0.011, 0.202),
        "flat": (FLAT, 0.802, 0.021, 0.177),
    }
    for label, (truth, p_c, p_w, p_i) in targets.items():
        r = outcome_probs(truth, PAIR62, 200.0, 0.14, 2.0, 100000, 0)
        print(f"{label} truth: correct {r.p_correct:.5f} (target {p_c}), "
              f"wrong {r.p_wrong:.5f} (target {p_w}), "
              f"indecision {r.p_indecision:.5f} (target {p_i})")
        assert abs(r.p_correct - p_c) <= 0.010, label
        assert abs(r.p_wrong - p_w) <= 0.005, label
        assert abs(r.p_indecision - p_i) <= 0.010, label


# ---------------------------------------------------------------- criterion 5

# one tau_min search per unique (kind, amplitude, confidence) point; the
# d = 0.62 / p = 10 entry is shared between the depth and confidence sweeps
_TAU_POINTS: dict = {}


def _tau_ratio(kind: str, amp: float, p: float) -> float:
    key = (kind, amp, p)
    if key not in _TAU_POINTS:
        pair = HypothesisPair(FLAT, BasebandModel(kind, amp, 1.0))
        res = tau_min(pair, p / 100.0, n_trials=10000, master_seed=0)
        law = fit_prediction(kind, amp, 1.0, p).seconds
        _TAU_POINTS[key] = (res.tau_min_halved / law, res.n_samples)
    ratio, n = _TAU_POINTS[key]
    print(f"{kind} amp={amp} p={p}%: n_samples={n}, measured/law = {ratio:.4f}")
    return ratio


@pytest.mark.slow
def test_criterion_5_minimum_time_scaling():
    # measured ratios at master seed 0 (1e4 trials per point, nested
    # records of seed contract 3): peaks 0.93/0.97/1.20 for
    # h = 30/100/1000; dips 1.00/1.00/1.00 for d = 0.4/0.62/0.8;
    # confidence 1.00/1.06/1.13 for p = 10/5/1. the h = 1000 search
    # bottoms out at 3 samples per record, where the integer grid alone
    # contributes tens of percent.
    for h in (30.0, 100.0, 1000.0):
        assert 0.65 <= _tau_ratio("peak", h, 10.0) <= 1.35, f"h={h}"
    for d in (0.4, 0.62, 0.8):
        assert 0.65 <= _tau_ratio("dip", d, 10.0) <= 1.35, f"d={d}"
    for p in (10.0, 5.0, 1.0):
        assert 0.65 <= _tau_ratio("dip", 0.62, p) <= 1.35, f"p={p}"


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_feasibility_anchors():
    pre = feas.pre_report(feas.ExperimentConfig.reference_pre())
    print(f"pre:  tau {pre.tau_min_scaled / 3600:.3f} h, power {pre.input_power * 1e3:.1f} mW, "
          f"height {pre.peak_height_or_dip:.0f}")
    assert pre.tau_min_scaled == pytest.approx(1.6 * 3600, rel=0.05)
    assert pre.input_power == pytest.approx(0.432, rel=0.05)
    assert pre.peak_height_or_dip == pytest.approx(8235.0, rel=0.05)

    post = feas.post_report(feas.ExperimentConfig.reference_post())
    print(f"post: tau {post.tau_min_scaled / 86400:.3f} d, power {post.input_power * 1e9:.2f} nW, "
          f"coherence {post.coherence_time / 3600:.3f} h")
    assert post.tau_min_scaled == pytest.approx(13 * 86400, rel=0.05)
    assert post.input_power == pytest.approx(4.8e-9, rel=0.05)
    assert post.coherence_time == pytest.approx(5 * 3600, rel=0.05)

    for g2 in (0.01, 0.05):
        sweep = feas.optimize_beta(g2, 1.0)
        print(f"gamma_sq = {g2}: beta_opt*gamma_sq = {sweep.beta_opt * g2:.4f}, "
              f"tau*gamma_m/gamma_sq = {sweep.tau_min / g2:.1f}")
        assert 0.1 / g2 <= sweep.beta_opt <= 0.7 / g2
        assert sweep.tau_min <= 225 * g2


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_property_battery():
    t_start = time.monotonic()

    # theory reduction: with the trap frequency off, both modified
    # prescriptions collapse onto the baseline spectrum. The collapse is
    # exact up to the zero-point force term, whose share is bounded by
    # hbar|omega| / (2 k_B t0): with a 5 K bath it stays below 1e-11
    # across six decades of frequency and through the resonance.
    osc0 = OscillatorConfig(mass=1.0, omega_cm=0.5, omega_sn=0.0, gamma_m=1e-4, t0=5.0)
    params0 = sp.SpectrumParams.from_beta(osc0, 2.0)
    wq = osc0.omega_q
    w = np.unique(np.concatenate([
        np.geomspace(1e-3 * wq, 1e3 * wq, 2000),
        np.linspace(wq - 200 * osc0.gamma_m, wq + 200 * osc0.gamma_m, 2001),
    ]))
    w = np.concatenate([-w[::-1], w])
    base = sp.s_qm(w, params0)
    worst = max(
        np.max(np.abs(sp.s_pre_total(w, params0) / base - 1.0)),
        np.max(np.abs(sp.s_post_total(w, params0) / base - 1.0)),
    )
    print(f"reduction worst rel {worst:.2e} (limit 1e-10)")
    assert worst < 1e-10

    # evenness and positivity of every output spectrum
    osc = _solved_osc(0.05, 1e-3)
    params = sp.SpectrumParams.from_beta(osc, 10.0)
    w = np.linspace(1e-4, 2.0, 2000)
    for fn in (sp.s_qm, sp.s_pre_total, sp.s_post_total):
        plus, minus = fn(w, params), fn(-w, params)
        assert np.allclose(plus, minus, rtol=1e-12, atol=0.0), fn.__name__
        assert np.all(plus > 0.0), fn.__name__
    print("evenness and positivity hold for all three spectra")

    # generator ensemble autocovariance against the closed form, 1% of the
    # zero-lag value out to 20 lags
    model = BasebandModel("peak", amplitude=5.0, fwhm_gamma=1.0)
    dur, dt = 168.0, 0.14
    x = gen_ensemble(model, dur, dt, master_seed=200, n_trials=3000)
    n = x.shape[1]
    c0 = target_autocovariance(model, 0.0, dt=dt)
    worst_ac = 0.0
    for k in range(0, 21, 4):
        emp = np.mean(x[:, : n - k] * x[:, k:]) if k else np.mean(x**2)
        tgt = target_autocovariance(model, k * dt, dt=dt)
        worst_ac = max(worst_ac, abs(emp - tgt) / c0)
        assert abs(emp - tgt) < 0.01 * c0, f"lag {k}"
    print(f"autocovariance worst rel-to-c0 {worst_ac:.4f} (limit 0.01)")

    # exact versus Whittle likelihood ratio statistic: pooled RMS deviation
    # over 100 records of 2857 samples, half per truth
    ys, dys = [], []
    for seed, truth in ((42, DIP62), (43, FLAT)):
        xs = gen_ensemble(truth, 2857 * 0.14, 0.14, master_seed=seed, n_trials=50)
        for row in xs:
            s = BasebandSeries(0.14, row, 0, "x")
            y_exact = estimator_y(s, PAIR62)
            dys.append(estimator_y(s, PAIR62, method="whittle") - y_exact)
            ys.append(y_exact)
    ratio = float(np.sqrt(np.mean(np.asarray(dys) ** 2) / np.mean(np.asarray(ys) ** 2)))
    print(f"whittle pooled RMS ratio {ratio:.4f} (limit 0.05)")
    assert ratio <= 0.05

    # seeded bit-exact reproducibility at both the record and the decision
    # statistic level
    a = gen_baseband(DIP62, 100.0, 0.14, seed=7)
    b = gen_baseband(DIP62, 100.0, 0.14, seed=7)
    assert np.array_equal(a.samples, b.samples)
    ya = y_ensemble(FLAT, PAIR62, 50.0, 0.14, n_trials=16, master_seed=5)
    yb = y_ensemble(FLAT, PAIR62, 50.0, 0.14, n_trials=16, master_seed=5)
    assert np.array_equal(ya, yb)
    print("seeded reruns are bit-identical")

    elapsed = time.monotonic() - t_start
    print(f"battery wall time {elapsed:.1f} s (limit 60)")
    assert elapsed < 60.0
