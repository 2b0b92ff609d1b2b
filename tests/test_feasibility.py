"""Anchored scaling laws (exact at their reference points) and the strength sweep."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snopto.constants import AMU
from snopto.detect import fit_prediction
from snopto.errors import ConfigError, DomainError
from snopto.feasibility import (
    DAY,
    HOUR,
    BetaOpt,
    BetaSweep,
    ExperimentConfig,
    FeasibilityReport,
    optimize_beta,
    post_beta_opt,
    post_input_power,
    post_report,
    post_tau_scaled,
    pre_input_power,
    pre_peak_height,
    pre_report,
    pre_tau_scaled,
)
from snopto.materials import MaterialSpec, get_material
from snopto.response import OpticalConfig, OscillatorConfig, gamma_squared


def anchor_pre_config() -> ExperimentConfig:
    """The exact design the pre laws are anchored at (quoted rounded numbers)."""
    mat = MaterialSpec(name="Wq", atomic_mass=184.0 * AMU, debye_waller_B=4.78e-22, density=19250.0)
    osc = OscillatorConfig(mass=0.2, omega_cm=2 * math.pi * 0.010, omega_sn=0.359, q=1e4, t0=300.0)
    return ExperimentConfig(osc=osc, material=mat, optics=OpticalConfig(0.0, 1e-2, 2 * math.pi * 0.2e12))


def anchor_post_config() -> ExperimentConfig:
    mat = MaterialSpec(name="Osq", atomic_mass=190.0 * AMU, debye_waller_B=1.9e-22, density=22590.0)
    osc = OscillatorConfig(mass=0.2, omega_cm=2 * math.pi * 0.004, omega_sn=0.488, q=1e7, t0=1.0)
    return ExperimentConfig(osc=osc, material=mat, optics=OpticalConfig(0.0, 1e-2, 2 * math.pi * 0.2e12))


def with_osc(config: ExperimentConfig, **kw) -> ExperimentConfig:
    """Rebuild the oscillator from scratch so q / gamma_m stay consistent."""
    osc = config.osc
    fields = dict(mass=osc.mass, omega_cm=osc.omega_cm, omega_sn=osc.omega_sn, q=osc.q, t0=osc.t0)
    fields.update(kw)
    return replace(config, osc=OscillatorConfig(**fields))


class TestAnchors:
    def test_pre_exact_at_reference(self):
        cfg = anchor_pre_config()
        assert pre_tau_scaled(cfg) == pytest.approx(1.6 * HOUR, rel=1e-12)
        assert pre_input_power(cfg) == pytest.approx(0.432, rel=1e-12)
        assert pre_peak_height(cfg) == pytest.approx(8235.0, rel=1e-12)

    def test_post_exact_at_reference(self):
        cfg = anchor_post_config()
        assert post_tau_scaled(cfg) == pytest.approx(13.0 * DAY, rel=1e-12)
        assert post_input_power(cfg) == pytest.approx(4.8e-9, rel=1e-12)

    def test_real_materials_land_near_quoted_numbers(self):
        # the builtin W and Os trap frequencies differ from the rounded
        # anchor values by fractions of a percent, so the reports drift a
        # little but stay well inside the quoted precision
        pre = pre_report(ExperimentConfig.reference_pre())
        assert pre.tau_min_scaled == pytest.approx(1.6 * HOUR, rel=0.01)
        assert pre.input_power == pytest.approx(0.432, rel=0.01)
        assert pre.peak_height_or_dip == pytest.approx(8235.0, rel=0.01)
        post = post_report(ExperimentConfig.reference_post())
        assert post.tau_min_scaled == pytest.approx(13.0 * DAY, rel=0.05)
        assert post.input_power == pytest.approx(4.8e-9, rel=0.05)
        assert post.coherence_time == pytest.approx(5.0 * HOUR, rel=0.05)


class TestScalingExponents:
    def test_pre_quality_factor(self):
        base = anchor_pre_config()
        better = with_osc(base, q=1e6)
        assert pre_peak_height(better) == pytest.approx(1e4 * 8235.0, rel=1e-12)
        assert pre_tau_scaled(better) == pytest.approx(1.6 * HOUR * 100.0 ** -0.47, rel=1e-12)
        assert pre_input_power(better) == pytest.approx(0.432 / 100.0, rel=1e-12)

    def test_pre_bath_temperature(self):
        base = anchor_pre_config()
        cold = with_osc(base, t0=150.0)
        assert pre_tau_scaled(cold) == pytest.approx(1.6 * HOUR * 0.5**0.73, rel=1e-12)
        assert pre_peak_height(cold) == pytest.approx(2 * 8235.0, rel=1e-12)

    def test_pre_total_mass(self):
        base = anchor_pre_config()
        heavy = with_osc(base, mass=0.4)
        assert pre_input_power(heavy) == pytest.approx(0.432 * 4.0, rel=1e-12)
        assert pre_tau_scaled(heavy) == pytest.approx(1.6 * HOUR * 0.5**0.73, rel=1e-12)

    def test_post_quality_factor(self):
        base = anchor_post_config()
        assert post_tau_scaled(with_osc(base, q=1e8)) == pytest.approx(1.3 * DAY, rel=1e-12)

    def test_post_trap_frequency_cubed(self):
        base = anchor_post_config()
        strong = with_osc(base, omega_sn=2 * 0.488)
        assert post_tau_scaled(strong) == pytest.approx(13.0 * DAY / 8.0, rel=1e-12)

    def test_optics_factors(self):
        base = anchor_post_config()
        leaky = replace(base, optics=OpticalConfig(0.0, 2e-2, 2 * math.pi * 0.2e12))
        assert post_input_power(leaky) == pytest.approx(4.0 * 4.8e-9, rel=1e-12)
        blue = replace(base, optics=OpticalConfig(0.0, 1e-2, 2 * math.pi * 0.4e12))
        assert post_input_power(blue) == pytest.approx(4.8e-9 / 2.0, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(f=st.floats(min_value=0.25, max_value=4.0))
    def test_pure_power_law_property(self, f):
        base = anchor_pre_config()
        scaled = with_osc(base, q=1e4 * f)
        assert pre_tau_scaled(scaled) == pytest.approx(1.6 * HOUR * f**-0.47, rel=1e-12)

    def test_quality_from_damping_rate(self):
        base = anchor_pre_config()
        osc = base.osc
        alt = replace(base, osc=OscillatorConfig(
            mass=osc.mass, omega_cm=osc.omega_cm, omega_sn=osc.omega_sn,
            gamma_m=osc.omega_cm / 1e4, t0=osc.t0))
        assert pre_tau_scaled(alt) == pytest.approx(pre_tau_scaled(base), rel=1e-9)


class TestBetaOpt:
    def test_rule_of_thumb(self):
        r = post_beta_opt(0.031)
        assert r.value == pytest.approx(10.0, rel=1e-12)
        assert r.band == pytest.approx((0.1 / 0.031, 0.7 / 0.031), rel=1e-12)
        assert r.in_regime

    def test_regime_boundary(self):
        assert post_beta_opt(0.099).in_regime
        assert not post_beta_opt(0.1).in_regime
        assert not post_beta_opt(0.5).in_regime

    def test_guards(self):
        with pytest.raises(DomainError):
            post_beta_opt(0.0)
        with pytest.raises(DomainError):
            post_beta_opt(-0.1)

    def test_dip_depth_at_optimum_in_small_gamma_limit(self):
        # closed-form depth at the rule-of-thumb strength tends to
        # 1/(2 (1/2 + 0.31)) = 0.61728... as gamma_sq -> 0
        from snopto.spectra import dip_depth
        for g2 in (1e-4, 1e-6):
            d = dip_depth(post_beta_opt(g2).value, g2)
            assert d == pytest.approx(0.6172839506, abs=2e-4)


class TestOptimizeBeta:
    def test_frozen_landscape(self):
        sw = optimize_beta(0.01, 1.0)
        assert sw.beta_opt * 0.01 == pytest.approx(0.3043219887107722, rel=1e-9)
        assert sw.tau_min / 0.01 == pytest.approx(192.2973162844118, rel=1e-9)
        assert sw.depth_at_opt == pytest.approx(0.621012387442903, rel=1e-9)
        sw5 = optimize_beta(0.05, 1.0)
        assert sw5.beta_opt * 0.05 == pytest.approx(0.2928644564625235, rel=1e-9)
        assert sw5.tau_min / 0.05 == pytest.approx(179.08817819738601, rel=1e-9)

    @pytest.mark.parametrize("g2", [0.01, 0.05])
    def test_argmin_in_band_and_below_ceiling(self, g2):
        sw = optimize_beta(g2, 1.0)
        lo, hi = post_beta_opt(g2).band
        assert lo <= sw.beta_opt <= hi
        assert sw.tau_min <= 225.0 * g2 / 1.0
        assert abs(sw.depth_at_opt - 0.62) <= 0.02

    def test_unimodal_in_log_strength(self):
        sw = optimize_beta(0.01, 1.0)
        signs = np.sign(np.diff(sw.taus))
        assert signs[0] < 0 and signs[-1] > 0
        assert int(np.count_nonzero(np.diff(signs) != 0)) == 1

    def test_time_proportional_to_gamma_sq(self):
        a = optimize_beta(0.05, 1.0)
        b = optimize_beta(0.025, 1.0)
        assert a.tau_min / b.tau_min == pytest.approx(2.0, rel=0.05)

    def test_time_inverse_in_damping(self):
        a = optimize_beta(0.01, 1.0)
        b = optimize_beta(0.01, 2.0)
        assert b.tau_min == pytest.approx(a.tau_min / 2.0, rel=1e-12)
        assert b.beta_opt == a.beta_opt

    def test_law_ratio_near_unity(self):
        for g2 in (0.01, 0.025, 0.05):
            assert optimize_beta(g2, 1.0).law_ratio == pytest.approx(1.0, abs=0.1)

    def test_guards(self):
        with pytest.raises(DomainError):
            optimize_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            optimize_beta(0.01, 0.0)
        with pytest.raises(ConfigError):
            optimize_beta(0.01, 1.0, p=0.0)
        with pytest.raises(ConfigError):
            optimize_beta(0.01, 1.0, n_grid=8)


class TestReports:
    def test_pre_reference_frozen(self):
        r = pre_report(ExperimentConfig.reference_pre())
        assert r.prescription == "pre"
        assert r.tau_min_scaled == pytest.approx(5773.877404454894, rel=1e-9)
        assert r.input_power == pytest.approx(0.4314588417909449, rel=1e-9)
        assert r.peak_height_or_dip == pytest.approx(8208.082876736855, rel=1e-9)
        assert r.beta_used == pytest.approx(1672139427.9508233, rel=1e-9)
        assert r.coherence_time == pytest.approx(159154.94309189534, rel=1e-9)
        assert r.all_valid
        assert set(r.validity_flags) == {
            "beta_limit", "narrowband", "peak_separation",
            "omega_hierarchy", "gamma_sq_regime", "fit_range",
        }

    def test_post_reference_frozen(self):
        r = post_report(ExperimentConfig.reference_post())
        assert r.prescription == "post"
        assert r.tau_min_scaled == pytest.approx(1112971.065316449, rel=1e-9)
        assert r.input_power == pytest.approx(4.858910117246665e-09, rel=1e-9)
        assert r.peak_height_or_dip == pytest.approx(0.6172839493366242, rel=1e-9)
        assert r.beta_used == pytest.approx(21953.604542631998, rel=1e-9)
        assert r.coherence_time == pytest.approx(18123.184908983934, rel=1e-9)
        assert r.all_valid

    def test_post_coherence_identity(self):
        cfg = ExperimentConfig.reference_post()
        r = post_report(cfg)
        assert r.coherence_time == pytest.approx(
            1.0 / ((r.beta_used + 1.0) * cfg.osc.gamma_m), rel=1e-12)

    @pytest.mark.parametrize("q,t0,wcm_mhz", [
        (1e7, 1.0, 4.0), (3e6, 2.0, 2.0), (2e7, 0.5, 8.0), (1e7, 4.0, 4.0),
    ])
    def test_consistency_triangle(self, q, t0, wcm_mhz):
        # the anchored law and the fit route should tell the same story
        cfg = ExperimentConfig.build(
            material="Os", omega_cm=2 * math.pi * wcm_mhz * 1e-3, q=q, t0=t0)
        r = post_report(cfg)
        fit = fit_prediction(
            "dip", r.peak_height_or_dip, (r.beta_used + 1.0) * cfg.osc.gamma_m, p=10.0)
        assert 0.8 <= r.tau_min_scaled / fit.seconds <= 1.2

    def test_triangle_tight_at_reference(self):
        cfg = ExperimentConfig.reference_post()
        r = post_report(cfg)
        fit = fit_prediction(
            "dip", r.peak_height_or_dip, (r.beta_used + 1.0) * cfg.osc.gamma_m, p=10.0)
        assert r.tau_min_scaled / fit.seconds == pytest.approx(1.0004302310881108, rel=1e-9)

    def test_post_time_in_rule_of_thumb_units(self):
        cfg = ExperimentConfig.reference_post()
        r = post_report(cfg)
        g2 = gamma_squared(cfg.osc)
        assert r.tau_min_scaled == pytest.approx(200.0 * g2 / cfg.osc.gamma_m, rel=0.15)

    def test_pre_beta_override_trips_flag_only(self):
        cfg = ExperimentConfig.reference_pre()
        base = pre_report(cfg)
        hot = pre_report(cfg, beta=2.0 * base.beta_used)
        assert not hot.validity_flags["beta_limit"]
        assert hot.tau_min_scaled == base.tau_min_scaled
        assert hot.input_power == base.input_power
        assert hot.peak_height_or_dip == base.peak_height_or_dip

    def test_post_beta_override_changes_feature_not_laws(self):
        cfg = ExperimentConfig.reference_post()
        base = post_report(cfg)
        soft = post_report(cfg, beta=base.beta_used / 10.0)
        assert soft.tau_min_scaled == base.tau_min_scaled
        assert soft.peak_height_or_dip != base.peak_height_or_dip
        assert soft.coherence_time > base.coherence_time

    def test_weak_peak_trips_fit_range(self):
        r = pre_report(ExperimentConfig.build(q=300.0))
        assert r.peak_height_or_dip < 10.0
        assert not r.validity_flags["fit_range"]
        assert r.tau_min_scaled > 0  # values still returned

    def test_hot_measurement_trips_gamma_sq_regime(self):
        base = ExperimentConfig.build(material="Os", omega_cm=0.3, q=30.0, t0=1.0)
        t0 = 0.2 / gamma_squared(base.osc)
        r = post_report(ExperimentConfig.build(material="Os", omega_cm=0.3, q=30.0, t0=t0))
        assert not r.validity_flags["gamma_sq_regime"]
        assert r.tau_min_scaled > 0

    def test_strong_trap_trips_hierarchy(self):
        r = pre_report(ExperimentConfig.build(omega_cm=0.2))
        assert not r.validity_flags["omega_hierarchy"]

    def test_guards(self):
        cfg = ExperimentConfig.reference_pre()
        with pytest.raises(DomainError):
            pre_report(with_osc(cfg, t0=0.0))
        with pytest.raises(DomainError):
            pre_report(cfg, beta=-1.0)
        with pytest.raises(DomainError):
            post_report(cfg, beta=0.0)

    def test_report_validation_and_dict(self):
        r = post_report(ExperimentConfig.reference_post())
        d = asdict(r)
        assert d["prescription"] == "post"
        assert d["validity_flags"]["beta_limit"] is True
        with pytest.raises(ConfigError):
            FeasibilityReport("both", 1.0, 1.0, 1.0, 1.0, 1.0, {})
        with pytest.raises(DomainError):
            FeasibilityReport("pre", -1.0, 1.0, 1.0, 1.0, 1.0, {})


class TestExperimentConfig:
    def test_build_from_name_and_spec(self):
        a = ExperimentConfig.build("W")
        b = ExperimentConfig.build(get_material("W"))
        assert a.osc.omega_sn == b.osc.omega_sn
        assert a.material.name == "W"

    def test_unknown_material(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.build("Xx")

    def test_references(self):
        pre = ExperimentConfig.reference_pre()
        post = ExperimentConfig.reference_post()
        assert pre.material.name == "W" and post.material.name == "Os"
        assert post.osc.t0 == 1.0 and pre.osc.t0 == 300.0
