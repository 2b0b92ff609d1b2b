"""Anchored scaling laws (exact at their reference points) and the strength sweep."""

import hashlib
import math
import random
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snopto import feasibility
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
    anchored_law,
    optimize_beta,
    post_beta_opt,
    post_report,
    pre_report,
)
from snopto.materials import MaterialSpec, get_material, omega_sn
from snopto.response import OpticalConfig, OscillatorConfig, gamma_squared
from snopto.spectra import beta_limit


def anchor_pre_config() -> ExperimentConfig:
    """The exact design the pre laws are anchored at (quoted rounded numbers)."""
    mat = MaterialSpec(name="Wq", atomic_mass=184.0 * AMU, debye_waller_B=4.78e-22, density=19250.0)
    osc = OscillatorConfig(mass=0.2, omega_cm=2 * math.pi * 0.010, omega_sn=0.359, q=1e4, t0=300.0)
    return ExperimentConfig(osc=osc, material=mat, optics=OpticalConfig(0.0, 1e-2, 2 * math.pi * 0.2e12))


def anchor_post_config() -> ExperimentConfig:
    mat = MaterialSpec(name="Osq", atomic_mass=190.0 * AMU, debye_waller_B=1.9e-22, density=22590.0)
    osc = OscillatorConfig(mass=0.2, omega_cm=2 * math.pi * 0.004, omega_sn=0.488, q=1e7, t0=1.0)
    return ExperimentConfig(osc=osc, material=mat, optics=OpticalConfig(0.0, 1e-2, 2 * math.pi * 0.2e12))


def _frozen_configs() -> dict:
    """Anchors, reference designs and off-design points for the frozen-hex test."""
    si = get_material("Si")
    by_rate = OscillatorConfig(
        mass=0.05, omega_cm=2 * math.pi * 0.02, omega_sn=omega_sn(si), gamma_m=3e-7, t0=20.0)
    return {
        "anchor-pre": anchor_pre_config(),
        "anchor-post": anchor_post_config(),
        "reference-pre": ExperimentConfig.reference_pre(),
        "reference-post": ExperimentConfig.reference_post(),
        "W-q-t0": ExperimentConfig.build(q=3e5, t0=77.0),
        "Os-mass-omega_cm": ExperimentConfig.build(
            material="Os", mass=1.5, omega_cm=2 * math.pi * 0.0015, q=2e6, t0=4.0),
        "Si-optics": ExperimentConfig.build(
            material="Si", transmissivity=3e-3, omega_c=2 * math.pi * 0.35e12),
        "Pt-all": ExperimentConfig.build(
            material="Pt", mass=0.8, omega_cm=2 * math.pi * 0.001, q=5e8, t0=0.1,
            transmissivity=0.05, omega_c=2 * math.pi * 0.1e12),
        "Pt-cold": ExperimentConfig.build(material="Pt", q=1e6, t0=10.0),
        "Si-gamma_m": ExperimentConfig(
            osc=by_rate, material=si, optics=OpticalConfig(0.0, 2e-2, 2 * math.pi * 0.2e12)),
    }


def with_osc(config: ExperimentConfig, **kw) -> ExperimentConfig:
    """Rebuild the oscillator from scratch so q / gamma_m stay consistent."""
    osc = config.osc
    fields = dict(mass=osc.mass, omega_cm=osc.omega_cm, omega_sn=osc.omega_sn, q=osc.q, t0=osc.t0)
    fields.update(kw)
    return replace(config, osc=OscillatorConfig(**fields))


# The five anchored laws and the reports bit for bit, as float.hex, per
# config of _frozen_configs: the laws (pre time, power, height; post time,
# power), the pre report's beta and coherence time, and the post report's
# dip depth, beta and coherence time. The reports' other fields are the
# laws themselves. A change to a factor's orientation or to the order of
# multiplication moves them.
_LAWS = (
    "pre_tau_scaled", "pre_input_power", "pre_peak_height", "post_tau_scaled", "post_input_power")
_FROZEN_LAWS = {
    "anchor-pre": (
        ("0x1.6800000000000p+12", "0x1.ba5e353f7ced9p-2", "0x1.0158000000000p+13",
         "0x1.eca546b41e6c7p+40", "0x1.cd09c97373245p-58"),
        ("0x1.8f0f60fcf8425p+30", "0x1.36d978b73c37dp+17"),
        ("0x1.7974e75c38ce2p-18", "0x1.31bdf2696fab8p-18", "0x1.36d91be7687f6p+17"),
    ),
    "anchor-post": (
        ("0x1.38bde37f85133p+0", "0x1.c64e2457d2ce8p-13", "0x1.043e55ba2ec30p+45",
         "0x1.1238000000000p+20", "0x1.49da7e361ce4cp-28"),
        ("0x1.a958b0a59c12ap+29", "0x1.7b7477dbad021p+28"),
        ("0x1.3c0ca44d4a2c1p-1", "0x1.53e5ff04245a0p+14", "0x1.1dc78da1e2774p+14"),
    ),
    "reference-pre": (
        ("0x1.68de09d940f22p+12", "0x1.b9d058bc3fa35p-2", "0x1.0080a9bb47532p+13",
         "0x1.ee24169327957p+40", "0x1.cb2dcde58fe97p-58"),
        ("0x1.8eab4a8fcda4ap+30", "0x1.36d978b73c37dp+17"),
        ("0x1.784d980c2d65ap-18", "0x1.30cebe220706ap-18", "0x1.36d91c300574cp+17"),
    ),
    "reference-post": (
        ("0x1.36b19c7c5dd25p+0", "0x1.c798dbfa2fe12p-13", "0x1.0694854d795ddp+45",
         "0x1.0fb8b10b8942cp+20", "0x1.4de6d9cb201dep-28"),
        ("0x1.6aa552e789d21p+30", "0x1.7b7477dbad021p+28"),
        ("0x1.3c0ca44d7e382p-1", "0x1.57066b0d3945ep+14", "0x1.1b2cbd58c7dafp+14"),
    ),
    "W-q-t0": (
        ("0x1.b092e926c739ap+8", "0x1.d744a2eaee8c2p-7", "0x1.b72c154edb996p+24",
         "0x1.0e91d378da484p+34", "0x1.98687638b6f8fp-49"),
        ("0x1.8eab4a8fcda4ap+30", "0x1.236be12bc8745p+22"),
        ("0x1.3a9c6f24c2c2bp-6", "0x1.04f05d485817dp-6", "0x1.1eda54de2a243p+22"),
    ),
    "Os-mass-omega_cm": (
        ("0x1.07d8d877557b3p+0", "0x1.776683c175d39p-6", "0x1.1815e385d6ca7p+44",
         "0x1.fd7a4bf5a15d3p+22", "0x1.39086c2e6e1c0p-27"),
        ("0x1.53989a84d0153p+33", "0x1.94c07fd941135p+27"),
        ("0x1.3c0c9be089fc7p-1", "0x1.86ba5df3dd1f2p+10", "0x1.0904ccbbcff6fp+17"),
    ),
    "Si-optics": (
        ("0x1.5742df6b2f6edp+19", "0x1.bbf8cd1dde709p-10", "0x1.7df070096a145p+3",
         "0x1.6f0406092b27ap+49", "0x1.18dd8051807d5p-73"),
        ("0x1.5ee2746b06103p+30", "0x1.36d978b73c37dp+17"),
        ("0x1.3e517987af033p-27", "0x1.01d679ab6538bp-27", "0x1.36d97890199fep+17"),
    ),
    "Pt-all": (
        ("0x1.3f1028b85a5b5p-6", "0x1.42b9343b6682cp-11", "0x1.7faade6afb31dp+63",
         "0x1.620daad700612p+11", "0x1.22f6297560190p-7"),
        ("0x1.b967005e13b62p+32", "0x1.2872fda39f29ap+36"),
        ("0x1.3c0ca4587e6b8p-1", "0x1.9bc81642038c4p+30", "0x1.709928357ac4fp+5"),
    ),
    "Pt-cold": (
        ("0x1.527b8c2171196p+6", "0x1.f841619cd02c4p-9", "0x1.49915daab9d41p+30",
         "0x1.51a6d0c0f298ap+30", "0x1.f3de4077bf7f5p-43"),
        ("0x1.c3ec95a90eb33p+30", "0x1.e5b3cc9e4e173p+23"),
        ("0x1.96bd6f9bdb9aep-2", "0x1.597b7b489de21p-1", "0x1.2202e6a9b55cfp+23"),
    ),
    "Si-gamma_m": (
        ("0x1.f4f62501515d7p+15", "0x1.9c2f68fcdeb13p-12", "0x1.32c51a26e222ap+14",
         "0x1.2b12417bff0a8p+41", "0x1.88b1c5b098cc5p-59"),
        ("0x1.283c3b2c1c068p+29", "0x1.96e6aaaaaaaabp+21"),
        ("0x1.2ed2a222de9f8p-15", "0x1.ea982cb2703d8p-16", "0x1.96e39ee91e4f7p+21"),
    ),
}


def _random_designs(n: int, seed: int = 11):
    """Seeded designs spread over decades of every law quantity."""
    rng = random.Random(seed)
    mats = [get_material(m) for m in ("W", "Os", "Si", "Pt")]
    for _ in range(n):
        mat = rng.choice(mats)
        omega_cm = 10 ** rng.uniform(-4, 0)
        kw = dict(mass=10 ** rng.uniform(-3, 1), omega_cm=omega_cm,
                  omega_sn=10 ** rng.uniform(-2, 1), t0=10 ** rng.uniform(-3, 3))
        if rng.random() < 0.5:
            kw["q"] = 10 ** rng.uniform(1, 10)
        else:
            kw["gamma_m"] = omega_cm / 10 ** rng.uniform(1, 10)
        optics = OpticalConfig(0.0, 10 ** rng.uniform(-4, -0.5), 10 ** rng.uniform(11, 14))
        yield ExperimentConfig(osc=OscillatorConfig(**kw), material=mat, optics=optics)


# sha256 of float.hex of the five laws at each of 200 _random_designs.
# Swapping two neighbouring factors (other than the first two, whose
# product commutes exactly) moves the last bit at 18-26 % of them.
_FROZEN_RANDOM_DIGEST = "57b082e4dba93638375bd877d14add7ea51d75e0e1f548ce7f74218092d1eb34"


class TestFrozenLaws:
    @pytest.mark.parametrize("name", list(_FROZEN_LAWS))
    def test_laws_and_reports_frozen_bit_for_bit(self, name):
        cfg = _frozen_configs()[name]
        laws = [anchored_law(law, cfg) for law in _LAWS]
        pre, post = pre_report(cfg), post_report(cfg)
        got = (
            tuple(v.hex() for v in laws),
            (pre.beta_used.hex(), pre.coherence_time.hex()),
            (post.peak_height_or_dip.hex(), post.beta_used.hex(), post.coherence_time.hex()),
        )
        assert got == _FROZEN_LAWS[name]
        assert [pre.tau_min_scaled, pre.input_power, pre.peak_height_or_dip] == laws[:3]
        assert [post.tau_min_scaled, post.input_power] == laws[3:]

    def test_laws_frozen_at_seeded_random_designs(self):
        digest = hashlib.sha256()
        for cfg in _random_designs(200):
            for law in _LAWS:
                digest.update(anchored_law(law, cfg).hex().encode())
        assert digest.hexdigest() == _FROZEN_RANDOM_DIGEST


class TestAnchors:
    def test_pre_exact_at_reference(self):
        cfg = anchor_pre_config()
        assert anchored_law("pre_tau_scaled", cfg) == pytest.approx(1.6 * HOUR, rel=1e-12)
        assert anchored_law("pre_input_power", cfg) == pytest.approx(0.432, rel=1e-12)
        assert anchored_law("pre_peak_height", cfg) == pytest.approx(8235.0, rel=1e-12)

    def test_post_exact_at_reference(self):
        cfg = anchor_post_config()
        assert anchored_law("post_tau_scaled", cfg) == pytest.approx(13.0 * DAY, rel=1e-12)
        assert anchored_law("post_input_power", cfg) == pytest.approx(4.8e-9, rel=1e-12)

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
        assert anchored_law("pre_peak_height", better) == pytest.approx(1e4 * 8235.0, rel=1e-12)
        assert anchored_law("pre_tau_scaled", better) == pytest.approx(
            1.6 * HOUR * 100.0 ** -0.47, rel=1e-12)
        assert anchored_law("pre_input_power", better) == pytest.approx(0.432 / 100.0, rel=1e-12)

    def test_pre_bath_temperature(self):
        base = anchor_pre_config()
        cold = with_osc(base, t0=150.0)
        assert anchored_law("pre_tau_scaled", cold) == pytest.approx(1.6 * HOUR * 0.5**0.73, rel=1e-12)
        assert anchored_law("pre_peak_height", cold) == pytest.approx(2 * 8235.0, rel=1e-12)

    def test_pre_total_mass(self):
        base = anchor_pre_config()
        heavy = with_osc(base, mass=0.4)
        assert anchored_law("pre_input_power", heavy) == pytest.approx(0.432 * 4.0, rel=1e-12)
        assert anchored_law("pre_tau_scaled", heavy) == pytest.approx(1.6 * HOUR * 0.5**0.73, rel=1e-12)

    def test_post_quality_factor(self):
        base = anchor_post_config()
        better = with_osc(base, q=1e8)
        assert anchored_law("post_tau_scaled", better) == pytest.approx(1.3 * DAY, rel=1e-12)

    def test_post_trap_frequency_cubed(self):
        base = anchor_post_config()
        strong = with_osc(base, omega_sn=2 * 0.488)
        assert anchored_law("post_tau_scaled", strong) == pytest.approx(13.0 * DAY / 8.0, rel=1e-12)

    def test_optics_factors(self):
        base = anchor_post_config()
        leaky = replace(base, optics=OpticalConfig(0.0, 2e-2, 2 * math.pi * 0.2e12))
        assert anchored_law("post_input_power", leaky) == pytest.approx(4.0 * 4.8e-9, rel=1e-12)
        blue = replace(base, optics=OpticalConfig(0.0, 1e-2, 2 * math.pi * 0.4e12))
        assert anchored_law("post_input_power", blue) == pytest.approx(4.8e-9 / 2.0, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(f=st.floats(min_value=0.25, max_value=4.0))
    def test_pure_power_law_property(self, f):
        base = anchor_pre_config()
        scaled = with_osc(base, q=1e4 * f)
        assert anchored_law("pre_tau_scaled", scaled) == pytest.approx(1.6 * HOUR * f**-0.47, rel=1e-12)

    def test_quality_from_damping_rate(self):
        base = anchor_pre_config()
        osc = base.osc
        alt = replace(base, osc=OscillatorConfig(
            mass=osc.mass, omega_cm=osc.omega_cm, omega_sn=osc.omega_sn,
            gamma_m=osc.omega_cm / 1e4, t0=osc.t0))
        assert anchored_law("pre_tau_scaled", alt) == pytest.approx(
            anchored_law("pre_tau_scaled", base), rel=1e-9)


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
        assert all(r.validity_flags.values())
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
        assert all(r.validity_flags.values())

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

    @pytest.mark.parametrize("report", [pre_report, post_report])
    def test_strength_limit_evaluated_once(self, monkeypatch, report):
        calls = []

        def counted(*args):
            calls.append(args)
            return beta_limit(*args)

        monkeypatch.setattr(feasibility, "beta_limit", counted)
        report(ExperimentConfig.reference_pre())
        assert len(calls) == 1

    def test_post_beta_override_changes_feature_not_laws(self):
        cfg = ExperimentConfig.reference_post()
        base = post_report(cfg)
        soft = post_report(cfg, beta=base.beta_used / 10.0)
        assert soft.tau_min_scaled == base.tau_min_scaled
        assert soft.peak_height_or_dip != base.peak_height_or_dip
        assert soft.coherence_time > base.coherence_time

    @pytest.mark.parametrize("height", [
        math.nextafter(10.0, 0.0), 10.0, math.nextafter(10.0, math.inf), 8208.0,
    ])
    def test_pre_fit_range_is_where_the_fit_holds(self, monkeypatch, height):
        # the flag says "in range" exactly where fit_prediction does not warn
        law = feasibility.anchored_law
        monkeypatch.setattr(feasibility, "anchored_law",
                            lambda name, cfg: height if name == "pre_peak_height" else law(name, cfg))
        r = pre_report(ExperimentConfig.reference_pre())
        assert r.peak_height_or_dip == height
        assert r.validity_flags["fit_range"] is (not fit_prediction("peak", height, 1.0).warnings)

    @pytest.mark.parametrize("depth", [math.nextafter(0.9, 0.0), 0.9])
    def test_post_fit_range_is_where_the_fit_holds(self, monkeypatch, depth):
        feature = feasibility.post_feature
        monkeypatch.setattr(feasibility, "post_feature",
                            lambda params: replace(feature(params), amplitude=depth))
        r = post_report(ExperimentConfig.reference_post())
        assert r.peak_height_or_dip == depth
        assert r.validity_flags["fit_range"] is (not fit_prediction("dip", depth, 1.0).warnings)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 1e3])
    def test_post_fit_range_across_strengths(self, scale):
        cfg = ExperimentConfig.reference_post()
        r = post_report(cfg, beta=scale * post_report(cfg).beta_used)
        d = r.peak_height_or_dip
        assert r.validity_flags["fit_range"] is (not fit_prediction("dip", d, 1.0).warnings)

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
