import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snopto.constants import HBAR, K_B
from snopto.errors import ConfigError, DomainError
from snopto import response as rsp
from snopto.gaussian_dynamics import GaussianState
from snopto.materials import MaterialSpec
from snopto.spectra import LorentzianFeature, SpectrumParams
from snopto.synth import BasebandModel, BasebandSeries

from conftest import osmium_osc, reference_optics


def _osc(**kw):
    return rsp.OscillatorConfig(**{"mass": 1.0, "omega_cm": 1.0, "omega_sn": 1.0, **kw})


def _feature(fwhm):
    return LorentzianFeature("peak", "pre", 1.0, 1.0, fwhm, 1.0, True)


# every range check of a record, by the value it checks: a negative value
# and NaN are refused alike, with the same error type
_RANGE_CHECKS = {
    "mass": (lambda v: _osc(mass=v), DomainError),
    "omega_cm": (lambda v: _osc(omega_cm=v), DomainError),
    "omega_sn": (lambda v: _osc(omega_sn=v), DomainError),
    "t0": (lambda v: _osc(t0=v), DomainError),
    "q": (lambda v: _osc(q=v), DomainError),
    "gamma_m": (lambda v: _osc(gamma_m=v), DomainError),
    "i_in": (lambda v: rsp.OpticalConfig(i_in=v, transmissivity=0.5, omega_c=1.0), DomainError),
    "omega_c": (lambda v: rsp.OpticalConfig(i_in=1.0, transmissivity=0.5, omega_c=v), DomainError),
    "atomic_mass": (lambda v: MaterialSpec("x", atomic_mass=v, debye_waller_B=1.0, density=1.0), DomainError),
    "debye_waller_B": (lambda v: MaterialSpec("x", atomic_mass=1.0, debye_waller_B=v, density=1.0),
                       DomainError),
    "alpha_sq": (lambda v: SpectrumParams(_osc(), alpha_sq=v), DomainError),
    "amplitude": (lambda v: BasebandModel("peak", amplitude=v, fwhm_gamma=1.0), DomainError),
    "fwhm_gamma": (lambda v: BasebandModel("peak", amplitude=1.0, fwhm_gamma=v), ConfigError),
    "dt": (lambda v: BasebandSeries(dt=v, samples=[0.0, 0.0], seed=0, model_tag=""), ConfigError),
    "var_xx": (lambda v: GaussianState(0.0, 0.0, v, 0.0, 1.0), DomainError),
    "fwhm": (lambda v: _feature(v), DomainError),
}


@pytest.mark.parametrize("value", [-1.0, math.nan])
@pytest.mark.parametrize("field", list(_RANGE_CHECKS))
def test_range_checks_refuse_nan(field, value):
    build, error = _RANGE_CHECKS[field]
    build(1.0)  # the in-range value builds
    with pytest.raises(error):
        build(value)


class TestOscillatorConfig:
    def test_q_to_gamma(self):
        osc = rsp.OscillatorConfig(mass=1.0, omega_cm=2.0, omega_sn=0.0, q=100.0)
        assert osc.gamma_m == pytest.approx(0.02, rel=1e-12)

    def test_omega_q(self):
        osc = rsp.OscillatorConfig(mass=1.0, omega_cm=3.0, omega_sn=4.0, gamma_m=0.1)
        assert osc.omega_q == pytest.approx(5.0, rel=1e-14)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ConfigError):
            rsp.OscillatorConfig(mass=1.0, omega_cm=2.0, omega_sn=0.0, gamma_m=0.5, q=100.0)

    def test_consistent_pair_ok(self):
        osc = rsp.OscillatorConfig(mass=1.0, omega_cm=2.0, omega_sn=0.0, gamma_m=0.02, q=100.0)
        assert osc.gamma_m == 0.02

    def test_nonpositive_mass(self):
        with pytest.raises(DomainError):
            rsp.OscillatorConfig(mass=0.0, omega_cm=1.0, omega_sn=0.0, gamma_m=0.1)

    def test_zero_omega_sn_and_t0_allowed(self):
        osc = rsp.OscillatorConfig(mass=1.0, omega_cm=1.0, omega_sn=0.0, gamma_m=0.01)
        assert osc.t0 == 0.0
        assert osc.omega_q == pytest.approx(1.0)


class TestOpticalConfig:
    def test_transmissivity_bounds(self):
        with pytest.raises(DomainError):
            rsp.OpticalConfig(i_in=1.0, transmissivity=0.0, omega_c=1e12)
        with pytest.raises(DomainError):
            rsp.OpticalConfig(i_in=1.0, transmissivity=1.5, omega_c=1e12)

    def test_alpha_squared_zero_power(self):
        opt = rsp.OpticalConfig(i_in=0.0, transmissivity=0.01, omega_c=1e12)
        assert rsp.alpha_squared(opt) == 0.0

    def test_alpha_squared_transmissivity_scaling(self):
        a = rsp.alpha_squared(rsp.OpticalConfig(i_in=1.0, transmissivity=0.01, omega_c=1e12))
        b = rsp.alpha_squared(rsp.OpticalConfig(i_in=1.0, transmissivity=0.02, omega_c=1e12))
        assert a / b == pytest.approx(4.0, rel=1e-12)


class TestResponses:
    osc = rsp.OscillatorConfig(mass=0.5, omega_cm=2.0, omega_sn=1.5, gamma_m=1e-3, t0=10.0)

    def test_gc_static(self):
        assert rsp.g_c(0.0, self.osc) == pytest.approx(1.0 / (0.5 * 4.0), rel=1e-14)

    def test_gc_resonance_purely_imaginary(self):
        val = complex(rsp.g_c(self.osc.omega_cm, self.osc))
        assert abs(val.real) < 1e-12 * abs(val)
        assert val.imag == pytest.approx(1.0 / (0.5 * 2.0 * 1e-3), rel=1e-12)

    def test_gq_resonance(self):
        wq = self.osc.omega_q
        val = complex(rsp.g_q(wq, self.osc))
        assert abs(val.real) < 1e-12 * abs(val)
        assert abs(val) == pytest.approx(1.0 / (0.5 * wq * 1e-3), rel=1e-12)
        # retarded convention: Im[g] has the sign of omega
        assert val.imag > 0

    def test_conjugate_symmetry(self):
        w = np.geomspace(1e-3, 1e3, 101) * self.osc.omega_cm
        assert np.allclose(rsp.g_c(-w, self.osc), np.conj(rsp.g_c(w, self.osc)), rtol=1e-13)
        assert np.allclose(np.abs(rsp.g_q(-w, self.osc)), np.abs(rsp.g_q(w, self.osc)), rtol=1e-13)

    def test_kramers_kronig_sign(self):
        w = np.concatenate([-np.geomspace(1e-3, 1e3, 201), np.geomspace(1e-3, 1e3, 201)])
        assert np.all(np.imag(rsp.g_c(w, self.osc)) * w >= 0)
        assert np.all(np.imag(rsp.g_q(w, self.osc)) * w >= 0)

    def test_gq_peak_location(self):
        osc = rsp.OscillatorConfig(mass=1.0, omega_cm=0.3, omega_sn=1.0, gamma_m=1e-4)
        w = np.linspace(osc.omega_q - 10 * osc.gamma_m, osc.omega_q + 10 * osc.gamma_m, 4001)
        peak = w[np.argmax(np.abs(rsp.g_q(w, osc)) ** 2)]
        assert abs(peak - osc.omega_q) < osc.gamma_m

    def test_reduction_at_zero_omega_sn(self):
        osc = rsp.OscillatorConfig(mass=0.5, omega_cm=2.0, omega_sn=0.0, gamma_m=1e-3)
        w = np.geomspace(1e-3, 1e3, 1000) * osc.omega_cm
        gq = rsp.g_q(w, osc)
        gc = rsp.g_c(w, osc)
        assert np.allclose(np.abs(gq), np.abs(gc), rtol=1e-12)
        assert np.allclose(gq, gc, rtol=1e-12)  # matched damping sign, exact identity


class TestDeltaG:
    osc = rsp.OscillatorConfig(mass=0.5, omega_cm=2.0, omega_sn=1.5, gamma_m=1e-3)

    def test_zero_when_omega_sn_zero(self):
        osc0 = rsp.OscillatorConfig(mass=0.5, omega_cm=2.0, omega_sn=0.0, gamma_m=1e-3)
        w = np.geomspace(0.01, 100, 301)
        assert np.all(rsp.delta_g(w, osc0) == 0)

    def test_matches_direct_subtraction(self):
        w = np.geomspace(0.01, 100, 301)
        direct = rsp.g_c(w, self.osc) - rsp.g_q(w, self.osc)
        assert np.allclose(rsp.delta_g(w, self.osc), direct, rtol=1e-9)

    def test_tail_suppression(self):
        wq = self.osc.omega_q
        val = abs(complex(rsp.delta_g(1e3 * wq, self.osc)))
        assert val * self.osc.mass * wq * self.osc.gamma_m <= 1e-3

    def test_maximum_near_omega_cm(self):
        wq, wcm, gm = self.osc.omega_q, self.osc.omega_cm, self.osc.gamma_m
        grid = np.unique(
            np.concatenate(
                [
                    np.geomspace(1e-3 * wq, 1e3 * wq, 500),
                    np.linspace(wcm - 20 * gm, wcm + 20 * gm, 801),
                    np.linspace(wq - 20 * gm, wq + 20 * gm, 801),
                ]
            )
        )
        peak = grid[np.argmax(np.abs(rsp.delta_g(grid, self.osc)))]
        assert abs(peak - wcm) < 5 * gm


class TestForceSpectra:
    osc = rsp.OscillatorConfig(mass=0.5, omega_cm=2.0, omega_sn=1.5, gamma_m=1e-3, t0=10.0)

    def test_s_fzp_basics(self):
        assert rsp.s_fzp(0.0, self.osc) == 0.0
        assert rsp.s_fzp(2.0, self.osc) == pytest.approx(2 * rsp.s_fzp(1.0, self.osc), rel=1e-14)
        assert rsp.s_fzp(-3.0, self.osc) == pytest.approx(rsp.s_fzp(3.0, self.osc), rel=1e-14)

    def test_s_fzp_reference_value(self):
        osc = osmium_osc()
        wq = osc.omega_q
        assert rsp.s_fzp(wq, osc) == pytest.approx(HBAR * wq * osc.mass * osc.gamma_m, rel=1e-13)


class TestPositionThermalNoise:
    osc = rsp.OscillatorConfig(mass=0.5, omega_cm=2.0, omega_sn=1.5, gamma_m=1e-3, t0=10.0)

    def test_zero_frequency_limit(self):
        expect = 2 * K_B * 10.0 * 1e-3 / (0.5 * 2.0**4)
        assert rsp.s_x_th(0.0, self.osc) == pytest.approx(expect, rel=1e-12)

    def test_resonance_value(self):
        expect = 2 * K_B * 10.0 / (0.5 * 2.0**2 * 1e-3)
        assert rsp.s_x_th(self.osc.omega_cm, self.osc) == pytest.approx(expect, rel=1e-6)

    def test_equals_gc_squared_times_classical_force(self):
        # |g_c|^2 times the classical bath's flat force density 2 k_B t0 M gamma_m
        w = np.geomspace(0.01, 100, 301)
        force = 2 * K_B * self.osc.t0 * self.osc.mass * self.osc.gamma_m
        via_force = np.abs(rsp.g_c(w, self.osc)) ** 2 * force
        assert np.allclose(rsp.s_x_th(w, self.osc), via_force, rtol=1e-5)

    def test_even(self):
        w = np.linspace(-10, 10, 201)
        vals = rsp.s_x_th(w, self.osc)
        assert np.allclose(vals, vals[::-1], rtol=1e-12)


class TestDimensionlessParams:
    def test_beta_zero_alpha(self, w_osc):
        assert rsp.beta(0.0, w_osc) == 0.0

    def test_beta_linear_in_power(self, w_osc):
        b1 = rsp.beta(rsp.alpha_squared(reference_optics(0.432)), w_osc)
        b2 = rsp.beta(rsp.alpha_squared(reference_optics(0.864)), w_osc)
        assert b2 / b1 == pytest.approx(2.0, rel=1e-12)

    def test_beta_frozen_reference(self, w_osc):
        b = rsp.beta(rsp.alpha_squared(reference_optics(0.432)), w_osc)
        assert b == pytest.approx(1.0551e6, rel=2e-4)

    def test_gamma_squared_frozen_tungsten(self, w_osc):
        assert rsp.gamma_squared(w_osc) == pytest.approx(6.804348e4, rel=1e-6)
        assert rsp.gamma_squared_approx(w_osc) == pytest.approx(6.702468e4, rel=1e-6)

    def test_gamma_squared_frozen_osmium(self, os_osc):
        assert rsp.gamma_squared(os_osc) == pytest.approx(1.425058e-5, rel=1e-6)
        assert rsp.gamma_squared_approx(os_osc) == pytest.approx(1.423172e-5, rel=1e-6)
        assert rsp.gamma_squared(os_osc) < 0.1  # soft-measurement regime

    def test_gamma_squared_zero_temperature(self):
        osc = rsp.OscillatorConfig(mass=1.0, omega_cm=1.0, omega_sn=1.0, gamma_m=1e-4, t0=0.0)
        assert rsp.gamma_squared(osc) == 0.0

    def test_exact_vs_approx_in_regime(self, os_osc):
        # agreement to 1% needs both a heavily underdamped feature and
        # omega_cm at most a tenth of omega_sn; the osmium reference and a
        # synthetic config both sit inside that regime
        synthetic = rsp.OscillatorConfig(
            mass=1.0, omega_cm=0.02, omega_sn=0.4, gamma_m=1e-5, t0=5.0
        )
        for osc in (os_osc, synthetic):
            assert osc.omega_sn**4 >= 100 * (osc.gamma_m * osc.omega_q) ** 2
            assert osc.omega_cm <= osc.omega_sn / 10
            assert rsp.gamma_squared_approx(osc) == pytest.approx(
                rsp.gamma_squared(osc), rel=0.01
            )

    def test_exact_vs_approx_out_of_regime(self, w_osc):
        # the tungsten reference has omega_cm = 0.175 omega_sn, outside the
        # small-pendulum-frequency regime, and the forms drift to 1.5%
        assert w_osc.omega_cm > w_osc.omega_sn / 10
        ratio = rsp.gamma_squared_approx(w_osc) / rsp.gamma_squared(w_osc)
        assert ratio == pytest.approx(0.98503, abs=2e-4)

    def test_derived_params_bundle(self, w_osc):
        d = SpectrumParams.from_optics(w_osc, reference_optics())
        assert d.omega_q == pytest.approx(w_osc.omega_q)
        assert d.beta == pytest.approx(rsp.beta(d.alpha_sq, w_osc))
        assert d.gamma_sq == pytest.approx(rsp.gamma_squared(w_osc))


@given(
    mass=st.floats(min_value=1e-3, max_value=1e3),
    wcm=st.floats(min_value=1e-3, max_value=1e3),
    wsn=st.floats(min_value=0.0, max_value=1e3),
    loggm=st.floats(min_value=-8, max_value=0),
)
def test_property_omega_q_and_sign(mass, wcm, wsn, loggm):
    osc = rsp.OscillatorConfig(mass=mass, omega_cm=wcm, omega_sn=wsn, gamma_m=10.0**loggm)
    assert osc.omega_q**2 == pytest.approx(wcm**2 + wsn**2, rel=1e-12)
    w = np.array([-2.5 * osc.omega_q, -osc.omega_q, osc.omega_q, 2.5 * osc.omega_q])
    assert np.all(np.imag(rsp.g_q(w, osc)) * w >= 0)


class TestFrequencyGrid:
    def test_log(self):
        g = rsp.frequency_grid(1.0, 100.0, 3)
        assert g == pytest.approx([1.0, 10.0, 100.0])

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            rsp.frequency_grid(1.0, 100.0, 1)
        with pytest.raises(ConfigError):
            rsp.frequency_grid(0.0, 100.0, 10)
        with pytest.raises(ConfigError):
            rsp.frequency_grid(100.0, 1.0, 10)
