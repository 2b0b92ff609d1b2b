import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erf

from snopto.constants import AMU, G_NEWTON
from snopto.errors import ConfigError, DomainError
from snopto import materials as mat

# Published per-element frequencies (rad/s) that the built-in table must hit
# within 1 percent, and the values this implementation actually produces
# (frozen from a separate scalar computation, tolerance 1e-6).
TABLE = {
    "Si": (0.0495, 0.049501814, 4.924810487e-12),
    "Fe": (0.0990, 0.099108940, 3.898484006e-12),
    "Ge": (0.1039, 0.103990354, 4.121160444e-12),
    "Nb": (0.1386, 0.138152554, 3.701849550e-12),
    "Pt": (0.2843, 0.284561369, 2.928191450e-12),
    "W": (0.3592, 0.358637501, 2.460475711e-12),
    "Os": (0.4879, 0.489490456, 2.022583197e-12),
}


def test_delta_x_zp_unit_cancellation():
    # B = 8 pi^2 angstrom^2 collapses to exactly one angstrom
    assert mat.delta_x_zp(8 * math.pi**2 * 1e-20) == pytest.approx(1e-10, rel=1e-12)


def test_delta_x_zp_rejects_nonpositive():
    with pytest.raises(DomainError):
        mat.delta_x_zp(0.0)
    with pytest.raises(DomainError):
        mat.delta_x_zp(-1e-20)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_against_published(name):
    published, _, _ = TABLE[name]
    spec = mat.get_material(name)
    assert mat.omega_sn(spec) == pytest.approx(published, rel=0.01)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_table_frozen_values(name):
    _, w_frozen, dx_frozen = TABLE[name]
    spec = mat.get_material(name)
    assert mat.omega_sn(spec) == pytest.approx(w_frozen, rel=1e-8)
    assert mat.delta_x_zp(spec.debye_waller_B) == pytest.approx(dx_frozen, rel=1e-8)


def test_builtin_table_shape_and_flag():
    table = mat.BUILTIN
    assert len(table) == 7
    flags = {s.name: s.theoretical for s in table}
    assert flags["Os"] is True
    assert sum(flags.values()) == 1
    w = next(s for s in table if s.name == "W")
    assert w.debye_waller_B == pytest.approx(0.0478e-20, rel=1e-9)
    assert w.density == pytest.approx(19250.0)


def test_unknown_material_is_config_error():
    with pytest.raises(ConfigError):
        mat.get_material("Xx")


def test_lookup_case_insensitive():
    assert mat.get_material("w").name == "W"


def test_omega_sn_mass_scaling():
    spec = mat.get_material("W")
    heavier = mat.MaterialSpec(
        name="W4",
        atomic_mass=4 * spec.atomic_mass,
        debye_waller_B=spec.debye_waller_B,
        density=spec.density,
    )
    assert mat.omega_sn(heavier) == pytest.approx(2 * mat.omega_sn(spec), rel=1e-12)


@given(
    b_scale=st.floats(min_value=0.1, max_value=10.0),
    m_amu=st.floats(min_value=1.0, max_value=300.0),
)
def test_omega_sn_b_power_law(b_scale, m_amu):
    # omega_sn ~ B^(-3/4) at fixed mass
    base = mat.MaterialSpec("a", m_amu * AMU, 0.05e-20, 1.0)
    scaled = mat.MaterialSpec("b", m_amu * AMU, 0.05e-20 * b_scale, 1.0)
    ratio = mat.omega_sn(scaled) / mat.omega_sn(base)
    assert ratio == pytest.approx(b_scale ** (-0.75), rel=1e-9)


class TestSelfEnergy:
    M = 0.2
    spec = mat.get_material("W")
    dx = mat.delta_x_zp(spec.debye_waller_B)

    def energy(self, x):
        return mat.self_energy(x, self.M, self.spec.atomic_mass, self.dx)

    def test_origin_limit(self):
        expect = (
            G_NEWTON
            * self.M
            * self.spec.atomic_mass
            * (math.sqrt(math.pi) - 1)
            / (math.sqrt(math.pi) * self.dx)
        )
        assert self.energy(0.0) == pytest.approx(expect, rel=1e-12)

    def test_series_matches_direct_at_crossover(self):
        # just above and below the series switch the two branches agree
        lo = self.energy(0.999e-6 * self.dx)
        hi = self.energy(1.001e-6 * self.dx)
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_far_field(self):
        x = 100 * self.dx
        expect = G_NEWTON * self.M * self.spec.atomic_mass * (1 / self.dx - 1 / x)
        assert self.energy(x) == pytest.approx(expect, rel=1e-6)

    def test_even_monotone_bounded(self):
        xs = np.linspace(0, 8 * self.dx, 200)
        e = self.energy(xs)
        assert np.allclose(self.energy(-xs), e, rtol=1e-13)
        assert np.all(np.diff(e) >= 0)
        assert np.all(e <= G_NEWTON * self.M * self.spec.atomic_mass / self.dx)

    def test_curvature_is_m_omega_sn_squared(self):
        # central finite difference with step dx/100; frozen ratio 0.9999925
        h = self.dx / 100
        second = (self.energy(h) - 2 * self.energy(0.0) + self.energy(-h)) / h**2
        target = self.M * mat.omega_sn(self.spec) ** 2
        assert second / target == pytest.approx(0.9999925, abs=2e-6)
        assert second == pytest.approx(target, rel=1e-3)

    def test_vector_input(self):
        xs = np.array([0.0, self.dx, -self.dx])
        e = self.energy(xs)
        assert e.shape == (3,)
        assert e[1] == pytest.approx(e[2], rel=1e-13)

    @pytest.mark.parametrize(
        "xs",
        [2.5, np.empty(0), np.array([0.0, 0.5e-6, -0.999e-6, 1.001e-6, 1e-3, -0.3, 2.0, 40.0])],
        ids=["scalar", "empty", "across-series-switch"],
    )
    def test_erf_against_scipy(self, xs, monkeypatch):
        # positions in units of dx; the oracle is the same closed form with scipy's erf
        x = np.asarray(xs) * self.dx
        got = self.energy(x)
        monkeypatch.setattr(mat, "_erf", erf)
        ref = self.energy(x)
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)
