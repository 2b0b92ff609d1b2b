"""Moment propagation: conservation laws, the two-frequency split, scaling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from snopto.constants import HBAR
from snopto.errors import ConfigError, DomainError
from snopto.feasibility import PRE_DESIGN, ExperimentConfig
from snopto.gaussian_dynamics import (
    GaussianState,
    ellipse_frequency,
    energy,
    evolve_moments,
    fft_peak_frequency,
    mean_frequency,
)
from snopto.response import OscillatorConfig

# A 200 g pendulum with a slow restoring force and a gravitational trap
# frequency two decades above it: the regime where the frequency split is
# cleanest.
GENERIC = OscillatorConfig(mass=0.2, omega_cm=2 * np.pi * 0.005, omega_sn=0.3592, gamma_m=0.0)
TRAP_ONLY = OscillatorConfig(mass=0.2, omega_cm=0.0, omega_sn=0.3592, gamma_m=0.0)
BARE = OscillatorConfig(mass=0.2, omega_cm=0.05, omega_sn=0.0, gamma_m=0.0)


def _drift_matrix(osc):
    """A of dz/dt = A z for z = (mean_x, mean_p, var_xx, cov_xp, var_pp)."""
    m = osc.mass
    a = np.zeros((5, 5))
    a[0, 1] = 1.0 / m
    a[1, 0] = -m * osc.omega_cm**2
    a[2, 3] = 2.0 / m
    a[3, 2] = -m * osc.omega_q**2
    a[3, 4] = 1.0 / m
    a[4, 3] = -2.0 * m * osc.omega_q**2
    return a


class TestState:
    def test_ground_state_saturates_uncertainty(self):
        s = GaussianState.ground(GENERIC)
        prod = s.var_xx * s.var_pp - s.cov_xp**2
        assert prod == pytest.approx((HBAR / 2) ** 2, rel=1e-12)

    def test_squeeze_preserves_product(self):
        s = GaussianState.ground(GENERIC).squeezed(0.7)
        prod = s.var_xx * s.var_pp - s.cov_xp**2
        assert prod == pytest.approx((HBAR / 2) ** 2, rel=1e-12)

    def test_displacement_leaves_covariance(self):
        g = GaussianState.ground(GENERIC)
        d = g.displaced(dx=1e-12, dp=3e-20)
        assert d.mean_x == 1e-12 and d.mean_p == 3e-20
        assert d.var_xx == g.var_xx and d.var_pp == g.var_pp

    def test_uncertainty_violation_rejected(self):
        g = GaussianState.ground(GENERIC)
        with pytest.raises(DomainError):
            GaussianState(0, 0, g.var_xx * 0.5, 0.0, g.var_pp * 0.5)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            GaussianState(0, 0, -1e-30, 0.0, 1e-40)

    def test_squeeze_rejects_tilted_state(self):
        g = GaussianState.ground(GENERIC)
        tilted = GaussianState(0, 0, g.var_xx * 2, g.var_xx * 0.1 * 0.2 * 0.36, g.var_pp * 2)
        with pytest.raises(DomainError):
            tilted.squeezed(0.1)

    def test_squeeze_refuses_subnormal_variances(self):
        # the default `dynamics` state: var_xx 7.24e-34 m^2 turns subnormal
        # past r = 316.0, var_pp 3.84e-36 past r = -313.4; every squeeze up
        # to the overflow at |r| = 354.9 is then refused alike
        g = GaussianState.ground(ExperimentConfig.build(**PRE_DESIGN).osc)
        tiny = np.finfo(float).tiny
        for r in (316.0, -313.4):
            s = g.squeezed(r)
            assert min(s.var_xx, s.var_pp) >= tiny
        for r in np.concatenate([np.arange(6321, 7098), -np.arange(6269, 7098)]) / 20:
            with pytest.raises(DomainError, match=r"^squeeze r = .* underflows the variances$"):
                g.squeezed(float(r))


class TestEnergy:
    def test_ground_state_energy_frozen(self):
        # Vacuum of the trapped oscillator at omega_q = 0.3592 rad/s with a
        # 200 g mass and no pendulum restoring force: hbar omega_q / 2.
        s = GaussianState.ground(TRAP_ONLY)
        assert energy(s, TRAP_ONLY) == pytest.approx(1.894010983332e-35, rel=1e-9)

    def test_energy_quadratic_in_amplitudes(self):
        base = GaussianState.ground(TRAP_ONLY).squeezed(0.3).displaced(dx=2e-16, dp=4e-18)
        double = GaussianState(
            base.mean_x * 2, base.mean_p * 2,
            base.var_xx * 4, base.cov_xp * 4, base.var_pp * 4,
        )
        assert energy(double, TRAP_ONLY) == pytest.approx(4 * energy(base, TRAP_ONLY), rel=1e-12)


class TestExactFlow:
    # evolve_moments against expm(A t) z0 at about 200 record times, the
    # first and the last among them, and across the first block edges.
    # Each column may be off by ERR (1 + omega_q t) eps of its scale (its
    # largest magnitude at those times): rounding the angle omega_q t costs
    # about omega_q t eps, and expm's scaling and squaring as much again.
    # Measured at up to 18 on these cases; the former RK4 records missed
    # by factors of 1e5 (2 h, default spacing) to 1e10 (1e5 s, coarsest).
    ERR = 64

    @pytest.mark.parametrize("osc,t_final,per_period,store_every,sn_weight", [
        pytest.param(GENERIC, 1e5, 100, 7, 0.5, id="generic-1e5s-coarsest-every7"),
        pytest.param(GENERIC, 1e5, 100, 1, 1.0, id="generic-1e5s-coarsest-every1-naive"),
        pytest.param(GENERIC, 7200.0, 1000, 7, 1.0, id="generic-2h-default-every7-naive"),
        pytest.param(GENERIC, 7200.0, 1000, 1, 0.5, id="generic-2h-default-every1"),
        pytest.param(BARE, 1e5, 1000, 7, 0.5, id="bare-1e5s-default-every7"),
        pytest.param(BARE, 7200.0, 100, 1, 1.0, id="bare-2h-coarsest-every1-naive"),
        pytest.param(TRAP_ONLY, 1e5, 100, 1, 0.5, id="trap-1e5s-coarsest-every1"),
        pytest.param(TRAP_ONLY, 7200.0, 1000, 7, 1.0, id="trap-2h-default-every7-naive"),
        # one record (fewer grid points than store_every) and two
        pytest.param(GENERIC, 0.05, 1000, 7, 0.5, id="generic-one-record-every7"),
        pytest.param(GENERIC, 0.2, 1000, 7, 1.0, id="generic-two-records-every7"),
    ])
    def test_records_match_expm(self, osc, t_final, per_period, store_every, sn_weight):
        dt = 2 * np.pi / osc.omega_q / per_period
        g = GaussianState.ground(osc)
        # squeezed, tilted (cov_xp != 0) and displaced
        s0 = GaussianState(2e-16, 1e-18, 3 * g.var_xx, g.var_xx * osc.mass * osc.omega_q, 1.5 * g.var_pp)
        traj = evolve_moments(s0, osc, t_final, dt=dt, sn_weight=sn_weight, store_every=store_every)
        n = int(np.ceil(t_final / dt)) // store_every + 1
        np.testing.assert_array_equal(traj.times, np.arange(n) * (dt * store_every))

        edges = np.array([4095, 4096, 8191, 8192])
        rows = np.union1d(np.linspace(0, n - 1, 200).round().astype(int), edges[edges < n])
        t = traj.times[rows]
        a = _drift_matrix(osc)
        z0 = np.array([s0.mean_x, s0.mean_p, s0.var_xx, s0.cov_xp, s0.var_pp])
        ref = np.array([expm(a * ti) @ z0 for ti in t])
        x, p, vxx, vpp = ref[:, 0], ref[:, 1], ref[:, 2], ref[:, 4]
        m = osc.mass
        ref_energy = (vpp + p**2) / (2 * m) + 0.5 * m * osc.omega_cm**2 * (vxx + x**2) \
            + sn_weight * m * osc.omega_sn**2 * vxx
        ref = np.column_stack([ref, ref_energy])
        got = np.column_stack([traj.mean_x, traj.mean_p, traj.var_xx, traj.cov_xp, traj.var_pp, traj.energy])[rows]

        bound = self.ERR * np.finfo(float).eps * (1 + osc.omega_q * t)[:, None] * np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref) <= bound)


class TestConservation:
    def test_energy_conserved_over_hundred_periods(self):
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.5).displaced(dx=1e-16, dp=2e-18)
        traj = evolve_moments(s0, GENERIC, 100 * period, dt=period / 5000, store_every=50)
        drift = np.abs(traj.energy / traj.energy[0] - 1.0)
        assert drift.max() < 1e-9

    def test_symplectic_invariant_conserved(self):
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.5)
        traj = evolve_moments(s0, GENERIC, 100 * period, dt=period / 5000, store_every=50)
        inv = traj.var_xx * traj.var_pp - traj.cov_xp**2  # Vxx Vpp - Cxp^2
        assert np.abs(inv / inv[0] - 1.0).max() < 1e-9

    def test_naive_energy_not_conserved(self):
        # Counting the full trap potential M w_sn^2 Vxx instead of half of
        # it breaks dE/dt = 0; the defect shows up within a few periods.
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.5)
        traj = evolve_moments(s0, GENERIC, 10 * period, dt=period / 1000, sn_weight=1.0)
        swing = np.abs(traj.energy / traj.energy[0] - 1.0)
        assert swing.max() > 1e-3

    @settings(max_examples=10, deadline=None)
    @given(
        r=st.floats(min_value=-0.8, max_value=0.8),
        kx=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_energy_conserved_property(self, r, kx):
        period = 2 * np.pi / GENERIC.omega_q
        g = GaussianState.ground(GENERIC)
        s0 = g.squeezed(r).displaced(dx=kx * np.sqrt(g.var_xx))
        traj = evolve_moments(s0, GENERIC, 5 * period, dt=period / 1000, store_every=10)
        assert np.abs(traj.energy / traj.energy[0] - 1.0).max() < 1e-8


class TestDecoupling:
    def test_zero_mean_stays_zero(self):
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.4)
        traj = evolve_moments(s0, GENERIC, 5 * period, dt=period / 500)
        assert np.all(traj.mean_x == 0.0)
        assert np.all(traj.mean_p == 0.0)

    def test_covariance_blind_to_displacement(self):
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.4)
        s1 = s0.displaced(dx=1e-14, dp=1e-16)
        t0 = evolve_moments(s0, GENERIC, 5 * period, dt=period / 500)
        t1 = evolve_moments(s1, GENERIC, 5 * period, dt=period / 500)
        assert np.array_equal(t0.var_xx, t1.var_xx)
        assert np.array_equal(t0.cov_xp, t1.cov_xp)
        assert np.array_equal(t0.var_pp, t1.var_pp)


class TestFrequencies:
    def test_two_frequency_split(self):
        # The center of the packet swings at the pendulum frequency while
        # the uncertainty ellipse turns at the trap-stiffened one.
        period_cm = 2 * np.pi / GENERIC.omega_cm
        period_q = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.4).displaced(dx=1e-16)
        traj = evolve_moments(s0, GENERIC, 100 * period_cm, dt=period_q / 200)

        w_mean = mean_frequency(traj)
        w_ellipse = ellipse_frequency(traj, GENERIC)
        assert w_mean == pytest.approx(GENERIC.omega_cm, rel=1e-3)
        assert w_ellipse == pytest.approx(GENERIC.omega_q, rel=1e-3)
        # the split itself is an order of magnitude, far beyond tolerance
        assert w_ellipse / w_mean > 10

    def test_ellipse_frequency_from_variance_record(self):
        # var_xx oscillates at twice the rotation rate of the ellipse
        period_cm = 2 * np.pi / GENERIC.omega_cm
        period_q = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.4)
        traj = evolve_moments(s0, GENERIC, 100 * period_cm, dt=period_q / 200)
        assert fft_peak_frequency(traj.times, traj.var_xx) / 2.0 == pytest.approx(GENERIC.omega_q, rel=1e-3)

    def test_frequencies_agree_without_trap(self):
        # With the trap off there is one frequency; a squeezed displaced
        # state must show it in both the mean and the ellipse to 0.01%.
        period = 2 * np.pi / BARE.omega_cm
        w = BARE.omega_cm  # the vacuum at the pendulum frequency
        vacuum = GaussianState(0.0, 0.0, HBAR / (2 * BARE.mass * w), 0.0, HBAR * BARE.mass * w / 2)
        s0 = vacuum.squeezed(0.5).displaced(dx=1e-15)
        traj = evolve_moments(s0, BARE, 300 * period, dt=period / 200)
        w_mean = mean_frequency(traj)
        w_ellipse = ellipse_frequency(traj, BARE)
        assert w_mean == pytest.approx(BARE.omega_cm, rel=1e-4)
        assert w_ellipse == pytest.approx(BARE.omega_cm, rel=1e-4)
        assert w_mean == pytest.approx(w_ellipse, rel=1e-4)

    def test_free_mass_ballistic_mean_rotating_ellipse(self):
        # No pendulum: the mean coasts while the ellipse still turns at the
        # trap frequency.
        period = 2 * np.pi / TRAP_ONLY.omega_q
        x0, p0 = 1e-9, 1e-12
        s0 = GaussianState.ground(TRAP_ONLY).squeezed(0.5).displaced(dx=x0, dp=p0)
        traj = evolve_moments(s0, TRAP_ONLY, 20 * period, dt=period / 500)
        assert np.allclose(traj.mean_p, p0, rtol=1e-12)
        expected_x = x0 + p0 * traj.times / TRAP_ONLY.mass
        assert np.allclose(traj.mean_x, expected_x, rtol=1e-10)
        assert ellipse_frequency(traj, TRAP_ONLY) == pytest.approx(TRAP_ONLY.omega_sn, rel=1e-6)


class TestIntegratorGuards:
    def test_coarse_step_rejected(self):
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC)
        with pytest.raises(ConfigError):
            evolve_moments(s0, GENERIC, 10 * period, dt=period / 50)

    def test_nonpositive_time_rejected(self):
        s0 = GaussianState.ground(GENERIC)
        with pytest.raises(ConfigError):
            evolve_moments(s0, GENERIC, 0.0)

    def test_bad_store_every_rejected(self):
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC)
        with pytest.raises(ConfigError):
            evolve_moments(s0, GENERIC, period, store_every=0)

    def test_decimation_matches_dense_run(self):
        period = 2 * np.pi / GENERIC.omega_q
        s0 = GaussianState.ground(GENERIC).squeezed(0.3).displaced(dx=1e-15)
        dense = evolve_moments(s0, GENERIC, 10 * period, dt=period / 1000)
        thin = evolve_moments(s0, GENERIC, 10 * period, dt=period / 1000, store_every=10)
        n = thin.times.size
        assert np.allclose(thin.times, dense.times[::10][:n], rtol=0, atol=1e-9)
        scale = np.abs(dense.mean_x).max()
        assert np.allclose(thin.mean_x, dense.mean_x[::10][:n], rtol=0, atol=1e-8 * scale)
        assert np.allclose(thin.var_xx, dense.var_xx[::10][:n], rtol=1e-8)

    # sha256 of every returned array's bytes (times, the five moments,
    # energy), per (store_every, n_rec): 4637 and 5796 records span two
    # 4096-row blocks, 663 fill part of one
    FROZEN = {
        (1, 4637): "147cd8cbaedbd4c55f80a1c0e68a7539038a768e8798cb353fcb3148e340a5cd",
        (3, 5796): "79217fa1b0eb8820a585c79ccf644887459dd74a77288841e39afc2be4b5a1b6",
        (7, 663): "f8efa7a5f3e3fcd89d92ebb9693badeb95a0e331981648155b0be22582c19ba0",
    }

    @pytest.mark.parametrize("store_every,n_rec", list(FROZEN))
    def test_records_frozen(self, store_every, n_rec):
        dt = 2 * np.pi / GENERIC.omega_q / 1000
        s0 = GaussianState.ground(GENERIC).squeezed(0.3).displaced(dx=2e-16, dp=1e-18)
        t_final = (n_rec * store_every - 1.5) * dt
        traj = evolve_moments(s0, GENERIC, t_final, dt=dt, store_every=store_every)
        assert traj.times.size == n_rec
        digest = hashlib.sha256()
        for name in ("times", "mean_x", "mean_p", "var_xx", "cov_xp", "var_pp", "energy"):
            digest.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
        assert digest.hexdigest() == self.FROZEN[store_every, n_rec]

    def test_fft_helper_needs_samples(self):
        with pytest.raises(ConfigError):
            fft_peak_frequency(np.arange(4.0), np.ones(4))

    def test_fft_helper_on_pure_tone(self):
        t = np.arange(60000) * 0.05
        w = 0.7
        assert fft_peak_frequency(t, np.cos(w * t + 0.3)) == pytest.approx(w, rel=1e-4)
