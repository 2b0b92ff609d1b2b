"""Shared reference configurations.

Two workhorse setups appear throughout the suite: a room-temperature
tungsten torsion pendulum probed hard enough to sit near its measurement
limit, and a cryogenic osmium one run softly. Frozen expected values in the
tests were computed for exactly these numbers. ORACLE_GRID is the set of
baseband laws on which the O(n) covariance factor and the likelihoods are
checked against dense Cholesky references.
"""

import math

import pytest

from snopto.response import OpticalConfig, OscillatorConfig
from snopto.synth import BasebandModel


# peak heights, dip depths, dt * gamma from finely sampled to the
# resolution limit, and record lengths down to the two-sample floor
ORACLE_MODELS = [BasebandModel("peak", amplitude=h, fwhm_gamma=1.0) for h in (0.5, 10.0, 1000.0)]
ORACLE_MODELS += [BasebandModel("dip", amplitude=d, fwhm_gamma=1.0) for d in (0.1, 0.62, 0.99)]
ORACLE_GRID = [
    pytest.param(m, dt, n, id=f"{m.kind}{m.amplitude:g}-dt{dt:g}-n{n}")
    for m in ORACLE_MODELS
    for dt in (0.01, 0.14, 0.5)
    for n in (2, 3, 300)
]


def tungsten_osc() -> OscillatorConfig:
    return OscillatorConfig(
        mass=0.2,
        omega_cm=2 * math.pi * 0.010,
        omega_sn=0.359,
        q=1e4,
        t0=300.0,
    )


def osmium_osc() -> OscillatorConfig:
    return OscillatorConfig(
        mass=0.2,
        omega_cm=2 * math.pi * 0.004,
        omega_sn=0.488,
        q=1e7,
        t0=1.0,
    )


def reference_optics(i_in=0.432) -> OpticalConfig:
    return OpticalConfig(i_in=i_in, transmissivity=1e-2, omega_c=2 * math.pi * 0.2e12)


@pytest.fixture
def w_osc():
    return tungsten_osc()


@pytest.fixture
def os_osc():
    return osmium_osc()
