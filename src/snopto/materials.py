"""Crystal-lattice inputs: zero-point spread and the gravitational frequency scale.

A rigid crystal pins each atom to its lattice site with a zero-point spread
Delta x_zp that is small compared to the lattice constant. Gravity from the
surrounding lattice then acts on each atom like a harmonic trap whose
frequency depends only on the atom's mass and that spread,

    omega_sn = sqrt( G m / (6 sqrt(pi) Delta x_zp^3) ),

so the whole effect is summarized by two numbers per material. The spread is
extracted from the crystallographic Debye-Waller factor B with the standard
convention B = 8 pi^2 <u^2> per Cartesian direction, i.e.

    Delta x_zp = sqrt( B / (8 pi^2) ).

B values below are the 1 K (zero-point dominated) entries in angstrom^2;
atomic masses are standard-abundance atomic weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import AMU, G_NEWTON
from .errors import ConfigError, DomainError

_A2 = 1e-20  # angstrom^2 in m^2
# otypes fixes the result type, so an empty array needs no trial call
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class MaterialSpec:
    """Raw per-material inputs.

    atomic_mass and debye_waller_B are in SI (kg, m^2); density (kg/m^3) is
    carried along for table output but enters no formula here.
    """

    name: str
    atomic_mass: float
    debye_waller_B: float
    density: float
    theoretical: bool = False

    def __post_init__(self):
        if self.atomic_mass <= 0:
            raise DomainError(f"atomic_mass must be > 0, got {self.atomic_mass}")
        if self.debye_waller_B <= 0:
            raise DomainError(f"debye_waller_B must be > 0, got {self.debye_waller_B}")


def delta_x_zp(b: float) -> float:
    """Zero-point spread (m) from the Debye-Waller factor B (m^2)."""
    if b <= 0:
        raise DomainError(f"Debye-Waller B must be > 0, got {b}")
    return math.sqrt(b / (8.0 * math.pi**2))


def omega_sn(spec: MaterialSpec) -> float:
    """Gravitational trap frequency (rad/s) for one atom of the given material."""
    dx = delta_x_zp(spec.debye_waller_B)
    return math.sqrt(G_NEWTON * spec.atomic_mass / (6.0 * math.sqrt(math.pi) * dx**3))


def self_energy(x, total_mass: float, atomic_mass: float, dx_zp: float):
    """Gravitational self-energy (J) of the lattice displaced by x (m).

    Closed form G M m (1/Delta - erf(x / 2 Delta) / x) with Delta = dx_zp.
    Even in x, monotone in |x|, saturating at G M m / Delta. Near the origin
    the direct expression is 0/0, so below |x| < 1e-6 Delta the quadratic
    series is used instead:

        G M m [ (1 - 1/sqrt(pi)) / Delta + x^2 / (12 sqrt(pi) Delta^3) ]

    whose curvature is exactly total_mass * omega_sn^2. Accepts scalar or
    array x.
    """
    if dx_zp <= 0:
        raise DomainError(f"delta_x_zp must be > 0, got {dx_zp}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6 * dx_zp
    pref = G_NEWTON * total_mass * atomic_mass
    out[small] = pref * (
        (1.0 - 1.0 / math.sqrt(math.pi)) / dx_zp
        + x[small] ** 2 / (12.0 * math.sqrt(math.pi) * dx_zp**3)
    )
    xb = x[~small]
    out[~small] = pref * (1.0 / dx_zp - _erf(xb / (2.0 * dx_zp)) / xb)
    return out[0] if scalar else out


def _spec(name, mass_amu, b_a2, rho_g_cm3, theoretical=False):
    return MaterialSpec(
        name=name,
        atomic_mass=mass_amu * AMU,
        debye_waller_B=b_a2 * _A2,
        density=rho_g_cm3 * 1e3,
        theoretical=theoretical,
    )


# The seven built-in materials, ordered by omega_sn. B at 1 K in angstrom^2;
# density in g/cm^3. The Os entry is a theoretical Debye-Waller value (no
# measurement at 1 K), flagged accordingly.
BUILTIN = (
    _spec("Si", 28.0855, 0.1915, 2.33),
    _spec("Fe", 55.845, 0.12, 7.87),
    _spec("Ge", 72.630, 0.1341, 5.32),
    _spec("Nb", 92.90637, 0.1082, 8.57),
    _spec("Pt", 195.084, 0.0677, 21.45),
    _spec("W", 183.84, 0.0478, 19.25),
    _spec("Os", 190.23, 0.0323, 22.59, theoretical=True),
)


def get_material(name: str) -> MaterialSpec:
    for s in BUILTIN:
        if s.name.lower() == name.lower():
            return s
    known = ", ".join(s.name for s in BUILTIN)
    raise ConfigError(f"unknown material {name!r}; built in: {known}")
