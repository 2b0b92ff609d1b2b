"""Physical constants, CODATA 2022 values.

Everything downstream should import from here so the whole package is
pinned to one self-consistent set. The literals equal what
scipy.constants reports from scipy 1.15 on; they are written out so the
numbers do not depend on which scipy, if any, is installed.
"""

G_NEWTON = 6.6743e-11  # m^3 kg^-1 s^-2
C_LIGHT = 299792458.0  # m/s, exact
HBAR = 1.0545718176461565e-34  # J s, exact (h / 2 pi)
K_B = 1.380649e-23  # J/K, exact
AMU = 1.66053906892e-27  # kg, atomic mass constant

__all__ = ["G_NEWTON", "C_LIGHT", "HBAR", "K_B", "AMU"]
