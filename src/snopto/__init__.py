"""Simulation and detection-planning toolkit for gravitationally self-trapped
optomechanics: predicted output spectra under competing measurement
prescriptions, Gaussian moment dynamics, stationary time-series synthesis,
likelihood-ratio decision statistics, and feasibility scaling laws.

The package root holds only the version. Import each layer by name
(`from snopto import spectra`), which loads that layer and the ones below it.
"""

__version__ = "0.1.0"
