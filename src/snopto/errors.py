"""Exception types shared across the package.

The command line maps these onto exit codes: DomainError and any other
runtime failure exit 1, ConfigError (and argparse usage errors) exit 2.
"""


class DomainError(ValueError):
    """A physical quantity is outside its valid domain.

    Examples: non-positive Debye-Waller factor, a requested dip spectrum
    that is not positive definite, a covariance the scalar pass of
    synth.covariance_factor cannot factor ("covariance is not positive
    definite").
    """


class ConfigError(ValueError):
    """A user-supplied setting is structurally invalid.

    Examples: unknown material name, negative decision threshold, time step
    too coarse for the resolution guard, demodulation band beyond Nyquist.
    """


class BoundedSearchError(RuntimeError):
    """A bracketed search exhausted its cap without finding a solution.

    Carries the diagnostics dict assembled by the search loop so callers
    can report how far it got.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
