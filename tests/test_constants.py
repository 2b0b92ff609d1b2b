"""The pinned physical constants against scipy.constants."""

import pytest

from snopto import constants

scipy_constants = pytest.importorskip("scipy.constants")
_SCIPY = tuple(int(v) for v in pytest.importorskip("scipy").__version__.split(".")[:2])


@pytest.mark.skipif(_SCIPY < (1, 15), reason="scipy before 1.15 reports CODATA 2018 values")
@pytest.mark.parametrize(
    "name, scipy_name",
    [("G_NEWTON", "G"), ("C_LIGHT", "c"), ("HBAR", "hbar"), ("K_B", "k"), ("AMU", "atomic_mass")],
)
def test_literal_equals_scipy(name, scipy_name):
    assert getattr(constants, name) == getattr(scipy_constants, scipy_name)
