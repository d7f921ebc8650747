import pytest

from fatflats import interpolation
from fatflats.schemes import star_configuration


@pytest.fixture(scope="session")
def star25():
    """The five-general-lines planar star, shared across modules."""
    return star_configuration(2, 2, 5, seed=1)


@pytest.fixture(autouse=True)
def cold_geometry():
    """Each test starts with no scheme geometry kept from another.  A kept
    geometry holds the ``_least_cover`` and the spaces it was built with,
    so a test that patches ``_least_cover``, ``_Space`` or ``_peels``
    would otherwise pass or fail by the order of the tests."""
    interpolation._geometry.cache_clear()
