import pytest

from fatflats.schemes import star_configuration


@pytest.fixture(scope="session")
def star25():
    """The five-general-lines planar star, shared across modules."""
    return star_configuration(2, 2, 5, seed=1)
