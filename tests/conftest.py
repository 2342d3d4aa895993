import pytest
from hypothesis import settings

from precycles import build_sieve

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def table_small():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def table_large():
    return build_sieve(1_000_000)


@pytest.fixture(scope="session")
def table_medium():
    return build_sieve(100_000)
