import pytest

from mhdnudge.dynamics import ForcingSpec, derive_elsasser_params
from mhdnudge.spectral import Grid, l2_norm, random_divfree_field


@pytest.fixture(scope="session")
def grid32():
    return Grid(32)


@pytest.fixture(scope="session")
def params():
    return derive_elsasser_params(5.0, 5.0)


def normalized_field(grid, seed, amplitude, k_max=2):
    fld = random_divfree_field(grid, seed, 2.0, k_max)
    return fld * (amplitude / l2_norm(fld))


@pytest.fixture(scope="session")
def forcing32(grid32):
    f = normalized_field(grid32, 100, 2.0)
    g = normalized_field(grid32, 101, 0.5)
    return ForcingSpec(f, g)
