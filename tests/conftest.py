import numpy as np
import pytest

from mhdnudge.dynamics import (
    ForcingSpec,
    Trajectory,
    derive_elsasser_params,
    norms,
    trajectory_row,
)
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


def diffusion(grid, params, X):
    """L X = -4 pi^2 |k|^2 (alpha X + beta S X) of a stacked (4, n, w) X,
    the first w columns of the spectrum, S swapping v and w."""
    ksq = grid.ksq[:, : X.shape[-1]]
    return -4.0 * np.pi ** 2 * ksq * (params.alpha * X
                                       + params.beta * X[[2, 3, 0, 1]])


def half(grid, coef):
    """The half spectrum, columns k2 = 0..n/2, of a full coefficient array."""
    return coef[..., : grid.half_width]


def state_l2(grid, X):
    """L2 norm of a stacked (4, n, n/2 + 1) half spectrum (v, w)."""
    return float(np.hypot(*norms(grid, X)[:2]))


def inverse_transform(grid, coef):
    """Physical samples of raw coefficients, the inverse of forward_transform
    for a mean-zero field."""
    return np.real(np.fft.ifft2(coef)) * grid.n ** 2


def record_trajectory(stepper, n_steps):
    """The Trajectory of n_steps advances of the stepper, one row per state."""
    rows = np.empty((n_steps + 1, 6))
    for i in range(n_steps + 1):
        rows[i] = trajectory_row(stepper)
        if i < n_steps:
            stepper.advance()
    return Trajectory.from_rows(rows)
