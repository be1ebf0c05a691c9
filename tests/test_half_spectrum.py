"""The half-spectrum steppers against a full-spectrum oracle: a copy of the
IMEX stepper, the feedback and I_h on the full (4, n, n) spectrum, as the
package ran them before the rfft2 half spectrum (columns k2 = 0..n/2)
became its only layout."""

import itertools

import numpy as np
import pytest

from mhdnudge.dynamics import FOUR_PI_SQ, ForcingSpec
from mhdnudge.interpolants import (
    MASK_ALL,
    MASK_FIRST,
    NODAL,
    SPECTRAL,
    VOLUME,
    InterpolantSpec,
)
from mhdnudge.nudging import CoupledStepper, NudgingConfig
from mhdnudge.spectral import Grid, l2_norm

from conftest import (
    full_spectrum,
    full_wavenumbers,
    interpolant_full,
    normalized_field,
    state_l2,
    vectors,
)


def project_full(grid, X):
    """Leray projection of v and of w in a full (4, n, n) array, with the
    Nyquist row and column set to zero as leray_project_coef sets them."""
    n = grid.n
    k1, k2 = full_wavenumbers(grid)
    ksq = k1 ** 2 + k2 ** 2
    ksq[0, 0] = 1.0
    out = X.reshape(2, 2, n, n).copy()
    kd = (k1 * out[:, 0] + k2 * out[:, 1]) / ksq
    out[:, 0] -= k1 * kd
    out[:, 1] -= k2 * kd
    out = out.reshape(4, n, n)
    out[:, 0, 0] = 0.0
    out[:, n // 2] = 0.0
    out[..., n // 2] = 0.0
    return out


def nudging_full(config, grid, X):
    """mu P[I_h masked(X)] of a full (4, n, n) pair, for the masks all and
    first."""
    fb = interpolant_full(config.interpolant, grid, X)
    if config.mask == MASK_FIRST:
        fb[1::2] = 0.0
    return config.mu * project_full(grid, fb)


def advection_full(grid, X):
    """Unprojected, dealiased advection of a full (4, n, n) state."""
    n = grid.n
    n2 = n * n
    c = grid.cutoff
    mask = grid.dealias_mask[:, : c + 1]
    phys = np.fft.irfft2(X[..., : c + 1] * mask, s=(n, n)) * n2
    v, w = phys[:2], phys[2:]
    P = np.fft.rfft2(v[:, None] * w[None, :])[..., : c + 1] / n2
    k1, k2 = grid.k1[:, : c + 1], grid.k2[:, : c + 1]
    fac = 2.0 * np.pi * 1j
    band = np.empty((4, n, c + 1), dtype=np.complex128)
    band[:2] = fac * (k1 * P[:, 0] + k2 * P[:, 1])
    band[2:] = fac * (k1 * P[0] + k2 * P[1])
    band *= mask
    adv = full_spectrum(grid, band)
    adv[:, 0, 0] = 0.0
    return adv


def observation_blocks_full(grid, config):
    """(flat indices over the n x n modes, real 4x4 blocks) of the spectral
    nudging_full."""
    n = grid.n
    idx = np.flatnonzero(interpolant_full(config.interpolant, grid,
                                          np.ones((n, n))))
    blocks = np.empty((idx.size, 4, 4))
    for j in range(4):
        e = np.zeros((4, n, n), dtype=np.complex128)
        e[j] = 1.0
        col = nudging_full(config, grid, e).reshape(4, -1)
        blocks[:, :, j] = col[:, idx].real.T
    return idx, blocks


class FullStepper:
    """Crank-Nicolson diffusion, AB2 advection and forcing, with optional
    implicit damping blocks, on the full spectrum and an unmodulated
    forcing; it takes half spectra and rebuilds their full ones."""

    def __init__(self, grid, params, forcing, dt, damping=None):
        self.grid, self.dt = grid, dt
        k1, k2 = full_wavenumbers(grid)
        hk = 0.5 * dt * FOUR_PI_SQ * (k1 ** 2 + k2 ** 2)
        ha, hb = hk * params.alpha, hk * params.beta
        a0, b0 = 1.0 + ha, hb
        det = (a0 - b0) * (a0 + b0)
        self.p, self.q, self.a, self.b = 1.0 - ha, -hb, a0 / det, -b0 / det
        idx, blocks = damping or (np.zeros(0, dtype=np.intp), np.zeros((0, 4, 4)))
        eye = np.eye(4)
        A = (a0.ravel()[idx, None, None] * eye
             + b0.ravel()[idx, None, None] * eye[[2, 3, 0, 1]] + dt * blocks)
        self.idx, self.inv = idx, np.linalg.inv(A)
        self.forcing = project_full(
            grid, full_spectrum(grid, np.concatenate([forcing.f, forcing.g])))
        self.X = np.zeros((4, grid.n, grid.n), dtype=np.complex128)
        self.prev = None

    def set_state(self, v, w):
        self.X = full_spectrum(self.grid, np.concatenate([v, w]))
        self.X[:, 0, 0] = 0.0

    def advance(self, extra_ab=None, extra_plain=None):
        E = self.forcing - project_full(self.grid, advection_full(self.grid, self.X))
        if extra_ab is not None:
            E += extra_ab
        rhs = self.dt * E if self.prev is None else (
            1.5 * self.dt * E - 0.5 * self.dt * self.prev)
        self.prev = E
        X = self.X
        rhs += self.p * X
        rhs[:2] += self.q * X[2:]
        rhs[2:] += self.q * X[:2]
        if extra_plain is not None:
            rhs += self.dt * extra_plain
        out = self.a * rhs
        out[:2] += self.b * rhs[2:]
        out[2:] += self.b * rhs[:2]
        out.reshape(4, -1)[:, self.idx] = np.einsum(
            "sij,js->is", self.inv, rhs.reshape(4, -1)[:, self.idx])
        out[:, 0, 0] = 0.0
        self.X = out


def full_coupled_step(grid, config, ref, assim):
    if config.interpolant.kind == SPECTRAL:
        ref.advance()
        assim.advance(extra_plain=nudging_full(config, grid, ref.X))
    else:
        fb = nudging_full(config, grid, ref.X - assim.X)
        ref.advance()
        assim.advance(extra_ab=fb)


# volume and nodal cell width s = n h: even at n = 16 and 32, odd (3) at
# n = 48, where I_h puts energy on the Nyquist modes
CELL_WIDTH = {16: 4, 32: 4, 48: 3}


@pytest.mark.parametrize("n, kind, mask", list(itertools.product(
    (16, 32), (SPECTRAL, VOLUME, NODAL), (MASK_ALL, MASK_FIRST)))
    + [(48, VOLUME, MASK_ALL), (48, NODAL, MASK_ALL)])
def test_coupled_stepper_matches_full_spectrum(params, n, kind, mask):
    g = Grid(n)
    dt = 2e-3
    forcing = ForcingSpec(normalized_field(g, 100, 2.0, g.cutoff),
                          normalized_field(g, 101, 0.5, g.cutoff))
    config = NudgingConfig(50.0, InterpolantSpec(kind, CELL_WIDTH[n] / n), mask)
    cs = CoupledStepper(g, params, forcing, config, dt)
    damping = observation_blocks_full(g, config) if kind == SPECTRAL else None
    ref = FullStepper(g, params, forcing, dt)
    assim = FullStepper(g, params, forcing, dt, damping)
    init_ref = normalized_field(g, 0, 0.5, g.cutoff)
    init_assim = normalized_field(g, 1, 0.5, g.cutoff)
    for stepper, init in ((cs.reference, init_ref), (cs.members[0], init_assim),
                          (ref, init_ref), (assim, init_assim)):
        stepper.set_state(init, init.copy())
    for _ in range(20):
        cs.step()
        full_coupled_step(g, config, ref, assim)
    for got, full in ((cs.reference.X, ref.X), (cs.members[0].X, assim.X)):
        # the oracle's state is the coefficients of a real field, so its
        # half spectrum holds all of it
        want = full[..., : g.half_width]
        np.testing.assert_allclose(full_spectrum(g, want), full, rtol=0,
                                   atol=1e-15 * np.max(np.abs(full)))
        assert l2_norm(vectors(g, got) - want) <= 1e-13 * l2_norm(want)
    assert state_l2(g, cs.reference.X - cs.members[0].X) > 1e-3
