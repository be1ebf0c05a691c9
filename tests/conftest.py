import numpy as np
import pytest

from mhdnudge.dynamics import (
    AdvectionWork,
    ForcingSpec,
    Trajectory,
    advection,
    derive_elsasser_params,
    norms,
    trajectory_row,
)
from mhdnudge.interpolants import SPECTRAL, VOLUME, apply_masked
from mhdnudge.spectral import (
    Grid,
    l2_norm,
    leray_project_coef,
    parseval_sq,
    random_divfree_field,
    stream_function,
    velocity,
)


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
    """L X = -4 pi^2 |k|^2 (alpha X + beta S X) of a stacked (v, w) X,
    vectors (4, n, w) or stream functions (2, n, w), the first w columns of
    the spectrum, S swapping v and w."""
    ksq = grid.ksq[:, : X.shape[-1]]
    swapped = X.reshape((2, -1) + X.shape[1:])[::-1].reshape(X.shape)
    return -4.0 * np.pi ** 2 * ksq * (params.alpha * X + params.beta * swapped)


def state_l2(grid, X):
    """L2 norm of the (v, w) of a (2, n, n/2 + 1) stream function pair."""
    return float(np.hypot(*norms(grid, X)[:2]))


def vectors(grid, X):
    """The stacked (..., 4, n, n/2 + 1) vectors (v, w) of stream function
    pairs X (..., 2, n, n/2 + 1)."""
    return velocity(grid, X).reshape(X.shape[:-3] + (4,) + X.shape[-2:])


def nudging_oracle(config, grid, X):
    """mu P[masked I_h (v, w)] as stacked (4, n, n/2 + 1) vectors, for the
    stream function pair X, by the vector path: `apply_masked`, then
    `leray_project_coef`, then mu."""
    shape = (2, 2) + X.shape[-2:]
    fb = apply_masked(config.interpolant, config.mask, grid, vectors(grid, X))
    return config.mu * leray_project_coef(grid, fb.reshape(shape)).reshape(fb.shape)


def inner(a, b):
    """The L2 inner product of two (..., n, n/2 + 1) half spectra, by
    Parseval: each mode's Re(conj(a) b) weighed as in `parseval_sq`."""
    p = np.real(np.conj(a) * b)
    p[..., 1:-1] *= 2.0
    return float(np.sum(p))


def stream(grid, coef):
    """The stream functions psi of divergence-free (..., 2, n, n/2 + 1)
    fields, coef = 2 pi i (-k2, k1) psi, as `MhdStepper.set_state` stores
    them."""
    return stream_function(grid, coef, nyquist=True)


def full_band(grid, band):
    """An (..., n, cutoff + 1) band of `advection` as the (..., n, n/2 + 1)
    half spectrum that is zero past it."""
    out = np.zeros(band.shape[:-1] + (grid.half_width,), dtype=band.dtype)
    out[..., : band.shape[-1]] = band
    return out


def advect(grid, X):
    """`advection` of one (2, n, n/2 + 1) state, as its band and speed, or
    of an (S, 2, n, n/2 + 1) stack, as its bands and speeds, with work
    buffers of its own."""
    stack = X if X.ndim == 4 else X[None]
    bands, speeds = advection(grid, stack, AdvectionWork(grid, len(stack)))
    return (bands, speeds) if X.ndim == 4 else (bands[0], speeds[0])


def advected_fields(grid, V):
    """The bands P[(w.grad)v] and P[(v.grad)w] of an (S, 4, n, n/2 + 1)
    stack of pairs (v, w), from one batched `advection` call."""
    psi = stream(grid, V.reshape(V.shape[:-3] + (2, 2) + V.shape[-2:]))
    return vectors(grid, full_band(grid, advect(grid, psi)[0]))


def h1_seminorm(grid, coef):
    """||grad u|| of a (..., n, n/2 + 1) half spectrum, by Parseval."""
    return float(2 * np.pi * np.sqrt(np.sum(grid.ksq * parseval_sq(coef))))


def h2_seminorm(grid, coef):
    """||Lap u|| of a (..., n, n/2 + 1) half spectrum, by Parseval."""
    return float(4 * np.pi ** 2
                 * np.sqrt(np.sum(grid.ksq_sq * parseval_sq(coef))))


def inverse_transform(grid, coef):
    """Physical samples of a half spectrum, the inverse of forward_transform
    for a mean-zero field."""
    return np.fft.irfft2(coef, s=(grid.n, grid.n)) * grid.n ** 2


# ---------------------------------------------------------------------------
# full-spectrum oracles: the (..., n, n) layout the package used before the
# half spectrum became its only one


def full_spectrum(grid, half):
    """(..., n, n) coefficients of a real field from its columns k2 = 0..c,
    a (..., n, c + 1) array with c <= n/2.

    Columns k2 = -min(c, n/2 - 1)..-1 are the conjugate mirror
    c(k1, k2) = c(-k1, -k2)^*; the Nyquist column n/2, when given, is kept
    as it is, and every other column with |k2| > c is zero.
    """
    n = grid.n
    c = half.shape[-1] - 1
    m = min(c, n // 2 - 1)
    out = np.zeros(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., : c + 1] = half
    out[..., n - m:] = np.conj(half[..., -np.arange(n) % n, m:0:-1])
    return out


def full_wavenumbers(grid):
    """fftfreq's (k1, k2) over the n x n modes of the full spectrum."""
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    return np.meshgrid(k, k, indexing="ij")


def interpolant_full(spec, grid, coef):
    """I_h on full (..., n, n) spectra: post * tile(fold(pre * c)), the fold
    over all n x n modes (see `mhdnudge.interpolants`)."""
    n, m = grid.n, spec.resolution
    k = np.fft.fftfreq(n, 1.0 / n)
    if spec.kind == SPECTRAL:
        keep = np.abs(k) <= m
        out = coef * np.outer(keep, keep)
    else:
        s = n // m
        box = np.exp(2j * np.pi * np.outer(k, np.arange(s)) / n).mean(axis=1)
        if spec.kind == VOLUME:
            pre = np.outer(box, box)
            post = pre.conj()
        else:
            pre, post = 1.0, np.outer(np.abs(box) ** 2, np.abs(box) ** 2)
        x = coef * pre
        folded = x.reshape(*x.shape[:-2], s, m, s, m).sum(axis=(-4, -2))
        out = np.tile(folded, (s, s)) * post
    out[..., 0, 0] = 0.0
    return out


def record_trajectory(stepper, n_steps):
    """The Trajectory of n_steps advances of the stepper, one row per state."""
    rows = np.empty((n_steps + 1, 6))
    for i in range(n_steps + 1):
        rows[i] = trajectory_row(stepper)
        if i < n_steps:
            stepper.advance()
    return Trajectory(*rows.T)
