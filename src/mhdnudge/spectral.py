"""Periodic fields on the unit square: transforms, projection and norms.

Fields live on the non-dimensional torus [0,1]^2 and are real, with the
convention

    u(x) = sum_k c_k exp(2*pi*i k.x),   c(-k) = c(k)^*,

so each field is stored as the rfft2 half spectrum of its samples divided
by n**2: the columns k2 = 0..n/2 of the coefficients, an (n, n/2 + 1)
array for a scalar and a (2, n, n/2 + 1) array for a vector, passed beside
the `Grid` it lives on.  That is the package's one coefficient layout; the
wavenumber arrays of `Grid` have the same shape.  The gradient is
multiplication by 2*pi*i*k, and the zero mode is kept at zero (the
governing equations assume zero space average).

Each mode of columns 1..n/2 - 1 stands for itself and its conjugate mirror
-k, so Parseval weights |c_k|^2 by 2 there and by 1 on column 0 and on the
Nyquist column n/2: ||u||_L2^2 = sum w_k |c_k|^2 (`parseval_sq`).

A divergence-free vector field is the curl 2*pi*i*(-k2, k1)*psi of a
stream function psi (`velocity`); `stream_function` gives the psi of a
field's Leray projection.  The steppers evolve stream functions, so the
per-mode operators on vectors (`leray_project_coef`, `dealias_coef`) serve
only the random fields and the tests, and the advection dealiases and
projects through the tables of `Grid.curl_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform n x n collocation grid on [0,1]^2, n even and >= 8."""

    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid size must be >= 8, got {self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"grid size must be even, got {self.n}")

    @property
    def cutoff(self) -> int:
        """Dealiasing cutoff: modes with max(|k1|,|k2|) > cutoff are dropped."""
        return self.n // 3

    @property
    def half_width(self) -> int:
        """Columns of the half spectrum, k2 = 0..n/2."""
        return self.n // 2 + 1

    @cached_property
    def k1(self) -> np.ndarray:
        k = np.fft.fftfreq(self.n, 1.0 / self.n)
        return np.broadcast_to(k[:, None], (self.n, self.half_width)).copy()

    @cached_property
    def k2(self) -> np.ndarray:
        """fftfreq's k2 = 0..n/2 - 1, then -n/2 on the Nyquist column."""
        k = np.fft.fftfreq(self.n, 1.0 / self.n)[: self.half_width]
        return np.broadcast_to(k[None, :], (self.n, self.half_width)).copy()

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.k1 ** 2 + self.k2 ** 2

    @cached_property
    def ksq_sq(self) -> np.ndarray:
        return self.ksq ** 2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        c = self.cutoff
        return (np.abs(self.k1) <= c) & (np.abs(self.k2) <= c)

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with the zero mode mapped to 0."""
        out = np.zeros_like(self.ksq)
        nz = self.ksq > 0
        out[nz] = 1.0 / self.ksq[nz]
        return out

    @cached_property
    def curl_weights(self) -> tuple:
        """(V, W), the read-only tables of the curl-form advection on the
        band k2 = 0..cutoff, zero past the dealias cutoff.  V (2, n,
        cutoff + 1), complex, is 2 pi i (-k2, k1): it gives the dealiased
        velocity of a stream function.  W (3, n, 2 (cutoff + 1)) is
        (k1^2, k2^2, k1 k2) / (n^2 |k|^2), zero at k = 0, on the float64
        view of the band (`view_weights`).
        """
        c = self.cutoff + 1
        k1, k2 = self.k1[:, :c], self.k2[:, :c]
        keep = self.dealias_mask[:, :c]
        V = np.stack([-k2, k1]) * (TWO_PI * 1j * keep)
        W = view_weights(np.stack([k1 * k1, k2 * k2, k1 * k2])
                         * (self.inv_ksq[:, :c] * keep / self.n ** 2))
        for table in (V, W):
            table.setflags(write=False)
        return V, W

    def points(self):
        x = np.arange(self.n) / self.n
        return np.meshgrid(x, x, indexing="ij")


def view_weights(table: np.ndarray) -> np.ndarray:
    """A real (..., n, w) per-mode table for the float64 view of a complex
    half spectrum: each mode's weight once for its real and once for its
    imaginary part, so that its product with the view neither casts nor
    allocates."""
    return np.repeat(table, 2, axis=-1)


def divergence_defect(grid: Grid, coef: np.ndarray) -> float:
    """max_k |k . c_k|, which is 0 for exactly divergence-free fields."""
    d = grid.k1 * coef[0] + grid.k2 * coef[1]
    return float(np.max(np.abs(d)))


def velocity(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """The divergence-free field 2 pi i (-k2, k1) psi of (..., n, n/2 + 1)
    stream functions psi, as a new (..., 2, n, n/2 + 1) array."""
    return np.stack([-grid.k2 * psi, grid.k1 * psi], axis=-3) * (TWO_PI * 1j)


def stream_function(grid: Grid, coef: np.ndarray,
                    nyquist: bool = False) -> np.ndarray:
    """The stream function psi of P[c] = 2 pi i (-k2, k1) psi, the Leray
    projection of a (..., 2, n, n/2 + 1) half spectrum c, as a new
    (..., n, n/2 + 1) array: (k1 c2 - k2 c1) / (2 pi i |k|^2), zero at
    k = 0.

    Like `leray_project_coef`, it is zero on the Nyquist row and column,
    unless `nyquist`: then `velocity` of it is c at every mode of a
    divergence-free c, and a state round-trips whole.
    """
    psi = grid.k1 * coef[..., 1, :, :]
    psi -= grid.k2 * coef[..., 0, :, :]
    psi *= grid.inv_ksq / (TWO_PI * 1j)
    if not nyquist:
        psi[..., grid.n // 2, :] = 0.0
        psi[..., grid.n // 2] = 0.0
    return psi


# ---------------------------------------------------------------------------
# transforms


def forward_transform(grid: Grid, samples: np.ndarray):
    """Physical samples (..., n, n) -> (half spectrum, removed mean)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-2:] != (grid.n, grid.n):
        raise ValueError(
            f"sample array {samples.shape} does not match grid n={grid.n}"
        )
    coef = np.fft.rfft2(samples) / grid.n ** 2
    mean = coef[..., 0, 0].real.copy()
    coef[..., 0, 0] = 0.0
    return coef, mean


# ---------------------------------------------------------------------------
# Leray projection and dealiasing (exact per retained mode)


def leray_project_coef(grid: Grid, coef: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """c -> c - k (k.c)/|k|^2 on raw (..., 2, n, w) coefficients, the
    first w columns of the half spectrum: the component axis is third from
    last, so a stacked (v, w) pair is projected by one call on its
    (2, 2, n, w) view.  `out` may be coef itself.  It serves the random
    fields; the steppers project with `stream_function`.

    The Nyquist row k1 = n/2, and the Nyquist column k2 = n/2 when it is
    among the w, are set to zero: each such mode stands for both signs of
    n/2, so no single k projects it, and a projection with fftfreq's
    -n/2 would leave a field that is not the transform of a real one.
    """
    w = coef.shape[-1]
    k1, k2 = grid.k1[:, :w], grid.k2[:, :w]
    kd = (k1 * coef[..., 0, :, :] + k2 * coef[..., 1, :, :]) * grid.inv_ksq[:, :w]
    if out is None:
        out = np.empty_like(coef)
    np.subtract(coef[..., 0, :, :], k1 * kd, out=out[..., 0, :, :])
    np.subtract(coef[..., 1, :, :], k2 * kd, out=out[..., 1, :, :])
    nyq = grid.n // 2
    out[..., 0, 0] = 0.0
    out[..., nyq, :] = 0.0
    if w > nyq:
        out[..., nyq] = 0.0
    return out


def dealias_coef(grid: Grid, coef: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The 2/3-rule mask on the first coef.shape[-1] columns; `out` may be
    coef itself."""
    return np.multiply(coef, grid.dealias_mask[:, : coef.shape[-1]], out=out)


# ---------------------------------------------------------------------------
# norms (Parseval); scalars and vectors alike


def parseval_sq(coef: np.ndarray) -> np.ndarray:
    """The terms w_k |c_k|^2 of the squared L2 norm of a (..., n, n/2 + 1)
    half spectrum, with the Parseval weights w of its columns (2, and 1 on
    the first and the last)."""
    a = np.abs(coef)
    np.square(a, out=a)
    a[..., 1:-1] *= 2.0
    return a


def l2_norm(coef: np.ndarray) -> float:
    return float(np.sqrt(np.sum(parseval_sq(coef))))


# ---------------------------------------------------------------------------
# field construction


@lru_cache(maxsize=None)
def _band_shaping(n: int, decay: float, k_max: int) -> np.ndarray:
    """|k|^-decay on the band 0 < |k| <= k_max, zero elsewhere, over the
    columns k2 = 0..k_max of an n x n grid.  Read-only, as it is shared by
    every call with the same arguments."""
    k = np.fft.fftfreq(n, 1.0 / n)
    kmag = np.sqrt(k[:, None] ** 2 + k[None, : k_max + 1] ** 2)
    shaping = np.zeros_like(kmag)
    band = (kmag > 0) & (kmag <= k_max)
    shaping[band] = kmag[band] ** (-decay)
    shaping.setflags(write=False)
    return shaping


def _band_noise(grid: Grid, seed, shape: tuple, decay: float,
                k_max: int | None, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of Gaussian noise samples of `shape` (..., n, n),
    shaped by |k|^-decay on the band 0 < |k| <= k_max (default: the dealias
    cutoff) and zero elsewhere; written to `out` when it is given.

    `seed` is one seed, or a sequence of seeds whose spectra stack on a new
    leading axis, each the spectrum of its seed alone.  The samples go to
    `work`, a real array of their shape, when it is given.  The rows are
    transformed, then the columns 0..k_max only: bitwise the band of rfft2.
    """
    k_max = grid.cutoff if k_max is None else k_max
    if k_max > grid.cutoff:
        raise ValueError(f"k_max={k_max} exceeds dealias cutoff {grid.cutoff}")
    seeds = [seed] if np.ndim(seed) == 0 else seed
    noise = np.empty(np.shape(seed) + shape) if work is None else work
    for x, s in zip(noise.reshape((len(seeds),) + shape), seeds):
        np.random.default_rng(s).standard_normal(out=x)
    coef = np.fft.rfft(noise, axis=-1, out=out)
    band = coef[..., : k_max + 1]
    np.fft.fft(band, axis=-2, out=band)
    coef[..., k_max + 1:] = 0.0
    band /= grid.n ** 2
    band *= _band_shaping(grid.n, decay, k_max)
    return coef


def random_divfree_field(
    grid: Grid, seed: int, energy_spectrum_decay: float = 2.0, k_max: int | None = None
) -> np.ndarray:
    """Deterministic random divergence-free (2, n, n/2 + 1) field with
    |k|^-decay amplitudes.

    Energy lives on modes 0 < |k| <= k_max; everything above is exactly zero.
    """
    coef = _band_noise(grid, seed, (2, grid.n, grid.n), energy_spectrum_decay,
                       k_max)
    return leray_project_coef(grid, coef, out=coef)


def random_scalar_field(
    grid: Grid, seed, energy_spectrum_decay: float = 1.0, k_max: int | None = None,
    out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Mean-zero random (n, n/2 + 1) scalar with band-limited |k|^-decay
    spectrum, written to `out` when it is given.  A sequence of seeds gives
    a (len(seeds), n, n/2 + 1) block of them, bitwise the fields of each
    seed alone.  `work`, a real (..., n, n) array, takes the Gaussian
    samples: a loop over many blocks then allocates no array that size."""
    return _band_noise(grid, seed, (grid.n, grid.n), energy_spectrum_decay, k_max,
                       out, work)
