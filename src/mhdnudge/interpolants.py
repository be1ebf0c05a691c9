"""Observation operators I_h, their inequality verification, and masks.

Three interpolant kinds are provided:

* ``spectral`` - projection onto modes with max(|k1|,|k2|) <= 1/h (type 1)
* ``volume``   - cellwise mean over a (1/h)^2 partition          (type 1)
* ``nodal``    - bilinear interpolation of (1/h)^2 node samples  (type 2)

All three act on the Fourier coefficients directly, with no transform.
Volume and nodal I_h are linear and commute with shifts by whole cells of
the m x m node lattice (m = 1/h, s = n/m points per cell), so a mode k only
mixes with its aliases k + m j.  On an n x n grid

    I_h c = post * tile(fold(pre * c)),

where ``fold`` sums each mode's aliases onto the m x m lattice and
``tile`` repeats the lattice over the n x n modes.  With the box weight
B(k) = (1/s) sum_{r<s} exp(2 pi i k r/n), the DFT of an s-point cell mean:

* volume: pre = B(k1) B(k2), post = conj(pre) - mean over the cell, then
  constant on the cell;
* nodal:  pre = 1, post = F(k1) F(k2) with the Fejer weight
  F(k) = |B(k)|^2 = (sin(pi k s/n) / (s sin(pi k/n)))^2, the DFT of the
  discrete periodic hat - sample at the nodes, then interpolate;
* spectral: s = 1 (no fold), post = the mode mask.

The zero mode of the result is set to 0.

Type 1 satisfies  ||u - I_h u|| <= c1 h ||grad u||; type 2 satisfies
||u - I_h u|| <= c2 h ||grad u|| + c3 h^2 ||Lap u||.  The constants are
empirical: measured over random band-limited samples and inflated 5%
before being stored (they feed sufficient-condition calculators, where an
underestimate would be unsound).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from .spectral import (
    Grid,
    SpectralScalar,
    h1_seminorm,
    h2_seminorm,
    l2_norm,
    random_scalar_field,
)

SPECTRAL = "spectral"
VOLUME = "volume"
NODAL = "nodal"
_KINDS = (SPECTRAL, VOLUME, NODAL)

MASK_ALL = "all"
MASK_FIRST = "first"
MASK_V_ONLY = "v-only"
# extensions used by the negative-control / exploratory scenarios: observe
# only the original magnetic variable b = (v-w)/2, or only u = (v+w)/2
MASK_B_ONLY = "b-only"
MASK_U_ONLY = "u-only"
MASKS = (MASK_ALL, MASK_FIRST, MASK_V_ONLY, MASK_B_ONLY, MASK_U_ONLY)


@dataclass(frozen=True)
class InterpolantSpec:
    kind: str
    h: float
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown interpolant kind {self.kind!r}")
        if not 0.0 < self.h <= 1.0:
            raise ValueError(f"resolution h must lie in (0, 1], got {self.h}")
        inv = 1.0 / self.h
        if abs(inv - round(inv)) > 1e-9:
            raise ValueError(f"1/h must be an integer, got h={self.h}")

    @property
    def type_class(self) -> int:
        return 2 if self.kind == NODAL else 1

    @property
    def resolution(self) -> int:
        """Number of cells/modes per axis, 1/h."""
        return int(round(1.0 / self.h))

    def with_constants(self, **kw) -> "InterpolantSpec":
        return replace(self, **kw)


def _check_grid(spec: InterpolantSpec, grid: Grid):
    if spec.kind in (VOLUME, NODAL) and grid.n % spec.resolution != 0:
        raise ValueError(
            f"1/h={spec.resolution} must divide the grid size n={grid.n}"
        )


@lru_cache(maxsize=None)
def _weights(kind: str, n: int, resolution: int):
    """(m, pre, post) of I_h on an n x n grid (see the module docstring).

    `pre` is None where it is 1.  The arrays are shared by every call with
    the same arguments, so they are read-only.
    """
    k = np.fft.fftfreq(n, 1.0 / n)
    if kind == SPECTRAL:
        keep = np.abs(k) <= resolution
        m, pre, post = n, None, np.outer(keep, keep)
    else:
        m = resolution
        s = n // m
        box = np.exp(2j * np.pi * np.outer(k, np.arange(s)) / n).mean(axis=1)
        if kind == VOLUME:
            pre = np.outer(box, box)
            post = pre.conj()
        else:  # NODAL
            fejer = np.abs(box) ** 2
            pre, post = None, np.outer(fejer, fejer)
    for w in (pre, post):
        if w is not None:
            w.setflags(write=False)
    return m, pre, post


def apply_interpolant_coef(spec: InterpolantSpec, grid: Grid,
                           coef: np.ndarray) -> np.ndarray:
    """I_h on raw coefficients; supports stacked leading axes.

    Complex-linear: on the coefficients of a real field it returns those of
    a real field.
    """
    _check_grid(spec, grid)
    m, pre, post = _weights(spec.kind, grid.n, spec.resolution)
    s = grid.n // m
    if s == 1:
        out = coef * post
    else:
        x = coef if pre is None else coef * pre
        folded = x.reshape(*x.shape[:-2], s, m, s, m).sum(axis=(-4, -2))
        out = np.tile(folded, (s, s))
        out *= post
    out[..., 0, 0] = 0.0
    return out


def apply_interpolant(spec: InterpolantSpec, field: SpectralScalar) -> SpectralScalar:
    return SpectralScalar(field.grid,
                          apply_interpolant_coef(spec, field.grid, field.coef))


def apply_masked(spec: InterpolantSpec, mask: str, grid: Grid,
                 eta: np.ndarray, zeta: np.ndarray):
    """Observation-masked feedback from the state difference (eta, zeta).

    eta/zeta are raw (2, n, n) coefficient arrays of v - v~ and w - w~.
    Returns the raw (feedback_v, feedback_w) pair *before* the Leray
    projection and the gain mu are applied.
    """
    if mask == MASK_ALL:
        return (apply_interpolant_coef(spec, grid, eta),
                apply_interpolant_coef(spec, grid, zeta))
    if mask == MASK_FIRST:
        fv = np.zeros_like(eta)
        fw = np.zeros_like(zeta)
        fv[0] = apply_interpolant_coef(spec, grid, eta[0])
        fw[0] = apply_interpolant_coef(spec, grid, zeta[0])
        return fv, fw
    if mask == MASK_V_ONLY:
        return apply_interpolant_coef(spec, grid, eta), np.zeros_like(zeta)
    if mask == MASK_B_ONLY:
        obs = apply_interpolant_coef(spec, grid, 0.5 * (eta - zeta))
        return obs, -obs
    if mask == MASK_U_ONLY:
        obs = apply_interpolant_coef(spec, grid, 0.5 * (eta + zeta))
        return obs, obs
    raise ValueError(f"unknown observation mask {mask!r}")


# ---------------------------------------------------------------------------
# inequality verification


def _sample_fields(grid: Grid, n_samples: int, seed: int):
    for i in range(n_samples):
        yield random_scalar_field(grid, seed + i, energy_spectrum_decay=1.0)


def verify_type1_bound(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
                       seed: int = 0) -> float:
    """Empirical c1: max over samples of ||u - I_h u|| / (h ||grad u||)."""
    if spec.type_class != 1:
        raise ValueError(f"{spec.kind} is not a type-1 interpolant")
    worst = 0.0
    for u in _sample_fields(grid, n_samples, seed):
        res = l2_norm(SpectralScalar(
            grid, u.coef - apply_interpolant_coef(spec, grid, u.coef)))
        denom = spec.h * h1_seminorm(u)
        if denom > 0:
            worst = max(worst, res / denom)
    return worst


def verify_type2_bound(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
                       seed: int = 0):
    """Fit minimal (c2, c3) covering ||u-I_h u|| <= c2 h|grad u| + c3 h^2|Lap u|.

    Solved as a small linear program (minimize c2 + c3 subject to the
    per-sample constraints), then inflated 5%.
    """
    if spec.type_class != 2:
        raise ValueError(f"{spec.kind} is not a type-2 interpolant")
    rows = []
    for u in _sample_fields(grid, n_samples, seed):
        res = l2_norm(SpectralScalar(
            grid, u.coef - apply_interpolant_coef(spec, grid, u.coef)))
        a = spec.h * h1_seminorm(u)
        b = spec.h ** 2 * h2_seminorm(u)
        if a > 0 or b > 0:
            rows.append((a, b, res))
    A_ub = [(-a, -b) for a, b, _ in rows]
    b_ub = [-r for _, _, r in rows]
    sol = linprog(c=[1.0, 1.0], A_ub=A_ub, b_ub=b_ub, bounds=[(0, None), (0, None)])
    if not sol.success:
        raise RuntimeError(f"type-2 constant fit failed: {sol.message}")
    c2, c3 = 1.05 * sol.x[0], 1.05 * sol.x[1]
    return float(c2), float(c3)


def calibrate(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
              seed: int = 0) -> InterpolantSpec:
    """Populate the spec's empirical constants (inflated 5%)."""
    if spec.type_class == 1:
        c1 = 1.05 * verify_type1_bound(spec, grid, n_samples, seed)
        return spec.with_constants(c1=c1)
    c2, c3 = verify_type2_bound(spec, grid, n_samples, seed)
    return spec.with_constants(c2=c2, c3=c3)


def verification_report(spec: InterpolantSpec, grid: Grid, n_samples: int,
                        seed: int) -> dict:
    fitted = calibrate(spec, grid, n_samples, seed)
    out = {
        "kind": spec.kind,
        "h": spec.h,
        "type_class": spec.type_class,
        "n_samples": n_samples,
        "seed": seed,
    }
    names = ("c1",) if spec.type_class == 1 else ("c2", "c3")
    out.update({name: getattr(fitted, name) for name in names})
    return out
