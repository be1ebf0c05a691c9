"""Observation operators I_h, their inequality verification, and masks.

Three interpolant kinds are provided:

* ``spectral`` - projection onto modes with max(|k1|,|k2|) <= 1/h (type 1)
* ``volume``   - cellwise mean over a (1/h)^2 partition          (type 1)
* ``nodal``    - bilinear interpolation of (1/h)^2 node samples  (type 2)

All three act on the half spectrum (see `spectral`) directly, with no
transform.  Volume and nodal I_h are linear and commute with shifts by
whole cells of the m x m node lattice (m = 1/h, s = n/m points per cell),
so a mode k only mixes with its aliases k + m j.  On an n x n grid

    I_h c = post * tile(fold(pre * c)),

where ``fold`` sums each mode's aliases onto the m x m lattice and
``tile`` repeats the lattice over the modes.  The aliases of a mode lie in
both half planes, and the half spectrum holds those of the other half as
conjugate mirrors, so the fold goes in two steps: the rows fold onto an
m x (n/2 + 1) lattice, whose columns 1..n/2 - 1, conjugated with their
rows negated mod m, are the columns n/2 + 1..n - 1 of the m x n lattice;
its columns then fold onto m x m.  With the box weight
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
empirical: fitted over random band-limited samples, then inflated 5% by
`calibrate` before being stored (they feed sufficient-condition
calculators, where an underestimate would be unsound).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import from_elsasser
from .spectral import (
    Grid,
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
# only the original magnetic variable b or only u, as from_elsasser gives them
MASK_B_ONLY = "b-only"
MASK_U_ONLY = "u-only"
MASKS = (MASK_ALL, MASK_FIRST, MASK_V_ONLY, MASK_B_ONLY, MASK_U_ONLY)

# calibrate stores the fitted constants times this factor
CALIBRATION_INFLATION = 1.05


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


def _check_grid(spec: InterpolantSpec, grid: Grid):
    if spec.kind in (VOLUME, NODAL) and grid.n % spec.resolution != 0:
        raise ValueError(
            f"1/h={spec.resolution} must divide the grid size n={grid.n}"
        )


@lru_cache(maxsize=None)
def _weights(kind: str, n: int, resolution: int):
    """(m, pre, post) of I_h on the (n, n/2 + 1) half spectrum (see the
    module docstring).

    `pre` is None where it is 1.  The arrays are shared by every call with
    the same arguments, so they are read-only.
    """
    k = np.fft.fftfreq(n, 1.0 / n)
    h = n // 2 + 1
    if kind == SPECTRAL:
        keep = np.abs(k) <= resolution
        m, pre, post = n, None, np.outer(keep, keep[:h])
    else:
        m = resolution
        s = n // m
        box = np.exp(2j * np.pi * np.outer(k, np.arange(s)) / n).mean(axis=1)
        if kind == VOLUME:
            pre = np.outer(box, box[:h])
            post = pre.conj()
        else:  # NODAL
            fejer = np.abs(box) ** 2
            pre, post = None, np.outer(fejer, fejer[:h])
    for w in (pre, post):
        if w is not None:
            w.setflags(write=False)
    return m, pre, post


def apply_interpolant_coef(spec: InterpolantSpec, grid: Grid,
                           coef: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """I_h on (..., n, n/2 + 1) half spectra, with any leading axes.  The
    result is written to `out` when it is given, which may be coef itself;
    no temporary is larger than the m x n lattice of the fold.

    Complex-linear: on the coefficients of a real field it returns those of
    a real field.
    """
    _check_grid(spec, grid)
    m, pre, post = _weights(spec.kind, grid.n, spec.resolution)
    n, h = grid.n, grid.half_width
    s = n // m
    if s == 1:
        out = np.multiply(coef, post, out=out)
    else:
        if out is None:
            out = np.empty(coef.shape, dtype=np.complex128)
        x = coef if pre is None else np.multiply(coef, pre, out=out)
        lead = x.shape[:-2]
        # fold the rows, then mirror to the m x n lattice and fold its columns
        rows = x.reshape(lead + (s, m, h)).sum(axis=-3)
        lattice = np.empty(lead + (m, n), dtype=np.complex128)
        lattice[..., :h] = rows
        np.conjugate(rows[..., -np.arange(m) % m, h - 2:0:-1],
                     out=lattice[..., h:])
        folded = lattice.reshape(lead + (m, s, m)).sum(axis=-2)
        # tile the m x m lattice over the half spectrum, times post
        np.multiply(folded[..., np.arange(h) % m][..., None, :, :],
                    post.reshape(s, m, h), out=out.reshape(lead + (s, m, h)))
    out[..., 0, 0] = 0.0
    return out


def apply_masked(spec: InterpolantSpec, mask: str, grid: Grid, X: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Observation-masked I_h of a stacked (4, n, n/2 + 1) state difference
    X = (v - v~, w - w~), as one (4, n, n/2 + 1) array written to `out`
    when it is given, which may be X itself.  The Leray projection and the
    gain mu are not applied.
    """
    if out is None:
        out = np.empty(X.shape, dtype=np.complex128)
    if mask == MASK_ALL:
        apply_interpolant_coef(spec, grid, X, out=out)
    elif mask == MASK_FIRST:
        apply_interpolant_coef(spec, grid, X[::2], out=out[::2])
        out[1::2] = 0.0
    elif mask == MASK_V_ONLY:
        apply_interpolant_coef(spec, grid, X[:2], out=out[:2])
        out[2:] = 0.0
    elif mask == MASK_B_ONLY:
        apply_interpolant_coef(spec, grid, from_elsasser(X[:2], X[2:])[1],
                               out=out[:2])
        np.negative(out[:2], out=out[2:])
    elif mask == MASK_U_ONLY:
        apply_interpolant_coef(spec, grid, from_elsasser(X[:2], X[2:])[0],
                               out=out[:2])
        out[2:] = out[:2]
    else:
        raise ValueError(f"unknown observation mask {mask!r}")
    return out


# ---------------------------------------------------------------------------
# inequality verification


def _bound_samples(spec: InterpolantSpec, grid: Grid, n_samples: int,
                   seed: int, lap: bool):
    """(a, b, r) over the sample fields: a = h|grad u|, r = ||u - I_h u||,
    and b = h^2|Lap u| when `lap` is set (else None)."""
    a, r = np.empty(n_samples), np.empty(n_samples)
    b = np.empty(n_samples) if lap else None
    # Per-sample (n, n/2 + 1) temporaries made glibc give the top of the heap
    # back and fault it in again on the next sample whenever earlier
    # allocations left no hole below it: at n = 128 about 96 minor faults
    # per sample and a fifth of the run time.  Reused buffers take the
    # largest of them instead.
    shape = (grid.n, grid.half_width)
    u, residual = np.empty((2,) + shape, dtype=np.complex128)
    work = np.empty(shape)
    for i in range(n_samples):
        random_scalar_field(grid, seed + i, energy_spectrum_decay=1.0, out=u)
        np.subtract(u, apply_interpolant_coef(spec, grid, u, out=residual),
                    out=residual)
        r[i] = l2_norm(residual, work)
        a[i] = spec.h * h1_seminorm(grid, u, work)
        if lap:
            b[i] = spec.h ** 2 * h2_seminorm(grid, u, work)
    return a, b, r


def verify_type1_bound(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
                       seed: int = 0) -> float:
    """Empirical c1: max over samples of ||u - I_h u|| / (h ||grad u||)."""
    if spec.type_class != 1:
        raise ValueError(f"{spec.kind} is not a type-1 interpolant")
    a, _, r = _bound_samples(spec, grid, n_samples, seed, lap=False)
    return float(np.max(r[a > 0] / a[a > 0], initial=0.0))


def _type2_lp(a, b, r):
    """Exact optimum of  min c2 + c3  s.t.  a_i c2 + b_i c3 >= r_i,  c >= 0.

    Rows with b_i = 0 bound c2 from below.  Above that, the least feasible
    c3 is the convex, non-increasing upper envelope of c3 = 0 and the lines
    c3 = p_i - q_i c2 (p = r/b, q = a/b).  Walk it to the first point where
    its slope -q is >= -1, so ties take the smallest c2.  Each step moves
    to a line of smaller q (a tie gives a step of length 0), so there are
    at most N steps of O(N) work.
    """
    flat = b == 0
    c2 = float(np.max(r[flat] / a[flat], initial=0.0))
    p, q = (np.append(x[~flat] / b[~flat], 0.0) for x in (r, a))
    i = np.argmax(p - q * c2)
    while q[i] > 1.0:
        # the first line of smaller slope to meet line i takes over there
        cand = np.flatnonzero(q < q[i])
        meet = (p[i] - p[cand]) / (q[i] - q[cand])
        j = np.argmin(meet)
        c2, i = max(c2, float(meet[j])), cand[j]
    return c2, float(p[i] - q[i] * c2)


def verify_type2_bound(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
                       seed: int = 0):
    """Minimal (c2, c3) covering ||u-I_h u|| <= c2 h|grad u| + c3 h^2|Lap u|
    on every sample: the exact optimum of the LP `_type2_lp`."""
    if spec.type_class != 2:
        raise ValueError(f"{spec.kind} is not a type-2 interpolant")
    a, b, r = _bound_samples(spec, grid, n_samples, seed, lap=True)
    keep = (a > 0) | (b > 0)
    return _type2_lp(a[keep], b[keep], r[keep])


def calibrate(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
              seed: int = 0) -> InterpolantSpec:
    """Populate the spec's empirical constants, inflated by
    CALIBRATION_INFLATION."""
    if spec.type_class == 1:
        c1 = verify_type1_bound(spec, grid, n_samples, seed)
        return replace(spec, c1=CALIBRATION_INFLATION * c1)
    c2, c3 = verify_type2_bound(spec, grid, n_samples, seed)
    return replace(spec, c2=CALIBRATION_INFLATION * c2,
                   c3=CALIBRATION_INFLATION * c3)


def verification_report(spec: InterpolantSpec, grid: Grid, n_samples: int,
                        seed: int) -> dict:
    fitted = calibrate(spec, grid, n_samples, seed)
    names = ("c1",) if spec.type_class == 1 else ("c2", "c3")
    return {"kind": spec.kind, "h": spec.h, "type_class": spec.type_class,
            "n_samples": n_samples, "seed": seed,
            **{name: getattr(fitted, name) for name in names}}
