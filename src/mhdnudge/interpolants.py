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

The zero mode of the result is set to 0.  `_fold` is the one fold: I_h
uses it, and so does the verification, on the lattice alone.

Type 1 satisfies  ||u - I_h u|| <= c1 h ||grad u||; type 2 satisfies
||u - I_h u|| <= c2 h ||grad u|| + c3 h^2 ||Lap u||.  The constants are
empirical: fitted over random band-limited samples, then inflated 5% and
returned by `calibrate` (they feed sufficient-condition calculators, where
an underestimate would be unsound); a spec holds only its kind and h.  The
samples are drawn in blocks and only their band k2 = 0..cutoff is read:
the norms come from one weighted sum of |c_k|^2, and ||u - I_h u|| from
the fold of u on the m x m lattice, with no I_h u built (`_bound_samples`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import TWO_PI, Grid, random_scalar_field, view_weights

SPECTRAL = "spectral"
VOLUME = "volume"
NODAL = "nodal"
_KINDS = (SPECTRAL, VOLUME, NODAL)

MASK_ALL = "all"
MASK_FIRST = "first"
MASK_V_ONLY = "v-only"
# extensions used by the negative-control / exploratory scenarios: observe
# only the original magnetic variable b = (v - w)/2 or only u = (v + w)/2
MASK_B_ONLY = "b-only"
MASK_U_ONLY = "u-only"
MASKS = (MASK_ALL, MASK_FIRST, MASK_V_ONLY, MASK_B_ONLY, MASK_U_ONLY)

# calibrate returns the fitted constants times this factor
CALIBRATION_INFLATION = 1.05


@dataclass(frozen=True)
class InterpolantSpec:
    kind: str
    h: float

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


def check_grid(kind: str, n: int, resolution: int):
    """Raise ValueError unless a `kind` interpolant of 1/h = resolution
    fits an n x n grid: volume and nodal need 1/h to divide n.  This is the
    one place the rule is written: the tables of I_h (`_weights`) and the
    gates of a config and of a member call it."""
    if kind in (VOLUME, NODAL) and n % resolution != 0:
        raise ValueError(f"1/h={resolution} must divide the grid size n={n}")


@lru_cache(maxsize=None)
def _weights(kind: str, n: int, resolution: int):
    """(m, pre, post) of I_h on the (n, n/2 + 1) half spectrum (see the
    module docstring), once `check_grid` admits the grid.

    `pre` is None where it is 1.  The arrays are shared by every call with
    the same arguments, so they are read-only.
    """
    check_grid(kind, n, resolution)
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


def _fold(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """fold on the m x m lattice (see the module docstring) of the first w
    columns (..., n, w) of a half spectrum, w <= n/2 + 1, that is zero past
    them: each lattice point sums its aliases over the full plane."""
    s, w = n // m, x.shape[-1]
    lead = x.shape[:-2]
    # fold the rows, then mirror to the m x n lattice and fold its columns;
    # the Nyquist column n/2 stands for itself and has no mirror
    rows = x.reshape(lead + (s, m, w)).sum(axis=-3)
    lattice = np.zeros(lead + (m, n), dtype=np.complex128)
    lattice[..., :w] = rows
    v = min(w, n // 2) - 1
    np.conjugate(rows[..., -np.arange(m) % m, v:0:-1], out=lattice[..., n - v:])
    return lattice.reshape(lead + (m, s, m)).sum(axis=-2)


def apply_interpolant_coef(spec: InterpolantSpec, grid: Grid,
                           coef: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """I_h on (..., n, n/2 + 1) half spectra, with any leading axes.  The
    result is written to `out` when it is given, which may be coef itself;
    no temporary is larger than the m x n lattice of the fold.

    Complex-linear: on the coefficients of a real field it returns those of
    a real field.
    """
    m, pre, post = _weights(spec.kind, grid.n, spec.resolution)
    n, h = grid.n, grid.half_width
    s = n // m
    if s == 1:
        out = np.multiply(coef, post, out=out)
    else:
        if out is None:
            out = np.empty(coef.shape, dtype=np.complex128)
        x = coef if pre is None else np.multiply(coef, pre, out=out)
        folded = _fold(x, n, m)
        # tile the m x m lattice over the half spectrum, times post
        np.multiply(folded[..., np.arange(h) % m][..., None, :, :],
                    post.reshape(s, m, h),
                    out=out.reshape(coef.shape[:-2] + (s, m, h)))
    out[..., 0, 0] = 0.0
    return out


def _observed(mask: str, X: np.ndarray, buf: np.ndarray):
    """(Y, sign): the fields that `mask` observes in a stacked (..., 2 c, n, w)
    X = (v, w) of two c-component fields, velocities (c = 2) or stream
    functions (c = 1), as a (..., J, L, n, w) array of J fields with their
    first L components, and for J = 1 the factor that gives w's feedback
    from v's.

    `all` observes v and w, `first` the first components of both (L = 1; a
    stream function stands for its whole field), `v-only` v, and
    `b-only`/`u-only` b = (v - w)/2 or u = (v + w)/2, which are written
    straight to buf's second half, where w's feedback goes last; buf,
    shaped as X, may be X itself.  Y is a view of X or of buf.
    """
    pair = X.reshape(X.shape[:-3] + (2, -1) + X.shape[-2:])
    if mask == MASK_ALL:
        return pair, None
    if mask == MASK_FIRST:
        return pair[..., :1, :, :], None
    if mask == MASK_V_ONLY:
        return pair[..., :1, :, :, :], 0.0
    if mask in (MASK_B_ONLY, MASK_U_ONLY):
        observed = buf.reshape(pair.shape)[..., 1:, :, :, :]
        op = np.subtract if mask == MASK_B_ONLY else np.add
        op(pair[..., 0, :, :, :], pair[..., 1, :, :, :], out=observed[..., 0, :, :, :])
        observed *= 0.5
        return observed, -1.0 if mask == MASK_B_ONLY else 1.0
    raise ValueError(f"unknown observation mask {mask!r}")


def _fill_masked(out: np.ndarray, J: int, sign):
    """With one observed field (J = 1), w's feedback is sign times v's."""
    if J == 1:
        half = out.shape[-3] // 2
        np.multiply(out[..., :half, :, :], sign, out=out[..., half:, :, :])


def apply_masked(spec: InterpolantSpec, mask: str, grid: Grid,
                 X: np.ndarray) -> np.ndarray:
    """Observation-masked I_h of a stacked (4, n, n/2 + 1) vector difference
    X = (v - v~, w - w~), as a new (4, n, n/2 + 1) array.  The Leray
    projection and the gain mu are not applied.
    """
    out = np.empty(X.shape, dtype=np.complex128)
    Y, sign = _observed(mask, X, out)
    J, L = Y.shape[:2]
    pairs = out.reshape((2, 2) + X.shape[1:])[:J]
    apply_interpolant_coef(spec, grid, Y, out=pairs[:, :L])
    pairs[:, L:] = 0.0
    _fill_masked(out, J, sign)
    return out


@lru_cache(maxsize=None)
def _feedback_weights(kind: str, n: int, resolution: int):
    """(m, pre, W) of `projected_masked`, read-only.

    With e = (-k2, k1), the velocity of a stream function psi is
    2 pi i e psi, and the stream function of P[a] is
    e.a / (2 pi i |k|^2), zero at k = 0 and on the Nyquist row and column,
    which P drops.  So I_h's pre on velocity component l is pre e_l 2 pi i,
    and P after I_h's post is post e_l / (2 pi i |k|^2); both leave out the
    real factors 2 pi, which cancel, but not i: the fold conjugates the
    mirrored modes, so it is linear over the reals only.  For s > 1 pre
    (2, n, n/2 + 1) is i pre e and W (2, n, n/2 + 1) is -i post e/|k|^2,
    both complex.  For s = 1 the two are one per-mode gain, and
    W (2, n, n + 2) holds it for the first components, post k2^2/|k|^2,
    and for both, post, which is real, on the float64 view of the half spectrum
    (`spectral.view_weights`); pre is None.
    """
    m, pre, post = _weights(kind, n, resolution)
    grid = Grid(n)
    inv = grid.inv_ksq.copy()
    inv[n // 2] = 0.0
    inv[:, n // 2] = 0.0
    e = np.stack([-grid.k2, grid.k1])
    if m == n:
        # per mode, box = 1 and so post is real, also for volume
        assert not np.any(np.imag(post))
        pre, W = None, view_weights(
            np.stack([grid.k2 ** 2 * inv, inv > 0]) * np.real(post))
    else:
        pre = 1j * e if pre is None else 1j * e * pre
        W = -1j * e * inv * post
        pre.setflags(write=False)
    W.setflags(write=False)
    return m, pre, W


def projected_masked(spec: InterpolantSpec, mask: str, grid: Grid,
                     X: np.ndarray, mu, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """mu P[masked I_h velocity(X)], the Leray projection of `apply_masked`
    times mu, as the stream functions of its two fields, for a
    (2, n, n/2 + 1) pair X of stream functions; written to `out` when it is
    given, which may be X itself.

    X may also be a (G, 2, n, n/2 + 1) stack of G pairs, and mu a (G,)
    vector of gains, so that one call serves G nudged systems that share the
    operator: the result is then (G, 2, n, n/2 + 1), each bitwise what the
    call on its pair with its gain gives.  One pair with G gains (s = 1) is
    the same call with the pair broadcast over the gains: each result is
    bitwise what the call with its gain alone gives.

    The mask observes the stream functions Y of `_observed`, and I_h the
    first L velocity components of each, L = 1 for `first` and 2 else.
    With the tables of `_feedback_weights` the result is
    mu sum_l W_l tile(fold(pre_l Y)), mu scaling the m x m lattice, or for
    s = 1 mu times a per-mode gain.  The pre products of the fold go to
    `scratch` when it is given, a flat complex array of at least four
    planes per pair, and are allocated otherwise; no other temporary is as
    large.
    """
    m, pre, W = _feedback_weights(spec.kind, grid.n, spec.resolution)
    n, h = grid.n, grid.half_width
    s = n // m
    mu = np.asarray(mu, dtype=np.float64)
    lead = mu.shape
    if out is None:
        out = np.empty(lead + X.shape[-3:], dtype=np.complex128)
    # the observed fields go to out's first pair, shaped as X
    Y, sign = _observed(mask, X, out[(0,) * (out.ndim - X.ndim)])
    J, L = Y.shape[-4], 1 if mask == MASK_FIRST else 2
    mu = mu.reshape(lead + (1,) * 3)
    o = out[..., :J, :, :]
    if s == 1:
        o, y = o.view(np.float64), Y[..., 0, :, :].view(np.float64)
        np.multiply(W[L - 1], y, out=o)
        o *= mu
    else:
        shape = np.broadcast_shapes(pre[:L].shape, Y.shape)
        x = None if scratch is None else scratch[:math.prod(shape)].reshape(shape)
        lattice = _fold(np.multiply(pre[:L], Y, out=x), n, m)
        lattice *= mu[..., None].astype(np.complex128)
        np.einsum("lsab,...jlab->...jsab", W[:L].reshape(L, s, m, h),
                  lattice.take(np.arange(h) % m, axis=-1),
                  out=o.reshape(lead + (J, s, m, h)))
    _fill_masked(out, J, sign)
    return out


# ---------------------------------------------------------------------------
# inequality verification


# samples that `_bound_samples` draws at a time: at n = 128 the three kinds
# took 0.62 s with blocks of 2 against 0.69 s one sample at a time, and
# blocks of 4 or 8 took no less for 0.8 or 2.5 MB more peak memory
_SAMPLE_BLOCK = 2


@lru_cache(maxsize=None)
def _bound_weights(kind: str, n: int, resolution: int):
    """(W, Q) of `_bound_samples` on the band k2 = 0..cutoff of an n x n
    grid, read-only as they are shared.

    With the Parseval weights w, the columns of the (n (cutoff + 1), 3) W
    are w |k|^2, w |k|^4, and w |1 - post|^2 when I_h is per mode (s = 1),
    else w.  For s > 1 the (m, m) Q sums |post_k|^2 over each alias class of
    the full plane, k = 0 left out; Q is None for s = 1.
    """
    m, _, post = _weights(kind, n, resolution)
    grid = Grid(n)
    c = grid.cutoff + 1
    if m == n:
        last, Q = np.abs(1.0 - post[:, :c]) ** 2, None
    else:
        last = 1.0
        Q = _fold(np.abs(post) ** 2, n, m).real
        Q[0, 0] -= np.abs(post[0, 0]) ** 2
        Q.setflags(write=False)
    parseval = np.where(np.arange(c) == 0, 1.0, 2.0)[:, None]
    W = np.stack(np.broadcast_arrays(grid.ksq[:, :c], grid.ksq_sq[:, :c], last),
                 axis=-1) * parseval
    W = W.reshape(n * c, 3)
    W.setflags(write=False)
    return W, Q


def _bound_samples(spec: InterpolantSpec, grid: Grid, n_samples: int,
                   seed: int):
    """(a, b, r) over the sample fields u of seeds seed, seed + 1, ...:
    a = h ||grad u||, b = h^2 ||Lap u|| and r = ||u - I_h u||.

    The fields are drawn `_SAMPLE_BLOCK` at a time, and only their band
    k2 = 0..cutoff is read, as they are zero past it.  One product of |u|^2
    with the W of `_bound_weights` gives the squared norms, and r^2 too
    when I_h is per mode.  Otherwise I_h u = post F on each alias class l,
    with F = fold(pre u), and as u has no zero mode

        r^2 = ||u||^2 - 2 Re sum_l F_l conj(G_l) + sum_l |F_l|^2 Q_l,

    G = fold(conj(post) u) (= F for volume), all on the m x m lattice.
    """
    n, c = grid.n, grid.cutoff + 1
    m, pre, post = _weights(spec.kind, n, spec.resolution)
    W, Q = _bound_weights(spec.kind, n, spec.resolution)
    sums = np.empty((n_samples, 3))
    # one set of buffers serves every block: per-block temporaries of this
    # size made glibc give the top of the heap back and fault it in again
    block = min(n_samples, _SAMPLE_BLOCK)
    u = np.empty((block, n, grid.half_width), dtype=np.complex128)
    noise = np.empty((block, n, n))
    sq = np.empty((block, n, c))
    x = np.empty((block, n, c), dtype=np.complex128)
    # the bands of pre and of conj(post)
    pre = None if pre is None else pre[:, :c]
    post = post[:, :c].conj()
    for i in range(0, n_samples, _SAMPLE_BLOCK):
        j = min(i + _SAMPLE_BLOCK, n_samples)
        k = j - i
        band = random_scalar_field(grid, range(seed + i, seed + j),
                                   out=u[:k], work=noise[:k])[..., :c]
        np.abs(band, out=sq[:k])
        np.square(sq[:k], out=sq[:k])
        np.matmul(sq[:k].reshape(k, n * c), W, out=sums[i:j])
        if Q is not None:
            F = _fold(band if pre is None
                      else np.multiply(band, pre, out=x[:k]), n, m)
            G = F if spec.kind == VOLUME \
                else _fold(np.multiply(band, post, out=x[:k]), n, m)
            sums[i:j, 2] += np.sum(np.abs(F) ** 2 * Q - 2.0 * (F * G.conj()).real,
                                   axis=(-2, -1))
    a = spec.h * (TWO_PI * np.sqrt(sums[:, 0]))
    b = spec.h ** 2 * (TWO_PI ** 2 * np.sqrt(sums[:, 1]))
    return a, b, np.sqrt(np.maximum(sums[:, 2], 0.0))


def verify_type1_bound(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
                       seed: int = 0) -> float:
    """Empirical c1: max over samples of ||u - I_h u|| / (h ||grad u||)."""
    if spec.type_class != 1:
        raise ValueError(f"{spec.kind} is not a type-1 interpolant")
    a, _, r = _bound_samples(spec, grid, n_samples, seed)
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
    a, b, r = _bound_samples(spec, grid, n_samples, seed)
    keep = (a > 0) | (b > 0)
    return _type2_lp(a[keep], b[keep], r[keep])


def calibrate(spec: InterpolantSpec, grid: Grid, n_samples: int = 200,
              seed: int = 0) -> dict:
    """The spec's empirical constants, inflated by CALIBRATION_INFLATION:
    {"c1": c1} for type 1, {"c2": c2, "c3": c3} for type 2, the keywords
    of `diagnostics.theorem_thresholds`."""
    if spec.type_class == 1:
        return {"c1": CALIBRATION_INFLATION
                * verify_type1_bound(spec, grid, n_samples, seed)}
    c2, c3 = verify_type2_bound(spec, grid, n_samples, seed)
    return {"c2": CALIBRATION_INFLATION * c2, "c3": CALIBRATION_INFLATION * c3}


def verification_report(spec: InterpolantSpec, grid: Grid, n_samples: int,
                        seed: int) -> dict:
    """The spec, the sampling and the constants `calibrate` returns."""
    return {"kind": spec.kind, "h": spec.h, "type_class": spec.type_class,
            "n_samples": n_samples, "seed": seed,
            **calibrate(spec, grid, n_samples, seed)}
