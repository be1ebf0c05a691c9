"""2D MHD in Elsasser variables: parameters, forcing, IMEX time stepping.

The evolved system is

    dv/dt = alpha Lap v + beta Lap w - P[(w.grad)v] + P[f]
    dw/dt = alpha Lap w + beta Lap v - P[(v.grad)w] + P[g]

with v = u + b, w = u - b, alpha = (1/Re + 1/Rm)/2, the signed
beta = (1/Re - 1/Rm)/2 (negative when Re > Rm) and P the Leray projection
(pressure never appears).  The diffusion block has eigenvalues
alpha + beta = 1/Re and alpha - beta = 1/Rm, so the effective dissipation
is nu_bar = alpha - |beta| = min(1/Re, 1/Rm).  Time discretization:
Crank-Nicolson on the coupled diffusion block, Adams-Bashforth 2 on
advection and forcing, explicit Euler on the first step.

In 2D a divergence-free field is the curl of a stream function, so a
state is the pair (psi_v, psi_w) with v = 2 pi i (-k2, k1) psi_v and w
likewise (`spectral.velocity`): one (2, n, n/2 + 1) half spectrum (see
`spectral`), which no step can make divergent.  P[f] is the stream function
of f (`spectral.stream_function`), so no step projects.  The diffusion
block and an implicit damping term (the spectral nudging feedback) act on
each mode's (psi_v, psi_w) as a symmetric 2x2 matrix, so the implicit
solve is a closed form per mode.  Fields enter and leave as vectors (v, w):
`MhdStepper.set_state` and `MhdStepper.fields`.  Systems that share a grid,
parameters, forcing and dt are stepped together as the slots of a `Stack`,
on its one clock, with one numpy pass per operation over all of them; each
system is an `MhdStepper` on a slot, and a lone one is the stepper of a
stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Grid,
    divergence_defect,
    l2_norm,
    stream_function,
    velocity,
    view_weights,
)

FOUR_PI_SQ = 4.0 * np.pi ** 2
# admissible dt = CFL_SAFETY / (n * max speed)
CFL_SAFETY = 0.5
# energy_budget flags a residual above ENERGY_TOL * max(1, ||f||^2 + ||g||^2)
ENERGY_TOL = 1e-6
# spin_up stops once two window averages of the enstrophy differ by less
# than SPINUP_TOL relative, or at the first window end at or past
# SPINUP_MAX_TIME
SPINUP_TOL = 0.01
SPINUP_MAX_TIME = 40.0


# The constructor arguments are passed on as the exception's args, so that
# pickle (which calls cls(*args)) can rebuild them in a sweep's parent process.


class CflError(RuntimeError):
    def __init__(self, dt: float, admissible_dt: float):
        super().__init__(dt, admissible_dt)
        self.dt = dt
        self.admissible_dt = admissible_dt

    def __str__(self):
        return (f"CFL violation: dt={self.dt:.3e} exceeds admissible "
                f"dt={self.admissible_dt:.3e}")


class BlowUpError(RuntimeError):
    def __init__(self, t: float, step: int):
        super().__init__(t, step)
        self.t = t
        self.step = step

    def __str__(self):
        return f"non-finite state at t={self.t:.6g} (step {self.step})"


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ElsasserParams:
    Re: float
    Rm: float
    alpha: float
    beta: float

    @property
    def nu_bar(self) -> float:
        """alpha - |beta| = min(1/Re, 1/Rm), the effective dissipation."""
        return self.alpha - abs(self.beta)

    @property
    def window(self) -> float:
        """T = 1/(pi^2 nu_bar), the window length of spin-up and of the
        time-averaged bound checks."""
        return 1.0 / (np.pi ** 2 * self.nu_bar)


def derive_elsasser_params(Re: float, Rm: float) -> ElsasserParams:
    if Re <= 0 or Rm <= 0:
        raise ValueError(f"Reynolds numbers must be positive, got Re={Re}, Rm={Rm}")
    inv_re, inv_rm = 1.0 / Re, 1.0 / Rm
    alpha = 0.5 * (inv_re + inv_rm)
    beta = 0.5 * (inv_re - inv_rm)
    return ElsasserParams(Re, Rm, alpha, beta)


# ---------------------------------------------------------------------------
# Elsasser change of variables


def to_elsasser(u: np.ndarray, b: np.ndarray):
    """Original (u, b) -> Elsasser (v, w) = (u + b, u - b); the inverse is
    u = (v + w)/2, b = (v - w)/2."""
    return u + b, u - b


# ---------------------------------------------------------------------------
# forcing


@dataclass(frozen=True)
class Modulation:
    """Scalar envelope m(t) = offset + amplitude * exp(-rate * t), rate >= 0."""

    amplitude: float
    rate: float
    offset: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("modulation rate must be >= 0")

    def value(self, t: float) -> float:
        return self.offset + self.amplitude * np.exp(-self.rate * t)

    def limsup_abs(self) -> float:
        if self.rate > 0:
            return abs(self.offset)
        return abs(self.offset + self.amplitude)


@dataclass
class ForcingSpec:
    """Elsasser forcing pair (f, g) of (2, n, n/2 + 1) half spectra times a
    time envelope; the default envelope is exactly 1."""

    f: np.ndarray
    g: np.ndarray
    modulation: Modulation = Modulation(0.0, 0.0, 1.0)

    def f_coef(self, t: float) -> np.ndarray:
        return self.f * self.modulation.value(t)

    def g_coef(self, t: float) -> np.ndarray:
        return self.g * self.modulation.value(t)


def forcing_from_original(f1: np.ndarray, g1: np.ndarray,
                          modulation: Modulation = ForcingSpec.modulation
                          ) -> ForcingSpec:
    """Original-variable forcing (f1, g1) mapped by to_elsasser."""
    return ForcingSpec(*to_elsasser(f1, g1), modulation)


def grashof_number(forcing: ForcingSpec, params: ElsasserParams) -> float:
    """G = max{Re^2, Rm^2}/pi^2 * limsup_t max{||f+g||, ||f-g||}."""
    m = forcing.modulation.limsup_abs()
    n_sum = l2_norm(forcing.f + forcing.g) * m
    n_dif = l2_norm(forcing.f - forcing.g) * m
    return max(params.Re, params.Rm) ** 2 / np.pi ** 2 * max(n_sum, n_dif)


# ---------------------------------------------------------------------------
# right-hand side


class AdvectionWork:
    """Work buffers of `advection` for up to `size` systems.

    Per system they hold the dealiased velocities (v, w) of its stream
    functions in each form, the forward transforms of the three products
    M12, M21 and D, and the result.  A call on S systems works in the first
    S of each buffer and reads nothing an earlier call left there, so it
    allocates no state-sized array, and the bands it returns are views of
    `band`, valid until the next call.  One instance serves every system of
    a `Stack`, whose `reorder` moves each system's band with its state, so
    that a band read after a reorder is still the band of its slot's state.

    `velocity` is the velocity table of `Grid.curl_weights` repeated for
    each system, read-only and filled once: numpy buffers a product that
    broadcasts the table over the systems, and not one with a table of the
    product's own shape.  The views of the buffers that a call on S
    systems works in are made on the first call with that S (`views`) and
    kept, as the buffers never move: a stack's steps call with one S until
    a member retires, and a lone `advance` with S = 1.
    """

    def __init__(self, grid: Grid, size: int):
        n, c = grid.n, grid.cutoff + 1
        velocity = np.empty((size, 2, 2, n, c), dtype=np.complex128)
        velocity[...] = grid.curl_weights[0]
        self.velocity = velocity.reshape(size, 4, n, c)
        self.velocity.setflags(write=False)
        self.band = np.empty((size, 2, n, c), dtype=np.complex128)  # the result
        # (v1, v2, w1, w2) on the columns 0..cutoff, then the transforms of
        # M12, M21 and D there
        self.vel = np.empty((size, 4, n, c), dtype=np.complex128)
        self.cols = np.empty((size, 4, n, c), dtype=np.complex128)  # vel along x1
        self.phys = np.empty((size, 4, n, n))  # (v, w) on the grid
        # the squares of the components of v and w, then M12, M21, D and
        # a temporary
        self.products = np.empty((size, 4, n, n))
        # M12, M21 and D transformed along x2
        self.rows = np.empty((size, 3, n, grid.half_width),
                             dtype=np.complex128)
        self.speed_sq = np.empty(size)
        self._views = {}  # S -> views(S)

    def views(self, S: int) -> tuple:
        """The views of `advection` on the first S systems, made once per
        S: the band, the velocities in their (S, 2, 2, n, cutoff + 1) form
        and as they are, their table, the columns, the grid values (v1,
        v2, w1, w2), v and w, the products, each plane and its pairs, the
        squared speeds, the rows and their columns 0..cutoff, the
        transforms of (M12, M21, D), and the float64 views of M12, M21, D,
        (M12, M21), the band and its two planes."""
        if S not in self._views:
            c = self.band.shape[-1]
            band, vel, phys, products = (a[:S] for a in (self.band, self.vel,
                                                        self.phys, self.products))
            M, rows = vel[:, :3], self.rows[:S]
            Mf, sf = M.view(np.float64), band.view(np.float64)
            self._views[S] = (
                band, vel.reshape(S, 2, 2, *vel.shape[-2:]), vel,
                self.velocity[:S], self.cols[:S], phys, tuple(phys[:, k] for k in range(4)),
                phys[:, :2], phys[:, 2:], products,
                tuple(products[:, k] for k in range(4)), products[:, :2],
                products[:, 2:], products[:, :3], self.speed_sq[:S], rows,
                rows[..., :c], M, tuple(Mf[:, k] for k in range(3)), Mf[:, :2],
                sf, sf[:, 0], sf[:, 1])
        return self._views[S]


def advection(grid: Grid, X: np.ndarray, work: AdvectionWork):
    """The stream functions of P[(w.grad)v] and P[(v.grad)w] for each state
    (psi_v, psi_w) of the (S, 2, n, n/2 + 1) stack X, as the contiguous
    (S, 2, n, cutoff + 1) bands of their columns 0..cutoff, which are zero
    past the dealias cutoff and at k = 0 (so are the columns past it, which
    they leave out), and the list of the S physical-space maximum speeds of
    v and w.

    Each slot's band and speed are bitwise what the call on a stack of that
    state alone gives, so one call serves a reference and all its members.
    The velocities come from the columns 0..cutoff of X, dealiased.  A
    speed is one maximum over |v|^2 and |w|^2, so it is NaN or inf when
    either field holds a non-finite value in the columns 0..cutoff.

    Curl form: for divergence-free w, (w.grad)v_i = d_j M_ij with
    M_ij = v_i w_j, whose transform is A_i = 2 pi i k_j M_ij^.  A 2D field's
    projection keeps only its part along (-k2, k1), so P[A] =
    2 pi i (-k2, k1) s_A with the stream function
    s_A = (k1^2 M21 - k2^2 M12 + k1 k2 D)/|k|^2 and D = M22 - M11;
    P[(v.grad)w] is the same with M12 and M21 swapped.  Three products,
    M12, M21 and D, thus give both terms with their projection, through the
    tables of `Grid.curl_weights`, which also dealias.  Every array goes to
    a buffer of `work`, an AdvectionWork of at least S systems, through
    the views it keeps per S (`AdvectionWork.views`), so a call builds no
    view of its own but X's.  No operand of a pass overlaps its output,
    and no product mixes a real and a complex operand, so numpy makes no
    copy of an operand and casts none.  The velocity table is repeated
    per system, and the weights multiply one plane of M12, M21 or D at a
    time: numpy buffers a product that broadcasts a table over the
    systems' planes of pairs, or reverses one, at n = 64.  So from n = 64
    on a call allocates no array data.
    """
    (band, vel_pairs, vel, velocity, cols, phys, (v1, v2, w1, w2), v, w,
     products, (p0, p1, p2, p3), p01, p23, p012, speed_sq, rows, rows_band, M,
     (M12, M21, D), M12_21, s, s_A, s_B) = work.views(len(X))
    n, c = grid.n, grid.cutoff + 1
    _, (W11, W22, W12) = grid.curl_weights
    # the velocities: each stream function copied to both components, times
    # the table
    np.copyto(vel_pairs, X[:, :, None, :, :c])
    vel *= velocity
    # irfft2(s=(n, n)) of the columns 0..cutoff, which zero-pads the others,
    # as its two 1-D passes, unscaled: numpy 2.4.6 leaves wrong values in
    # irfft2's out array
    np.fft.ifft(vel, axis=-2, norm="forward", out=cols)
    np.fft.irfft(cols, n=n, axis=-1, norm="forward", out=phys)
    np.multiply(phys, phys, out=products)
    np.add(p0, p1, out=p0)  # |v|^2
    np.add(p2, p3, out=p1)  # |w|^2
    np.maximum.reduce(p01, axis=(1, 2, 3), out=speed_sq)
    # M12 and M21 one at a time: numpy buffers a product with w's components
    # reversed
    np.multiply(v1, w2, out=p0)
    np.multiply(v2, w1, out=p1)
    np.multiply(v, w, out=p23)  # M11, M22
    np.subtract(p3, p2, out=p2)  # D
    # rfft2 as its two 1-D passes, the second on the columns 0..cutoff only
    np.fft.rfft(p012, axis=-1, out=rows)
    np.fft.fft(rows_band, axis=-2, out=M)  # n^2 (M12, M21, D)^
    # (s_A, s_B) on the float64 views, with M weighted in place
    np.multiply(W11, M21, out=s_A)
    np.multiply(W11, M12, out=s_B)
    np.multiply(W22, M12, out=M12)
    np.multiply(W22, M21, out=M21)
    s -= M12_21
    np.multiply(W12, D, out=D)
    s_A += D
    s_B += D
    return band, [m ** 0.5 for m in speed_sq.tolist()]


def stack_pair(grid: Grid, first: np.ndarray, second: np.ndarray,
               name: str) -> np.ndarray:
    """(first, second) as one new (2, 2, n, n/2 + 1) array; each must be a
    finite (2, n, n/2 + 1) half spectrum.

    Every state, forcing, delta and eps enters a stepper through here, so a
    stepper starts finite, and `MhdStepper.advance` keeps it so."""
    shape = (2, grid.n, grid.half_width)
    for coef in (first, second):
        if np.shape(coef) != shape:
            raise ValueError(f"{name} must be {shape} half spectra, got an "
                             f"array of shape {np.shape(coef)}")
        if not np.isfinite(coef).all():
            raise ValueError(f"{name} must be finite, got a non-finite value")
    return np.stack([first, second])


@lru_cache(maxsize=None)
def _norm_tables(n: int) -> tuple:
    """The tables of `norms` on an n x n grid: the read-only
    (2, 2 n (n/2 + 1)) weights (4 pi^2 w |k|^2, 16 pi^4 w |k|^4) of the
    float64 view of a stream function's half spectrum, w the Parseval
    weights, and the scratch that holds the squares of the view of a
    state.  The scratch is shared by every call with this n, so `norms`
    must not run in two threads at once."""
    grid = Grid(n)
    w = np.where(np.arange(grid.half_width) % (n // 2) == 0, 1.0, 2.0)
    weights = view_weights(np.stack([FOUR_PI_SQ * w * grid.ksq,
                                     FOUR_PI_SQ ** 2 * w * grid.ksq_sq])
                           ).reshape(2, -1)
    weights.setflags(write=False)
    return weights, np.empty_like(weights)


def norms(grid: Grid, X: np.ndarray):
    """(l2_v, l2_w, h1_v, h1_w) of a state X = (psi_v, psi_w), a
    (2, n, n/2 + 1) half spectrum, as |v|^2 = 4 pi^2 |k|^2 |psi_v|^2 per
    mode: the squares of X's float64 view go to the scratch of
    `_norm_tables`, and one matrix product with its weights gives the four
    squared norms, with no temporary of X's size."""
    weights, sq = _norm_tables(grid.n)
    x = X.view(np.float64).reshape(2, -1)
    np.multiply(x, x, out=sq)
    (l2v, h1v), (l2w, h1w) = np.sqrt(sq @ weights.T)
    return float(l2v), float(l2w), float(h1v), float(h1w)


# ---------------------------------------------------------------------------
# IMEX stepper


def _implicit_operators(grid: Grid, params: ElsasserParams, dt: float,
                        damping: tuple | None):
    """Per-mode tables of one Crank-Nicolson step with implicit damping D,
    on the float64 view of a state (`spectral.view_weights`).

    L = -4 pi^2 |k|^2 (alpha I + beta S), where S swaps psi_v and psi_w,
    so I + dt/2 L = p I + q S.  D is [[dv, ds], [ds, dw]] at each mode, so
    I - dt/2 L + dt D = [[A, B], [B, C]], whose inverse is
    [[C, -B], [-B, A]] / det.  The determinant AC - B^2 > 0, as
    I - dt/2 L is positive definite and D positive semidefinite, is formed
    as (A - B)(C + B) + B (C - A), so that the damping terms, as large as
    mu dt, never cancel: dv - ds and dw + ds are non-negative for every
    mask, and C - A is nonzero only for v-only, where B holds beta alone.

    Returns ((p, q), (diag, off)): the inverse is diag (2, n, n + 2), its
    rows for psi_v and psi_w, on the diagonal and off (n, n + 2) off it.
    """
    half = 0.5 * dt * FOUR_PI_SQ * grid.ksq
    ha, hb = half * params.alpha, half * params.beta
    dv, dw, ds = (0.0, 0.0, 0.0) if damping is None else (dt * d for d in damping)
    A, C, B = 1.0 + ha + dv, 1.0 + ha + dw, hb + ds
    det = (1.0 + ha - hb + dv - ds) * (1.0 + ha + hb + dw + ds) + B * (dw - dv)
    return ((view_weights(1.0 - ha), view_weights(-hb)),
            (view_weights(np.stack([C, A]) / det), view_weights(-B / det)))


def _implicit_solve(diag: np.ndarray, off: np.ndarray | None,
                    rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(I - dt/2 L + dt*damping)^-1 rhs for (..., 2, n, n/2 + 1) right-hand
    sides, with the matching (..., 2, n, n + 2) diag and (..., n, n + 2) off
    of `_implicit_operators`, written to `out`, which must not overlap rhs;
    rhs is overwritten.  Three passes over the float64 views, each mode's
    2x2 inverse in closed form.  `off` is None when it is zero, as it is
    when no mode couples psi_v and psi_w (`Stack.coupled`): then the one
    diagonal pass is the solve."""
    r, o = rhs.view(np.float64), out.view(np.float64)
    np.multiply(diag, r, out=o)
    if off is not None:
        r *= off[..., None, :, :]
        o += r[..., ::-1, :, :]
    return out


class Stack:
    """Up to `size` systems with one grid, parameters, forcing and time
    step, advanced as one by `step` on one clock: their states X, one
    (2, n, n/2 + 1) slot each, in one (size, 2, n, n/2 + 1) array.

    The clock is the time `t` and the `step_count` since the last
    `restart`; only `step` and `restart` change it, and every stepper on
    the stack reads it.  Per slot the stack also holds the explicit terms
    of two steps, which swap roles as this step's and the Adams-Bashforth
    history by the parity of the step count, a right-hand side, the
    forcing band scaled by the envelope, and the inverse of the slot's
    implicit solve; the Crank-Nicolson tables, the projected forcing,
    ||f||^2 + ||g||^2 and the AdvectionWork are shared.  Each `MhdStepper`
    takes the next free slot, so a lone system is the stepper of a stack of
    size 1.  The arrays are allocated once, here: `reorder` moves the
    systems between the slots in place.

    `coupled` is True once a slot's inverse has a nonzero off-diagonal
    table, so that some mode couples psi_v and psi_w: beta != 0 (Re != Rm)
    couples every mode, and a damping cross term the modes it observes
    (`MhdStepper`).  Each stepper sets it as it takes its slot, so it holds
    from the next step on, and it stays set.  While it is False, every
    mode's Crank-Nicolson block is diagonal, and a step skips the passes
    of the off-diagonal terms, which would add zeros.
    """

    def __init__(self, grid: Grid, params: ElsasserParams,
                 forcing: ForcingSpec, dt: float, size: int):
        if dt <= 0:
            raise ValueError("dt must be positive")
        n, h, c = grid.n, grid.half_width, grid.cutoff + 1
        self.grid, self.params, self.forcing, self.dt = grid, params, forcing, dt
        self.half_step, _ = _implicit_operators(grid, params, dt, None)
        self.coupled = False
        # P[m(t) (f, g)] = m(t) P[(f, g)], so the step scales it; its
        # columns 0..cutoff are kept apart, contiguous like the advection
        # band, with a buffer for them scaled
        self.forcing_stream = stream_function(
            grid, stack_pair(grid, forcing.f, forcing.g, "forcing (f, g)"))
        self._forcing_band = self.forcing_stream[..., :c].copy()
        self.forcing_sq = l2_norm(forcing.f) ** 2 + l2_norm(forcing.g) ** 2
        # the band scaled, once per slot: numpy buffers a pass that
        # broadcasts one band over the slots
        self._scaled_band = np.empty((size, 2, n, c), dtype=np.complex128)
        self._scaled = None  # the (m(t), slots) of the last scaling
        self._cache = {}  # of _views
        self.X = np.zeros((size, 2, n, h), dtype=np.complex128)
        self.E = np.empty((2, size, 2, n, h), dtype=np.complex128)
        self.rhs = np.empty_like(self.X)
        self.inverse = (np.empty((size, 2, n, n + 2)), np.empty((size, n, n + 2)))
        # one slot, through which `reorder` moves a slot of each array
        self._spare = np.empty_like(self.X[0])
        self.work = AdvectionWork(grid, size)
        self.free = 0  # the next slot a stepper takes
        self.restart()

    def restart(self):
        """Set the clock to t = 0 and drop the Adams-Bashforth history of
        every slot, so that the next step is an Euler step.  The states and
        the forcing stay."""
        self.t = 0.0
        self.step_count = 0

    def reorder(self, steppers):
        """Put the systems of `steppers`, every stepper on this stack, in
        the slots 0, 1, ... in that order: each keeps its state, its
        advection band, its two explicit terms and its inverse tables, and
        its stepper's view of the state follows it.  The free slots past
        them stay as they are.

        Each array walks the permutation's cycles through one slot-sized
        buffer, `_spare`, so a reorder allocates no slot-sized array, and
        its result is bitwise the copy it stands for."""
        order = [s._slot for s in steppers]
        if sorted(order) != list(range(self.free)):
            raise ValueError("reorder needs every stepper of the stack once")
        spare, c = self._spare, self.work.band.shape[-1]
        # each array with its slot of `_spare`; E by parity, as numpy copies
        # the source of an assignment between overlapping bounds first
        moves = ((self.X, spare), (self.work.band, spare[..., :c]),
                 (self.inverse[0], spare.view(np.float64)),
                 (self.inverse[1], spare[0].view(np.float64)),
                 (self.E[0], spare), (self.E[1], spare))
        moved = set()
        for start in range(len(order)):
            if order[start] == start or start in moved:
                continue
            cycle = [start]  # slot k takes the system of slot order[k]
            while order[cycle[-1]] != start:
                cycle.append(order[cycle[-1]])
            moved.update(cycle)
            for a, buffer in moves:
                np.copyto(buffer, a[start])
                for dst, src in zip(cycle, cycle[1:]):
                    a[dst] = a[src]
                a[cycle[-1]] = buffer
        for k, s in enumerate(steppers):
            s._bind(k)

    def step_error(self, speed: float) -> BlowUpError | CflError | None:
        """The error that a step from a state of maximum speed `speed` fails
        with, before it changes the state: BlowUpError at the current t and
        step count when the speed is not finite, CflError when dt exceeds
        the admissible dt, and None when the step can go on.

        This is the one finiteness test.  A finite state, finite inputs and
        a speed within the CFL limit give a finite next state, so every
        non-finite value that reaches the columns advection reads is caught
        on the next step.
        """
        if not math.isfinite(speed):
            return BlowUpError(self.t, self.step_count)
        adm = np.inf if speed == 0.0 else CFL_SAFETY / (self.grid.n * speed)
        if self.dt > adm:
            return CflError(self.dt, adm)
        return None

    def step(self, slots: slice, bands: np.ndarray, extra_ab=(), observe=None):
        """One IMEX step of the systems in `slots` at the stack's clock,
        from the (len, 2, n, cutoff + 1) `bands` that `advection` gave for
        their states; it overwrites them.  The caller has checked each
        system's speed (`step_error`); the step advances the clock once the
        systems are solved.

        extra_ab is a list of (index, term) pairs, the index relative to
        `slots`: a (2, n, n/2 + 1) stream function term, or a stack of them
        for a slice, that joins the Adams-Bashforth-extrapolated explicit
        terms at the current time level.  With `observe`, the first system
        is solved first, and observe() then gives the pairs of terms that
        are added as-is, times dt, to the right-hand sides of the others
        (the implicitly balanced nudging data terms), so that they can read
        its new state.

        Each pass is one numpy call over all the systems, and each system's
        arithmetic is that of a lone system, in the same order.  The views
        that the passes work in are made on the first step with these
        slots, parity and split (`_views`) and kept, so a step builds no
        view but those of its terms.  An uncoupled stack (`coupled`) skips
        the half step's product with psi_v and psi_w swapped and its add,
        and the solve's two off-diagonal passes: 4 full-width passes of
        the 11 of an Adams-Bashforth step.  Their terms are zeros, so every
        value is that of the full step; only the sign of a zero entry could
        differ, where the right-hand side holds -0.0 (`tools/compare_runs.py`
        finds no byte that differs).
        """
        dt, (p, q) = self.dt, self.half_step
        (X, rhs, E, prev, E_band, scaled, x, x_swapped, r, spare), solves = \
            self._views(slots, self.step_count % 2, observe is not None)
        # E = m P[f] - advection, the band written apart and copied in: a
        # ufunc pass over E's strided columns 0..cutoff would buffer them
        m = self.forcing.modulation.value(self.t)
        if (m, slots.start, slots.stop) != self._scaled:
            for band in scaled:
                np.multiply(m, self._forcing_band, out=band)
            self._scaled = (m, slots.start, slots.stop)
        np.subtract(scaled, bands, out=bands)
        np.multiply(m, self.forcing_stream, out=E)
        np.copyto(E_band, bands)
        for k, term in extra_ab:
            E[k] += term
        if self.step_count == 0:
            np.multiply(dt, E, out=rhs)  # startup Euler step
        else:
            np.multiply(1.5 * dt, E, out=rhs)
            rhs -= np.multiply(0.5 * dt, prev, out=prev)
        # prev is free once rhs has it
        r += np.multiply(p, x, out=spare)
        if self.coupled:
            r += np.multiply(q, x_swapped, out=spare)
        self._solve(rhs, prev, solves[0], ())
        if observe is not None:
            self._solve(rhs, prev, solves[1], observe())
        self.t, self.step_count = self.t + dt, self.step_count + 1

    def _views(self, slots: slice, parity: int, split: bool) -> tuple:
        """The views of `step` on `slots` for a step count of this parity:
        X, rhs, E, prev, E's columns 0..cutoff, the scaled forcing bands,
        the float64 views of X, of X with psi_v and psi_w swapped, of rhs
        and of prev, and then the parts that `_solve` solves one after the
        other: the first system and the others when `split`, else all.
        Made once per key, as the arrays never move."""
        key = (slots.start, slots.stop, parity, split)
        if key not in self._cache:
            X, rhs, diag, off = (a[slots] for a in (self.X, self.rhs, *self.inverse))
            E, prev = self.E[parity, slots], self.E[1 - parity, slots]
            x = X.view(np.float64)
            parts = (slice(0, 1), slice(1, None)) if split else (slice(None),)
            self._cache[key] = (
                (X, rhs, E, prev, E[..., :self._forcing_band.shape[-1]],
                 self._scaled_band[slots], x, x[..., ::-1, :, :],
                 rhs.view(np.float64), prev.view(np.float64)),
                [(diag[part], off[part], rhs[part], X[part], X[part, :, 0, 0])
                 for part in parts])
        return self._cache[key]

    def _solve(self, rhs: np.ndarray, prev: np.ndarray, part: tuple, terms):
        """Add each (index, term) of `terms` times dt to the right-hand side
        `rhs`, with `prev` as scratch, then solve the systems of `part`
        (`_views`) into their states."""
        diag, off, part_rhs, X, zero_mode = part
        for k, term in terms:
            rhs[k] += np.multiply(self.dt, term, out=prev[k])
        _implicit_solve(diag, off if self.coupled else None, part_rhs, out=X)
        zero_mode[...] = 0.0


class MhdStepper:
    """One evolving (v, w) state, advanced with the IMEX scheme, in a slot
    of a `Stack`.

    The stepper takes the next free slot of `stack` and writes that slot's
    inverse tables; its `grid`, `params`, `dt` and `forcing` are the
    stack's own, as the stack steps every slot with them.  A full stack is
    refused with a ValueError, before anything changes.  A lone system is
    `MhdStepper(Stack(grid, params, forcing, dt, 1))`.  Its clock, `t` and
    `step_count`, is the stack's, read-only here: every slot of a stack
    steps on one clock, which `Stack.step` advances and `restart` restarts.

    The state `X` is the (2, n, n/2 + 1) half spectrum of the stream
    functions (psi_v, psi_w) (see `spectral`), a view of its slot, which
    `Stack.reorder` may move; read it through `norms`, which applies the
    Parseval weights, or as vectors through `fields`.  Initial states are
    (2, n, n/2 + 1) half spectra of vectors, and arrays of any other shape
    are refused.  `advance` is the one-slot case of `Stack.step`; a step of
    the stack, of one slot or several, from given bands allocates no array
    data at n = 64 and above (at n = 32 numpy buffers its broadcast table
    passes).
    """

    def __init__(self, stack: Stack, damping: tuple | None = None):
        """`damping` is an optional linear operator added implicitly to the
        left-hand side (the nudging self-damping term), given as three real
        (n, n/2 + 1) tables (dv, dw, ds): the symmetric 2x2 matrix
        [[dv, ds], [ds, dw]] on each mode's (psi_v, psi_w).  The matching
        data term is supplied per step through `Stack.step`.  When the
        slot's inverse couples psi_v and psi_w, through beta != 0 or a
        cross term ds (the b-only and u-only masks), the stepper sets the
        stack's `coupled`, before its next step."""
        k = stack.free
        if k == len(stack.X):
            raise ValueError(f"the stack has no free slot: all {k} are taken")
        self.grid, self.params, self.dt = stack.grid, stack.params, stack.dt
        for table, inverse in zip(stack.inverse, _implicit_operators(
                self.grid, self.params, self.dt, damping)[1]):
            table[k] = inverse
        stack.coupled = stack.coupled or bool(stack.inverse[1][k].any())
        self._stack = stack
        stack.free += 1
        self._bind(k)

    def _bind(self, k: int):
        """Take the view of slot k of the stack (`Stack.reorder`), and the
        slots that `advance` steps."""
        self._slot, self.X, self._slots = k, self._stack.X[k], slice(k, k + 1)

    # -- state accessors ----------------------------------------------------

    def set_state(self, vcoef: np.ndarray, wcoef: np.ndarray):
        """Set (v, w) from two (2, n, n/2 + 1) half spectra and `restart`.

        Every state enters a stepper through here, so this is the one check
        that it is divergence-free, to a relative tolerance of 1e-10: the
        stream functions keep only the divergence-free part, and would drop
        the rest silently.  A refused state leaves X and the clock as they
        were; an accepted one is stored whole, its zero mode aside, so
        `fields` gives it back."""
        pair = stack_pair(self.grid, vcoef, wcoef, "the state (v, w)")
        for name, coef in zip("vw", pair):
            if divergence_defect(self.grid, coef) > 1e-10 * max(l2_norm(coef), 1e-300):
                raise ValueError(f"the state (v, w): {name} is not divergence-free")
        self.X[...] = stream_function(self.grid, pair, nyquist=True)
        self.restart()

    def fields(self):
        """(v, w) of the current state, as two new (2, n, n/2 + 1) half
        spectra."""
        v, w = velocity(self.grid, self.X)
        return v, w

    def restart(self):
        """Restart the stack's clock at t = 0 (`Stack.restart`): the next
        step of this slot and of every other is an Euler step.  The states
        and the forcing stay."""
        self._stack.restart()

    @property
    def t(self) -> float:
        """The time of the stack's clock."""
        return self._stack.t

    @property
    def step_count(self) -> int:
        """The steps of the stack since its clock last restarted."""
        return self._stack.step_count

    @property
    def forcing(self) -> ForcingSpec:
        """Read-only: the forcing and its projection are set once, at
        construction.  A system forced differently is a nudging member
        with a `delta`, not a stepper whose forcing changes mid-run."""
        return self._stack.forcing

    # -- norms --------------------------------------------------------------

    def norms(self):
        """(l2_v, l2_w, h1_v, h1_w) of the current state."""
        return norms(self.grid, self.X)

    def forcing_sq(self) -> float:
        """||f||^2 + ||g||^2 of the forcing at the current time."""
        return self.forcing.modulation.value(self.t) ** 2 * self._stack.forcing_sq

    # -- stepping -----------------------------------------------------------

    def advance(self):
        """One IMEX step of this system alone: `advection` of its state,
        then `Stack.step` on its slot, which advances the stack's clock.
        The step raises the error of `Stack.step_error` before it changes
        the state."""
        stack = self._stack
        bands, (speed,) = advection(self.grid, stack.X[self._slots], stack.work)
        error = stack.step_error(speed)
        if error is not None:
            raise error
        stack.step(self._slots, bands)


# ---------------------------------------------------------------------------
# trajectory recording, spin-up, energy budget


@dataclass
class Trajectory:
    """Per-step norm history of a reference run."""

    times: np.ndarray
    l2_v: np.ndarray
    l2_w: np.ndarray
    h1_v: np.ndarray
    h1_w: np.ndarray
    forcing_sq: np.ndarray  # ||f||^2 + ||g||^2 at each time

    def energy(self) -> np.ndarray:
        return self.l2_v ** 2 + self.l2_w ** 2

    def enstrophy(self) -> np.ndarray:
        return self.h1_v ** 2 + self.h1_w ** 2


def trajectory_row(stepper: MhdStepper):
    """One Trajectory row of the stepper's current state: (t, l2_v, l2_w,
    h1_v, h1_w, ||f||^2 + ||g||^2)."""
    return (stepper.t, *stepper.norms(), stepper.forcing_sq())


def energy_budget(traj: Trajectory, params: ElsasserParams):
    """Discrete residuals of the L2 energy inequality

        d/dt(|v|^2+|w|^2) + nu_bar (|grad v|^2+|grad w|^2)
            <= (||f||^2+||g||^2) / (4 pi^2 nu_bar).

    Returns (residuals, flags) over interior samples; a residual is flagged
    unless it is at most ENERGY_TOL * max(1, ||f||^2+||g||^2), so a
    non-finite one is flagged too.
    """
    if len(traj.times) < 3:
        raise ValueError("energy budget needs at least 3 samples")
    nub = params.nu_bar
    E = traj.energy()
    H = traj.enstrophy()
    # centered difference on interior points
    dEdt = (E[2:] - E[:-2]) / (traj.times[2:] - traj.times[:-2])
    lhs = dEdt + nub * H[1:-1]
    rhs = traj.forcing_sq[1:-1] / (FOUR_PI_SQ * nub)
    residuals = lhs - rhs
    tol = ENERGY_TOL * np.maximum(1.0, traj.forcing_sq[1:-1])
    return residuals, ~(residuals <= tol)


@dataclass(frozen=True)
class SpinUp:
    time: float       # time integrated
    # False: the average had not settled by the first window end at or past
    # max_time; spin-up stops there, so time can exceed max_time either way
    converged: bool


def spin_up(stepper: MhdStepper, tol: float = SPINUP_TOL,
            max_time: float = SPINUP_MAX_TIME) -> SpinUp:
    """Integrate until the windowed average of the total enstrophy settles.

    Runs whole windows of length T = 1/(pi^2 nu_bar) and stops when
    two consecutive window averages differ by less than `tol` relative, or
    at the first window end at or past `max_time`.  `max_time` is thus not
    a hard cap: the returned time may exceed it by up to one window, and
    the window that crosses it may still settle.  The first window always
    runs, so a `max_time` of 0 or below runs exactly one.  At the default
    Reynolds numbers and dt = 2e-3 a window is 0.506 long, and a config
    with `spinup_max_time = 2.0` settles only in window 4, at t = 2.024.
    The stepper, and so its stack's clock, is restarted at t = 0 afterwards.
    """
    T = stepper.params.window
    steps_per_window = max(int(round(T / stepper.dt)), 8)
    prev_avg = None
    elapsed = 0.0
    converged = False
    while prev_avg is None or elapsed < max_time:
        acc = 0.0
        for _ in range(steps_per_window):
            stepper.advance()
            _, _, h1v, h1w = stepper.norms()
            acc += h1v ** 2 + h1w ** 2
        elapsed += steps_per_window * stepper.dt
        avg = acc / steps_per_window
        if (prev_avg is not None
                and abs(avg - prev_avg) <= tol * max(prev_avg, 1e-14)):
            converged = True
            break
        prev_avg = avg
    stepper.restart()
    return SpinUp(elapsed, converged)
