"""Co-evolution of a reference MHD solution with nudged copies.

The assimilating system is the reference system plus the feedback term
mu * P[I_h(observed - model)] applied through an observation mask.  For
spectral-projection interpolants the self-damping half of the feedback is
folded into the implicit solve as a symmetric 2x2 matrix per mode (the
theorem-scale gains would otherwise force dt ~ 1/mu); for the other
interpolant kinds the feedback is explicit, with the stability
restriction mu*dt <= 1 (`check_explicit_gain`).  Like the steppers'
states, the feedback and its inputs are (2, n, n/2 + 1) stream functions
(psi_v, psi_w).  The feedback makes no Leray pass: I_h's pre on the
velocity and P after its post are cached per-mode tables, applied to the
m x m lattice of the observed velocity components
(`interpolants.projected_masked`).  A delta becomes a stream function once,
and an observation error eps, which need not be divergence-free, its
feedback term once.  Nudging is one-way, so any number of assimilating
systems (members), each with its own gain, interpolant and mask, can share
one reference.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .diagnostics import ErrorSeries
from .dynamics import (
    SPINUP_MAX_TIME,
    SPINUP_TOL,
    AdvectionWork,
    BlowUpError,
    CflError,
    ForcingSpec,
    MhdStepper,
    Trajectory,
    advection,
    norms,
    spin_up,
    stack_pair,
    trajectory_row,
)
from .interpolants import (
    MASK_ALL,
    SPECTRAL,
    InterpolantSpec,
    apply_masked,
    projected_masked,
)
from .spectral import Grid, stream_function


@dataclass
class NudgingConfig:
    """Gain, observation operator and mask of the feedback term.

    `delta` is a forcing pair added to the assimilated system only; `eps`
    is an observation error pair (its f on v, its g on w).
    """

    mu: float
    interpolant: InterpolantSpec
    mask: str = MASK_ALL
    delta: ForcingSpec | None = None
    eps: ForcingSpec | None = None

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("gain mu must be >= 0")


# ---------------------------------------------------------------------------
# feedback term


def check_explicit_gain(kind: str, mu: float, dt: float, gain: str = "mu"):
    """Raise ValueError unless feedback through a `kind` interpolant with
    gain mu is stable at dt: explicit feedback (volume and nodal) needs
    mu*dt <= 1.  `gain` names mu in the message."""
    if kind != SPECTRAL and mu * dt > 1.0:
        raise ValueError(
            f"explicit nudging ({kind} interpolant) needs {gain}*dt <= 1, got "
            f"{gain}*dt = {mu * dt:g}; the largest admissible dt is "
            f"{1.0 / mu:.3e}")


def nudging_term(config: NudgingConfig, grid: Grid, X: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """mu * P[I_h masked(X)] as a (2, n, n/2 + 1) stream function pair,
    written to `out` when it is given, which may be X itself.

    Linear in the (2, n, n/2 + 1) stream functions X = (eta, zeta) of the
    velocities it observes, which are observed minus model for the explicit
    feedback and the observation alone for the implicit data term.  The
    cached per-mode tables of `interpolants.projected_masked` make it with
    no Leray pass and no post pass.
    """
    return projected_masked(config.interpolant, config.mask, grid, X,
                            config.mu, out)


def _damping(grid: Grid, config: NudgingConfig):
    """nudging_term for the spectral projection interpolant as the tables
    (dv, dw, ds) of `MhdStepper`'s damping.

    That interpolant, every mask and P act mode by mode, on each mode's
    (psi_v, psi_w) as a symmetric 2x2 matrix, so its columns are
    nudging_term applied to the constant unit planes.
    """
    if config.interpolant.kind != SPECTRAL:
        raise ValueError("implicit feedback requires the spectral interpolant")
    unit = np.zeros((2, grid.n, grid.half_width), dtype=np.complex128)
    unit[0] = 1.0
    dv, ds = nudging_term(config, grid, unit).real
    dw = nudging_term(config, grid, unit[::-1]).real[1]
    return dv, dw, ds


class _Member:
    """One assimilated system: its stepper and what its feedback needs.

    A member with gain 0 observes nothing.  It has no damping and no
    feedback buffer, and it takes the free step with its `delta` alone, so
    without a delta it is bitwise the free MhdStepper.
    """

    def __init__(self, grid: Grid, params, forcing: ForcingSpec,
                 config: NudgingConfig, dt: float, state: np.ndarray,
                 work: AdvectionWork):
        self.config = config
        self.observes = config.mu > 0
        self.implicit = self.observes and config.interpolant.kind == SPECTRAL
        check_explicit_gain(config.interpolant.kind, config.mu, dt)
        damping = _damping(grid, config) if self.implicit else None
        self.stepper = MhdStepper(grid, params, forcing, dt, damping=damping,
                                  state=state, work=work)
        delta, eps = config.delta, config.eps
        # P[m(t) delta] = m(t) P[delta], as for the forcing
        self.delta_stream = None if delta is None else stream_function(
            grid, stack_pair(grid, delta.f, delta.g, "delta (f, g)"))
        self.eps_term = None
        if eps is not None:
            # nudging_term is linear, so the feedback of m(t) eps is m(t)
            # times that of eps; eps need not be divergence-free, so its I_h
            # acts on the vectors
            pair = stack_pair(grid, eps.f, eps.g, "eps (f, g)")
            observed = apply_masked(config.interpolant, config.mask, grid,
                                    pair.reshape(4, grid.n, -1))
            self.eps_term = config.mu * stream_function(
                grid, observed.reshape(pair.shape))
        self.feedback = np.empty_like(self.stepper.X) if self.observes else None
        # what observe and delta scale, each written over the last
        self._eps = None if eps is None else np.empty_like(self.eps_term)
        self._delta = None if delta is None else np.empty_like(self.delta_stream)

    def observe(self, grid: Grid, ref: MhdStepper, X: np.ndarray) -> np.ndarray:
        """The feedback of the observation X plus the observation error at
        the reference's time, written to `feedback`; X may be `feedback`."""
        nudging_term(self.config, grid, X, out=self.feedback)
        if self.eps_term is not None:
            self.feedback += np.multiply(self.config.eps.modulation.value(ref.t),
                                         self.eps_term, out=self._eps)
        return self.feedback

    def delta(self) -> np.ndarray | None:
        """P[delta] at the member's time, or None without a delta."""
        if self.delta_stream is None:
            return None
        return np.multiply(self.config.delta.modulation.value(self.stepper.t),
                           self.delta_stream, out=self._delta)


class CoupledStepper:
    """Advances one reference and K assimilated systems (the members) on one
    clock.

    `configs` is one NudgingConfig or a sequence of them, one per member.
    Nudging is one-way: the reference never sees a member and the members
    never see each other, so every member of a mu or h sweep shares the
    reference.  A member with gain 0 is unobserved: the free system, forced
    by the reference's forcing plus its `delta`, which it advances with one
    free step.  `members` lists the assimilated steppers in config order.

    The states of the reference and the members are the slots of one
    (1 + K, 2, n, n/2 + 1) stack, the reference first, and every stepper's
    X is a view of its slot; one AdvectionWork serves them all.
    """

    def __init__(self, grid: Grid, params, forcing: ForcingSpec,
                 configs: NudgingConfig | Sequence[NudgingConfig], dt: float):
        if isinstance(configs, NudgingConfig):
            configs = [configs]
        self.grid = grid
        self.configs = list(configs)
        size = 1 + len(self.configs)
        self._states = np.zeros((size, 2, grid.n, grid.half_width),
                                dtype=np.complex128)
        self._work = AdvectionWork(grid, size)
        self.reference = MhdStepper(grid, params, forcing, dt,
                                    state=self._states[0], work=self._work)
        self._members = [_Member(grid, params, forcing, cfg, dt,
                                 self._states[1 + k], self._work)
                         for k, cfg in enumerate(self.configs)]
        self.members = [m.stepper for m in self._members]
        # member index -> the BlowUpError or CflError that retired it;
        # written only by step
        self.failures = {}

    def active(self) -> list[int]:
        """Indices of the members that are still advanced."""
        return [k for k in range(len(self._members)) if k not in self.failures]

    def step(self):
        """Advance the reference once, then every active member.

        The advection of the reference and of every active member is one
        `advection` call on their slots of the stack, made before any of
        them steps; each `advance` then finishes from its own band and makes
        its own checks.  A retired member leaves that call.  Explicit members
        take their feedback from the reference before it steps; implicit
        members observe it after, matching the implicitly treated damping so
        a synchronized pair stays a fixed point; members with gain 0 do not
        observe it.  A member whose advance raises
        BlowUpError or CflError is retired with that error; an error of the
        reference retires every active member with the reference's error,
        and is raised.  Once no member is active, step raises the error that
        retired the last one, so a one-member system fails as a plain pair
        does.  This is the only place a system is retired.
        """
        grid, ref = self.grid, self.reference
        active = [(k, self._members[k]) for k in self.active()]
        for k, m in active:
            if m.observes and not m.implicit:
                m.observe(grid, ref, np.subtract(ref.X, m.stepper.X,
                                                 out=m.feedback))
                if m.delta_stream is not None:
                    m.feedback += m.delta()
        # a view of the whole stack, or a copy of the active slots once a
        # member is retired
        states = self._states if not self.failures else \
            self._states[[0] + [1 + k for k, _ in active]]
        bands, speeds = advection(grid, states, self._work)
        try:
            ref.advance(advected=(bands[0], speeds[0]))
        except (BlowUpError, CflError) as exc:
            for k, _ in active:
                self.failures[k] = exc
            raise
        error = None
        for (k, m), advected in zip(active, zip(bands[1:], speeds[1:])):
            try:
                if m.implicit:
                    m.stepper.advance(extra_ab=m.delta(),
                                      extra_plain=m.observe(grid, ref, ref.X),
                                      advected=advected)
                elif m.observes:
                    m.stepper.advance(extra_ab=m.feedback, advected=advected)
                else:
                    m.stepper.advance(extra_ab=m.delta(), advected=advected)
            except (BlowUpError, CflError) as exc:
                self.failures[k] = error = exc
        if error is not None and not self.active():
            raise error


# ---------------------------------------------------------------------------
# full experiment driver


@dataclass
class RunResult:
    # per member: its error series, or None once it was retired
    errors: list[ErrorSeries | None]
    # member index -> the BlowUpError or CflError that retired it
    failures: dict[int, Exception]
    reference_trajectory: Trajectory
    spin_up_time: float
    spin_up_converged: bool


def run_assimilation(grid: Grid, params, forcing: ForcingSpec,
                     configs: NudgingConfig | Sequence[NudgingConfig],
                     initial_v: np.ndarray, initial_w: np.ndarray, dt: float,
                     horizon: float, spinup_max_time: float = SPINUP_MAX_TIME,
                     spinup_tol: float = SPINUP_TOL,
                     sample_every: int = 10, init_mode="zero") -> RunResult:
    """Spin up the reference from (initial_v, initial_w), reset the clock,
    co-evolve it with one member per config to the horizon and record each
    member's per-variable L2/H1 errors.

    Every member starts at zero (`init_mode` "zero"), at a copy of the
    spun-up reference ("copy"), or at a caller-supplied (v, w) pair of
    (2, n, n/2 + 1) half spectra, which `set_state` checks; a
    caller's states are set before any time goes into spin-up, which steps
    the reference alone.  A member whose step fails (`MhdStepper.advance`: a
    non-finite state or a CFL violation) is retired by
    `CoupledStepper.step` and the others go on; a failure of the reference
    in spin-up is raised, and one while co-evolving retires every remaining
    member with the reference's error.
    """
    if isinstance(init_mode, str) and init_mode not in ("zero", "copy"):
        raise ValueError(f'init_mode {init_mode!r} is not "zero", "copy" or (v, w)')
    coupled = CoupledStepper(grid, params, forcing, configs, dt)
    ref = coupled.reference
    ref.set_state(initial_v, initial_w, 0.0)
    if not isinstance(init_mode, str):
        for assim in coupled.members:
            assim.set_state(*init_mode)
    spun = spin_up(ref, tol=spinup_tol, max_time=spinup_max_time)
    if init_mode == "copy":
        # a stepped state is stream functions, divergence-free by its form
        for assim in coupled.members:
            assim.X[...] = ref.X
            assim.restart(0.0)

    n_steps = int(round(horizon / dt))
    members = coupled.members
    err_rows = np.empty((len(members), n_steps // sample_every + 1, 5))
    traj_rows = np.empty((n_steps + 1, 6))
    diff = np.empty_like(ref.X)  # the reference minus a member, per sample
    for i in range(n_steps + 1):
        traj_rows[i] = trajectory_row(ref)
        if i % sample_every == 0:
            for k in coupled.active():
                np.subtract(ref.X, members[k].X, out=diff)
                err_rows[k, i // sample_every] = (ref.t, *norms(grid, diff))
        if i < n_steps:
            try:
                coupled.step()
            except (BlowUpError, CflError):
                break  # every member is retired, each with its error
    errors = [None if k in coupled.failures else ErrorSeries(*rows.T)
              for k, rows in enumerate(err_rows)]
    # after a break, the rows past i were never written
    traj = Trajectory.from_rows(traj_rows[:i + 1])
    return RunResult(errors, coupled.failures, traj, spun.time, spun.converged)
