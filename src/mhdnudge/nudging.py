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
one reference.  The reference and its members are the slots of one
`dynamics.Stack`, built once and advanced by one `Stack.step` per coupled
step on the stack's one clock, which they all read; a retired member keeps
its slot, behind the active ones, where no step reads it.  The members
that share an observation operator get their feedback from one
`projected_masked` call, with a vector of gains.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .diagnostics import ErrorSeries
from .dynamics import (
    SPINUP_MAX_TIME,
    SPINUP_TOL,
    BlowUpError,
    CflError,
    ForcingSpec,
    MhdStepper,
    Stack,
    Trajectory,
    advection,
    norms,
    spin_up,
    stack_pair,
    trajectory_row,
)
from .interpolants import (
    MASK_ALL,
    MASKS,
    SPECTRAL,
    FeedbackWork,
    InterpolantSpec,
    apply_masked,
    check_grid,
    projected_masked,
)
from .spectral import Grid, stream_function


class ConfigError(ValueError):
    """An invalid run configuration: a CLI run exits 2 with it."""


@dataclass
class NudgingConfig:
    """Gain, observation operator and mask of the feedback term.

    `delta` is a forcing pair added to the assimilated system only; `eps`
    is an observation error pair (its f on v, its g on w).  A mask not in
    `interpolants.MASKS` and a negative gain are refused with a
    ConfigError, here and nowhere else; the interpolant checks its own
    kind and h (`InterpolantSpec`).
    """

    mu: float
    interpolant: InterpolantSpec
    mask: str = MASK_ALL
    delta: ForcingSpec | None = None
    eps: ForcingSpec | None = None

    def __post_init__(self):
        if self.mask not in MASKS:
            raise ConfigError(f"unknown mask {self.mask!r}; expected one of {MASKS}")
        if self.mu < 0:
            raise ConfigError("mu must be >= 0")


# ---------------------------------------------------------------------------
# feedback term


def check_explicit_gain(kind: str, mu: float, dt: float, gain: str = "mu"):
    """Raise ConfigError unless feedback through a `kind` interpolant with
    gain mu is stable at dt: explicit feedback (volume and nodal) needs
    mu*dt <= 1.  `gain` names mu in the message, which only the determining
    scenario sets ("mu_aux").  This is the one place the rule is written."""
    if kind != SPECTRAL and mu * dt > 1.0:
        raise ConfigError(
            f"explicit nudging ({kind} interpolant) needs {gain}*dt <= 1, got "
            f"{gain}*dt = {mu * dt:g}; the largest admissible dt is "
            f"{1.0 / mu:.3e}")


def nudging_term(config: NudgingConfig, grid: Grid, X: np.ndarray) -> np.ndarray:
    """mu * P[I_h masked(X)] as a new (2, n, n/2 + 1) stream function pair.

    Linear in the (2, n, n/2 + 1) stream functions X = (eta, zeta) of the
    velocities it observes, which are observed minus model for the explicit
    feedback and the observation alone for the implicit data term.  The
    cached per-mode tables of `interpolants.projected_masked` make it with
    no Leray pass and no post pass.  A step calls `projected_masked` once
    per group of members; this serves `_damping`.
    """
    return projected_masked(config.interpolant, config.mask, grid, X, config.mu)


def _damping(grid: Grid, config: NudgingConfig):
    """nudging_term for the spectral projection interpolant as the tables
    (dv, dw, ds) of `MhdStepper`'s damping.

    That interpolant, every mask and P act mode by mode, on each mode's
    (psi_v, psi_w) as a symmetric 2x2 matrix, so its columns are
    nudging_term applied to the constant unit planes.  Only implicit
    members, whose interpolant is spectral, call it.
    """
    unit = np.zeros((2, grid.n, grid.half_width), dtype=np.complex128)
    unit[0] = 1.0
    dv, ds = nudging_term(config, grid, unit).real
    dw = nudging_term(config, grid, unit[::-1]).real[1]
    return dv, dw, ds


class _Member:
    """One assimilated system: its config and what its feedback needs.

    A member with gain 0 observes nothing.  It has no damping and no
    feedback, and it takes the free step with its `delta` alone, so
    without a delta it is bitwise the free MhdStepper.  Observing members
    that share a feedback mode and an observation operator form a group
    (`key`).  A member whose gain is unstable at dt, or whose interpolant
    does not fit the grid (`interpolants.check_grid`), is refused here,
    before any step.
    """

    def __init__(self, grid: Grid, config: NudgingConfig, dt: float):
        self.config = config
        self.observes = config.mu > 0
        self.implicit = self.observes and config.interpolant.kind == SPECTRAL
        check_explicit_gain(config.interpolant.kind, config.mu, dt)
        check_grid(config.interpolant.kind, grid.n, config.interpolant.resolution)
        self.key = (self.implicit, config.interpolant.kind,
                    config.interpolant.resolution, config.mask) \
            if self.observes else None
        self.damping = _damping(grid, config) if self.implicit else None
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
        # what add_eps and delta scale, each written over the last
        self._eps = None if eps is None else np.empty_like(self.eps_term)
        self.delta_buffer = None if delta is None else np.empty_like(self.delta_stream)

    def add_eps(self, feedback: np.ndarray, t: float):
        """Add the feedback of the observation error at time t, if any."""
        if self.eps_term is not None:
            feedback += np.multiply(self.config.eps.modulation.value(t),
                                    self.eps_term, out=self._eps)

    def delta(self, t: float) -> np.ndarray:
        """P[delta] at time t, in `delta_buffer`; the member must have a
        delta."""
        return np.multiply(self.config.delta.modulation.value(t),
                           self.delta_stream, out=self.delta_buffer)


class _Group:
    """Active observing members with one `key`, in the consecutive slots
    `slots` of the stack: one `projected_masked` call with the vector `mu`
    of their gains gives all their feedback, written to `feedback`.

    The call's tables, gains, index arrays and views are built once, here,
    as the group's FeedbackWork (`work`): on their stack of differences for
    an explicit group, with the buffers of the fold carved from `scratch`,
    and on the one observed pair for an implicit group, which needs none.
    `feedback` and `scratch` are the group's rows of its CoupledStepper's
    arrays, so building a group allocates no state-sized array.  So are
    the lists of the members with an observation error or, in an explicit
    group, a delta, each with its row of `feedback`."""

    def __init__(self, grid: Grid, members: list, start: int,
                 feedback: np.ndarray, scratch: np.ndarray):
        self.members = members
        self.implicit = members[0].implicit
        self.config = members[0].config
        self.slots = slice(start, start + len(members))
        self.mu = np.array([m.config.mu for m in members])
        self.feedback = feedback
        shape = feedback.shape[1:] if self.implicit else feedback.shape
        self.work = FeedbackWork(self.config.interpolant, self.config.mask, grid,
                                 shape, self.mu, feedback, scratch)
        rows = list(zip(members, feedback))
        self._eps = [(m, row) for m, row in rows if m.eps_term is not None]
        self._deltas = [] if self.implicit else [
            (m, row) for m, row in rows if m.delta_stream is not None]

    def observe(self, grid: Grid, X: np.ndarray, t: float) -> np.ndarray:
        """The feedback of the observation X, one pair or a stack of one
        per member, plus the observation errors at time t, as `feedback`;
        X may be `feedback`."""
        projected_masked(self.config.interpolant, self.config.mask, grid, X,
                         self.mu, self.feedback, self.work)
        for m, feedback in self._eps:
            m.add_eps(feedback, t)
        return self.feedback

    def add_deltas(self, t: float):
        """Add each member's delta at time t to its feedback, once the
        feedback is observed: the explicit term of an explicit member."""
        for m, feedback in self._deltas:
            feedback += m.delta(t)


class CoupledStepper:
    """Advances one reference and K assimilated systems (the members) on one
    clock.

    `configs` is one NudgingConfig or a sequence of them, one per member.
    Nudging is one-way: the reference never sees a member and the members
    never see each other, so every member of a mu or h sweep shares the
    reference.  A member with gain 0 is unobserved: the free system, forced
    by the reference's forcing plus its `delta`, which it advances with one
    free step.  `members` lists the assimilated steppers in config order.

    The reference and the members are the `MhdStepper`s of one `Stack`,
    which gives them all its grid, parameters, forcing and dt; an implicit
    member's stepper also takes its damping.  The reference is in the first
    slot, and the members follow it in groups: those that share a
    feedback mode and an observation operator (kind, h, mask) sit in
    consecutive slots, so that one call gives all their feedback, and the
    unobserved ones come last.  The stack is built once, here: a retired
    member moves behind the active ones in it, where no step reads it.  So
    are the arrays of the groups' feedback and of the buffers of their
    folds, one row per member slot.  What a step does with them, the
    groups, their views and the lists of its terms, is built by `_group`
    here and again only when a member retires.
    """

    def __init__(self, grid: Grid, params, forcing: ForcingSpec,
                 configs: NudgingConfig | Sequence[NudgingConfig], dt: float):
        if isinstance(configs, NudgingConfig):
            configs = [configs]
        self.grid = grid
        self._members = [_Member(grid, cfg, dt) for cfg in configs]
        self._stack = Stack(grid, params, forcing, dt, 1 + len(self._members))
        self.reference = MhdStepper(self._stack)
        keys = [m.key for m in self._members]
        # the members in slot order: each group where its key first appears,
        # the unobserved ones last
        self._order = sorted(range(len(keys)), key=lambda k: (
            keys[k] is None, keys.index(keys[k])))
        steppers = {k: MhdStepper(self._stack, self._members[k].damping)
                    for k in self._order}
        self.members = [steppers[k] for k in range(len(keys))]
        # per member slot 1, 2, ...: its feedback, and the scratch of an
        # explicit group's fold, as large as the largest member's
        self._feedback = np.empty((len(keys), 2, grid.n, grid.half_width),
                                  dtype=np.complex128)
        self._scratch = np.empty((len(keys), max(
            (FeedbackWork.scratch_size(m.config.interpolant, m.config.mask, grid)
             for m in self._members if m.observes and not m.implicit), default=0)),
            dtype=np.complex128)
        self._group()
        # member index -> the BlowUpError or CflError that retired it;
        # written only by step
        self.failures = {}

    def _group(self):
        """Build the groups of the active members, in their slots of
        `_order`, and what a step reads: the active slots and their states,
        each explicit group with its stack of member states, the members
        whose delta is a term of its own (an implicit or an unobserved
        member), the step's explicit terms and the implicit groups."""
        X = self._stack.X
        slotted = list(enumerate((self._members[k] for k in self._order), start=1))
        groups = []
        for key, run in groupby(slotted, key=lambda item: item[1].key):
            run = list(run)
            if key is not None:
                # member slot j is row j - 1 of the feedback and scratch
                rows = slice(run[0][0] - 1, run[-1][0])
                groups.append(_Group(self.grid, [m for _, m in run], run[0][0],
                                     self._feedback[rows],
                                     self._scratch[rows].reshape(-1)))
        self._groups = groups
        self._slots = slice(0, 1 + len(self._order))
        self._active = X[self._slots]
        self._explicit = [(g, X[g.slots]) for g in groups if not g.implicit]
        self._implicit = [g for g in groups if g.implicit]
        self._deltas = [(slot, m) for slot, m in slotted if m.delta_stream is not None
                        and (m.implicit or not m.observes)]
        self._extra_ab = [(g.slots, g.feedback) for g, _ in self._explicit] + [
            (slot, m.delta_buffer) for slot, m in self._deltas]
        self._observed = [(g.slots, g.feedback) for g in self._implicit]

    def active(self) -> list[int]:
        """Indices of the members that are still advanced."""
        return [k for k in range(len(self._members)) if k not in self.failures]

    def _retire(self, errors: dict):
        """Retire the members in `errors` (member index -> error), in place:
        `Stack.reorder` puts the reference first, then the active members in
        their order, then every retired member, which keeps its state, step
        history and tables, and which no step reads again."""
        self.failures.update(sorted(errors.items()))
        self._order = [k for k in self._order if k not in errors]
        self._stack.reorder([self.reference] + [
            self.members[k] for k in self._order + list(self.failures)])
        self._group()

    def step(self):
        """Advance the reference and every active member by one step, as
        one `Stack.step` over their slots, on the stack's clock.

        The advection of them all is one `advection` call, and each checks
        its speed (`Stack.step_error`) before any state changes.  An error
        of the reference retires every active member with it and is raised;
        a member's error retires that member, and the others step from the
        bands that the call gave, which `Stack.reorder` moves with their
        states.  The step that retires the last active member raises the
        error that retired it, before any state changes, so a one-member
        system fails as a plain pair does.  This is the only place a system
        is retired.

        The feedback is one `projected_masked` call per group.  Explicit
        members take theirs from the stack of reference minus member before
        the step.  Implicit members observe the reference after it is
        solved, matching the implicitly treated damping so a synchronized
        pair stays a fixed point: each member's feedback is its gain times
        the per-mode product of that one pair.  Members with gain 0 observe
        nothing.  The step reads the views and lists of `_group`, so that
        at n >= 64 it allocates no array data.
        """
        grid, stack = self.grid, self._stack
        bands, speeds = advection(grid, self._active, stack.work)
        errors = [stack.step_error(speed) for speed in speeds]
        if errors[0] is not None:
            self._retire(dict.fromkeys(self._order, errors[0]))
            raise errors[0]
        failed = {k: e for k, e in zip(self._order, errors[1:]) if e is not None}
        if failed:
            self._retire(failed)
            if not self._order:
                raise failed[max(failed)]
            bands = stack.work.band[self._slots]
        t = stack.t
        for g, X in self._explicit:
            g.observe(grid, np.subtract(self.reference.X, X, out=g.feedback), t)
            g.add_deltas(t)
        for _, m in self._deltas:
            m.delta(t)
        stack.step(self._slots, bands, self._extra_ab,
                   observe=self._observe if self._implicit else None)

    def _observe(self) -> list:
        """The implicit groups' terms of `Stack.step`: their feedback of
        the reference, solved, at its new time."""
        t = self._stack.t + self._stack.dt
        for g in self._implicit:
            g.observe(self.grid, self.reference.X, t)
        return self._observed


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
    the reference alone.  A member whose step fails (`Stack.step_error`:
    a non-finite state or a CFL violation) is retired by
    `CoupledStepper.step` and the others go on; a failure of the reference
    in spin-up is raised, and one while co-evolving retires every remaining
    member with the reference's error.
    """
    if isinstance(init_mode, str) and init_mode not in ("zero", "copy"):
        raise ValueError(f'init_mode {init_mode!r} is not "zero", "copy" or (v, w)')
    coupled = CoupledStepper(grid, params, forcing, configs, dt)
    ref = coupled.reference
    ref.set_state(initial_v, initial_w)
    if not isinstance(init_mode, str):
        for assim in coupled.members:
            assim.set_state(*init_mode)
    spun = spin_up(ref, tol=spinup_tol, max_time=spinup_max_time)
    if init_mode == "copy":
        # a stepped state is stream functions, divergence-free by its form
        for assim in coupled.members:
            assim.X[...] = ref.X

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
    traj = Trajectory(*traj_rows[:i + 1].T)
    return RunResult(errors, coupled.failures, traj, spun.time, spun.converged)
