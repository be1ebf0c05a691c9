"""Co-evolution of a reference MHD solution with a nudged copy.

The assimilating system is the reference system plus the feedback term
mu * P[I_h(observed - model)] applied through an observation mask.  For
spectral-projection interpolants the self-damping half of the feedback is
folded into the implicit solve as dense 4x4 blocks on the observed modes,
the only modes where it acts (the theorem-scale gains would otherwise
force dt ~ 1/mu); for the other interpolant kinds the feedback is
explicit, with the stability restriction mu*dt <= 1.  Like the steppers'
states, the feedback and its inputs are (.., n, n/2 + 1) half spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import ErrorSeries
from .dynamics import (
    SPINUP_MAX_TIME,
    SPINUP_TOL,
    BlowUpError,
    ForcingSpec,
    MhdStepper,
    Trajectory,
    norms,
    project_half,
    project_pair,
    spin_up,
    trajectory_row,
)
from .interpolants import (
    MASK_ALL,
    SPECTRAL,
    InterpolantSpec,
    apply_interpolant_coef,
    apply_masked,
)
from .spectral import Grid, divergence_defect, l2_norm


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


def nudging_term(config: NudgingConfig, grid: Grid, eta: np.ndarray,
                 zeta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """mu * P[I_h masked(eta, zeta)] as a (4, n, w) array, written to `out`
    when it is given.

    Linear in the raw (2, n, w) coefficient arrays eta and zeta (half
    spectra, w = n/2 + 1, or full ones, w = n), which are observed minus
    model for the explicit feedback and the observation alone for the
    implicit data term.
    """
    if out is None:
        out = np.empty((4,) + eta.shape[1:], dtype=np.complex128)
    out[:2], out[2:] = apply_masked(config.interpolant, config.mask, grid,
                                    eta, zeta)
    project_pair(grid, out, out=out)
    out *= config.mu
    return out


def _observation_blocks(grid: Grid, config: NudgingConfig):
    """nudging_term for the spectral projection interpolant as (idx, blocks):
    the flat indices of the observed half-spectrum modes and the real
    (s, 4, 4) matrix of nudging_term at each of them.

    That interpolant, every mask and P act mode by mode, so column j of a
    mode's matrix is nudging_term applied to the constant unit field e_j.
    Every mask observes through I_h, so nudging_term is zero wherever I_h
    drops the mode.
    """
    if config.interpolant.kind != SPECTRAL:
        raise ValueError("implicit feedback requires the spectral interpolant")
    shape = (grid.n, grid.half_width)
    observed = apply_interpolant_coef(config.interpolant, grid, np.ones(shape))
    idx = np.flatnonzero(observed)
    blocks = np.empty((idx.size, 4, 4))
    for j in range(4):
        e = np.zeros((4,) + shape, dtype=np.complex128)
        e[j] = 1.0
        col = nudging_term(config, grid, e[:2], e[2:]).reshape(4, -1)
        blocks[:, :, j] = col[:, idx].real.T
    return idx, blocks


class CoupledStepper:
    """Advances the reference and the assimilating system on one clock."""

    def __init__(self, grid: Grid, params, forcing: ForcingSpec,
                 config: NudgingConfig, dt: float):
        self.grid = grid
        self.config = config
        self.implicit = config.interpolant.kind == SPECTRAL
        if not self.implicit and config.mu * dt > 1.0:
            raise ValueError(
                f"explicit nudging needs mu*dt <= 1; max admissible dt "
                f"is {1.0 / config.mu:.3e}")
        self.reference = MhdStepper(grid, params, forcing, dt)
        damping = _observation_blocks(grid, config) if self.implicit else None
        self.assimilated = MhdStepper(grid, params, forcing, dt, damping=damping)
        # P[m(t) delta] = m(t) P[delta], as for the forcing
        self._projected_delta = None if config.delta is None else project_half(
            grid, config.delta)
        eps = config.eps
        h = grid.half_width
        self._eps = None if eps is None else np.concatenate(
            [eps.f[..., :h], eps.g[..., :h]])
        self._feedback = np.empty_like(self.assimilated.X)

    def _observed(self) -> np.ndarray:
        """The observed reference state: its X plus the observation error."""
        ref = self.reference
        if self._eps is None:
            return ref.X
        return ref.X + self.config.eps.modulation.value(ref.t) * self._eps

    def step(self):
        cfg, grid = self.config, self.grid
        assim = self.assimilated
        delta = None
        if cfg.delta is not None:
            delta = cfg.delta.modulation.value(assim.t) * self._projected_delta
        if self.implicit:
            # observation of the reference at the *new* time level, matching
            # the implicitly treated damping so a synchronized pair stays a
            # fixed point
            self.reference.advance()
            obs = self._observed()
            assim.advance(extra_ab=delta, extra_plain=nudging_term(
                cfg, grid, obs[:2], obs[2:], out=self._feedback))
        else:
            diff = self._observed() - assim.X
            fb = nudging_term(cfg, grid, diff[:2], diff[2:], out=self._feedback)
            if delta is not None:
                fb += delta
            self.reference.advance()
            assim.advance(extra_ab=fb)


# ---------------------------------------------------------------------------
# full experiment driver


@dataclass
class RunResult:
    errors: ErrorSeries
    reference_trajectory: Trajectory
    spin_up_time: float
    spin_up_converged: bool


def _check_divfree(grid: Grid, named_fields):
    """Reject any (name, (2, n, n) coef) pair whose field is not
    divergence-free, to a relative tolerance of 1e-10."""
    for name, coef in named_fields:
        if divergence_defect(grid, coef) > 1e-10 * max(l2_norm(coef), 1e-300):
            raise ValueError(f"{name} is not divergence-free")


def run_assimilation(grid: Grid, params, forcing: ForcingSpec,
                     config: NudgingConfig, initial_v: np.ndarray,
                     initial_w: np.ndarray, dt: float, horizon: float,
                     spinup_max_time: float = SPINUP_MAX_TIME,
                     spinup_tol: float = SPINUP_TOL,
                     sample_every: int = 10, init_mode="zero") -> RunResult:
    """Spin up the reference from (initial_v, initial_w), reset the clock,
    co-evolve to the horizon and record per-variable L2/H1 errors.

    The assimilated system starts at zero (`init_mode` "zero"), at a copy
    of the spun-up reference ("copy"), or at a caller-supplied (v, w) pair
    of (2, n, n) arrays.  Every caller-supplied field must be
    divergence-free.
    """
    fields = [("initial v", initial_v), ("initial w", initial_w)]
    if init_mode not in ("zero", "copy"):
        fields += [("custom initial v", init_mode[0]),
                   ("custom initial w", init_mode[1])]
    _check_divfree(grid, fields)
    coupled = CoupledStepper(grid, params, forcing, config, dt)
    ref, assim = coupled.reference, coupled.assimilated
    ref.set_state(initial_v, initial_w, 0.0)
    spun = spin_up(ref, tol=spinup_tol, max_time=spinup_max_time)
    if init_mode == "copy":
        assim.set_state(ref.X[:2], ref.X[2:])
    elif init_mode != "zero":
        assim.set_state(*init_mode)

    n_steps = int(round(horizon / dt))
    err_rows = np.empty((n_steps // sample_every + 1, 5))
    traj_rows = np.empty((n_steps + 1, 6))
    for i in range(n_steps + 1):
        traj_rows[i] = trajectory_row(ref)
        if i % sample_every == 0:
            row = (ref.t, *norms(grid, ref.X - assim.X))
            if not np.isfinite(row).all():
                raise BlowUpError(ref.t, i, f"(mu={config.mu}, dt={dt})")
            err_rows[i // sample_every] = row
        if i < n_steps:
            coupled.step()
    return RunResult(ErrorSeries(*err_rows.T), Trajectory.from_rows(traj_rows),
                     spun.time, spun.converged)
