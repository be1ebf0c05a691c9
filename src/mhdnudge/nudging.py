"""Co-evolution of a reference MHD solution with a nudged copy.

The assimilating system is the reference system plus the feedback term
mu * P[I_h(observed - model)] applied through an observation mask.  For
spectral-projection interpolants the self-damping half of the feedback is
folded into the implicit per-mode solve (the theorem-scale gains would
otherwise force dt ~ 1/mu); for the other interpolant kinds the feedback
is explicit, with the stability restriction mu*dt <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import ErrorSeries
from .dynamics import (
    BlowUpError,
    ElsasserState,
    ForcingSpec,
    MhdStepper,
    Trajectory,
    spin_up,
)
from .interpolants import (
    MASK_ALL,
    MASK_B_ONLY,
    MASK_FIRST,
    MASK_U_ONLY,
    MASK_V_ONLY,
    SPECTRAL,
    InterpolantSpec,
    apply_masked,
)
from .spectral import Grid, SpectralVectorField, divergence_defect, leray_project_coef


@dataclass
class Perturbation:
    """Fixed field scaled by a decaying envelope: amplitude * exp(-rate t)."""

    fld: SpectralVectorField
    amplitude: float
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("perturbation envelope rate must be >= 0")

    def coef_at(self, t: float) -> np.ndarray:
        return self.fld.coef * (self.amplitude * np.exp(-self.rate * t))


@dataclass
class NudgingConfig:
    mu: float
    interpolant: InterpolantSpec
    mask: str = MASK_ALL
    delta1: Perturbation | None = None  # added to the assimilated f only
    delta2: Perturbation | None = None  # added to the assimilated g only
    eps1: Perturbation | None = None    # observation error on v
    eps2: Perturbation | None = None    # observation error on w

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("gain mu must be >= 0")


@dataclass
class AssimilationPair:
    reference: ElsasserState
    assimilated: ElsasserState

    def __post_init__(self):
        if self.reference.v.grid.n != self.assimilated.v.grid.n:
            raise ValueError("reference and assimilated states on different grids")
        if self.reference.t != self.assimilated.t:
            raise ValueError("reference and assimilated clocks differ")


def init_assimilation(reference: ElsasserState, config: NudgingConfig,
                      init_mode="zero") -> AssimilationPair:
    """Initial assimilated state: zero (the default), a copy of the
    reference, or a caller-supplied divergence-free (v, w) pair."""
    grid = reference.v.grid
    if init_mode == "zero":
        z = np.zeros((2, grid.n, grid.n), dtype=np.complex128)
        assim = ElsasserState(
            SpectralVectorField(grid, z.copy(), divergence_free=True),
            SpectralVectorField(grid, z.copy(), divergence_free=True),
            reference.t,
        )
    elif init_mode == "copy":
        assim = ElsasserState(reference.v.copy(), reference.w.copy(), reference.t)
    else:
        v0, w0 = init_mode
        for name, f in (("v", v0), ("w", w0)):
            defect = divergence_defect(grid, f.coef)
            norm = np.sqrt(np.sum(np.abs(f.coef) ** 2))
            if defect > 1e-10 * max(norm, 1e-300):
                raise ValueError(f"custom initial {name} is not divergence-free")
        assim = ElsasserState(v0.copy(), w0.copy(), reference.t)
    return AssimilationPair(reference, assim)


# ---------------------------------------------------------------------------
# feedback term


def nudging_term(config: NudgingConfig, reference: ElsasserState,
                 assimilated: ElsasserState) -> np.ndarray:
    """mu * P[I_h masked(v + eps1 - v~, w + eps2 - w~)] as a (4,n,n) array."""
    if reference.t != assimilated.t:
        raise ValueError("reference and assimilated clocks differ")
    grid = reference.v.grid
    t = reference.t
    eta = reference.v.coef - assimilated.v.coef
    zeta = reference.w.coef - assimilated.w.coef
    if config.eps1 is not None:
        eta = eta + config.eps1.coef_at(t)
    if config.eps2 is not None:
        zeta = zeta + config.eps2.coef_at(t)
    fv, fw = apply_masked(config.interpolant, config.mask, grid, eta, zeta)
    out = np.empty((4, grid.n, grid.n), dtype=np.complex128)
    out[:2] = config.mu * leray_project_coef(grid, fv)
    out[2:] = config.mu * leray_project_coef(grid, fw)
    return out


def _observation_matrix(grid: Grid, config: NudgingConfig) -> np.ndarray:
    """Per-mode (n, n, 4, 4) matrix of mu * P I_h masked(.) for the spectral
    projection interpolant (the only kind that is diagonal per mode)."""
    if config.interpolant.kind != SPECTRAL:
        raise ValueError("implicit feedback requires the spectral interpolant")
    n = grid.n
    cut = config.interpolant.resolution
    chi = ((np.abs(grid.k1) <= cut) & (np.abs(grid.k2) <= cut)).astype(float)
    chi[0, 0] = 0.0
    # Leray projector entries
    p11 = 1.0 - grid.k1 * grid.k1 * grid.inv_ksq
    p12 = -grid.k1 * grid.k2 * grid.inv_ksq
    p22 = 1.0 - grid.k2 * grid.k2 * grid.inv_ksq
    p11 = np.where(grid.ksq > 0, p11, 0.0)
    p22 = np.where(grid.ksq > 0, p22, 0.0)
    P = np.zeros((n, n, 2, 2))
    P[..., 0, 0] = p11
    P[..., 0, 1] = p12
    P[..., 1, 0] = p12
    P[..., 1, 1] = p22
    M = np.zeros((n, n, 4, 4))
    mu_chi = (config.mu * chi)[..., None, None]
    if config.mask == MASK_ALL:
        M[..., :2, :2] = mu_chi * P
        M[..., 2:, 2:] = mu_chi * P
    elif config.mask == MASK_FIRST:
        PE1 = P.copy()
        PE1[..., :, 1] = 0.0  # observe first components only
        M[..., :2, :2] = mu_chi * PE1
        M[..., 2:, 2:] = mu_chi * PE1
    elif config.mask == MASK_V_ONLY:
        M[..., :2, :2] = mu_chi * P
    elif config.mask == MASK_B_ONLY:
        half = 0.5 * mu_chi * P
        M[..., :2, :2] = half
        M[..., :2, 2:] = -half
        M[..., 2:, :2] = -half
        M[..., 2:, 2:] = half
    elif config.mask == MASK_U_ONLY:
        half = 0.5 * mu_chi * P
        M[..., :2, :2] = half
        M[..., :2, 2:] = half
        M[..., 2:, :2] = half
        M[..., 2:, 2:] = half
    else:
        raise ValueError(f"unknown observation mask {config.mask!r}")
    return M


class _PerturbedForcing:
    """Forcing wrapper adding the delta perturbations of the assimilated
    system; presents the same f_coef/g_coef interface as ForcingSpec."""

    def __init__(self, base: ForcingSpec, delta1: Perturbation | None,
                 delta2: Perturbation | None):
        self.base = base
        self.delta1 = delta1
        self.delta2 = delta2

    def f_coef(self, t):
        out = self.base.f_coef(t)
        if self.delta1 is not None:
            out = out + self.delta1.coef_at(t)
        return out

    def g_coef(self, t):
        out = self.base.g_coef(t)
        if self.delta2 is not None:
            out = out + self.delta2.coef_at(t)
        return out


class CoupledStepper:
    """Advances the reference and the assimilating system on one clock."""

    def __init__(self, grid: Grid, params, forcing: ForcingSpec,
                 config: NudgingConfig, dt: float, cfl_safety: float = 0.5):
        self.grid = grid
        self.config = config
        self.implicit = config.interpolant.kind == SPECTRAL
        if not self.implicit and config.mu * dt > 1.0:
            raise ValueError(
                f"explicit nudging needs mu*dt <= 1; max admissible dt "
                f"is {1.0 / config.mu:.3e}")
        self.reference = MhdStepper(grid, params, forcing, dt,
                                    cfl_safety=cfl_safety)
        damping = _observation_matrix(grid, config) if self.implicit else None
        assim_forcing = _PerturbedForcing(forcing, config.delta1, config.delta2)
        self.assimilated = MhdStepper(grid, params, assim_forcing, dt,
                                      damping=damping, cfl_safety=cfl_safety)

    def set_states(self, pair: AssimilationPair):
        self.reference.set_state(pair.reference.v.coef, pair.reference.w.coef,
                                 pair.reference.t)
        self.assimilated.set_state(pair.assimilated.v.coef,
                                   pair.assimilated.w.coef, pair.assimilated.t)

    def pair(self) -> AssimilationPair:
        return AssimilationPair(self.reference.state(), self.assimilated.state())

    def _implicit_data_term(self) -> np.ndarray:
        # observation of the reference at the *new* time level, matching the
        # implicitly treated damping so a synchronized pair stays a fixed point
        cfg = self.config
        t = self.reference.t
        obs_v = self.reference.vcoef
        obs_w = self.reference.wcoef
        if cfg.eps1 is not None:
            obs_v = obs_v + cfg.eps1.coef_at(t)
        if cfg.eps2 is not None:
            obs_w = obs_w + cfg.eps2.coef_at(t)
        fv, fw = apply_masked(cfg.interpolant, cfg.mask, self.grid, obs_v, obs_w)
        out = np.empty((4, self.grid.n, self.grid.n), dtype=np.complex128)
        out[:2] = cfg.mu * leray_project_coef(self.grid, fv)
        out[2:] = cfg.mu * leray_project_coef(self.grid, fw)
        return out

    def step(self):
        if self.implicit:
            self.reference.advance()
            self.assimilated.advance(extra_plain=self._implicit_data_term())
        else:
            fb = nudging_term(self.config, self.reference.state(),
                              self.assimilated.state())
            self.reference.advance()
            self.assimilated.advance(extra_ab=fb)

    def error_coefs(self):
        return (self.reference.vcoef - self.assimilated.vcoef,
                self.reference.wcoef - self.assimilated.wcoef)


# ---------------------------------------------------------------------------
# full experiment driver


@dataclass
class RunResult:
    errors: ErrorSeries
    reference_trajectory: Trajectory
    spin_up_time: float
    final_pair: AssimilationPair


def run_assimilation(grid: Grid, params, forcing: ForcingSpec,
                     config: NudgingConfig, initial_v, initial_w,
                     dt: float, horizon: float,
                     spinup_max_time: float = 40.0, spinup_tol: float = 0.01,
                     sample_every: int = 10, init_mode="zero") -> RunResult:
    """Spin up the reference from (initial_v, initial_w), reset the clock,
    co-evolve to the horizon and record per-variable L2/H1 errors."""
    coupled = CoupledStepper(grid, params, forcing, config, dt)
    ref = coupled.reference
    ref.set_state(initial_v.coef, initial_w.coef, 0.0)
    spent = spin_up(ref, tol=spinup_tol, max_time=spinup_max_time)
    pair = init_assimilation(ref.state(), config, init_mode)
    coupled.assimilated.set_state(pair.assimilated.v.coef,
                                  pair.assimilated.w.coef, 0.0)

    n_steps = int(round(horizon / dt))
    n_samples = n_steps // sample_every + 1
    err_rows = np.empty((n_samples, 5))
    traj_rows = np.empty((n_steps + 1, 6))
    si = 0
    for i in range(n_steps + 1):
        l2v, l2w, h1v, h1w = ref.norms()
        fc = ref.forcing.f_coef(ref.t)
        gc = ref.forcing.g_coef(ref.t)
        f2 = float(np.sum(np.abs(fc) ** 2) + np.sum(np.abs(gc) ** 2))
        traj_rows[i] = (ref.t, l2v, l2w, h1v, h1w, f2)
        if i % sample_every == 0:
            ec_v, ec_w = coupled.error_coefs()
            av = np.abs(ec_v) ** 2
            aw = np.abs(ec_w) ** 2
            err_rows[si] = (
                ref.t,
                np.sqrt(av.sum()),
                np.sqrt(aw.sum()),
                2.0 * np.pi * np.sqrt((grid.ksq * av).sum()),
                2.0 * np.pi * np.sqrt((grid.ksq * aw).sum()),
            )
            if not np.isfinite(err_rows[si]).all():
                raise BlowUpError(ref.t, i, f"(mu={config.mu}, dt={dt})")
            si += 1
        if i < n_steps:
            coupled.step()
    errors = ErrorSeries(err_rows[:si, 0], err_rows[:si, 1], err_rows[:si, 2],
                         err_rows[:si, 3], err_rows[:si, 4])
    traj = Trajectory(traj_rows[:, 0], traj_rows[:, 1], traj_rows[:, 2],
                      traj_rows[:, 3], traj_rows[:, 4], traj_rows[:, 5])
    return RunResult(errors, traj, spent, coupled.pair())
