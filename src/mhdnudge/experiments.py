"""Configuration-driven experiment scenarios and artifact emission.

A run is described by a flat ``key = value`` config file (unknown keys are
errors, not warnings: run provenance must be airtight).  Every run
directory receives the normalized config, the reference trajectory and
error-series CSVs, a constants ledger and a threshold report, so a run can
be replayed bitwise from its own embedded config.

Every run of a scenario, alone or as a sweep value, ends in `_run_group`,
which writes its `summary.json` and maps its outcome to an exit code: 0 all
checks passed, 2 invalid config, 3 numerical blow-up or CFL violation, or
any other exception, whose type the summary's error names, 4 scenario check
failed.  A sweep records each value's code and goes on.  The interpolant
verification steps nothing and does not end there: it writes `config.txt`
and `interpolant_report.json` and returns its own code.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import diagnostics as diag
from .dynamics import (
    SPINUP_MAX_TIME,
    SPINUP_TOL,
    BlowUpError,
    CflError,
    ForcingSpec,
    Modulation,
    derive_elsasser_params,
    energy_budget,
    forcing_from_original,
    grashof_number,
    norms,
    spin_up,
)
from .interpolants import (
    MASK_ALL,
    MASK_B_ONLY,
    MASK_FIRST,
    MASK_U_ONLY,
    MASK_V_ONLY,
    NODAL,
    SPECTRAL,
    CALIBRATION_INFLATION,
    InterpolantSpec,
    apply_interpolant_coef,
    calibrate,
    check_grid,
    verification_report,
)
from .nudging import (
    ConfigError,
    CoupledStepper,
    NudgingConfig,
    check_explicit_gain,
    run_assimilation,
)
from .spectral import (
    Grid,
    forward_transform,
    l2_norm,
    random_divfree_field,
    velocity,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CHECK = 4

SCENARIOS = (
    "baseline",
    "h1track",
    "type2",
    "generalized-da",
    "determining",
    "b-only-control",
    "u-only-exploratory",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """The config keys, in file order, with their types and defaults; a key
    without a default must be present."""

    scenario: str
    outdir: str = "runs"
    n: int = 64
    re: float = 5.0
    rm: float = 5.0
    seed: int = 0
    dt: float = 2e-3
    horizon: float = 20.0
    sample_every: int = 10
    spinup_max_time: float = SPINUP_MAX_TIME
    spinup_tol: float = SPINUP_TOL
    init_amplitude: float = 1.0
    forcing_mode: str = "random"
    forcing_amplitude: float = 2.0
    forcing_g_amplitude: float = 0.0
    forcing_kmax: int = 2
    forcing_seed: int = 100
    forcing_kolmogorov_k: int = 2
    modulation_amplitude: float = 0.0
    modulation_rate: float = 0.0
    modulation_offset: float = 1.0
    interpolant_kind: str = SPECTRAL
    interpolant_h: float = 0.125
    mask: str = MASK_ALL
    mu: float = 50.0
    init_mode: str = "zero"
    init_seed: int = 1
    delta_amplitude: float = 0.0
    delta_rate: float = 1.0
    eps_amplitude: float = 0.0
    eps_rate: float = 1.0
    det_seed2: int = 7
    det_envelope_amplitude: float = 1.0
    det_envelope_rate: float = 1.0
    calibration_samples: int = 100

    def validated(self) -> "ExperimentConfig":
        """This config, once each key is checked: ConfigError otherwise.
        The gain, interpolant and mask are checked by the NudgingConfig they
        make, the interpolant's fit to the grid by `check_grid` and the
        gain's stability by `check_explicit_gain`."""
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"expected one of {SCENARIOS}")
        if self.forcing_mode not in ("random", "kolmogorov"):
            raise ConfigError(f"unknown forcing mode {self.forcing_mode!r}")
        if self.init_mode not in ("zero", "copy", "random"):
            raise ConfigError(f"unknown init mode {self.init_mode!r}")
        for key, typ in _TYPES.items():
            if typ is float and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        try:
            spec = InterpolantSpec(self.interpolant_kind, self.interpolant_h)
            NudgingConfig(self.mu, spec, self.mask)
            # Grid checks n before the interpolant's fit to it
            check_grid(spec.kind, Grid(self.n).n, spec.resolution)
            derive_elsasser_params(self.re, self.rm)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key in ("modulation_rate", "delta_rate", "eps_rate",
                    "det_envelope_rate", "seed", "forcing_seed", "init_seed",
                    "det_seed2"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        # a wavenumber above the dealiasing cutoff n//3 is not resolved
        for key in ("forcing_kmax", "forcing_kolmogorov_k"):
            if not 1 <= getattr(self, key) <= self.n // 3:
                raise ConfigError(f"{key} must lie in 1..{self.n // 3} (n//3), "
                                  f"got {getattr(self, key)}")
        if self.dt <= 0 or self.horizon <= 0:
            raise ConfigError("dt and horizon must be positive")
        # the energy budget differences three trajectory samples
        if round(self.horizon / self.dt) < 2:
            raise ConfigError(f"horizon must span at least 2 steps of dt, got "
                              f"horizon/dt = {self.horizon / self.dt:g}")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        if self.calibration_samples < 1:
            raise ConfigError("calibration_samples must be >= 1")
        # config.txt records the outdir as one `outdir = ...` line (`dump`),
        # which must read back as this outdir
        if (len(self.outdir.splitlines()) > 1
                or _COMMENT.sub("", self.outdir, count=1).strip() != self.outdir):
            raise ConfigError(
                f"outdir {self.outdir!r} would not read back from config.txt: "
                "it may not hold a line break, a '#' at its start or after "
                "whitespace, or whitespace at either end")
        # the determining scenario derives its own gain and does not use mu
        if self.scenario != "determining":
            check_explicit_gain(self.interpolant_kind, self.mu, self.dt)
        return self

    def dump(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


_TYPES = get_type_hints(ExperimentConfig)


# a comment: a `#` at the start of a line or after whitespace, to the end
# of the line; any other `#` is part of its value, as in `outdir = out#1`
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        typ = _TYPES[key]
        try:
            values[key] = typ(val)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: cannot parse {key!r} as {typ.__name__}: {val!r}"
            ) from exc
    if overrides:
        values.update(overrides)
    for f in fields(ExperimentConfig):
        if f.name not in values and f.default is MISSING:
            raise ConfigError(f"missing required key {f.name!r}")
    return ExperimentConfig(**values).validated()


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    # utf-8-sig drops the byte-order mark that some editors write
    with open(path, encoding="utf-8-sig") as fh:
        return parse_config_text(fh.read(), overrides)


# ---------------------------------------------------------------------------
# building blocks


def _normalize(coef: np.ndarray, amplitude: float) -> np.ndarray:
    norm = l2_norm(coef)
    if norm == 0 or amplitude == 0:
        return np.zeros_like(coef)
    return coef * (amplitude / norm)


def build_forcing(grid: Grid, cfg: ExperimentConfig) -> ForcingSpec:
    if cfg.forcing_mode == "random":
        f1 = _normalize(
            random_divfree_field(grid, cfg.forcing_seed, 2.0, cfg.forcing_kmax),
            cfg.forcing_amplitude)
    else:  # kolmogorov: f1 = A sin(2 pi k y) e1
        x1, x2 = grid.points()
        phys = np.zeros((2, grid.n, grid.n))
        phys[0] = np.sin(2.0 * np.pi * cfg.forcing_kolmogorov_k * x2)
        f1 = _normalize(forward_transform(grid, phys)[0], cfg.forcing_amplitude)
    g1 = _normalize(
        random_divfree_field(grid, cfg.forcing_seed + 1, 2.0, cfg.forcing_kmax),
        cfg.forcing_g_amplitude)
    return forcing_from_original(
        f1, g1, Modulation(cfg.modulation_amplitude, cfg.modulation_rate,
                           cfg.modulation_offset))


def _decaying_pair(grid: Grid, cfg: ExperimentConfig, seed: int,
                   amplitude: float, rate: float) -> ForcingSpec | None:
    """Unit-norm random pair (seeds `seed`, `seed` + 1) scaled by
    amplitude * exp(-rate t); None when the amplitude is 0."""
    if amplitude == 0.0:
        return None
    f, g = (_normalize(random_divfree_field(grid, k, 2.0, cfg.forcing_kmax), 1.0)
            for k in (seed, seed + 1))
    return ForcingSpec(f, g, Modulation(amplitude, rate, 0.0))


def build_nudging_config(grid: Grid, cfg: ExperimentConfig) -> NudgingConfig:
    spec = InterpolantSpec(cfg.interpolant_kind, cfg.interpolant_h)
    delta = _decaying_pair(grid, cfg, cfg.forcing_seed + 11,
                           cfg.delta_amplitude, cfg.delta_rate)
    eps = _decaying_pair(grid, cfg, cfg.forcing_seed + 13,
                         cfg.eps_amplitude, cfg.eps_rate)
    return NudgingConfig(cfg.mu, spec, cfg.mask, delta, eps)


def _initial_field(grid: Grid, cfg: ExperimentConfig, seed: int) -> np.ndarray:
    return _normalize(random_divfree_field(grid, seed, 2.0), cfg.init_amplitude)


def _trajectory_table(traj, params):
    """Rows of the trajectory CSV, with the energy-budget residuals, and
    the residuals' flags."""
    residuals, flags = energy_budget(traj, params)
    res = np.zeros(len(traj.times))
    res[1:-1] = residuals
    return np.column_stack([traj.times, traj.l2_v, traj.l2_w, traj.h1_v,
                            traj.h1_w, res]), flags


def _json_default(o):
    if isinstance(o, (np.bool_, np.floating, np.integer)):
        return o.item()
    return float(o)


def _json_dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _theorem_ids_for(cfg: ExperimentConfig):
    """The theorems that cover the config's observations: all variables,
    one component, or one Elsasser variable.  b = (v - w)/2 and
    u = (v + w)/2 are none of these, so no theorem covers their masks."""
    if cfg.mask in (MASK_B_ONLY, MASK_U_ONLY):
        return []
    if cfg.interpolant_kind == NODAL:
        return [diag.THM_T2_FIRST]
    return {
        MASK_ALL: [diag.THM_ALL, diag.THM_H1_ALL],
        MASK_FIRST: [diag.THM_FIRST, diag.THM_H1_FIRST],
        MASK_V_ONLY: [diag.THM_V, diag.THM_H1_V],
    }[cfg.mask]


def threshold_report(cfg: ExperimentConfig, params, G: float,
                     constants: dict) -> dict:
    """Per-theorem thresholds at the analysis constants and the
    interpolant constants that `calibrate` returns."""
    report = {"G": G, "actual_mu": cfg.mu, "actual_h": cfg.interpolant_h,
              "theorems": {}}
    for tid in _theorem_ids_for(cfg):
        th = diag.theorem_thresholds(tid, G, params, **constants)
        report["theorems"][tid] = {
            "mu_min": th.mu_min,
            "h_max": th.h_max,
            "mu_satisfied": cfg.mu > th.mu_min,
            "h_satisfied": cfg.interpolant_h <= th.h_max,
            "constants_used": th.constants_used,
        }
    return report


# ---------------------------------------------------------------------------
# scenario runners


def _run_nudged(cfgs, outdirs):
    """Nudge one member per config against one reference run and write each
    surviving member's artifacts.  The configs differ at most in mu and
    interpolant_h.  Returns, per config, (its ErrorSeries, its summary) or
    the error that retired its member or ended its analysis."""
    cfg = cfgs[0]
    grid = Grid(cfg.n)
    params = derive_elsasser_params(cfg.re, cfg.rm)
    forcing = build_forcing(grid, cfg)
    ncfgs = [build_nudging_config(grid, c) for c in cfgs]
    init = _initial_field(grid, cfg, cfg.seed)
    init_mode = cfg.init_mode
    if init_mode == "random":
        alt = _initial_field(grid, cfg, cfg.init_seed)
        init_mode = (alt, alt)
    result = run_assimilation(
        grid, params, forcing, ncfgs, init, init, cfg.dt, cfg.horizon,
        spinup_max_time=cfg.spinup_max_time, spinup_tol=cfg.spinup_tol,
        sample_every=cfg.sample_every, init_mode=init_mode)
    if len(result.failures) == len(cfgs):  # nothing is left to analyse
        return [result.failures[k] for k in range(len(cfgs))]
    G = grashof_number(forcing, params)
    traj = result.reference_trajectory
    traj_table, energy_flags = _trajectory_table(traj, params)
    traj_csv = diag._csv_text("t,l2_v,l2_w,h1_v,h1_w,energy_residual", traj_table)
    constants = diag.ANALYSIS_CONSTANTS
    try:
        int_bound = diag.check_int_bound(traj, G, params)
    except ValueError as exc:
        int_bound = {"passed": False, "error": str(exc)}
    # enstrophy factor of the damping coefficient of the all-components
    # convergence proof
    nub = params.nu_bar
    enstrophy_term = ((constants["c_L"] ** 4 + nub ** 4) / (2.0 * nub ** 3)) \
        * traj.enstrophy()
    calibrated = {}  # one calibration per distinct interpolant
    outcomes = []
    for k, (c, outdir, ncfg, errors) in enumerate(
            zip(cfgs, outdirs, ncfgs, result.errors)):
        if errors is None:
            outcomes.append(result.failures[k])
            continue
        try:  # an exception here fails this member's value only
            if ncfg.interpolant not in calibrated:
                calibrated[ncfg.interpolant] = calibrate(
                    ncfg.interpolant, grid, c.calibration_samples, c.forcing_seed)
            fitted = calibrated[ncfg.interpolant]
            diag._write_text(os.path.join(outdir, "trajectory.csv"), traj_csv)
            errors.save_csv(os.path.join(outdir, "errors.csv"))
            _json_dump(os.path.join(outdir, "thresholds.json"),
                       threshold_report(c, params, G, fitted))
            # the keys of both types, null where this type has none
            _json_dump(os.path.join(outdir, "constants.json"),
                       {**constants, "c1": None, "c2": None, "c3": None, **fitted})
            try:
                gronwall = diag.gronwall_condition_check(
                    traj.times, c.mu - enstrophy_term, params.window)
            except ValueError as exc:
                gronwall = {"error": str(exc)}
            outcomes.append((errors, {
                "scenario": c.scenario,
                "n": c.n, "re": c.re, "rm": c.rm,
                "alpha": params.alpha, "beta": params.beta,
                "G": G, "mu": c.mu, "mask": c.mask,
                "interpolant_kind": c.interpolant_kind, "h": c.interpolant_h,
                "spin_up_time": result.spin_up_time,
                "spin_up_converged": result.spin_up_converged,
                "l2_fit": diag.decay_window_fit(errors.times, errors.l2_total()),
                "h1_fit": diag.decay_window_fit(errors.times, errors.h1_total()),
                "checks": {
                    "energy_budget": not energy_flags.any(),
                    "int_bound": int_bound,
                    "gronwall": gronwall,
                },
                "note": "desk-scale regime chosen by this artifact, not by theory",
            }))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _tail_rate(times, values, checks: dict):
    """Decay rate (positive: decaying) fitted over the second half of a
    series.  If that half is too short to fit, the failure is recorded as
    checks["tail_fit"] and None is returned."""
    try:
        rate, _ = diag.fit_exponential_rate(times, values)
    except ValueError as exc:
        checks["tail_fit"] = {"passed": False, "error": str(exc)}
        return None
    return rate


def _convergence_ok(fit: dict, orders: float = 6.0, r2: float = 0.98) -> bool:
    return fit["orders_of_decay"] >= orders and fit["r_squared"] >= r2


def _judge(cfg: ExperimentConfig, errors, summary: dict) -> bool:
    """The scenario's checks, added to summary["checks"]; True if it passed."""
    checks = summary["checks"]
    if cfg.scenario == "baseline":
        checks["l2_decay"] = _convergence_ok(summary["l2_fit"])
        return checks["l2_decay"] and checks["energy_budget"] \
            and checks["int_bound"]["passed"]
    if cfg.scenario == "h1track":
        checks["l2_decay"] = _convergence_ok(summary["l2_fit"])
        checks["h1_decay"] = _convergence_ok(summary["h1_fit"])
        dt_sample = cfg.dt * cfg.sample_every
        checks["h1_onset_after_l2"] = (
            summary["h1_fit"]["onset_time"]
            >= summary["l2_fit"]["onset_time"] - dt_sample * 1.5)
        return all(checks[k] for k in
                   ("l2_decay", "h1_decay", "h1_onset_after_l2"))
    if cfg.scenario == "type2":
        checks["h1_decay_4_orders"] = _convergence_ok(
            summary["h1_fit"], orders=4.0, r2=0.0) \
            and summary["h1_fit"]["rate"] > 0
        return checks["h1_decay_4_orders"]
    if cfg.scenario == "generalized-da":
        rate = _tail_rate(errors.times, errors.l2_total(), checks)
        checks["tail_trend_decaying"] = rate is not None and rate > 0
        return checks["tail_trend_decaying"]
    if cfg.scenario == "determining":
        rate_ih, rate_full = (summary["tail_rate_interpolant"],
                              summary["tail_rate_full"])
        checks["ih_difference_decays"] = rate_ih is not None and rate_ih > 0
        checks["full_difference_decays"] = rate_full is not None and rate_full > 0
        checks["terminal_below_1e3_peak"] = (summary["terminal_full_difference"]
                                             <= 1e-3 * summary["peak_full_difference"])
        return all(checks[k] for k in ("ih_difference_decays",
                                       "full_difference_decays",
                                       "terminal_below_1e3_peak"))
    if cfg.scenario == "b-only-control":
        vals = errors.l2_total()
        checks["non_convergence"] = bool(vals[-1] > 1e-2 * vals[0])
        return checks["non_convergence"]
    # u-only-exploratory: no acceptance requirement
    checks["exploratory"] = True
    return True


def run_scenario(cfg: ExperimentConfig, outdir=None):
    """Execute one scenario end to end.  Returns (exit_code, summary)."""
    return _run_group([cfg], [outdir or cfg.outdir])[0]


def _group_key(cfg: ExperimentConfig) -> ExperimentConfig:
    """Configs with equal keys differ at most in mu and interpolant_h, so
    _run_group runs them against one reference."""
    if cfg.scenario == "determining":
        return cfg
    return replace(cfg, mu=0.0, interpolant_h=1.0)


def _conclude(cfg: ExperimentConfig, outcome):
    """(exit code, summary) of a config's outcome: the exception that ended
    it, or the (errors, summary) of a finished run, judged here."""
    if isinstance(outcome, Exception):
        error = str(outcome)
        if not isinstance(outcome, (ConfigError, BlowUpError, CflError)):
            error = f"{type(outcome).__name__}: {error}"
        code = EXIT_CONFIG if isinstance(outcome, ConfigError) else EXIT_BLOWUP
        return code, {"scenario": cfg.scenario, "error": error, "passed": False}
    errors, summary = outcome
    summary["passed"] = bool(_judge(cfg, errors, summary))
    return (EXIT_OK if summary["passed"] else EXIT_CHECK), summary


def _run_group(cfgs, outdirs):
    """Execute configs with one _group_key, each into its own directory,
    with one reference run for all of them: one call of the scenario's
    runner, `_scenario_determining` or `_run_nudged`, which both take the
    configs and their directories and return one outcome per config.
    Returns one (exit_code, summary) per config, each what a run of that
    config alone gives, and writes that summary.  An exception that escapes
    the group, an invalid config's ConfigError among them, fails each of
    its values."""
    for cfg, outdir in zip(cfgs, outdirs):
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "config.txt"), "w") as fh:
            fh.write(cfg.dump())
    try:
        for cfg in cfgs:
            cfg.validated()
        runner = (_scenario_determining if cfgs[0].scenario == "determining"
                  else _run_nudged)
        outcomes = runner(cfgs, outdirs)
    except Exception as exc:
        outcomes = [exc] * len(cfgs)
    results = [_conclude(cfg, outcome) for cfg, outcome in zip(cfgs, outcomes)]
    for outdir, (_, summary) in zip(outdirs, results):
        _json_dump(os.path.join(outdir, "summary.json"), summary)
    return results


# ---------------------------------------------------------------------------
# determining-interpolant experiment


def _scenario_determining(cfgs, outdirs):
    """Two solutions, forced by f1 and f2, and the auxiliary nudged toward
    the first, for the one config of `cfgs` (a determining config is its
    own group key); writes determining.csv to the one directory of
    `outdirs` and returns [(None, summary)], for _judge.

    f2 is f1 + delta, with delta = A exp(-r t) (f, g): (f, g) is f1's
    unmodulated pair, A and r are det_envelope_amplitude and
    det_envelope_rate.  delta must decay (r > 0 or A = 0), so f2 and f1
    share their Grashof number.  The three run on one CoupledStepper.
    Solution 1 is its reference.  Solution 2 and the auxiliary are its
    members, and both carry delta: solution 2 with gain 0, which makes it
    the free system forced by f2, and the auxiliary with the gain the
    convergence proof dictates.  A failure of any of the three ends the
    run.
    """
    (cfg,), (outdir,) = cfgs, outdirs
    amplitude, rate = cfg.det_envelope_amplitude, cfg.det_envelope_rate
    if rate == 0 and amplitude != 0:
        raise ConfigError(f"determining needs f2 - f1 to decay, but det_envelope_rate"
                          f" is 0 and det_envelope_amplitude {amplitude}")
    grid = Grid(cfg.n)
    params = derive_elsasser_params(cfg.re, cfg.rm)
    forcing1 = build_forcing(grid, cfg)
    G = grashof_number(forcing1, params)
    delta = ForcingSpec(forcing1.f, forcing1.g, Modulation(amplitude, rate, 0.0))

    chi_spec = InterpolantSpec(cfg.interpolant_kind, cfg.interpolant_h)
    fitted = calibrate(chi_spec, grid, cfg.calibration_samples, cfg.forcing_seed)
    # the auxiliary's gain is the one the convergence argument dictates for
    # this resolution
    if chi_spec.type_class == 1:
        scale = fitted["c1"] ** 2 * cfg.interpolant_h ** 2
    else:
        scale = 2.0 * cfg.interpolant_h ** 2 * max(fitted["c2"] ** 2, fitted["c3"])
    if scale == 0:
        raise ConfigError(
            f"determining derives its gain from the interpolant constants, "
            f"which are 0 at h={cfg.interpolant_h}, n={cfg.n}: I_h reproduces "
            f"every resolved field, and no finite gain follows")
    mu_aux = params.nu_bar / scale
    # validated() cannot see the derived gain; CoupledStepper checks it too,
    # and this call only names it mu_aux in summary.json's message
    check_explicit_gain(cfg.interpolant_kind, mu_aux, cfg.dt, "mu_aux")
    coupled = CoupledStepper(grid, params, forcing1, [
        NudgingConfig(mu_aux, chi_spec, MASK_ALL, delta),
        NudgingConfig(0.0, chi_spec, MASK_ALL, delta)], cfg.dt)
    sol1 = coupled.reference
    aux, sol2 = coupled.members  # aux starts at zero
    for sol, seed in ((sol1, cfg.seed), (sol2, cfg.det_seed2)):
        init = _initial_field(grid, cfg, seed)
        sol.set_state(init, init)
    # both solutions spin up under f1; f2's envelope clock starts at the
    # reset t = 0
    spun = [spin_up(s, cfg.spinup_tol, cfg.spinup_max_time) for s in (sol1, sol2)]

    n_steps = int(round(cfg.horizon / cfg.dt))
    rows = []

    def record():
        diff = sol1.X - sol2.X
        # I_h acts on the vectors; its result need not be divergence-free
        l2_ih = [l2_norm(x) for x in apply_interpolant_coef(
            chi_spec, grid, velocity(grid, diff))]
        l2_diff = norms(grid, diff)[:2]
        rows.append((sol1.t, *l2_ih, *l2_diff,
                     math.hypot(*norms(grid, sol1.X - aux.X)[:2]),
                     math.hypot(*norms(grid, sol2.X - aux.X)[:2])))

    for i in range(n_steps + 1):
        record()
        if i < n_steps:
            coupled.step()
            if coupled.failures:  # the step retires a member and goes on
                raise next(iter(coupled.failures.values()))

    arr = np.array(rows)
    diag._write_csv(os.path.join(outdir, "determining.csv"),
                    "t,ih_diff_v,ih_diff_w,l2_diff_v,l2_diff_w,"
                    "aux_minus_sol1,aux_minus_sol2", arr)

    full = np.sqrt(arr[:, 3] ** 2 + arr[:, 4] ** 2)
    ih = np.sqrt(arr[:, 1] ** 2 + arr[:, 2] ** 2)
    checks = {}
    return [(None, {
        "scenario": "determining",
        "G": G, "mu_aux": mu_aux, "h": cfg.interpolant_h,
        "peak_full_difference": float(np.max(full)),
        "terminal_full_difference": float(full[-1]),
        "tail_rate_full": _tail_rate(arr[:, 0], full, checks),
        "tail_rate_interpolant": _tail_rate(arr[:, 0], ih, checks),
        "spin_up_converged": all(r.converged for r in spun),
        "checks": checks,
    })]


# ---------------------------------------------------------------------------
# sweeps


def run_sweep(cfg: ExperimentConfig, axis: str, values, outdir=None,
              max_workers: int | None = None):
    """One scenario run per value along mu | h | G, each in its own
    directory; failures are recorded and the sweep continues.

    Values of a mu or h sweep share one reference run (see _run_group);
    each G value has its own forcing, so runs alone, and `max_workers`
    spreads those runs over processes.
    """
    if axis not in ("mu", "h", "G"):
        raise ConfigError(f"sweep axis must be mu, h or G, got {axis!r}")
    if max_workers is not None and max_workers < 1:
        raise ConfigError(f"sweep workers must be >= 1, got {max_workers}")
    values = [float(v) for v in values]
    if any(not np.isfinite(v) or v < 0 for v in values):
        raise ConfigError("sweep values must be finite and nonnegative")
    names = [f"{axis}={v:g}" for v in values]
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise ConfigError(f"sweep values must have distinct directory names; "
                          f"{', '.join(clashes)} is shared by several values")
    outdir = outdir or cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    if axis == "G":
        g_base = grashof_number(build_forcing(Grid(cfg.n), cfg),
                                derive_elsasser_params(cfg.re, cfg.rm))
        if g_base == 0:
            raise ConfigError("cannot sweep G from a zero-forcing base config")
    results = [None] * len(values)
    groups = {}  # group key -> indices of its values
    subs = []
    for i, v in enumerate(values):
        if axis == "mu":
            sub = replace(cfg, mu=v)
        elif axis == "h":
            sub = replace(cfg, interpolant_h=v)
        else:
            scalef = v / g_base
            sub = replace(cfg, forcing_amplitude=cfg.forcing_amplitude * scalef,
                          forcing_g_amplitude=cfg.forcing_g_amplitude * scalef)
        try:
            sub.validated()
        except ConfigError:  # runs alone, to its ConfigError in _run_group
            groups[i] = [i]
        else:
            groups.setdefault(_group_key(sub), []).append(i)
        subs.append(sub)
    jobs = [([subs[i] for i in idx], [os.path.join(outdir, names[i]) for i in idx])
            for idx in groups.values()]
    if max_workers == 1 or len(jobs) <= 1:
        done = [_run_group(*job) for job in jobs]
    else:  # imported here, so that no other run loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            done = list(pool.map(_run_group, *zip(*jobs)))
    for idx, group_results in zip(groups.values(), done):
        for i, result in zip(idx, group_results):
            results[i] = result

    table = []
    for v, (code, summary) in zip(values, results):
        fit = summary.get("l2_fit", {})
        table.append({
            "value": v,
            "exit_code": code,
            "rate": fit.get("rate"),
            "r_squared": fit.get("r_squared"),
            "passed": summary.get("passed", False),
            "spin_up_converged": summary.get("spin_up_converged"),
        })
    with open(os.path.join(outdir, "sweep.csv"), "w") as fh:
        fh.write("value,exit_code,rate,r_squared,passed\n")
        for row in table:
            fh.write(f"{row['value']!r},{row['exit_code']},"
                     f"{row['rate']!r},{row['r_squared']!r},{row['passed']}\n")
    _json_dump(os.path.join(outdir, "sweep.json"), {"axis": axis, "runs": table})
    return table


def run_interpolant_verification(cfg: ExperimentConfig, n_samples: int,
                                 outdir=None):
    if n_samples < 1:
        raise ConfigError(f"verification samples must be >= 1, got {n_samples}")
    outdir = outdir or cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write(cfg.dump())
    grid = Grid(cfg.n)
    spec = InterpolantSpec(cfg.interpolant_kind, cfg.interpolant_h)
    report = verification_report(spec, grid, n_samples, cfg.forcing_seed)
    _json_dump(os.path.join(outdir, "interpolant_report.json"), report)
    ok = True
    if spec.kind == SPECTRAL:
        # the inflated constant that calibrate returns may exceed the
        # analytic value; the raw empirical maximum must not
        ok = report["c1"] / CALIBRATION_INFLATION <= 1.0 / (2.0 * np.pi) + 1e-6
    return (EXIT_OK if ok else EXIT_CHECK), report
