"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion before asserting, so
a full run of this module doubles as the acceptance report.  The expensive
reference run is shared through module-scope fixtures: criteria 1-4 are the
members of one nudged system.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mhdnudge.diagnostics import (
    THM_ALL,
    THM_FIRST,
    THM_H1_ALL,
    THM_H1_FIRST,
    THM_H1_V,
    THM_T2_FIRST,
    THM_V,
    check_int_bound,
    decay_window_fit,
    theorem_thresholds,
)
from mhdnudge.dynamics import (
    MhdStepper,
    Stack,
    derive_elsasser_params,
    energy_budget,
    grashof_number,
)
from mhdnudge.experiments import build_forcing, parse_config_text, run_scenario
from mhdnudge.interpolants import (
    MASK_ALL,
    MASK_FIRST,
    MASK_V_ONLY,
    NODAL,
    SPECTRAL,
    VOLUME,
    InterpolantSpec,
    apply_interpolant_coef,
    calibrate,
    verify_type1_bound,
)
from mhdnudge.nudging import CoupledStepper, NudgingConfig, run_assimilation
from mhdnudge.spectral import (
    Grid,
    l2_norm,
    random_scalar_field,
)

from conftest import (
    h1_seminorm,
    h2_seminorm,
    normalized_field,
    record_trajectory,
    state_l2,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_summary.json").read_text())


def report(num, desc, ok):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}",
          flush=True)
    return ok


def converged(fit, orders=6.0, r2=0.98):
    return fit["orders_of_decay"] >= orders and fit["r_squared"] >= r2


@pytest.fixture(scope="module")
def grid64():
    return Grid(64)


@pytest.fixture(scope="module")
def params64():
    g = GOLDEN["baseline"]
    return derive_elsasser_params(g["re"], g["rm"])


@pytest.fixture(scope="module")
def forcing64(grid64):
    return build_forcing(grid64, parse_config_text("scenario = baseline\n"))


# the golden configs nudged against the one reference of shared_run; each
# member advances bitwise as it would in its own pair
# (test_nudging.py::test_members_match_one_member_systems)
MEMBERS = ("baseline", "first", "v-only", "type2")


@pytest.fixture(scope="module")
def shared_run(grid64, params64, forcing64):
    """(the RunResult, its wall time, member name -> its ErrorSeries)."""
    g = GOLDEN["baseline"]
    configs = [NudgingConfig(GOLDEN[key]["mu"],
                             InterpolantSpec(GOLDEN[key]["interpolant_kind"],
                                             GOLDEN[key]["h"]),
                             GOLDEN[key]["mask"]) for key in MEMBERS]
    init = normalized_field(grid64, 0, 1.0)
    start = time.monotonic()
    result = run_assimilation(grid64, params64, forcing64, configs, init,
                              init.copy(), g["dt"], g["horizon"], sample_every=5)
    elapsed = time.monotonic() - start
    return result, elapsed, dict(zip(MEMBERS, result.errors))


def test_criterion_1_full_observation_sync(shared_run):
    _, elapsed, errors = shared_run
    fit = decay_window_fit(errors["baseline"].times, errors["baseline"].l2_total())
    ok = converged(fit) and elapsed < 300.0
    report(1, f"full-observation L2 sync: {fit['orders_of_decay']:.1f} orders, "
              f"R^2={fit['r_squared']:.4f}, {elapsed:.0f}s", ok)
    assert ok


def test_criterion_2_h1_tracking(shared_run):
    errors = shared_run[2]["baseline"]
    l2 = decay_window_fit(errors.times, errors.l2_total())
    h1 = decay_window_fit(errors.times, errors.h1_total())
    dt_sample = np.diff(errors.times).max()
    onset_ok = h1["onset_time"] >= l2["onset_time"] - dt_sample
    ok = converged(h1) and onset_ok
    report(2, f"H1 tracking: {h1['orders_of_decay']:.1f} orders, "
              f"R^2={h1['r_squared']:.4f}, onset {h1['onset_time']:.3f} vs "
              f"L2 {l2['onset_time']:.3f}", ok)
    assert ok


def test_criterion_3_abridged_observations(shared_run):
    ok = True
    parts = []
    for key in ("first", "v-only"):
        errors = shared_run[2][key]
        fit = decay_window_fit(errors.times, errors.l2_total())
        ok = ok and converged(fit)
        parts.append(f"{key}: {fit['orders_of_decay']:.1f} orders")
    h_ok = all(GOLDEN[k]["h"] <= GOLDEN["baseline"]["h"]
               for k in ("first", "v-only"))
    ok = ok and h_ok
    report(3, "abridged masks converge at recorded (mu, h); " + ", ".join(parts),
           ok)
    assert ok


def test_criterion_4_type2_interpolant(shared_run, grid64):
    fitted = calibrate(InterpolantSpec(NODAL, GOLDEN["type2"]["h"]), grid64, 200, 0)
    assert fitted["c2"] is not None and fitted["c3"] is not None
    errors = shared_run[2]["type2"]
    fit = decay_window_fit(errors.times, errors.h1_total())
    ok = fit["orders_of_decay"] >= 4.0 and fit["rate"] > 0
    report(4, f"nodal bilinear (c2={fitted['c2']:.3g}, c3={fitted['c3']:.3g}) H1 decay "
              f"{fit['orders_of_decay']:.1f} orders", ok)
    assert ok


def test_criterion_5_b_only_negative_control(tmp_path):
    cfg = parse_config_text(
        "scenario = b-only-control\n"
        "n = 64\nre = 100.0\nrm = 100.0\n"
        "forcing_mode = kolmogorov\nforcing_kolmogorov_k = 4\n"
        "forcing_amplitude = 2.0\nforcing_g_amplitude = 0.0\n"
        "mask = b-only\nmu = 50.0\ninit_mode = random\n"
        f"horizon = {GOLDEN['baseline']['horizon']}\n"
        f"outdir = {tmp_path}\n")
    code, summary = run_scenario(cfg)
    l2 = summary["l2_fit"]
    ok = code == 0 and summary["checks"]["non_convergence"]
    report(5, f"b-only observations fail to synchronize the velocity "
              f"(terminal/initial = {l2['terminal'] / l2['peak']:.2e})", ok)
    assert ok


def test_criterion_6_interpolant_inequalities(grid64):
    c1_raw = verify_type1_bound(InterpolantSpec(SPECTRAL, 0.125), grid64,
                                n_samples=1000, seed=0)
    c1_ok = c1_raw <= 1.0 / (2.0 * np.pi) + 1e-6
    violations = 0
    specs = [InterpolantSpec(k, 0.125) for k in (SPECTRAL, VOLUME, NODAL)]
    fitted = [calibrate(spec, grid64, 1000, 0) for spec in specs]
    for i in range(1000):
        u = random_scalar_field(grid64, 10_000 + i)
        gu = h1_seminorm(grid64, u)
        lu = h2_seminorm(grid64, u)
        for spec, c in zip(specs, fitted):
            res = l2_norm(u - apply_interpolant_coef(spec, grid64, u))
            if spec.type_class == 1:
                bound = c["c1"] * spec.h * gu
            else:
                bound = c["c2"] * spec.h * gu + c["c3"] * spec.h ** 2 * lu
            if res > bound:
                violations += 1
    ok = c1_ok and violations == 0
    report(6, f"interpolant inequalities: raw spectral c1={c1_raw:.4f} "
              f"<= 1/(2 pi), {violations} violations on 1000 fresh fields", ok)
    assert ok


def test_criterion_7_a_priori_bound(shared_run, grid64, forcing64, params64):
    G = grashof_number(forcing64, params64)
    full = check_int_bound(shared_run[0].reference_trajectory, G, params64)
    # Negative control: a true solution outside the absorbing ball.  With
    # beta = 0 the energy identity makes the first window dissipate about
    # E0 / (2 nub) = 4B from initial energy E0 = 8 nub B, so the check must
    # fail with a margin below -B.  dt is under the CFL limit (~8e-4) that
    # this amplitude sets at n = 64.
    bound = full["bound"]
    amplitude = np.sqrt(8.0 * params64.nu_bar * bound / 2.0)  # E0/2 each
    v0 = normalized_field(grid64, 0, amplitude)
    w0 = normalized_field(grid64, 1, amplitude)
    dt = 5e-4
    stepper = MhdStepper(Stack(grid64, params64, forcing64, dt, 1))
    stepper.set_state(v0, w0)
    traj = record_trajectory(stepper, int(np.ceil(1.2 * full["T"] / dt)))
    control = check_int_bound(traj, G, params64)
    ok = (full["passed"] and full["worst_margin"] > 0
          and not control["passed"] and control["worst_margin"] < -bound)
    report(7, f"a-priori enstrophy bound: margin {full['worst_margin']:.2f} at "
              f"G={G:.1f}; out-of-ball control (E0 = 8 nub B) margin "
              f"{control['worst_margin']:.2f} against B={bound:.2f}", ok)
    assert ok


def test_criterion_8_energy_budget(shared_run, params64):
    residuals, flags = energy_budget(shared_run[0].reference_trajectory, params64)
    ok = not flags.any()
    worst = float(residuals.max())
    report(8, f"energy budget residuals within tolerance at every step "
              f"(worst {worst:.2e})", ok)
    assert ok


def test_criterion_9_threshold_exactness():
    p = derive_elsasser_params(5.0, 5.0)
    nub = 0.2
    ok = True
    C = 81.0 / (64.0 * np.pi ** 4)
    ct = np.log(1000.0 * (20.0 * np.pi ** 2 + 1.0)) / 8.0
    for G in (0.0, 1.0, 2.0):
        got = theorem_thresholds(THM_ALL, G, p, c1=0.1)
        want = 0.0 if G == 0 else \
            np.pi ** 2 * (1.0 / (4.0 * np.pi ** 2) + nub ** 4) * G ** 2 / nub
        ok = ok and np.isclose(got.mu_min, want, rtol=1e-12)
        got = theorem_thresholds(THM_FIRST, G, p, c1=0.1)
        want = 0.0 if G == 0 else \
            32.0 * np.pi ** 2 * 1.5 ** 2 * nub \
            * (ct + 2.0 * np.log(G) + C * G ** 4) * G ** 2
        ok = ok and np.isclose(got.mu_min, want, rtol=1e-12)
        got = theorem_thresholds(THM_V, G, p, c1=0.1)
        want = 0.0 if G == 0 else \
            np.pi ** 2 / (4.0 * np.pi ** 2) * G ** 2 \
            * (4.0 + nub ** 2 * G ** 2) ** 2 / (16.0 * nub)
        ok = ok and np.isclose(got.mu_min, want, rtol=1e-12)
        got = theorem_thresholds(THM_T2_FIRST, G, p, c2=0.2, c3=0.3)
        want = 0.0 if G == 0 else \
            2000.0 * 4.0 * (20.0 * np.pi ** 2 + 1.0) * G ** 2 \
            * (1.0 + G ** 2) ** 3 * np.exp(2.0 * C * G ** 4) \
            * (ct + np.log(1.0 + G) + C * G ** 4)
        ok = ok and np.isclose(got.mu_min, want, rtol=1e-12)
    r1 = theorem_thresholds(THM_ALL, 1.0, p, c1=0.1)
    r2 = theorem_thresholds(THM_ALL, 2.0, p, c1=0.1)
    ok = ok and np.isclose(r2.mu_min / r1.mu_min, 4.0, rtol=1e-12)
    for l2_id, h1_id in ((THM_ALL, THM_H1_ALL), (THM_FIRST, THM_H1_FIRST),
                         (THM_V, THM_H1_V)):
        a = theorem_thresholds(l2_id, 1.0, p, c1=0.1)
        b = theorem_thresholds(h1_id, 1.0, p, c1=0.1)
        ok = ok and np.isclose(a.h_max / b.h_max, 2.0 * np.sqrt(2.0),
                               rtol=1e-12)
    report(9, "threshold formulas match hand values at G in {0, 1, 2}, "
              "G^2-homogeneity 4, H1 h-tightening 2 sqrt(2)", ok)
    assert ok


def test_criterion_10_determining_interpolant(tmp_path):
    cfg = parse_config_text(
        f"scenario = determining\nn = 64\nhorizon = 20.0\n"
        f"outdir = {tmp_path}\n")
    code, summary = run_scenario(cfg)
    c = summary["checks"]
    ok = (code == 0 and c["ih_difference_decays"]
          and c["full_difference_decays"] and c["terminal_below_1e3_peak"])
    report(10, f"determining interpolant: full-difference tail rate "
               f"{summary['tail_rate_full']:.2f}, terminal/peak "
               f"{summary['terminal_full_difference'] / summary['peak_full_difference']:.2e}",
           ok)
    assert ok


def test_criterion_11_zero_error_absorbing_state(params64):
    grid = Grid(32)
    forcing = build_forcing(grid, parse_config_text("scenario = baseline\nn = 32\n"))
    worst = 0.0
    for mask in (MASK_ALL, MASK_FIRST, MASK_V_ONLY):
        cfg = NudgingConfig(50.0, InterpolantSpec(SPECTRAL, 0.125), mask)
        cs = CoupledStepper(grid, params64, forcing, cfg, 2e-3)
        init = normalized_field(grid, 0, 0.5)
        cs.reference.set_state(init, init)
        cs.members[0].set_state(init, init)
        for _ in range(1000):
            cs.step()
        err = state_l2(grid, cs.reference.X - cs.members[0].X)
        worst = max(worst, err)
    ok = worst <= 1e-10
    report(11, f"identical initialization stays synchronized for 1000 steps "
               f"in all three masks (worst error {worst:.2e})", ok)
    assert ok


def test_criterion_12_determinism(tmp_path):
    text = ("scenario = baseline\nn = 64\nhorizon = 3.0\n"
            "spinup_max_time = 4.0\nsample_every = 5\n")
    cfg_a = parse_config_text(text + f"outdir = {tmp_path / 'a'}\n")
    cfg_b = parse_config_text(text + f"outdir = {tmp_path / 'b'}\n")
    run_scenario(cfg_a)
    run_scenario(cfg_b)
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("trajectory.csv", "errors.csv"))
    report(12, "repeated runs with equal seeds emit bitwise-identical CSVs",
           same)
    assert same
