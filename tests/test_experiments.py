import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mhdnudge import experiments
from mhdnudge.dynamics import (
    BlowUpError,
    derive_elsasser_params,
    grashof_number,
)
from mhdnudge.experiments import (
    EXIT_BLOWUP,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    build_forcing,
    build_nudging_config,
    parse_config,
    parse_config_text,
    run_interpolant_verification,
    run_scenario,
    run_sweep,
    threshold_report,
)
from mhdnudge.interpolants import InterpolantSpec, calibrate
from mhdnudge.nudging import CoupledStepper
from mhdnudge.spectral import Grid, l2_norm


def test_minimal_config_defaults():
    cfg = parse_config_text("scenario = baseline\n")
    assert cfg.n == 64
    assert cfg.mu == 50.0
    assert cfg.mask == "all"


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*not_a_key"):
        parse_config_text("scenario = baseline\nnot_a_key = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("scenario = baseline\nmu = 1\nmu = 2\n")


def test_bad_type_reports_key():
    with pytest.raises(ConfigError, match="cannot parse 'n'"):
        parse_config_text("scenario = baseline\nn = sixty-four\n")


def test_missing_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config_text("mu = 50\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("scenario = baseline\njust words\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config_text(
        "# a comment\n\nscenario = baseline\nmu = 12.5  # trailing\n")
    assert cfg.mu == 12.5


def test_a_hash_inside_a_value_reads_back():
    # a '#' opens a comment only at the start of a line or after
    # whitespace: an outdir that holds one reads back as dumped, as does a
    # config read with an inline comment, and a '#' glued to a number is
    # part of the value, which is then no number
    for text in ("outdir = out#1\n", "mu = 50 # gain\n"):
        cfg = parse_config_text("scenario = baseline\n" + text)
        assert parse_config_text(cfg.dump()) == cfg
    assert parse_config_text("scenario = baseline\noutdir = out#1\n").outdir == "out#1"
    with pytest.raises(ConfigError, match="mu"):
        parse_config_text("scenario = baseline\nmu = 50#x\n")


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config_text("scenario = warp-drive\n")


def test_invalid_physical_values_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("scenario = baseline\nre = -5\n")
    with pytest.raises(ConfigError):
        parse_config_text("scenario = baseline\nn = 7\n")
    with pytest.raises(ConfigError):
        parse_config_text("scenario = baseline\ninterpolant_h = 0.3\n")
    with pytest.raises(ConfigError):
        parse_config_text("scenario = baseline\nmask = everything\n")


def test_overrides_applied():
    cfg = parse_config_text("scenario = baseline\nseed = 1\n",
                            overrides={"seed": 42})
    assert cfg.seed == 42


def test_dump_parse_round_trip():
    cfg = parse_config_text("scenario = h1track\nmu = 77.0\nn = 32\n")
    again = parse_config_text(cfg.dump())
    assert again == cfg


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = baseline\nn = 32\n")
    cfg = parse_config(path)
    assert cfg.n == 32


def test_build_forcing_amplitude():
    cfg = parse_config_text("scenario = baseline\nforcing_amplitude = 3.0\n"
                            "forcing_g_amplitude = 1.0\nn = 32\n")
    g = Grid(32)
    forcing = build_forcing(g, cfg)
    # f = f1+g1, g = f1-g1 with ||f1|| = 3 and ||g1|| = 1
    nf2, ng2 = l2_norm(forcing.f) ** 2, l2_norm(forcing.g) ** 2
    assert nf2 + ng2 == pytest.approx(2.0 * (9.0 + 1.0), rel=1e-10)


def test_build_forcing_kolmogorov():
    cfg = parse_config_text("scenario = baseline\nforcing_mode = kolmogorov\n"
                            "forcing_kolmogorov_k = 3\nforcing_amplitude = 2.0\n"
                            "n = 32\n")
    g = Grid(32)
    forcing = build_forcing(g, cfg)
    # energy exactly at k = (0, +-3), first component only; the half
    # spectrum holds k = (0, 3)
    nz = np.nonzero(np.abs(forcing.f) > 1e-12)
    assert set(zip(*nz)) == {(0, 0, 3)}


def test_sweep_rejects_bad_axis_and_values():
    cfg = parse_config_text("scenario = baseline\n")
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(cfg, "dt", [1.0])
    with pytest.raises(ConfigError, match="values"):
        run_sweep(cfg, "mu", [-1.0])
    with pytest.raises(ConfigError, match="values"):
        run_sweep(cfg, "h", [float("nan")])


def test_sweep_g_needs_nonzero_base(tmp_path):
    cfg = parse_config_text("scenario = baseline\nforcing_amplitude = 0\n"
                            f"outdir = {tmp_path}\nn = 32\n")
    with pytest.raises(ConfigError, match="zero-forcing"):
        run_sweep(cfg, "G", [1.0])


SMALL = """scenario = u-only-exploratory
n = 32
horizon = 2.0
spinup_max_time = 2.0
sample_every = 5
mask = u-only
"""


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = parse_config_text(SMALL + f"outdir = {tmp_path}\n")
    code, summary = run_scenario(cfg)
    assert code == EXIT_OK
    for name in ("config.txt", "trajectory.csv", "errors.csv",
                 "summary.json", "thresholds.json", "constants.json"):
        assert (tmp_path / name).exists(), name
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved["scenario"] == "u-only-exploratory"
    assert saved["passed"] is True
    # the embedded config replays to the identical configuration
    again = parse_config(tmp_path / "config.txt")
    assert again == cfg


def test_interpolant_verification_writes_its_config(tmp_path):
    # the report does not name n, and n sets the constants
    cfg = parse_config_text("scenario = baseline\nn = 32\ninterpolant_kind = nodal\n"
                            f"outdir = {tmp_path}\n")
    code, report = run_interpolant_verification(cfg, 5)
    assert code == EXIT_OK
    assert parse_config(tmp_path / "config.txt") == cfg
    assert json.loads((tmp_path / "interpolant_report.json").read_text()) == report


def test_run_scenario_trajectory_format(tmp_path):
    cfg = parse_config_text(SMALL + f"outdir = {tmp_path}\n")
    run_scenario(cfg)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,l2_v,l2_w,h1_v,h1_w,energy_residual"
    assert len(lines) == 1 + int(round(2.0 / 0.002)) + 1


def test_thresholds_json_contents(tmp_path):
    cfg = parse_config_text(
        f"scenario = baseline\nn = 32\nhorizon = 2.0\nspinup_max_time = 2.0\n"
        f"outdir = {tmp_path}\n")
    run_scenario(cfg)
    report = json.loads((tmp_path / "thresholds.json").read_text())
    assert set(report["theorems"]) == {"thm-all", "thm-h1-all"}
    for entry in report["theorems"].values():
        assert entry["mu_min"] > 0
        assert entry["h_max"] > 0
        assert "c_L" in entry["constants_used"]


def test_single_value_sweep_matches_plain_run(tmp_path):
    base = SMALL + f"outdir = {tmp_path / 'plain'}\nmu = 25.0\n"
    cfg = parse_config_text(base)
    run_scenario(cfg)
    sweep_cfg = parse_config_text(SMALL + f"outdir = {tmp_path / 'sweep'}\n")
    run_sweep(sweep_cfg, "mu", [25.0], max_workers=1)
    plain = (tmp_path / "plain" / "errors.csv").read_bytes()
    swept = (tmp_path / "sweep" / "mu=25" / "errors.csv").read_bytes()
    assert plain == swept


def test_baseline_failure_exit_code(tmp_path):
    # mu = 0 over a 1-unit horizon cannot reach six orders of decay
    cfg = parse_config_text(
        f"scenario = baseline\nn = 32\nhorizon = 1.0\nspinup_max_time = 2.0\n"
        f"mu = 0.0\noutdir = {tmp_path}\n")
    code, summary = run_scenario(cfg)
    assert code == EXIT_CHECK
    assert summary["passed"] is False


def test_explicit_feedback_needs_mu_dt_at_most_1():
    with pytest.raises(ConfigError, match="mu\\*dt"):
        parse_config_text("scenario = type2\ninterpolant_kind = nodal\n"
                          "mu = 600\ndt = 2e-3\n")
    # the implicit spectral feedback has no such limit
    parse_config_text("scenario = baseline\nmu = 600\ndt = 2e-3\n")


def test_cfl_failure_exit_code_and_serial_sweep(tmp_path):
    # dt = 0.05 is far above the CFL limit at n = 32: the first step fails
    cfg = parse_config_text(f"scenario = baseline\nn = 32\ndt = 0.05\n"
                            f"outdir = {tmp_path / 'run'}\n")
    code, summary = run_scenario(cfg)
    assert code == EXIT_BLOWUP
    assert "CFL" in summary["error"]
    saved = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert saved["passed"] is False
    table = run_sweep(cfg, "mu", [10.0, 20.0], outdir=tmp_path / "sweep",
                      max_workers=1)
    assert [row["exit_code"] for row in table] == [EXIT_BLOWUP, EXIT_BLOWUP]
    assert (tmp_path / "sweep" / "sweep.csv").read_text().count("\n") == 3


def test_g_sweep_scales_grashof(tmp_path):
    cfg = parse_config_text("scenario = baseline\nn = 32\n")
    g = Grid(32)
    p = derive_elsasser_params(cfg.re, cfg.rm)
    base = grashof_number(build_forcing(g, cfg), p)
    doubled = replace(cfg, forcing_amplitude=cfg.forcing_amplitude * 2.0,
                      forcing_g_amplitude=cfg.forcing_g_amplitude * 2.0)
    assert grashof_number(build_forcing(g, doubled), p) == \
        pytest.approx(2.0 * base, rel=1e-12)


def tree(root):
    """Relative path -> bytes of every file under root."""
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_g_sweep_in_the_pool_matches_the_serial_sweep(tmp_path):
    cfg = parse_config_text("scenario = h1track\nn = 16\nhorizon = 0.02\n"
                            "spinup_max_time = 0.1\n")
    for workers in (1, 2):
        run_sweep(cfg, "G", [5.0, 10.0], outdir=tmp_path / f"w{workers}",
                  max_workers=workers)
    serial = tree(tmp_path / "w1")
    assert tree(tmp_path / "w2") == serial
    for v in (5, 10):
        summary = json.loads(serial[Path(f"G={v}", "summary.json")])
        assert summary["G"] == pytest.approx(v, rel=1e-12)
    assert serial[Path("G=5", "trajectory.csv")] != \
        serial[Path("G=10", "trajectory.csv")]


def test_h_sweep_records_indivisible_h_and_goes_on(tmp_path):
    # 1/h = 5 does not divide n = 32: that value is a config error, the next
    # value still runs and the sweep table is written
    cfg = parse_config_text("scenario = type2\nn = 32\ninterpolant_kind = nodal\n"
                            "mask = first\nmu = 60\nhorizon = 0.5\n"
                            "spinup_max_time = 0.2\n")
    table = run_sweep(cfg, "h", [0.2, 0.25], outdir=tmp_path, max_workers=1)
    assert [row["value"] for row in table] == [0.2, 0.25]
    assert table[0]["exit_code"] == EXIT_CONFIG
    assert table[1]["exit_code"] in (EXIT_OK, EXIT_CHECK)
    assert (tmp_path / "h=0.25" / "summary.json").exists()
    # the invalid value leaves its config and its summary too
    assert "interpolant_h = 0.2\n" in (tmp_path / "h=0.2" / "config.txt").read_text()
    failed = json.loads((tmp_path / "h=0.2" / "summary.json").read_text())
    assert failed["passed"] is False
    assert "1/h=5 must divide the grid size n=32" in failed["error"]
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 3


def test_sweep_values_record_the_sweep_outdir(tmp_path):
    # a sweep checks each value in memory, not through its config text:
    # each value's config.txt
    # records the outdir as a plain run's does
    outdir = str(tmp_path / "out#1")
    cfg = replace(parse_config_text("scenario = baseline\nn = 16\n" + SHORT),
                  outdir=outdir)
    table = run_sweep(cfg, "mu", [10.0, 20.0], max_workers=1)
    assert all(row["exit_code"] in (EXIT_OK, EXIT_CHECK) for row in table)
    for v in (10, 20):
        config = (tmp_path / "out#1" / f"mu={v}" / "config.txt").read_text()
        assert f"outdir = {outdir}\n" in config


def test_sweep_rejects_values_sharing_a_directory(tmp_path):
    # 50 and 50.0000001 both format as mu=50: the later would overwrite the
    # earlier's artifacts, so the sweep is refused before any run starts
    cfg = parse_config_text(SMALL)
    with pytest.raises(ConfigError, match="mu=50"):
        run_sweep(cfg, "mu", [50.0, 50.0000001], outdir=tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


ARTIFACTS = ("config.txt", "trajectory.csv", "errors.csv", "summary.json",
             "thresholds.json", "constants.json")
TYPE2 = """scenario = type2
n = 32
interpolant_kind = nodal
interpolant_h = 0.125
mask = first
horizon = 1.0
spinup_max_time = 0.5
init_mode = random
"""


def plain_runs(tmp_path, cfg, key, values):
    """Run each value's config alone; returns value -> (its directory, its
    exit code)."""
    runs = {}
    for v in values:
        outdir = tmp_path / "plain" / f"{v:g}"
        runs[v] = outdir, run_scenario(replace(cfg, **{key: v}), outdir)[0]
    return runs


def assert_same_artifacts(swept, plain):
    for name in ARTIFACTS:
        assert (swept / name).read_bytes() == (plain / name).read_bytes(), name


@pytest.mark.parametrize("text, axis, key, values", [
    (TYPE2, "mu", "mu", [60.0, 240.0, 480.0]),
    (SMALL.replace("u-only-exploratory", "baseline").replace("u-only", "all"),
     "h", "interpolant_h", [0.25, 0.125]),
])
def test_shared_reference_sweep_matches_plain_runs(tmp_path, text, axis, key,
                                                   values):
    # the values share one reference run, yet each writes what a run of its
    # config alone writes
    cfg = parse_config_text(text)
    plain = plain_runs(tmp_path, cfg, key, values)
    table = run_sweep(cfg, axis, values, outdir=tmp_path / "sweep", max_workers=1)
    swept = {v: tmp_path / "sweep" / f"{axis}={v:g}" for v in values}
    for v in values:
        assert_same_artifacts(swept[v], plain[v][0])
    assert len({(swept[v] / "errors.csv").read_bytes() for v in values}) == len(values)
    rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["runs"]
    for v, row, table_row in zip(values, rows, table):
        summary = json.loads((swept[v] / "summary.json").read_text())
        assert row["spin_up_converged"] == summary["spin_up_converged"]
        assert row["exit_code"] == table_row["exit_code"] == plain[v][1]
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,exit_code,rate,r_squared,passed"


def test_sweep_retires_a_non_finite_member_and_goes_on(tmp_path, monkeypatch):
    cfg = parse_config_text(TYPE2)
    values = [60.0, 240.0, 480.0]
    plain = plain_runs(tmp_path, cfg, "mu", values)
    step = CoupledStepper.step

    def step_then_spoil_second_member(self):
        step(self)
        if self.reference.step_count == 100:
            self.members[1].X[...] = np.nan

    monkeypatch.setattr(CoupledStepper, "step", step_then_spoil_second_member)
    table = run_sweep(cfg, "mu", values, outdir=tmp_path / "sweep", max_workers=1)
    assert [row["exit_code"] for row in table] == [
        plain[60.0][1], EXIT_BLOWUP, plain[480.0][1]]
    failed = tmp_path / "sweep" / "mu=240"
    summary = json.loads((failed / "summary.json").read_text())
    assert summary["passed"] is False
    assert "non-finite" in summary["error"]
    assert not (failed / "errors.csv").exists()
    for v in (60.0, 480.0):
        assert_same_artifacts(tmp_path / "sweep" / f"mu={v:g}", plain[v][0])


def test_a_failing_reference_fails_every_value_with_its_error(tmp_path,
                                                             monkeypatch):
    cfg = parse_config_text("scenario = baseline\nn = 32\nhorizon = 0.4\n"
                            "spinup_max_time = 0.1\n")
    step = CoupledStepper.step

    def step_then_spoil_reference(self):
        step(self)
        if self.reference.step_count == 103:
            self.reference.X[...] = np.nan

    monkeypatch.setattr(CoupledStepper, "step", step_then_spoil_reference)
    table = run_sweep(cfg, "mu", [20.0, 50.0], outdir=tmp_path, max_workers=1)
    assert [row["exit_code"] for row in table] == [EXIT_BLOWUP, EXIT_BLOWUP]
    errors = {json.loads((tmp_path / f"mu={v:g}" / "summary.json").read_text())
              ["error"] for v in (20.0, 50.0)}
    (error,) = errors  # the reference's error, not one per value
    assert error.startswith("non-finite state at t=0.206 (step 103)")
    assert "mu=" not in error


@pytest.mark.parametrize("kind", ["spectral", "volume", "nodal"])
@pytest.mark.parametrize("mask", ["b-only", "u-only"])
def test_no_theorem_covers_b_or_u_observations(kind, mask):
    # the theorems observe all variables, one component or one Elsasser
    # variable; b and u are none of these
    cfg = parse_config_text(f"scenario = baseline\nn = 32\n"
                            f"interpolant_kind = {kind}\nmask = {mask}\n")
    spec = calibrate(InterpolantSpec(kind, cfg.interpolant_h), Grid(32), 2, 0)
    report = threshold_report(cfg, derive_elsasser_params(5.0, 5.0), 1.0, spec)
    assert report["theorems"] == {}


# ---------------------------------------------------------------------------
# every run ends with its exit code and a summary.json


SHORT = "horizon = 0.004\nspinup_max_time = 0.1\n"


@pytest.mark.parametrize("text", [
    # G = 162: the type-2 mu_min overflows float range
    "scenario = baseline\nn = 32\ninterpolant_kind = nodal\n"
    "forcing_mode = kolmogorov\nre = 20\nrm = 20\nmu = 60\n",
    # 1/h = 8 is past the dealiasing cutoff n//3, so the calibrated c1 is 0
    "scenario = baseline\nn = 16\n",
    "scenario = baseline\nn = 24\n",
], ids=["nodal-re20-kolmogorov", "default-n16", "default-n24"])
def test_unrepresentable_thresholds_end_the_run(tmp_path, text):
    code, summary = run_scenario(parse_config_text(text + SHORT), tmp_path)
    assert code in (EXIT_OK, EXIT_CHECK)
    assert json.loads((tmp_path / "summary.json").read_text()) == summary
    theorems = json.loads((tmp_path / "thresholds.json").read_text())["theorems"]
    assert any(th["mu_min"] == np.inf or th["h_max"] == np.inf
               for th in theorems.values())


def test_h_sweep_past_the_cutoff_writes_every_value(tmp_path):
    cfg = parse_config_text("scenario = baseline\nn = 32\n" + SHORT)
    table = run_sweep(cfg, "h", [0.25, 0.0625], outdir=tmp_path, max_workers=1)
    assert all(row["exit_code"] in (EXIT_OK, EXIT_CHECK) for row in table)
    for v in (0.25, 0.0625):
        for name in ARTIFACTS:
            assert (tmp_path / f"h={v:g}" / name).exists(), (v, name)
    assert (tmp_path / "sweep.json").exists()


def test_analysis_error_fails_only_its_value(tmp_path, monkeypatch):
    # an exception in one member's analysis is exit 3 for that value, with
    # its type named; the other values of the group go on
    cfg = parse_config_text(SMALL.replace("u-only-exploratory", "baseline")
                            .replace("u-only", "all"))
    calibrate = experiments.calibrate

    def calibrate_fails_at_quarter(spec, *args):
        if spec.h == 0.25:
            raise KeyError("no constant")
        return calibrate(spec, *args)

    monkeypatch.setattr(experiments, "calibrate", calibrate_fails_at_quarter)
    table = run_sweep(cfg, "h", [0.25, 0.125], outdir=tmp_path, max_workers=1)
    assert table[0]["exit_code"] == EXIT_BLOWUP
    assert table[1]["exit_code"] in (EXIT_OK, EXIT_CHECK)
    failed = json.loads((tmp_path / "h=0.25" / "summary.json").read_text())
    assert failed == {"scenario": "baseline", "error": "KeyError: 'no constant'",
                      "passed": False}
    assert (tmp_path / "h=0.125" / "thresholds.json").exists()


@pytest.mark.parametrize("scenario", ["baseline", "determining"])
def test_error_escaping_the_group_fails_each_value(tmp_path, monkeypatch,
                                                   scenario):
    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(experiments, "build_forcing", broken)
    cfg = parse_config_text(f"scenario = {scenario}\nn = 32\n" + SHORT)
    table = run_sweep(cfg, "mu", [10.0, 20.0], outdir=tmp_path, max_workers=1)
    assert [row["exit_code"] for row in table] == [EXIT_BLOWUP, EXIT_BLOWUP]
    for v in (10, 20):
        summary = json.loads((tmp_path / f"mu={v}" / "summary.json").read_text())
        assert summary["error"] == "ZeroDivisionError: division by zero"


@pytest.mark.parametrize("system", [0, 1, 2],
                         ids=["reference", "auxiliary", "solution-2"])
def test_determining_ends_when_any_system_fails(tmp_path, monkeypatch, system):
    # the coupled step retires a failing member and goes on; determining
    # must not, whichever of its three systems fails
    step = CoupledStepper.step
    steps = []
    failure = []

    def step_with_failure(self):
        steps.append(self)
        if len(steps) == 3:
            target = [self.reference, *self.members][system]
            target.X[1, 2, 3] = np.nan
            failure.append(BlowUpError(target.t, target.step_count))
        step(self)

    monkeypatch.setattr(CoupledStepper, "step", step_with_failure)
    cfg = parse_config_text("scenario = determining\nn = 32\nhorizon = 0.02\n"
                            "spinup_max_time = 0.1\n")
    code, summary = run_scenario(cfg, tmp_path)
    assert code == EXIT_BLOWUP
    assert summary["error"] == str(failure[0])
    assert len(steps) == 3
    assert not (tmp_path / "determining.csv").exists()


def test_determining_with_a_second_decay_rate_runs(tmp_path):
    # f1 decays at modulation_rate, f2 - f1 at det_envelope_rate
    cfg = parse_config_text("scenario = determining\nn = 16\ninterpolant_h = 0.25\n"
                            "modulation_amplitude = 0.5\nmodulation_rate = 2\n"
                            "horizon = 0.1\nspinup_max_time = 0.1\n")
    code, summary = run_scenario(cfg, tmp_path)
    assert code in (EXIT_OK, EXIT_CHECK)
    assert "error" not in summary
    assert (tmp_path / "determining.csv").exists()


def test_baseline_repeats_bitwise(tmp_path):
    # the repeated-runs oracle: the second run in the process reuses the
    # cached tables and the scratch of `norms`, and writes the same bytes
    cfg = parse_config_text("scenario = baseline\nn = 32\nhorizon = 0.2\n"
                            "spinup_max_time = 0.2\n")
    for run in ("a", "b"):
        run_scenario(cfg, tmp_path / run)
    for name in ("trajectory.csv", "errors.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_determining_repeats_bitwise(tmp_path):
    # criterion 12 compares the baseline CSVs; determining writes its own
    cfg = parse_config_text("scenario = determining\nn = 32\nhorizon = 0.1\n"
                            "spinup_max_time = 0.2\n")
    for run in ("a", "b"):
        run_scenario(cfg, tmp_path / run)
    for name in ("determining.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("g_amplitude", [0.0, 1.0])
def test_default_forcing_keeps_b_zero(g_amplitude):
    # forcing_g_amplitude = 0 gives f = g; the reference starts at (init,
    # init) and every init_mode starts members with v = w, so the v <-> w
    # swap symmetry keeps b = (v - w)/2 exactly 0: the runs are 2D
    # Navier-Stokes.  Only a mask that tells v from w (v-only) breaks it
    cfg = ExperimentConfig("baseline", n=32)
    cfg = replace(cfg, forcing_g_amplitude=g_amplitude)
    grid = Grid(cfg.n)
    masks = (("spectral", "all"), ("volume", "first"), ("nodal", "b-only"),
             ("nodal", "u-only"), ("spectral", "v-only"))
    configs = [build_nudging_config(
        grid, replace(cfg, interpolant_kind=kind, mask=mask))
        for kind, mask in masks]
    cs = CoupledStepper(grid, derive_elsasser_params(cfg.re, cfg.rm),
                        build_forcing(grid, cfg), configs, cfg.dt)
    init = experiments._initial_field(grid, cfg, cfg.seed)
    alt = experiments._initial_field(grid, cfg, cfg.init_seed)
    cs.reference.set_state(init, init)
    for member in cs.members:
        member.set_state(alt, alt)
    for _ in range(200):
        cs.step()
    b = [l2_norm(np.subtract(*s.fields())) for s in [cs.reference] + cs.members]
    if g_amplitude == 0.0:
        assert b[:-1] == [0.0] * len(masks)
        assert b[-1] > 0.0
    else:
        assert min(b) > 1e-3 * l2_norm(np.stack(cs.reference.fields()))
