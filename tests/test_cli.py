import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mhdnudge
from mhdnudge.cli import main


SMALL = """scenario = u-only-exploratory
n = 32
horizon = 2.0
spinup_max_time = 2.0
sample_every = 5
mask = u-only
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario = baseline\nbogus_key = 1\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err
    assert "line 2" in err


@pytest.mark.parametrize("line, verb, args, message", [
    ("sample_every = 0", "run", [], "sample_every"),
    ("sample_every = -5", "run", [], "sample_every"),
    ("calibration_samples = 0", "run", [], "calibration_samples"),
    ("horizon = 0.002", "run", [], "horizon"),
    ("", "sweep", ["--axis", "mu", "--values", "20", "30", "--workers", "0"],
     "workers"),
    ("interpolant_kind = nodal\ninterpolant_h = 0.2", "run", [],
     "1/h=5 must divide the grid size n=32"),
    ("", "verify-interpolant", ["--samples", "0"], "samples"),
    ("", "verify-interpolant", ["--samples", "-3"], "samples"),
    ("modulation_rate = -1", "run", [], "modulation_rate must be >= 0"),
    ("delta_rate = -1", "run", [], "delta_rate must be >= 0"),
    ("eps_rate = -2", "sweep", ["--axis", "mu", "--values", "1", "2",
                                "--workers", "1"], "eps_rate must be >= 0"),
    ("det_envelope_rate = -1", "determining", [], "det_envelope_rate must be >= 0"),
    ("forcing_kmax = 20", "run", [], "forcing_kmax must lie in 1..10"),
    ("forcing_kmax = 0", "run", [], "forcing_kmax must lie in 1..10"),
    ("forcing_mode = kolmogorov\nforcing_kolmogorov_k = 16", "run", [],
     "forcing_kolmogorov_k must lie in 1..10"),
    ("forcing_kolmogorov_k = 0", "run", [], "forcing_kolmogorov_k must lie in 1..10"),
    ("seed = -1", "run", [], "seed must be >= 0, got -1"),
    ("", "run", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("forcing_seed = -3", "sweep", ["--axis", "mu", "--values", "1", "2",
                                    "--workers", "1"],
     "forcing_seed must be >= 0, got -3"),
    ("init_mode = random\ninit_seed = -1", "run", [],
     "init_seed must be >= 0, got -1"),
    ("det_seed2 = -7", "determining", [], "det_seed2 must be >= 0, got -7"),
    ("dt = nan", "run", [], "dt must be finite, got nan"),
    ("horizon = inf", "run", [], "horizon must be finite, got inf"),
    ("mu = nan", "run", [], "mu must be finite, got nan"),
    ("re = nan", "sweep", ["--axis", "mu", "--values", "1", "2", "--workers", "1"],
     "re must be finite, got nan"),
], ids=["sample_every=0", "sample_every=-5", "calibration_samples=0",
        "horizon<2dt", "sweep-workers=0", "nodal-h=0.2-n=32",
        "verify-samples=0", "verify-samples=-3", "modulation_rate<0",
        "delta_rate<0", "sweep-eps_rate<0", "det_envelope_rate<0",
        "forcing_kmax=20-n=32", "forcing_kmax=0", "kolmogorov_k=16-n=32",
        "kolmogorov_k=0", "seed<0", "--seed<0", "sweep-forcing_seed<0",
        "init_seed<0", "det_seed2<0", "dt=nan", "horizon=inf", "mu=nan",
        "sweep-re=nan"])
def test_config_rejected_exit_2(tmp_path, capsys, line, verb, args, message):
    cfg = write_cfg(tmp_path, f"scenario = baseline\nn = 32\n{line}\n"
                    f"outdir = {tmp_path / 'out'}\n")
    assert main([verb, cfg, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unreadable_config_exit_2(tmp_path, capsys):
    # a directory, and a file that is not UTF-8
    (tmp_path / "latin1.cfg").write_bytes(b"scenario = baseline # \xe9t\xe9\n")
    for path in (tmp_path, tmp_path / "latin1.cfg"):
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


def test_config_with_a_byte_order_mark_is_read(tmp_path, capsys):
    # some editors save UTF-8 with a leading byte-order mark
    path = tmp_path / "bom.cfg"
    path.write_bytes(f"scenario = baseline\nn = 32\noutdir = {tmp_path / 'v'}\n"
                     .encode("utf-8-sig"))
    assert main(["verify-interpolant", str(path), "--samples", "20"]) == 0
    assert "config error" not in capsys.readouterr().err
    assert (tmp_path / "v" / "interpolant_report.json").exists()


@pytest.mark.parametrize("verb, args", [
    ("run", []),
    ("sweep", ["--axis", "mu", "--values", "20", "30", "--workers", "1"]),
    ("verify-interpolant", ["--samples", "2"]),
], ids=["run", "sweep", "verify-interpolant"])
def test_outdir_that_is_a_file_exit_2(tmp_path, capsys, verb, args):
    outdir = tmp_path / "out"
    outdir.write_text("not a directory\n")
    cfg = write_cfg(tmp_path, f"scenario = baseline\nn = 32\noutdir = {outdir}\n")
    assert main([verb, cfg, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(outdir) in err
    assert outdir.read_text() == "not a directory\n"


def test_explicit_feedback_mu_dt_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario = type2\ninterpolant_kind = nodal\n"
                    f"mu = 600\ndt = 2e-3\noutdir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 2
    assert "mu*dt" in capsys.readouterr().err


def test_determining_explicit_mu_aux_dt_exit_2(tmp_path, capsys):
    # the derived gain mu_aux is 720 here, so the default dt = 2e-3 gives
    # mu_aux*dt = 1.44; the run stops before spin-up
    cfg = write_cfg(tmp_path, "scenario = determining\nn = 64\n"
                    "interpolant_kind = volume\ninterpolant_h = 0.125\n"
                    f"outdir = {tmp_path / 'out'}\n")
    assert main(["determining", cfg]) == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["scenario"] == "determining"
    assert summary["passed"] is False
    assert "mu_aux*dt <= 1, got mu_aux*dt = 1.44" in summary["error"]
    assert "the largest admissible dt is 1.38" in summary["error"]


def test_determining_validates_the_config_as_determining(tmp_path, capsys):
    # determining never uses mu: a file written for another scenario, whose
    # explicit mu*dt = 2 that scenario refuses, runs under the verb
    text = ("n = 32\ninterpolant_kind = volume\nmu = 1000\nhorizon = 0.01\n"
            f"spinup_max_time = 0.2\noutdir = {tmp_path / 'out'}\n")
    cfg = write_cfg(tmp_path, "scenario = baseline\n" + text)
    assert main(["run", cfg]) == 2
    assert "mu*dt <= 1" in capsys.readouterr().err
    assert main(["determining", cfg]) != 2
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["scenario"] == "determining"
    assert (tmp_path / "out" / "determining.csv").exists()


@pytest.mark.parametrize("line", [
    "det_envelope_rate = 0",
    "det_envelope_rate = 0\ndet_envelope_amplitude = -2",
], ids=["rate=0", "rate=0-amplitude=-2"])
def test_determining_forcing_difference_must_decay_exit_2(tmp_path, capsys, line):
    # f2 - f1 = A exp(-r t) (f, g) must vanish; -2 would make f2 = -f1, whose
    # Grashof number equals f1's
    cfg = write_cfg(tmp_path, f"scenario = determining\nn = 32\n{line}\n"
                    f"outdir = {tmp_path / 'out'}\n")
    assert main(["determining", cfg]) == 2
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert "f2 - f1 to decay" in summary["error"]
    assert not (tmp_path / "out" / "determining.csv").exists()


@pytest.mark.parametrize("verb, scenario", [("determining", "determining"),
                                             ("run", "generalized-da")])
def test_short_horizon_tail_fit_exit_4(tmp_path, capsys, verb, scenario):
    # 0.01 time units leave too few samples for the tail-rate fit; the
    # spin-up max_time is below the two windows that settling needs
    cfg = write_cfg(tmp_path, f"scenario = {scenario}\nn = 32\n"
                    "interpolant_kind = nodal\nhorizon = 0.01\n"
                    f"spinup_max_time = 0.2\noutdir = {tmp_path / 'out'}\n")
    assert main([verb, cfg]) == 4
    capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["spin_up_converged"] is False
    fit = summary["checks"]["tail_fit"]
    assert fit["passed"] is False
    assert "rate fit needs >= 10 samples" in fit["error"]


def test_run_verb(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + f"outdir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True
    assert (tmp_path / "out" / "errors.csv").exists()


def test_seed_override_changes_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + f"outdir = {tmp_path / 'a'}\n")
    assert main(["run", cfg, "--seed", "3", "--outdir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    saved = (tmp_path / "b" / "config.txt").read_text()
    assert "seed = 3" in saved


def test_determinism_bitwise(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["run", cfg, "--outdir", str(tmp_path / "r1")]) == 0
    assert main(["run", cfg, "--outdir", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    for name in ("trajectory.csv", "errors.csv"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


def test_verify_interpolant_verb(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario = baseline\nn = 32\n"
                    f"outdir = {tmp_path / 'v'}\n")
    assert main(["verify-interpolant", cfg, "--samples", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "spectral"
    assert report["c1"] > 0
    assert (tmp_path / "v" / "interpolant_report.json").exists()


def test_sweep_verb_single_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL + f"outdir = {tmp_path / 's'}\n")
    assert main(["sweep", cfg, "--axis", "mu", "--values", "25",
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "mu=25" in out
    assert (tmp_path / "s" / "sweep.csv").exists()
    assert (tmp_path / "s" / "sweep.json").exists()


def test_sweep_bad_axis_rejected(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    with pytest.raises(SystemExit):
        main(["sweep", cfg, "--axis", "dt", "--values", "1"])


@pytest.mark.skipif(shutil.which("mhdnudge") is None,
                    reason="no mhdnudge executable on PATH; "
                           "pip install -e . --no-build-isolation adds it")
def test_console_script_installed():
    assert shutil.which("mhdnudge") is not None
    out = subprocess.run(["mhdnudge", "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    for verb in ("run", "sweep", "verify-interpolant", "determining"):
        assert verb in out.stdout


def test_console_script_entry_point(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["mhdnudge"] == "mhdnudge.cli:main"
    module, _, attr = scripts["mhdnudge"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for verb in ("run", "sweep", "verify-interpolant", "determining"):
        assert verb in out


def test_import_loads_no_scipy():
    # numpy is the only dependency: importing the package, the scenarios
    # and the CLI must not pull in scipy
    src = str(Path(mhdnudge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, mhdnudge, mhdnudge.experiments, mhdnudge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
