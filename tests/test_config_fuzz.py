"""Config fuzzer: random configs, bad values among them, each end with a
documented exit code and a summary.json, and no exception escapes.

The draws are fixed by SEED, so the cases are the same on every run.  The
ranges keep a run cheap: n in 8..16, a horizon of a few steps, Re and
Rm <= 20 (a spin-up window of at most about 1000 steps at dt = 2e-3) and
spinup_max_time <= 0.5, so that spin-up stops after the first window
ending at or past it.
"""

import json

import numpy as np
import pytest

from mhdnudge.experiments import (
    EXIT_BLOWUP,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    SCENARIOS,
    ConfigError,
    parse_config_text,
    run_scenario,
    run_sweep,
)
from mhdnudge.interpolants import MASKS

SEED = 20161
COUNT = 40
BAD_SHARE = 0.25  # share of the configs with one invalid value

# per key: (valid values, invalid values); horizon is in steps of dt
RANGES = {
    "scenario": (SCENARIOS, ("warp-drive",)),
    "n": ((8, 10, 12, 14, 16), (7, 9, 15)),
    "dt": ((2e-3, 5e-3, 0.02, 0.2), (0.0, -2e-3)),
    "horizon": ((2, 3, 5, 8), (1, 0)),
    "sample_every": ((1, 2, 5), (0, -1)),
    "spinup_max_time": ((0.0, 0.05, 0.5), ()),
    "calibration_samples": ((1, 5), (0,)),
    "re": ((0.5, 2.0, 5.0, 20.0), (0.0, -5.0)),
    "rm": ((0.5, 5.0, 20.0), (0.0,)),
    "seed": ((0, 3), ()),
    "spinup_tol": ((0.01, 0.5, 0.0), ()),
    "init_amplitude": ((0.0, 1.0, 3.0, 1e4), ()),
    "forcing_mode": (("random", "kolmogorov"), ("sinusoid",)),
    "forcing_amplitude": ((0.0, 2.0, 50.0, 1e6), ()),
    "forcing_g_amplitude": ((0.0, 1.0), ()),
    "forcing_kmax": ((1, 2), (0, 9)),
    "forcing_seed": ((100, 5), ()),
    "forcing_kolmogorov_k": ((1, 2), (0, 9)),
    "modulation_amplitude": ((0.0, 0.5), ()),
    "modulation_rate": ((0.0, 1.0), (-1.0,)),
    "modulation_offset": ((1.0, 0.0, -1.0), ()),
    "interpolant_kind": (("spectral", "volume", "nodal"), ("bogus",)),
    "interpolant_h": ((0.5, 0.25, 0.125, 0.0625), (0.2, 0.0, -0.25)),
    "mask": (MASKS, ("everything",)),
    "mu": ((0.0, 10.0, 50.0, 400.0), (-1.0,)),
    "init_mode": (("zero", "copy", "random"), ("ones",)),
    "init_seed": ((1, 2), ()),
    "delta_amplitude": ((0.0, 0.3), ()),
    "delta_rate": ((1.0, 0.0), (-1.0,)),
    "eps_amplitude": ((0.0, 0.01), ()),
    "eps_rate": ((1.0,), (-1.0,)),
    "det_seed2": ((7, 8), ()),
    "det_envelope_amplitude": ((0.0, 1.0), ()),
    "det_envelope_rate": ((1.0, 0.0), (-1.0,)),
}
# drawn for every config, to bound its cost; the others for some
ALWAYS = ("scenario", "n", "dt", "horizon", "sample_every", "spinup_max_time",
          "calibration_samples", "interpolant_h")
SWEEPS = {"mu": ((0.0, 20.0, 100.0, 600.0), (-1.0,)),
          "h": RANGES["interpolant_h"]}


def draw(rng):
    """(config text, sweep axis or None, sweep values) of one case."""
    def pick(ranges, bad=False):
        values = ranges[bad] or ranges[0]
        return values[rng.integers(len(values))]

    others = sorted(set(RANGES) - set(ALWAYS))
    keys = list(ALWAYS) + list(rng.choice(others, size=rng.integers(1, 8),
                                          replace=False))
    values = {key: pick(RANGES[key]) for key in keys}
    if rng.random() < BAD_SHARE:
        key = keys[rng.integers(len(keys))]
        values[key] = pick(RANGES[key], bad=True)
    values["horizon"] *= values["dt"]
    text = "".join(f"{key} = {val}\n" for key, val in values.items())
    if rng.random() < 0.3:
        axis = sorted(SWEEPS)[rng.integers(2)]
        return text, axis, [pick(SWEEPS[axis], rng.random() < 0.1)
                            for _ in range(2)]
    return text, None, []


CASES = [draw(rng) for rng in [np.random.default_rng(SEED)] for _ in range(COUNT)]


def parsed(text):
    try:
        return parse_config_text(text)
    except ConfigError:
        return None


def check_run(code, outdir):
    """The exit code is documented, summary.json is written, and an exit 3
    is a numerical failure, not an error the boundary turned into one."""
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_CHECK)
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["passed"] is (code == EXIT_OK)
    if code == EXIT_BLOWUP:
        assert ("non-finite state" in summary["error"]
                or "CFL violation" in summary["error"]), summary["error"]


@pytest.mark.parametrize("text, axis, values", CASES,
                         ids=[f"case{i}" for i in range(COUNT)])
def test_fuzzed_config_ends_with_exit_code_and_summary(tmp_path, text, axis,
                                                       values):
    cfg = parsed(text)
    if cfg is None:
        return  # rejected when read, as the CLI does with exit 2
    if axis is None:
        code, _ = run_scenario(cfg, tmp_path)
        check_run(code, tmp_path)
        return
    try:
        table = run_sweep(cfg, axis, values, outdir=tmp_path, max_workers=1)
    except ConfigError:
        return  # the sweep's own arguments are rejected before any run
    for row in table:
        check_run(row["exit_code"], tmp_path / f"{axis}={row['value']:g}")
    assert (tmp_path / "sweep.json").exists()


def test_fuzzer_reaches_runs():
    # most draws must get past parsing, or the fuzzer would test nothing
    runnable = [(cfg, axis) for cfg, axis in
                ((parsed(text), axis) for text, axis, _ in CASES) if cfg]
    assert len(runnable) >= COUNT // 2
    assert any(cfg.scenario == "determining" for cfg, _ in runnable)
    assert {axis for _, axis in runnable} >= {None, "mu", "h"}
