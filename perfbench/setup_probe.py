"""Time the set-up of one workload operation in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py {stepper|grid} CONFIG_TEXT

Measures `import mhdnudge`, parsing the config, and building what the
operation needs before it steps: the grid, and for `stepper` also the
forcing, the nudging config and the CoupledStepper with its implicit
inverse.  Prints {"setup_s": seconds, "wall_s": seconds} as its last line;
`setup_s` is at the reference CPU speed of `speed.SpeedClock`.  The caller
puts the package source on PYTHONPATH and sets the thread variables.
"""

import json
import sys

import speed  # standard library only, so it starts before the program


def main(mode, text):
    if mode not in ("stepper", "grid"):
        raise SystemExit(f"unknown probe mode {mode!r}")
    with speed.SpeedClock() as clock:
        import mhdnudge
        from mhdnudge.experiments import (
            build_forcing,
            build_nudging_config,
            parse_config_text,
        )

        cfg = parse_config_text(text)
        grid = mhdnudge.Grid(cfg.n)
        if mode == "stepper":
            params = mhdnudge.derive_elsasser_params(cfg.re, cfg.rm)
            forcing = build_forcing(grid, cfg)
            ncfg = build_nudging_config(grid, cfg)
            mhdnudge.CoupledStepper(grid, params, forcing, ncfg, cfg.dt)
        else:
            mhdnudge.InterpolantSpec(cfg.interpolant_kind, cfg.interpolant_h)
            grid.ksq
    print(json.dumps({"setup_s": clock.reference_s(), "wall_s": clock.wall_s()}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
