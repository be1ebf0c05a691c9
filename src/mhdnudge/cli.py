"""Command-line entry point.

Verbs:

* ``mhdnudge run <config>``                    one scenario end to end
* ``mhdnudge sweep <config> --axis A --values V1 V2 ...``
* ``mhdnudge verify-interpolant <config> [--samples N]``
* ``mhdnudge determining <config>``

``determining`` is ``run`` with ``scenario = determining``.  ``--seed N``
overrides the config's seed; ``--outdir DIR`` the output directory.  Exit
codes: 0 success, 2 invalid config, 3 numerical blow-up, CFL violation or
another failure of the run (its ``summary.json`` names it), 4 a scenario
check failed.  A config that cannot be read, or an output directory that
cannot be made, exits 2 here; every run that starts ends in the
experiments module, which writes its ``summary.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    parse_config,
    run_interpolant_verification,
    run_scenario,
    run_sweep,
)


def _add_common(p):
    p.add_argument("config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    p.add_argument("--outdir", default=None, help="override the output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mhdnudge",
        description="2D MHD data-assimilation experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run one scenario")
    _add_common(p)

    p = sub.add_parser("sweep", help="parameter sweep of one scenario")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=("mu", "h", "G"))
    p.add_argument("--values", required=True, nargs="+", type=float)
    p.add_argument("--workers", type=int, default=None,
                   help="processes for the runs of a G sweep; the values of "
                        "a mu or h sweep share one run")

    p = sub.add_parser("verify-interpolant",
                       help="measure the interpolant inequality constants")
    _add_common(p)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("determining",
                       help="determining-interpolant two-solution experiment")
    _add_common(p)
    return parser


def _load(args):
    # determining validates its config as the scenario it runs
    scenario = "determining" if args.verb == "determining" else None
    overrides = {"seed": args.seed, "outdir": args.outdir, "scenario": scenario}
    return parse_config(args.config,
                        {k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.verb == "sweep":
            table = run_sweep(cfg, args.axis, args.values,
                              max_workers=args.workers)
            for row in table:
                print(f"{args.axis}={row['value']:g}  exit={row['exit_code']}  "
                      f"rate={row['rate']}  passed={row['passed']}")
            return EXIT_OK
        if args.verb == "verify-interpolant":
            code, report = run_interpolant_verification(cfg, args.samples)
            print(json.dumps(report, indent=2, sort_keys=True, default=float))
            return code
        code, summary = run_scenario(cfg)
        print(json.dumps(summary, indent=2, sort_keys=True, default=float))
        return code
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
