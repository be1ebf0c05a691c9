"""Run a fixed set of CLI cases on two source trees and compare the results.

    python tools/compare_runs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the mhdnudge package, such
as the `src` of two checkouts.  Each case runs `python -m mhdnudge.cli`
with PYTHONPATH set to one tree, in a temporary directory of its own, with
relative paths, so that both sides write the same file names.  A case's
stdout, stderr and exit code are kept beside its artifacts, as the files
`stdout`, `stderr` and `exit_code`.

The script reports every file that differs, stdout, stderr and exit code
included, and every file present on one side only, byte for byte.  It
exits 0 only when nothing differs, and 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name -> (CLI verb and arguments after the config, config text); every case
# reads `case.cfg` and writes to `out`
CASES = {
    "baseline-n64": (["run"], "scenario = baseline\nn = 64\nhorizon = 20\n"),
    "sweep-type2-nodal": (
        ["sweep", "--axis", "mu", "--values", "60", "480"],
        "scenario = type2\nn = 32\ninterpolant_kind = nodal\nmask = first\n"
        "horizon = 2\ninit_mode = random\ninit_seed = 1\n"),
    # damped members with different inverse tables on one stack; v-only
    # makes the C - A term of their determinant nonzero
    "sweep-h-v-only": (
        ["sweep", "--axis", "h", "--values", "0.125", "0.25"],
        "scenario = baseline\nn = 32\nmask = v-only\nhorizon = 2\n"),
    # mu = 20 and mu = 0 retire by CFL (exit 3) and mu = 2000 goes on
    # (exit 4), so its state and band move from slot 2 to slot 1
    "sweep-retire": (
        ["sweep", "--axis", "mu", "--values", "20", "2000", "0"],
        "scenario = generalized-da\nn = 32\nhorizon = 1\nspinup_max_time = 1\n"
        "delta_amplitude = 200\ndelta_rate = 0\n"),
    # two implicit members share one group for the whole run, so one
    # feedback call observes one pair with two gains
    "sweep-mu-spectral": (
        ["sweep", "--axis", "mu", "--values", "50", "200"],
        "scenario = baseline\nn = 32\nhorizon = 2\n"),
    # the b and u masks, through the explicit nodal feedback and through
    # a volume member with an observation error
    "b-only-nodal": (
        ["run"],
        "scenario = b-only-control\nn = 32\nmask = b-only\ninterpolant_kind = nodal\n"
        "mu = 100\nhorizon = 2\ninit_mode = random\nforcing_g_amplitude = 1\n"),
    "u-only-volume-eps": (
        ["run"],
        "scenario = u-only-exploratory\nn = 32\nmask = u-only\n"
        "interpolant_kind = volume\ninterpolant_h = 0.25\neps_amplitude = 0.1\n"
        "horizon = 2\ninit_mode = random\nforcing_g_amplitude = 1\n"),
    # one implicit u-only group with two gains
    "sweep-mu-u-only": (
        ["sweep", "--axis", "mu", "--values", "50", "200"],
        "scenario = u-only-exploratory\nn = 32\nmask = u-only\nhorizon = 2\n"
        "init_mode = random\nforcing_g_amplitude = 1\n"),
    # each G value has its own forcing and runs alone
    "sweep-G": (
        ["sweep", "--axis", "G", "--values", "5", "10", "--workers", "1"],
        "scenario = baseline\nn = 32\nhorizon = 1\n"),
    "determining-n32": (["determining"],
                        "scenario = determining\nn = 32\nhorizon = 5\n"),
    "determining-volume": (
        ["determining"],
        "scenario = determining\nn = 32\ninterpolant_kind = volume\n"
        "interpolant_h = 0.25\ndt = 0.001\nhorizon = 2\n"),
    "generalized-da-volume": (
        ["run"],
        "scenario = generalized-da\nn = 32\ninterpolant_kind = volume\n"
        "interpolant_h = 0.25\ndelta_amplitude = 0.5\neps_amplitude = 0.1\n"
        "horizon = 5\n"),
    "generalized-da-v-only": (
        ["run"],
        "scenario = generalized-da\nn = 32\nmask = v-only\n"
        "delta_amplitude = 0.5\neps_amplitude = 0.1\nhorizon = 5\n"),
    "verify-nodal": (
        ["verify-interpolant", "--samples", "20"],
        "scenario = baseline\nn = 32\ninterpolant_kind = nodal\n"),
    "error-mask": (["run"], "scenario = baseline\nn = 32\nmask = bogus\n"),
    "error-kind": (["run"],
                   "scenario = baseline\nn = 32\ninterpolant_kind = bogus\n"),
    "error-mu": (["run"], "scenario = baseline\nn = 32\nmu = -1\n"),
    # 1/h = 5 does not divide n = 32
    "error-grid": (["run"], "scenario = baseline\nn = 32\n"
                   "interpolant_kind = volume\ninterpolant_h = 0.2\n"),
    # two errors: the first check that fails is reported
    "error-mask-and-sample-every": (
        ["run"], "scenario = baseline\nn = 32\nmask = bogus\nsample_every = 0\n"),
    "error-gain": (["run"], "scenario = baseline\nn = 32\n"
                   "interpolant_kind = nodal\nmu = 600\ndt = 0.002\n"),
    "error-determining-gain": (
        ["determining"],
        "scenario = determining\nn = 64\ninterpolant_kind = volume\n"
        "interpolant_h = 0.125\n"),
}


def run_cases(src: Path, root: Path):
    """Run every case on the package under `src`, case `name` in the
    directory root/name."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, (args, config) in CASES.items():
        case = root / name
        case.mkdir(parents=True)
        (case / "case.cfg").write_text(config)
        done = subprocess.run(
            [sys.executable, "-m", "mhdnudge.cli", args[0], "case.cfg",
             "--outdir", "out", *args[1:]],
            cwd=case, env=env, capture_output=True)
        (case / "stdout").write_bytes(done.stdout)
        (case / "stderr").write_bytes(done.stderr)
        (case / "exit_code").write_text(f"{done.returncode}\n")


def compare_trees(old: Path, new: Path) -> list[str]:
    """One line per difference between the files under `old` and `new`:
    a file on one side only, or a file whose content differs."""
    sides = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (old, new)]
    report = [f"only in old: {name}" for name in sorted(sides[0] - sides[1])]
    report += [f"only in new: {name}" for name in sorted(sides[1] - sides[0])]
    report += [f"differs: {name}" for name in sorted(sides[0] & sides[1])
               if (old / name).read_bytes() != (new / name).read_bytes()]
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / side for side in ("old", "new")]
        for src, root in zip(argv, roots):
            run_cases(Path(src), root)
        report = compare_trees(*roots)
        files = sum(1 for p in roots[0].rglob("*") if p.is_file())
    for line in report:
        print(line)
    print(f"{len(CASES)} cases, {files} files on the old side, "
          f"{len(report)} differences")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
