"""Benchmark of mhdnudge nudging workloads, with an optional traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the config text of every operation; the program gets
only that text.  The run repeats the workload's round of operations for
about S seconds in this single process (threads pinned to 1), checks every
operation, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones named in BENCHMARK.json;
with --trace 1 one untraced round is followed by traced rounds and the
metrics are the per-layer ones.  A report with the environment, every
operation's outcome and all metrics goes to .perfbench_runs/, and the
traced run's spans next to it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (this directory is sys.path[0])
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

SETUP_SAMPLES = 7
# a run must end within 180 s; traced runs stop adding rounds past this
TIME_LIMIT_S = 150.0
LIBC = ctypes.CDLL("libc.so.6")

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACING = {
    "tracing.overhead_s": ("s", "lower"),
    "tracing.overhead_frac": ("frac", "lower"),
    "tracing.spans": ("count", "lower"),
}


# ---------------------------------------------------------------------------
# workloads


SWEEP_MU = (60.0, 480.0)
VERIFY_KINDS = ("spectral", "volume", "nodal")
VERIFY_SAMPLES = 1000


def _config(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def baseline_configs(seed):
    # The seed picks the assimilating copy's initial state; the reference
    # (initial state, forcing, spin-up) is the same for every seed, so every
    # seed does the same amount of work.
    return [("baseline", _config(
        scenario="baseline", n=64, interpolant_kind="spectral",
        interpolant_h=0.125, mask="all", mu=50.0, dt=0.002, horizon=1.0,
        init_mode="random", init_seed=seed + 1))]


def sweep_configs(seed):
    return [(f"mu={mu:g}", _config(
        scenario="type2", n=32, interpolant_kind="nodal", interpolant_h=0.125,
        mask="first", mu=mu, horizon=2.0, init_mode="random", init_seed=seed + 1))
        for mu in SWEEP_MU]


def verify_configs(seed):
    # forcing_seed is the first sample seed; seeds draw disjoint sample sets
    return [(kind, _config(
        scenario="baseline", n=128, interpolant_kind=kind, interpolant_h=0.125,
        forcing_seed=VERIFY_SAMPLES * seed)) for kind in VERIFY_KINDS]


def _scenario_values(summary):
    return {"l2_rate": summary["l2_fit"]["rate"],
            "h1_rate": summary["h1_fit"]["rate"]}


def _timed(calls, name, fn, *args, **kwargs):
    """Call fn and record its wall and reference-speed seconds and its minor
    page faults under `name` in `calls`."""
    clock = speed.SpeedClock()
    faults = _minor_faults()
    try:
        with clock:
            return fn(*args, **kwargs)
    finally:
        calls[name] = {"wall_s": clock.wall_s(), "ref_s": clock.reference_s(),
                       "minflt": _minor_faults() - faults}


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_baseline(ex, configs, outdir, calls):
    (name, text), = configs
    code, summary = _timed(calls, name, ex.run_scenario,
                           ex.parse_config_text(text), str(outdir / name))
    return [(name, code, _scenario_values(summary) if code == 0 else None)]


def run_sweep(ex, configs, outdir, calls):
    cfg = ex.parse_config_text(configs[0][1])
    table = _timed(calls, "sweep", ex.run_sweep, cfg, "mu", SWEEP_MU,
                   str(outdir / "sweep"), max_workers=1)
    ops = []
    for (name, _), row in zip(configs, table):
        values = None
        if row["exit_code"] == 0:
            with open(outdir / "sweep" / name / "summary.json") as fh:
                values = _scenario_values(json.load(fh))
        ops.append((name, row["exit_code"], values))
    return ops


def run_verify(ex, configs, outdir, calls):
    ops = []
    for name, text in configs:
        code, report = _timed(calls, name, ex.run_interpolant_verification,
                              ex.parse_config_text(text), VERIFY_SAMPLES,
                              str(outdir / name))
        ops.append((name, code, {k: report[k] for k in ("c1", "c2", "c3")
                                 if k in report}))
    return ops


# name -> (config generator, round runner, set-up probe mode)
WORKLOADS = {
    "baseline-n64": (baseline_configs, run_baseline, "stepper"),
    "sweep-nodal-n32": (sweep_configs, run_sweep, "stepper"),
    "verify-n128": (verify_configs, run_verify, "grid"),
}


# ---------------------------------------------------------------------------
# one round of operations


def run_round(ex, workload, configs, outdir, reference, seed):
    """Run the workload's operations once; never raises for a program error.

    Returns (wall seconds, {public call: {"wall_s": .., "ref_s": ..}},
    [op records]).  An operation fails when it raises, exits non-zero, or
    (at the default seed) its gate values leave the recorded ones by more
    than the tolerance.
    """
    _, runner, _ = WORKLOADS[workload]
    calls = {}
    # No round inherits the garbage or the malloc heap of the one before.
    # Without the trim, a later round's nodal verification made either a few
    # hundred or ~200k page faults, depending on the heap the round before
    # left, and took 1.6 or 1.9 reference seconds.
    gc.collect()
    LIBC.malloc_trim(0)
    t0 = time.perf_counter()
    try:
        results = runner(ex, configs, outdir, calls)
        error = None
    except Exception:  # the round is lost; record it and keep going
        results = [(name, None, None) for name, _ in configs]
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    gated = seed == reference["default_seed"]
    ops = []
    for name, code, values in results:
        problems = []
        if error is not None:
            problems.append(error)
        elif code != 0:
            problems.append(f"exit code {code}")
        recorded = reference["expected"][workload].get(name) if gated else {}
        if recorded is None:
            problems.append("no recorded gate values at the default seed")
        for key, want in (recorded or {}).items():
            got = (values or {}).get(key)
            if got is None or not abs(got - want) <= (
                    reference["rtol"] * abs(want) + reference["atol"]):
                problems.append(f"{key} = {got!r}, recorded {want!r}")
        ops.append({"name": name, "exit_code": code, "values": values,
                    "ok": not problems, "problems": problems})
    return wall, calls, ops


def _artifacts(round_dir):
    """The bitwise-compared artifacts of a round: relative path -> bytes."""
    paths = [p for p in round_dir.rglob("*")
             if p.suffix == ".csv" or p.name == "interpolant_report.json"]
    return {str(p.relative_to(round_dir)): p.read_bytes() for p in sorted(paths)}


def _tree_bytes(path):
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# environment


def _git_sha(root):
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref:"):
        return ref
    ref = ref.split(":", 1)[1].strip()
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of the build config
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mhdnudge").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_sample(mode, text):
    """Set-up of one operation, measured in a fresh interpreter:
    {"setup_s": reference-speed seconds, "wall_s": seconds}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), mode, text],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# main


def _load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    known = {k: (v[0], v[1]) for k, v in tracing.PER_LAYER.items()}
    known.update(TRACING)
    for m in bench["per_layer"]:
        if known.get(m["name"]) != (m["unit"], m["better"]):
            raise SystemExit(f"BENCHMARK.json per_layer metric {m['name']!r} "
                             "does not match perfbench/tracing.py")
    for m in bench["end_to_end"]:
        if END_TO_END.get(m["name"]) != m["unit"]:
            raise SystemExit(f"unknown end-to-end metric {m['name']!r}")
    return bench, reference


def _import_program():
    if not (SRC / "mhdnudge" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'mhdnudge'}")
    sys.path.insert(0, str(SRC))
    import mhdnudge
    from mhdnudge import experiments
    if SRC.resolve() not in Path(mhdnudge.__file__).resolve().parents:
        raise SystemExit(f"mhdnudge imported from {mhdnudge.__file__}, not {SRC}")
    return experiments


def _has_failure(round_):
    # the program is deterministic, so a failed round would fail again
    return any(not op["ok"] for op in round_["ops"])


def _median_call_s(rounds):
    """Sum over a round's public calls of each call's median reference-speed
    seconds over the rounds.  The first round warms up (lazy imports, FFT
    plan caches) and counts only if it is the only one."""
    total = 0.0
    for name, first in rounds[0]["calls"].items():
        times = [r["calls"][name]["ref_s"] for r in rounds[1:] if name in r["calls"]]
        total += statistics.median(times or [first["ref_s"]])
    return total


def _ref_s(round_):
    return sum(c["ref_s"] for c in round_["calls"].values())


def measure_untraced(one_round, setup_mode, setup_text, seconds):
    """Rounds until the next one would pass `seconds`, with one set-up
    sample after each of the first SETUP_SAMPLES rounds.

    Spreading the set-up samples over the run keeps them from all landing
    in one spell of load from other tenants of the machine.
    """
    rounds, samples = [], []
    t0 = time.perf_counter()
    while True:
        rounds.append(one_round(len(rounds)))
        if _has_failure(rounds[-1]):
            break
        if len(samples) < SETUP_SAMPLES:
            samples.append(setup_sample(setup_mode, setup_text))
        if time.perf_counter() - t0 + rounds[-1]["wall_s"] > seconds:
            break
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(setup_mode, setup_text))
    metrics = {
        "wall_ref_s": _median_call_s(rounds),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return rounds, metrics, {}, {"setup_samples": samples}


def measure_traced(one_round, spans_path, seconds):
    """Untraced and traced rounds in turn, at least two of each.

    The tracer is installed for each traced round only, so the untraced
    rounds after it also show that the originals were restored.
    """
    t0 = time.perf_counter()
    tracer = tracing.Tracer()
    rounds, traced, not_restored = [], [], []
    while True:
        if len(rounds) % 2 == 0:
            r = one_round(len(rounds))
        else:
            tracer.reset()
            tracer.install()
            try:
                r = one_round(len(rounds))
            finally:
                not_restored += tracer.uninstall()
            r["stats"] = tracing.RoundStats(tracer.spans, tracer.counts,
                                            _tree_bytes(r["dir"]))
            r["spans"] = tracer.spans
            traced.append(r)
        rounds.append(r)
        projected = time.perf_counter() - t0 + r["wall_s"]
        if ((traced and _has_failure(r)) or projected > TIME_LIMIT_S
                or (len(rounds) >= 4 and projected > seconds)):
            break
    tracing.write_spans(spans_path, [r["spans"] for r in traced])

    per_round = [tracing.layer_metrics(r["stats"]) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    # in reference-speed seconds; the first (untraced) round warms up
    untraced_s = statistics.median(_ref_s(r) for r in rounds[2::2] or rounds[:1])
    overhead = statistics.median(_ref_s(r) for r in traced) - untraced_s
    metrics["tracing.overhead_s"] = overhead
    metrics["tracing.overhead_frac"] = overhead / untraced_s
    metrics["tracing.spans"] = float(statistics.median(r["stats"].n_spans
                                                       for r in traced))
    mismatched = [k for k in tracing.EXACT if len({m[k] for m in per_round}) > 1]
    checks = {"originals_restored": not not_restored, "counts_repeat": not mismatched}
    details = {"traced_rounds": len(traced), "not_restored": not_restored,
               "counts_not_repeating": mismatched, "absent_targets": tracer.absent}
    return rounds, metrics, checks, details


def compare_artifacts(rounds):
    """Names of compared artifacts that differ from the first round's."""
    first = _artifacts(rounds[0]["dir"])
    differing = set()
    for r in rounds[1:]:
        other = _artifacts(r["dir"])
        differing |= {k for k in first.keys() | other.keys()
                      if first.get(k) != other.get(k)}
    return sorted(first), sorted(differing)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bench, reference = _load_spec()
    ex = _import_program()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    configs = WORKLOADS[args.workload][0](args.seed)

    def one_round(k):
        round_dir = run_dir / f"round{k}"
        round_dir.mkdir()
        wall, calls, ops = run_round(ex, args.workload, configs, round_dir,
                                     reference, args.seed)
        return {"wall_s": wall, "calls": calls, "ops": ops, "dir": round_dir}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "configs": dict(configs), "environment": environment()}
    if args.trace:
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
        rounds, metrics, checks, details = measure_traced(one_round, spans_path,
                                                          args.seconds)
        wanted = bench["per_layer"]
    else:
        rounds, metrics, checks, details = measure_untraced(
            one_round, WORKLOADS[args.workload][2], configs[0][1], args.seconds)
        wanted = bench["end_to_end"]
    compared, differing = compare_artifacts(rounds)
    checks["artifacts_identical"] = bool(compared) and not differing
    shutil.rmtree(run_dir)

    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    correct = failed == 0 and all(checks.values())
    report.update(details)
    report.update({
        "artifacts_compared": compared, "artifacts_differing": differing,
        "rounds": [{"wall_s": r["wall_s"], "calls": r["calls"], "traced": "stats" in r,
                    "ops": r["ops"]} for r in rounds],
        "checks": checks, "metrics": metrics,
        "correct": correct, "attempted": len(ops), "failed": failed,
    })
    report_path = OUT / f"{tag}.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for op in ops:
        if not op["ok"]:
            print(f"FAILED {op['name']}: {'; '.join(op['problems'])}", file=sys.stderr)
    for name, ok in checks.items():
        if not ok:
            print(f"CHECK FAILED {name}", file=sys.stderr)
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"report {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
