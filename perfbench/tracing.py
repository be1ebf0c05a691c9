"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps public functions of the six mhdnudge modules (and the
numpy FFT entry points they call) in every module namespace that binds
them, records one span per call (name, start, end, parent, operation id,
self time) in memory, and restores the original objects on `uninstall`.
Nothing under the package source is modified.

Self time is a span's duration minus the time covered by its direct
children.  Spans are nested properly because everything runs on one
thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import sys
import time

import numpy as np

# span name -> (module, dotted attribute path).  A target the program no
# longer has is skipped and listed as absent in the run report; its
# metrics then read 0.
TARGETS = {
    "spectral.leray_project_coef": ("mhdnudge.spectral", "leray_project_coef"),
    "spectral.dealias_coef": ("mhdnudge.spectral", "dealias_coef"),
    "spectral.divergence_defect": ("mhdnudge.spectral", "divergence_defect"),
    "spectral.random_divfree_field": ("mhdnudge.spectral", "random_divfree_field"),
    "spectral.random_scalar_field": ("mhdnudge.spectral", "random_scalar_field"),
    "dynamics.MhdStepper.__init__": ("mhdnudge.dynamics", "MhdStepper.__init__"),
    "dynamics.MhdStepper.advance": ("mhdnudge.dynamics", "MhdStepper.advance"),
    "dynamics.MhdStepper.norms": ("mhdnudge.dynamics", "MhdStepper.norms"),
    "dynamics.ForcingSpec.f_coef": ("mhdnudge.dynamics", "ForcingSpec.f_coef"),
    "dynamics.ForcingSpec.g_coef": ("mhdnudge.dynamics", "ForcingSpec.g_coef"),
    "dynamics.spin_up": ("mhdnudge.dynamics", "spin_up"),
    "dynamics.mode_solve": ("mhdnudge._kernels", "mode_solve"),
    "dynamics.advect_products": ("mhdnudge._kernels", "advect_products"),
    "nudging.CoupledStepper.step": ("mhdnudge.nudging", "CoupledStepper.step"),
    "nudging.nudging_term": ("mhdnudge.nudging", "nudging_term"),
    "nudging.run_assimilation": ("mhdnudge.nudging", "run_assimilation"),
    "interpolants.apply_interpolant_coef": ("mhdnudge.interpolants",
                                            "apply_interpolant_coef"),
    "interpolants.apply_masked": ("mhdnudge.interpolants", "apply_masked"),
    "interpolants.calibrate": ("mhdnudge.interpolants", "calibrate"),
    "interpolants.linprog": ("mhdnudge.interpolants", "linprog"),
    "interpolants.verification_report": ("mhdnudge.interpolants",
                                         "verification_report"),
    "diagnostics.decay_window_fit": ("mhdnudge.diagnostics", "decay_window_fit"),
    "diagnostics.fit_exponential_rate": ("mhdnudge.diagnostics",
                                         "fit_exponential_rate"),
    "diagnostics.check_int_bound": ("mhdnudge.diagnostics", "check_int_bound"),
    "diagnostics.gronwall_condition_check": ("mhdnudge.diagnostics",
                                             "gronwall_condition_check"),
    "diagnostics.ErrorSeries.save_csv": ("mhdnudge.diagnostics",
                                         "ErrorSeries.save_csv"),
    "experiments.run_scenario": ("mhdnudge.experiments", "run_scenario"),
    "experiments.run_sweep": ("mhdnudge.experiments", "run_sweep"),
    "experiments.run_interpolant_verification": ("mhdnudge.experiments",
                                                 "run_interpolant_verification"),
    "experiments.build_forcing": ("mhdnudge.experiments", "build_forcing"),
    "experiments.build_nudging_config": ("mhdnudge.experiments",
                                         "build_nudging_config"),
    "experiments.threshold_report": ("mhdnudge.experiments", "threshold_report"),
}

# numpy FFT entry points -> which side of the transform is real ("in" for
# the forward real transforms, "out" for their inverses, None if complex)
FFT_FUNCTIONS = {
    "fft2": None, "ifft2": None, "fftn": None, "ifftn": None,
    "rfft2": "in", "irfft2": "out", "rfftn": "in", "irfftn": "out",
}

# calls that start one operation of a workload
OP_SPANS = ("experiments.run_scenario", "experiments.run_interpolant_verification")


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    obj = (vars(owner).get(attr) if isinstance(owner, type)
           else getattr(owner, attr, None))
    return None if obj is None else (owner, attr, obj)


def _axes(name, args, kwargs, ndim):
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        return (-2, -1) if name.endswith("2") else tuple(range(ndim))
    return tuple(axes)


class Tracer:
    """Records spans for the wrapped calls between `install` and `uninstall`."""

    def __init__(self):
        self._saved = []    # (owner, attr, original)
        self._stack = []    # [span id, time covered by children] per open span
        self.absent = []
        self.reset()

    def reset(self):
        """Drop the recorded spans and counters (one set per round)."""
        self.spans = []     # (id, name, start, end, parent, op, self_s)
        self.counts = {"fft_planes": 0, "fft_points": 0, "fft_flops": 0.0,
                       "spin_up_converged": 0}
        self._next_id = 0
        self.op = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self
        stack = self._stack
        is_op = name in OP_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            if is_op:
                tracer.op += 1
            op = tracer.op
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((sid, name, t0, t1, parent, op, dur - frame[1]))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _fft_after(self, name, real_side):
        def after(args, kwargs, result):
            arr = np.asarray(args[0]) if real_side == "in" else result
            axes = _axes(name, args, kwargs, arr.ndim)
            n_plane = math.prod(arr.shape[a] for a in axes)
            planes = arr.size // n_plane
            per_plane = 5.0 * n_plane * math.log2(n_plane) if n_plane > 1 else 0.0
            if real_side is not None:
                per_plane *= 0.5
            c = self.counts
            c["fft_planes"] += planes
            c["fft_points"] += planes * n_plane
            c["fft_flops"] += planes * per_plane
        return after

    def _spin_up_after(self, original):
        sig = inspect.signature(original)

        def after(args, kwargs, result):
            converged = getattr(result, "converged", None)
            if converged is None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                max_time = bound.arguments.get("max_time")
                converged = (max_time is not None and isinstance(result, float)
                             and result < max_time)
            self.counts["spin_up_converged"] += int(bool(converged))
        return after

    def _patch_everywhere(self, original, wrapper, owner, attr):
        """Bind `wrapper` wherever `original` is bound: its owner, and every
        loaded mhdnudge module namespace that imported it."""
        sites = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mhdnudge"
                                   or mod_name.startswith("mhdnudge.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original and (mod, key) != (owner, attr):
                    sites.append((mod, key))
        for site_owner, site_attr in sites:
            self._saved.append((site_owner, site_attr, original))
            setattr(site_owner, site_attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for name, (module_name, path) in TARGETS.items():
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            after = self._spin_up_after(original) if name == "dynamics.spin_up" else None
            self._patch_everywhere(original, self._wrap(name, original, after),
                                   owner, attr)
        for fname, real_side in FFT_FUNCTIONS.items():
            original = getattr(np.fft, fname)
            wrapper = self._wrap("spectral.fft", original,
                                 self._fft_after(fname, real_side))
            self._patch_everywhere(original, wrapper, np.fft, fname)

    def uninstall(self):
        """Restore every original object; returns the sites not restored."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        bad = []
        for owner, attr, original in self._saved:
            current = (vars(owner).get(attr) if isinstance(owner, type)
                       else getattr(owner, attr, None))
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._saved = []
        return bad


def write_spans(path, rounds):
    """Write the spans of every traced round as gzipped tab-separated text."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("round\tid\tname\tstart\tend\tparent\top\tself\n")
        for r, spans in enumerate(rounds):
            for sid, name, t0, t1, parent, op, self_s in spans:
                fh.write(f"{r}\t{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{op}\t"
                         f"{self_s!r}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


ADV = "dynamics.MhdStepper.advance"
STEP = "nudging.CoupledStepper.step"
FORCING = ("dynamics.ForcingSpec.f_coef", "dynamics.ForcingSpec.g_coef")


class RoundStats:
    """Aggregates of one traced round's spans."""

    def __init__(self, spans, counts, artifact_bytes):
        self.counts = counts
        self.artifact_bytes = artifact_bytes
        self.n_spans = len(spans)
        self._n = {}
        self._total = {}
        self._self = {}
        self._durs = {}
        by_id = {}
        for sid, name, t0, t1, parent, op, self_s in spans:
            dur = t1 - t0
            by_id[sid] = (name, dur, parent)
            self._n[name] = self._n.get(name, 0) + 1
            self._total[name] = self._total.get(name, 0.0) + dur
            self._self[name] = self._self.get(name, 0.0) + self_s
            if name in (ADV, STEP):
                self._durs.setdefault(name, []).append(dur)
        # co-evolution: run_assimilation minus its spin-up child
        self.coevolve_s = self._total.get("nudging.run_assimilation", 0.0)
        for name, dur, parent in by_id.values():
            if (name == "dynamics.spin_up" and parent in by_id
                    and by_id[parent][0] == "nudging.run_assimilation"):
                self.coevolve_s -= dur
        self.experiments_self_s = sum(
            v for k, v in self._self.items() if k.startswith("experiments."))

    def n(self, *names):
        return sum(self._n.get(k, 0) for k in names)

    def ms(self, *names):
        return 1e3 * sum(self._total.get(k, 0.0) for k in names)

    def self_ms(self, *names):
        return 1e3 * sum(self._self.get(k, 0.0) for k in names)

    def pct_ms(self, name, q):
        durs = self._durs.get(name)
        return 1e3 * float(np.percentile(durs, q)) if durs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0

WALL = "wall_ref_s"
# Coupled-step metrics would move coupled_steps_per_s, which is not an
# end-to-end metric because verify-n128 does not step; they move wall_ref_s
# on the stepping workloads, and the rate itself is nudging.coupled_steps_per_s.
E2E_STEP = WALL

# name -> (unit, better, end-to-end metric it should move, workload where it
# is largest, workload where it is smallest, value from RoundStats).  Largest
# and smallest are per round, from one traced run per workload at seed 1.
# BENCHMARK.json must list the same names, units and directions.
PER_LAYER = {
    "spectral.fft_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                        lambda s: s.ms("spectral.fft")),
    "spectral.fft_planes": ("count", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                            lambda s: s.counts["fft_planes"]),
    "spectral.fft_points_computed": ("point", "lower", E2E_STEP, "baseline-n64",
                                     "sweep-nodal-n32", lambda s: s.counts["fft_points"]),
    "spectral.fft_flops_computed": ("flop", "lower", E2E_STEP, "verify-n128",
                                    "sweep-nodal-n32", lambda s: s.counts["fft_flops"]),
    "spectral.leray_calls": ("count", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                             lambda s: s.n("spectral.leray_project_coef")),
    "spectral.leray_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                          lambda s: s.ms("spectral.leray_project_coef")),
    "spectral.dealias_ms": ("ms", "lower", E2E_STEP, "baseline-n64", "verify-n128",
                            lambda s: s.ms("spectral.dealias_coef")),
    "spectral.divergence_checks": ("count", "lower", WALL, "sweep-nodal-n32",
                                   "verify-n128",
                                   lambda s: s.n("spectral.divergence_defect")),
    "spectral.divergence_ms": ("ms", "lower", WALL, "sweep-nodal-n32",
                               "verify-n128",
                               lambda s: s.ms("spectral.divergence_defect")),
    "spectral.random_field_ms": ("ms", "lower", WALL, "verify-n128", "baseline-n64",
                                 lambda s: s.ms("spectral.random_divfree_field",
                                                "spectral.random_scalar_field")),
    "spectral.fft_planes_per_advance": (
        "count", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
        lambda s: _ratio(s.counts["fft_planes"], s.n(ADV))),
    "spectral.fft_planes_per_coupled_step": (
        "count", "lower", E2E_STEP, "baseline-n64", "verify-n128",
        lambda s: _ratio(s.counts["fft_planes"], s.n(STEP))),
    "spectral.leray_calls_per_advance": (
        "count", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
        lambda s: _ratio(s.n("spectral.leray_project_coef"), s.n(ADV))),
    "spectral.leray_calls_per_coupled_step": (
        "count", "lower", E2E_STEP, "baseline-n64", "verify-n128",
        lambda s: _ratio(s.n("spectral.leray_project_coef"), s.n(STEP))),
    "spectral.divergence_checks_per_advance": (
        "count", "lower", WALL, "sweep-nodal-n32", "verify-n128",
        lambda s: _ratio(s.n("spectral.divergence_defect"), s.n(ADV))),
    "spectral.divergence_checks_per_coupled_step": (
        "count", "lower", WALL, "sweep-nodal-n32", "verify-n128",
        lambda s: _ratio(s.n("spectral.divergence_defect"), s.n(STEP))),
    "dynamics.advances": ("count", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                          lambda s: s.n(ADV)),
    "dynamics.advance_ms_p50": ("ms", "lower", E2E_STEP, "baseline-n64", "verify-n128",
                                lambda s: s.pct_ms(ADV, 50)),
    "dynamics.advance_ms_p99": ("ms", "lower", E2E_STEP, "baseline-n64", "verify-n128",
                                lambda s: s.pct_ms(ADV, 99)),
    "dynamics.advance_self_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32",
                                 "verify-n128",
                                 lambda s: s.self_ms(ADV)),
    "dynamics.mode_solve_ms": ("ms", "lower", E2E_STEP, "baseline-n64", "verify-n128",
                               lambda s: s.ms("dynamics.mode_solve")),
    "dynamics.advect_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                           lambda s: s.ms("dynamics.advect_products")),
    "dynamics.forcing_calls": ("count", "lower", E2E_STEP, "sweep-nodal-n32",
                               "verify-n128", lambda s: s.n(*FORCING)),
    "dynamics.forcing_calls_per_advance": (
        "count", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
        lambda s: _ratio(s.n(*FORCING), s.n(ADV))),
    "dynamics.forcing_calls_per_coupled_step": (
        "count", "lower", E2E_STEP, "baseline-n64", "verify-n128",
        lambda s: _ratio(s.n(*FORCING), s.n(STEP))),
    "dynamics.norms_calls": ("count", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                             lambda s: s.n("dynamics.MhdStepper.norms")),
    "dynamics.norms_calls_per_advance": (
        "count", "lower", E2E_STEP, "baseline-n64", "verify-n128",
        lambda s: _ratio(s.n("dynamics.MhdStepper.norms"), s.n(ADV))),
    "dynamics.norms_calls_per_coupled_step": (
        "count", "lower", E2E_STEP, "baseline-n64", "verify-n128",
        lambda s: _ratio(s.n("dynamics.MhdStepper.norms"), s.n(STEP))),
    "dynamics.norms_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                          lambda s: s.ms("dynamics.MhdStepper.norms")),
    "dynamics.spin_up_ms": ("ms", "lower", WALL, "baseline-n64", "verify-n128",
                            lambda s: s.ms("dynamics.spin_up")),
    "dynamics.spin_up_converged_frac": (
        "frac", "higher", WALL, "baseline-n64", "verify-n128",
        lambda s: _ratio(s.counts["spin_up_converged"], s.n("dynamics.spin_up"))),
    "dynamics.stepper_init_ms": ("ms", "lower", "setup_s", "baseline-n64",
                                 "verify-n128",
                                 lambda s: s.ms("dynamics.MhdStepper.__init__")),
    "nudging.coupled_steps": ("count", "lower", E2E_STEP, "sweep-nodal-n32",
                              "verify-n128", lambda s: s.n(STEP)),
    "nudging.step_ms_p50": ("ms", "lower", E2E_STEP, "baseline-n64", "verify-n128",
                            lambda s: s.pct_ms(STEP, 50)),
    "nudging.step_ms_p99": ("ms", "lower", E2E_STEP, "baseline-n64", "verify-n128",
                            lambda s: s.pct_ms(STEP, 99)),
    "nudging.step_self_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32",
                             "verify-n128", lambda s: s.self_ms(STEP)),
    "nudging.coevolve_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                            lambda s: 1e3 * s.coevolve_s),
    "nudging.coupled_steps_per_s": ("1/s", "higher", E2E_STEP, "sweep-nodal-n32",
                                    "verify-n128",
                                    lambda s: _ratio(s.n(STEP), s.coevolve_s)),
    "nudging.feedback_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32",
                            "baseline-n64", lambda s: s.ms("nudging.nudging_term")),
    "nudging.record_ms": ("ms", "lower", E2E_STEP, "sweep-nodal-n32", "verify-n128",
                          lambda s: s.self_ms("nudging.run_assimilation")),
    "interpolants.apply_calls": ("count", "lower", WALL, "sweep-nodal-n32",
                                 "baseline-n64",
                                 lambda s: s.n("interpolants.apply_interpolant_coef")),
    "interpolants.apply_ms": ("ms", "lower", WALL, "verify-n128", "baseline-n64",
                              lambda s: s.ms("interpolants.apply_interpolant_coef")),
    "interpolants.masked_calls": ("count", "lower", WALL, "sweep-nodal-n32",
                                  "verify-n128",
                                  lambda s: s.n("interpolants.apply_masked")),
    "interpolants.calibrate_ms": ("ms", "lower", WALL, "sweep-nodal-n32",
                                  "verify-n128",
                                  lambda s: s.ms("interpolants.calibrate")),
    "interpolants.linprog_ms": ("ms", "lower", WALL, "sweep-nodal-n32",
                                "baseline-n64", lambda s: s.ms("interpolants.linprog")),
    "interpolants.verify_ms": ("ms", "lower", WALL, "verify-n128", "baseline-n64",
                               lambda s: s.ms("interpolants.verification_report")),
    "diagnostics.fit_ms": ("ms", "lower", WALL, "sweep-nodal-n32", "verify-n128",
                           lambda s: s.ms("diagnostics.decay_window_fit",
                                          "diagnostics.fit_exponential_rate")),
    "diagnostics.check_ms": ("ms", "lower", WALL, "sweep-nodal-n32",
                             "verify-n128",
                             lambda s: s.ms("diagnostics.check_int_bound",
                                            "diagnostics.gronwall_condition_check")),
    "diagnostics.csv_ms": ("ms", "lower", WALL, "sweep-nodal-n32", "verify-n128",
                           lambda s: s.ms("diagnostics.ErrorSeries.save_csv")),
    "experiments.self_ms": ("ms", "lower", WALL, "sweep-nodal-n32", "verify-n128",
                            lambda s: 1e3 * s.experiments_self_s),
    "experiments.artifact_bytes": ("B", "lower", WALL, "sweep-nodal-n32",
                                   "verify-n128", lambda s: s.artifact_bytes),
    "experiments.ops": ("count", "higher", WALL, "verify-n128", "baseline-n64",
                        lambda s: s.n(*OP_SPANS)),
}

# per-layer metrics that must repeat exactly between traced rounds
EXACT = tuple(k for k, v in PER_LAYER.items() if v[0] in ("count", "point", "flop", "B"))


def layer_metrics(stats: RoundStats) -> dict:
    return {name: float(spec[5](stats)) for name, spec in PER_LAYER.items()}
