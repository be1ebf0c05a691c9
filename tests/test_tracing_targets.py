"""Guard for the benchmark's per-layer metrics: every tracing target in
perfbench/tracing.py must still name a function of the package, apart from
the three that are known to be gone.  A target that no longer resolves is
skipped by the tracer and its metrics read 0 without any error."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets of removed code: the numba kernels and the scipy LP
KNOWN_ABSENT = {"dynamics.mode_solve", "dynamics.advect_products",
                "interpolants.linprog"}


def _load_tracing(monkeypatch):
    # load the harness module without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    absent = {name for name, (module, path) in tracing.TARGETS.items()
              if tracing._resolve(module, path) is None}
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
