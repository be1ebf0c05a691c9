"""Every name a module imports is used in it.  The package's __init__.py is
skipped: its imports are the public re-exports."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mhdnudge import dynamics

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "mhdnudge").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from a import (b,\n    c)\nc()\n") == [(1, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# every public name of the package is used by the package or the benchmark


PACKAGE = sorted((ROOT / "src" / "mhdnudge").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
# the console script, which pyproject.toml names as a string
ENTRY_POINTS = {("cli", "main")}


def public_definitions(tree):
    """Each public top-level function or class, and each public method of a
    top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def references(source: str, strings: bool):
    """The names of each Name and Attribute, and with `strings` each
    dot-separated part of each string constant."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def unreferenced_public_names(package: dict, benchmark: list):
    """Public names defined in `package` (module name -> source, without
    __init__) that neither the package nor the benchmark sources name; a
    definition itself is not a reference."""
    used = set().union(*(references(src, strings=False) for src in package.values()),
                       *(references(src, strings=True) for src in benchmark))
    return sorted(f"{mod}.{name}" for mod, src in package.items()
                  for name in public_definitions(ast.parse(src))
                  if name not in used and (mod, name) not in ENTRY_POINTS)


def test_unreferenced_public_name_is_found():
    package = {"a": "def f():\n    pass\n\n\nclass C:\n    def m(self):\n"
                    "        pass\n\n    def _p(self):\n        pass\n",
               "b": "from .a import C\n\n\ndef g():\n    return C\n"}
    assert unreferenced_public_names(package, []) == ["a.f", "a.m", "b.g"]
    assert unreferenced_public_names(
        package, ["TARGETS = {'a.f': ('mhdnudge.a', 'C.m')}\n"]) == ["b.g"]


def test_public_names_are_used():
    package = {p.stem: p.read_text() for p in PACKAGE if p.name != "__init__.py"}
    benchmark = [p.read_text() for p in BENCHMARK]
    assert unreferenced_public_names(package, benchmark) == []


# ---------------------------------------------------------------------------
# no inverse real FFT writes to out=

# rfft2(..., out=o) is exact, but the inverse transforms are not
IRFFT_OUT_DEFECT = ("with numpy 2.4.6, irfft2/irfftn(..., out=o) return a "
                    "new, correct array and leave wrong values in o; call "
                    "them without out=")


def inverse_real_fft_with_out(source: str):
    """Lines of each irfft2(...) or irfftn(...) call given an `out` array,
    as a keyword or as the fifth positional argument."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("irfft2", "irfftn") and (
                len(node.args) >= 5 or any(k.arg == "out" for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_inverse_real_fft_with_out_is_found():
    src = ("np.fft.irfft2(x, s=(8, 8))\nnp.fft.irfft2(x, s=(8, 8), out=o)\n"
           "irfftn(x, None, None, None, o)\nnp.fft.rfft2(x, out=o)\n")
    assert inverse_real_fft_with_out(src) == [2, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_inverse_real_fft_with_out(path):
    assert inverse_real_fft_with_out(path.read_text()) == [], IRFFT_OUT_DEFECT


@pytest.mark.parametrize("n", [32, 64])
def test_split_real_ffts_with_out_match_the_2d_ones(n):
    # dynamics.advection relies on this in place of irfft2(..., out=): on
    # (S, 4, n, cutoff + 1) bands, ifft over axis -2 then irfft over axis -1,
    # each into a reused buffer, is irfft2(s=(n, n)) bitwise; and rfft over
    # axis -1 then fft over axis -2 of the columns 0..cutoff is rfft2's band
    rng = np.random.default_rng(n)
    c = n // 3 + 1
    cols = np.empty((3, 4, n, c), dtype=np.complex128)
    phys = np.empty((3, 4, n, n))
    rows = np.empty((3, 4, n, n // 2 + 1), dtype=np.complex128)
    band = np.empty((3, 4, n, c), dtype=np.complex128)
    for _ in range(3):
        spec = rng.standard_normal((3, 4, n, c)) \
            + 1j * rng.standard_normal((3, 4, n, c))
        np.fft.ifft(spec, axis=-2, out=cols)
        np.fft.irfft(cols, n=n, axis=-1, out=phys)
        np.testing.assert_array_equal(phys, np.fft.irfft2(spec, s=(n, n)))
        np.fft.rfft(phys, axis=-1, out=rows)
        np.fft.fft(rows[..., :c], axis=-2, out=band)
        np.testing.assert_array_equal(band, np.fft.rfft2(phys)[..., :c])


# ---------------------------------------------------------------------------
# no complex FFT in the package

# every coefficient array is an rfft2 half spectrum; a complex transform
# would bring back the full (..., n, n) layout
COMPLEX_FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn")


def complex_fft_calls(source: str):
    """Lines of each fft2(...), ifft2(...), fftn(...) or ifftn(...) call,
    as a bare name or as an attribute such as np.fft.fft2."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in COMPLEX_FFT_NAMES:
            lines.append(node.lineno)
    return lines


def test_complex_fft_call_is_found():
    src = ("np.fft.rfft2(x)\nnp.fft.fft2(x)\nfftn(x)\nnp.fft.irfft2(x, s=(8, 8))\n"
           "numpy.fft.ifft2(x)\nfrom numpy.fft import ifftn\nnp.fft.fft(x)\n")
    assert complex_fft_calls(src) == [2, 3, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_complex_fft(path):
    assert complex_fft_calls(path.read_text()) == []


# ---------------------------------------------------------------------------
# every run ends in one place: one writer of summary.json, and the CLI
# leaves the numerical errors to the experiments module


def functions_with_literal(source: str, literal: str):
    """The innermost function around each string constant equal to
    `literal`, in source order; "<module>" for one outside any function."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and node.value == literal:
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_function_with_literal_is_found():
    src = ("def f():\n    return 'x'\n\n\ndef g():\n    def h():\n"
           "        return 'x'\n    return h, 'y'\n\n\nz = 'x'\n")
    assert functions_with_literal(src, "x") == ["f", "h", "<module>"]


def test_one_summary_writer():
    writers = {(p.stem, func) for p in PACKAGE for func in
               functions_with_literal(p.read_text(), "summary.json")}
    assert writers == {("experiments", "_run_group")}


def functions_calling(source: str, callee: str):
    """The qualified name (Class.method, outer.inner) of the innermost
    function around each call of `callee`, by bare name or as an
    attribute, in source order; "<module>" for one outside any function."""
    found = []

    def visit(node, path, func):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            path = path + (node.name,)
            if not isinstance(node, ast.ClassDef):
                func = ".".join(path)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == callee:
                found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, path, func)

    visit(ast.parse(source), (), "<module>")
    return found


def test_function_calling_is_found():
    src = ("class A:\n    def m(self):\n        raise E(1)\n\n\n"
           "def f():\n    def g():\n        return x.E()\n    return E, F(2)\n\n\n"
           "E(3)\n")
    assert functions_calling(src, "E") == ["A.m", "f.g", "<module>"]


def test_one_blow_up_check():
    # the stepper's CFL speed is the one finiteness test; every other
    # failure of a system is that error, passed on
    sites = {(p.stem, func) for p in PACKAGE for func in
             functions_calling(p.read_text(), "BlowUpError")}
    assert sites == {("dynamics", "MhdStepper.step_error")}


def test_one_imex_step():
    # the closed-form solve has one caller, the step of a whole stack, of
    # which a lone stepper's advance is the one-slot case: no per-system
    # copy of the step sits beside it
    sites = [(p.stem, func) for p in PACKAGE for func in
             functions_calling(p.read_text(), "_implicit_solve")]
    assert sites == [("dynamics", "Stack._solve")]


def test_one_state_gate():
    # every state enters a stepper through set_state, which checks it for
    # divergence; no caller keeps a check of its own
    sites = {(p.stem, func) for p in PACKAGE for func in
             functions_calling(p.read_text(), "divergence_defect")}
    assert sites == {("dynamics", "MhdStepper.set_state")}


def test_one_gain_rule():
    # mu*dt <= 1 is written once, in check_explicit_gain, and each caller
    # with a gain and a dt calls it directly: a member, a config, and the
    # determining scenario with its derived gain
    sites = {(p.stem, func) for p in PACKAGE for func in
             functions_calling(p.read_text(), "check_explicit_gain")}
    assert sites == {("nudging", "_Member.__init__"),
                     ("experiments", "ExperimentConfig.validated"),
                     ("experiments", "_scenario_determining")}


def test_config_layer_restates_no_observation_rule():
    # the masks and interpolant kinds are checked by NudgingConfig and
    # InterpolantSpec, so the config layer needs neither list
    source = (ROOT / "src" / "mhdnudge" / "experiments.py").read_text()
    assert names_imported_from(source, "interpolants") & {"MASKS", "VOLUME"} == set()


def test_no_stack_built_mid_run():
    # a stack is built with its stepper or its coupled stepper, once: a
    # retirement reorders the coupled stepper's stack in place
    sites = {(p.stem, func) for p in PACKAGE for func in
             functions_calling(p.read_text(), "Stack")}
    assert sites == {("dynamics", "MhdStepper.__init__"),
                     ("nudging", "CoupledStepper.__init__")}


def test_code_lines_skip_blanks_comments_and_docstrings():
    # tools/code_lines.py counts every line of a statement, a string that
    # is no docstring included, and no blank, comment or docstring line
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    src = ('"""Module\n\ndocstring."""\n\n# a comment\nx = f(1,\n'
           '      2)  # trailing\n\n\nclass A:\n    """One line."""\n\n'
           '    def m(self):\n        """Two\n        lines."""\n'
           '        return """not a\ndocstring"""\n')
    assert tool.code_lines(src) == 6


def test_einsum_call_is_found():
    src = ("import numpy as np\n\n\nclass A:\n    def m(self, x):\n"
           "        return np.einsum('i,i', x, x)\n")
    assert functions_calling(src, "einsum") == ["A.m"]


STEP_MODULES = ("dynamics", "nudging")


def test_no_einsum_in_dynamics():
    # a step's per-mode work is contiguous ufunc passes and BLAS matrix
    # products; einsum's generic loops are slower on those operands
    for module in STEP_MODULES:
        source = (ROOT / "src" / "mhdnudge" / f"{module}.py").read_text()
        assert functions_calling(source, "einsum") == [], module


def test_steppers_make_no_leray_projection():
    # the steppers evolve stream functions and project with
    # stream_function, so no function of theirs calls the vector projection
    for module in STEP_MODULES:
        source = (ROOT / "src" / "mhdnudge" / f"{module}.py").read_text()
        assert functions_calling(source, "leray_project_coef") == [], module


def names_imported_from(source: str, module: str):
    """Names that `from ... module import ...` statements bind, for any
    package prefix of `module`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == module
            for alias in node.names}


def test_names_imported_from_are_found():
    src = ("from .dynamics import A, B\nfrom mhdnudge.dynamics import C\n"
           "from .experiments import D\nimport dynamics\n")
    assert names_imported_from(src, "dynamics") == {"A", "B", "C"}


def test_cli_imports_no_exception_from_dynamics():
    errors = {name for name, obj in vars(dynamics).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert errors >= {"BlowUpError", "CflError"}
    cli = (ROOT / "src" / "mhdnudge" / "cli.py").read_text()
    assert names_imported_from(cli, "dynamics") & errors == set()


# ---------------------------------------------------------------------------
# only a parallel G sweep loads the process pool


def test_experiments_import_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, mhdnudge.experiments; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
