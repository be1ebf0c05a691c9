"""The comparison of tools/compare_runs.py on small trees; no CLI run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "compare_runs", ROOT / "tools" / "compare_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_case(root, exit_code=0, summary=b'{"passed": true}\n'):
    """One case of the tool's layout: its streams and a run directory."""
    case = root / "case"
    (case / "out").mkdir(parents=True)
    (case / "out" / "config.txt").write_text(
        "scenario = baseline\noutdir = out\nn = 32\n")
    (case / "out" / "summary.json").write_bytes(summary)
    (case / "stdout").write_text("{}\n")
    (case / "stderr").write_text("")
    (case / "exit_code").write_text(f"{exit_code}\n")


def test_identical_trees_have_no_difference(tool, tmp_path):
    write_case(tmp_path / "old")
    write_case(tmp_path / "new")
    assert tool.compare_trees(tmp_path / "old", tmp_path / "new") == []


def test_one_changed_byte_is_reported(tool, tmp_path):
    write_case(tmp_path / "old")
    write_case(tmp_path / "new", summary=b'{"passed": True}\n')
    assert tool.compare_trees(tmp_path / "old", tmp_path / "new") == [
        "differs: case/out/summary.json"]


def test_config_line_is_reported(tool, tmp_path):
    write_case(tmp_path / "old")
    write_case(tmp_path / "new")
    config = tmp_path / "new" / "case" / "out" / "config.txt"
    config.write_text(config.read_text().replace("n = 32", "n = 64"))
    assert tool.compare_trees(tmp_path / "old", tmp_path / "new") == [
        "differs: case/out/config.txt"]


def test_differing_exit_code_is_reported(tool, tmp_path):
    write_case(tmp_path / "old")
    write_case(tmp_path / "new", exit_code=3)
    assert tool.compare_trees(tmp_path / "old", tmp_path / "new") == [
        "differs: case/exit_code"]


def test_file_on_one_side_is_reported(tool, tmp_path):
    write_case(tmp_path / "old")
    write_case(tmp_path / "new")
    (tmp_path / "old" / "case" / "out" / "errors.csv").write_text("t\n")
    (tmp_path / "new" / "case" / "out" / "sweep.csv").write_text("value\n")
    assert tool.compare_trees(tmp_path / "old", tmp_path / "new") == [
        "only in old: case/out/errors.csv", "only in new: case/out/sweep.csv"]
