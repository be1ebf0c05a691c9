import numpy as np
import pytest

from mhdnudge.spectral import Grid, load_field, random_divfree_field, save_field


def test_save_load_round_trip_exact(tmp_path):
    g = Grid(32)
    u = random_divfree_field(g, 9, 2.0, 6)
    path = tmp_path / "snap.csv"
    save_field(path, u)
    v = load_field(path)
    assert v.shape == (2, 32, 32)
    np.testing.assert_array_equal(u, v)


def test_header_format(tmp_path):
    g = Grid(16)
    u = random_divfree_field(g, 1, 2.0, 3)
    path = tmp_path / "snap.csv"
    save_field(path, u)
    header = path.read_text().splitlines()[0]
    assert header == "mhdnudge-field v1, n=16"


def test_zero_rows_skipped(tmp_path):
    u = np.zeros((2, 16, 16), dtype=complex)
    u[0, 1, 0] = 1.0 + 2.0j
    path = tmp_path / "snap.csv"
    save_field(path, u)
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # header plus the single nonzero mode
    assert lines[1].startswith("1,0,")


def test_negative_wavenumbers_round_trip(tmp_path):
    u = np.zeros((2, 16, 16), dtype=complex)
    u[1, -3 % 16, -5 % 16] = 0.25 - 0.75j
    path = tmp_path / "snap.csv"
    save_field(path, u)
    assert "-3,-5," in path.read_text()
    v = load_field(path)
    np.testing.assert_array_equal(u, v)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("something else\n1,2,3,4,5,6\n")
    with pytest.raises(ValueError):
        load_field(path)


def test_bad_grid_size_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mhdnudge-field v1, n=7\n1,0,1.0,0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="grid size"):
        load_field(path)

