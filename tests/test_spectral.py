import numpy as np
import pytest

from mhdnudge.spectral import (
    Grid,
    dealias_coef,
    divergence_defect,
    forward_transform,
    l2_norm,
    leray_project_coef,
    random_divfree_field,
    random_scalar_field,
)

from conftest import (
    full_spectrum,
    full_wavenumbers,
    h1_seminorm,
    h2_seminorm,
    inverse_transform,
)


def test_grid_validation():
    Grid(8)
    Grid(64)
    with pytest.raises(ValueError):
        Grid(6)
    with pytest.raises(ValueError):
        Grid(33)


def test_grid_cutoff():
    assert Grid(32).cutoff == 10
    assert Grid(64).cutoff == 21


def test_wavenumbers_symmetric():
    g = Grid(16)
    assert g.k1.shape == g.k2.shape == g.ksq.shape == (16, 9)
    assert g.k1[0, 0] == 0
    assert g.k1[1, 0] == 1
    assert g.k1[-1, 0] == -1
    assert g.k2[0, 7] == 7
    assert g.k2[0, 8] == -8


def test_transform_round_trip():
    g = Grid(32)
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((32, 32))
    samples -= samples.mean()
    fld, mean = forward_transform(g, samples)
    assert abs(mean) < 1e-14
    back = inverse_transform(g, fld)
    np.testing.assert_allclose(back, samples, atol=1e-12)


def test_forward_transform_removes_mean():
    g = Grid(16)
    samples = np.full((16, 16), 2.5)
    fld, mean = forward_transform(g, samples)
    assert mean == pytest.approx(2.5)
    assert l2_norm(fld) == 0.0


def test_forward_transform_stacked_matches_per_plane():
    g = Grid(16)
    samples = np.random.default_rng(4).standard_normal((2, 16, 16)) + 1.5
    fld, mean = forward_transform(g, samples)
    assert fld.shape == (2, 16, 9)
    for i in range(2):
        plane, plane_mean = forward_transform(g, samples[i])
        np.testing.assert_array_equal(fld[i], plane)
        assert mean[i] == plane_mean


def test_shape_mismatch_raises():
    g = Grid(32)
    with pytest.raises(ValueError, match="does not match grid n=32"):
        forward_transform(g, np.zeros((16, 16)))
    with pytest.raises(ValueError, match="does not match grid n=32"):
        forward_transform(g, np.zeros((2, 32, 16)))


def test_parseval():
    g = Grid(32)
    u = random_scalar_field(g, 5)
    phys = inverse_transform(g, u)
    # ||u||^2 = (1/n^2) sum of squared samples on the unit square
    assert l2_norm(u) ** 2 == pytest.approx(np.mean(phys ** 2), rel=1e-12)


def test_gradient_single_mode():
    # u = cos(2 pi 3 x1) has |grad u| = 2 pi 3 |sin|, H1 seminorm 2 pi 3 ||u||
    g = Grid(32)
    u = np.zeros((32, 17), dtype=complex)
    u[3, 0] = 0.5
    u[-3, 0] = 0.5
    assert l2_norm(u) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert h1_seminorm(g, u) == pytest.approx(2 * np.pi * 3 * l2_norm(u), rel=1e-12)


def test_laplacian_eigenvalue():
    # the mode k = (2, 1) has Lap = -4 pi^2 |k|^2 = -4 pi^2 5
    g = Grid(32)
    u = np.zeros((32, 17), dtype=complex)
    u[2, 1] = 1.0
    assert h2_seminorm(g, u) == pytest.approx(4 * np.pi ** 2 * 5 * l2_norm(u),
                                              rel=1e-12)


@pytest.mark.parametrize("n", [16, 48])
def test_norms_match_full_spectrum(n):
    # real noise has energy on every column, column 0 and the Nyquist
    # column n/2 included, which count once; the others count twice
    g = Grid(n)
    u, _ = forward_transform(g, np.random.default_rng(n).standard_normal((n, n)))
    assert np.count_nonzero(u[:, n // 2]) == n
    full = full_spectrum(g, u)
    k1, k2 = full_wavenumbers(g)
    ksq = k1 ** 2 + k2 ** 2
    a = np.abs(full) ** 2
    want = (np.sqrt(np.sum(a)), 2 * np.pi * np.sqrt(np.sum(ksq * a)),
            4 * np.pi ** 2 * np.sqrt(np.sum(ksq ** 2 * a)))
    got = (l2_norm(u), h1_seminorm(g, u), h2_seminorm(g, u))
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_leray_projection_idempotent_and_divfree():
    g = Grid(32)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((2, 32, 17)) + 1j * rng.standard_normal((2, 32, 17))
    pu = leray_project_coef(g, coef)
    assert divergence_defect(g, pu) < 1e-12
    ppu = leray_project_coef(g, pu)
    np.testing.assert_allclose(ppu, pu, atol=1e-12)


def test_leray_projection_orthogonal():
    # the removed part is a gradient, orthogonal to the solenoidal part
    g = Grid(32)
    rng = np.random.default_rng(13)
    coef = rng.standard_normal((2, 32, 17)) + 1j * rng.standard_normal((2, 32, 17))
    pu = leray_project_coef(g, coef)
    assert abs(np.vdot(pu, coef - pu)) < 1e-10


def test_leray_projection_self_adjoint():
    g = Grid(16)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((2, 16, 9)) + 1j * rng.standard_normal((2, 16, 9))
    b = rng.standard_normal((2, 16, 9)) + 1j * rng.standard_normal((2, 16, 9))
    assert np.vdot(leray_project_coef(g, a), b) == pytest.approx(
        np.vdot(a, leray_project_coef(g, b)), abs=1e-10)


def test_poincare_inequality_random_fields():
    # ||grad u|| >= 2 pi ||u|| for mean-zero fields on the unit square
    g = Grid(16)
    for seed in range(1000):
        u = random_scalar_field(g, seed)
        assert h1_seminorm(g, u) >= 2 * np.pi * l2_norm(u) * (1 - 1e-12)


def test_dealias_zeroes_high_modes():
    g = Grid(32)
    coef = np.zeros((32, 17), dtype=complex)
    coef[11, 0] = 1.0  # beyond cutoff 10
    coef[5, 5] = 1.0
    u = dealias_coef(g, coef)
    assert u[11, 0] == 0.0
    assert u[5, 5] == 1.0


def test_random_divfree_field_properties():
    g = Grid(32)
    u = random_divfree_field(g, 42, 2.0, 4)
    assert u.shape == (2, 32, 17)
    assert divergence_defect(g, u) < 1e-13
    kmag = np.sqrt(g.ksq)
    assert np.all(np.abs(u[:, kmag > 4]) == 0.0)
    # deterministic in the seed
    v = random_divfree_field(g, 42, 2.0, 4)
    np.testing.assert_array_equal(u, v)
    w = random_divfree_field(g, 43, 2.0, 4)
    assert np.any(u != w)


def test_random_field_kmax_beyond_cutoff_rejected():
    g = Grid(32)
    with pytest.raises(ValueError):
        random_divfree_field(g, 0, 2.0, 11)


def band_noise_full_fft(grid, seed, shape, decay, k_max):
    """Reference _band_noise: a full complex fft2 of the noise, shaped on
    every mode, and its half spectrum kept."""
    k_max = grid.cutoff if k_max is None else k_max
    noise = np.random.default_rng(seed).standard_normal(shape)
    coef = np.fft.fft2(noise) / grid.n ** 2
    k1, k2 = full_wavenumbers(grid)
    kmag = np.sqrt(k1 ** 2 + k2 ** 2)
    band = (kmag > 0) & (kmag <= k_max)
    shaping = np.zeros_like(kmag)
    shaping[band] = kmag[band] ** (-decay)
    return (coef * shaping)[..., : grid.half_width]


@pytest.mark.parametrize("n", [16, 48])
def test_band_noise_matches_full_fft(n):
    from mhdnudge.spectral import _band_noise
    g = Grid(n)
    for shape, decay, k_max in (((n, n), 1.0, None), ((2, n, n), 2.0, None),
                                ((2, n, n), 2.0, 4), ((n, n), 1.5, 1)):
        got = _band_noise(g, 7, shape, decay, k_max)
        want = band_noise_full_fft(g, 7, shape, decay, k_max)
        assert got.shape == shape[:-1] + (g.half_width,) == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
