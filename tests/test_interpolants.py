import itertools
import tracemalloc

import numpy as np
import pytest

from mhdnudge import interpolants
from mhdnudge.interpolants import (
    _bound_samples,
    _type2_lp,
    MASK_ALL,
    MASK_B_ONLY,
    MASK_FIRST,
    MASK_U_ONLY,
    MASK_V_ONLY,
    MASKS,
    NODAL,
    SPECTRAL,
    VOLUME,
    InterpolantSpec,
    apply_interpolant_coef,
    apply_masked,
    calibrate,
    projected_masked,
    verification_report,
    verify_type1_bound,
    verify_type2_bound,
)
from mhdnudge.spectral import (
    _band_shaping,
    Grid,
    forward_transform,
    l2_norm,
    random_scalar_field,
)

from conftest import (
    full_spectrum,
    h1_seminorm,
    h2_seminorm,
    interpolant_full,
    inverse_transform,
)


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_half_spectrum_input_matches_full(kind):
    # the direct fold of the half spectrum against the fold over the full
    # plane, on the first n/2 + 1 columns; at n = 48, h = 1/16 the cell
    # width is odd (3).  Real noise has energy on every mode, Nyquist
    # row and column included.
    for n in (32, 48, 64, 128):
        g = Grid(n)
        noise = np.random.default_rng(n).standard_normal((2, n, n))
        fields = (np.stack([random_scalar_field(g, s) for s in (1, 2)]),
                  forward_transform(g, noise)[0])
        hs = (1.0 / 16,) if n == 48 else (0.25, 0.125, 1.0 / 16)
        if kind == SPECTRAL and n == 32:
            hs += (1.0 / 3,)
        for u, h in itertools.product(fields, hs):
            spec = InterpolantSpec(kind, h)
            for x in (u, u[0]):
                got = apply_interpolant_coef(spec, g, x)
                want = interpolant_full(spec, g, full_spectrum(g, x))
                assert got.shape == x.shape
                np.testing.assert_allclose(got, want[..., : g.half_width], rtol=0,
                                           atol=1e-14 * np.max(np.abs(want)))


def test_spec_validation():
    InterpolantSpec(SPECTRAL, 0.125)
    with pytest.raises(ValueError):
        InterpolantSpec("fourier", 0.125)
    with pytest.raises(ValueError):
        InterpolantSpec(SPECTRAL, 0.3)  # 1/h not an integer
    with pytest.raises(ValueError):
        InterpolantSpec(SPECTRAL, 0.0)


def test_type_classes():
    assert InterpolantSpec(SPECTRAL, 0.125).type_class == 1
    assert InterpolantSpec(VOLUME, 0.125).type_class == 1
    assert InterpolantSpec(NODAL, 0.125).type_class == 2


def test_resolution_must_divide_grid():
    g = Grid(32)
    spec = InterpolantSpec(VOLUME, 1.0 / 12.0)
    u = random_scalar_field(g, 0)
    with pytest.raises(ValueError):
        apply_interpolant_coef(spec, g, u)


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_linearity(kind):
    g = Grid(32)
    spec = InterpolantSpec(kind, 0.125)
    u = random_scalar_field(g, 1)
    v = random_scalar_field(g, 2)
    lhs = apply_interpolant_coef(spec, g, 2.0 * u - 3.0 * v)
    rhs = (2.0 * apply_interpolant_coef(spec, g, u)
           - 3.0 * apply_interpolant_coef(spec, g, v))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_idempotence(kind):
    g = Grid(32)
    spec = InterpolantSpec(kind, 0.125)
    u = random_scalar_field(g, 3)
    once = apply_interpolant_coef(spec, g, u)
    twice = apply_interpolant_coef(spec, g, once)
    np.testing.assert_allclose(twice, once, atol=1e-13)


def test_spectral_projection_keeps_low_modes_exactly():
    g = Grid(32)
    spec = InterpolantSpec(SPECTRAL, 0.125)  # keeps max(|k1|,|k2|) <= 8
    coef = np.zeros((32, 17), dtype=complex)
    coef[3, 5] = 1.0 + 2.0j
    coef[9, 0] = 4.0
    out = apply_interpolant_coef(spec, g, coef)
    assert out[3, 5] == coef[3, 5]
    assert out[9, 0] == 0.0


def test_volume_average_cell_means():
    g = Grid(32)
    spec = InterpolantSpec(VOLUME, 0.25)  # 4x4 cells of 8x8 points
    u = random_scalar_field(g, 4)
    phys = inverse_transform(g, u)
    out_phys = inverse_transform(g, apply_interpolant_coef(spec, g, u))
    block = phys[:8, :8].mean()
    np.testing.assert_allclose(out_phys[:8, :8], block, atol=1e-12)


def test_nodal_matches_samples_at_nodes():
    g = Grid(32)
    spec = InterpolantSpec(NODAL, 0.125)
    u = random_scalar_field(g, 5)
    phys = inverse_transform(g, u)
    out_phys = inverse_transform(g, apply_interpolant_coef(spec, g, u))
    s = 32 // 8
    # node values are preserved up to the removed mean of the interpolant
    shift = out_phys[::s, ::s] - phys[::s, ::s]
    np.testing.assert_allclose(shift, shift.flat[0], atol=1e-12)


# physical-space reference operators: sample or average on the grid, then
# transform back (the form I_h had before it acted on the coefficients)


def _ref_volume(coef, n, m):
    s = n // m
    phys = np.fft.irfft2(coef, s=(n, n)) * n ** 2
    cells = phys.reshape(*phys.shape[:-2], m, s, m, s).mean(axis=(-3, -1))
    flat = np.repeat(np.repeat(cells, s, axis=-2), s, axis=-1)
    out = np.fft.rfft2(flat) / n ** 2
    out[..., 0, 0] = 0.0
    return out


def _ref_nodal(coef, n, m):
    s = n // m
    phys = np.fft.irfft2(coef, s=(n, n)) * n ** 2
    nodes = phys[..., ::s, ::s]
    frac = (np.arange(n) % s) / s
    cell = np.arange(n) // s
    nxt = (cell + 1) % m
    fx = frac[:, None]
    fy = frac[None, :]
    f00 = nodes[..., cell[:, None], cell[None, :]]
    f10 = nodes[..., nxt[:, None], cell[None, :]]
    f01 = nodes[..., cell[:, None], nxt[None, :]]
    f11 = nodes[..., nxt[:, None], nxt[None, :]]
    interp = ((1 - fx) * (1 - fy) * f00 + fx * (1 - fy) * f10
              + (1 - fx) * fy * f01 + fx * fy * f11)
    out = np.fft.rfft2(interp) / n ** 2
    out[..., 0, 0] = 0.0
    return out


_REFERENCES = {VOLUME: _ref_volume, NODAL: _ref_nodal}


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("kind", [VOLUME, NODAL])
@pytest.mark.parametrize("stacked", [False, True])
def test_matches_physical_space_reference(n, kind, stacked):
    g = Grid(n)
    fields = [random_scalar_field(g, seed) for seed in (10, 11)]
    coef = np.stack(fields) if stacked else fields[0]
    for m in (1, 4, 8, 16):
        ref = _REFERENCES[kind](coef, n, m)
        out = apply_interpolant_coef(InterpolantSpec(kind, 1.0 / m), g, coef)
        assert out.shape == coef.shape
        # with one cell (h = 1) I_h u is the constant mean, removed: the
        # reference is 0 up to roundoff, so the input sets the scale
        scale = np.abs(ref).max() if m > 1 else np.abs(coef).max()
        assert np.abs(out - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_real_field_stays_real(kind):
    # on column 0 and on the Nyquist column the half spectrum holds both
    # k and -k, so a real result needs c(-k) = c(k)^* there
    g = Grid(64)
    coef = random_scalar_field(g, 12)
    for h in (0.25, 0.125, 0.0625):
        out = apply_interpolant_coef(InterpolantSpec(kind, h), g, coef)
        phys = np.fft.ifft2(full_spectrum(g, out)) * g.n ** 2
        assert np.abs(phys.imag).max() <= 1e-14


def test_volume_and_nodal_make_no_fft(monkeypatch):
    g = Grid(32)
    coef = random_scalar_field(g, 13)
    stacked = np.stack([coef, 2.0 * coef])

    def no_fft(*args, **kwargs):
        raise AssertionError("I_h called an FFT")

    for name in ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, no_fft)
    for kind in (SPECTRAL, VOLUME, NODAL):
        spec = InterpolantSpec(kind, 0.125)
        apply_interpolant_coef(spec, g, coef)
        apply_interpolant_coef(spec, g, stacked)


def test_spectral_c1_single_mode_oracle():
    # u concentrated at max(|k1|,|k2|) = m > 1/h: ratio is exactly 1/(2 pi m h)
    g = Grid(64)
    h = 0.125
    spec = InterpolantSpec(SPECTRAL, h)
    m = 9
    u = np.zeros((64, 33), dtype=complex)
    u[m, 0] = 1.0
    res = l2_norm(u - apply_interpolant_coef(spec, g, u))
    ratio = res / (h * h1_seminorm(g, u))
    assert ratio == pytest.approx(1.0 / (2.0 * np.pi * m * h), rel=1e-12)


def test_spectral_c1_below_analytic_limit():
    g = Grid(64)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    c1 = verify_type1_bound(spec, g, n_samples=100, seed=0)
    assert 0.0 < c1 <= 1.0 / (2.0 * np.pi) + 1e-6


def test_type1_holdout_no_violations():
    g = Grid(64)
    for kind in (SPECTRAL, VOLUME):
        spec = InterpolantSpec(kind, 0.125)
        c1 = calibrate(spec, g, n_samples=100, seed=0)["c1"]
        for i in range(100):
            u = random_scalar_field(g, 5000 + i)
            res = l2_norm(u - apply_interpolant_coef(spec, g, u))
            assert res <= c1 * spec.h * h1_seminorm(g, u)


def test_type2_holdout_no_violations():
    g = Grid(64)
    spec = InterpolantSpec(NODAL, 0.125)
    fitted = calibrate(spec, g, n_samples=100, seed=0)
    for i in range(100):
        u = random_scalar_field(g, 6000 + i)
        res = l2_norm(u - apply_interpolant_coef(spec, g, u))
        bound = (fitted["c2"] * spec.h * h1_seminorm(g, u)
                 + fitted["c3"] * spec.h ** 2 * h2_seminorm(g, u))
        assert res <= bound


def test_type2_bound_requires_nodal():
    g = Grid(64)
    with pytest.raises(ValueError):
        verify_type2_bound(InterpolantSpec(SPECTRAL, 0.125), g)
    with pytest.raises(ValueError):
        verify_type1_bound(InterpolantSpec(NODAL, 0.125), g)


def test_nodal_h_refinement_order():
    # on a fixed smooth field the nodal residual shrinks ~ h^2
    g = Grid(64)
    u = random_scalar_field(g, 9, energy_spectrum_decay=3.0, k_max=3)
    residuals = []
    for h in (0.125, 0.0625, 0.03125):
        spec = InterpolantSpec(NODAL, h)
        res = l2_norm(u - apply_interpolant_coef(spec, g, u))
        residuals.append(res)
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert orders.min() >= 1.9


def _lp_brute_force(a, b, r):
    """Optimum of  min c2 + c3  s.t.  a c2 + b c3 >= r,  c >= 0  by trying
    every vertex: each pair of boundary lines, including c2 = 0 and c3 = 0.
    Ties in c2 + c3 (to 1e-12) go to the smallest c2."""
    lines = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)] + list(zip(a, b, r))
    best = None
    for (a1, b1, r1), (a2, b2, r2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        c = np.array([(r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det])
        if c.min() < -1e-12 or np.any(a * c[0] + b * c[1] < r - 1e-12):
            continue
        if best is None or c.sum() < best.sum() - 1e-12 or (
                c.sum() <= best.sum() + 1e-12 and c[0] < best[0]):
            best = c
    return best


@pytest.mark.parametrize("rows, expected", [
    # two steep lines: the optimum is where they meet, c2 = c3 = 1/1.2
    ([(1.0, 0.2, 1.0), (0.2, 1.0, 1.0)], (1 / 1.2, 1 / 1.2)),
    # c2 alone is cheapest: c3 = 0
    ([(1.0, 0.1, 1.0), (2.0, 0.1, 1.0)], (1.0, 0.0)),
    # a row with b = 0 bounds c2 from below
    ([(1.0, 0.0, 0.5), (0.1, 1.0, 1.0)], (0.5, 0.95)),
    # the edge c2 + c3 = 1.5 from (0.5, 1) to (1.5, 0) is optimal: the
    # smallest c2 is taken
    ([(2.0, 1.0, 2.0), (1.0, 1.0, 1.5)], (0.5, 1.0)),
    # no rows
    ([], (0.0, 0.0)),
], ids=["interior", "c3=0", "b=0-row", "slope-minus-one-edge", "empty"])
def test_type2_lp_closed_form(rows, expected):
    a, b, r = np.array(rows, dtype=float).reshape(-1, 3).T
    c2, c3 = _type2_lp(a, b, r)
    np.testing.assert_allclose((c2, c3), expected, rtol=1e-14, atol=1e-15)
    if rows:
        np.testing.assert_allclose((c2, c3), _lp_brute_force(a, b, r),
                                   rtol=1e-12, atol=1e-15)


def test_type2_lp_matches_brute_force_on_random_rows():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.2)
        b = rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.2)
        a[(a == 0) & (b == 0)] = 1.0
        r = rng.uniform(0.0, 1.0, n)
        c2, c3 = _type2_lp(a, b, r)
        best = _lp_brute_force(a, b, r)
        assert c2 + c3 == pytest.approx(best.sum(), rel=1e-12)
        assert np.all(a * c2 + b * c3 >= r * (1 - 1e-12))


def test_nodal_constants_golden():
    fitted = calibrate(InterpolantSpec(NODAL, 0.125), Grid(32), 100, 100)
    assert fitted["c2"] == 0.0
    assert fitted["c3"] == pytest.approx(0.04153025669470928, rel=1e-12)


def test_calibrate_inflates_raw_fit_5_percent():
    g = Grid(32)
    for kind in (SPECTRAL, VOLUME):
        spec = InterpolantSpec(kind, 0.125)
        assert (calibrate(spec, g, 20, 3)["c1"]
                == 1.05 * verify_type1_bound(spec, g, 20, 3))
    spec = InterpolantSpec(NODAL, 0.125)
    c2, c3 = verify_type2_bound(spec, g, 20, 3)
    fitted = calibrate(spec, g, 20, 3)
    assert (fitted["c2"], fitted["c3"]) == (1.05 * c2, 1.05 * c3)


def test_verification_report_keys():
    g = Grid(32)
    r1 = verification_report(InterpolantSpec(SPECTRAL, 0.125), g, 20, 0)
    assert set(r1) == {"kind", "h", "type_class", "n_samples", "seed", "c1"}
    r2 = verification_report(InterpolantSpec(NODAL, 0.125), g, 20, 0)
    assert {"c2", "c3"} <= set(r2)


# ---------------------------------------------------------------------------
# the bound samples on the alias lattice against the direct formula


def rfft2_field(grid, seed, decay, k_max):
    """random_scalar_field as one rfft2 of the noise of one seed, the form it
    had before it drew blocks."""
    coef = np.fft.rfft2(np.random.default_rng(seed).standard_normal((grid.n, grid.n)))
    coef[..., k_max + 1:] = 0.0
    band = coef[..., : k_max + 1]
    band /= grid.n ** 2
    band *= _band_shaping(grid.n, decay, k_max)
    return coef


@pytest.mark.parametrize("n", [32, 48])
def test_block_draw_is_each_seed_alone(n, monkeypatch):
    # 7 samples: the last block is not full
    g = Grid(n)
    drawn = []

    def spy(grid, seed, *args, **kwargs):
        block = random_scalar_field(grid, seed, *args, **kwargs)
        drawn.extend(zip(seed, block.copy()))
        return block

    monkeypatch.setattr(interpolants, "random_scalar_field", spy)
    _bound_samples(InterpolantSpec(NODAL, 0.25), g, 7, 40)
    assert [seed for seed, _ in drawn] == list(range(40, 47))
    for seed, field in drawn:
        assert np.array_equal(field, rfft2_field(g, seed, 1.0, g.cutoff))
    out, work = np.empty((3, n, g.half_width), complex), np.empty((3, n, n))
    for seeds in ([5], [5, 6, 7], range(9, 12)):
        block = random_scalar_field(g, seeds, 1.5, 4, out=out[: len(seeds)],
                                    work=work[: len(seeds)])
        for seed, field in zip(seeds, block):
            assert np.array_equal(field, rfft2_field(g, seed, 1.5, 4))


@pytest.mark.parametrize("n", [32, 48, 64])
@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_bound_samples_match_the_direct_formula(kind, n):
    g = Grid(n)
    for h in (0.25, 0.125, 1.0 / 16):
        spec = InterpolantSpec(kind, h)
        got = _bound_samples(spec, g, 7, 21)
        want = np.empty((3, 7))
        for i in range(7):
            u = random_scalar_field(g, 21 + i)
            want[:, i] = (h * h1_seminorm(g, u), h ** 2 * h2_seminorm(g, u),
                          l2_norm(u - apply_interpolant_coef(spec, g, u)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind, inv_h", [(SPECTRAL, 10), (SPECTRAL, 16),
                                         (VOLUME, 32), (NODAL, 32)])
def test_reproduced_band_has_zero_constants(kind, inv_h):
    # I_h reproduces the band (|k| <= cutoff 10 at n = 32): the residual is
    # exactly 0, with no roundoff from the lattice terms
    g = Grid(32)
    spec = InterpolantSpec(kind, 1.0 / inv_h)
    assert np.all(_bound_samples(spec, g, 9, 0)[2] == 0.0)
    if spec.type_class == 1:
        assert verify_type1_bound(spec, g, 9, 0) == 0.0
    else:
        assert verify_type2_bound(spec, g, 9, 0) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# masks


def _random_pair(g, seed):
    """A stacked (4, n, n/2 + 1) pair (eta, zeta) of random half spectra."""
    rng = np.random.default_rng(seed)
    shape = (4, g.n, g.half_width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_mask_all_applies_componentwise():
    g = Grid(32)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    X = _random_pair(g, 0)
    fb = apply_masked(spec, MASK_ALL, g, X)
    np.testing.assert_allclose(fb[:2], apply_interpolant_coef(spec, g, X[:2]),
                               atol=1e-14)
    np.testing.assert_allclose(fb[2:], apply_interpolant_coef(spec, g, X[2:]),
                               atol=1e-14)


def test_mask_first_zeroes_second_component():
    g = Grid(32)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    X = _random_pair(g, 1)
    fb = apply_masked(spec, MASK_FIRST, g, X)
    assert np.all(fb[1] == 0.0)
    assert np.all(fb[3] == 0.0)
    np.testing.assert_allclose(fb[0], apply_interpolant_coef(spec, g, X[0]),
                               atol=1e-14)
    np.testing.assert_allclose(fb[2], apply_interpolant_coef(spec, g, X[2]),
                               atol=1e-14)


def test_mask_v_only():
    g = Grid(32)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    fb = apply_masked(spec, MASK_V_ONLY, g, _random_pair(g, 2))
    assert np.all(fb[2:] == 0.0)
    assert np.any(fb[:2] != 0.0)


def test_mask_b_only_antisymmetric():
    g = Grid(32)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    X = _random_pair(g, 3)
    fb = apply_masked(spec, MASK_B_ONLY, g, X)
    np.testing.assert_allclose(fb[2:], -fb[:2], atol=1e-14)
    # vanishes identically when eta == zeta (b-difference zero)
    X[2:] = X[:2]
    assert np.max(np.abs(apply_masked(spec, MASK_B_ONLY, g, X))) < 1e-14


def test_mask_u_only_symmetric():
    g = Grid(32)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    fb = apply_masked(spec, MASK_U_ONLY, g, _random_pair(g, 4))
    np.testing.assert_allclose(fb[2:], fb[:2], atol=1e-14)


def _random_streams(g, lead, seed):
    """A (*lead, 2, n, n/2 + 1) stack of random stream function pairs."""
    rng = np.random.default_rng(seed)
    shape = lead + (2, g.n, g.half_width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_masked_in_place_matches_new_array(kind, mask):
    # an explicit group (volume, nodal) writes the feedback of its
    # differences over them, with its scratch: one pair with one gain, and
    # two pairs with two
    g = Grid(32)
    spec = InterpolantSpec(kind, 0.125)
    for lead, mu in (((), 37.0), ((2,), np.array([37.0, 5.0]))):
        X = _random_streams(g, lead, 6)
        want = projected_masked(spec, mask, g, X, mu, np.empty_like(X))
        scratch = np.empty(2 * X.size, dtype=np.complex128)
        got = projected_masked(spec, mask, g, X, mu, X, scratch)
        assert got is X and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("n", [16, 32])
def test_one_pair_with_gains_is_each_gain_alone(n, mask):
    # an implicit group observes one pair, the reference, with the gains of
    # its members: each result is bitwise the call with its gain alone
    g = Grid(n)
    X = _random_streams(g, (), n)
    gains = [37.0, 5.0, 1234.5]
    for h, G in itertools.product((0.25, 0.125), (1, 2, 3)):
        spec = InterpolantSpec(SPECTRAL, h)
        got = projected_masked(spec, mask, g, X, np.array(gains[:G]))
        assert got.shape == (G,) + X.shape
        for mu, feedback in zip(gains, got):
            alone = projected_masked(spec, mask, g, X, mu)
            assert feedback.tobytes() == alone.tobytes()


@pytest.mark.parametrize("mask", [MASK_B_ONLY, MASK_U_ONLY])
def test_b_or_u_observation_allocates_as_all(mask):
    # b = (v - w)/2 and u = (v + w)/2 are written straight into out, so a
    # spectral b-only or u-only call at n = 64 with a given out makes no
    # field-sized temporary and peaks no higher than an `all` call
    g = Grid(64)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    X = _random_streams(g, (), 8)
    mu = np.array([50.0])
    out = np.empty(mu.shape + X.shape, dtype=np.complex128)

    def peak(m):
        projected_masked(spec, m, g, X, mu, out)  # builds the cached tables
        tracemalloc.start()
        try:
            projected_masked(spec, m, g, X, mu, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(mask) <= peak(MASK_ALL) + 512


def test_unknown_mask_rejected():
    g = Grid(32)
    spec = InterpolantSpec(SPECTRAL, 0.125)
    with pytest.raises(ValueError):
        apply_masked(spec, "everything", g, _random_pair(g, 5))

