import math
import pickle
import tracemalloc

import numpy as np
import pytest

from mhdnudge import dynamics, spectral
from mhdnudge.dynamics import (
    AdvectionWork,
    BlowUpError,
    CflError,
    ForcingSpec,
    MhdStepper,
    Modulation,
    Stack,
    advection,
    derive_elsasser_params,
    energy_budget,
    forcing_from_original,
    grashof_number,
    norms,
    spin_up,
    to_elsasser,
)
from mhdnudge.spectral import (
    Grid,
    dealias_coef,
    divergence_defect,
    forward_transform,
    l2_norm,
    leray_project_coef,
    random_divfree_field,
    stream_function,
)

from conftest import (
    advect,
    advected_fields,
    diffusion,
    full_band,
    full_spectrum,
    full_wavenumbers,
    h1_seminorm,
    inner,
    normalized_field,
    record_trajectory,
    state_l2,
    stream,
    vectors,
)


def shear_mode(grid, amplitude=1.0):
    """v = (2 amplitude cos(2 pi x2), 0): single-mode, advection-free; the
    half spectrum holds its mode k = (0, 1), the mirror (0, -1) implied."""
    coef = np.zeros((2, grid.n, grid.half_width), dtype=complex)
    coef[0, 0, 1] = amplitude
    return coef


def zero_forcing(grid):
    z = np.zeros((2, grid.n, grid.half_width), dtype=complex)
    return ForcingSpec(z, z)


# ---------------------------------------------------------------------------
# parameters


def test_derive_elsasser_params():
    p = derive_elsasser_params(5.0, 10.0)
    assert p.alpha == pytest.approx(0.15)
    assert p.beta == pytest.approx(0.05)
    assert p.nu_bar == pytest.approx(0.1)


def test_signed_beta():
    # Re > Rm: beta = (1/Re - 1/Rm)/2 < 0, and nu_bar is still min(1/Re, 1/Rm)
    p = derive_elsasser_params(10.0, 5.0)
    assert p.alpha == pytest.approx(0.15)
    assert p.beta == pytest.approx(-0.05)
    assert p.nu_bar == pytest.approx(0.1)


def test_reynolds_must_be_positive():
    with pytest.raises(ValueError):
        derive_elsasser_params(-1.0, 5.0)


def test_elsasser_round_trip():
    g = Grid(16)
    u = random_divfree_field(g, 1, 2.0, 4)
    b = random_divfree_field(g, 2, 2.0, 4)
    v, w = to_elsasser(u, b)
    u2, b2 = 0.5 * (v + w), 0.5 * (v - w)
    np.testing.assert_allclose(u2, u, atol=1e-14)
    np.testing.assert_allclose(b2, b, atol=1e-14)


def test_elsasser_definition():
    g = Grid(16)
    u = random_divfree_field(g, 1, 2.0, 4)
    b = random_divfree_field(g, 2, 2.0, 4)
    v, w = to_elsasser(u, b)
    np.testing.assert_allclose(v, u + b, atol=1e-15)
    np.testing.assert_allclose(w, u - b, atol=1e-15)


# ---------------------------------------------------------------------------
# forcing and Grashof number


def test_grashof_hand_value():
    g = Grid(16)
    f = normalized_field(g, 0, 2.0)
    z = np.zeros_like(f)
    forcing = ForcingSpec(f, z)
    p = derive_elsasser_params(5.0, 10.0)
    # ||f+g|| = ||f-g|| = 2, so G = max(Re,Rm)^2/pi^2 * 2
    assert grashof_number(forcing, p) == pytest.approx(100.0 / np.pi ** 2 * 2.0)


def test_grashof_with_decaying_modulation():
    g = Grid(16)
    f = normalized_field(g, 0, 2.0)
    z = np.zeros_like(f)
    base = grashof_number(ForcingSpec(f, z), derive_elsasser_params(5.0, 5.0))
    # envelope decays to offset 0.5, which sets the limsup
    mod = Modulation(amplitude=3.0, rate=1.0, offset=0.5)
    forced = ForcingSpec(f, z, mod)
    assert grashof_number(forced, derive_elsasser_params(5.0, 5.0)) == \
        pytest.approx(0.5 * base)


def test_default_modulation_is_exactly_one():
    g = Grid(16)
    f = normalized_field(g, 0, 2.0)
    h = normalized_field(g, 1, 0.5)
    spec = ForcingSpec(f, h)
    for t in (0.0, 0.7, 1e6):
        assert spec.f_coef(t).tobytes() == (f * 1.0).tobytes()
        assert spec.g_coef(t).tobytes() == (h * 1.0).tobytes()
    assert spec.modulation.limsup_abs() == 1.0


def test_modulation_limsup_rate_zero():
    mod = Modulation(amplitude=3.0, rate=0.0, offset=0.5)
    assert mod.limsup_abs() == pytest.approx(3.5)
    assert mod.value(100.0) == pytest.approx(3.5)


def test_forcing_from_original():
    g = Grid(16)
    f1 = random_divfree_field(g, 3, 2.0, 4)
    g1 = random_divfree_field(g, 4, 2.0, 4)
    spec = forcing_from_original(f1, g1)
    np.testing.assert_allclose(spec.f, f1 + g1, atol=1e-15)
    np.testing.assert_allclose(spec.g, f1 - g1, atol=1e-15)


# ---------------------------------------------------------------------------
# right-hand side oracles


def advective_form(grid, a, b):
    """Reference (a.grad)b in advective form: six inverse transforms of a and
    of the gradient of b, the products a_j d_j b_i, 2/3 dealiasing; on full
    (2, n, n) spectra."""
    n2 = grid.n ** 2
    k1, k2 = full_wavenumbers(grid)
    keep = (np.abs(k1) <= grid.cutoff) & (np.abs(k2) <= grid.cutoff)
    ad = a * keep
    bd = b * keep
    fac = 2.0 * np.pi * 1j
    a1 = np.real(np.fft.ifft2(ad[0])) * n2
    a2 = np.real(np.fft.ifft2(ad[1])) * n2
    g1x = np.real(np.fft.ifft2(fac * k1 * bd[0])) * n2
    g1y = np.real(np.fft.ifft2(fac * k2 * bd[0])) * n2
    g2x = np.real(np.fft.ifft2(fac * k1 * bd[1])) * n2
    g2y = np.real(np.fft.ifft2(fac * k2 * bd[1])) * n2
    prod = np.stack([a1 * g1x + a2 * g1y, a1 * g2x + a2 * g2y])
    out = np.fft.fft2(prod) / n2 * keep
    out[:, 0, 0] = 0.0
    return out


def mhd_tendency(grid, params, u, b):
    """Unforced 2D MHD tendency in the original variables, of half spectra:
    P[-(u.grad)u + (b.grad)b + Lap u / Re] and
    P[-(u.grad)b + (b.grad)u + Lap b / Rm]."""
    h = grid.half_width
    lap = -4.0 * np.pi ** 2 * grid.ksq
    fu, fb = full_spectrum(grid, u), full_spectrum(grid, b)
    du = (-advective_form(grid, fu, fu) + advective_form(grid, fb, fb))[..., :h]
    db = (-advective_form(grid, fu, fb) + advective_form(grid, fb, fu))[..., :h]
    du += lap * u / params.Re
    db += lap * b / params.Rm
    return leray_project_coef(grid, du), leray_project_coef(grid, db)


@pytest.mark.parametrize("re, rm", [(5.0, 10.0), (5.0, 5.0), (10.0, 5.0)])
def test_stepper_tendency_matches_mhd(re, rm):
    # the Elsasser system the stepper integrates is the MHD system mapped by
    # to_elsasser, for either sign of 1/Re - 1/Rm
    g = Grid(32)
    p = derive_elsasser_params(re, rm)
    u = random_divfree_field(g, 5, 1.0, g.cutoff)
    b = random_divfree_field(g, 6, 1.0, g.cutoff)
    st = MhdStepper(Stack(g, p, zero_forcing(g), 1e-3, 1))
    st.set_state(*to_elsasser(u, b))
    X = st.X.copy()
    st.advance()
    # the explicit terms of that Euler step, at X
    explicit = st._stack.E[0, 0]
    got = vectors(g, diffusion(g, p, X) + explicit)
    expected = np.concatenate(to_elsasser(*mhd_tendency(g, p, u, b)))
    assert l2_norm(got - expected) <= 1e-13 * l2_norm(expected)


def projected_band(grid, adv):
    """The Leray-projected half spectrum, the columns k2 = 0..n/2, of a full
    (4, n, n) term, or of a (4, n, n/2 + 1) one."""
    pairs = adv[..., : grid.half_width].reshape(2, 2, grid.n, -1)
    return leray_project_coef(grid, pairs).reshape(4, grid.n, -1)


@pytest.mark.parametrize("n", [32, 64])
def test_advection_matches_advective_form(n):
    g = Grid(n)
    v = random_divfree_field(g, 5, 1.0, g.cutoff)
    w = random_divfree_field(g, 6, 1.0, g.cutoff)
    adv, _ = advect(g, stream(g, np.stack([v, w])))
    assert adv.shape == (2, n, g.cutoff + 1)
    adv = vectors(g, full_band(g, adv))
    v, w = full_spectrum(g, v), full_spectrum(g, w)
    expected = projected_band(g, np.concatenate([advective_form(g, w, v),
                                                 advective_form(g, v, w)]))
    assert np.max(np.abs(adv - expected)) <= 1e-13 * np.max(np.abs(expected))


def advection_full_fft(grid, X):
    """Reference advection of a (4, n, n/2 + 1) pair (v, w): the same divergence
    form with a full complex fft2 of the four products, differentiated and
    dealiased on all n x n modes."""
    n2 = grid.n ** 2
    phys = np.fft.irfft2(dealias_coef(grid, X), s=(grid.n, grid.n)) * n2
    v, w = phys[:2], phys[2:]
    P = np.fft.fft2(v[:, None] * w[None, :]) / n2  # P[i, j] = (v_i w_j)^
    k1, k2 = full_wavenumbers(grid)
    fac = 2.0 * np.pi * 1j
    adv = np.empty((4, grid.n, grid.n), dtype=complex)
    adv[:2] = fac * (k1 * P[:, 0] + k2 * P[:, 1])
    adv[2:] = fac * (k1 * P[0] + k2 * P[1])
    adv *= (np.abs(k1) <= grid.cutoff) & (np.abs(k2) <= grid.cutoff)
    adv[:, 0, 0] = 0.0
    speed = max(float(np.max(np.sum(v * v, axis=0))),
                float(np.max(np.sum(w * w, axis=0)))) ** 0.5
    return adv, speed


@pytest.mark.parametrize("n", [16, 48])
def test_advection_matches_full_fft(n):
    # n=48 puts the cutoff at exactly n/3; the state has energy on every
    # mode, so the input dealiasing is exercised too
    g = Grid(n)
    X = random_stack(g, 1, n)[0]
    adv, speed = advect(g, X)
    full, expected_speed = advection_full_fft(g, vectors(g, X))
    expected = projected_band(g, full)
    adv = vectors(g, full_band(g, adv))
    assert np.max(np.abs(adv - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert speed == expected_speed


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_batched_advection_is_each_system_alone(n, size):
    # one call on a stack gives each slot bitwise its own call's band and
    # speed; the states have energy on every mode, so the input dealiasing
    # is exercised too
    g = Grid(n)
    states = random_stack(g, size, size)
    work = AdvectionWork(g, size)
    bands, speeds = advection(g, states, work)
    assert bands.shape == (size, 2, n, g.cutoff + 1) and len(speeds) == size
    bands = bands.copy()
    for s in range(size):
        band, speed = advect(g, states[s])
        np.testing.assert_array_equal(bands[s], band)
        assert speeds[s] == speed
    # a NaN in the last slot makes only its own speed non-finite
    states[-1, 1, 3, 1] = np.nan
    got, got_speeds = advection(g, states, work)
    assert not math.isfinite(got_speeds[-1])
    np.testing.assert_array_equal(got[:-1], bands[:-1])
    assert got_speeds[:-1] == speeds[:-1]


def random_stack(grid, size, seed):
    """`size` states, stream function pairs drawn from white noise on the
    grid: energy on every mode."""
    rng = np.random.default_rng(seed)
    return np.stack([forward_transform(grid, rng.standard_normal((2, grid.n, grid.n)))[0]
                     for _ in range(size)])


@pytest.mark.parametrize("n", [16, 48, 64])
@pytest.mark.parametrize("size", [1, 3])
def test_advection_band_is_projected_and_dealiased(n, size):
    # every slot's band is zero past the cutoff and at k = 0, and is the
    # stream functions of the Leray projection of the full-FFT oracle on its
    # state, which has energy on every mode (at n = 48 the cutoff is n/3,
    # where the advective form aliases differently)
    g = Grid(n)
    states = random_stack(g, size, n + size)
    bands, _ = advect(g, states)
    for band, psi in zip(full_band(g, bands), states):
        assert not band[:, ~g.dealias_mask].any() and not band[:, 0, 0].any()
        full, _ = advection_full_fft(g, vectors(g, psi))
        expected = stream_function(g, full[:, :, : g.half_width].reshape(2, 2, n, -1))
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(band - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [32, 48])
def test_advection_band_is_zero_past_the_cutoff(n):
    # the band holds the columns 0..cutoff, as the advection is zero past
    # them: noise in a state's columns past the cutoff, and noise left in
    # every buffer of a reused AdvectionWork, leave each slot bitwise the
    # lone call on the state without that noise
    g = Grid(n)
    c = g.cutoff + 1
    rng = np.random.default_rng(n)
    clean = random_stack(g, 3, n)
    clean[..., c:] = 0.0
    noisy = clean.copy()
    noisy[..., c:] = 1e3 * rng.standard_normal(noisy[..., c:].shape)
    work = AdvectionWork(g, 3)
    for buf in vars(work).values():
        if buf.flags.writeable:  # all but the velocity table
            buf.view(np.float64)[...] = 1e3 * rng.standard_normal(
                buf.view(np.float64).shape)
    bands, speeds = advection(g, noisy, work)
    assert bands.shape == (3, 2, n, c)
    for s in range(3):
        band, speed = advect(g, clean[s])
        np.testing.assert_array_equal(bands[s], band)
        assert speeds[s] == speed


def test_advection_makes_three_forward_transforms_per_system(monkeypatch):
    # the 1-D FFT passes of one call on S systems: the inverse ones on the
    # 4 velocity components of each state, the forward ones on its 3
    # products; and
    # no Leray projection or dealiasing call, since the curl weights do both
    g = Grid(32)
    size = 3
    states = random_stack(g, size, 7)
    planes = dict.fromkeys(("ifft", "irfft", "rfft", "fft"), 0)

    def counted(name, transform):
        def wrapper(a, *args, **kwargs):
            planes[name] += math.prod(np.shape(a)[:-2])
            return transform(a, *args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("advection called a per-mode operator")

    for name in planes:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    for module in (spectral, dynamics):
        for name in ("leray_project_coef", "dealias_coef"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    advect(g, states)
    assert planes == {"ifft": 4 * size, "irfft": 4 * size,
                      "rfft": 3 * size, "fft": 3 * size}


def test_advection_skew_symmetry():
    # <(a.grad)b, b> = 0 discretely for divergence-free a and band-limited b
    g = Grid(32)
    a = random_divfree_field(g, 5, 1.0, g.cutoff)
    b = random_divfree_field(g, 6, 1.0, g.cutoff)
    adv, _ = advect(g, stream(g, np.stack([b, a])))
    # P[(w.grad)v] with v = b, w = a; P is self-adjoint and P b = b
    adv = full_spectrum(g, vectors(g, full_band(g, adv))[:2])
    ip = np.real(np.sum(np.conj(adv) * full_spectrum(g, b)))
    scale = np.sqrt(np.sum(np.abs(adv) ** 2)) * l2_norm(b)
    assert abs(ip) < 1e-12 * max(scale, 1e-300)


@pytest.mark.parametrize("n", [32, 48, 64])
@pytest.mark.parametrize("size", [1, 3])
def test_advection_keeps_the_elsasser_invariants(n, size):
    # the truncated nonlinear terms N_v = P[(w.grad)v] and N_w = P[(v.grad)w]
    # are orthogonal to v and to w, and N_a = (psi of N_v - N_w)/2 to the
    # magnetic potential a = (psi_v - psi_w)/2: ||v||^2, ||w||^2 and ||a||^2
    # are invariants of the band-limited nonlinear part, and only a v != w
    # shows how the two Elsasser equations couple
    g = Grid(n)
    V = np.stack([np.concatenate([random_divfree_field(g, 10 * s + 1, 1.0, g.cutoff),
                                  random_divfree_field(g, 10 * s + 2, 1.0, g.cutoff)])
                  for s in range(size)])
    for X, N in zip(V, advected_fields(g, V)):
        v, w = X[:2], X[2:]
        a, Na = stream(g, (v - w) / 2), stream(g, (N[:2] - N[2:]) / 2)
        assert l2_norm(v - w) > 0.1 * l2_norm(v)
        for x, y in ((v, N[:2]), (w, N[2:]), (a, Na)):
            scale = math.sqrt(inner(x, x) * inner(y, y))
            assert scale > 0.0
            assert abs(inner(x, y)) <= 1e-14 * scale


def test_advection_of_shear_flow_vanishes():
    g = Grid(32)
    c = shear_mode(g)
    adv, speed = advect(g, stream(g, np.stack([c, c])))
    assert np.max(np.abs(adv)) < 1e-15
    assert speed == pytest.approx(2.0, rel=1e-14)


def test_stokes_steady_state_is_fixed_point():
    # f = g = shear forcing; v = w = f/(4 pi^2 alpha) is an exact steady state
    g = Grid(32)
    p = derive_elsasser_params(5.0, 5.0)
    fc = shear_mode(g, amplitude=0.3)
    st = MhdStepper(Stack(g, p, ForcingSpec(fc, fc), 2e-3, 1))
    vc = fc / (4.0 * np.pi ** 2 * p.alpha)
    st.set_state(vc, vc)
    X0 = st.X.copy()
    for _ in range(20):
        st.advance()
    assert np.max(np.abs(st.X - X0)) <= 1e-14


# ---------------------------------------------------------------------------
# time stepping


def test_crank_nicolson_single_mode_factor():
    g = Grid(32)
    p = derive_elsasser_params(5.0, 5.0)  # beta = 0
    dt = 5e-3
    st = MhdStepper(Stack(g, p, zero_forcing(g), dt, 1))
    c = shear_mode(g)
    st.set_state(c, np.zeros_like(c))
    st.advance()
    kappa = 4.0 * np.pi ** 2 * p.alpha  # |k|^2 = 1
    expected = (1.0 - 0.5 * dt * kappa) / (1.0 + 0.5 * dt * kappa)
    v, w = st.fields()
    assert v[0, 0, 1] == pytest.approx(expected * c[0, 0, 1], rel=1e-13)
    # w stays exactly zero when beta = 0
    assert np.max(np.abs(w)) == 0.0


def test_crank_nicolson_beta_coupling():
    # with beta > 0 the v+-w characteristics decay with alpha +- beta
    g = Grid(32)
    p = derive_elsasser_params(5.0, 20.0)
    assert p.beta > 0
    dt = 5e-3
    st = MhdStepper(Stack(g, p, zero_forcing(g), dt, 1))
    c = shear_mode(g)
    st.set_state(c, np.zeros_like(c))
    st.advance()
    kp = 4.0 * np.pi ** 2 * (p.alpha + p.beta)
    km = 4.0 * np.pi ** 2 * (p.alpha - p.beta)
    fp = (1.0 - 0.5 * dt * kp) / (1.0 + 0.5 * dt * kp)
    fm = (1.0 - 0.5 * dt * km) / (1.0 + 0.5 * dt * km)
    # v(0) = c, w(0) = 0 means (v+w)(0) = (v-w)(0) = c
    expect_v = 0.5 * (fp + fm) * c[0, 0, 1]
    expect_w = 0.5 * (fp - fm) * c[0, 0, 1]
    v, w = st.fields()
    assert v[0, 0, 1] == pytest.approx(expect_v, rel=1e-13)
    assert w[0, 0, 1] == pytest.approx(expect_w, rel=1e-13)


def test_temporal_convergence_order(grid32, params, forcing32):
    init = random_divfree_field(grid32, 0, 2.0, 6)
    horizon = 0.25

    def final_state(dt):
        st = MhdStepper(Stack(grid32, params, forcing32, dt, 1))
        st.set_state(init, init)
        for _ in range(int(round(horizon / dt))):
            st.advance()
        return st.X.copy()

    x1 = final_state(4e-3)
    x2 = final_state(2e-3)
    x3 = final_state(1e-3)
    e1 = state_l2(grid32, x1 - x2)
    e2 = state_l2(grid32, x2 - x3)
    order = np.log2(e1 / e2)
    assert order >= 1.9


def test_cfl_violation_raises(grid32, params):
    fld = normalized_field(grid32, 2, 50.0)
    st = MhdStepper(Stack(grid32, params, zero_forcing(grid32), 0.05, 1))
    st.set_state(fld, fld)
    with pytest.raises(CflError):
        st.advance()


def test_stepper_clock_and_counters(grid32, params, forcing32):
    st = MhdStepper(Stack(grid32, params, forcing32, 1e-3, 1))
    init = random_divfree_field(grid32, 1, 2.0)
    st.set_state(init, init)
    for _ in range(5):
        st.advance()
    assert st.t == pytest.approx(5e-3)
    assert st.step_count == 5
    st.restart()
    assert st.t == 0.0
    assert st.step_count == 0


def test_restart_matches_fresh_stepper(grid32, params, forcing32):
    # after restart() the next step is the Euler start-up step of a fresh
    # stepper set to the same state, clock and forcing
    init = random_divfree_field(grid32, 1, 2.0)
    modulated = ForcingSpec(forcing32.f, forcing32.g, Modulation(1.0, 1.0, 1.0))
    st = MhdStepper(Stack(grid32, params, modulated, 1e-3, 1))
    st.set_state(init, init)
    for _ in range(5):
        st.advance()
    st.restart()
    fresh = MhdStepper(Stack(grid32, params, modulated, 1e-3, 1))
    fresh.X[...] = st.X
    st.advance()
    fresh.advance()
    assert np.array_equal(st.X, fresh.X)
    assert st.t == fresh.t and st.step_count == fresh.step_count == 1


@pytest.mark.parametrize("n", [16, 48])
def test_state_round_trips_through_the_stream_functions(n):
    # set_state keeps (v, w) as stream functions and fields gives them
    # back, the Nyquist row and column included
    g = Grid(n)
    v, w = vectors(g, random_stack(g, 1, n)[0]).reshape(2, 2, n, -1)
    assert divergence_defect(g, v) <= 1e-14 * l2_norm(v)
    st = MhdStepper(Stack(g, derive_elsasser_params(5.0, 5.0), zero_forcing(g), 1e-3, 1))
    st.set_state(v, w)
    for got, want in zip(st.fields(), (v, w)):
        assert np.count_nonzero(want[:, n // 2]) and np.count_nonzero(want[..., n // 2])
        assert l2_norm(got - want) <= 1e-15 * l2_norm(want)
        for nyquist in (got[:, n // 2] - want[:, n // 2], got[..., n // 2] - want[..., n // 2]):
            assert np.max(np.abs(nyquist)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 128])
def test_advance_allocates_no_array(n):
    # every per-mode table is on the float64 view of the state, and the
    # scaled forcing band is held per slot, so no multiply casts or
    # broadcasts over the slots, and a step of a two-slot stack, a
    # reference and a damped member with its data term, from given bands
    # allocates only small Python objects
    g = Grid(n)
    params = derive_elsasser_params(5.0, 5.0)
    forcing = ForcingSpec(normalized_field(g, 100, 2.0), normalized_field(g, 101, 0.5))
    stack = Stack(g, params, forcing, 1e-3, 2)
    damping = tuple(np.full((n, g.half_width), d) for d in (50.0, 40.0, 5.0))
    ref, member = MhdStepper(stack), MhdStepper(stack, damping)
    for st, seed in ((ref, 1), (member, 2)):
        init = normalized_field(g, seed, 0.5, g.cutoff)
        st.set_state(init, init)
    saved = advection(g, stack.X, stack.work)[0].copy()
    bands = np.empty_like(saved)
    extra = [(1, np.zeros_like(member.X))]

    def step():
        np.copyto(bands, saved)
        stack.step(slice(0, 2), bands, extra, observe=lambda: extra)

    for _ in range(2):  # the Euler step, then the Adams-Bashforth ones
        step()
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            step()
            assert tracemalloc.get_traced_memory()[1] - before < 8192
    finally:
        tracemalloc.stop()


def test_a_stepper_has_its_stacks_values(grid32, params):
    # the stack steps every slot with its own grid, parameters, forcing and
    # dt, so a stepper holds those very objects, and its ||f||^2 + ||g||^2
    # is the stack's, computed once, times the squared envelope
    forcing = ForcingSpec(normalized_field(grid32, 100, 2.0),
                          normalized_field(grid32, 101, 0.5),
                          Modulation(0.5, 2.0, 1.0))
    stack = Stack(grid32, params, forcing, 2e-3, 2)
    stack.t = 0.3
    for st in (MhdStepper(stack), MhdStepper(stack)):
        assert st.grid is stack.grid and st.params is stack.params
        assert st.dt is stack.dt and st.forcing is forcing
        want = (l2_norm(forcing.f) ** 2 + l2_norm(forcing.g) ** 2) \
            * forcing.modulation.value(0.3) ** 2
        assert st.forcing_sq() == want


def test_a_full_stack_refuses_a_stepper(grid32, params, forcing32):
    # a stepper past the last slot is refused before it changes anything
    stack = Stack(grid32, params, forcing32, 2e-3, 1)
    MhdStepper(stack)
    tables = [t.copy() for t in stack.inverse]
    with pytest.raises(ValueError, match="no free slot"):
        MhdStepper(stack)
    assert stack.free == 1
    for before, after in zip(tables, stack.inverse):
        np.testing.assert_array_equal(after, before)


def test_reorder_leaves_a_free_slot_alone():
    # two systems on a stack of three swap their states, bands, inverse
    # tables and both explicit terms, each stepper's view follows its
    # state, and the free slot 2 keeps what it holds
    g = Grid(16)
    stack = Stack(g, derive_elsasser_params(5.0, 5.0), zero_forcing(g), 1e-3, 3)
    a, b = MhdStepper(stack), MhdStepper(stack)
    rng = np.random.default_rng(0)
    arrays = [stack.X, stack.work.band, *stack.inverse]
    for x in arrays + [stack.E]:
        x.view(np.float64)[...] = rng.standard_normal(x.view(np.float64).shape)
    before = [x.copy() for x in arrays]
    E = stack.E.copy()
    stack.reorder([b, a])
    for x, was in zip(arrays, before):
        np.testing.assert_array_equal(x, was[[1, 0, 2]])
    np.testing.assert_array_equal(stack.E, E[:, [1, 0, 2]])
    assert np.shares_memory(b.X, stack.X[0]) and np.shares_memory(a.X, stack.X[1])


def test_full_spectrum_arrays_rejected(grid32, params, forcing32):
    # (2, n, n) arrays of the full layout are refused, not sliced
    full = np.zeros((2, 32, 32), dtype=complex)
    st = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    with pytest.raises(ValueError, match=r"must be \(2, 32, 17\) half spectra, "
                                         r"got an array of shape \(2, 32, 32\)"):
        st.set_state(full, full)
    with pytest.raises(ValueError, match=r"must be \(2, 32, 17\) half spectra"):
        MhdStepper(Stack(grid32, params, ForcingSpec(full, full), 2e-3, 1))
    with pytest.raises(ValueError, match=r"must be \(2, 32, 17\) half spectra"):
        MhdStepper(Stack(grid32, params, ForcingSpec(forcing32.f, full), 2e-3, 1))


def test_non_finite_state_fails_the_next_advance(grid32, params, forcing32):
    # the CFL speed is the one finiteness test: a NaN in one w coefficient
    # fails the very next advance, at the current clock and step
    st = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    init = random_divfree_field(grid32, 1, 2.0)
    st.set_state(init, init)
    for _ in range(7):
        st.advance()
    st.X[1, 3, 1] = np.nan
    with pytest.raises(BlowUpError) as info:
        st.advance()
    assert info.value.t == pytest.approx(0.014) and info.value.step == 7
    assert st.step_count == 7


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_inputs_rejected(grid32, params, forcing32, value):
    bad = forcing32.g.copy()
    bad[1, 2, 3] = value
    st = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    with pytest.raises(ValueError, match=r"the state \(v, w\) must be finite"):
        st.set_state(forcing32.f, bad)
    with pytest.raises(ValueError, match=r"forcing \(f, g\) must be finite"):
        MhdStepper(Stack(grid32, params, ForcingSpec(forcing32.f, bad), 2e-3, 1))


def test_blow_up_text_ends_at_the_step():
    assert str(BlowUpError(0.206, 103)) == "non-finite state at t=0.206 (step 103)"


def test_errors_round_trip_through_pickle():
    for exc in (CflError(0.05, 1.2e-3), BlowUpError(0.206, 103)):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


# ---------------------------------------------------------------------------
# trajectory, energy budget, spin-up


def test_norms_match_field_norms(grid32):
    v = random_divfree_field(grid32, 1, 2.0)
    w = random_divfree_field(grid32, 2, 2.0)
    got = norms(grid32, stream(grid32, np.stack([v, w])))
    want = (l2_norm(v), l2_norm(w), h1_seminorm(grid32, v),
            h1_seminorm(grid32, w))
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_norms_parseval_weights_on_half_spectrum():
    # real noise has energy on every column, column 0 and the Nyquist
    # column n/2 included, which count once; the others count twice, and
    # on the Nyquist row; the cached table must weigh them all as the
    # full spectrum and the Parseval sums of conftest do
    for n in (16, 48):
        g = Grid(n)
        psi = random_stack(g, 1, 7)[0]
        assert np.count_nonzero(psi[..., 0]) == 2 * (n - 1)  # all but k = 0
        assert np.count_nonzero(psi[..., n // 2]) == 2 * n
        assert np.count_nonzero(psi[:, n // 2]) == 2 * g.half_width
        X = vectors(g, psi)
        full = full_spectrum(g, X)
        k1, k2 = full_wavenumbers(g)
        a = (np.abs(full) ** 2).reshape(2, 2, -1).sum(axis=1)
        want = (*np.sqrt(a.sum(axis=1)),
                *(2 * np.pi * np.sqrt(a @ (k1 ** 2 + k2 ** 2).ravel())))
        np.testing.assert_allclose(norms(g, psi), want, rtol=1e-14)
        parseval = (l2_norm(X[:2]), l2_norm(X[2:]), h1_seminorm(g, X[:2]),
                    h1_seminorm(g, X[2:]))
        np.testing.assert_allclose(norms(g, psi), parseval, rtol=1e-14)


def test_record_trajectory_shapes(grid32, params, forcing32):
    st = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    init = random_divfree_field(grid32, 1, 2.0)
    st.set_state(init, init)
    traj = record_trajectory(st, 50)
    assert len(traj.times) == 51
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)
    nf, ng = l2_norm(forcing32.f), l2_norm(forcing32.g)
    assert traj.forcing_sq[0] == pytest.approx(nf ** 2 + ng ** 2)


def test_energy_budget_holds_on_run(grid32, params, forcing32):
    st = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    init = random_divfree_field(grid32, 1, 2.0)
    st.set_state(init, init)
    traj = record_trajectory(st, 500)
    residuals, flags = energy_budget(traj, params)
    assert not flags.any()
    assert residuals.max() <= 1e-6 * max(1.0, traj.forcing_sq.max())


def test_energy_budget_flags_synthetic_violation(params):
    from mhdnudge.dynamics import Trajectory
    times = np.linspace(0.0, 1.0, 11)
    # constant norms with zero forcing violate dE/dt + nub H <= 0
    traj = Trajectory(times, np.ones(11), np.ones(11), np.ones(11),
                      np.ones(11), np.zeros(11))
    _, flags = energy_budget(traj, params)
    assert flags.all()


def test_spin_up_resets_clock(grid32, params, forcing32):
    st = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    init = random_divfree_field(grid32, 1, 2.0)
    st.set_state(init, init)
    spun = spin_up(st, tol=0.05, max_time=10.0)
    assert spun.time > 0.0
    assert spun.converged
    assert st.t == 0.0


@pytest.mark.parametrize("max_time", [0.0, -1.0])
def test_spin_up_runs_one_window_at_nonpositive_max_time(grid32, params,
                                                         forcing32, max_time):
    dt = 2e-3
    st = MhdStepper(Stack(grid32, params, forcing32, dt, 1))
    init = random_divfree_field(grid32, 1, 2.0)
    st.set_state(init, init)
    start = st.X.copy()
    spun = spin_up(st, tol=0.05, max_time=max_time)
    assert spun.time == round(params.window / dt) * dt
    assert spun.converged is False
    assert st.t == 0.0
    assert not np.array_equal(st.X, start)


def test_spin_up_reports_not_converged(grid32, params, forcing32):
    # settling needs two windows; max_time below that stops after one
    st = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    init = random_divfree_field(grid32, 1, 2.0)
    st.set_state(init, init)
    T = 1.0 / (np.pi ** 2 * params.nu_bar)
    spun = spin_up(st, tol=0.05, max_time=0.5 * T)
    assert spun.converged is False
    assert spun.time == pytest.approx(T, rel=0.01)
    assert st.t == 0.0
