import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from mhdnudge import dynamics, interpolants, nudging, spectral
from mhdnudge.dynamics import (
    BlowUpError,
    ForcingSpec,
    MhdStepper,
    Modulation,
    Stack,
    _implicit_solve,
    advection,
    derive_elsasser_params,
    norms,
    spin_up,
)
from mhdnudge.interpolants import (
    MASK_ALL,
    MASK_B_ONLY,
    MASK_FIRST,
    MASK_U_ONLY,
    MASK_V_ONLY,
    NODAL,
    SPECTRAL,
    VOLUME,
    InterpolantSpec,
    projected_masked,
)
from mhdnudge.nudging import (
    ConfigError,
    CoupledStepper,
    NudgingConfig,
    nudging_term,
    run_assimilation,
)
from mhdnudge.spectral import Grid, divergence_defect, l2_norm

from conftest import (
    diffusion,
    normalized_field,
    nudging_oracle,
    state_l2,
    stream,
    vectors,
)


def spec_config(mu=20.0, mask=MASK_ALL, kind=SPECTRAL, h=0.125, **kw):
    return NudgingConfig(mu, InterpolantSpec(kind, h), mask, **kw)


def seeded_init(grid, seed=0, amplitude=1.0):
    return normalized_field(grid, seed, amplitude)


def decaying_pair(f, g, amplitude, rate):
    """(f, g) scaled by amplitude * exp(-rate t)."""
    return ForcingSpec(f, g, Modulation(amplitude, rate, 0.0))


def seeded_diff(grid):
    """The (2, n, n/2 + 1) stream functions of a difference (eta, zeta) of
    two seeded states."""
    return stream(grid, np.stack([seeded_init(grid, 0) - seeded_init(grid, 2),
                                  seeded_init(grid, 1) - seeded_init(grid, 3)]))


ALL_MASKS = (MASK_ALL, MASK_FIRST, MASK_V_ONLY, MASK_B_ONLY, MASK_U_ONLY)


def test_config_validation():
    with pytest.raises(ValueError):
        spec_config(mu=-1.0)


@pytest.mark.parametrize("kind", [VOLUME, NODAL])
def test_unknown_mask_is_refused_when_configured(kind):
    # a config checks its own mask, so an explicit member with an unknown
    # one is refused when it is built, not on its first coupled step
    with pytest.raises(ConfigError, match="unknown mask 'bogus'"):
        NudgingConfig(10.0, InterpolantSpec(kind, 0.25), "bogus")


@pytest.mark.parametrize("kind", [VOLUME, NODAL])
def test_indivisible_grid_is_refused_when_a_member_is_built(
        grid32, params, forcing32, monkeypatch, kind):
    # 1/h = 5 does not divide n = 32: the member is refused when it is
    # built, before any spin-up advance, not on its first coupled step
    message = "1/h=5 must divide the grid size n=32"
    config = spec_config(mu=50.0, kind=kind, h=0.2)
    with pytest.raises(ValueError, match=message):
        CoupledStepper(grid32, params, forcing32, config, 2e-3)
    advances = []
    advance = MhdStepper.advance

    def counted(self, *args, **kw):
        advances.append(self)
        return advance(self, *args, **kw)

    monkeypatch.setattr(MhdStepper, "advance", counted)
    init = seeded_init(grid32, 0, 0.5)
    with pytest.raises(ValueError, match=message):
        run_assimilation(grid32, params, forcing32, config, init, init.copy(),
                         2e-3, 0.04, spinup_max_time=1.0)
    assert advances == []


def short_run(grid, params, forcing, init_mode):
    """A 20-step run after a short spin-up, sampling every step."""
    init = seeded_init(grid, 0, 0.5)
    return run_assimilation(grid, params, forcing, spec_config(), init,
                            init.copy(), 2e-3, 0.04, spinup_max_time=0.5,
                            sample_every=1, init_mode=init_mode)


def test_init_modes(grid32, params, forcing32):
    # the first error row is the spun-up reference minus the initial state
    init = seeded_init(grid32, 0, 0.5)
    ref = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    ref.set_state(init, init)
    spin_up(ref, max_time=0.5)
    custom = seeded_init(grid32, seed=5)
    pair = stream(grid32, np.stack([custom, custom]))
    for init_mode, expected in (("zero", norms(grid32, ref.X)),
                                ("copy", (0.0, 0.0, 0.0, 0.0)),
                                ((custom, custom.copy()), norms(grid32, ref.X - pair))):
        e = short_run(grid32, params, forcing32, init_mode).errors[0]
        assert (e.l2_eta[0], e.l2_zeta[0], e.h1_eta[0], e.h1_zeta[0]) == expected


def no_divfree_field():
    bad = np.zeros((2, 32, 17), dtype=complex)
    bad[0, 1, 0] = 1.0  # k.c != 0 at k=(1,0)
    return bad


@pytest.fixture
def no_spin_up(monkeypatch):
    def fail(*args, **kw):
        pytest.fail("spin_up ran before the initial fields were checked")

    monkeypatch.setattr(nudging, "spin_up", fail)


def test_init_rejects_non_divfree(grid32, params, forcing32, no_spin_up):
    # the caller's pair is checked before any time goes into spin-up
    bad = no_divfree_field()
    with pytest.raises(ValueError, match=r"^the state \(v, w\): v is not divergence-free"):
        short_run(grid32, params, forcing32, (bad, bad))


def test_reference_init_rejects_non_divfree(grid32, params, forcing32,
                                            no_spin_up):
    # the reference's initial state is checked the same way
    init = seeded_init(grid32, 0, 0.5)
    with pytest.raises(ValueError, match=r"^the state \(v, w\): v is not divergence-free"):
        run_assimilation(grid32, params, forcing32, spec_config(),
                         init + no_divfree_field(), init, 2e-3, 0.04,
                         spinup_max_time=0.5)


def test_unknown_init_mode_is_refused_before_spin_up(grid32, params, forcing32,
                                                     no_spin_up):
    # "random" is a config word, which the scenario turns into a (v, w) pair
    with pytest.raises(ValueError, match=r"'random' is not \"zero\", \"copy\" or \(v, w\)"):
        short_run(grid32, params, forcing32, "random")


@pytest.mark.parametrize("bad", ["v", "w"])
def test_set_state_refuses_a_divergent_field(grid32, params, forcing32, bad):
    # set_state is the one gate for a state: on a lone stepper and on a
    # member alike it names the divergent field and changes nothing, the
    # stepped clock included
    good = seeded_init(grid32, 0, 0.5)
    pair = {"v": good, "w": good, bad: good + no_divfree_field()}
    coupled = CoupledStepper(grid32, params, forcing32, spec_config(), 2e-3)
    lone = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    for stepper in (lone, coupled.members[0]):
        stepper.set_state(good, seeded_init(grid32, 1, 0.5))
        for _ in range(3):
            stepper.advance()
        before, clock = stepper.X.copy(), (stepper.t, stepper.step_count)
        with pytest.raises(ValueError, match=rf"^the state \(v, w\): {bad} is not "
                                             r"divergence-free$"):
            stepper.set_state(pair["v"], pair["w"])
        np.testing.assert_array_equal(stepper.X, before)
        assert (stepper.t, stepper.step_count) == clock == (3 * 2e-3, 3)
    assert not coupled.reference.X.any()


def test_the_gate_tolerance_is_1e_10_of_the_norm(grid32, params, forcing32):
    # good has norm 0.5, and max |k . c_k| of bad is 1
    good, bad = seeded_init(grid32, 0, 0.5), no_divfree_field()
    stepper = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    stepper.set_state(good, good + 2e-11 * bad)
    with pytest.raises(ValueError, match="w is not divergence-free"):
        stepper.set_state(good, good + 1e-10 * bad)


def test_a_copy_of_the_spun_up_reference_passes_the_gate(grid32, params, forcing32):
    # the steps keep a state divergence-free, so a copy member passes the
    # gate that a divergent state fails
    coupled = CoupledStepper(grid32, params, forcing32, spec_config(), 2e-3)
    ref, member = coupled.reference, coupled.members[0]
    init = seeded_init(grid32, 0, 0.5)
    ref.set_state(init, init)
    spin_up(ref, max_time=0.5)
    v, w = ref.fields()
    member.set_state(v, w)
    np.testing.assert_allclose(member.X, ref.X, rtol=0,
                               atol=1e-15 * np.max(np.abs(ref.X)))
    before = member.X.copy()
    with pytest.raises(ValueError, match="w is not divergence-free"):
        member.set_state(v, w + no_divfree_field())
    np.testing.assert_array_equal(member.X, before)


def test_nudging_term_is_divergence_free(grid32):
    diff = seeded_diff(grid32)
    for mask, h in itertools.product(ALL_MASKS, (0.125, 0.0625)):
        term = vectors(grid32, nudging_term(spec_config(mask=mask, h=h), grid32, diff))
        assert divergence_defect(grid32, term[:2]) < 1e-10
        assert divergence_defect(grid32, term[2:]) < 1e-10


def test_nudging_term_scales_with_mu(grid32):
    diff = seeded_diff(grid32)
    t1 = nudging_term(spec_config(mu=10.0), grid32, diff)
    t2 = nudging_term(spec_config(mu=30.0), grid32, diff)
    np.testing.assert_allclose(t2, 3.0 * t1, atol=1e-13)


@pytest.mark.parametrize("h", [0.25, 0.125, None])
@pytest.mark.parametrize("n", [16, 32, 48])
@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_nudging_term_is_projected_masked_interpolant(kind, n, h):
    # the cached per-mode tables on stream functions against the vector
    # path mu P[masked I_h (v, w)]; at n = 48 and
    # h = 1/8 the Nyquist row and column lie an odd number of cells out, and
    # h = None stands for h = 1/n, one cell per grid point, where volume and
    # nodal I_h are per mode too
    h = 1.0 / n if h is None else h
    g = Grid(n)
    rng = np.random.default_rng(n)
    shape = (2, n, g.half_width)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for mask in ALL_MASKS:
        cfg = spec_config(mu=37.0, mask=mask, kind=kind, h=h)
        want = nudging_oracle(cfg, g, X)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(vectors(g, nudging_term(cfg, g, X)) - want)) <= 1e-15 * scale


def test_observation_matrix_matches_nudging_term():
    # the implicit operator's per-mode 2x2 damping [[dv, ds], [ds, dw]]
    # against the vector path of the explicit feedback, for every mask,
    # zero where I_h drops a mode and on the Nyquist row and column
    from mhdnudge.nudging import _damping
    for n, mask, h in itertools.product((16, 32), ALL_MASKS, (0.25, 0.125)):
        g = Grid(n)
        rng = np.random.default_rng(n)
        shape = (2, n, g.half_width)
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cfg = spec_config(mu=17.0, mask=mask, h=h)
        dv, dw, ds = _damping(g, cfg)
        applied = np.stack([dv * X[0] + ds * X[1], ds * X[0] + dw * X[1]])
        want = nudging_oracle(cfg, g, X)
        assert np.max(np.abs(vectors(g, applied) - want)) <= 1e-13 * np.max(np.abs(want))
        for d in (dv, dw, ds):
            assert not d[n // 2].any() and not d[:, n // 2].any()


def dense_implicit_operator(grid, params, dt, config=None):
    """I - dt/2 L + dt D on the stream functions as a dense (2 n w, 2 n w)
    matrix, w = n/2 + 1, column by column, with D = nudging_term(config)
    (zero without a config)."""
    shape = (2, grid.n, grid.half_width)
    m = int(np.prod(shape))
    A = np.empty((m, m), dtype=complex)
    for j in range(m):
        e = np.zeros(m, dtype=complex)
        e[j] = 1.0
        e = e.reshape(shape)
        col = e - 0.5 * dt * diffusion(grid, params, e)
        if config is not None:
            col = col + dt * nudging_term(config, grid, e)
        A[:, j] = col.ravel()
    return A


@pytest.mark.parametrize("re, rm", [(5.0, 20.0), (20.0, 5.0), (5.0, 5.0)])
def test_implicit_solve_matches_dense_solve(re, rm):
    # the closed form per mode against a dense solve, for either sign of
    # beta, undamped and with every mask
    g = Grid(16)
    p = derive_elsasser_params(re, rm)
    dt = 5e-3
    rng = np.random.default_rng(3)
    shape = (2, 16, g.half_width)
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z = np.zeros((2, 16, 9), dtype=complex)
    for mask in ALL_MASKS:
        cfg = spec_config(mu=80.0, mask=mask, h=0.25)
        cs = CoupledStepper(g, p, ForcingSpec(z, z), cfg, dt)
        for stepper, config in ((cs.reference, None), (cs.members[0], cfg)):
            want = np.linalg.solve(dense_implicit_operator(g, p, dt, config),
                                   rhs.ravel()).reshape(rhs.shape)
            inverse = (table[stepper._slot] for table in cs._stack.inverse)
            got = _implicit_solve(*inverse, rhs.copy(), out=np.empty_like(rhs))
            assert l2_norm(got - want) <= 1e-13 * l2_norm(want)


def _arrays(stepper):
    """Every array a stepper holds, also inside tuple attributes."""
    for value in vars(stepper).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def test_steppers_hold_no_per_mode_matrix(params):
    # the solve keeps real per-mode tables on the float64 view, each mode's
    # weight twice: per slot, the stack holds the (2, n, n + 2) diagonal and
    # the (n, n + 2) off-diagonal of the inverse; a stepper itself holds only
    # (2, n, n/2 + 1) states, the damped member the same arrays as the
    # reference
    g = Grid(64)
    z = np.zeros((2, 64, 33), dtype=complex)
    cs = CoupledStepper(g, params, ForcingSpec(z, z), spec_config(mu=50.0), 2e-3)
    ref, assim = cs.reference, cs.members[0]
    diag, off = cs._stack.inverse
    assert diag.dtype == off.dtype == np.float64
    assert diag.shape == (2, 2, 64, 66) and off.shape == (2, 64, 66)
    for table in (diag, off):
        assert np.array_equal(table[..., ::2], table[..., 1::2])
    shapes = []
    for stepper in (ref, assim):
        arrays = list(_arrays(stepper))
        for arr in arrays:
            assert arr.shape == (2, 64, 33) and arr.dtype == np.complex128
        shapes.append(sorted(arr.shape for arr in arrays))
    assert shapes[0] == shapes[1]
    # the damping acts on the observed modes: 17 * 9 - 1 = 152 of them for
    # h = 1/8 at n = 64
    assert np.count_nonzero(diag[assim._slot, 0, :, ::2]
                            != diag[ref._slot, 0, :, ::2]) == 152


def test_explicit_kind_requires_mu_dt_bound(grid32, params, forcing32):
    cfg = spec_config(mu=100.0, kind=VOLUME)
    with pytest.raises(ValueError):
        CoupledStepper(grid32, params, forcing32, cfg, dt=0.05)
    CoupledStepper(grid32, params, forcing32, cfg, dt=0.005)


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_synchronized_pair_is_fixed_point(grid32, params, forcing32, kind):
    cfg = spec_config(mu=50.0, kind=kind)
    cs = CoupledStepper(grid32, params, forcing32, cfg, dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    cs.reference.set_state(init, init)
    cs.members[0].set_state(init, init)
    for _ in range(200):
        cs.step()
    err = state_l2(grid32, cs.reference.X - cs.members[0].X)
    assert err <= 1e-12


def test_mu_zero_decouples(grid32, params, forcing32):
    # with mu = 0 the assimilated system is an independent solution
    cfg = spec_config(mu=0.0)
    cs = CoupledStepper(grid32, params, forcing32, cfg, dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    other = seeded_init(grid32, 1, 0.5)
    cs.reference.set_state(init, init)
    cs.members[0].set_state(other, other)
    solo = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    solo.set_state(other, other)
    for _ in range(100):
        cs.step()
        solo.advance()
    np.testing.assert_allclose(cs.members[0].X, solo.X, atol=1e-13)


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_gain_zero_member_is_the_free_stepper(grid32, params, forcing32, kind):
    # a member with gain 0 and no delta takes the free step, bit for bit
    cs = CoupledStepper(grid32, params, forcing32, spec_config(mu=0.0, kind=kind),
                        dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    other = seeded_init(grid32, 1, 0.5)
    cs.reference.set_state(init, init)
    cs.members[0].set_state(other, other)
    solo = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    solo.set_state(other, other)
    for _ in range(200):
        cs.step()
        solo.advance()
    np.testing.assert_array_equal(cs.members[0].X, solo.X)


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME, NODAL])
def test_gain_zero_member_observes_nothing(grid32, params, forcing32, kind,
                                           monkeypatch):
    # a member with gain 0 forms no feedback, so no step observes anything
    cs = CoupledStepper(grid32, params, forcing32, spec_config(mu=0.0, kind=kind),
                        dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    cs.reference.set_state(init, init)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return projected_masked(*args, **kwargs)

    monkeypatch.setattr(nudging, "projected_masked", counted)
    for _ in range(3):
        cs.step()
    assert calls == []
    assert cs.members[0].step_count == 3


def test_each_group_observes_once_per_step(grid32, params, forcing32,
                                           monkeypatch):
    # the feedback of the observing members, explicit or implicit, with or
    # without eps, is one projected_masked call per step for each operator
    # (kind, h, mask) and feedback mode, with the gains of its members in
    # config order; a member with gain 0 observes nothing
    pair = decaying_pair(forcing32.f, forcing32.g, 0.1, 1.0)
    configs = [spec_config(mu=50.0), spec_config(mu=50.0, kind=VOLUME, eps=pair),
               spec_config(mu=0.0, kind=NODAL), spec_config(mu=60.0, kind=NODAL,
                                                             mask=MASK_FIRST),
               spec_config(mu=40.0, mask=MASK_B_ONLY, eps=pair),
               spec_config(mu=70.0, kind=NODAL, mask=MASK_FIRST, eps=pair),
               spec_config(mu=90.0)]
    cs = CoupledStepper(grid32, params, forcing32, configs, dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    cs.reference.set_state(init, init)
    calls = []

    def counted(spec, mask, grid, X, mu, *args):
        calls.append((spec.kind, mask, tuple(mu)))
        return projected_masked(spec, mask, grid, X, mu, *args)

    monkeypatch.setattr(nudging, "projected_masked", counted)
    for _ in range(3):
        cs.step()
    assert sorted(calls) == sorted([
        (SPECTRAL, MASK_ALL, (50.0, 90.0)), (VOLUME, MASK_ALL, (50.0,)),
        (NODAL, MASK_FIRST, (60.0, 70.0)), (SPECTRAL, MASK_B_ONLY, (40.0,))] * 3)
    assert cs.failures == {}


def test_coupled_step_makes_no_projection_or_interpolant_call(
        grid32, params, forcing32, monkeypatch):
    # the feedback of every kind, and delta and eps, come from cached
    # per-mode tables and member buffers: a step calls no Leray projection
    # and no I_h
    pair = decaying_pair(forcing32.f, forcing32.g, 0.1, 1.0)
    configs = [spec_config(mu=50.0, kind=kind, mask=mask, delta=pair, eps=pair)
               for kind, mask in ((SPECTRAL, MASK_ALL), (VOLUME, MASK_FIRST),
                                  (NODAL, MASK_B_ONLY), (NODAL, MASK_FIRST))]
    cs = CoupledStepper(grid32, params, forcing32, configs, dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    cs.reference.set_state(init, init)

    def forbidden(*args, **kwargs):
        raise AssertionError("a coupled step called a per-mode operator")

    for module in (spectral, dynamics, interpolants, nudging):
        for name in ("leray_project_coef", "apply_interpolant_coef",
                     "apply_masked"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for _ in range(3):
        cs.step()
    assert cs.failures == {}
    assert [m.step_count for m in cs.members] == [3] * len(configs)


@pytest.mark.parametrize("kind", [SPECTRAL, VOLUME])
def test_delta_matches_perturbed_forcing(grid32, params, forcing32, kind):
    # with mu = 0 the assimilated system is a solution forced by (f + df, g + dg)
    df, dg = normalized_field(grid32, 9, 0.3), normalized_field(grid32, 10, 0.3)
    cfg = spec_config(mu=0.0, kind=kind, delta=decaying_pair(df, dg, 1.0, 0.0))
    cs = CoupledStepper(grid32, params, forcing32, cfg, dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    other = seeded_init(grid32, 1, 0.5)
    cs.reference.set_state(init, init)
    cs.members[0].set_state(other, other)
    perturbed = ForcingSpec(forcing32.f + df, forcing32.g + dg)
    solo = MhdStepper(Stack(grid32, params, perturbed, 2e-3, 1))
    solo.set_state(other, other)
    for _ in range(100):
        cs.step()
        solo.advance()
    np.testing.assert_allclose(cs.members[0].X, solo.X, rtol=0, atol=1e-13)
    assert np.max(np.abs(cs.members[0].X - cs.reference.X)) > 1e-3


def test_states_stay_divergence_free(grid32, params, forcing32):
    cfg = spec_config(mu=20.0, mask=MASK_FIRST)
    cs = CoupledStepper(grid32, params, forcing32, cfg, dt=2e-3)
    init = seeded_init(grid32, 0, 0.5)
    cs.reference.set_state(init, init)
    for _ in range(100):
        cs.step()
    for stepper in (cs.reference, cs.members[0]):
        for field in stepper.fields():
            assert divergence_defect(grid32, field) < 1e-10


def test_run_assimilation_converges(grid32, params, forcing32):
    init = seeded_init(grid32, 0, 0.5)
    result = run_assimilation(grid32, params, forcing32, spec_config(mu=50.0),
                              init, init.copy(), 2e-3, 4.0,
                              spinup_max_time=4.0, sample_every=5)
    l2 = result.errors[0].l2_total()
    assert l2[0] > 0.0
    assert l2[-1] <= 1e-6 * l2[0]
    assert result.spin_up_time > 0.0
    assert result.spin_up_converged
    # trajectory sampled every step, errors every 5
    assert len(result.reference_trajectory.times) == 2001
    assert len(result.errors[0].times) == 401


def test_observation_error_sets_floor(grid32, params, forcing32):
    # persistent (rate 0) observation noise keeps the error away from zero
    noise = normalized_field(grid32, 9, 1.0)
    zero = np.zeros_like(noise)
    cfg = spec_config(mu=50.0, eps=decaying_pair(noise, zero, 1e-3, 0.0))
    init = seeded_init(grid32, 0, 0.5)
    result = run_assimilation(grid32, params, forcing32, cfg, init, init.copy(),
                              2e-3, 4.0, spinup_max_time=2.0, sample_every=5)
    tail = result.errors[0].l2_total()[-20:]
    assert tail.min() > 1e-5
    assert tail.max() < 1e-1


def test_decaying_perturbations_still_converge(grid32, params, forcing32):
    noise = normalized_field(grid32, 9, 1.0)
    zero = np.zeros_like(noise)
    cfg = spec_config(mu=50.0,
                      delta=decaying_pair(noise, zero, 0.5, 1.0),
                      eps=decaying_pair(noise, zero, 0.5, 1.0))
    init = seeded_init(grid32, 0, 0.5)
    result = run_assimilation(grid32, params, forcing32, cfg, init, init.copy(),
                              2e-3, 12.0, spinup_max_time=2.0, sample_every=5)
    l2 = result.errors[0].l2_total()
    assert l2[-1] <= 1e-3 * l2.max()


def test_members_match_one_member_systems(grid32, params, forcing32):
    # implicit and explicit members, one with a forcing perturbation,
    # advance against one reference exactly as each does in its own pair
    noise = normalized_field(grid32, 9, 0.3)
    configs = [spec_config(mu=50.0),
               spec_config(mu=60.0, kind=NODAL, mask=MASK_FIRST),
               spec_config(mu=100.0, kind=VOLUME,
                           delta=decaying_pair(noise, noise, 0.5, 1.0))]
    init = seeded_init(grid32, 0, 0.5)
    other = seeded_init(grid32, 1, 0.5)
    systems = [CoupledStepper(grid32, params, forcing32, configs, 2e-3)] + [
        CoupledStepper(grid32, params, forcing32, cfg, 2e-3) for cfg in configs]
    for cs in systems:
        cs.reference.set_state(init, init)
        for assim in cs.members:
            assim.set_state(other, other)
    for _ in range(30):
        for cs in systems:
            cs.step()
    shared = systems[0]
    for k, single in enumerate(systems[1:]):
        assert np.array_equal(shared.reference.X, single.reference.X)
        assert np.array_equal(shared.members[k].X, single.members[0].X)


def test_failed_member_is_retired_and_others_go_on(grid32, params, forcing32):
    cfgs = [spec_config(mu=20.0), spec_config(mu=50.0)]
    init = seeded_init(grid32, 0, 0.5)
    cs = CoupledStepper(grid32, params, forcing32, cfgs, 2e-3)
    solo = CoupledStepper(grid32, params, forcing32, cfgs[1], 2e-3)
    for system in (cs, solo):
        system.reference.set_state(init, init)
    cs.members[0].X[...] = np.nan
    for _ in range(60):
        cs.step()
        solo.step()
    assert cs.active() == [1]
    assert isinstance(cs.failures[0], BlowUpError)
    assert np.array_equal(cs.members[1].X, solo.members[0].X)
    # the retired member leaves the batched advection: an inf in its slot
    # would warn in any arithmetic, and its state stays as it is
    cs.members[0].X[...] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(20):
            cs.step()
            solo.step()
    assert np.all(cs.members[0].X == np.inf)
    assert np.array_equal(cs.members[1].X, solo.members[0].X)
    # once no member is left, step raises the error of the last one
    cs.members[1].X[...] = np.nan
    with pytest.raises(BlowUpError):
        for _ in range(60):
            cs.step()
    assert cs.active() == []


def test_retiring_the_last_member_leaves_the_reference(grid32, params,
                                                       forcing32):
    # the step that retires the last member raises before any state
    # changes: the reference keeps its state and its clock
    cs = CoupledStepper(grid32, params, forcing32, spec_config(), 2e-3)
    init = seeded_init(grid32, 0, 0.5)
    cs.reference.set_state(init, init)
    for _ in range(3):
        cs.step()
    cs.members[0].X[1, 2, 3] = np.nan
    ref = cs.reference
    X, clock = ref.X.copy(), (ref.t, ref.step_count)
    with pytest.raises(BlowUpError):
        cs.step()
    assert cs.active() == []
    np.testing.assert_array_equal(ref.X, X)
    assert (ref.t, ref.step_count) == clock


def test_retirement_holds_no_memory(params):
    # a retired member stays in the coupled stepper's one stack, behind the
    # active ones: retiring seven of eight spectral members at n = 64, one
    # per step, builds no stack and no table
    g = Grid(64)
    forcing = ForcingSpec(normalized_field(g, 100, 2.0), normalized_field(g, 101, 0.5))
    configs = [spec_config(mu=10.0 * k) for k in range(1, 9)]
    cs = CoupledStepper(g, params, forcing, configs, 1e-3)
    init = normalized_field(g, 0, 0.5)
    cs.reference.set_state(init, init)
    cs.step()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(7):
            cs.members[k].X[1, 2, 3] = np.nan
            cs.step()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cs.active() == [7]
    assert held < 1_000_000


def test_stack_members_match_one_member_systems(grid32, params, forcing32):
    # one stack with two explicit nodal groups' members, two implicit members
    # that share one observation of the reference, a volume member with a
    # delta and an eps, and a gain-0 member: after 50 steps each member is
    # bitwise its own one-member system
    noise = normalized_field(grid32, 9, 0.3)
    configs = [spec_config(mu=60.0, kind=NODAL, mask=MASK_FIRST),
               spec_config(mu=50.0),
               spec_config(mu=100.0, kind=VOLUME,
                           delta=decaying_pair(noise, noise, 0.5, 1.0),
                           eps=decaying_pair(noise, 0.5 * noise, 0.2, 2.0)),
               spec_config(mu=480.0, kind=NODAL, mask=MASK_FIRST),
               spec_config(mu=0.0, kind=NODAL),
               spec_config(mu=200.0)]
    init = seeded_init(grid32, 0, 0.5)
    others = [seeded_init(grid32, 1 + k, 0.5) for k in range(len(configs))]
    shared = CoupledStepper(grid32, params, forcing32, configs, 2e-3)
    singles = [CoupledStepper(grid32, params, forcing32, cfg, 2e-3)
               for cfg in configs]
    assert [len(g.members) for g in shared._groups] == [2, 2, 1]
    for cs, states in [(shared, others)] + [(cs, [x]) for cs, x in zip(singles, others)]:
        cs.reference.set_state(init, init)
        for assim, other in zip(cs.members, states):
            assim.set_state(other, other)
    for _ in range(50):
        for cs in [shared] + singles:
            cs.step()
    for k, single in enumerate(singles):
        np.testing.assert_array_equal(shared.reference.X, single.reference.X)
        np.testing.assert_array_equal(shared.members[k].X, single.members[0].X)
        assert shared.members[k].t == single.members[0].t
    assert state_l2(grid32, shared.members[4].X - shared.reference.X) > 1e-3


def test_stack_members_follow_the_feedback_formulas(grid32, params, forcing32):
    # each member of a stack is bitwise a lone stepper driven by the
    # feedback as written out here: explicit, mu P[I_h(ref - member)] plus
    # eps at the reference's time, plus delta at the member's, joins the
    # explicit terms; implicit, mu P[I_h ref] of the stepped reference plus
    # eps at its new time is the data term, and delta joins the explicit
    # terms; gain 0, delta alone.  Each oracle steps on the clock of its
    # own stack: an explicit or gain-0 one is that stack's one slot, and an
    # implicit one, built with its damping, is slot 1 of two, whose data
    # term `observe` gives once slot 0 is solved
    from mhdnudge.interpolants import apply_masked
    from mhdnudge.nudging import _damping
    from mhdnudge.spectral import stream_function

    noise = normalized_field(grid32, 9, 0.3)
    delta = decaying_pair(noise, 0.5 * noise, 0.5, 1.0)
    eps = decaying_pair(0.7 * noise, noise, 0.2, 2.0)
    configs = [spec_config(mu=100.0, kind=VOLUME, delta=delta, eps=eps),
               spec_config(mu=50.0, eps=eps, delta=delta),
               spec_config(mu=60.0, kind=NODAL, mask=MASK_FIRST),
               spec_config(mu=0.0, delta=delta),
               spec_config(mu=200.0, eps=eps),
               spec_config(mu=480.0, kind=NODAL, mask=MASK_FIRST, eps=eps)]
    init = seeded_init(grid32, 0, 0.5)
    others = [seeded_init(grid32, 1 + k, 0.5) for k in range(len(configs))]
    cs = CoupledStepper(grid32, params, forcing32, configs, 2e-3)
    ref = MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1))
    lone = []
    for cfg in configs:
        if cfg.mu > 0 and cfg.interpolant.kind == SPECTRAL:
            stack = Stack(grid32, params, forcing32, 2e-3, 2)
            MhdStepper(stack)
            lone.append(MhdStepper(stack, _damping(grid32, cfg)))
        else:
            lone.append(MhdStepper(Stack(grid32, params, forcing32, 2e-3, 1)))
    for a, b in [(cs.reference, init), (ref, init)] + list(zip(cs.members, others)) \
            + list(zip(lone, others)):
        a.set_state(b, b)

    def stream(pair):
        return stream_function(grid32, np.stack([pair.f, pair.g]))

    def eps_term(cfg):
        pair = np.stack([cfg.eps.f, cfg.eps.g])
        observed = apply_masked(cfg.interpolant, cfg.mask, grid32,
                                pair.reshape(4, 32, -1))
        return cfg.mu * stream_function(grid32, observed.reshape(pair.shape))

    def lone_step(st, term, plain):
        stack, k = st._stack, st._slot
        bands, _ = advection(grid32, stack.X, stack.work)
        stack.step(slice(0, len(stack.X)), bands,
                   [] if term is None else [(k, term)],
                   None if plain is None else lambda: [(k, plain)])

    for _ in range(30):
        cs.step()
        ab = []
        for cfg, st in zip(configs, lone):
            term = None
            if cfg.mu > 0 and cfg.interpolant.kind != SPECTRAL:
                term = nudging_term(cfg, grid32, ref.X - st.X)
                if cfg.eps is not None:
                    term += cfg.eps.modulation.value(ref.t) * eps_term(cfg)
            if cfg.delta is not None:
                d = cfg.delta.modulation.value(st.t) * stream(cfg.delta)
                term = d if term is None else term + d
            ab.append(term)
        ref.advance()
        for cfg, st, term in zip(configs, lone, ab):
            plain = None
            if cfg.mu > 0 and cfg.interpolant.kind == SPECTRAL:
                plain = nudging_term(cfg, grid32, ref.X)
                if cfg.eps is not None:
                    plain += cfg.eps.modulation.value(ref.t) * eps_term(cfg)
            lone_step(st, term, plain)
    np.testing.assert_array_equal(cs.reference.X, ref.X)
    for member, st in zip(cs.members, lone):
        np.testing.assert_array_equal(member.X, st.X)


def test_a_retired_group_member_leaves_the_others_bitwise(grid32, params,
                                                          forcing32):
    # two explicit members share one observation operator; once one fails,
    # the other goes on bitwise as in its one-member system, and the failed
    # one's state stays as it was
    configs = [spec_config(mu=mu, kind=NODAL, mask=MASK_FIRST) for mu in (60.0, 480.0)]
    init = seeded_init(grid32, 0, 0.5)
    cs = CoupledStepper(grid32, params, forcing32, configs, 2e-3)
    solo = CoupledStepper(grid32, params, forcing32, configs[1], 2e-3)
    for system in (cs, solo):
        system.reference.set_state(init, init)
    for _ in range(20):
        cs.step()
        solo.step()
    cs.members[0].X[1, 2, 3] = np.nan
    spoiled = cs.members[0].X.copy()
    for _ in range(20):
        cs.step()
        solo.step()
    assert cs.active() == [1] and isinstance(cs.failures[0], BlowUpError)
    assert cs.failures[0].step == 20
    assert [len(g.members) for g in cs._groups] == [1]
    np.testing.assert_array_equal(cs.members[0].X, spoiled)
    np.testing.assert_array_equal(cs.members[1].X, solo.members[0].X)
    np.testing.assert_array_equal(cs.reference.X, solo.reference.X)


def test_group_feedback_allocates_less_than_one_member_did(params):
    # the pre products of a group's fold go to a scratch the group owns:
    # one feedback call for two nodal first members at n = 64 allocates
    # less than one member's call did when it allocated them (136,904 B)
    g = Grid(64)
    z = np.zeros((2, 64, 33), dtype=complex)
    configs = [spec_config(mu=mu, kind=NODAL, mask=MASK_FIRST) for mu in (60.0, 480.0)]
    (group,) = CoupledStepper(g, params, ForcingSpec(z, z), configs, 2e-3)._groups
    rng = np.random.default_rng(2)
    X = rng.standard_normal((2, 2, 64, 33)) + 1j * rng.standard_normal((2, 2, 64, 33))
    group.observe(g, X, 0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group.observe(g, X, 0.0)
        assert tracemalloc.get_traced_memory()[1] - before < 136_904
    finally:
        tracemalloc.stop()


def test_the_members_read_the_reference_clock(grid32, params, forcing32):
    # the stack keeps the one clock: the members read the reference's time
    # and step count, through its spin-up and its lone steps, and a restart
    # of any stepper restarts them all
    cs = CoupledStepper(grid32, params, forcing32,
                        [spec_config(), spec_config(mu=0.0)], 2e-3)
    ref, steppers = cs.reference, [cs.reference, *cs.members]
    init = seeded_init(grid32, 0, 0.5)
    ref.set_state(init, init)
    for _ in range(3):
        cs.step()
    spin_up(ref, max_time=0.1)
    ref.advance()
    assert (ref.t, ref.step_count) == (2e-3, 1)
    for member in cs.members:
        assert (member.t, member.step_count) == (ref.t, ref.step_count)
    for stepper in steppers:
        for _ in range(2):
            cs.step()
        assert ref.step_count >= 2
        stepper.restart()
        assert [(s.t, s.step_count) for s in steppers] == [(0.0, 0)] * 3


@pytest.mark.parametrize("spoil", [False, True])
def test_a_step_calls_advection_once(grid32, params, forcing32, monkeypatch,
                                     spoil):
    # one advection call gives every band of a step; a member that retires
    # takes its band behind the active ones, with its state, and the others
    # step from theirs
    configs = [spec_config(mu=mu, kind=NODAL, mask=MASK_FIRST) for mu in (60.0, 480.0)]
    cs = CoupledStepper(grid32, params, forcing32, configs, 2e-3)
    init = seeded_init(grid32, 0, 0.5)
    cs.reference.set_state(init, init)
    cs.step()
    calls = []

    def counted(*args):
        calls.append(args)
        return advection(*args)

    monkeypatch.setattr(nudging, "advection", counted)
    if spoil:
        cs.members[0].X[1, 2, 3] = np.nan
    cs.step()
    assert len(calls) == 1
    assert cs.active() == ([1] if spoil else [0, 1])


@pytest.mark.parametrize("name", ["delta", "eps"])
def test_member_refuses_a_non_finite_pair(grid32, params, forcing32, name):
    bad = ForcingSpec(forcing32.f, np.full_like(forcing32.g, np.nan),
                      Modulation(1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match=rf"{name} \(f, g\) must be finite"):
        CoupledStepper(grid32, params, forcing32, spec_config(**{name: bad}), 2e-3)
