import warnings

import numpy as np
import pytest

from mhdnudge.diagnostics import (
    THM_ALL,
    THM_FIRST,
    THM_H1_ALL,
    THM_H1_FIRST,
    THM_H1_V,
    THM_T2_FIRST,
    THM_V,
    ANALYSIS_CONSTANTS,
    ErrorSeries,
    TheoremThresholds,
    _window_integrals,
    check_int_bound,
    decay_window_fit,
    fit_exponential_rate,
    gronwall_condition_check,
    theorem_thresholds,
)
from mhdnudge.dynamics import Trajectory, derive_elsasser_params


# ---------------------------------------------------------------------------
# error series


def test_error_series_requires_increasing_times():
    with pytest.raises(ValueError):
        ErrorSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3),
                    np.zeros(3), np.zeros(3))


def test_error_series_totals():
    es = ErrorSeries(np.array([0.0, 1.0]), np.array([3.0, 0.0]),
                     np.array([4.0, 0.0]), np.array([1.0, 0.0]),
                     np.array([0.0, 0.0]))
    assert es.l2_total()[0] == pytest.approx(5.0)
    assert es.h1_total()[0] == pytest.approx(1.0)


def test_error_series_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    es = ErrorSeries(np.arange(5, dtype=float), rng.random(5), rng.random(5),
                     rng.random(5), rng.random(5))
    path = tmp_path / "errors.csv"
    es.save_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back[:, 0], es.times)
    np.testing.assert_array_equal(back[:, 1], es.l2_eta)
    np.testing.assert_array_equal(back[:, 4], es.h1_zeta)
    header = path.read_text().splitlines()[0]
    assert header == "t,l2_eta,l2_zeta,h1_eta,h1_zeta"


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_exponential_rate_exact():
    t = np.linspace(0.0, 2.0, 201)
    v = 5.0 * np.exp(-3.0 * t)
    rate, r2 = fit_exponential_rate(t, v)
    assert rate == pytest.approx(3.0, abs=1e-6)
    assert r2 > 0.999999


def test_fit_exponential_rate_growth_is_negative():
    t = np.linspace(0.0, 2.0, 101)
    rate, _ = fit_exponential_rate(t, np.exp(2.0 * t))
    assert rate == pytest.approx(-2.0, abs=1e-6)


def test_fit_rate_needs_samples():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        fit_exponential_rate(t, np.exp(-t))


def test_onset_time():
    # decay begins at the series maximum
    t = np.linspace(0.0, 1.0, 11)
    v = np.concatenate([np.arange(4.0), 3.0 * np.exp(-np.arange(7.0))])
    assert decay_window_fit(t, v)["onset_time"] == pytest.approx(0.3)


def test_decay_window_fit_synthetic():
    t = np.linspace(0.0, 10.0, 1001)
    v = np.where(t < 1.0, 0.1 + 0.9 * t, np.exp(-4.0 * (t - 1.0)))
    fit = decay_window_fit(t, v)
    assert fit["onset_time"] == pytest.approx(1.0, abs=0.02)
    assert fit["reached_drop"]
    assert fit["rate"] == pytest.approx(4.0, rel=1e-3)
    assert fit["r_squared"] > 0.9999
    assert fit["orders_of_decay"] >= 6.0


def test_decay_window_fit_floor():
    t = np.linspace(0.0, 1.0, 11)
    fit = decay_window_fit(t, np.zeros(11))
    assert fit["peak"] == pytest.approx(1e-14)
    assert fit["orders_of_decay"] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# threshold calculator


@pytest.fixture(scope="module")
def p52():
    return derive_elsasser_params(5.0, 5.0)  # nu_bar = 0.2


def test_thm_all_hand_value(p52):
    # mu_min = pi^2 (c_L^4 + nub^4) G^2 / nub with c_L^4 = 1/(4 pi^2)
    th = theorem_thresholds(THM_ALL, 1.0, p52, c1=0.1)
    expected = (0.25 + 0.0016 * np.pi ** 2) / 0.2
    assert th.mu_min == pytest.approx(expected, rel=1e-12)
    assert th.h_max == pytest.approx(10.0 * np.sqrt(0.2 / expected), rel=1e-12)


def test_thm_all_g_squared_homogeneity(p52):
    t1 = theorem_thresholds(THM_ALL, 1.0, p52, c1=0.1)
    t2 = theorem_thresholds(THM_ALL, 2.0, p52, c1=0.1)
    assert t2.mu_min / t1.mu_min == pytest.approx(4.0, rel=1e-12)


def test_h1_variant_tightens_h_by_2sqrt2(p52):
    for l2_id, h1_id in ((THM_ALL, THM_H1_ALL), (THM_FIRST, THM_H1_FIRST),
                         (THM_V, THM_H1_V)):
        a = theorem_thresholds(l2_id, 1.5, p52, c1=0.1)
        b = theorem_thresholds(h1_id, 1.5, p52, c1=0.1)
        assert a.mu_min == pytest.approx(b.mu_min, rel=1e-12)
        assert a.h_max / b.h_max == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_thm_v_hand_value(p52):
    # pi^2 c_L^4 G^2 (4 + nub^2 G^2)^2 / (16 nub) at G = 1
    th = theorem_thresholds(THM_V, 1.0, p52, c1=0.1)
    expected = 0.25 * (4.0 + 0.04) ** 2 / (16.0 * 0.2)
    assert th.mu_min == pytest.approx(expected, rel=1e-12)


def test_thm_first_hand_value(p52):
    # 32 pi^2 c^2 nub (c_tilde + 2 ln G + C G^4) G^2 with c = 1.5,
    # C = 81/(64 pi^4), c_tilde = ln(1000 (20 pi^2 + 1))/8
    G = 2.0
    C = 81.0 / (64.0 * np.pi ** 4)
    ct = np.log(1000.0 * (20.0 * np.pi ** 2 + 1.0)) / 8.0
    expected = 32.0 * np.pi ** 2 * 2.25 * 0.2 * (ct + 2.0 * np.log(G)
                                                 + C * G ** 4) * G ** 2
    th = theorem_thresholds(THM_FIRST, G, p52, c1=0.1)
    assert th.mu_min == pytest.approx(expected, rel=1e-12)


def test_t2_hand_value(p52):
    # 2000 (c_B+c_T)^2 (20 pi^2 + c_M) G^2 (1+G^2)^3 e^(2 C G^4)
    #   * (c_tilde + ln(1+G) + C G^4)
    G = 1.0
    C = 81.0 / (64.0 * np.pi ** 4)
    ct = np.log(1000.0 * (20.0 * np.pi ** 2 + 1.0)) / 8.0
    expected = (2000.0 * 4.0 * (20.0 * np.pi ** 2 + 1.0) * 8.0
                * np.exp(2.0 * C) * (ct + np.log(2.0) + C))
    th = theorem_thresholds(THM_T2_FIRST, G, p52, c2=0.2, c3=0.3)
    assert th.mu_min == pytest.approx(expected, rel=1e-12)
    # h^2 < nub / (2 mu max(c2^2, c3))
    assert th.h_max == pytest.approx(
        np.sqrt(0.2 / (2.0 * expected * 0.3)), rel=1e-12)


def test_zero_grashof_trivial_thresholds(p52):
    th = theorem_thresholds(THM_ALL, 0.0, p52, c1=0.1)
    assert th.mu_min == 0.0
    assert th.h_max == np.inf


def test_thresholds_monotone_in_g(p52):
    for tid in (THM_ALL, THM_FIRST, THM_V, THM_T2_FIRST):
        kw = {"c2": 0.2, "c3": 0.3} if tid == THM_T2_FIRST else {"c1": 0.1}
        mus = [theorem_thresholds(tid, G, p52, **kw).mu_min
               for G in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(mus, mus[1:]))
        hs = [theorem_thresholds(tid, G, p52, **kw).h_max
              for G in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(hs, hs[1:]))


def test_t2_overflow_is_unsatisfiable(p52):
    # at G = 162 (a nodal Kolmogorov run at Re = Rm = 20) e^(2 C G^4) is far
    # beyond float range: no gain and no resolution satisfy the theorem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        th = theorem_thresholds(THM_T2_FIRST, 162.0, p52, c2=0.0, c3=0.04)
    assert th.mu_min == np.inf
    assert th.h_max == 0.0


def test_zero_interpolant_constant_admits_every_h(p52):
    # c1 = 0 (spectral with 1/h past the dealiasing cutoff) or c2 = c3 = 0:
    # the interpolant inequality holds at every h
    for tid in (THM_ALL, THM_H1_ALL, THM_FIRST, THM_V):
        th = theorem_thresholds(tid, 10.0, p52, c1=0.0)
        assert th.mu_min > 0 and th.h_max == np.inf
    th = theorem_thresholds(THM_T2_FIRST, 1.0, p52, c2=0.0, c3=0.0)
    assert th.mu_min > 0 and th.h_max == np.inf


@pytest.mark.parametrize("mu_min, h_max", [(-1.0, 1.0), (1.0, -1.0),
                                           (np.nan, 1.0), (1.0, np.nan)])
def test_negative_or_nan_thresholds_rejected(mu_min, h_max):
    with pytest.raises(ValueError, match="nonnegative and not NaN"):
        TheoremThresholds(THM_ALL, 1.0, mu_min, h_max, {})


def test_threshold_argument_validation(p52):
    with pytest.raises(ValueError):
        theorem_thresholds("thm-unknown", 1.0, p52, c1=0.1)
    with pytest.raises(ValueError):
        theorem_thresholds(THM_ALL, -1.0, p52, c1=0.1)
    with pytest.raises(ValueError):
        theorem_thresholds(THM_ALL, 1.0, p52)  # missing c1
    with pytest.raises(ValueError):
        theorem_thresholds(THM_T2_FIRST, 1.0, p52, c1=0.1)  # missing c2/c3


def test_constants_reported(p52):
    th = theorem_thresholds(THM_ALL, 1.0, p52, c1=0.1)
    assert th.constants_used["c1"] == 0.1
    assert th.constants_used["G"] == 1.0
    assert th.constants_used["c_L"] == pytest.approx((2.0 * np.pi) ** -0.5)


def test_resolved_derived_constants():
    r = ANALYSIS_CONSTANTS
    assert r["c"] == pytest.approx(1.5)  # max(c_L/4, 1.5 c_B) with c_B = 1
    assert r["C"] == pytest.approx(81.0 / (64.0 * np.pi ** 4))


# ---------------------------------------------------------------------------
# windowed checks


def _flat_trajectory(h_const, t_end=2.0, dt=0.01, forcing_sq=0.0):
    times = np.arange(0.0, t_end + dt / 2, dt)
    n = len(times)
    return Trajectory(times, np.zeros(n), np.zeros(n),
                      np.full(n, np.sqrt(h_const)), np.zeros(n),
                      np.full(n, forcing_sq))


def _window_integrals_loop(times, values, T):
    """The per-window loop that _window_integrals replaces: trapezoidal
    cumulative integral, one np.interp and one np.searchsorted per start."""
    dt = np.diff(times)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * dt)])
    out, counts = [], []
    for i, t0 in enumerate(times):
        t1 = t0 + T
        if t1 > times[-1] + 1e-12:
            break
        counts.append(np.searchsorted(times, t1 + 1e-12) - i)
        out.append(np.interp(t1, times, cum) - cum[i])
    return np.array(out), np.array(counts)


@pytest.mark.parametrize("seed", range(5))
def test_window_integrals_match_loop(seed):
    rng = np.random.default_rng(seed)
    # irregular steps of k/1024, so windows of T = 300/1024 end exactly on
    # a sample wherever the steps add up to it
    times = np.cumsum(rng.integers(1, 20, 500)) / 1024.0
    values = rng.standard_normal(500)
    for T in (300 / 1024.0, 0.7301, times[-1] - times[0]):
        ints, counts = _window_integrals(times, values, T)
        ref_ints, ref_counts = _window_integrals_loop(times, values, T)
        assert len(ints) > 0
        assert ints.tobytes() == ref_ints.tobytes()
        assert counts.tolist() == ref_counts.tolist()
    ends = times + 300 / 1024.0
    assert np.isin(ends, times).sum() > 10


def test_check_int_bound_pass_and_fail(p52):
    # T = 1/(pi^2 nub), bound = 2 nub G^2; integral of constant H is H*T
    nub = 0.2
    T = 1.0 / (np.pi ** 2 * nub)
    G = 3.0
    bound = 2.0 * nub * G ** 2
    ok = check_int_bound(_flat_trajectory(0.5 * bound / T), G, p52)
    assert ok["passed"]
    assert ok["worst_margin"] == pytest.approx(0.5 * bound, rel=1e-6)
    bad = check_int_bound(_flat_trajectory(2.0 * bound / T), G, p52)
    assert not bad["passed"]
    assert bad["worst_margin"] < 0.0


def test_check_int_bound_needs_enough_samples(p52):
    # T = 0.507 holds 3 samples 0.2 apart, fewer than the 8 required
    traj = _flat_trajectory(1.0, t_end=2.0, dt=0.2)
    with pytest.raises(ValueError, match="need >= 8 samples per window"):
        check_int_bound(traj, 1.0, p52)


def test_check_int_bound_horizon_shorter_than_window(p52):
    # no window of T = 0.507 fits in 0.3, however many samples there are
    traj = _flat_trajectory(1.0, t_end=0.3, dt=0.001)
    with pytest.raises(ValueError, match=r"horizon 0\.3 is shorter than "
                                         r"the window T = 0\.507"):
        check_int_bound(traj, 1.0, p52)


def test_gronwall_condition_check():
    t = np.linspace(0.0, 4.0, 2001)
    psi = 1.0 + np.sin(2.0 * np.pi * t)
    out = gronwall_condition_check(t, psi, T=1.0)
    assert out["liminf_condition"]
    assert out["min_window_average"] == pytest.approx(1.0, rel=1e-4)
    assert out["max_window_average_negative_part"] == pytest.approx(0.0, abs=1e-12)
    bad = gronwall_condition_check(t, -np.ones_like(t), T=1.0)
    assert not bad["liminf_condition"]


def test_gronwall_needs_long_run():
    t = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError):
        gronwall_condition_check(t, np.ones_like(t), T=1.0)
