"""Error metrics, exponential-rate fitting, and sufficiency thresholds.

The threshold calculator implements the per-theorem sufficient conditions
on the gain mu and the observation resolution h as exact formulas in the
Grashof number G.  The analysis constants they contain are not pinned by
theory; the values below are declared placeholders, fixed, and always
reported alongside any computed threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ElsasserParams, Trajectory

NORM_FLOOR = 1e-14
# decay_window_fit ends its segment where the series falls to DECAY_DROP * peak
DECAY_DROP = 1e-6
# check_int_bound needs this many samples in every window
MIN_SAMPLES_PER_WINDOW = 8

THM_ALL = "thm-all"
THM_FIRST = "thm-first"
THM_V = "thm-v"
THM_H1_ALL = "thm-h1-all"
THM_H1_FIRST = "thm-h1-first"
THM_H1_V = "thm-h1-v"
THM_T2_FIRST = "thm-t2-first"
THEOREM_IDS = (THM_ALL, THM_FIRST, THM_V, THM_H1_ALL, THM_H1_FIRST,
               THM_H1_V, THM_T2_FIRST)

_H1_IDS = (THM_H1_ALL, THM_H1_FIRST, THM_H1_V)


# ---------------------------------------------------------------------------
# error series


@dataclass
class ErrorSeries:
    times: np.ndarray
    l2_eta: np.ndarray
    l2_zeta: np.ndarray
    h1_eta: np.ndarray
    h1_zeta: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def l2_total(self) -> np.ndarray:
        return np.sqrt(self.l2_eta ** 2 + self.l2_zeta ** 2)

    def h1_total(self) -> np.ndarray:
        return np.sqrt(self.h1_eta ** 2 + self.h1_zeta ** 2)

    def save_csv(self, path):
        _write_csv(path, "t,l2_eta,l2_zeta,h1_eta,h1_zeta",
                   np.column_stack([self.times, self.l2_eta, self.l2_zeta,
                                    self.h1_eta, self.h1_zeta]))


def _csv_text(header: str, rows) -> str:
    """The text of a CSV file: the header line, then one line per row with
    each value written as repr(float), which round-trips exactly."""
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(path, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv(path, header: str, rows):
    _write_text(path, _csv_text(header, rows))


# ---------------------------------------------------------------------------
# rate fitting


def _log_linear_fit(t: np.ndarray, v: np.ndarray):
    """Least-squares line through (t, ln v): returns (rate, r_squared) with
    rate = -slope, so positive means decay."""
    y = np.log(v)
    slope, intercept = np.polyfit(t, y, 1)
    pred = slope * t + intercept
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot
    return -float(slope), r2


def fit_exponential_rate(times: np.ndarray, values: np.ndarray):
    """Least-squares slope of ln(values) over the trailing half, from
    sample len // 2 on.

    Returns (rate, r_squared) with rate = -slope, so positive means decay.
    """
    start = len(times) // 2
    t = np.asarray(times[start:], dtype=float)
    v = np.maximum(np.asarray(values[start:], dtype=float), NORM_FLOOR)
    if len(t) < 10:
        raise ValueError(f"rate fit needs >= 10 samples in window, got {len(t)}")
    return _log_linear_fit(t, v)


def decay_window_fit(times: np.ndarray, values: np.ndarray):
    """Log-linear fit over the decaying segment from the peak down to
    peak * DECAY_DROP (or to NORM_FLOOR, whichever is higher).

    Returns a dict with the achieved decay magnitude (in orders of ten),
    the fitted rate and R^2 over the segment, and whether the requested
    drop was reached.
    """
    values = np.maximum(np.asarray(values, dtype=float), NORM_FLOOR)
    i0 = int(np.argmax(values))
    peak = values[i0]
    target = max(peak * DECAY_DROP, NORM_FLOOR)
    below = np.nonzero(values[i0:] <= target)[0]
    reached = len(below) > 0
    i1 = i0 + int(below[0]) if reached else len(values) - 1
    if i1 - i0 >= 2:
        rate, r2 = _log_linear_fit(times[i0:i1 + 1], values[i0:i1 + 1])
    else:
        rate, r2 = 0.0, 0.0
    terminal = values[-1]
    return {
        "peak": float(peak),
        "terminal": float(terminal),
        "orders_of_decay": float(np.log10(peak / max(terminal, NORM_FLOOR))),
        "reached_drop": bool(reached),
        "rate": rate,
        "r_squared": r2,
        "onset_time": float(times[i0]),
    }


# ---------------------------------------------------------------------------
# analysis constants and theorem thresholds


# Unquantified analysis constants, fixed at declared values: c_L is the
# Ladyzhenskaya constant, c_B/c_T the Brezis-Gallouet-type constants, c_M
# the H2 a-priori constant; c, C and the two log-offset constants follow
# from them by their stated definitions.
_C_L = (2.0 * np.pi) ** -0.5
_C_B = _C_T = _C_M = 1.0
_C_TILDE = np.log(250.0 * (_C_B + _C_T) ** 2 * (20.0 * np.pi ** 2 + _C_M)) / 8.0
ANALYSIS_CONSTANTS = {
    "c_L": _C_L, "c_B": _C_B, "c_T": _C_T, "c_M": _C_M,
    "c": max(_C_L / 4.0, 1.5 * _C_B), "C": (81.0 / 4.0) * _C_L ** 8,
    "c_tilde_first": _C_TILDE, "c_tilde_t2": _C_TILDE,
}


@dataclass
class TheoremThresholds:
    theorem_id: str
    G: float
    mu_min: float
    h_max: float
    constants_used: dict

    def __post_init__(self):
        # mu_min = inf, h_max = 0 is a regime no gain or resolution satisfies
        if not (self.mu_min >= 0 and self.h_max >= 0):
            raise ValueError("thresholds must be nonnegative and not NaN")


def theorem_thresholds(theorem_id: str, G: float, params: ElsasserParams,
                       c1: float | None = None, c2: float | None = None,
                       c3: float | None = None) -> TheoremThresholds:
    """Sufficient (mu_min, h_max) per theorem at ANALYSIS_CONSTANTS; h_max
    is evaluated at the gain mu = mu_min.

    A type-2 mu_min beyond float range is inf, with h_max = 0: nothing
    satisfies it.  An interpolant constant of 0 (c1, or both c2 and c3)
    gives h_max = inf, since the interpolant inequality then holds at
    every h."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if G < 0:
        raise ValueError("G must be nonnegative")
    k = ANALYSIS_CONSTANTS
    nub = params.nu_bar
    used = dict(k)
    used["G"] = G
    if theorem_id == THM_T2_FIRST:
        if c2 is None or c3 is None:
            raise ValueError("type-2 thresholds need interpolant constants c2, c3")
        used["c2"], used["c3"] = c2, c3
    else:
        if c1 is None:
            raise ValueError("type-1 thresholds need interpolant constant c1")
        used["c1"] = c1

    if G == 0.0:
        return TheoremThresholds(theorem_id, G, 0.0, np.inf, used)

    if theorem_id in (THM_ALL, THM_H1_ALL):
        mu_min = np.pi ** 2 * (k["c_L"] ** 4 + nub ** 4) * G ** 2 / nub
    elif theorem_id in (THM_FIRST, THM_H1_FIRST):
        mu_min = (32.0 * np.pi ** 2 * k["c"] ** 2 * nub
                  * (k["c_tilde_first"] + 2.0 * np.log(G) + k["C"] * G ** 4)
                  * G ** 2)
    elif theorem_id in (THM_V, THM_H1_V):
        mu_min = (np.pi ** 2 * k["c_L"] ** 4 * G ** 2
                  * (4.0 + nub ** 2 * G ** 2) ** 2 / (16.0 * nub))
    else:  # THM_T2_FIRST; past G ~ 12.9 it overflows to inf
        with np.errstate(over="ignore"):
            mu_min = (2000.0 * (k["c_B"] + k["c_T"]) ** 2
                      * (20.0 * np.pi ** 2 + k["c_M"]) * G ** 2
                      * (1.0 + G ** 2) ** 3 * np.exp(2.0 * k["C"] * G ** 4)
                      * (k["c_tilde_t2"] + np.log(1.0 + G) + k["C"] * G ** 4))
    mu_min = float(max(mu_min, 0.0))
    c = max(c2 ** 2, c3) if theorem_id == THM_T2_FIRST else c1
    if mu_min <= 0 or c == 0:
        h_max = np.inf
    elif theorem_id == THM_T2_FIRST:
        h_max = float(np.sqrt(nub / (2.0 * mu_min * c)))
    elif theorem_id in _H1_IDS:
        h_max = float((2.0 * np.sqrt(2.0) * c1) ** -1 * nub ** 0.5 * mu_min ** -0.5)
    else:
        h_max = float(c1 ** -1 * nub ** 0.5 * mu_min ** -0.5)
    return TheoremThresholds(theorem_id, G, mu_min, h_max, used)


# ---------------------------------------------------------------------------
# Gronwall-condition and a-priori-bound checks


def _window_integrals(times: np.ndarray, values: np.ndarray, T: float):
    """Trapezoidal integrals of a sampled function over [t_i, t_i + T] for
    every sample time t_i whose window ends by the last sample, and the
    number of samples in each window."""
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    dt = np.diff(times)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * dt)])
    ends = times + T
    ends = ends[ends <= times[-1] + 1e-12]  # a prefix, as the times increase
    counts = np.searchsorted(times, ends + 1e-12) - np.arange(len(ends))
    return np.interp(ends, times, cum) - cum[:len(ends)], counts


def gronwall_condition_check(times: np.ndarray, psi: np.ndarray, T: float):
    """Empirical proxies for the generalized-Gronwall hypotheses.

    Windowed averages over length T; the liminf proxy is the minimum window
    average of psi, the limsup proxy the maximum window average of
    psi^- = max(0, -psi).
    """
    times = np.asarray(times, float)
    if times[-1] - times[0] < 3.0 * T:
        raise ValueError("run must span at least 3 window lengths")
    ints, _ = _window_integrals(times, np.asarray(psi, float), T)
    neg_ints, _ = _window_integrals(times, np.maximum(0.0, -np.asarray(psi, float)), T)
    min_avg = float(np.min(ints) / T)
    max_neg_avg = float(np.max(neg_ints) / T)
    return {
        "T": T,
        "min_window_average": min_avg,
        "max_window_average_negative_part": max_neg_avg,
        "liminf_condition": min_avg > 0.0,
        "limsup_condition": bool(np.isfinite(max_neg_avg)),
    }


def check_int_bound(traj: Trajectory, G: float, params: ElsasserParams):
    """Verify the time-averaged enstrophy bound

        int_t^{t+T} (|grad v|^2 + |grad w|^2) <= (1 + T pi^2 nub) nub G^2

    with T = 1/(pi^2 nub), over every window start, via trapezoidal
    quadrature.  Returns the worst margin (bound - integral); pass means
    worst margin >= -1e-10.  Raises ValueError when the trajectory is
    shorter than T or a window holds fewer than MIN_SAMPLES_PER_WINDOW
    samples.

    The bound is a long-time estimate: it holds for trajectories inside the
    absorbing ball, such as a spun-up reference, and a solution started
    with large energy can exceed it in its first windows.
    """
    nub = params.nu_bar
    T = params.window
    H = traj.enstrophy()
    ints, counts = _window_integrals(traj.times, H, T)
    if len(ints) == 0:
        raise ValueError(
            f"horizon {traj.times[-1] - traj.times[0]:.3g} is shorter than "
            f"the window T = {T:.3g}")
    if counts.min() < MIN_SAMPLES_PER_WINDOW:
        raise ValueError(f"need >= {MIN_SAMPLES_PER_WINDOW} samples per "
                         f"window of length {T:.3g}")
    bound = (1.0 + T * np.pi ** 2 * nub) * nub * G ** 2
    margins = bound - ints
    worst = float(np.min(margins))
    return {
        "T": T,
        "bound": float(bound),
        "worst_margin": worst,
        "worst_window_start": float(traj.times[int(np.argmin(margins))]),
        "passed": worst >= -1e-10,
    }
