"""Output checks, computed apart from the program.

Each check returns a list of failure messages, empty when the output passes.
The checks restate what the construction guarantees (the skeleton identity,
the clock slopes, the exit rule, the exit-time law) with the benchmark's
own arithmetic, so a program change that breaks an output shows here even
when the program's own diagnostics agree with it. Statistical thresholds
are loose enough that a correct change of draw order passes them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

# The uniform01 jump law: first and second moments of U(0, 1).
M1, M2 = 0.5, 1.0 / 3.0
# The grid step is mean_step / GRID_DIVISOR at the command line's default.
GRID_DIVISOR = 1000
# Continuity correction of a barrier scan, -zeta(1/2) / sqrt(2 pi) (Broadie,
# Glasserman & Kou 1997); scipy's zeta is defined only above 1.
ZETA_HALF = -1.4603545088095868
SCAN_SHIFT = -ZETA_HALF / math.sqrt(2.0 * math.pi)
KS_MIN_P = 1e-6
MOMENT_SE = 6.0
CHUNK = 1 << 21


def normalizer(n: int, k: float) -> float:
    return math.sqrt(float(n) ** -k * M2 / M1)


def grid_step(n: int, k: float) -> float:
    return float(n) ** -k * M1 / GRID_DIVISOR


# -- rate campaigns ----------------------------------------------------------


def read_summary(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def check_rate_summary(summary: dict, n_grid, reps: int, decreasing: bool) -> list[str]:
    """Campaign summary: complete, every rung, the worst-case diagnostics within
    their contracts, the calibrated exceedance at the first rung, and (on a
    ladder) medians that fall from rung to rung."""
    bad = []
    if summary.get("complete") != "true":
        bad.append(f"complete={summary.get('complete')}")
    medians, exceed = [], []
    for n in n_grid:
        try:
            medians.append(float(summary[f"median_J_n{n}"]))
            exceed.append(float(summary[f"exceedance_n{n}"]))
        except (KeyError, ValueError):
            bad.append(f"rung n={n} missing from the summary")
    limits = (("max_bound_gap", 0.0), ("max_skeleton_err", 1e-12), ("max_slope_err", 1e-10))
    for key, limit in limits:
        try:
            value = float(summary[key])
        except (KeyError, ValueError):
            bad.append(f"{key} missing")
            continue
        if not value <= limit:
            bad.append(f"{key}={value!r} above {limit!r}")
    if len(medians) != len(n_grid):
        return bad
    if decreasing and any(b >= a for a, b in zip(medians, medians[1:])):
        bad.append(f"medians not strictly decreasing: {medians}")
    # alpha is calibrated so the first rung's median sits on the threshold, so
    # at most half the sups exceed it and at most one tie at the median
    # (odd reps) falls below half.
    if not 0.5 - 1.0 / reps <= exceed[0] <= 0.5:
        bad.append(f"exceedance at n={n_grid[0]} is {exceed[0]!r}, outside [0.5 - 1/reps, 0.5]")
    return bad


def _horizon_index(h: float) -> int:
    i = int(1.0 / h)
    while i * h > 1.0:
        i -= 1
    return i


def grid_sup(path_times, skeleton, walk, h) -> float:
    """max |X(t) - W(t)| over grid times t <= 1, X the linear interpolation of
    (transport clock, skeleton) and W the walk."""
    last = min(_horizon_index(h), len(walk) - 1)
    best = 0.0
    for lo in range(0, last + 1, CHUNK):
        idx = np.arange(lo, min(lo + CHUNK, last + 1))
        x = np.interp(idx * h, path_times, skeleton)
        best = max(best, float(np.abs(x - walk[idx]).max()))
    return best


def check_grid_realization(real, reported_sup: float, n: int, k: float) -> list[str]:
    """One rebuilt grid realization against the construction.

    The sup recomputed here equals the reported one to 1e-12; every skeleton
    step moves by its level, every transport step lasts normalizer * level;
    every detected exit is the first walk point past level - SCAN_SHIFT *
    sqrt(h), on the side of the skeleton step.
    """
    bad = []
    h = grid_step(n, k)
    walk = real.grid.values
    if real.grid.step != h:
        bad.append(f"grid step {real.grid.step!r}, expected {h!r}")
    own = grid_sup(real.path_times, real.skeleton, walk, h)
    if not abs(own - reported_sup) <= 1e-12:
        bad.append(f"sup {reported_sup!r} differs from the recomputed {own!r}")

    levels = np.asarray(real.levels)
    d_skel = np.diff(real.skeleton)
    if not np.all(np.abs(np.abs(d_skel) - levels) <= 1e-12):
        bad.append("a skeleton step differs from its level")
    if not np.all(np.abs(np.diff(real.path_times) - normalizer(n, k) * levels) <= 1e-12):
        bad.append("a transport-clock step differs from normalizer * level")

    bm = np.asarray(real.bm_index, dtype=np.int64)
    if np.any(np.diff(bm) < 1):
        return bad + ["Brownian clock index not strictly increasing"]
    barrier = levels - SCAN_SHIFT * math.sqrt(h)
    move = walk[bm[1:]] - walk[bm[:-1]]
    if not np.all(np.abs(move) >= barrier - 1e-12):
        bad.append("a detected exit does not reach the scan barrier")
    if not np.all(np.sign(move) == np.sign(d_skel)):
        bad.append("a skeleton step has the opposite sign of its walk exit")
    if _earlier_exit(walk, bm, barrier):
        bad.append("a walk point before a detected exit already passes the barrier")
    return bad


def _earlier_exit(walk, bm, barrier) -> bool:
    """True when some walk point strictly between a step's start and its
    detected exit already sits at least the barrier away from the start."""
    m, steps = 0, len(bm) - 1
    while m < steps:
        hi = int(np.searchsorted(bm, bm[m] + CHUNK, side="right")) - 1
        hi = min(max(hi, m + 1), steps)
        starts = bm[m:hi]
        lengths = np.diff(bm[m : hi + 1])
        dev = np.abs(walk[bm[m] : bm[hi]] - np.repeat(walk[starts], lengths))
        dev[starts - bm[m]] = -np.inf  # the start itself is not a candidate
        if np.any(np.maximum.reduceat(dev, starts - bm[m]) >= barrier[m:hi] + 1e-12):
            return True
        m = hi
    return False


# -- exact couplings -------------------------------------------------------


def unit_exit_cdf(t) -> np.ndarray:
    """P(tau <= t) for the exit time tau of standard Brownian motion from [-1, 1].

    Image series 2 * sum_k (-1)**k * erfc((2k+1) / sqrt(2t)) below t = 0.1,
    spectral series 1 - (4/pi) * sum_j (-1)**j / (2j+1) * exp(-(2j+1)**2 pi**2 t / 8)
    above; both truncated far past double precision.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    small = (t > 0) & (t < 0.1)
    large = t >= 0.1
    ts = t[small]
    out[small] = 2.0 * sum((-1) ** j * special.erfc((2 * j + 1) / np.sqrt(2.0 * ts)) for j in range(8))
    tl = t[large]
    survival = sum(
        (-1) ** j * 4.0 / (math.pi * (2 * j + 1)) * np.exp(-((2 * j + 1) ** 2) * math.pi**2 * tl / 8.0)
        for j in range(24)
    )
    out[large] = 1.0 - survival
    return out


def read_realization_csv(path) -> tuple[dict, np.ndarray]:
    """Header config and the m,Gamma,Lambda,skeleton_value rows."""
    config = {}
    skip = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            skip += 1
            if line.startswith("# config "):
                config = dict(item.split("=", 1) for item in line[9:].split())
            if not line.startswith("#"):
                if line.strip() != "m,Gamma,Lambda,skeleton_value":
                    raise ValueError(f"unexpected column header {line.strip()!r}")
                break
    rows = np.loadtxt(path, delimiter=",", comments=None, skiprows=skip, ndmin=2)
    return config, rows


def check_realization_file(path, n: int, k: float, seed: int, steps_printed: int) -> list[str]:
    """One exact-engine realization.csv, from the file alone, and the steps=
    count its command printed."""
    try:
        config, rows = read_realization_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    return check_exact_csv(config, rows, n, k, seed, steps_printed)


def check_exact_csv(config: dict, rows: np.ndarray, n: int, k: float, seed: int, steps_printed: int) -> list[str]:
    bad = []
    want = {"n": str(n), "engine": "exact", "seed": str(seed), "law": "uniform01"}
    for key, value in want.items():
        if config.get(key) != value:
            bad.append(f"header {key}={config.get(key)}, expected {value}")
    if rows.ndim != 2 or rows.shape[1] != 4 or len(rows) < 3:
        return bad + [f"rows have shape {rows.shape}"]
    m, gamma, lam, skel = rows.T
    if not np.array_equal(m, np.arange(len(rows))):
        bad.append("step column is not 0..steps")
    if steps_printed != len(rows) - 1:
        bad.append(f"printed steps={steps_printed}, file has {len(rows) - 1}")
    if gamma[0] != 0.0 or lam[0] != 0.0 or skel[0] != 0.0:
        bad.append("the first row is not all zero")
    d_gamma, d_lam, d_skel = np.diff(gamma), np.diff(lam), np.diff(skel)
    if not np.all(d_gamma > 0):
        bad.append("transport clock does not rise strictly")
    if not gamma[-1] >= 1.0:
        bad.append(f"transport clock ends at {gamma[-1]!r}, before 1")
    if not np.all(d_lam >= 0):
        bad.append("Brownian clock decreases")
    # d_gamma is a difference of running sums, so its rounding scales with
    # the clock value, not with the step.
    slope_gap = np.abs(normalizer(n, k) * np.abs(d_skel) - d_gamma)
    if not np.all(slope_gap <= 1e-12 * gamma[1:]):
        bad.append("|dS| * normalizer differs from dGamma")
    if bad:
        return bad

    time_scale = float(n) ** -k
    p_uniform = stats.kstest(d_gamma / time_scale, "uniform").pvalue
    if not p_uniform >= KS_MIN_P:
        bad.append(f"dGamma / time_scale fails KS against U(0, 1): p={p_uniform:.3g}")
    tau = d_lam / (d_skel * d_skel)
    n_tau = tau.size
    mean, var = float(tau.mean()), float(tau.var())
    se_mean = math.sqrt(var / n_tau)
    fourth = float(np.mean((tau - mean) ** 4))
    se_var = math.sqrt(max(fourth - var * var, 0.0) / n_tau)
    if not abs(mean - 1.0) <= MOMENT_SE * se_mean:
        bad.append(f"mean dLambda/dS^2 = {mean!r}, expected 1 (se {se_mean:.3g})")
    if not abs(var - 2.0 / 3.0) <= MOMENT_SE * se_var:
        bad.append(f"variance of dLambda/dS^2 = {var!r}, expected 2/3 (se {se_var:.3g})")
    p_exit = stats.kstest(tau, unit_exit_cdf).pvalue
    if not p_exit >= KS_MIN_P:
        bad.append(f"dLambda/dS^2 fails KS against the unit exit law: p={p_exit:.3g}")
    return bad


def printed_items(line: str) -> dict[str, str]:
    """key=value items of a command's one-line summary."""
    return dict(item.split("=", 1) for item in line.split()[1:] if "=" in item)
