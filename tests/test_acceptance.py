"""Release gate: nine numbered full-scale checks, one verdict line each.

Criterion 6ii checks the rate where the bound is a rate at all. The bound
rate_scale(n) = n**(-k/4) * log(n)**1.5 rises up to n = e**(6/k) and falls
after it (peak near n = 20 for k = 2), so 6ii fits log median sup distance
against log rate_scale over the campaign rungs past that peak only (n = 32
and 64 on this ladder). It asks for at least two such rungs, a slope of at
least 0.75 and r^2 >= 0.9. There is no upper cap on the slope: the rate is
an O-bound, and the sup may fall faster than it does.

The check used to fit all of n = 4..64 with the slope held to [0.75, 1.25],
which cannot pass together with 6i. On that ladder the running partial sums
P_i of the centred log rate_scale values are -0.241, -0.220, -0.115, -0.021
and 0, all <= 0. By summation by parts the OLS numerator equals
sum_i P_i * (y_i - y_(i+1)) for log medians y_i, so any strictly decreasing
medians, which 6i requires, give a negative slope.
"""

import math

import numpy as np
import pytest

from renewalbm.coupling import build_coupled_realization, sample_embedding_steps, transport_paths
from renewalbm.csvio import write_rate_csv
from renewalbm.exit_times import grid_exit, sample_first_exit
from renewalbm.experiments import (
    RateExperimentConfig,
    covariance_check,
    fit_rate,
    ks_normal,
    ks_two_sample,
    ks_uniform,
    rate_scale,
    run_rate_experiment,
    skeleton_identity_error,
    slope_error,
    terminal_samples,
)
from renewalbm.laws import uniform01
from renewalbm.transport import scaling_constants
from renewalbm.streams import ROLE_GOF_COV, ROLE_GOF_TERMINAL, derived_rng

MASTER_SEED = 20260815
LAW = uniform01()
CAMPAIGN_CFG = RateExperimentConfig(
    law=LAW,
    k=2.0,
    n_grid=(4, 8, 16, 32, 64),
    reps=200,
    master_seed=MASTER_SEED,
)


@pytest.fixture(scope="module")
def campaign():
    return run_rate_experiment(CAMPAIGN_CFG)


def _verdict(capsys, label, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {label}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_scaling_constants(capsys):
    worst = 0.0
    for n in (10, 100):
        sched = scaling_constants(LAW, 2.0, n)
        want_g = math.sqrt(2.0) / (math.sqrt(3.0) * n)
        want_h = 1.0 / (2.0 * n * n)
        worst = max(
            worst,
            abs(sched.normalizer - want_g) / want_g,
            abs(sched.mean_step - want_h) / want_h,
        )
    ok = worst <= 1e-12
    _verdict(capsys, 1, "scaling constants", ok, f"max rel err {worst:.3g}")
    assert ok


def _direct_sign_integral(path, schedule, t):
    # the sign of each step integrated over its stretch of the clock, with
    # no skeleton; the last step ends past the horizon, so past t
    val = 0.0
    prev = 0.0
    for time, sign in zip(path.path_times[1:], path.signs):
        if time >= t:
            return (val + sign * (t - prev)) / schedule.normalizer
        val += sign * (time - prev)
        prev = time


def test_c2_path_evaluation_exactness(capsys):
    rng = np.random.default_rng(MASTER_SEED)
    sched = scaling_constants(LAW, 2.0, 10)
    worst = 0.0
    paths = transport_paths(LAW, sched, 1.0, rng)
    for _ in range(1000):
        path = next(paths)
        times = rng.random(10)
        for t, got in zip(times, path.value_at(times)):
            want = _direct_sign_integral(path, sched, t)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-12
    _verdict(capsys, 2, "piecewise-linear evaluation", ok, f"max rel err {worst:.3g}")
    assert ok


def test_c3_embedding_marginals(capsys):
    rng = np.random.default_rng(MASTER_SEED)
    sched = scaling_constants(LAW, 2.0, 10)
    levels, signs, exit_times, durations = sample_embedding_steps(LAW, sched, 100_000, rng)
    p_dur = ks_uniform(durations, sched.time_scale).p_value
    mean_sig = exit_times.mean()
    se_sig = exit_times.std(ddof=1) / math.sqrt(exit_times.size)
    sig_off = abs(mean_sig - sched.mean_step)
    plus = float(np.mean(signs == 1))
    sign_se = 0.5 / math.sqrt(signs.size)
    sign_off = abs(plus - 0.5)
    ok = p_dur > 0.01 and sig_off <= 4 * se_sig and sign_off <= 4 * sign_se
    _verdict(
        capsys, 3, "embedding marginals", ok,
        f"duration KS p={p_dur:.3f}, mean exit {mean_sig:.6g} vs {sched.mean_step:.6g} "
        f"(4SE={4 * se_sig:.2g}), sign freq {plus:.4f}",
    )
    assert ok


def test_c4_exit_time_engines_agree(capsys):
    rng = np.random.default_rng(MASTER_SEED + 4)
    exact, _ = sample_first_exit(1.0, rng, size=10_000)
    grid = np.empty(10_000)
    for i in range(grid.size):
        grid[i] = grid_exit(1.0, 1e-5, rng)[0]
    p = ks_two_sample(exact, grid).p_value
    mean_off = abs(exact.mean() - 1.0)
    var_off = abs(exact.var(ddof=1) - 2.0 / 3.0)
    ok = p > 0.01 and mean_off <= 0.02 and var_off <= 0.05
    _verdict(
        capsys, 4, "exit-time oracle agreement", ok,
        f"two-sample KS p={p:.3f}, exact mean {exact.mean():.4f}, "
        f"exact var {exact.var(ddof=1):.4f}",
    )
    assert ok


def test_c5_skeleton_identity_and_slopes(capsys, campaign):
    fresh = build_coupled_realization(
        LAW, scaling_constants(LAW, 2.0, 10), np.random.default_rng(MASTER_SEED), engine="exact"
    )
    skel = max(campaign.max_skeleton_err, skeleton_identity_error(fresh))
    slope = max(campaign.max_slope_err, slope_error(fresh))
    ok = skel <= 1e-12 and slope <= 1e-10
    _verdict(
        capsys, 5, "skeleton identity and slopes", ok,
        f"max skeleton err {skel:.3g}, max slope err {slope:.3g}",
    )
    assert ok


def test_c6i_median_decreasing(capsys, campaign):
    medians = [row.median_j for row in campaign.rows]
    ok = all(b < a for a, b in zip(medians, medians[1:]))
    _verdict(
        capsys, "6i", "median sup distance strictly decreasing", ok,
        "medians " + ", ".join(f"{m:.4f}" for m in medians),
    )
    assert ok


def test_c6ii_rate_fit(capsys, campaign):
    k = campaign.config.k
    peak = math.exp(6.0 / k)
    past_peak = [row for row in campaign.rows if row.n > peak]
    enough = len(past_peak) >= 2
    if enough:
        slope, _, r2 = fit_rate([(rate_scale(row.n, k), row.median_j) for row in past_peak])
    else:
        slope = r2 = float("nan")
    ok = enough and slope >= 0.75 and r2 >= 0.9
    detail = (
        f"n > e**(6/k) = {peak:.1f}: rungs {[row.n for row in past_peak]}, "
        f"slope {slope:.4f} (need >= 0.75), r^2 {r2:.4f} (need >= 0.9)"
    )
    _verdict(capsys, "6ii", "log-log rate fit past the scale's peak", ok, detail)
    assert ok, detail


def test_c6iii_exceedance_calibrated_and_nonincreasing(capsys, campaign):
    reps = campaign.config.reps
    exc = [row.exceedance for row in campaign.rows]
    calibrated = abs(exc[0] - 0.5) <= 2.0 * math.sqrt(0.25 / reps)
    monotone = True
    for a, b in zip(exc, exc[1:]):
        se_diff = math.sqrt(a * (1 - a) / reps + b * (1 - b) / reps)
        if b > a + 2.0 * se_diff:
            monotone = False
    ok = calibrated and monotone
    _verdict(
        capsys, "6iii", "threshold exceedance", ok,
        "exceedance " + ", ".join(f"{e:.3f}" for e in exc),
    )
    assert ok


def test_c7_terminal_distribution(capsys):
    n = 32
    sched = scaling_constants(LAW, 2.0, n)
    samples = terminal_samples(
        LAW, sched, 5000, derived_rng(MASTER_SEED, ROLE_GOF_TERMINAL, n, 0)
    )
    p = ks_normal(samples).p_value
    var = float(np.var(samples, ddof=1))
    cov = covariance_check(
        LAW, 2.0, n, 0.5, 1.0, 5000, derived_rng(MASTER_SEED, ROLE_GOF_COV, n, 0)
    )
    ok = p > 0.01 and abs(var - 1.0) <= 0.1 and abs(cov.statistic - 0.5) <= 0.08
    _verdict(
        capsys, 7, "terminal law is standard normal", ok,
        f"KS p={p:.3f}, var {var:.4f}, cov(0.5,1) {cov.statistic:.4f}",
    )
    assert ok


def test_c8_decomposition_bounds_sup(capsys, campaign):
    gap = campaign.max_bound_gap
    ok = gap <= 0.0
    _verdict(
        capsys, 8, "four-term decomposition bounds the sup", ok,
        f"max bound gap {gap:.4g} over {sum(1 for _ in campaign.rows) * campaign.config.reps} realizations",
    )
    assert ok


def test_c9_byte_identical_rerun(capsys, campaign, tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_rate_csv(first, campaign)
    # The campaign ran on one worker; results must not depend on the count.
    rerun = run_rate_experiment(CAMPAIGN_CFG, workers=2)
    write_rate_csv(second, rerun)
    ok = first.read_bytes() == second.read_bytes()
    _verdict(
        capsys, 9, "same-seed rerun is byte-identical", ok,
        f"{first.stat().st_size} bytes compared",
    )
    assert ok
