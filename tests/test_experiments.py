"""Rate campaign plumbing, log-log fits, and goodness-of-fit helpers."""

import math
import re

import numpy as np
import pytest

import renewalbm.errors
import renewalbm.experiments
from renewalbm.coupling import build_coupled_realization, decompose_sup, sup_distance
from renewalbm.errors import BudgetError, InputError
from renewalbm.experiments import (
    RateExperimentConfig,
    as_trace,
    covariance_check,
    fit_rate,
    ks_normal,
    ks_two_sample,
    ks_uniform,
    rate_scale,
    run_rate_experiment,
    skeleton_identity_error,
    slope_error,
)
from renewalbm.laws import uniform01
from renewalbm.streams import ROLE_RATE, ROLE_TRACE, derived_rng
from renewalbm.transport import scaling_constants

LAW = uniform01()


def test_rate_scale_values():
    assert rate_scale(4, 2.0) == pytest.approx(0.5 * math.log(4.0) ** 1.5, rel=1e-12)
    assert rate_scale(100, 2.0) == pytest.approx(0.1 * math.log(100.0) ** 1.5, rel=1e-12)
    # the deviation scale peaks at n = e^3 and is not monotone
    vals = [rate_scale(n, 2.0) for n in (4, 8, 16, 32, 64)]
    assert vals[2] == max(vals)
    with pytest.raises(InputError):
        rate_scale(1, 2.0)


def test_config_validation():
    ok = dict(law=LAW, k=2.0, n_grid=(4, 8), reps=5, master_seed=1)
    RateExperimentConfig(**ok)
    with pytest.raises(InputError):
        RateExperimentConfig(**{**ok, "k": 1.0})
    with pytest.raises(InputError):
        RateExperimentConfig(**{**ok, "n_grid": ()})
    with pytest.raises(InputError):
        RateExperimentConfig(**{**ok, "n_grid": (8, 4)})
    with pytest.raises(InputError):
        RateExperimentConfig(**{**ok, "n_grid": (1, 4)})
    with pytest.raises(InputError):
        RateExperimentConfig(**{**ok, "reps": 1})
    with pytest.raises(InputError):
        RateExperimentConfig(**{**ok, "alpha": 0.0})
    for seed in (-1, 1.5, "3", True):
        with pytest.raises(InputError, match="master_seed"):
            RateExperimentConfig(**{**ok, "master_seed": seed})
    assert RateExperimentConfig(**{**ok, "master_seed": np.int64(7)}).master_seed == 7
    alpha = RateExperimentConfig(**{**ok, "alpha": np.float64(0.5)}).alpha
    assert type(alpha) is float and alpha == 0.5


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, 0.0, -1.0, "0.5", [1], True, np.bool_(True)])
def test_alpha_must_be_positive_and_finite(alpha):
    # a bool or a non-number is refused like a bad value
    with pytest.raises(InputError, match=re.escape(f"alpha must be positive and finite, got {alpha!r}")):
        RateExperimentConfig(law=LAW, k=2.0, n_grid=(4, 8), reps=5, master_seed=1, alpha=alpha)


def test_rate_experiment_needs_a_worker():
    cfg = RateExperimentConfig(law=LAW, k=2.0, n_grid=(4, 8), reps=5, master_seed=1)
    with pytest.raises(InputError, match="workers"):
        run_rate_experiment(cfg, workers=0)


def test_fit_rate_exact_lines():
    slope, intercept, r2 = fit_rate([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, _, r2 = fit_rate([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    # flat ordinate: zero slope, and the perfect fit counts as r^2 = 1
    slope, _, r2 = fit_rate([(1.0, 3.0), (10.0, 3.0)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_fit_rate_rejects_bad_points():
    with pytest.raises(InputError):
        fit_rate([(1.0, 1.0)])
    with pytest.raises(InputError):
        fit_rate([(1.0, 1.0), (-2.0, 2.0)])
    with pytest.raises(InputError):
        fit_rate([(1.0, 0.0), (2.0, 2.0)])


def test_ks_normal_detects_point_mass():
    res = ks_normal(np.zeros(100))
    assert res.statistic == pytest.approx(0.5, abs=1e-12)
    assert res.p_value < 1e-10
    with pytest.raises(InputError):
        ks_normal(np.zeros(49))


def test_ks_accepts_true_law():
    rng = np.random.default_rng(404)
    assert ks_normal(rng.standard_normal(2000)).p_value > 0.01
    assert ks_uniform(rng.random(2000) * 0.01, 0.01).p_value > 0.01
    res = ks_two_sample(rng.standard_normal(1500), rng.standard_normal(1500))
    assert res.p_value > 0.01


def test_ks_rejects_shifted_sample():
    rng = np.random.default_rng(405)
    res = ks_two_sample(rng.standard_normal(1500), rng.standard_normal(1500) + 1.0)
    assert res.p_value < 1e-6
    with pytest.raises(InputError):
        ks_uniform(rng.random(100), 0.0)


def test_covariance_check_validation_and_degenerate_point():
    rng = np.random.default_rng(31)
    with pytest.raises(InputError):
        covariance_check(LAW, 2.0, 10, 0.7, 0.5, 200, rng)
    with pytest.raises(InputError):
        covariance_check(LAW, 2.0, 10, 0.2, 0.5, 99, rng)
    # s = 0 pins every product at zero, matching min(0, t) exactly
    res = covariance_check(LAW, 2.0, 10, 0.0, 1.0, 100, rng)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_covariance_check_matches_min():
    rng = np.random.default_rng(67)
    res = covariance_check(LAW, 2.0, 10, 0.5, 1.0, 400, rng)
    assert res.p_value > 0.01
    assert abs(res.statistic - 0.5) < 0.2
    assert res.sample_size == 400


def _small_cfg(**over):
    base = dict(law=LAW, k=2.0, n_grid=(4, 8), reps=10, master_seed=42)
    base.update(over)
    return RateExperimentConfig(**base)


def test_rate_experiment_smoke():
    result = run_rate_experiment(_small_cfg())
    assert result.complete
    assert [row.n for row in result.rows] == [4, 8]
    assert result.rows[0].median_j > result.rows[1].median_j
    # auto alpha anchors the first scale at its own median: half exceed
    assert result.rows[0].exceedance == 0.5
    assert result.threshold(4) == pytest.approx(result.alpha * rate_scale(4, 2.0), rel=1e-12)
    assert result.max_bound_gap <= 0.0
    assert result.max_skeleton_err < 1e-12
    assert result.max_slope_err < 1e-10
    # no rung lies past the scale's peak e**(6/k) ~ 20.1, so there is no fit
    assert math.isnan(result.slope) and math.isnan(result.r_squared)
    for row in result.rows:
        assert row.mean_j >= row.median_j * 0.3
        assert min(row.mean_j1, row.mean_j2, row.mean_j3, row.mean_j4) > 0.0


def test_rate_experiment_deterministic_across_workers():
    a = run_rate_experiment(_small_cfg())
    b = run_rate_experiment(_small_cfg())
    c = run_rate_experiment(_small_cfg(), workers=2)
    assert a.rows == b.rows == c.rows
    assert a.alpha == b.alpha == c.alpha
    assert np.array_equal([a.slope, a.r_squared], [c.slope, c.r_squared], equal_nan=True)


def test_rate_values_recomputed_from_their_realizations():
    # Each reported value is rebuilt from its own realizations, so a value
    # read from the wrong record column fails under its name.
    cfg = _small_cfg(reps=5)
    result = run_rate_experiment(cfg)
    worst = {"max_bound_gap": [], "max_skeleton_err": [], "max_slope_err": []}
    alpha = None
    for row in result.rows:
        sched = scaling_constants(LAW, cfg.k, row.n)
        sups, terms = [], []
        for rep in range(cfg.reps):
            real = build_coupled_realization(
                LAW, sched, derived_rng(cfg.master_seed, ROLE_RATE, row.n, rep), engine="grid"
            )
            dec = decompose_sup(real)
            sups.append(dec.sup)
            terms.append((dec.j1, dec.j2, dec.j3, dec.j4))
            worst["max_bound_gap"].append(dec.bound_gap)
            worst["max_skeleton_err"].append(skeleton_identity_error(real))
            worst["max_slope_err"].append(slope_error(real))
        sups = np.array(sups)
        if alpha is None:
            alpha = float(np.median(sups)) / rate_scale(row.n, cfg.k)
        want = {
            "mean_j": sups.mean(),
            "median_j": np.median(sups),
            "q90_j": np.quantile(sups, 0.9),
            "exceedance": np.mean(sups > alpha * rate_scale(row.n, cfg.k)),
            **{f"mean_j{i + 1}": np.mean([t[i] for t in terms]) for i in range(4)},
        }
        for name, value in want.items():
            assert getattr(row, name) == value, f"{name} at n={row.n}"
    assert result.alpha == alpha
    for name, values in worst.items():
        assert getattr(result, name) == max(values), name


def test_rate_fit_uses_rungs_past_the_peak():
    # k = 2.5 puts the scale's peak at e**2.4 ~ 11.0, so only n = 12, 16 fit
    result = run_rate_experiment(_small_cfg(k=2.5, n_grid=(8, 12, 16), reps=3))
    slope, intercept, r2 = fit_rate(
        [(rate_scale(row.n, 2.5), row.median_j) for row in result.rows[1:]]
    )
    assert (result.slope, result.intercept, result.r_squared) == (slope, intercept, r2)


def test_rate_campaign_opens_one_pool(monkeypatch):
    real_pool = renewalbm.experiments.Pool
    starts = []

    def counting_pool(workers):
        starts.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(renewalbm.experiments, "Pool", counting_pool)
    run_rate_experiment(_small_cfg(), workers=2)
    assert starts == [2]


def test_rate_experiment_fixed_alpha_and_single_scale():
    result = run_rate_experiment(_small_cfg(n_grid=(4,), alpha=1.0, reps=4))
    assert len(result.rows) == 1
    assert result.alpha == 1.0
    assert math.isnan(result.slope) and math.isnan(result.r_squared)


def test_rate_experiment_budget_paths(monkeypatch):
    # too small for even the first scale's walk
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 100)
    with pytest.raises(BudgetError, match="allocation budget"):
        run_rate_experiment(_small_cfg())
    # enough for n=4 but not the n=8 walk: partial result, honestly flagged
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 80_000)
    result = run_rate_experiment(_small_cfg())
    assert not result.complete
    assert [row.n for row in result.rows] == [4]
    assert math.isnan(result.slope)



def _fail_allocation_at(monkeypatch, n_fail):
    real_build = renewalbm.experiments.build_coupled_realization

    def build(law, sched, rng, **kw):
        if sched.n == n_fail:
            raise MemoryError("Unable to allocate 1.00 GiB for an array")
        return real_build(law, sched, rng, **kw)

    monkeypatch.setattr(renewalbm.experiments, "build_coupled_realization", build)


def test_rate_experiment_keeps_rungs_when_memory_runs_out(monkeypatch):
    _fail_allocation_at(monkeypatch, 8)
    result = run_rate_experiment(_small_cfg())
    assert not result.complete
    assert [row.n for row in result.rows] == [4]
    with pytest.raises(BudgetError, match="Unable to allocate"):
        run_rate_experiment(_small_cfg(n_grid=(8, 16)))

def test_mean_extreme_segment_move():
    # durations are uniform on (0, time_scale], so the largest of the N
    # segment moves has mean (time_scale/normalizer) * N / (N + 1)
    result = run_rate_experiment(_small_cfg(n_grid=(16,), reps=50, master_seed=7))
    n = 16
    beta = n ** -2.0
    normalizer = math.sqrt(2.0) / (math.sqrt(3.0) * n)
    count = 2 * n * n + 1
    expected = (beta / normalizer) * count / (count + 1)
    spread = (beta / normalizer) * math.sqrt(count / ((count + 1) ** 2 * (count + 2)))
    assert abs(result.rows[0].mean_j4 - expected) < 4 * spread / math.sqrt(50) + 1e-5


def test_trace_shapes_and_validation():
    trace = as_trace(LAW, 2.0, [4], 3, master_seed=1)
    assert trace.j.shape == (3, 1)
    assert trace.frac_monotone == 1.0
    assert trace.frac_final_below_first == 1.0
    with pytest.raises(InputError):
        as_trace(LAW, 2.0, [], 3, master_seed=1)
    with pytest.raises(InputError):
        as_trace(LAW, 2.0, [8, 4], 3, master_seed=1)
    with pytest.raises(InputError):
        as_trace(LAW, 2.0, [4, 8], 0, master_seed=1)


def _counted_builds(monkeypatch) -> list:
    builds = []
    real_build = renewalbm.experiments.build_coupled_realization

    def build(law, sched, rng, **kw):
        builds.append(sched.n)
        return real_build(law, sched, rng, **kw)

    monkeypatch.setattr(renewalbm.experiments, "build_coupled_realization", build)
    return builds


def test_unusable_rung_fails_before_any_build(monkeypatch):
    # n = 10**110 at k = 3 underflows mean_step; both harnesses reject the
    # whole ladder before building its first rung.
    builds = _counted_builds(monkeypatch)
    ladder = (2, 4, 10**110)
    with pytest.raises(InputError, match="mean_step"):
        as_trace(LAW, 3.0, ladder, 20, master_seed=1)
    with pytest.raises(InputError, match="mean_step"):
        RateExperimentConfig(law=LAW, k=3.0, n_grid=ladder, reps=20, master_seed=1)
    with pytest.raises(InputError, match="n must be positive and an integer"):
        as_trace(LAW, 2.0, [0, 4], 2, master_seed=1)
    assert builds == []
    # trace still runs a ladder from n = 1, which rate rejects
    assert as_trace(LAW, 2.0, [1, 2], 2, master_seed=1).j.shape == (2, 2)
    assert builds == [1, 1, 2, 2]


def test_non_integer_rung_fails_before_any_build(monkeypatch):
    # a rung reaches scaling_constants as passed, not truncated to n = 4
    builds = _counted_builds(monkeypatch)
    with pytest.raises(InputError, match="n must be positive and an integer"):
        RateExperimentConfig(law=LAW, k=2.0, n_grid=(4.7, 8), reps=2, master_seed=1)
    with pytest.raises(InputError, match="n must be positive and an integer"):
        as_trace(LAW, 2.0, [4.7], 2, master_seed=1)
    with pytest.raises(InputError, match="n must be positive and an integer"):
        as_trace(LAW, 2.0, [True, 2], 2, master_seed=1)
    assert builds == []
    cfg = RateExperimentConfig(law=LAW, k=2.0, n_grid=(np.int64(4), 8), reps=2, master_seed=1)
    assert cfg.n_grid == (4, 8) and type(cfg.n_grid[0]) is int


def test_non_integer_reps_and_workers_fail_before_any_build(monkeypatch):
    builds = _counted_builds(monkeypatch)
    for reps in (2.5, True, "3"):
        with pytest.raises(InputError, match="reps"):
            RateExperimentConfig(law=LAW, k=2.0, n_grid=(4, 8), reps=reps, master_seed=1)
        with pytest.raises(InputError, match="reps"):
            as_trace(LAW, 2.0, [4, 8], reps, master_seed=1)
    cfg = RateExperimentConfig(law=LAW, k=2.0, n_grid=(4, 8), reps=2, master_seed=1)
    for workers in (1.5, True, 0):
        with pytest.raises(InputError, match="workers"):
            run_rate_experiment(cfg, workers=workers)
    assert builds == []
    # numpy integers still pass, and become ints
    cfg = RateExperimentConfig(law=LAW, k=2.0, n_grid=(4, 8), reps=np.int64(2), master_seed=1)
    assert type(cfg.reps) is int
    assert run_rate_experiment(cfg, workers=np.int64(1)).rows[0].n == 4
    assert as_trace(LAW, 2.0, [np.int64(4)], np.int64(2), master_seed=1).j.shape == (2, 1)
    assert builds == [4, 4, 8, 8, 4, 4]


def test_negative_seed_fails_before_any_stream(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a stream was derived")

    monkeypatch.setattr(renewalbm.experiments, "derived_rng", no_stream)
    with pytest.raises(InputError, match="master_seed"):
        run_rate_experiment(RateExperimentConfig(law=LAW, k=2.0, n_grid=(4, 8), reps=2, master_seed=-1))
    with pytest.raises(InputError, match="master_seed"):
        as_trace(LAW, 2.0, [4, 8], 3, master_seed=-1)


def test_trace_uses_its_own_streams_and_the_default_grid():
    trace = as_trace(LAW, 2.0, [4, 8], 3, master_seed=9)
    for col, n in enumerate((4, 8)):
        sched = scaling_constants(LAW, 2.0, n)
        for rep in (0, 2):
            real = build_coupled_realization(LAW, sched, derived_rng(9, ROLE_TRACE, n, rep))
            assert trace.j[rep, col] == sup_distance(real, "grid")


def test_trace_trend_and_determinism():
    trace = as_trace(LAW, 2.0, [4, 16], 30, master_seed=5)
    again = as_trace(LAW, 2.0, [4, 16], 30, master_seed=5)
    assert np.array_equal(trace.j, again.j)
    assert np.all(trace.j > 0.0)
    assert trace.frac_final_below_first >= 0.5
    assert 0.0 <= trace.frac_monotone <= trace.frac_final_below_first
