"""Skorokhod-embedding coupling: levels, clocks, skeleton, and the sup bound."""

import math

import numpy as np
import pytest

from renewalbm import (
    DomainError,
    InputError,
    ParameterError,
    UnsupportedModeError,
    build_coupled_realization,
    decompose_sup,
    deterministic,
    embedding_diagnostics,
    ks_uniform,
    sample_embedding_steps,
    sample_exit_level,
    scaling_constants,
    skeleton_identity_error,
    sup_distance,
    uniform01,
)
from renewalbm.coupling import BGK_SHIFT

LAW = uniform01()
SCHED10 = scaling_constants(LAW, 2.0, 10)


def test_exit_level_scale_and_mean():
    rng = np.random.default_rng(101)
    levels = sample_exit_level(LAW, SCHED10, rng, 100_000)
    bound = SCHED10.time_scale / SCHED10.normalizer
    assert bound == pytest.approx(math.sqrt(1.5) * 0.1, rel=1e-12)
    assert levels.max() <= bound
    assert levels.min() >= 0.0
    se = bound / math.sqrt(12.0) / math.sqrt(levels.size)
    assert abs(levels.mean() - bound / 2.0) < 4 * se


def test_unit_schedule_realization():
    # n=1 with unit point-mass jumps: every level and duration is exactly 1
    law = deterministic(1.0)
    sched = scaling_constants(law, 2.0, 1)
    real = build_coupled_realization(law, sched, np.random.default_rng(5), engine="exact")
    assert np.all(real.levels == 1.0)
    assert np.all(real.durations == 1.0)
    assert real.first_cover == 1
    assert np.array_equal(real.skeleton, np.concatenate([[0], np.cumsum(real.signs)]))
    assert real.value_at(0.5) == 0.5 * real.signs[0]


def test_cover_step_count_wald():
    # first_cover is a stopping time for the duration sequence, so the
    # stopped transport clock satisfies E Gamma_N = mean_step * E N exactly
    rng = np.random.default_rng(211)
    reps = 300
    covers = np.empty(reps)
    stopped = np.empty(reps)
    for i in range(reps):
        real = build_coupled_realization(LAW, SCHED10, rng, engine="exact")
        covers[i] = real.first_cover
        stopped[i] = real.path_times[real.first_cover]
    diff = stopped - SCHED10.mean_step * covers
    se = diff.std(ddof=1) / math.sqrt(reps)
    assert abs(diff.mean() - 0.0) < 4 * se + 1e-12
    assert 195 < covers.mean() < 210


def test_skeleton_identity_and_knot_values():
    real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(57))
    assert skeleton_identity_error(real) < 1e-12
    # interior knots evaluate with zero-length corrections, hence exactly
    vals = real.value_at(real.path_times[:-1])
    assert np.array_equal(vals, real.skeleton[:-1])
    assert real.value_at(real.path_times[-1]) == pytest.approx(real.skeleton[-1], rel=1e-12)


def test_value_at_domain():
    real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(58))
    with pytest.raises(DomainError):
        real.value_at(real.path_times[-1] * 1.000001)
    with pytest.raises(DomainError):
        real.value_at(-1e-12)


def test_engine_and_step_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        build_coupled_realization(LAW, SCHED10, rng, engine="fancy")
    with pytest.raises(ParameterError):
        build_coupled_realization(LAW, SCHED10, rng, engine="exact", grid_step=1e-5)
    for bad in (0.0, -1e-6, SCHED10.mean_step * 1.5):
        with pytest.raises(ParameterError):
            build_coupled_realization(LAW, SCHED10, rng, grid_step=bad)


def test_sup_modes_need_grid_engine():
    real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(3), engine="exact")
    with pytest.raises(UnsupportedModeError):
        sup_distance(real, "grid")
    with pytest.raises(UnsupportedModeError):
        decompose_sup(real)
    grid_real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(3))
    with pytest.raises(UnsupportedModeError):
        sup_distance(grid_real, "everywhere")


def test_decomposition_bounds_sup():
    rng = np.random.default_rng(83)
    law = LAW
    sched = scaling_constants(law, 2.0, 8)
    for _ in range(3):
        real = build_coupled_realization(law, sched, rng)
        dec = decompose_sup(real)
        assert dec.bound_gap <= 0.0
        assert min(dec.j1, dec.j2, dec.j3, dec.j4) >= 0.0
        assert dec.sup == sup_distance(real, "grid")
        assert dec.segments == max(int(1.0 / sched.mean_step), real.first_cover)
        assert dec.slack >= 2.0 * real.grid.max_increment
        assert dec.j4 == pytest.approx(
            real.durations[: dec.segments + 1].max() / sched.normalizer, rel=1e-12
        )


def test_grid_walk_is_brownian():
    sched = scaling_constants(LAW, 2.0, 8)
    real = build_coupled_realization(LAW, sched, np.random.default_rng(97))
    inc = np.diff(real.grid.values)
    h = real.grid.step
    assert h == pytest.approx(sched.mean_step / 1000.0, rel=1e-12)
    n = inc.size
    assert abs(inc.mean()) < 4 * math.sqrt(h / n)
    var_se = h * math.sqrt(2.0 / (n - 1))
    assert abs(inc.var(ddof=1) - h) < 4 * var_se
    # diff-of-cumsum reconstructs the draws only to rounding
    assert real.grid.max_increment == pytest.approx(np.abs(inc).max(), rel=1e-9)


def test_grid_clocks_sit_on_the_lattice():
    real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(29))
    assert np.allclose(real.bm_times, real.bm_index * real.grid.step, rtol=1e-12, atol=0.0)
    assert np.all(np.diff(real.bm_index) > 0)
    # detected exits do cross the barrier the scan uses, level - BGK_SHIFT*sqrt(h)
    at_clock = real.grid.values[real.bm_index]
    barrier = real.levels - BGK_SHIFT * math.sqrt(real.grid.step)
    assert np.all(np.abs(np.diff(at_clock)) >= barrier - 1e-15)


@pytest.mark.parametrize("n", [16, 32])
def test_grid_clock_has_no_drift(n):
    # first_cover is a stopping time for the i.i.d. steps, so Wald's identity
    # gives E[Lambda_M - M * mean_step] = 0 at M = first_cover for an unbiased
    # exit scan; a scan that detects exits late drifts by about +0.03 here.
    sched = scaling_constants(LAW, 2.0, n)
    rng = np.random.default_rng(3000 + n)
    reps = 60
    drift = np.empty(reps)
    for i in range(reps):
        real = build_coupled_realization(LAW, sched, rng)
        m = real.first_cover
        drift[i] = real.bm_times[m] - m * sched.mean_step
    se = drift.std(ddof=1) / math.sqrt(reps)
    assert abs(drift.mean()) < 3 * se


def test_embedding_step_marginals():
    rng = np.random.default_rng(113)
    levels, signs, exit_times, durations = sample_embedding_steps(LAW, SCHED10, 30_000, rng)
    assert levels.shape == signs.shape == exit_times.shape == durations.shape
    # durations are uniform on (0, time_scale] by construction
    res = ks_uniform(durations, SCHED10.time_scale)
    assert res.p_value > 0.01
    # E sigma equals the mean clock step
    sd = exit_times.std(ddof=1)
    assert abs(exit_times.mean() - SCHED10.mean_step) < 4 * sd / math.sqrt(exit_times.size)
    assert abs(signs.mean()) < 4.0 / math.sqrt(signs.size)
    with pytest.raises(InputError):
        sample_embedding_steps(LAW, SCHED10, 0, rng)


def test_embedding_diagnostics_fields():
    real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(127))
    diag = embedding_diagnostics(real)
    assert set(diag) == {"steps", "mean_exit_time", "mean_duration", "second_moment_ratio"}
    assert diag["steps"] == real.n_steps
    assert diag["mean_duration"] == pytest.approx(real.durations.mean(), rel=1e-12)
    # E sigma^2 = E xi^4 * E tau_1^2 with E tau_1^2 = 5/3
    assert 0.9 < diag["second_moment_ratio"] < 3.0


def test_build_is_deterministic_per_seed():
    a = build_coupled_realization(LAW, SCHED10, np.random.default_rng(999))
    b = build_coupled_realization(LAW, SCHED10, np.random.default_rng(999))
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.signs, b.signs)
    assert np.array_equal(a.path_times, b.path_times)
    assert np.array_equal(a.grid.values, b.grid.values)
    assert a.first_cover == b.first_cover
