"""Exact first-exit law for Brownian motion on [-1, 1] and the grid walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from renewalbm import (
    BudgetError,
    ParameterError,
    first_crossing,
    grid_exit,
    invert_unit_cdf,
    sample_first_exit,
    unit_exit_cdf,
)


def test_cdf_shape_and_limits():
    t = np.array([0.0, 0.01, 0.5, 1.0, 5.0, 40.0])
    f = unit_exit_cdf(t)
    assert f[0] == 0.0
    assert np.all(np.diff(f) > 0)
    assert f[-1] > 1 - 1e-12
    assert np.all((0.0 <= f) & (f <= 1.0))
    # so deep in the left tail the true value is below the smallest double
    assert unit_exit_cdf(1e-9) == 0.0


def test_series_branches_agree_at_switch():
    # both expansions are accurate near the internal switch point
    t = np.linspace(0.045, 0.055, 41)
    from renewalbm.exit_times import _cdf_large_t, _cdf_small_t

    gap = np.abs(_cdf_small_t(t) - _cdf_large_t(t))
    assert gap.max() < 1e-13


def test_moments_by_quadrature():
    # E tau_1 = integral of the survival function = 1
    mean, err = integrate.quad(lambda t: 1.0 - unit_exit_cdf(t), 0.0, 40.0, limit=200)
    assert abs(mean - 1.0) < 1e-9 + 10 * err
    # E tau_1^2 = 2 * integral of t * survival = 5/3
    second, err2 = integrate.quad(
        lambda t: 2.0 * t * (1.0 - unit_exit_cdf(t)), 0.0, 40.0, limit=200
    )
    assert abs(second - 5.0 / 3.0) < 1e-8 + 10 * err2


def test_small_t_reflection_bounds():
    # one-barrier reflection overshoots, two-barrier inclusion/exclusion:
    # 2 Q(1/sqrt(t)) <= F(t) <= 4 Q(1/sqrt(t)) for small t
    t = np.array([0.01, 0.02, 0.04])
    f = unit_exit_cdf(t)
    q = special.ndtr(-1.0 / np.sqrt(t))
    assert np.all(f >= 2.0 * q)
    assert np.all(f <= 4.0 * q)


def test_inversion_round_trip():
    u = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    t = invert_unit_cdf(u)
    assert np.all(np.diff(t) > 0)
    assert np.max(np.abs(unit_exit_cdf(t) - u)) < 1.1e-10


def test_sampler_parameter_checks():
    rng = np.random.default_rng(0)
    for a in (0.0, -1.0):
        with pytest.raises(ParameterError):
            sample_first_exit(a, rng)
    with pytest.raises(ParameterError):
        grid_exit(0.0, 1e-4, rng)
    with pytest.raises(ParameterError):
        grid_exit(1.0, 0.02, rng)  # h above a^2/100


def test_exact_sampler_moments():
    rng = np.random.default_rng(7)
    tau, sign = sample_first_exit(1.0, rng, size=100_000)
    assert abs(tau.mean() - 1.0) < 0.02
    assert abs(tau.var(ddof=1) - 2.0 / 3.0) < 0.05
    assert abs(sign.mean()) < 4.0 / math.sqrt(sign.size)


def test_exact_sampler_scaling():
    # tau_a / a^2 has the unit law; compare a=2 draws against a=1 draws
    rng = np.random.default_rng(13)
    tau1, _ = sample_first_exit(1.0, rng, size=10_000)
    tau2, _ = sample_first_exit(2.0, rng, size=10_000)
    from renewalbm import ks_two_sample

    res = ks_two_sample(tau1, tau2 / 4.0)
    assert res.p_value > 0.01


def test_sample_first_exit_scalar_form():
    rng = np.random.default_rng(3)
    tau, sign = sample_first_exit(0.5, rng)
    assert isinstance(tau, float) and sign in (-1, 1)
    assert tau > 0


def test_grid_exit_walk_invariants():
    rng = np.random.default_rng(19)
    res = grid_exit(1.0, 1e-3, rng)
    assert res.values[0] == 0.0
    assert abs(res.values[-1]) >= 1.0
    # only the final entry may sit beyond the barrier
    assert np.all(np.abs(res.values[:-1]) < 1.0)
    assert res.sign == (1 if res.values[-1] > 0 else -1)
    assert res.exit_time == pytest.approx((len(res.values) - 1) * 1e-3, rel=1e-12)


def test_grid_exit_mean_and_sign():
    rng = np.random.default_rng(37)
    n = 2000
    times = np.empty(n)
    signs = np.empty(n)
    for i in range(n):
        res = grid_exit(1.0, 1e-4, rng)
        times[i] = res.exit_time
        signs[i] = res.sign
    se = times.std(ddof=1) / math.sqrt(n)
    # discrete walk exits late by O(sqrt(h)) per side; allow bias plus noise
    assert abs(times.mean() - 1.0) < 0.01 + 3 * se
    assert abs(signs.mean()) < 3.0 / math.sqrt(n)


def test_grid_exit_budget():
    rng = np.random.default_rng(41)
    with pytest.raises(BudgetError):
        grid_exit(1.0, 1e-4, rng, max_steps=10)


def test_first_crossing_examples():
    v = np.array([0.0, 0.1, -0.2, 0.6, 0.9])
    assert first_crossing(v, 0, 0.5) == 3
    assert first_crossing(v, 2, 0.5) == 3  # |0.6 - (-0.2)| = 0.8
    assert first_crossing(v, 0, 2.0) == -1
    assert first_crossing(v, 4, 0.1) == -1


def test_first_crossing_chunk_boundaries():
    v = np.zeros(10_000)
    v[8191] = 1.0  # straddles the 4096-chunk edge
    assert first_crossing(v, 0, 0.5, chunk=4096) == 8191
    assert first_crossing(v, 8190, 0.5, chunk=4096) == 8191
    assert first_crossing(v, 8191, 0.5, chunk=4096) == 8192  # drop back to 0


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=300),
    data=st.data(),
    level=st.floats(0.0, 3.0, allow_nan=False),
    chunk=st.integers(1, 64),
)
def test_first_crossing_matches_brute_force(steps, data, level, chunk):
    v = np.concatenate([[0.0], np.cumsum(steps)])
    start = data.draw(st.integers(0, len(v) - 1), label="start")
    want = next(
        (j for j in range(start + 1, len(v)) if abs(v[j] - v[start]) >= level), -1
    )
    assert first_crossing(v, start, level, chunk=chunk) == want
