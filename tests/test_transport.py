"""Renewal paths, scaling constants, and exact transport-path evaluation."""

import math

import numpy as np
import pytest

import renewalbm.errors
from renewalbm.errors import (
    CapacityError,
    DomainError,
    InputError,
    ParameterError,
    RateConditionError,
)
from renewalbm.laws import deterministic, exponential, uniform01
from renewalbm.transport import (
    RenewalPath,
    ScalingSchedule,
    build_transport_path,
    sample_renewal_path,
    scaling_constants,
    terminal_samples,
)


def _integrated_sign(path, schedule, t):
    """Independent oracle: direct integration of the toggling sign."""
    sign = 1 if path.initial_reward % 2 == 0 else -1
    val = 0.0
    prev = 0.0
    for time, flip in zip(path.times, path.flips):
        if time > t:
            break
        val += sign * (time - prev)
        prev = time
        if flip:
            sign = -sign
    val += sign * (t - prev)
    return val / schedule.normalizer


def test_scaling_constants_uniform_closed_form():
    for n in (10, 100):
        sched = scaling_constants(uniform01(), 2.0, n)
        assert sched.normalizer == pytest.approx(math.sqrt(2.0) / (math.sqrt(3.0) * n), rel=1e-12)
        assert sched.mean_step == pytest.approx(1.0 / (2.0 * n * n), rel=1e-12)
        assert sched.time_scale == pytest.approx(n ** -2.0, rel=1e-15)


def test_scaling_constants_other_laws():
    sched = scaling_constants(deterministic(1.0), 2.0, 1)
    assert sched.normalizer == 1.0 and sched.mean_step == 1.0
    sched = scaling_constants(exponential(1.0), 2.0, 10)
    assert sched.normalizer == pytest.approx(math.sqrt(0.02), rel=1e-12)
    assert sched.mean_step == pytest.approx(0.01, rel=1e-12)


def test_rate_exponent_must_exceed_one():
    for k in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(RateConditionError):
            scaling_constants(uniform01(), k, 10)
    with pytest.raises(ParameterError):
        scaling_constants(uniform01(), 2.0, 0)


def test_deterministic_ticks():
    # scale-n spacing is exactly time_scale * j for integer j, so the 100th
    # tick lands exactly on the horizon and is included
    sched = scaling_constants(deterministic(1.0), 2.0, 10)
    path = sample_renewal_path(deterministic(1.0), sched, 1.0, np.random.default_rng(0))
    assert len(path.times) == 100
    assert np.array_equal(path.times, 0.01 * np.arange(1, 101))
    assert path.times[-1] == 1.0


def test_zero_and_negative_horizon():
    sched = scaling_constants(uniform01(), 2.0, 10)
    path = sample_renewal_path(uniform01(), sched, 0.0, np.random.default_rng(1))
    assert len(path.times) == 0
    with pytest.raises(DomainError):
        sample_renewal_path(uniform01(), sched, -1.0, np.random.default_rng(1))


def test_capacity_cap(monkeypatch):
    sched = scaling_constants(uniform01(), 2.0, 10)
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 50)
    with pytest.raises(CapacityError, match="allocation budget"):
        sample_renewal_path(uniform01(), sched, 1.0, np.random.default_rng(2))
    # 200 events expected at n = 10, but the first block draws 301
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 300)
    with pytest.raises(CapacityError, match="renewal event array of 301 points"):
        sample_renewal_path(uniform01(), sched, 1.0, np.random.default_rng(2))
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 301)
    path = sample_renewal_path(uniform01(), sched, 1.0, np.random.default_rng(2))
    assert 150 < len(path.times) < 250


def test_renewal_count_mean():
    # second-order renewal expansion: horizon/mu + var/(2 mu^2) - 1/2
    # = 200 + 1/6 - 1/2 = 199.667 for uniform jumps at this scale
    sched = scaling_constants(uniform01(), 2.0, 10)
    counts = np.empty(10_000)
    rng = np.random.default_rng(9)
    for i in range(counts.size):
        counts[i] = len(sample_renewal_path(uniform01(), sched, 1.0, rng).times)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 199.6667) < 3 * se
    # coarse sanity band around 1/mean_step with Poisson-style spread
    assert abs(counts.mean() - 200.0) < 3 * math.sqrt(200.0) / 100.0


def test_reward_at_and_count():
    sched = scaling_constants(uniform01(), 2.0, 10)
    path = RenewalPath(
        initial_reward=0,
        times=np.array([0.2, 0.5, 0.7]),
        flips=np.array([1, 0, 1]),
        horizon=1.0,
        schedule=sched,
    )
    assert path.reward_at(0.6) == 1
    # an arrival exactly at t counts
    assert path.reward_at(0.7) == 2
    assert path.renewal_count(0.7) == 3
    assert path.renewal_count(0.1) == 0
    with pytest.raises(DomainError):
        path.reward_at(1.5)
    with pytest.raises(DomainError):
        path.reward_at(-0.1)


def test_reward_at_zero_uses_initial_reward():
    sched = scaling_constants(uniform01(), 2.0, 10)
    path = RenewalPath(
        initial_reward=1,
        times=np.array([0.5]),
        flips=np.array([1]),
        horizon=1.0,
        schedule=sched,
    )
    assert path.reward_at(0.0) == 1


def test_transport_no_flips_is_straight_line():
    sched = scaling_constants(deterministic(1.0), 2.0, 1)  # normalizer 1
    path = RenewalPath(
        initial_reward=0,
        times=np.empty(0),
        flips=np.empty(0, dtype=np.int64),
        horizon=1.0,
        schedule=sched,
    )
    tp = build_transport_path(path, sched)
    assert tp.value_at(1.0) == pytest.approx(1.0, rel=1e-15)
    assert tp.value_at(0.3) == pytest.approx(0.3, rel=1e-15)
    assert tp.value_at(0.0) == 0.0


def test_transport_hand_integrations():
    sched = scaling_constants(deterministic(1.0), 2.0, 1)
    single = RenewalPath(
        initial_reward=0,
        times=np.array([0.5]),
        flips=np.array([1]),
        horizon=1.0,
        schedule=sched,
    )
    tp = build_transport_path(single, sched)
    assert tp.value_at(1.0) == pytest.approx(0.0, abs=1e-15)

    half = ScalingSchedule(k=2.0, n=1, time_scale=1.0, normalizer=0.5, mean_step=0.5)
    path = RenewalPath(
        initial_reward=1,
        times=np.array([0.25, 0.75]),
        flips=np.array([1, 1]),
        horizon=1.0,
        schedule=half,
    )
    tp = build_transport_path(path, half)
    # starts downhill, turns up at 0.25, down again at 0.75
    assert tp.value_at(1.0) == pytest.approx(0.0, abs=1e-15)
    assert tp.value_at(0.5) == pytest.approx(2.0 * (-0.25 + 0.25), abs=1e-15)
    assert tp.value_at(0.25) == pytest.approx(-0.5, abs=1e-15)


def test_flips_without_sign_change_are_not_breakpoints():
    sched = scaling_constants(uniform01(), 2.0, 10)
    path = RenewalPath(
        initial_reward=0,
        times=np.array([0.2, 0.5, 0.7]),
        flips=np.array([1, 0, 1]),
        horizon=1.0,
        schedule=sched,
    )
    tp = build_transport_path(path, sched)
    assert np.array_equal(tp.knot_times, [0.0, 0.2, 0.7])


def test_schedule_mismatch_rejected():
    sched10 = scaling_constants(uniform01(), 2.0, 10)
    sched20 = scaling_constants(uniform01(), 2.0, 20)
    path = sample_renewal_path(uniform01(), sched10, 1.0, np.random.default_rng(3))
    with pytest.raises(ParameterError):
        build_transport_path(path, sched20)


def test_eval_matches_direct_integration():
    # interpolation against the independent sign-integral oracle; values can
    # cross zero, so the error scale is floored at one
    rng = np.random.default_rng(99)
    law = uniform01()
    sched = scaling_constants(law, 2.0, 10)
    worst = 0.0
    for _ in range(100):
        path = sample_renewal_path(law, sched, 1.0, rng)
        tp = build_transport_path(path, sched)
        for t in rng.random(10):
            want = _integrated_sign(path, sched, t)
            got = tp.value_at(t)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-12


def test_within_segment_slopes():
    rng = np.random.default_rng(5)
    law = uniform01()
    sched = scaling_constants(law, 2.0, 10)
    slope = 1.0 / sched.normalizer
    path = sample_renewal_path(law, sched, 1.0, rng)
    tp = build_transport_path(path, sched)
    knots = np.concatenate([tp.knot_times, [tp.horizon]])
    checked = 0
    for i in range(len(knots) - 1):
        # FD noise on micro-segments would swamp the slope; only segments at
        # least one mean step wide carry the 1e-10 contract
        if knots[i + 1] - knots[i] < sched.mean_step:
            continue
        lo = knots[i] + 0.25 * (knots[i + 1] - knots[i])
        hi = knots[i] + 0.75 * (knots[i + 1] - knots[i])
        checked += 1
        fd = (tp.value_at(hi) - tp.value_at(lo)) / (hi - lo)
        assert abs(abs(fd) - slope) / slope < 1e-10
        want_sign = tp.initial_sign * (-1) ** i
        assert np.sign(fd) == want_sign
    assert checked > 10


def test_flip_thinning_ratio():
    # breakpoints keep only flip=1 arrivals, a fair-coin thinning
    rng = np.random.default_rng(17)
    law = uniform01()
    sched = scaling_constants(law, 2.0, 10)
    events = 0
    breaks = 0
    for _ in range(10_000):
        path = sample_renewal_path(law, sched, 1.0, rng)
        tp = build_transport_path(path, sched)
        events += len(path.times)
        breaks += len(tp.knot_times) - 1
    ratio = breaks / events
    se = math.sqrt(0.25 / events)
    assert abs(ratio - 0.5) < 3 * se


def test_terminal_samples_variance_and_symmetry():
    law = uniform01()
    sched = scaling_constants(law, 2.0, 20)
    samples = terminal_samples(law, sched, 5000, np.random.default_rng(23))
    assert 0.9 < samples.var(ddof=1) < 1.1

    det = deterministic(1.0)
    sched_det = scaling_constants(det, 2.0, 20)
    det_samples = terminal_samples(det, sched_det, 5000, np.random.default_rng(29))
    assert abs(det_samples.mean()) < 0.05


def test_terminal_samples_rejects_zero_reps():
    sched = scaling_constants(uniform01(), 2.0, 10)
    with pytest.raises(InputError):
        terminal_samples(uniform01(), sched, 0, np.random.default_rng(0))


def test_eval_domain_errors():
    sched = scaling_constants(uniform01(), 2.0, 10)
    path = sample_renewal_path(uniform01(), sched, 1.0, np.random.default_rng(31))
    tp = build_transport_path(path, sched)
    with pytest.raises(DomainError):
        tp.value_at(1.0000001)
    with pytest.raises(DomainError):
        tp.value_at(-1e-9)
