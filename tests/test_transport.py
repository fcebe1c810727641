"""Scaling constants, and the transport path drawn without exit times."""

import math

import numpy as np
import pytest

import renewalbm.errors
from renewalbm.coupling import TransportPath, build_coupled_realization, transport_paths
from renewalbm.errors import BudgetError, InputError
from renewalbm.experiments import covariance_check, terminal_samples
from renewalbm.laws import deterministic, exponential, uniform01
from renewalbm.transport import ScalingSchedule, scaling_constants


def _integrated_sign(path, schedule, t):
    """Independent oracle: direct integration of the sign over the clock,
    one segment at a time, with no skeleton; the last step ends past the
    horizon, so past t."""
    val = 0.0
    prev = 0.0
    for time, sign in zip(path.path_times[1:], path.signs):
        if time >= t:
            return (val + sign * (t - prev)) / schedule.normalizer
        val += sign * (time - prev)
        prev = time


def _hand_path(signs, path_times, normalizer=1.0):
    """A TransportPath built by hand on [0, 1]; the skeleton is the signed
    sum of the segment lengths over the normalizer."""
    sched = ScalingSchedule(k=2.0, n=1, time_scale=1.0, normalizer=normalizer, mean_step=normalizer)
    times = np.asarray(path_times, dtype=float)
    skel = np.concatenate([[0.0], np.cumsum(np.asarray(signs) * np.diff(times) / normalizer)])
    return TransportPath(deterministic(1.0), sched, np.asarray(signs), times, skel, 1.0)


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
        with pytest.raises(InputError):
            scaling_constants(uniform01(), k, 10)
    with pytest.raises(InputError):
        scaling_constants(uniform01(), 2.0, 0)


def test_deterministic_ticks():
    # every step of a deterministic law lasts one mean step, so the clock
    # ticks at m * mean_step up to the rounding of its running sum, and the
    # path ends at the first tick past the horizon: the 100th or the 101st
    sched = scaling_constants(deterministic(1.0), 2.0, 10)
    path = next(transport_paths(deterministic(1.0), sched, 1.0, np.random.default_rng(0)))
    ticks = path.path_times[1:]
    assert len(ticks) in (100, 101)
    assert np.allclose(ticks, 0.01 * np.arange(1, len(ticks) + 1), rtol=1e-13, atol=0.0)
    assert ticks[-2] <= 1.0 < ticks[-1]


def test_zero_and_negative_horizon():
    sched = scaling_constants(uniform01(), 2.0, 10)
    path = next(transport_paths(uniform01(), sched, 0.0, np.random.default_rng(1)))
    # no arrival in [0, 0]: one step, which ends past the horizon
    assert len(path.signs) == 1 and path.path_times[1] > 0.0
    assert path.value_at(0.0) == 0.0
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(InputError):
            next(transport_paths(uniform01(), sched, horizon, np.random.default_rng(1)))


def test_capacity_cap(monkeypatch):
    # 200 steps expected at n = 10, drawn 200 + 4 sqrt(200) + 16 = 272.6 at
    # a time; a path holds three arrays of its steps plus one, twice
    sched = scaling_constants(uniform01(), 2.0, 10)
    expected = 1.0 / sched.mean_step
    points = 6 * (expected + 4.0 * math.sqrt(expected) + 16 + 1)
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 50)
    with pytest.raises(BudgetError, match="allocation budget"):
        next(transport_paths(uniform01(), sched, 1.0, np.random.default_rng(2)))
    # refused before the first draw: the generator is left untouched
    rng = np.random.default_rng(2)
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", int(8 * points) - 8)
    with pytest.raises(BudgetError, match="transport path arrays of 1,641 points"):
        transport_paths(uniform01(), sched, 1.0, rng)
    assert rng.random() == np.random.default_rng(2).random()
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", math.ceil(8 * points))
    path = next(transport_paths(uniform01(), sched, 1.0, np.random.default_rng(2)))
    assert 150 < len(path.signs) < 250


def test_renewal_count_mean():
    # second-order renewal expansion: horizon/mu + var/(2 mu^2) - 1/2
    # = 200 + 1/6 - 1/2 = 199.667 for uniform jumps at this scale; the
    # events of a path are its steps that end by the horizon
    sched = scaling_constants(uniform01(), 2.0, 10)
    paths = transport_paths(uniform01(), sched, 1.0, np.random.default_rng(9))
    counts = np.array([len(next(paths).signs) - 1 for _ in range(10_000)])
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 199.6667) < 3 * se
    # coarse sanity band around 1/mean_step with Poisson-style spread
    assert abs(counts.mean() - 200.0) < 3 * math.sqrt(200.0) / 100.0


def test_transport_no_flips_is_straight_line():
    tp = _hand_path([1, 1, 1], [0.0, 0.3, 0.8, 1.5])
    assert tp.value_at(1.0) == pytest.approx(1.0, rel=1e-15)
    assert tp.value_at(0.3) == pytest.approx(0.3, rel=1e-15)
    assert tp.value_at(0.0) == 0.0
    times, values = tp.knots()
    assert np.array_equal(times, [0.0]) and np.array_equal(values, [0.0])


def test_transport_hand_integrations():
    single = _hand_path([1, -1], [0.0, 0.5, 1.5])
    assert single.value_at(1.0) == pytest.approx(0.0, abs=1e-15)

    # starts downhill, turns up at 0.25, down again at 0.75
    tp = _hand_path([-1, 1, -1], [0.0, 0.25, 0.75, 1.25], normalizer=0.5)
    assert tp.value_at(1.0) == pytest.approx(0.0, abs=1e-15)
    assert tp.value_at(0.5) == pytest.approx(2.0 * (-0.25 + 0.25), abs=1e-15)
    assert tp.value_at(0.25) == pytest.approx(-0.5, abs=1e-15)
    times, values = tp.knots()
    assert np.array_equal(times, [0.0, 0.25, 0.75]) and np.array_equal(values, [0.0, -0.5, 0.5])


def test_flips_without_sign_change_are_not_breakpoints():
    # a new step with the sign of the last one leaves the slope alone
    tp = _hand_path([1, -1, -1, 1], [0.0, 0.2, 0.5, 0.7, 1.2])
    assert np.array_equal(tp.knots()[0], [0.0, 0.2, 0.7])


def test_eval_matches_direct_integration():
    # interpolation against the independent sign-integral oracle; values can
    # cross zero, so the error scale is floored at one
    rng = np.random.default_rng(99)
    law = uniform01()
    sched = scaling_constants(law, 2.0, 10)
    worst = 0.0
    paths = transport_paths(law, sched, 1.0, rng)
    for _ in range(100):
        path = next(paths)
        for t in rng.random(10):
            want = _integrated_sign(path, sched, t)
            got = path.value_at(t)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst < 1e-12


def test_within_segment_slopes():
    rng = np.random.default_rng(5)
    law = uniform01()
    sched = scaling_constants(law, 2.0, 10)
    slope = 1.0 / sched.normalizer
    tp = next(transport_paths(law, sched, 1.0, rng))
    knots, _ = tp.knots()
    knots = np.append(knots, tp.horizon)
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
        want_sign = tp.signs[0] * (-1) ** i
        assert np.sign(fd) == want_sign
    assert checked > 10


def test_flip_thinning_ratio():
    # a step's sign is a fair coin of its own, so the slope changes at half
    # of the arrivals
    law = uniform01()
    sched = scaling_constants(law, 2.0, 10)
    paths = transport_paths(law, sched, 1.0, np.random.default_rng(17))
    events = 0
    breaks = 0
    for _ in range(10_000):
        tp = next(paths)
        events += len(tp.signs) - 1
        breaks += len(tp.knots()[0]) - 1
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
    for reps in (0, 150.0, True):
        with pytest.raises(InputError, match="reps"):
            terminal_samples(uniform01(), sched, reps, np.random.default_rng(0))
    for reps in (99, 150.0, True):
        with pytest.raises(InputError, match="reps"):
            covariance_check(uniform01(), 2.0, 10, 0.5, 1.0, reps, np.random.default_rng(0))
    assert terminal_samples(uniform01(), sched, np.int64(3), np.random.default_rng(0)).shape == (3,)


def test_eval_domain_errors():
    sched = scaling_constants(uniform01(), 2.0, 10)
    tp = next(transport_paths(uniform01(), sched, 1.0, np.random.default_rng(31)))
    with pytest.raises(InputError):
        tp.value_at(1.0000001)
    with pytest.raises(InputError):
        tp.value_at(-1e-9)
    # a NaN time, alone or in an array, is outside the range too
    real = build_coupled_realization(uniform01(), sched, np.random.default_rng(31), engine="exact")
    for path in (tp, real):
        for t in (math.nan, [0.5, math.nan]):
            with pytest.raises(InputError, match="evaluation time t"):
                path.value_at(t)
