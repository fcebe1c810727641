"""Exact first-exit law for Brownian motion on [-1, 1] and the grid walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import renewalbm.errors
import renewalbm.exit_times
from renewalbm.errors import BudgetError, NumericError, ParameterError
from renewalbm.exit_times import (
    _TABLE_F,
    _UPPER_BRACKET,
    SERIES_SWITCH_T,
    SERIES_TERM_TOL,
    _density_large_t,
    _density_small_t,
    first_crossing,
    grid_exit,
    invert_unit_cdf,
    sample_first_exit,
    unit_exit_cdf,
    unit_exit_density,
)


def bisect_unit_cdf(u: np.ndarray, *, prob_tol: float = 1e-10, max_iter: int = 128) -> np.ndarray:
    """Solve unit_exit_cdf(t) = u elementwise by bisection.

    Convergence criterion is the bracket width measured in probability, so
    every returned draw carries distribution-function error at most prob_tol.
    """
    u = np.asarray(u, dtype=float)
    lo = np.zeros_like(u)
    hi = np.full_like(u, _UPPER_BRACKET)
    flo = np.zeros_like(u)
    fhi = np.ones_like(u)
    active = np.arange(u.size)
    for _ in range(max_iter):
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        fm = unit_exit_cdf(mid)
        below = fm < u[active]
        lo[active] = np.where(below, mid, lo[active])
        flo[active] = np.where(below, fm, flo[active])
        hi[active] = np.where(below, hi[active], mid)
        fhi[active] = np.where(below, fhi[active], fm)
        active = active[(fhi[active] - flo[active]) > prob_tol]
    if active.size:
        raise NumericError("bisection did not reach the probability tolerance")
    return 0.5 * (lo + hi)


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


def _check_inversion(u):
    # the Newton inversion against its contract and against the bisection
    u = np.sort(np.asarray(u, dtype=float))
    t = invert_unit_cdf(u)
    assert np.all(t > 0.0) and np.all(np.isfinite(t))
    f = unit_exit_cdf(t)
    assert np.all(np.abs(f - u) <= 1e-10)
    assert np.all(np.abs(f - unit_exit_cdf(bisect_unit_cdf(u))) <= 2e-10)
    assert np.all(np.diff(t) >= 0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_inversion_properties(u):
    _check_inversion(u)


def test_inversion_edge_points():
    f_switch = unit_exit_cdf(SERIES_SWITCH_T)
    _check_inversion([0.0, 2.0**-53, 1.0 - 2.0**-53, f_switch - 1e-12, f_switch + 1e-12])
    _check_inversion(_TABLE_F)


def test_inversion_keeps_shape_and_blocks(monkeypatch):
    u = np.random.default_rng(5).random((3, 7))
    whole = invert_unit_cdf(u)
    assert whole.shape == (3, 7)
    # a block's series truncation depends on its members, so bits may move
    # with the block size; the tolerance may not
    monkeypatch.setattr(renewalbm.exit_times, "_INVERT_BLOCK", 4)
    blocked = invert_unit_cdf(u)
    assert np.all(np.abs(unit_exit_cdf(blocked) - u) <= 1e-10)
    assert np.all(np.abs(unit_exit_cdf(blocked) - unit_exit_cdf(whole)) <= 2e-10)


def test_inversion_raises_past_the_pass_bound(monkeypatch):
    # interpolated starts miss the tolerance, so one evaluation cannot do
    monkeypatch.setattr(renewalbm.exit_times, "_MAX_PASSES", 1)
    with pytest.raises(NumericError):
        invert_unit_cdf(np.linspace(0.1, 0.9, 9))


def test_density_matches_central_difference():
    h = 1e-6
    for t in (np.linspace(0.01, 0.049, 40), np.linspace(0.051, 6.0, 60)):
        fd = (unit_exit_cdf(t + h) - unit_exit_cdf(t - h)) / (2.0 * h)
        assert np.allclose(unit_exit_density(t), fd, rtol=1e-5, atol=1e-6)


def test_density_continuous_at_switch():
    t = np.array([SERIES_SWITCH_T])
    assert abs(_density_small_t(t)[0] - _density_large_t(t)[0]) < 1e-10
    below, above = unit_exit_density(np.array([SERIES_SWITCH_T - 1e-12, SERIES_SWITCH_T]))
    assert abs(above - below) < 1e-10
    assert unit_exit_density(0.0) == 0.0 and unit_exit_density(-1.0) == 0.0


def test_sampler_parameter_checks():
    rng = np.random.default_rng(0)
    for a in (0.0, -1.0):
        with pytest.raises(ParameterError):
            sample_first_exit(a, rng)
    # no tolerance at or below the series' own truncation error can be verified
    for tol in (0.0, -1e-3, SERIES_TERM_TOL, 1.0, 2.0, math.nan):
        with pytest.raises(ParameterError):
            sample_first_exit(1.0, rng, size=3, prob_tol=tol)
        with pytest.raises(ParameterError):
            invert_unit_cdf(np.array([0.5]), prob_tol=tol)
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
    from renewalbm.experiments import ks_two_sample

    res = ks_two_sample(tau1, tau2 / 4.0)
    assert res.p_value > 0.01


def test_sample_first_exit_scalar_form():
    rng = np.random.default_rng(3)
    tau, sign = sample_first_exit(0.5, rng)
    assert isinstance(tau, float) and sign in (-1, 1)
    assert tau > 0


def grid_exit_with_walk(a, h, rng, *, max_steps=10**9):
    """The walk-keeping grid_exit the current one replaced, kept verbatim as
    its reference: (exit_time, sign, walk), walk[0] = 0 and walk[-1] the
    first value at or beyond +/-a."""
    sqrt_h = math.sqrt(h)
    block = min(max_steps, int(1.25 * a * a / h) + 64)
    blocks: list[np.ndarray] = []
    last = 0.0
    used = 0
    while used < max_steps:
        m = min(block, max_steps - used)
        w = last + np.cumsum(rng.standard_normal(m) * sqrt_h)
        hit = np.abs(w) >= a
        j = int(np.argmax(hit))
        if hit[j]:
            blocks.append(w[: j + 1])
            used += j + 1
            values = np.concatenate([np.zeros(1), *blocks])
            return used * h, 1 if w[j] > 0 else -1, values
        blocks.append(w)
        used += m
        last = float(w[-1])
        block = max(1024, block // 2)
    raise BudgetError(f"no exit within {max_steps} steps (a={a!r}, h={h!r})")


@pytest.mark.parametrize("a, h", [(1.0, 1e-3), (1.0, 1e-4), (0.3, 1e-4), (2.0, 1e-3), (0.05, 2.5e-5)])
def test_grid_exit_matches_walk_keeping_reference(a, h):
    # (0.05, 2.5e-5) starts below the 1024-point floor, so its blocks grow
    for seed in range(8):
        ref_rng = np.random.default_rng(seed)
        ref_time, ref_sign, walk = grid_exit_with_walk(a, h, ref_rng)
        # the reference's own walk invariants: only the final entry is past +/-a
        assert walk[0] == 0.0 and abs(walk[-1]) >= a
        assert np.all(np.abs(walk[:-1]) < a)
        assert ref_time == (len(walk) - 1) * h
        rng = np.random.default_rng(seed)
        assert grid_exit(a, h, rng) == (ref_time, ref_sign)
        assert rng.random() == ref_rng.random()  # the same draws were consumed


def test_grid_exit_mean_and_sign():
    rng = np.random.default_rng(37)
    n = 2000
    times = np.empty(n)
    signs = np.empty(n)
    for i in range(n):
        times[i], signs[i] = grid_exit(1.0, 1e-4, rng)
    se = times.std(ddof=1) / math.sqrt(n)
    # discrete walk exits late by O(sqrt(h)) per side; allow bias plus noise
    assert abs(times.mean() - 1.0) < 0.01 + 3 * se
    assert abs(signs.mean()) < 3.0 / math.sqrt(n)


def test_grid_exit_budget(monkeypatch):
    # the first block at a = 1, h = 1e-4 holds 12564 points
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 12563)
    with pytest.raises(BudgetError, match="allocation budget"):
        grid_exit(1.0, 1e-4, np.random.default_rng(41))
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 12564)
    assert grid_exit(1.0, 1e-4, np.random.default_rng(41))[0] > 0
    monkeypatch.undo()
    # a block of 1.25e9 points would need 10 GB; nothing is drawn
    rng = np.random.default_rng(43)
    with pytest.raises(BudgetError, match="allocation budget"):
        grid_exit(1.0, 1e-9, rng)
    assert rng.random() == np.random.default_rng(43).random()


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
