"""Exact first-exit law for Brownian motion on [-1, 1] and the grid walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import renewalbm.errors
import renewalbm.exit_times
from renewalbm.errors import BudgetError, InputError, NumericError
from renewalbm.exit_times import (
    _GUIDE_BINS,
    _UPPER_BRACKET,
    SERIES_SWITCH_T,
    _cdf_large_t,
    _cdf_small_t,
    _density_large_t,
    _density_small_t,
    _table_cell,
    _tables,
    first_crossing,
    grid_exit,
    invert_unit_cdf,
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


def test_series_values_do_not_depend_on_their_neighbours():
    # each element sums the terms its own t needs, never its call's worst
    rng = np.random.default_rng(8)
    small = np.concatenate([rng.uniform(1e-3, SERIES_SWITCH_T, 300), [np.nextafter(SERIES_SWITCH_T, 0.0)]])
    large = np.concatenate([rng.uniform(SERIES_SWITCH_T, _UPPER_BRACKET, 300), [SERIES_SWITCH_T]])
    for series, t in (
        (_cdf_small_t, small), (_density_small_t, small), (_cdf_large_t, large), (_density_large_t, large)
    ):
        alone = np.array([series(t[i : i + 1])[0] for i in range(t.size)])
        assert series(t).tobytes() == alone.tobytes()


def _reference_series(terms, tol):
    # terms[j] holds term j at every t; each element sums, in plain Python and
    # in j order, every term through its first one below the tolerance
    out = []
    for i in range(terms.shape[1]):
        total = 0.0
        for term in terms[:, i]:
            total += term
            if abs(term) < tol:
                break
        else:
            raise AssertionError(f"64 terms do not reach the tolerance at element {i}")
        out.append(total)
    return np.array(out)


def test_series_match_a_per_element_reference():
    # term arrays over the whole t array, so exp and ndtr run as on the
    # library's subsets; the stopping rule is pinned bit for bit
    rng = np.random.default_rng(18)
    switch = [np.nextafter(SERIES_SWITCH_T, 0.0), SERIES_SWITCH_T]
    t = np.concatenate([np.geomspace(5e-3, _UPPER_BRACKET, 4095), rng.uniform(1e-3, 2.0, 400), switch])
    small, large = t[t < SERIES_SWITCH_T], t[t >= SERIES_SWITCH_T]
    tol = renewalbm.exit_times.SERIES_TERM_TOL
    root = 1.0 / np.sqrt(small)
    log_scale = math.log(2.0 / math.sqrt(2.0 * math.pi)) - 1.5 * np.log(small)
    image_cdf, image_density, survival, density = [], [], [], []
    for j in range(64):
        m, sign = 2 * j + 1, (-1.0) ** j
        image_cdf.append(special.ndtr(-(4 * j + 1) * root) - special.ndtr(-(4 * j + 3) * root))
        image_density.append(sign * m * np.exp(log_scale - (m * m) * (0.5 / small)))
        spectral = np.exp(-(m * m) * (math.pi * math.pi / 8.0) * large)
        survival.append(sign * ((4.0 / math.pi) / m) * spectral)
        density.append(sign * ((math.pi / 2.0) * m) * spectral)
    cases = (
        (_cdf_small_t, small, 4.0 * _reference_series(np.array(image_cdf), tol / 4.0)),
        (_density_small_t, small, _reference_series(np.array(image_density), tol)),
        (_cdf_large_t, large, np.clip(1.0 - _reference_series(np.array(survival), tol), 0.0, 1.0)),
        (_density_large_t, large, _reference_series(np.array(density), tol)),
    )
    for series, at, want in cases:
        assert series(at).tobytes() == want.tobytes(), series.__name__


@pytest.mark.parametrize("series, t, name", [
    (_cdf_small_t, 0.04, "image series for the exit distribution"),
    (_density_small_t, 0.04, "image series for the exit density"),
    (_cdf_large_t, 0.5, "spectral series for the exit distribution"),
    (_density_large_t, 0.5, "spectral series for the exit density"),
])
def test_series_that_do_not_converge_raise(monkeypatch, series, t, name):
    # each t needs a second term; one allowed term leaves it unconverged
    monkeypatch.setattr(renewalbm.exit_times, "_MAX_TERMS", 1)
    with pytest.raises(NumericError, match=name):
        series(np.array([t]))


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
    _check_inversion(_tables().f)


def test_inversion_keeps_shape_and_blocks(monkeypatch):
    u = np.random.default_rng(5).random((3, 7))
    whole = invert_unit_cdf(u)
    assert whole.shape == (3, 7)
    # every element truncates its series at its own t, so a draw's bits do
    # not depend on which other draws share its block
    for block in (1, 4, 1 << 15):
        monkeypatch.setattr(renewalbm.exit_times, "_INVERT_BLOCK", block)
        blocked = invert_unit_cdf(u)
        assert np.array_equal(blocked, whole)
        assert np.all(np.abs(unit_exit_cdf(blocked) - u) <= 1e-10)
        assert np.all(np.abs(unit_exit_cdf(blocked) - unit_exit_cdf(whole)) <= 2e-10)


def _midpoint_start(monkeypatch):
    # every draw starts at the middle of its table cell, which misses the
    # tolerance, so the inversion must go on past its first evaluation
    table_start = renewalbm.exit_times._table_start

    def start(u, tables):
        _, lo, hi = table_start(u, tables)
        return 0.5 * (lo + hi), lo, hi

    monkeypatch.setattr(renewalbm.exit_times, "_table_start", start)


def test_inversion_raises_past_the_pass_bound(monkeypatch):
    _midpoint_start(monkeypatch)
    u = np.linspace(0.1, 0.9, 9)
    t, _, _ = renewalbm.exit_times._table_start(u, _tables())
    assert np.all(np.abs(unit_exit_cdf(t) - u) > 1e-10)
    monkeypatch.setattr(renewalbm.exit_times, "_MAX_PASSES", 1)
    with pytest.raises(NumericError):
        invert_unit_cdf(u)


def _counted_cdf(monkeypatch):
    # counts the values unit_exit_cdf is evaluated at, as bench/tracing.py does
    evals = [0]

    def cdf(t):
        evals[0] += np.size(t)
        return unit_exit_cdf(t)

    monkeypatch.setattr(renewalbm.exit_times, "unit_exit_cdf", cdf)
    return evals


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_newton_fallback_meets_the_tolerance(u):
    # the draws the cubic start would accept at once, sent through the
    # Newton and bisection passes instead
    with pytest.MonkeyPatch.context() as monkeypatch:
        _midpoint_start(monkeypatch)
        evals = _counted_cdf(monkeypatch)
        _check_inversion(u + [0.1, 0.5, 0.9])
        assert evals[0] >= len(u) + 2 * 3  # the last three took a second pass


def test_one_evaluation_per_draw(monkeypatch):
    evals = _counted_cdf(monkeypatch)
    # the tables are built inside the counted call, as in a fresh process,
    # and their build evaluates F without going through unit_exit_cdf
    _tables.cache_clear()
    u = np.random.default_rng(17).random(1 << 16)
    t = invert_unit_cdf(u)
    assert evals[0] <= 1.01 * u.size
    assert np.all(np.abs(unit_exit_cdf(t) - u) <= 1e-10)


def _check_cells(u):
    u = np.asarray(u, dtype=float)
    f = _tables().f
    want = np.clip(np.searchsorted(f, u, "right"), 1, f.size - 1)
    assert np.array_equal(_table_cell(u, _tables()), want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_guide_table_cells_are_the_searched_cells(u):
    _check_cells(u)


def test_guide_table_cells_at_nodes_and_bin_edges():
    edges = np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS
    f = _tables().f
    _check_cells([0.0, 1.0])
    _check_cells(f)
    _check_cells(np.nextafter(f, 0.0))
    _check_cells(np.nextafter(f[:-1], 1.0))
    _check_cells(edges)
    _check_cells(np.nextafter(edges[1:], 0.0))
    _check_cells(np.nextafter(edges[:-1], 1.0))


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
    with pytest.raises(InputError):
        grid_exit(0.0, 1e-4, rng)
    with pytest.raises(InputError):
        grid_exit(1.0, 0.02, rng)  # h above a^2/100


def test_exact_sampler_moments():
    # tau_1 = invert_unit_cdf(u) has mean 1 and variance 2/3
    tau = invert_unit_cdf(np.random.default_rng(7).random(100_000))
    assert abs(tau.mean() - 1.0) < 0.02
    assert abs(tau.var(ddof=1) - 2.0 / 3.0) < 0.05


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
    # a barrier <= 0 is crossed at the next point, even where the walk is flat
    assert first_crossing(np.zeros(3), 0, 0.0) == 1
    assert first_crossing(v, 3, -0.3, chunk=1) == 4
    assert first_crossing(v, 4, -0.3) == -1


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
    # the grid engine passes barriers <= 0 for levels below BGK_SHIFT * sqrt(h)
    level=st.floats(-1.0, 3.0, allow_nan=False),
    chunk=st.integers(1, 64),
)
def test_first_crossing_matches_brute_force(steps, data, level, chunk):
    v = np.concatenate([[0.0], np.cumsum(steps)])
    start = data.draw(st.integers(0, len(v) - 1), label="start")
    want = next(
        (j for j in range(start + 1, len(v)) if abs(v[j] - v[start]) >= level), -1
    )
    assert first_crossing(v, start, level, chunk=chunk) == want
