"""Skorokhod-embedding coupling: levels, clocks, skeleton, and the sup bound."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import renewalbm.coupling
import renewalbm.errors
from renewalbm.coupling import (
    BGK_SHIFT,
    CoupledRealization,
    GridPath,
    build_coupled_realization,
    decompose_sup,
    embedding_diagnostics,
    sample_embedding_steps,
    _grid_horizon_index,
    sample_exit_level,
    sup_distance,
)
from renewalbm.errors import BudgetError, DomainError, InputError, ParameterError, UnsupportedModeError
from renewalbm.experiments import ks_uniform, skeleton_identity_error
from renewalbm.laws import deterministic, two_point, uniform01
from renewalbm.streams import ROLE_RATE, derived_rng
from renewalbm.transport import scaling_constants

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


def _value_at_sup(real):
    # the formulation sup_distance had before its knot search: one
    # searchsorted per grid time through value_at, kept as the reference
    i_max = _grid_horizon_index(real.grid)
    t = np.arange(i_max + 1) * real.grid.step
    return float(np.abs(real.value_at(t) - real.grid.values[: i_max + 1]).max())


@settings(max_examples=200, deadline=None)
@given(
    points=st.floats(1.0, 400.0),
    data=st.data(),
    block=st.integers(1, 200),
    n=st.sampled_from([2, 10, 64]),
)
def test_sup_distance_matches_value_at_exactly(points, data, block, n):
    h = 1.0 / points
    i_max = int(1.0 / h) + 1
    while i_max * h > 1.0:
        i_max -= 1
    # interior knots: on grid times i * h, anywhere in [0, 1.5], or repeats
    on_grid = st.integers(0, i_max).map(lambda i: i * h)
    knots = data.draw(st.lists(on_grid | st.floats(0.0, 1.5), max_size=40), label="knots")
    repeats = data.draw(st.lists(st.sampled_from(knots), max_size=10) if knots else st.just([]),
                        label="repeats")
    interior = sorted(knots + repeats)
    last = max([1.0] + interior) + data.draw(st.floats(1e-9, 0.5), label="tail")
    path_times = np.array([0.0] + interior + [last])
    steps = len(path_times) - 1
    values = st.floats(-3.0, 3.0)
    signs = data.draw(arrays(np.int64, steps, elements=st.sampled_from([-1, 1])), label="signs")
    skeleton = data.draw(arrays(np.float64, steps + 1, elements=values), label="skeleton")
    extra = data.draw(st.integers(0, 5), label="extra")
    walk = data.draw(arrays(np.float64, i_max + 1 + extra, elements=values), label="walk")
    sched = scaling_constants(LAW, 2.0, n)
    durations = np.diff(path_times)
    real = CoupledRealization(
        law=LAW, schedule=sched, engine="grid", levels=durations / sched.normalizer,
        signs=signs, exit_times=durations, durations=durations, path_times=path_times,
        bm_times=path_times, skeleton=skeleton, first_cover=0,
        grid=GridPath(step=h, values=walk, max_increment=0.0), bm_index=None,
    )
    with mock.patch.object(renewalbm.coupling, "SUP_BLOCK", block):
        assert sup_distance(real) == _value_at_sup(real)


@pytest.mark.parametrize("law", [deterministic(1.0), two_point(0.0, 1.0, 0.5)],
                         ids=["deterministic", "two_point"])
def test_sup_distance_matches_value_at_on_builds(law):
    # equal knot spacing puts knots on or next to grid times; the zero atom
    # of two_point repeats knots
    for n, seed in ((4, 1), (8, 2), (8, 3)):
        sched = scaling_constants(law, 2.0, n)
        real = build_coupled_realization(law, sched, np.random.default_rng(seed))
        assert sup_distance(real) == _value_at_sup(real)


def test_grid_engine_bits_are_pinned():
    # decompose_sup of three rate-stream realizations, bit for bit; a change
    # that moves the grid engine's draw order or arithmetic must update these
    want = [
        ("0x1.898dec473e5c6p-2", "0x1.ddbe8d40c4870p-2", "0x1.7ace6512fac29p-2",
         "0x1.6dec58ae831ccp-2", "0x1.36d9b559a5c86p-3", "0x1.5538d19e7726ep-5"),
        ("0x1.4f473cc972eb3p-1", "0x1.75a99e4490e93p-1", "0x1.8bc4bb61a38f6p-2",
         "0x1.3cf1e35ac3b5cp-2", "0x1.32fb9f2e6cf81p-3", "0x1.4dc2f09aa9e7ep-5"),
        ("0x1.3f8a113e1a620p-1", "0x1.7176f399622cep-1", "0x1.88c5ca3e2de54p-2",
         "0x1.322f26a22078cp-2", "0x1.37a2f59b81471p-3", "0x1.af30738f85a80p-5"),
    ]
    sched = scaling_constants(LAW, 2.0, 8)
    for rep, literals in enumerate(want):
        real = build_coupled_realization(LAW, sched, derived_rng(17, ROLE_RATE, 8, rep))
        dec = decompose_sup(real)
        got = (dec.sup, dec.j1, dec.j2, dec.j3, dec.j4, dec.slack)
        assert got == tuple(float.fromhex(x) for x in literals)


def test_grid_horizon_index_reaches_t_equal_1():
    # at n = 10, h = 5e-6: 1 / h is 199999.99999999997 but 200000 * h == 1
    real = build_coupled_realization(LAW, SCHED10, derived_rng(3, ROLE_RATE, 10, 0))
    h = real.grid.step
    assert h == 5e-6 and 200000 * h == 1.0
    assert _grid_horizon_index(real.grid) == 200000
    t = np.arange(200001) * h
    want = float(np.abs(real.value_at(t) - real.grid.values[:200001]).max())
    assert sup_distance(real) == want


@settings(max_examples=500, deadline=None)
@given(h=st.floats(1e-9, 1.0))
@example(h=5e-6)
@example(h=1.0)
def test_grid_horizon_index_is_last_grid_time_at_or_before_1(h):
    # a zero-stride walk: the index needs only the step and the length
    walk = np.broadcast_to(0.0, (int(1.0 / h) + 3,))
    i = _grid_horizon_index(GridPath(step=h, values=walk, max_increment=0.0))
    assert i * h <= 1.0 < (i + 1) * h


class _Refused(Exception):
    pass


def _initial_walk_points(monkeypatch, n):
    """Points of the initial grid walk at scale n, stopped before allocating."""
    asked = []

    def record(points, what, *args):
        asked.append(points)
        raise _Refused

    monkeypatch.setattr(renewalbm.coupling, "check_budget", record)
    with pytest.raises(_Refused):
        build_coupled_realization(LAW, scaling_constants(LAW, 2.0, n), np.random.default_rng(0))
    return asked[0]


def test_byte_budget_fits_n128_and_refuses_n256(monkeypatch):
    walk128 = _initial_walk_points(monkeypatch, 128)
    walk256 = _initial_walk_points(monkeypatch, 256)
    # the n = 128 walk and its first extension (a quarter more) fit
    assert 8 * (walk128 + walk128 // 4) <= renewalbm.errors.ALLOC_BUDGET_BYTES
    assert 8 * walk256 > renewalbm.errors.ALLOC_BUDGET_BYTES


def test_grid_walk_extension_is_checked(monkeypatch):
    # the initial n = 4 walk holds 40625 points; seed 3 runs past its end
    sched = scaling_constants(LAW, 2.0, 4)
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 40624)
    with pytest.raises(BudgetError, match="initial grid walk of 40,625 points"):
        build_coupled_realization(LAW, sched, np.random.default_rng(3))
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 40625)
    with pytest.raises(BudgetError, match="extended grid walk"):
        build_coupled_realization(LAW, sched, np.random.default_rng(3))
