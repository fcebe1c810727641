"""Skorokhod-embedding coupling: levels, clocks, skeleton, and the sup bound."""

import math
from dataclasses import fields
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
    SUP_BLOCK,
    CoupledRealization,
    GridPath,
    StepBlock,
    build_coupled_realization,
    decompose_sup,
    embedding_diagnostics,
    exact_blocks,
    sample_embedding_steps,
    _first_grid_index,
    _grid_horizon_index,
    sample_exit_level,
    sup_distance,
)
from renewalbm.errors import BudgetError, InputError
from renewalbm.experiments import ks_uniform, skeleton_identity_error
from renewalbm.laws import deterministic, two_point, uniform01
from renewalbm.streams import ROLE_COUPLE, ROLE_RATE, derived_rng
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
    with pytest.raises(InputError):
        real.value_at(real.path_times[-1] * 1.000001)
    with pytest.raises(InputError):
        real.value_at(-1e-12)


def test_engine_and_step_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        build_coupled_realization(LAW, SCHED10, rng, engine="fancy")
    with pytest.raises(InputError):
        build_coupled_realization(LAW, SCHED10, rng, engine="exact", grid_step=1e-5)
    for bad in (0.0, -1e-6, SCHED10.mean_step * 1.5):
        with pytest.raises(InputError):
            build_coupled_realization(LAW, SCHED10, rng, grid_step=bad)


def test_sup_modes_need_grid_engine():
    real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(3), engine="exact")
    with pytest.raises(InputError):
        sup_distance(real, "grid")
    with pytest.raises(InputError):
        decompose_sup(real)
    grid_real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(3))
    with pytest.raises(InputError):
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


def _blockwise_sup(real, block=SUP_BLOCK):
    # the formulation sup_distance had before it pruned segments: every grid
    # time evaluated, one block of points at a time, kept as the reference
    grid = real.grid
    h = grid.step
    size = _grid_horizon_index(grid) + 1
    m = real.n_steps
    starts = np.concatenate([[0], _first_grid_index(real.path_times[1:m], h, size)])
    w = grid.values
    norm = real.schedule.normalizer
    best = 0.0
    for a in range(0, size, block):
        b = min(a + block, size)
        lo = int(np.searchsorted(starts, a, side="right")) - 1
        hi = int(np.searchsorted(starts, b, side="left"))
        counts = np.diff(np.append(np.clip(starts[lo:hi], a, b), b))
        gap = np.arange(a, b, dtype=float)
        gap *= h
        gap -= np.repeat(real.path_times[lo:hi], counts)
        gap *= np.repeat(real.signs[lo:hi], counts)
        gap /= norm
        gap += np.repeat(real.skeleton[lo:hi], counts)
        gap -= w[a:b]
        best = max(best, float(np.abs(gap, out=gap).max()))
    return best


def _hand_built(path_times, signs, skeleton, walk, h, n, levels=None):
    sched = scaling_constants(LAW, 2.0, n)
    durations = np.diff(path_times)
    return CoupledRealization(
        law=LAW, schedule=sched, engine="grid",
        levels=durations / sched.normalizer if levels is None else levels,
        signs=np.asarray(signs), exit_times=durations, durations=durations, path_times=path_times,
        bm_times=path_times, skeleton=np.asarray(skeleton, dtype=float), first_cover=0,
        grid=GridPath(step=h, values=walk, max_increment=0.0), bm_index=None,
    )


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
    real = _hand_built(path_times, signs, skeleton, walk, h, n)
    sup = sup_distance(real)
    assert sup == _value_at_sup(real)
    assert sup == _blockwise_sup(real, block)


@pytest.mark.parametrize("law", [deterministic(1.0), two_point(0.0, 1.0, 0.5)],
                         ids=["deterministic", "two_point"])
def test_sup_distance_matches_value_at_on_builds(law):
    # equal knot spacing puts knots on or next to grid times; the zero atom
    # of two_point repeats knots
    for n, seed in ((4, 1), (8, 2), (8, 3)):
        sched = scaling_constants(law, 2.0, n)
        real = build_coupled_realization(law, sched, np.random.default_rng(seed))
        sup = sup_distance(real)
        assert sup == _value_at_sup(real)
        assert sup == _blockwise_sup(real)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_sup_distance_matches_the_blockwise_scan_on_builds(n):
    sched = scaling_constants(LAW, 2.0, n)
    for rep in range(6 if n < 32 else 3):
        real = build_coupled_realization(LAW, sched, derived_rng(29, ROLE_RATE, n, rep))
        assert sup_distance(real) == _blockwise_sup(real)


def test_sup_distance_reads_no_levels():
    # The segment bounds come from the knots, so a realization whose levels
    # disagree with its knots keeps its sup. Here segment 0 climbs from 0 to
    # 0.5 / normalizer over a flat walk, far past the gap 0.1 at the first
    # grid time of segment 1.
    h = 1e-3
    path_times = np.array([0.0, 0.5, 1.5])
    real = _hand_built(path_times, [1, -1], [0.0, 0.1, 0.0], np.zeros(1001), h, 2,
                       levels=np.zeros(2))
    want = _blockwise_sup(real)
    assert want > 1.0
    assert sup_distance(real) == want


def test_grid_engine_bits_are_pinned():
    # decompose_sup of three rate-stream realizations, bit for bit; a change
    # that moves the grid engine's draw order or arithmetic must update these.
    # Re-recorded when each quantity moved to its own child stream and the
    # build began to stop at the rule shared with the exact engine.
    want = [
        ("0x1.3e427a4d90d08p-1", "0x1.62ada2eda533dp-1", "0x1.8568dbb12b28cp-2",
         "0x1.2ad883347d606p-2", "0x1.332d6a39c8b01p-3", "0x1.be93c3eb3a6c4p-5"),
        ("0x1.1275217eddb40p-1", "0x1.2090f921dab90p-1", "0x1.877a3828a2d33p-2",
         "0x1.4a63e8f5df67cp-2", "0x1.38ca2cc088e14p-3", "0x1.5c561b173c080p-5"),
        ("0x1.2c5200fc3cd38p-1", "0x1.15c2cf43dd79ep-1", "0x1.3d11df4057f76p-2",
         "0x1.34d7418ea670dp-2", "0x1.3808290c0b7aap-3", "0x1.32e0c52f9b204p-5"),
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
    # the initial n = 4 walk holds 40625 points; seed 35 runs past its end
    sched = scaling_constants(LAW, 2.0, 4)
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 40624)
    with pytest.raises(BudgetError, match="initial grid walk of 40,625 points"):
        build_coupled_realization(LAW, sched, np.random.default_rng(35))
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 40625)
    with pytest.raises(BudgetError, match="extended grid walk"):
        build_coupled_realization(LAW, sched, np.random.default_rng(35))


@pytest.mark.parametrize("seed, misses", [(35, 2), (3, 0)])
def test_grid_scan_calls_first_crossing_once_per_step_and_extension(monkeypatch, seed, misses):
    # The benchmark counts the scan's calls through this module-level name.
    # At n = 4 the walk's first block fills the initial array, so a scan
    # that runs past it grows the walk: seed 35 does twice, seed 3 never.
    calls, extensions = [], []
    crossing, budget = renewalbm.coupling.first_crossing, renewalbm.coupling.check_budget

    def counted_crossing(*args, **kwargs):
        calls.append(crossing(*args, **kwargs))
        return calls[-1]

    def counted_budget(points, what):
        extensions.append(what == "extended grid walk")
        return budget(points, what)

    monkeypatch.setattr(renewalbm.coupling, "first_crossing", counted_crossing)
    monkeypatch.setattr(renewalbm.coupling, "check_budget", counted_budget)
    real = build_coupled_realization(LAW, scaling_constants(LAW, 2.0, 4), np.random.default_rng(seed))
    assert sum(j < 0 for j in calls) == misses
    assert len(calls) == real.n_steps + misses
    # each miss extends the walk once; one more extension may follow the
    # scan, for the times the diagnostics read
    assert sum(extensions) - misses in (0, 1)
    assert [j for j in calls if j >= 0] == real.bm_index[1:].tolist()


def _stop_step(real, target):
    # The stop rule in closed form, read off the stored clocks:
    # max(target, first_cover + 2, first m with Gamma_m > 1, first m with Lambda_m >= 1).
    gamma, lam = real.path_times, real.bm_times
    cover = int(np.searchsorted(gamma, 1.0, side="left"))
    return max(target, cover + 2, int(np.argmax(gamma > 1.0)), int(np.argmax(lam >= 1.0)))


def test_exact_stream_stops_past_both_clocks(monkeypatch):
    # target 3 makes blocks of 3 + 6 + 16 = 25 steps, where n = 10 needs
    # about 200: the stream must keep drawing until both clocks have passed
    # 1, not stop once the transport clock has
    monkeypatch.setattr(renewalbm.coupling, "_target_steps", lambda schedule: 3)
    short = 0
    for seed in range(40):
        real = build_coupled_realization(LAW, SCHED10, np.random.default_rng(seed), engine="exact")
        assert real.bm_times[-1] >= 1.0
        assert real.path_times[-1] > 1.0
        assert real.n_steps == _stop_step(real, 3)
        # where a transport-clock-only rule would have stopped
        short += real.bm_times[real.first_cover + 2] < 1.0
    assert short > 0


@pytest.mark.parametrize("n", [8, 16, 32])
def test_both_engines_end_at_the_closed_form_stop(n):
    sched = scaling_constants(LAW, 2.0, n)
    target = int(1.0 / sched.mean_step) + 2
    for rep in range(40):
        for engine in ("grid", "exact"):
            real = build_coupled_realization(LAW, sched, derived_rng(777, ROLE_RATE, n, rep), engine=engine)
            assert real.n_steps == _stop_step(real, target)
            assert real.path_times[-1] > 1.0 and real.bm_times[-1] >= 1.0


def test_both_engines_draw_the_same_levels():
    sched = scaling_constants(LAW, 2.0, 16)
    for rep in range(5):
        grid, exact = (
            build_coupled_realization(LAW, sched, derived_rng(5, ROLE_RATE, 16, rep), engine=engine)
            for engine in ("grid", "exact")
        )
        m = min(grid.n_steps, exact.n_steps)
        assert m > 500
        assert grid.levels[:m].tobytes() == exact.levels[:m].tobytes()
        assert grid.durations[:m].tobytes() == exact.durations[:m].tobytes()
    # and sample_embedding_steps draws an exact realization's first steps
    levels, signs, exit_times, _ = sample_embedding_steps(LAW, sched, 100, derived_rng(5, ROLE_RATE, 16, 4))
    assert levels.tobytes() == exact.levels[:100].tobytes()
    assert signs.tobytes() == exact.signs[:100].tobytes()
    assert exit_times.tobytes() == exact.exit_times[:100].tobytes()


def test_exact_step_budget_refuses_before_the_first_draw(monkeypatch):
    law = deterministic(1e-70)
    sched = scaling_constants(law, 2.0, 2)  # about 4e70 steps
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(BudgetError, match=r"about 4e\+70 steps is past the step budget of 268,435,456"):
        exact_blocks(law, sched, rng)
    assert rng.bit_generator.state == state
    monkeypatch.setattr(renewalbm.errors, "STEP_BUDGET", 100)
    with pytest.raises(BudgetError, match="step budget of 100 steps"):
        build_coupled_realization(LAW, SCHED10, rng, engine="exact")


@pytest.mark.parametrize("law", [uniform01(), two_point(0.0, 1.0, 0.5)], ids=["uniform01", "two_point"])
def test_exact_blocks_carry_the_clocks_bit_for_bit(monkeypatch, law):
    monkeypatch.setattr(renewalbm.coupling, "EXACT_BLOCK", 64)
    sched = scaling_constants(law, 2.0, 16)
    # seed 3 starts two_point with a zero level and sign -1: skeleton -0.0
    blocks = list(exact_blocks(law, sched, np.random.default_rng(3)))
    assert len(blocks) > 2 and all(b.n_steps <= 64 for b in blocks)
    assert [b.start for b in blocks] == list(np.cumsum([0] + [b.n_steps for b in blocks[:-1]]))
    real = build_coupled_realization(law, sched, np.random.default_rng(3), engine="exact")
    assert real.levels.tobytes() == np.concatenate([b.levels for b in blocks]).tobytes()
    # the carried running sums are one cumsum over all steps, signed zeros too
    assert real.path_times[1:].tobytes() == np.cumsum(real.durations).tobytes()
    assert real.bm_times[1:].tobytes() == np.cumsum(real.exit_times).tobytes()
    assert real.skeleton[1:].tobytes() == np.cumsum(real.signs * real.levels).tobytes()


def _counted_exact_steps(monkeypatch):
    """The sizes of the exact engine's draws, recorded as they are made."""
    sizes = []
    real_steps = renewalbm.coupling._exact_steps

    def counting(law, schedule, streams, size):
        sizes.append(size)
        return real_steps(law, schedule, streams, size)

    monkeypatch.setattr(renewalbm.coupling, "_exact_steps", counting)
    return sizes


# Arrays an in-memory exact build holds at its peak: the blocks' step arrays
# and their join.
_HELD = 2 * len(fields(StepBlock)[1:])


def test_exact_build_is_checked_against_the_byte_budget(monkeypatch):
    sched = scaling_constants(LAW, 2.0, 64)  # about 8200 steps
    sizes = _counted_exact_steps(monkeypatch)
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * 1000)
    with pytest.raises(BudgetError, match="exact realization array"):
        build_coupled_realization(LAW, sched, np.random.default_rng(1), engine="exact")
    # refused before the first draw
    assert sizes == []
    # past target, each block is checked as it arrives, at the realization's
    # footprint: two copies of every step array
    target = int(1.0 / sched.mean_step) + 2
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 8 * _HELD * (target + 1))
    with pytest.raises(BudgetError, match="exact realization array"):
        build_coupled_realization(LAW, sched, np.random.default_rng(1), engine="exact")
    assert len(sizes) == 1


def test_exact_build_budget_counts_every_array_it_holds(monkeypatch):
    # Room for two arrays of target + 1 points, not for the fourteen the join
    # holds: refused before the first draw.
    sched = scaling_constants(LAW, 2.0, 64)
    sizes = _counted_exact_steps(monkeypatch)
    target = int(1.0 / sched.mean_step) + 2
    monkeypatch.setattr(renewalbm.errors, "ALLOC_BUDGET_BYTES", 2 * 8 * (target + 1))
    with pytest.raises(BudgetError, match="exact realization array"):
        build_coupled_realization(LAW, sched, np.random.default_rng(1), engine="exact")
    assert sizes == []


def test_exact_stream_draws_few_steps_past_the_stop(monkeypatch):
    # The last block holds what is left of target + 4 sqrt(target) + 16, or
    # 4 sqrt(target) + 16 steps once that is passed, not a whole EXACT_BLOCK.
    sched = scaling_constants(LAW, 2.0, 256)  # about 131,000 steps: two whole blocks and a few more
    sizes = _counted_exact_steps(monkeypatch)
    blocks = exact_blocks(LAW, sched, derived_rng(3, ROLE_COUPLE, 256, 0))
    kept = sum(block.n_steps for block in blocks)
    target = int(1.0 / sched.mean_step) + 2
    assert kept >= target
    assert sum(sizes) <= kept + 4.0 * math.sqrt(target) + 16


@settings(max_examples=300, deadline=None)
@given(h=st.floats(1e-5, 0.5), data=st.data())
def test_first_grid_index_matches_a_search_of_the_grid_times(h, data):
    size = data.draw(st.integers(1, int(1.0 / h) + 2))
    t = np.arange(size, dtype=float) * h
    picks = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    on_grid = t[picks]
    x = np.concatenate([
        on_grid,
        np.nextafter(on_grid, -np.inf).clip(0.0),
        np.nextafter(on_grid, np.inf),
        data.draw(arrays(float, 10, elements=st.floats(0.0, 1.1 * size * h))),
    ])
    assert np.array_equal(_first_grid_index(x, h, size), np.searchsorted(t, x, side="left"))


def test_grid_walk_bits_do_not_depend_on_the_block():
    # seed 35 grows the n = 4 walk past its initial array twice
    sched = scaling_constants(LAW, 2.0, 4)
    for seed in (6, 35):
        whole = build_coupled_realization(LAW, sched, np.random.default_rng(seed))
        for block in (7, 1000):
            with mock.patch.object(renewalbm.coupling, "SUP_BLOCK", block):
                blocked = build_coupled_realization(LAW, sched, np.random.default_rng(seed))
            assert blocked.grid.values.tobytes() == whole.grid.values.tobytes()
            assert blocked.bm_index.tobytes() == whole.bm_index.tobytes()
            assert blocked.grid.max_increment == whole.grid.max_increment
            assert sup_distance(blocked) == sup_distance(whole)


def test_grid_build_and_sup_hold_about_one_walk():
    import tracemalloc

    sched = scaling_constants(LAW, 2.0, 32)
    tracemalloc.start()
    try:
        real = build_coupled_realization(LAW, sched, derived_rng(1, ROLE_RATE, 32, 0))
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        sup_distance(real)
        sup_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    walk = real.grid.values.nbytes
    # increments drawn a block at a time, grid times built only in the
    # segments that can hold the sup
    assert build_peak < 1.25 * walk
    assert sup_peak < 0.25 * walk
