"""One-probability-space coupling of a transport path and a Brownian path.

Each step m draws a level xi_m (a scaled jump draw), embeds a fair +/-xi_m
increment into the Brownian path as the first exit from [-xi_m, xi_m], and
advances two clocks: the Brownian clock by the exit time sigma_m and the
transport clock by duration_m = normalizer * xi_m. The skeleton value after
m steps is the signed sum of levels, shared exactly by both processes:
the transport path is the piecewise-linear interpolation of (transport
clock, skeleton) and the Brownian path hits the same skeleton at its own
clock times.

Exit detection (grid engine): a walk observed only at grid points passes a
barrier by about 0.5826 * sqrt(h) before the scan sees it, so scanning for
xi itself records every exit late, and over [0, 1] the Brownian clock would
drift late by an amount that does not shrink with n. The scan therefore
looks for the continuity-corrected barrier xi - BGK_SHIFT * sqrt(h), which
centres the detected exit time on the continuous one.

Snap rule (grid engine): at the detected exit the walk sits within O(sqrt(h))
of +/-xi, on either side, so the skeleton increment is snapped to exactly
sign * xi (preserving duration ~ U(0, n**-k) for uniform jumps, the
distributional identity the construction guarantees) while the walk itself
is kept as simulated. The resulting skeleton/path mismatch is measured per
realization and carried as part of the decomposition slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    InputError,
    ParameterError,
    UnsupportedModeError,
    check_budget,
)
from .exit_times import first_crossing, invert_unit_cdf
from .laws import JumpLaw, sample_jumps
from .transport import ScalingSchedule

GRID_STEP_DIVISOR = 1000
# -zeta(1/2) / sqrt(2 pi): at its first grid point past a barrier, a walk
# observed every h overshoots it by this many sqrt(h) on average (Broadie,
# Glasserman & Kou, Math. Finance 1997). Scanning for level - shift * sqrt(h)
# lands detected exits on the level instead of late.
BGK_SHIFT = 0.5825971579390107
# Grid points per block in sup_distance: a block's temporaries stay in cache.
SUP_BLOCK = 1 << 16


@dataclass(eq=False)
class GridPath:
    """Brownian path observed on a uniform grid: values[i] is the path at i*step."""

    step: float
    values: np.ndarray
    max_increment: float


@dataclass(eq=False)
class CoupledRealization:
    """A coupled pair of paths on [0, 1] plus a short tail for diagnostics.

    Arrays are indexed by step m = 1..n_steps; the cumulative arrays carry a
    leading zero. first_cover is the smallest m with transport clock >= 1.
    grid and bm_index are None for the exact engine, which realizes the
    skeleton only.
    """

    law: JumpLaw
    schedule: ScalingSchedule
    engine: str
    levels: np.ndarray
    signs: np.ndarray
    exit_times: np.ndarray
    durations: np.ndarray
    path_times: np.ndarray  # transport clock, Gamma_0..Gamma_M
    bm_times: np.ndarray  # Brownian clock, Lambda_0..Lambda_M
    skeleton: np.ndarray  # shared values at the clock times
    first_cover: int
    grid: GridPath | None
    bm_index: np.ndarray | None  # grid index of each Brownian clock time

    @property
    def n_steps(self) -> int:
        return len(self.levels)

    def value_at(self, t):
        """Transport-path value at scalar or array t in [0, last clock time].

        Exact at clock times (zero-length linear correction) and of slope
        exactly +/- 1/normalizer inside segments.
        """
        arr = np.asarray(t, dtype=float)
        last = self.path_times[-1]
        if arr.size and (arr.min() < 0.0 or arr.max() > last):
            raise DomainError(f"evaluation time outside [0, {last!r}]")
        seg = np.searchsorted(self.path_times, arr, side="right") - 1
        seg = np.minimum(seg, self.n_steps - 1)
        val = self.skeleton[seg] + self.signs[seg] * (arr - self.path_times[seg]) / self.schedule.normalizer
        return float(val) if np.isscalar(t) or arr.ndim == 0 else val


def sample_exit_level(
    law: JumpLaw,
    schedule: ScalingSchedule,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw embedding levels: (time_scale / normalizer) times a jump draw."""
    scale = schedule.time_scale / schedule.normalizer
    draws = sample_jumps(law, rng, size)
    return scale * draws


def _target_steps(schedule: ScalingSchedule) -> int:
    # floor(1/mean_step) + 2 keeps one spare segment beyond the decomposition
    # range even when the clock crosses 1 late.
    return int(1.0 / schedule.mean_step) + 2


def build_coupled_realization(
    law: JumpLaw,
    schedule: ScalingSchedule,
    rng: np.random.Generator,
    *,
    engine: str = "grid",
    grid_step: float | None = None,
) -> CoupledRealization:
    """Run the embedding until the transport clock passes 1.

    engine="exact" inverts the unit exit distribution per step and realizes
    no Brownian values between skeleton points. engine="grid" advances one
    shared N(0, h) walk (h defaults to mean_step/1000) and detects each exit
    as the first grid point past xi - BGK_SHIFT * sqrt(h); the walk is kept,
    extended past every time the diagnostics read. Every walk array is checked
    against errors.ALLOC_BUDGET_BYTES before it is allocated (BudgetError).
    """
    if engine not in ("exact", "grid"):
        raise ParameterError(f"unknown engine {engine!r}")
    if engine == "exact":
        if grid_step is not None:
            raise ParameterError("grid_step only applies to the grid engine")
        return _build_exact(law, schedule, rng)
    h = schedule.mean_step / GRID_STEP_DIVISOR if grid_step is None else float(grid_step)
    if not 0 < h <= schedule.mean_step:
        raise ParameterError(f"grid step {h!r} must lie in (0, mean_step]")
    return _build_grid(law, schedule, rng, h)


def _draw_batches(law, schedule, rng, want):
    levels = sample_exit_level(law, schedule, rng, want)
    u = rng.random(want)
    signs = rng.integers(0, 2, want) * 2 - 1
    return levels, u, signs


def sample_embedding_steps(law, schedule, steps, rng):
    """Draw a fixed number of independent embedding steps, no path built.

    Returns (levels, signs, exit_times, durations) with the same per-step
    marginals and draw order as the exact-engine builder; meant for marginal
    checks that want many more steps than one covering realization holds.
    """
    if steps < 1:
        raise InputError("steps must be positive")
    levels, u, signs = _draw_batches(law, schedule, rng, int(steps))
    exit_times = levels * levels * invert_unit_cdf(u)
    return levels, signs, exit_times, schedule.normalizer * levels


def _build_exact(law, schedule, rng):
    target = _target_steps(schedule)
    batch = target + int(4.0 * math.sqrt(target)) + 16
    levels_parts, sigma_parts, sign_parts = [], [], []
    count = 0
    clock = 0.0
    first_cover = None
    while True:
        lv, u, sg = _draw_batches(law, schedule, rng, batch)
        sigma_parts.append(lv * lv * invert_unit_cdf(u))
        levels_parts.append(lv)
        sign_parts.append(sg)
        durations = schedule.normalizer * lv
        clocks = clock + np.cumsum(durations)
        if first_cover is None:
            hit = clocks >= 1.0
            j = int(np.argmax(hit))
            if hit[j]:
                first_cover = count + j + 1
        clock = float(clocks[-1])
        count += batch
        if first_cover is not None and count >= max(target, first_cover + 2):
            break
        batch = max(64, target // 4)
    levels = np.concatenate(levels_parts)
    signs = np.concatenate(sign_parts).astype(np.int64)
    sigmas = np.concatenate(sigma_parts)
    return _assemble(law, schedule, "exact", levels, signs, sigmas, None, None)


def _build_grid(law, schedule, rng, h):
    sqrt_h = math.sqrt(h)
    target = _target_steps(schedule)
    est = int(1.10 * max(1.0, (target + 2) * schedule.mean_step) / h) + 1024
    check_budget(est + 1, "initial grid walk")

    inc = rng.standard_normal(est)
    inc *= sqrt_h
    walk = np.empty(est + 1)
    walk[0] = 0.0
    np.cumsum(inc, out=walk[1:])
    max_inc = float(max(inc.max(), -inc.min()))
    del inc

    def extend(extra):
        nonlocal walk, max_inc
        check_budget(len(walk) + extra, "extended grid walk")
        more = rng.standard_normal(extra) * sqrt_h
        max_inc = max(max_inc, float(np.abs(more).max()))
        walk = np.concatenate([walk, walk[-1] + np.cumsum(more)])

    ext_block = max(est // 4, 1024)
    levels_buf = np.empty(0)
    levels_used = 0
    steps, signs, levels_out = [], [], []
    cursor = 0
    clock = 0.0
    count = 0
    first_cover = None
    while True:
        if levels_used == len(levels_buf):
            want = target + int(4.0 * math.sqrt(target)) + 16 if count == 0 else max(64, target // 4)
            levels_buf = sample_exit_level(law, schedule, rng, want)
            levels_used = 0
        level = float(levels_buf[levels_used])
        levels_used += 1
        # A level below the correction gives a barrier <= 0: exit on the next step.
        barrier = level - BGK_SHIFT * sqrt_h
        chunk = min(65536, max(64, int(3.0 * level * level / h) + 16))
        while True:
            j = first_crossing(walk, cursor, barrier, chunk=chunk)
            if j >= 0:
                break
            extend(ext_block)
        signs.append(1 if walk[j] - walk[cursor] > 0 else -1)
        steps.append(j - cursor)
        levels_out.append(level)
        cursor = j
        clock += schedule.normalizer * level
        count += 1
        if first_cover is None and clock >= 1.0:
            first_cover = count
        if first_cover is not None and count >= max(target, first_cover + 2):
            break

    levels = np.asarray(levels_out)
    signs_arr = np.asarray(signs, dtype=np.int64)
    step_counts = np.asarray(steps, dtype=np.int64)
    bm_index = np.concatenate([[0], np.cumsum(step_counts)])
    sigmas = step_counts * h

    real = _assemble(
        law, schedule, "grid", levels, signs_arr, sigmas,
        GridPath(step=h, values=walk, max_increment=max_inc), bm_index,
    )
    # Extend the walk past everything the diagnostics read: grid times up to
    # 1, lattice times m * mean_step, and the transport clock knots.
    m_dec = max(int(1.0 / schedule.mean_step), first_cover)
    need_time = max(1.0, float(real.path_times[m_dec + 1]), m_dec * schedule.mean_step)
    need_idx = int(need_time / h) + 2
    if need_idx >= len(walk):
        extend(need_idx - len(walk) + 1)
        real.grid.values = walk
        real.grid.max_increment = max_inc
    return real


def _assemble(law, schedule, engine, levels, signs, sigmas, grid, bm_index):
    durations = schedule.normalizer * levels
    zero = np.zeros(1)
    path_times = np.concatenate([zero, np.cumsum(durations)])
    # Recompute coverage on the final cumulative array: the builders' running
    # clocks can differ from it by an ulp, and every index below must refer
    # to this array. The builders leave two spare segments past coverage.
    first_cover = int(np.searchsorted(path_times, 1.0, side="left"))
    return CoupledRealization(
        law=law,
        schedule=schedule,
        engine=engine,
        levels=levels,
        signs=signs,
        exit_times=sigmas,
        durations=durations,
        path_times=path_times,
        bm_times=np.concatenate([zero, np.cumsum(sigmas)]),
        skeleton=np.concatenate([zero, np.cumsum(signs * levels)]),
        first_cover=first_cover,
        grid=grid,
        bm_index=bm_index,
    )


def _require_grid(real: CoupledRealization) -> GridPath:
    if real.grid is None:
        raise UnsupportedModeError(
            "this realization has no grid path; sup distances need engine='grid'"
        )
    return real.grid


def _grid_horizon_index(grid: GridPath) -> int:
    # The largest i with i * h <= 1. int(1 / h) can fall one short of it:
    # at h = 5e-6, 1 / h is 199999.99999999997 while 200000 * h == 1.
    i = int(1.0 / grid.step) + 1
    while i * grid.step > 1.0:
        i -= 1
    return min(i, len(grid.values) - 1)


def sup_distance(real: CoupledRealization, mode: str = "grid") -> float:
    """Largest |transport - Brownian| gap over [0, 1].

    mode="grid", the only mode, scans every grid time t_i = i * h at or
    before 1 and evaluates there the expression value_at uses,
    skeleton + sign * (t - Gamma) / normalizer - w. Rather than search each
    of the N grid times among the M transport knots (N log M, then three
    gathers at N indices), it searches the M - 1 interior knots among the
    sorted grid times (M log N): segment m owns the grid times in
    [Gamma_m, Gamma_{m+1}), which is the segment value_at picks, also for a
    knot on a grid time and for a zero-length segment. The knot arrays are
    spread over the grid with np.repeat, one block of SUP_BLOCK points at a
    time, so temporaries stay block-sized and the sup equals value_at's to
    the last bit.
    """
    grid = _require_grid(real)
    if mode != "grid":
        raise UnsupportedModeError(f"unknown mode {mode!r}")
    size = _grid_horizon_index(grid) + 1
    t = np.arange(size, dtype=float)
    t *= grid.step
    # starts[m] is the first grid index of segment m; the builders leave
    # Gamma_M > 1 >= t, so the last segment runs to the horizon.
    m = real.n_steps
    starts = np.concatenate([[0], np.searchsorted(t, real.path_times[1:m], side="left")])
    w = grid.values
    norm = real.schedule.normalizer
    best = 0.0
    for a in range(0, size, SUP_BLOCK):
        b = min(a + SUP_BLOCK, size)
        lo = int(np.searchsorted(starts, a, side="right")) - 1
        hi = int(np.searchsorted(starts, b, side="left"))
        counts = np.diff(np.append(np.clip(starts[lo:hi], a, b), b))
        gap = t[a:b] - np.repeat(real.path_times[lo:hi], counts)
        gap *= np.repeat(real.signs[lo:hi], counts)
        gap /= norm
        gap += np.repeat(real.skeleton[lo:hi], counts)
        gap -= w[a:b]
        best = max(best, float(np.abs(gap, out=gap).max()))
    return best


@dataclass(frozen=True)
class SupDecomposition:
    """Grid-mode sup distance split along the classical four-term bound.

    j1: skeleton read at the Brownian clock vs at the lattice m * mean_step.
    j2: same lattice read vs the transport clock.
    j3: Brownian oscillation across one transport segment.
    j4: largest single-segment transport move, max duration / normalizer.
    slack: snap-rule drift plus two one-step walk oscillations; the grid sup
           obeys sup <= j1 + j2 + j3 + j4 + slack realization by realization.
    """

    j1: float
    j2: float
    j3: float
    j4: float
    sup: float
    slack: float
    segments: int

    @property
    def bound_gap(self) -> float:
        return self.sup - (self.j1 + self.j2 + self.j3 + self.j4 + self.slack)


def decompose_sup(real: CoupledRealization) -> SupDecomposition:
    """Compute the four-term decomposition and verify it bounds the grid sup.

    The maxima run over m = 0..M with M = max(floor(1/mean_step),
    first_cover), which is the smallest range whose segments cover [0, 1];
    j4 additionally includes segment M + 1. Every Brownian read uses the
    floor grid index of its time, which keeps the triangle-inequality chain
    exact in grid arithmetic; the snap drift is the only extra term, and it
    is measured, not estimated.
    """
    grid = _require_grid(real)
    w = grid.values
    h = grid.step
    sched = real.schedule
    m_dec = max(int(1.0 / sched.mean_step), real.first_cover)

    lam_idx = real.bm_index[: m_dec + 1]
    gam_idx = np.minimum((real.path_times[: m_dec + 2] / h).astype(np.int64), len(w) - 1)
    lattice_idx = np.minimum(
        (np.arange(m_dec + 1) * sched.mean_step / h).astype(np.int64), len(w) - 1
    )

    at_lambda = w[lam_idx]
    at_lattice = w[lattice_idx]
    at_gamma = w[gam_idx[: m_dec + 1]]
    j1 = float(np.abs(at_lambda - at_lattice).max())
    j2 = float(np.abs(at_gamma - at_lattice).max())

    # Window maxima of |w - anchor| over [gam_idx[m], gam_idx[m+1]] per m.
    starts = gam_idx[: m_dec + 1]
    ends = gam_idx[1 : m_dec + 2]
    reduce_idx = np.concatenate([starts, ends[-1:]])
    win_max = np.maximum(np.maximum.reduceat(w, reduce_idx)[:-1], w[ends])
    win_min = np.minimum(np.minimum.reduceat(w, reduce_idx)[:-1], w[ends])
    j3 = float(np.maximum(win_max - at_gamma, at_gamma - win_min).max())

    j4 = float(real.durations[: m_dec + 1].max()) / sched.normalizer

    drift = float(np.abs(real.skeleton[: m_dec + 1] - at_lambda).max())
    slack = drift + 2.0 * grid.max_increment
    sup = sup_distance(real, "grid")
    dec = SupDecomposition(
        j1=j1, j2=j2, j3=j3, j4=j4, sup=sup, slack=slack, segments=m_dec
    )
    if dec.bound_gap > 0:
        raise ConsistencyError(
            f"sup {sup} exceeds decomposition bound by {dec.bound_gap} "
            f"(n={sched.n}, k={sched.k})"
        )
    return dec


def embedding_diagnostics(real: CoupledRealization) -> dict[str, float]:
    """Empirical moment summary of the embedding steps.

    second_moment_ratio is mean(sigma^2) / mean(xi^4), the observable
    counterpart of the universal constant bounding E(sigma^2) by E(xi^4);
    it is reported, never used in any computation.
    """
    sig = real.exit_times
    lv = real.levels
    mean_x4 = float(np.mean(lv**4))
    return {
        "steps": float(real.n_steps),
        "mean_exit_time": float(sig.mean()),
        "mean_duration": float(real.durations.mean()),
        "second_moment_ratio": float(np.mean(sig**2) / mean_x4) if mean_x4 > 0 else float("nan"),
    }
