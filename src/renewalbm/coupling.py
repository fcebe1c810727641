"""One-probability-space coupling of a transport path and a Brownian path.

Each step m draws a level xi_m (a scaled jump draw), embeds a fair +/-xi_m
increment into the Brownian path as the first exit from [-xi_m, xi_m], and
advances two clocks: the Brownian clock by the exit time sigma_m and the
transport clock by duration_m = normalizer * xi_m. The skeleton value after
m steps is the signed sum of levels, shared exactly by both processes:
the transport path is the piecewise-linear interpolation of (transport
clock, skeleton) and the Brownian path hits the same skeleton at its own
clock times.

A realization is a function of its random streams and one stop rule. The
levels, the exit uniforms, the signs and the grid walk each come from their
own child stream of the generator passed in (streams.child_streams), so
both engines draw the same levels from the same generator, and no bit
depends on a block size. Both engines stop at
M = max(target, first_cover + 2, first m with Gamma_m > 1,
first m with Lambda_m >= 1), target = floor(1 / mean_step) + 2: both clocks
have passed 1 and two spare segments follow coverage (_Stop).

Transport side alone: transport_paths draws only the levels and the signs,
through the rule the exact engine draws them by (_levels_and_signs), up to
the first step whose transport clock passes a horizon. Its first path has
the signs, transport clock and skeleton of the first steps of an exact
realization from the same generator, bit for bit, and needs no exit times
and so no scipy; the paths after it take the steps that follow in the
streams.

Exact engine: exact_blocks draws, inverts and reduces the steps in blocks of
at most EXACT_BLOCK, carrying the clocks and the skeleton from block to
block, and cuts the block where M falls. Its memory does not grow with n;
build_coupled_realization concatenates the same blocks into one
CoupledRealization.

Grid walk: one N(0, h) walk, drawn SUP_BLOCK points at a time as the exit
scan and the diagnostics reach it (_Walk).

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

Grid sup: sup_distance is the grid engine's oracle for the sup over [0, 1].
It bounds each transport segment's gaps from its knots and the walk's
extrema over the segment, and evaluates point by point only the few
segments whose bound reaches the gaps already seen. The result is that of
evaluating every grid time, to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConsistencyError, InputError, check_budget, check_int, check_real, check_steps
from .exit_times import _tables, first_crossing, invert_unit_cdf
from .laws import JumpLaw, sample_jumps
from .streams import child_streams
from .transport import ScalingSchedule

GRID_STEP_DIVISOR = 1000
# -zeta(1/2) / sqrt(2 pi): at its first grid point past a barrier, a walk
# observed every h overshoots it by this many sqrt(h) on average (Broadie,
# Glasserman & Kou, Math. Finance 1997). Scanning for level - shift * sqrt(h)
# lands detected exits on the level instead of late.
BGK_SHIFT = 0.5825971579390107
# Grid points per block of the grid walk: a block's increments stay in
# cache. A memory bound only: no bit depends on it.
SUP_BLOCK = 1 << 16
# Relative margin on sup_distance's per-segment gap bounds.
SUP_MARGIN = 1e-12
# Embedding steps per block of the exact engine: its memory does not grow
# with n. A memory bound only: no bit depends on it.
EXACT_BLOCK = 1 << 16


@dataclass(eq=False)
class GridPath:
    """Brownian path observed on a uniform grid: values[i] is the path at i*step."""

    step: float
    values: np.ndarray


@dataclass(eq=False)
class StepBlock:
    """Embedding steps start + 1 .. start + n_steps: one block of the exact
    engine, or all steps of a grid build.

    Three draws, three running sums: levels, signs and exit_times are per
    step; path_times, bm_times and skeleton are the clocks and the skeleton
    after each step (the leading zero of a CoupledRealization belongs to no
    block). A step's duration is schedule.normalizer * level.
    """

    start: int
    levels: np.ndarray
    signs: np.ndarray
    exit_times: np.ndarray
    path_times: np.ndarray
    bm_times: np.ndarray
    skeleton: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.levels)


# StepBlock's step arrays, and the running sums among them, which a
# CoupledRealization starts from a leading zero.
_STEP_ARRAYS = tuple(f.name for f in fields(StepBlock)[1:])
_SUMS = ("path_times", "bm_times", "skeleton")


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
        exactly +/- 1/normalizer inside segments. InputError unless t's dtype
        is an integer or float one and every t is in range.
        """
        return _value_at(self, t, self.path_times[-1])

    def as_block(self) -> StepBlock:
        """The realization's steps as one StepBlock: its step arrays, the
        running sums without their leading zero."""
        return StepBlock(0, **{name: getattr(self, name)[int(name in _SUMS) :] for name in _STEP_ARRAYS})


def _transport(t, gamma, sign, skel, norm):
    # The transport path at times t on the segments that start at (gamma,
    # sign, skel): skel + sign * (t - gamma) / norm, in this order, the one
    # expression value_at and sup_distance evaluate.
    x = t - gamma
    x *= sign
    x /= norm
    x += skel
    return x


def _value_at(path, t, last):
    # value_at of a CoupledRealization or a TransportPath: the path at t in
    # [0, last] through _transport, on the segment searchsorted picks. t is
    # refused unless its dtype is an integer or float one (not bool); min
    # and max carry a NaN, which fails both range tests.
    arr = np.asarray(t)
    if arr.dtype.kind not in "iuf":
        raise InputError(f"t must be a real or an array of reals, got {t!r}")
    arr = arr.astype(float, copy=False)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= last):
        raise InputError(f"evaluation time t outside [0, {last!r}]")
    seg = np.searchsorted(path.path_times, arr, side="right") - 1
    seg = np.minimum(seg, len(path.signs) - 1)
    knots = path.path_times[seg], path.signs[seg], path.skeleton[seg]
    val = _transport(arr, *knots, path.schedule.normalizer)
    return float(val) if np.isscalar(t) or arr.ndim == 0 else val


@dataclass(eq=False)
class TransportPath:
    """The transport side of a coupling on [0, horizon], and no Brownian side.

    Step m = 1..M has sign signs[m-1]; path_times and skeleton are the
    transport clock and the skeleton after each step, from a leading zero,
    and M is the first step with path_times[M] > horizon. The path runs
    from (path_times[m-1], skeleton[m-1]) with slope signs[m-1] / normalizer.
    """

    law: JumpLaw
    schedule: ScalingSchedule
    signs: np.ndarray
    path_times: np.ndarray
    skeleton: np.ndarray
    horizon: float

    def value_at(self, t):
        """Path value at scalar or array t in [0, horizon], with the bits of
        CoupledRealization.value_at."""
        return _value_at(self, t, self.horizon)

    def knots(self):
        """Times and values at 0 and at each clock time in (0, horizon] where
        the sign changes: the path is linear between them and after the last."""
        at = np.flatnonzero(self.signs[1:] != self.signs[:-1]) + 1
        at = np.concatenate([[0], at])
        return self.path_times[at], self.skeleton[at]


def sample_exit_level(law: JumpLaw, schedule: ScalingSchedule, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size embedding levels: (time_scale / normalizer) times a jump draw."""
    return schedule.time_scale / schedule.normalizer * sample_jumps(law, rng, size)


def _target_steps(schedule: ScalingSchedule) -> int:
    # floor(1/mean_step) + 2 keeps one spare segment beyond the decomposition
    # range even when the clock crosses 1 late.
    return int(1.0 / schedule.mean_step) + 2


class _Stop:
    """The stop rule of both engines: M = max(target, first_cover + 2,
    first m with Gamma_m > 1, first m with Lambda_m >= 1), with
    target = floor(1 / mean_step) + 2.

    Both clocks never decrease, so each term is read off the first block of
    clock values that reaches it. need is M without its Lambda term (inf
    until known); the grid engine, which learns Lambda one step at a time,
    stops at the first m >= need with Lambda_m >= 1, which is M.
    """

    def __init__(self, schedule):
        self.target = _target_steps(schedule)
        # Steps drawn at a time: M falls within the first target +
        # 4 sqrt(target) + 16 in nearly every realization.
        self.block = self.target + int(4.0 * math.sqrt(self.target)) + 16
        # first m with Gamma_m >= 1; M without its Lambda term; first m with Lambda_m >= 1
        self.first_cover, self.need, self.lam = None, math.inf, math.inf

    def transport(self, start, path_times):
        """Read Gamma_{start+1}, Gamma_{start+2}, ... of one block."""
        if self.first_cover is None and path_times[-1] >= 1.0:
            self.first_cover = start + 1 + int(np.searchsorted(path_times, 1.0, side="left"))
        if self.need == math.inf and path_times[-1] > 1.0:
            past = start + 1 + int(np.searchsorted(path_times, 1.0, side="right"))
            self.need = max(self.target, self.first_cover + 2, past)

    def cut(self, block):
        """The steps of block up to M, or None while M lies past its end."""
        self.transport(block.start, block.path_times)
        if self.lam == math.inf and block.bm_times[-1] >= 1.0:
            self.lam = block.start + 1 + int(np.searchsorted(block.bm_times, 1.0, side="left"))
        stop = max(self.need, self.lam)
        return None if stop > block.start + block.n_steps else int(stop) - block.start


def build_coupled_realization(
    law: JumpLaw, schedule: ScalingSchedule, rng: np.random.Generator, *,
    engine: str = "grid", grid_step: float | None = None,
) -> CoupledRealization:
    """Run the embedding to the stop rule M (see _Stop): both clocks have
    passed 1 and two spare segments follow coverage.

    Each engine draws from the child streams of rng (streams.child_streams),
    the levels from the same one, so both engines share their levels.
    engine="exact" concatenates the blocks of exact_blocks, which invert the
    unit exit distribution per step and realize no Brownian values between
    skeleton points; two copies of every step array, which joining the
    blocks holds, are checked against errors.ALLOC_BUDGET_BYTES at the
    expected step count before the first draw, and at the running count
    before each block is kept. engine="grid"
    advances one shared N(0, h) walk (h defaults to mean_step/1000) and detects
    each exit as the first grid point past xi - BGK_SHIFT * sqrt(h); the walk
    is kept up to every time the diagnostics read. Every walk array is
    checked against the budget before it is allocated. Both raise BudgetError.
    """
    if engine not in ("exact", "grid"):
        raise InputError(f"unknown engine {engine!r}")
    if engine == "exact":
        if grid_step is not None:
            raise InputError("grid_step only applies to the grid engine")
        # The join holds the blocks and the joined arrays at once: two copies
        # of every step array. M >= target: they are checked at target + 1
        # steps before the first draw, and at their running length as each
        # block arrives.
        held = 2 * len(_STEP_ARRAYS)
        check_budget(held * (_target_steps(schedule) + 1), "exact realization arrays")
        blocks = []
        for block in exact_blocks(law, schedule, rng):
            check_budget(held * (block.start + block.n_steps + 1), "exact realization arrays")
            blocks.append(block)
        return _assemble(law, schedule, "exact", blocks, None, None)
    h = schedule.mean_step / GRID_STEP_DIVISOR if grid_step is None else check_real(grid_step, "grid_step")
    if not 0 < h <= schedule.mean_step:
        raise InputError(f"grid step {h!r} must lie in (0, mean_step]")
    return _build_grid(law, schedule, rng, h)


def _levels_and_signs(law, schedule, streams, size):
    # The next size levels and signs, from child streams 0 and 2: the one
    # rule the exact engine and the transport-only draw follow.
    return sample_exit_level(law, schedule, streams[0], size), streams[2].integers(0, 2, size) * 2 - 1


def _exact_steps(law, schedule, streams, size):
    # The next size levels, signs and exit times, each from its own stream.
    levels, signs = _levels_and_signs(law, schedule, streams, size)
    return levels, signs, levels * levels * invert_unit_cdf(streams[1].random(size))


# A TransportPath holds three arrays, and joining its parts holds two copies.
_PATH_HELD = 6


def transport_paths(law, schedule, horizon, rng):
    """Transport paths on [0, horizon], one after another, with no exit
    times: so no scipy and no inversion tables.

    Each path takes the steps that follow the last one's in the level and
    sign streams of one set of child streams of rng, so the first path holds
    the first steps of an exact realization from the same rng, with the
    bits of its path_times, signs and skeleton. Steps are drawn
    expected + 4 sqrt(expected) + 16 at a time (expected =
    horizon / mean_step); steps drawn past a path's end start the next one,
    so no bit depends on that size. The arrays a path would hold are
    checked against errors.ALLOC_BUDGET_BYTES before each draw, the first
    when this is called: BudgetError past it.
    """
    horizon = check_real(horizon, "horizon")
    if horizon < 0.0:
        raise InputError(f"horizon must be finite and nonnegative, got {horizon!r}")
    expected = horizon / schedule.mean_step
    size = expected + 4.0 * math.sqrt(expected) + 16
    check_budget(_PATH_HELD * (size + 1), "transport path arrays")
    return _paths(law, schedule, horizon, child_streams(rng), size)


def _paths(law, schedule, horizon, streams, size):
    levels = signs = np.empty(0)  # steps drawn and not yet used
    while True:
        parts, gamma, skel, steps = [], None, None, 0
        while gamma is None or gamma <= horizon:
            if not len(levels):
                check_budget(_PATH_HELD * (steps + size + 1), "transport path arrays")
                levels, signs = _levels_and_signs(law, schedule, streams, int(size))
            # A prefix of a running sum has its bits, so each part is cut at
            # the first clock time past the horizon.
            clock = _running_sum(schedule.normalizer * levels, gamma)
            keep = min(int(np.searchsorted(clock, horizon, side="right")) + 1, len(clock))
            sums = _running_sum(signs[:keep] * levels[:keep], skel)
            parts.append((signs[:keep], clock[:keep], sums))
            gamma, skel, steps = clock[keep - 1], sums[-1], steps + keep
            levels, signs = levels[keep:], signs[keep:]
        signs_, clocks, skels = zip(*parts)
        yield TransportPath(
            law, schedule, np.concatenate(signs_),
            np.concatenate([[0.0], *clocks]), np.concatenate([[0.0], *skels]), horizon,
        )


def sample_embedding_steps(law, schedule, steps, rng):
    """Draw a fixed number of independent embedding steps, no path built.

    Returns (levels, signs, exit_times, durations): the first steps an exact
    realization from the same rng would take, drawn through the same
    streams, with durations = normalizer * levels; meant for marginal checks
    that want many more steps than one covering realization holds.
    """
    steps = check_int(steps, "steps", 1)
    levels, signs, exit_times = _exact_steps(law, schedule, child_streams(rng), steps)
    return levels, signs, exit_times, schedule.normalizer * levels


def exact_blocks(law, schedule, rng):
    """The exact engine's steps as a stream of StepBlocks of at most EXACT_BLOCK steps.

    Levels, exit uniforms and signs each come from their own child stream of
    rng; each block inverts the unit exit distribution for its exit times
    and carries the clocks and the skeleton over from the block before. The
    stream ends with the block where the stop rule's M falls, cut at M.
    Blocks hold at most EXACT_BLOCK steps: up to target + 4 sqrt(target) +
    16 steps in all (target = floor(1 / mean_step) + 2), where M falls in
    nearly every realization, then 4 sqrt(target) + 16 at a time, so a
    realization draws at most that many steps past M. No bit depends on
    the block sizes, so the steps do not depend on how a consumer holds
    them.

    The expected step count, target, is checked against errors.STEP_BUDGET
    when this is called, before any draw or file: BudgetError past it.
    """
    check_steps(_target_steps(schedule), "exact realization")
    return _exact_stream(law, schedule, child_streams(rng))


def _exact_stream(law, schedule, streams):
    # The inversion tables live as long as the process. Built here, before
    # the first block's arrays, they do not sit above those arrays in the
    # heap and keep it from shrinking once the blocks are freed.
    _tables()
    stop = _Stop(schedule)
    count = 0
    carry = None
    while True:
        # Up to stop.block steps in all, then stop.block - target at a time.
        size = min(EXACT_BLOCK, max(stop.block - count, stop.block - stop.target))
        block = _step_block(schedule, count, *_exact_steps(law, schedule, streams, size), carry)
        keep = stop.cut(block)
        if keep is not None:
            # A prefix of a running sum has its bits.
            yield StepBlock(count, *(getattr(block, name)[:keep] for name in _STEP_ARRAYS))
            return
        count += block.n_steps
        carry = (block.path_times[-1], block.bm_times[-1], block.skeleton[-1])
        yield block
        # Not held while the next block is drawn: a consumer that lets go of
        # each block in turn holds one block at a time.
        del block


class _Walk:
    """The grid walk w_i = w_{i-1} + sqrt(h) * Z_i, w_0 = 0, drawn from its
    own stream SUP_BLOCK points at a time as the scan and the diagnostics
    reach it.

    values is the drawn prefix. Each block's cumulative sum starts from the
    carry, which gives the bits of one cumsum over all the increments, so
    no bit depends on the block size. The array starts at the size it is
    given and grows by a quarter, checked as an "extended grid walk", when
    a block would pass its end.
    """

    def __init__(self, rng, h, points):
        check_budget(points, "initial grid walk")
        self._rng, self._h = rng, h
        self._buf = np.empty(points)
        self._buf[0] = 0.0
        self.values = self._buf[:1]
        self._draw()

    def _draw(self):
        a = len(self.values) - 1
        if a + 1 == len(self._buf):
            size = len(self._buf) + len(self._buf) // 4
            check_budget(size, "extended grid walk")
            grown = np.empty(size)
            grown[: a + 1] = self.values
            self._buf = grown
        inc = self._rng.standard_normal(min(SUP_BLOCK, len(self._buf) - 1 - a))
        inc *= math.sqrt(self._h)
        if a:
            inc[0] += self._buf[a]
        b = a + len(inc)
        np.cumsum(inc, out=self._buf[a + 1 : b + 1])
        self.values = self._buf[: b + 1]

    def crossing(self, start, level, chunk):
        """first_crossing from start, drawing blocks until the walk crosses."""
        while (j := first_crossing(self.values, start, level, chunk=chunk)) < 0:
            self._draw()
        return j

    def path(self, last):
        """GridPath of w_0..w_last."""
        while len(self.values) <= last:
            self._draw()
        return GridPath(step=self._h, values=self.values[: last + 1])


def _build_grid(law, schedule, rng, h):
    levels_rng, _, _, walk_rng = child_streams(rng)
    sqrt_h = math.sqrt(h)
    stop = _Stop(schedule)
    est = int(1.10 * max(1.0, (stop.target + 2) * schedule.mean_step) / h) + 1024
    walk = _Walk(walk_rng, h, est + 1)
    parts, exits, lam, clock = [], [0], 0.0, None
    while len(exits) <= stop.need or lam < 1.0:
        count = len(exits) - 1
        batch = sample_exit_level(law, schedule, levels_rng, stop.block)
        # The transport clock after each step, summed left to right from the
        # carry, gives the stop rule's transport terms before the scan.
        clocks = _running_sum(schedule.normalizer * batch, clock)
        clock = clocks[-1]
        stop.transport(count, clocks)
        need = stop.need
        # A level below the correction gives a barrier <= 0: exit on the next step.
        barriers = (batch - BGK_SHIFT * sqrt_h).tolist()
        # min(65536, max(64, int(3 level^2 / h) + 16)), capped before the
        # cast so that no level overflows int64.
        chunks = np.minimum(3.0 * batch * batch / h, 65536.0).astype(np.int64) + 16
        for barrier, chunk in zip(barriers, np.clip(chunks, 64, 65536).tolist()):
            j = walk.crossing(exits[-1], barrier, chunk)
            # Lambda_m with the bits of the running sum _step_block stores.
            lam += (j - exits[-1]) * h
            exits.append(j)
            if lam >= 1.0 and len(exits) > need:
                break
        parts.append(batch[: len(exits) - 1 - count])

    bm_index = np.asarray(exits, dtype=np.int64)
    w = walk.values
    signs = np.where(w[bm_index[1:]] - w[bm_index[:-1]] > 0, 1, -1).astype(np.int64)
    block = _step_block(schedule, 0, np.concatenate(parts), signs, np.diff(bm_index) * h, None)
    # The walk reaches the last exit and everything the diagnostics read:
    # grid times up to 1, lattice times m * mean_step, and the transport
    # clock knots up to Gamma_{m_dec + 1}.
    m_dec = max(int(1.0 / schedule.mean_step), stop.first_cover)
    need_time = max(1.0, float(block.path_times[m_dec]), m_dec * schedule.mean_step)
    last = max(int(need_time / h) + 2, exits[-1])
    return _assemble(law, schedule, "grid", [block], walk.path(last), bm_index)


def _running_sum(steps, carry):
    # In place. np.cumsum adds left to right, so adding the carry into a
    # block's first step gives the bits one cumsum over all blocks would. The
    # first block adds nothing, as that cumsum does: a leading -0.0 stays.
    if carry is not None:
        steps[0] += carry
    return np.cumsum(steps, out=steps)


def _step_block(schedule, start, levels, signs, sigmas, carry):
    # carry: the last (Gamma, Lambda, skeleton) of the block before, or None.
    gamma, lam, skel = (None, None, None) if carry is None else carry
    return StepBlock(
        start=start,
        levels=levels,
        signs=signs,
        exit_times=sigmas,
        path_times=_running_sum(schedule.normalizer * levels, gamma),
        bm_times=_running_sum(sigmas.copy(), lam),
        skeleton=_running_sum(signs * levels, skel),
    )


def _assemble(law, schedule, engine, blocks, grid, bm_index):
    # Every step array joined over the blocks, the running sums after their
    # leading zero.
    arrays = {}
    for name in _STEP_ARRAYS:
        lead = [np.zeros(1)] if name in _SUMS else []
        arrays[name] = np.concatenate([*lead, *(getattr(b, name) for b in blocks)])
    # The builders leave two spare segments past coverage; every index below
    # refers to this array.
    first_cover = int(np.searchsorted(arrays["path_times"], 1.0, side="left"))
    return CoupledRealization(
        law=law, schedule=schedule, engine=engine, **arrays,
        first_cover=first_cover, grid=grid, bm_index=bm_index,
    )


def _require_grid(real: CoupledRealization) -> GridPath:
    if real.grid is None:
        raise InputError("this realization has no grid path; sup distances need engine='grid'")
    return real.grid


def _grid_horizon_index(grid: GridPath) -> int:
    # The largest i with i * h <= 1: one before the first grid time past 1,
    # the first double past 1. int(1 / h) can fall one short of it: at
    # h = 5e-6, 1 / h is 199999.99999999997 while 200000 * h == 1.
    return int(_first_grid_index(np.nextafter(1.0, 2.0), grid.step, len(grid.values))) - 1


def sup_distance(real: CoupledRealization, mode: str = "grid") -> float:
    """Largest |transport - Brownian| gap over [0, 1].

    mode="grid", the only mode, takes the gap at every grid time t_i = i * h
    at or before 1 through value_at's own transport expression (_transport),
    less w, so the sup equals value_at's to the last bit. Segment m owns the
    grid times in [Gamma_m, Gamma_{m+1}), the segment value_at picks, also for a knot on a
    grid time and for a zero-length segment; its first grid index is found
    per interior knot, not per grid time.

    Most segments cannot hold the sup, so not every grid time is evaluated.
    On its grid times a segment's transport values lie between its skeleton
    value and the value at its last grid time, and its walk values between
    the walk's extrema there (one maximum.reduceat and one minimum.reduceat),
    which bounds its gaps. The gaps at every segment's first grid time give a
    lower bound on the sup, and only the segments whose bound reaches it are
    evaluated point by point, gathered in one pass.
    """
    grid = _require_grid(real)
    if mode != "grid":
        raise InputError(f"unknown mode {mode!r}")
    h = grid.step
    size = _grid_horizon_index(grid) + 1
    w = grid.values[:size]
    # Segment m owns grid indices [starts[m], ends[m]); the builders leave
    # Gamma_M > 1 >= t, so the last segment runs to the horizon. Empty
    # segments are dropped, so the kept starts rise strictly from 0.
    m = real.n_steps
    starts = np.concatenate([[0], _first_grid_index(real.path_times[1:m], h, size)])
    ends = np.append(starts[1:], size)
    seg = np.flatnonzero(starts < ends)
    first, last = starts[seg], ends[seg] - 1
    norm = real.schedule.normalizer
    knots = real.path_times[seg], real.signs[seg], real.skeleton[seg]

    best = float(np.abs(_transport(first * h, *knots, norm) - w[first]).max())
    # Every operation of the expression rounds monotonically, so the computed
    # gaps of a segment already lie inside its computed bound; the margin
    # keeps a segment within rounding of best open all the same.
    skel, end = knots[2], _transport(last * h, *knots, norm)
    w_hi, w_lo = np.maximum.reduceat(w, first), np.minimum.reduceat(w, first)
    bound = np.maximum(np.maximum(skel, end) - w_lo, w_hi - np.minimum(skel, end))
    open_ = np.flatnonzero(bound * (1.0 + SUP_MARGIN) >= best)
    # Every grid index of the open segments, each with its segment's knots.
    counts = last[open_] - first[open_] + 1
    i = np.arange(counts.sum()) + np.repeat(first[open_] - (np.cumsum(counts) - counts), counts)
    gap = _transport(i * h, *(np.repeat(x[open_], counts) for x in knots), norm)
    gap -= w[i]
    return float(np.abs(gap, out=gap).max(initial=best))


def _first_grid_index(x, h, size):
    # The first i in [0, size] with i * h >= x, the index searchsorted would
    # give in the grid times i * h, found from ceil(x / h) and corrected by
    # whole steps where that quotient rounded.
    i = np.minimum(np.ceil(np.asarray(x) / h), size).astype(np.int64)
    while True:
        down = (i > 0) & ((i - 1) * h >= x)
        if not down.any():
            break
        i -= down
    while True:
        up = (i < size) & (i * h < x)
        if not up.any():
            return i
        i += up


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

    # The builder draws the walk past every index read here.
    gam_idx = (real.path_times[: m_dec + 2] / h).astype(np.int64)
    starts, ends = gam_idx[:-1], gam_idx[1:]
    at_lambda = w[real.bm_index[: m_dec + 1]]
    at_lattice = w[(np.arange(m_dec + 1) * sched.mean_step / h).astype(np.int64)]
    at_gamma = w[starts]
    j1 = float(np.abs(at_lambda - at_lattice).max())
    j2 = float(np.abs(at_gamma - at_lattice).max())

    # Window maxima of |w - anchor| over [gam_idx[m], gam_idx[m+1]] per m.
    reduce_idx = np.concatenate([starts, ends[-1:]])
    win_max = np.maximum(np.maximum.reduceat(w, reduce_idx)[:-1], w[ends])
    win_min = np.minimum(np.minimum.reduceat(w, reduce_idx)[:-1], w[ends])
    j3 = float(np.maximum(win_max - at_gamma, at_gamma - win_min).max())

    j4 = float((sched.normalizer * real.levels[: m_dec + 1]).max()) / sched.normalizer

    drift = float(np.abs(real.skeleton[: m_dec + 1] - at_lambda).max())
    slack = drift + 2.0 * _largest_step(w)
    sup = sup_distance(real, "grid")
    dec = SupDecomposition(j1=j1, j2=j2, j3=j3, j4=j4, sup=sup, slack=slack, segments=m_dec)
    if dec.bound_gap > 0:
        raise ConsistencyError(
            f"sup {sup} exceeds decomposition bound by {dec.bound_gap} "
            f"(n={sched.n}, k={sched.k})"
        )
    return dec


def _largest_step(w):
    # max |w[i+1] - w[i]| over the walk, SUP_BLOCK differences at a time.
    top = 0.0
    for a in range(0, len(w) - 1, SUP_BLOCK):
        d = np.diff(w[a : a + SUP_BLOCK + 1])
        top = max(top, float(np.abs(d, out=d).max()))
    return top


@dataclass
class EmbeddingSums:
    """Running sums behind embedding_diagnostics, added one block at a time.

    normalizer is the schedule's: a step's duration is normalizer * level.
    add takes anything with levels and exit_times arrays: a StepBlock or a
    whole CoupledRealization. For one whole realization the means are those
    of np.mean, bit for bit.
    """

    normalizer: float
    steps: int = 0
    exit_time: float = 0.0
    duration: float = 0.0
    exit_time_sq: float = 0.0
    level_4: float = 0.0

    def add(self, part) -> None:
        sig = part.exit_times
        self.steps += len(sig)
        self.exit_time += float(sig.sum())
        self.duration += float((self.normalizer * part.levels).sum())
        self.exit_time_sq += float((sig**2).sum())
        self.level_4 += float((part.levels**4).sum())

    def tally(self, blocks):
        """Yield blocks unchanged, adding each one first."""
        for block in blocks:
            self.add(block)
            yield block
            del block  # not held while the next block is drawn

    def diagnostics(self) -> dict[str, float]:
        """The fields of embedding_diagnostics."""
        n = self.steps
        mean_x4 = self.level_4 / n
        return {
            "steps": float(n),
            "mean_exit_time": self.exit_time / n,
            "mean_duration": self.duration / n,
            "second_moment_ratio": self.exit_time_sq / n / mean_x4 if mean_x4 > 0 else float("nan"),
        }


def embedding_diagnostics(real: CoupledRealization) -> dict[str, float]:
    """Empirical moment summary of the embedding steps.

    second_moment_ratio is mean(sigma^2) / mean(xi^4), the observable
    counterpart of the universal constant bounding E(sigma^2) by E(xi^4);
    it is reported, never used in any computation.
    """
    sums = EmbeddingSums(real.schedule.normalizer)
    sums.add(real)
    return sums.diagnostics()
