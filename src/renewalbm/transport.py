"""Renewal paths and the piecewise-linear transport processes built on them.

A renewal path at scale n records arrival times time_scale * (U_1 + ... + U_m)
on [0, horizon] together with a fair coin flip per arrival. The transport
path integrates a +/-1 sign that toggles at the flipped arrivals and divides
by the normalizing constant, giving a piecewise-linear path of slope
magnitude 1/normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    InputError,
    ParameterError,
    RateConditionError,
    check_budget,
)
from .laws import JumpLaw, moments, sample_jumps


@dataclass(frozen=True)
class ScalingSchedule:
    """Scale-n constants derived from a jump law.

    time_scale:  n**-k, the clock compression at scale n. Summability of the
                 schedule over n is what drives almost-sure convergence, hence
                 the k > 1 requirement.
    normalizer:  sqrt(time_scale * m2 / m1); the transport path slope
                 magnitude is its reciprocal.
    mean_step:   time_scale * m1, the mean spacing between scaled arrivals
                 and the mean duration of one embedding step.
    """

    k: float
    n: int
    time_scale: float
    normalizer: float
    mean_step: float


def scaling_constants(law: JumpLaw, k: float, n: int) -> ScalingSchedule:
    """Build the ScalingSchedule for (law, k, n).

    Raises RateConditionError unless k > 1, ParameterError for bad n or law.
    """
    if not k > 1.0:
        raise RateConditionError("k must exceed 1")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    m1, m2, _ = moments(law)
    time_scale = float(n) ** (-float(k))
    return ScalingSchedule(
        k=float(k),
        n=int(n),
        time_scale=time_scale,
        normalizer=math.sqrt(time_scale * m2 / m1),
        mean_step=time_scale * m1,
    )


@dataclass(eq=False)
class RenewalPath:
    """Arrivals of the scaled renewal process on [0, horizon].

    initial_reward is the coin flip attached to time 0; times/flips hold one
    entry per arrival at or before the horizon (an arrival exactly at t
    counts at t). Arrival times are nondecreasing, and strictly increasing
    when the jump law has no atoms.
    """

    initial_reward: int
    times: np.ndarray
    flips: np.ndarray
    horizon: float
    schedule: ScalingSchedule
    _flip_prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._flip_prefix = np.cumsum(self.flips, dtype=np.int64)

    def renewal_count(self, t: float) -> int:
        """Number of arrivals in [0, t]."""
        self._check_domain(t)
        return int(np.searchsorted(self.times, t, side="right"))

    def reward_at(self, t: float) -> int:
        """initial_reward plus the number of flipped arrivals in [0, t]."""
        idx = self.renewal_count(t)
        extra = int(self._flip_prefix[idx - 1]) if idx else 0
        return self.initial_reward + extra

    def _check_domain(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"t={t!r} outside [0, {self.horizon!r}]")


def sample_renewal_path(
    law: JumpLaw,
    schedule: ScalingSchedule,
    horizon: float,
    rng: np.random.Generator,
) -> RenewalPath:
    """Simulate one renewal path on [0, horizon].

    Before each block of jumps is drawn, the event count it would bring the
    path to is checked against errors.ALLOC_BUDGET_BYTES (CapacityError), so
    nothing past it is allocated; the first block holds the expected count
    horizon/mean_step plus six standard deviations. Draw order is fixed
    (initial flip, jump blocks, arrival flips) so equal seeds give identical
    paths.
    """
    if horizon < 0:
        raise DomainError(f"horizon must be nonnegative, got {horizon!r}")
    expected = horizon / schedule.mean_step
    initial = int(rng.integers(0, 2))
    if horizon == 0:
        times = np.empty(0)
    else:
        blocks: list[np.ndarray] = []
        total = 0
        running = 0.0
        block = max(64, int(expected + 6.0 * math.sqrt(expected + 1.0) + 16))
        while True:
            check_budget(total + block, "renewal event array", CapacityError)
            jumps = sample_jumps(law, rng, block)
            partial = running + np.cumsum(jumps)
            scaled = schedule.time_scale * partial
            blocks.append(scaled)
            total += block
            running = float(partial[-1])
            if scaled[-1] > horizon:
                break
            block = max(64, block // 4)
        times = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        times = times[: np.searchsorted(times, horizon, side="right")]
    flips = rng.integers(0, 2, size=times.size).astype(np.uint8)
    return RenewalPath(
        initial_reward=initial,
        times=times,
        flips=flips,
        horizon=float(horizon),
        schedule=schedule,
    )


@dataclass(eq=False)
class TransportPath:
    """Piecewise-linear transport path on [0, horizon].

    knot_times[0] is 0 and the remaining knots are the sign-change times;
    knot_values are the path values there (0 at 0). On segment i the slope is
    initial_sign * (-1)**i / normalizer.
    """

    slope_mag: float
    initial_sign: int
    knot_times: np.ndarray
    knot_values: np.ndarray
    horizon: float

    def value_at(self, t):
        """Evaluate the path at scalar or array t in [0, horizon].

        Exact at knots: the left-knot value is returned with a zero-length
        linear correction, so no rounding enters.
        """
        arr = np.asarray(t, dtype=float)
        if arr.size and (arr.min() < 0.0 or arr.max() > self.horizon):
            raise DomainError(f"evaluation time outside [0, {self.horizon!r}]")
        seg = np.searchsorted(self.knot_times, arr, side="right") - 1
        seg = np.minimum(seg, len(self.knot_times) - 1)
        signs = np.where(seg % 2 == 0, self.initial_sign, -self.initial_sign)
        val = self.knot_values[seg] + signs * (arr - self.knot_times[seg]) * self.slope_mag
        return float(val) if np.isscalar(t) or arr.ndim == 0 else val


def build_transport_path(path: RenewalPath, schedule: ScalingSchedule) -> TransportPath:
    """Turn a renewal path into its transport path.

    Only flipped arrivals change the sign; unflipped ones leave the slope
    alone and produce no knot.
    """
    if path.schedule != schedule:
        raise ParameterError("renewal path was sampled under a different schedule")
    breakpoints = path.times[path.flips == 1]
    knots = np.concatenate([[0.0], breakpoints])
    initial_sign = 1 if path.initial_reward % 2 == 0 else -1
    slope_mag = 1.0 / schedule.normalizer
    if breakpoints.size:
        seg_signs = np.where(np.arange(breakpoints.size) % 2 == 0, initial_sign, -initial_sign)
        values = np.concatenate([[0.0], np.cumsum(seg_signs * np.diff(knots) * slope_mag)])
    else:
        values = np.zeros(1)
    return TransportPath(
        slope_mag=slope_mag,
        initial_sign=initial_sign,
        knot_times=knots,
        knot_values=values,
        horizon=path.horizon,
    )


def terminal_samples(
    law: JumpLaw,
    schedule: ScalingSchedule,
    reps: int,
    rng: np.random.Generator,
    *,
    horizon: float = 1.0,
) -> np.ndarray:
    """reps independent draws of the transport path value at the horizon."""
    if reps < 1:
        raise InputError(f"reps must be at least 1, got {reps}")
    out = np.empty(reps)
    for i in range(reps):
        path = sample_renewal_path(law, schedule, horizon, rng)
        out[i] = build_transport_path(path, schedule).value_at(horizon)
    return out
