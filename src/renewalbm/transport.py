"""Scaling constants of the transport process at scale n.

The transport path at scale n runs at slope +/-1/normalizer between the
arrivals of a renewal process with interarrival times time_scale * J, J a
jump law draw. coupling draws it from the levels and signs of a coupled
realization (coupling.transport_paths); this module holds only the
schedule, and scaling_constants is the one place a schedule is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .laws import JumpLaw, moments


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

    Raises InputError unless k > 1, n is a positive integer (not a bool),
    and mean_step and normalizer are at least the smallest normal float, so
    1 / mean_step is finite. Both are finite, since the law's moments are: it
    was checked when it was built.
    """
    if not k > 1.0:
        raise InputError("k must exceed 1")
    if isinstance(n, (bool, np.bool_)) or not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InputError(f"n must be a positive integer, got {n!r}")
    m1, m2, _ = moments(law)
    time_scale = float(n) ** (-float(k))
    normalizer = math.sqrt(time_scale * m2 / m1)
    mean_step = time_scale * m1
    tiny = float(np.finfo(float).tiny)
    if not (mean_step >= tiny and normalizer >= tiny):
        raise InputError(
            f"scale n={n} with k={k!r} gives mean_step {mean_step!r} and "
            f"normalizer {normalizer!r}; both must be at least {tiny!r}"
        )
    return ScalingSchedule(
        k=float(k),
        n=int(n),
        time_scale=time_scale,
        normalizer=normalizer,
        mean_step=mean_step,
    )
