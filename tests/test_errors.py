"""The entry rules of errors: each public entry that takes a count or a
scale refuses a bad one with InputError naming the parameter."""

import math

import numpy as np
import pytest

from renewalbm.coupling import sample_embedding_steps
from renewalbm.errors import InputError
from renewalbm.exit_times import grid_exit
from renewalbm.experiments import ks_uniform
from renewalbm.laws import uniform01
from renewalbm.transport import scaling_constants

_SCHED = scaling_constants(uniform01(), 2.0, 10)


_ENTRIES = {
    "steps": lambda v, rng: sample_embedding_steps(uniform01(), _SCHED, v, rng),
    "a": lambda v, rng: grid_exit(v, 1e-4, rng),
    "high": lambda v, rng: ks_uniform(np.linspace(0.0, 1.0, 100), v),
}


@pytest.mark.parametrize(
    "name, value",
    [("steps", v) for v in (True, 2.7, "3", 0)]
    + [("a", v) for v in (math.inf, math.nan, True, "1")]
    + [("high", v) for v in (math.inf, True, "1")],
)
def test_entry_refuses_a_bad_count_or_scale(name, value):
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match=rf"^{name} must be positive and"):
        _ENTRIES[name](value, rng)
    assert rng.random() == np.random.default_rng(0).random()  # refused before any draw
