"""The entry rules of errors: each public entry that takes a count, a scale,
an evaluation time or a law parameter refuses a bad one with InputError
naming it."""

import math

import numpy as np
import pytest

from renewalbm.coupling import build_coupled_realization, sample_embedding_steps, transport_paths
from renewalbm.errors import InputError
from renewalbm.exit_times import grid_exit
from renewalbm.experiments import covariance_check, ks_uniform, rate_scale
from renewalbm.laws import JumpLaw, deterministic, exponential, two_point, uniform01
from renewalbm.transport import scaling_constants

_SCHED = scaling_constants(uniform01(), 2.0, 10)


# Each entry: the call with the value under test, and the message it must
# start with.
_ENTRIES = {
    "steps": (lambda v, rng: sample_embedding_steps(uniform01(), _SCHED, v, rng),
              "steps must be positive and an integer, got"),
    "a": (lambda v, rng: grid_exit(v, 1e-4, rng), "a must be positive and finite, got"),
    "high": (lambda v, rng: ks_uniform(np.linspace(0.0, 1.0, 100), v), "high must be positive and finite, got"),
    "k": (lambda v, rng: scaling_constants(uniform01(), v, 4), "k must be a finite real, got"),
    "h": (lambda v, rng: grid_exit(100.0, v, rng), "h must be positive and finite, got"),
    "grid_step": (lambda v, rng: build_coupled_realization(uniform01(), _SCHED, rng, engine="grid", grid_step=v),
                  "grid_step must be a finite real, got"),
    "horizon": (lambda v, rng: transport_paths(uniform01(), _SCHED, v, rng), "horizon must be a finite real, got"),
    "rate_scale.n": (lambda v, rng: rate_scale(v, 2.0), "n must be at least 2 and an integer, got"),
    "rate_scale.k": (lambda v, rng: rate_scale(4, v), "k must be a finite real, got"),
    "s": (lambda v, rng: covariance_check(uniform01(), 2.0, 10, v, 1.0, 100, rng), "s must be a finite real, got"),
    "t": (lambda v, rng: covariance_check(uniform01(), 2.0, 10, 0.5, v, 100, rng), "t must be a finite real, got"),
    # value_at on paths drawn from their own generator, not the one checked
    "value_at": (lambda v, rng: build_coupled_realization(
        uniform01(), _SCHED, np.random.default_rng(1), engine="exact").value_at(v),
        "t must be a real or an array of reals, got"),
    "TransportPath.value_at": (lambda v, rng: next(transport_paths(
        uniform01(), _SCHED, 1.0, np.random.default_rng(1))).value_at(v),
        "t must be a real or an array of reals, got"),
    "exponential": (lambda v, rng: exponential(v), "exponential parameters must be reals, got"),
    "deterministic": (lambda v, rng: deterministic(v), "deterministic parameters must be reals, got"),
    "two_point": (lambda v, rng: two_point(0.0, v, 0.5), "two_point parameters must be reals, got"),
    "JumpLaw": (lambda v, rng: JumpLaw("deterministic", (v,)), "deterministic parameters must be reals, got"),
    "JumpLaw.params": (lambda v, rng: JumpLaw("exponential", v),
                       "exponential parameters must be a sequence of reals, got"),
    # an int past the float range reads as +/-inf, which each rule refuses
    "n": (lambda v, rng: scaling_constants(uniform01(), 2.0, v),
          r"scale n=1\d{400} with k=2.0 gives mean_step 0.0 and normalizer 0.0"),
    "deterministic.range": (lambda v, rng: deterministic(v),
                            r"invalid jump law deterministic:-?inf: .*nonfinite parameter$"),
    "JumpLaw.range": (lambda v, rng: JumpLaw("two_point", (0, v, 0.5)),
                      r"invalid jump law two_point:0.0,-?inf,0.5: .*nonfinite parameter$"),
}

# Python ints past the float range, by their test ids
_HUGE = {"10**400": 10**400, "-10**400": -(10**400)}

# bool, str, a mixed list and a bool array: none is a real or an array of reals
_NOT_REAL = (True, "0.5", [0.5, "1"], np.array([True, False]))


@pytest.mark.parametrize(
    "name, value",
    [("steps", v) for v in (True, 2.7, "3", 0)]
    + [("a", v) for v in (math.inf, math.nan, True, "1")]
    + [("high", v) for v in (math.inf, True, "1")]
    + [("k", v) for v in ("3", True, math.inf, math.nan)]
    + [("h", v) for v in ("1e-4", True, math.inf, math.nan)]
    + [("grid_step", v) for v in ("1e-4", True, math.inf, math.nan)]
    + [("horizon", v) for v in (True, "1", math.inf, math.nan)]
    + [("rate_scale.n", v) for v in (2.5, True, "3", 1)]
    + [("rate_scale.k", v) for v in ("2", True, math.inf, math.nan)]
    + [("s", v) for v in (True, "0.5", math.nan)]
    + [("t", v) for v in (True, "1", math.nan)]
    + [(name, v) for name in ("value_at", "TransportPath.value_at", "exponential", "deterministic",
                              "two_point", "JumpLaw") for v in _NOT_REAL]
    + [("JumpLaw.params", v) for v in (2.0, None)]
    + [pytest.param(name, v, id=f"{name}-{label}")
       for name in ("a", "high", "k", "h", "grid_step", "horizon", "rate_scale.k", "s", "t",
                    "deterministic.range", "JumpLaw.range") for label, v in _HUGE.items()]
    + [pytest.param("n", 10**400, id="n-10**400")],
)
def test_entry_refuses_a_bad_count_or_scale(name, value):
    call, message = _ENTRIES[name]
    rng = np.random.default_rng(0)
    with pytest.raises(InputError, match=rf"^{message}"):
        call(value, rng)
    assert rng.random() == np.random.default_rng(0).random()  # refused before any draw
