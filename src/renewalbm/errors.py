"""Exception types and the allocation budget shared across the package.

One class per outcome: InputError for input that fails its preconditions
(command-line exit 2), BudgetError for a request past the allocation budget
or past the step budget (exit 3), NumericError and ConsistencyError for failures on valid input
(exit 1). Inputs are checked where they enter: a JumpLaw when it is built, a
schedule in scaling_constants, a count or scale at each public entry through
check_int, check_real and check_positive, the one integer rule, the one real
rule and the one positive-real rule of the package, so code downstream does
not check them again. is_real is the type test of the real rule, which a
JumpLaw's parameters pass too, and to_float its one float conversion, which
reads an int past the float range as +/-inf, so the rule refuses it.
"""

import math
import numbers

import numpy as np

# Largest array of float64 values the simulators may create, in bytes. Grid
# walks and renewal event arrays are checked against it before they are
# allocated, and an exact realization built in memory as a whole: the two
# copies of its step arrays that joining its blocks holds. A too-large
# request fails fast with BudgetError instead of exhausting memory.
ALLOC_BUDGET_BYTES = 1 << 30

# Largest expected step count, floor(1 / mean_step) + 2, of one exact
# realization. The streamed exact engine holds one block at a time, so the
# byte budget bounds neither its run time nor its output; this does, before
# the first draw. A streamed couple wrote 1.15 M rows a second (n = 4096,
# k = 2, 2-core box), so 2**28 steps take it about four minutes and 18 GB
# of CSV; k = 2 is admitted up to n = 16383.
STEP_BUDGET = 1 << 28


class InputError(ValueError):
    """A law, schedule, parameter, evaluation time or command-line input
    fails its preconditions."""


class BudgetError(RuntimeError):
    """An array would exceed the allocation budget, or a realization the
    step budget."""


class NumericError(ArithmeticError):
    """A series or iteration failed to reach the requested tolerance."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed on a concrete realization."""


def check_budget(points, what: str) -> None:
    """Raise BudgetError unless an array of points float64 values fits the budget."""
    if 8 * points > ALLOC_BUDGET_BYTES:
        raise BudgetError(
            f"{what} of {points:,.0f} points needs {8 * points:,.0f} bytes, "
            f"past the {ALLOC_BUDGET_BYTES:,}-byte allocation budget"
        )


def check_steps(steps, what: str) -> None:
    """Raise BudgetError if a realization of about steps steps is past the step budget."""
    if steps > STEP_BUDGET:
        raise BudgetError(
            f"{what} of about {steps:.3g} steps is past the step budget of {STEP_BUDGET:,} steps"
        )


def check_int(value, name: str, least: int) -> int:
    """value as an int, once it is known to be an integer (numpy's too, not a
    bool) no smaller than least; InputError naming it otherwise."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) or value < least:
        rule = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise InputError(f"{name} must be {rule} and an integer, got {value!r}")
    return int(value)


def to_float(value) -> float:
    """float(value), the package's one float conversion of a real: a value
    past the float range, such as an int of 400 digits, reads as +/-inf
    instead of raising OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_real(value) -> bool:
    """True when value is a real number (numpy's too) and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_real(value, name: str, least: float = -math.inf) -> float:
    """value as a float (to_float), once it is known to be a finite real
    (is_real) above least, -inf or 0; InputError naming it otherwise."""
    x = to_float(value) if is_real(value) else math.nan
    if not least < x < math.inf:
        rule = "a finite real" if least == -math.inf else "positive and finite"
        raise InputError(f"{name} must be {rule}, got {value!r}")
    return x


def check_positive(value, name: str) -> float:
    """check_real above 0: value as a float, once it is known to be a finite
    positive real; InputError naming it otherwise."""
    return check_real(value, name, 0.0)
