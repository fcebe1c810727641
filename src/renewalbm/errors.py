"""Exception types and the allocation budget shared across the package."""

# Largest array of float64 values the simulators may create, in bytes. Grid
# walks, exact realization arrays and renewal event arrays are checked
# against it before they are allocated, so a too-large request fails fast
# with BudgetError instead of exhausting memory.
ALLOC_BUDGET_BYTES = 1 << 30


class ParameterError(ValueError):
    """A law, schedule, or engine parameter is outside its admissible range."""


class RateConditionError(ParameterError):
    """The decay exponent k does not satisfy k > 1."""


class DomainError(ValueError):
    """An evaluation time lies outside the object's domain."""


class InputError(ValueError):
    """An experiment input fails its preconditions."""


class UnsupportedModeError(ValueError):
    """The requested measurement mode is unavailable for this realization."""


class BudgetError(RuntimeError):
    """An array would exceed the allocation budget."""


class NumericError(ArithmeticError):
    """A series or iteration failed to reach the requested tolerance."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed on a concrete realization."""


class UsageError(ValueError):
    """Invalid command line or config file input."""


def check_budget(points, what: str) -> None:
    """Raise BudgetError unless an array of points float64 values fits the budget."""
    if 8 * points > ALLOC_BUDGET_BYTES:
        raise BudgetError(
            f"{what} of {points:,.0f} points needs {8 * points:,.0f} bytes, "
            f"past the {ALLOC_BUDGET_BYTES:,}-byte allocation budget"
        )
