"""Exception types shared across the package."""


class PcompError(Exception):
    """Base class for errors raised by this package."""


class InvalidParameterError(PcompError, ValueError):
    """An argument violates a documented precondition (range, shape, bounds)."""


def _at_least(name: str, value: int, low: int) -> None:
    """The one floor check: refuse a value that is not an int (a bool is
    not) or is below low, naming the parameter."""
    if type(value) is not int:
        raise InvalidParameterError(f"need {name} to be an int, got {name}={value!r}")
    if value < low:
        raise InvalidParameterError(f"need {name} >= {low}, got {name}={value}")


class InfeasibleError(PcompError):
    """A construction's feasibility inequality fails; the message names it."""


class ScaleError(PcompError):
    """An exact-search size guard was exceeded; pass a larger guard to override."""


class UnsupportedInstanceError(PcompError):
    """No decision path (constructive or exhaustive) applies to the instance."""
