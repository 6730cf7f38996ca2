"""Exception types shared across the package."""


class PcompError(Exception):
    """Base class for errors raised by this package."""


class InvalidParameterError(PcompError, ValueError):
    """An argument violates a documented precondition (range, shape, bounds)."""


def _at_least(name: str, value: int, low: int) -> None:
    """The one floor check: refuse value below low, naming the parameter."""
    if value < low:
        raise InvalidParameterError(f"need {name} >= {low}, got {name}={value}")


class InfeasibleError(PcompError):
    """A construction's feasibility inequality fails; the message names it."""


class ScaleError(PcompError):
    """An exact-search size guard was exceeded; pass a larger guard to override."""


class UnsupportedInstanceError(PcompError):
    """No decision path (constructive or exhaustive) applies to the instance."""
