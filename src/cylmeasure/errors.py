"""Exception types shared across the package.

The CLI maps these onto exit codes: ``InputError`` (and its subclasses)
exits with 2, ``NumericError`` with 3.
"""

import math


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class UndecidableError(InputError):
    """A symbolic decision was requested for data that cannot support it.

    Raised when a series-convergence question is asked about a tabulated
    tail: a finite table of values carries no information about the tail,
    so neither verdict would be honest.
    """


class NumericError(RuntimeError):
    """A numeric target could not be met.

    Carries optional keyword context (e.g. ``achieved=...`` for an error
    bound that fell short of the requested tolerance, or ``sample=...``
    for the input that produced a non-finite value).
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


def require_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not positive and finite (nan included)."""
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol}")


def require_count(value, what: str, least: int = 0) -> None:
    """Refuse a count or bound that is not an ``int`` (a ``bool`` is refused
    too) or is below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{what} must be >= {least}, got {value}")


def require_budget(cost: int, budget: int, what: str) -> None:
    """Refuse a size ``cost`` above ``budget``; called before anything of that
    size is allocated.  A cost of 30 digits or more is shown as a power of ten,
    since Python refuses to print an int of more than 4,300 digits."""
    if cost > budget:
        shown = cost if cost < 10**30 else f"about 10^{math.log10(cost):.0f}"
        raise InputError(f"{what} {shown} exceeds the budget of {budget}")


def require_indices(indices, what: str) -> None:
    """Refuse an index that is not a natural >= 1 (an ``int``, not a ``bool``)
    or that repeats."""
    seen = set()
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise InputError(f"{what} must be a natural >= 1, got {i!r}")
        if i in seen:
            raise InputError(f"duplicate {what} {i}")
        seen.add(i)
