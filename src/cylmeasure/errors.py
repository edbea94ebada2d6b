"""Exception types shared across the package.

The CLI maps these onto exit codes: ``InputError`` (and its subclasses)
exits with 2, ``NumericError`` with 3.
"""

import math
import sys


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


_LARGEST = sys.float_info.max
_LEAST = -_LARGEST
_LONG = 10**30  # an int this long or longer is shown as a power of ten


def _shown(value) -> str:
    """``repr(value)`` cut to 60 characters, so a refused JSON array prints one
    short line, and an int of 31 digits or more as "about 10^k": Python
    refuses to print an int of more than 4,300 digits."""
    if type(value) is int and not -_LONG < value < _LONG:
        return f"about {'-' * (value < 0)}10^{math.log10(abs(value)):.0f}"
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:57]}..."


# each domain of ``require_real`` as the open interval whose floats and ints
# are exactly its members: 5e-324 is the least positive float
_DOMAINS = {"> 0": (0.0, math.inf), ">= 0": (-5e-324, math.inf), "(0, 1)": (0.0, 1.0),
            "[0, 1]": (-5e-324, math.nextafter(1.0, 2.0))}


def require_real(value, what: str, domain: str | None = None) -> None:
    """Refuse a value that is not a finite ``int`` or ``float`` (nor a ``bool``)
    or that lies outside ``domain``: "> 0", ">= 0", "(0, 1)" or "[0, 1]"."""
    kind = type(value)  # float and int first: isinstance costs more than the rest
    if (kind is not float and kind is not int
            and (kind is bool or not isinstance(value, (float, int)))
            or not _LEAST <= value <= _LARGEST):
        raise InputError(f"{what} must be a finite number, got {_shown(value)}")
    if domain is not None:
        lo, hi = _DOMAINS[domain]
        if not lo < value < hi:
            rule = f"lie in {domain}" if domain[0] in "([" else f"be {domain}"
            raise InputError(f"{what} must {rule}, got {value}")


def require_count(value, what: str, least: int = 0) -> None:
    """Refuse a count or bound that is not an ``int`` (a ``bool`` is refused
    too) or is below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {_shown(value)}")
    if value < least:
        raise InputError(f"{what} must be >= {least}, got {_shown(value)}")


def require_seed(seed) -> None:
    """Refuse a seed that is not an ``int`` in [0, 2^64) (a ``bool`` is refused
    too): every stochastic entry point takes one explicit 64-bit seed."""
    require_count(seed, "seed")
    if seed >= 2**64:
        raise InputError(f"seed must be < 2^64, got {_shown(seed)}")


def require_budget(cost: int, budget: int, what: str) -> None:
    """Refuse a size ``cost`` above ``budget``; called before anything of that
    size is allocated."""
    if cost > budget:
        raise InputError(f"{what} {_shown(cost)} exceeds the budget of {budget}")


def require_indices(indices, what: str) -> None:
    """Refuse an index that is not a natural >= 1 (an ``int``, not a ``bool``)
    or that repeats."""
    seen = set()
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise InputError(f"{what} must be a natural >= 1, got {_shown(i)}")
        if i in seen:
            raise InputError(f"duplicate {what} {i}")
        seen.add(i)
