"""Exception types shared across the package, and the integer check that raises them."""

import operator


class SteinDeltaError(ValueError):
    """Base class for all library errors."""


class RangeError(SteinDeltaError):
    """An exact-arithmetic or enumeration scale guard was exceeded."""


class DomainError(SteinDeltaError):
    """An argument is outside the mathematical domain of the operation."""


class ArgumentError(SteinDeltaError):
    """Arguments are structurally invalid (shape, sign, ordering, ...)."""


def as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; ArgumentError unless it is an integer >= ``minimum``.

    Floats are rejected rather than truncated: 2.5 replicates is an error, not 2.
    Booleans are rejected too: JSON ``true`` is not the count 1.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ArgumentError(f"{name} must be >= {minimum}, got {count}")
    return count


class CapabilityError(SteinDeltaError):
    """The requested operation is not available for this input kind."""


class MissingMomentsError(SteinDeltaError):
    """A required moment-table entry is absent.

    ``keys`` lists the missing (index, order) entries so the caller can
    rebuild the table with the right orders.
    """

    def __init__(self, keys):
        self.keys = sorted(keys)
        super().__init__(f"missing moment entries: {self.keys}")
