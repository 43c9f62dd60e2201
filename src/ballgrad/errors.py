"""Shared exception types and the package's one dimension check."""

import math


class ConvergenceError(RuntimeError):
    """An iterative computation exhausted its budget before meeting its target.

    Carries the best value computed so far and an estimate of its error so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, value, error_estimate):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def check_count(value, minimum, message):
    """``value`` as an int if it is a whole number >= ``minimum`` and not a
    bool; otherwise ``ValueError(message)``, the same for a fraction, a
    number below the minimum, NaN, +-inf and a bool."""
    if isinstance(value, bool) or not minimum <= value < math.inf or value != int(value):
        raise ValueError(message)
    return int(value)


def check_dim(n, minimum):
    """:func:`check_count` with the message ``dimension must be an integer >= minimum``."""
    return check_count(n, minimum, f"dimension must be an integer >= {minimum}")
