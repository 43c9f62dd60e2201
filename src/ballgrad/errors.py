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


def check_dim(n, minimum):
    """``n`` as an int if it is a whole number >= ``minimum``; otherwise
    ``ValueError("dimension must be an integer >= minimum")``, the same
    message for a fraction, a number below the minimum, NaN and +-inf."""
    if not minimum <= n < math.inf or n != int(n):
        raise ValueError(f"dimension must be an integer >= {minimum}")
    return int(n)
