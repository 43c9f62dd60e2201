"""Structured results for the verification sweeps.

A report is a named list of checks.  A check may be flagged ``expected``,
meaning a failure there is documented behavior (for instance the concavity
sweep in dimension three) and must not fail the run as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    at: str
    expected: bool = False

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst_margin", float(self.worst_margin))
        object.__setattr__(self, "expected", bool(self.expected))

    def as_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "worst_margin": self.worst_margin,
            "at": self.at,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    n: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def passed(self) -> bool:
        """True when every check either passed or is an expected failure."""
        return all(c.passed or c.expected for c in self.checks)

    def as_dict(self):
        return {
            "suite": self.suite,
            "n": self.n,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
        }


def merge_reports(suite: str, n: int, reports) -> VerificationReport:
    """Concatenate several reports into one, prefixing check names."""
    checks = [replace(c, name=f"{rep.suite}/{c.name}") for rep in reports for c in rep.checks]
    return VerificationReport(suite=suite, n=n, checks=tuple(checks))


def extreme_check(name: str, values, at, passes, smallest=False, expected=False) -> CheckResult:
    """The check on the largest entry of ``values`` (the smallest with
    ``smallest``), read flat in C order: the first of equal entries, or the
    first NaN.  ``passes`` judges the entry, and ``at`` labels it from its
    index, one argument per axis."""
    values = np.asarray(values)
    flat = int(np.argmin(values) if smallest else np.argmax(values))
    worst = float(values.flat[flat])
    return CheckResult(name, passes(worst), worst, at(*map(int, np.unravel_index(flat, values.shape))), expected)


def worst_error_check(name: str, errors, tol: float) -> CheckResult:
    """Check that every error in ``errors``, pairs of (error, location), is
    at most ``tol``.  Reports the largest error and where it first occurs,
    0 and no location when none is positive, or the first NaN, which fails."""
    errors = [(0.0, ""), *errors]
    return extreme_check(name, [err for err, _ in errors], lambda i: errors[i][1], lambda err: err <= tol)
