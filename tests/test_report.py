import math

import numpy as np

from ballgrad.report import extreme_check, worst_error_check


def test_worst_error_and_its_first_location():
    check = worst_error_check("x", [(1e-9, "a"), (3e-7, "b"), (3e-7, "c")], 1e-6)
    assert (check.passed, check.worst_margin, check.at) == (True, 3e-7, "b")
    assert worst_error_check("x", [(2e-6, "a")], 1e-6).passed is False


def test_no_positive_error_reports_zero():
    check = worst_error_check("x", [(0.0, "a"), (-1.0, "b")], 1e-6)
    assert (check.passed, check.worst_margin, check.at) == (True, 0.0, "")


def test_a_nan_error_fails_the_check_where_it_first_occurs():
    # nan > worst is false, so a plain running maximum skips a NaN and passes
    for errors in ([(math.nan, "a"), (1e-20, "b")], [(1e-20, "b"), (math.nan, "a"), (math.nan, "c")]):
        check = worst_error_check("x", errors, 1e-6)
        assert check.passed is False and math.isnan(check.worst_margin) and check.at == "a"


def _label(*index):
    return ",".join(map(str, index))


def test_the_first_of_equal_entries_wins():
    for smallest, values in ((False, [1.0, 3.0, 2.0, 3.0]), (True, [2.0, -1.0, 0.5, -1.0])):
        check = extreme_check("x", values, _label, lambda v: True, smallest=smallest)
        assert (check.worst_margin, check.at) == (values[1], "1")


def test_the_first_nan_is_reported_where_it_occurs_and_fails():
    for smallest in (False, True):
        check = extreme_check("x", [1.0, math.nan, -5.0, math.nan, 5.0], _label, lambda v: True, smallest=smallest)
        assert math.isnan(check.worst_margin) and check.at == "1"
        check = extreme_check("x", [1.0, math.nan], _label, lambda v: v <= 2.0, smallest=smallest)
        assert check.passed is False and check.at == "1"


def test_smallest_against_largest():
    values = np.array([0.5, -2.0, 7.0, 1.0])
    largest = extreme_check("x", values, _label, lambda v: v <= 10.0)
    smallest = extreme_check("x", values, _label, lambda v: v > 0.0, smallest=True, expected=True)
    assert (largest.passed, largest.worst_margin, largest.at, largest.expected) == (True, 7.0, "2", False)
    assert (smallest.passed, smallest.worst_margin, smallest.at, smallest.expected) == (False, -2.0, "1", True)
    assert type(largest.worst_margin) is float


def test_a_2d_array_is_read_in_radius_major_order():
    # ties: the first in C order, radius by radius and sample by sample
    # within a radius, as a loop over radii and then samples keeps it
    def at(j, i):
        return f"sample={i},rho={(0.1, 0.2)[j]:.3f}"

    entries = np.array([[0.0, 2.0, 2.0], [2.0, 1.0, 0.0]])
    for rows, label in ((entries, "sample=1,rho=0.100"), (entries[::-1], "sample=0,rho=0.100")):
        check = extreme_check("x", rows, at, lambda v: True)
        assert (check.worst_margin, check.at) == (2.0, label)


def test_a_zero_fails_a_strict_positivity_predicate():
    check = extreme_check("x", [3.0, 0.0, 1.0], _label, lambda v: v > 0.0, smallest=True)
    assert (check.passed, check.worst_margin, check.at) == (False, 0.0, "1")
    check = extreme_check("x", [-3.0, -0.0, -1.0], _label, lambda v: v < 0.0)
    assert (check.passed, check.worst_margin, check.at) == (False, 0.0, "1")
