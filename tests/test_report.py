import math

from ballgrad.report import worst_error_check


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
