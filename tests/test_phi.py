import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballgrad import quadrature
from ballgrad.cli import main
from ballgrad.errors import ConvergenceError
from ballgrad.phi import (
    SECOND_CLOSED_RHO_MIN,
    phi3_closed,
    phi_quad,
    phi_quad_grid,
    phi_second_closed,
    phi_second_fd,
    phi_second_series,
    phi_series,
    psi,
    psi_prime_closed,
    psi_prime_quadratic,
    technical_gap,
    varphi,
    verify_concavity,
    verify_monotone,
    verify_technical,
)
from ballgrad.quadrature import QuadratureSpec


class TestPhiQuad:
    def test_value_at_origin(self):
        assert phi_quad(4, 0.0).value == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert phi_quad(7, 0.0).value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_dimension_three_closed_form(self):
        assert phi_quad(3, 0.5).value == pytest.approx(phi3_closed(0.5), abs=1e-10)

    def test_dimension_three_closed_form_on_full_range(self):
        for rho in np.linspace(0.0, 1.0, 21):
            rho = float(rho)
            assert phi_quad(3, rho).value == pytest.approx(phi3_closed(rho), abs=1e-10)

    def test_dimension_two_profile_is_constant(self):
        for rho in (0.0, 0.4, 0.9):
            assert phi_quad(2, rho).value == pytest.approx(2.0, abs=1e-10)

    def test_endpoint_radius_allowed(self):
        # integrable endpoint singularity at rho = 1
        assert phi_quad(3, 1.0).value == pytest.approx(16.0 / (9.0 * math.sqrt(3.0)), abs=1e-10)
        assert phi_quad(5, 1.0).value > 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            phi_quad(1, 0.5)
        with pytest.raises(ValueError):
            phi_quad(4, 1.2)


class TestPhiQuadGrid:
    def test_dimension_three_closed_form_on_the_monotone_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        values, estimates = phi_quad_grid(3, grid)
        for rho, value, estimate in zip(grid, values, estimates):
            assert abs(value - phi3_closed(float(rho))) <= max(1e-12, estimate)
            # on success the summed gap is within max(abs_tol, rel_tol * value)
            assert 0.0 < estimate <= 2.0 * max(1e-12, 1e-11 * value)

    @pytest.mark.parametrize("n, rho", [(3, 0.3), (4, 0.0), (4, 0.75), (5, 1.0), (12, 0.5), (40, 0.95)])
    def test_matches_mpmath_oracle(self, n, rho):
        (value,), (estimate,) = phi_quad_grid(n, [rho])
        with mpmath.workdps(30):
            r = mpmath.mpf(rho)
            s = (n - 2) * r / n

            def integrand(t):
                return abs(t - s) * (1 - t * t) ** (mpmath.mpf(n - 3) / 2) * (1 - 2 * t * r + r * r) ** (
                    -mpmath.mpf(n - 2) / 2
                )

            exact = mpmath.quad(integrand, [-1, s, 1])
        assert abs(value - float(exact)) <= max(1e-12, estimate)

    @pytest.mark.parametrize("rhos", [[], [[0.5]], [-0.1, 0.5], [0.5, 1.5], [math.nan]])
    def test_rejects_bad_radii(self, rhos):
        with pytest.raises(ValueError):
            phi_quad_grid(4, rhos)

    def test_exhausted_budget_raises(self):
        with pytest.raises(ConvergenceError):
            phi_quad_grid(12, [0.2, 0.9], QuadratureSpec(max_subdivisions=1))

    def test_exhausted_budget_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))
        code = main(["verify", "--n", "12", "--suite", "monotone"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: band quadrature did not meet its tolerance")


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5, 12, 40]),
    rhos=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_grid_matches_the_adaptive_route(n, rhos):
    rhos = [0.0, 1.0, *rhos]
    values, estimates = phi_quad_grid(n, rhos)
    for rho, value, estimate in zip(rhos, values, estimates):
        scalar = phi_quad(n, rho)
        assert abs(value - scalar.value) <= max(1e-12, estimate + scalar.error_estimate)


class TestPhiSeries:
    def test_origin_head_only(self):
        assert phi_series(4, 0.0, K=50).value == pytest.approx(2.0 / 3.0, abs=1e-11)

    def test_matches_quadrature(self):
        assert phi_series(5, 0.5, K=200).value == pytest.approx(
            phi_quad(5, 0.5).value, abs=1e-8
        )

    def test_matches_closed_form_high_radius(self):
        assert phi_series(3, 0.9, K=400).value == pytest.approx(phi3_closed(0.9), abs=1e-8)

    def test_adaptive_truncation(self):
        ev = phi_series(6, 0.7)
        assert ev.value == pytest.approx(phi_quad(6, 0.7).value, abs=1e-9)
        assert ev.error_estimate <= 1e-10

    def test_rejects_radius_one(self):
        with pytest.raises(ValueError):
            phi_series(4, 1.0)


class TestPhi3Closed:
    def test_origin_limit(self):
        assert phi3_closed(0.0) == 1.0
        assert phi3_closed(1e-5) == pytest.approx(1.0, abs=1e-9)

    def test_taylor_branch_is_continuous(self):
        below = phi3_closed(9.999e-5)
        above = phi3_closed(1.001e-4)
        assert below == pytest.approx(above, abs=1e-12)

    def test_value_at_one(self):
        # (2/3) (4/3)^(3/2)
        assert phi3_closed(1.0) == pytest.approx(1.0264004785593347, rel=1e-15)

    def test_value_at_half(self):
        # (8/3) ((13/12)^(3/2) - 3/4), extended-precision oracle
        assert phi3_closed(0.5) == pytest.approx(1.0068508881177473, rel=1e-14)


class TestVarphi:
    def test_vanishes_at_zero(self):
        assert varphi(5, 0.0) == 0.0

    def test_value_at_one(self):
        # algebraic simplification to (n-1)/n
        assert varphi(4, 1.0) == pytest.approx(0.75, rel=1e-15)
        assert varphi(6, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-15)


class TestSecondDerivative:
    def test_closed_matches_finite_difference(self):
        c = phi_second_closed(4, 0.5).value
        f = phi_second_fd(4, 0.5).value
        assert c == pytest.approx(f, rel=1e-6)

    def test_closed_is_negative_high_dimension(self):
        assert phi_second_closed(6, 0.9).value < 0.0

    def test_closed_matches_series(self):
        assert phi_second_closed(5, 0.3).value == pytest.approx(
            phi_second_series(5, 0.3).value, abs=1e-9
        )
        assert phi_second_closed(5, 0.4).value == pytest.approx(
            phi_second_series(5, 0.4, K=300).value, abs=1e-9
        )

    def test_series_at_origin_n4(self):
        # only the degree-0 terms survive: 1/2 - 4/3 + 4/5
        assert phi_second_series(4, 0.0).value == pytest.approx(-1.0 / 30.0, rel=1e-10)

    def test_series_at_origin_n3_positive(self):
        # 2/9 - 2/3 + 1/2, positive: the profile curves up in dimension three
        assert phi_second_series(3, 0.0).value == pytest.approx(1.0 / 18.0, rel=1e-10)

    def test_closed_form_guard(self):
        with pytest.raises(ValueError):
            phi_second_closed(3, 0.5)
        with pytest.raises(ValueError):
            phi_second_closed(4, 0.5 * SECOND_CLOSED_RHO_MIN)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_three_routes_agree(self, n):
        for rho in (0.05, 0.35, 0.65, 0.95):
            c = phi_second_closed(n, rho).value
            s = phi_second_series(n, rho).value
            f = phi_second_fd(n, rho).value
            scale = abs(c)
            assert abs(c - s) / scale <= 1e-6
            assert abs(c - f) / scale <= 1e-6


class TestPsi:
    def test_zero_at_origin(self):
        assert psi(5, 0.0) == 0.0

    def test_positive_above_dimension_three(self):
        assert psi(6, 0.5) > 0.0

    def test_negative_in_dimension_three(self):
        assert psi(3, 0.5) < 0.0

    def test_prime_matches_finite_difference(self):
        h = 1e-6
        for n in (4, 5, 7):
            for t in (0.2, 0.5, 0.8):
                fd = (psi(n, t + h) - psi(n, t - h)) / (2.0 * h)
                assert psi_prime_closed(n, t) == pytest.approx(fd, rel=1e-5)

    def test_quadratic_factor_constant_n4(self):
        for t in (0.0, 0.3, 0.7, 1.0):
            assert psi_prime_quadratic(4, t) == 128.0

    def test_quadratic_factor_n5_at_one(self):
        # 1000 - 330 + 18
        assert psi_prime_quadratic(5, 1.0) == 688.0

    def test_prime_domain(self):
        with pytest.raises(ValueError):
            psi_prime_closed(3, 0.5)
        with pytest.raises(ValueError):
            psi_prime_closed(4, 0.0)


class TestTechnicalGap:
    def test_sides_coincide_at_origin(self):
        assert technical_gap(5, 0.0) == 0.0

    def test_sign_pattern(self):
        assert technical_gap(4, 0.5) > 0.0
        assert technical_gap(12, 0.99) > 0.0
        assert technical_gap(3, 0.5) < 0.0


class TestVerifyMonotone:
    def test_decreasing_above_three(self):
        report = verify_monotone(4, 400)
        assert report.passed
        names = {c.name for c in report.checks}
        assert "strictly_decreasing" in names
        assert "derivative_zero_at_origin" in names

    def test_increasing_at_three(self):
        report = verify_monotone(3, 400)
        assert report.passed
        assert any(c.name == "strictly_increasing" for c in report.checks)
        assert any(c.name == "maximum_at_one" for c in report.checks)

    def test_high_dimension(self):
        assert verify_monotone(12, 200).passed


class TestVerifyConcavity:
    def test_concave_above_three(self):
        report = verify_concavity(4, 200)
        assert report.passed
        neg = next(c for c in report.checks if c.name == "second_derivative_negative")
        assert neg.passed and not neg.expected

    def test_dimension_three_expected_failure(self):
        report = verify_concavity(3, 200)
        assert report.passed  # failure is expected, not an error
        neg = next(c for c in report.checks if c.name == "second_derivative_negative")
        assert not neg.passed
        assert neg.expected
        assert neg.worst_margin > 0.0

    def test_dimension_ten(self):
        assert verify_concavity(10, 150).passed


class TestVerifyTechnical:
    def test_positive_gap_above_three(self):
        report = verify_technical(4, 301)
        assert report.passed
        assert any(c.name == "gap_positive" and c.passed for c in report.checks)
        assert any(c.name == "psi_positive" and c.passed for c in report.checks)
        assert any(c.name == "quadratic_positive" and c.passed for c in report.checks)

    def test_reversed_at_three(self):
        report = verify_technical(3, 301)
        assert report.passed
        assert any(c.name == "gap_reversed" and c.passed for c in report.checks)

    def test_high_dimension(self):
        assert verify_technical(12, 301).passed


def test_quadrature_spec_passthrough():
    tight = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13)
    ev = phi_quad(5, 0.25, tight)
    assert ev.error_estimate <= 1e-12
    assert ev.method == "quad"
