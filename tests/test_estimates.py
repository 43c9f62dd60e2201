"""Every route that returns an Evaluation carries the estimate it computed,
and that estimate bounds the route's error against known values."""

import math

import mpmath
import numpy as np
import pytest

from ballgrad.bounds import BoundQuery, ball_volume, capital_c, khavinson_radial_3d, schwarz_pick_constant
from ballgrad.errors import Evaluation
from ballgrad.harmonic import (
    AxisPoint,
    extremal_gradient_at_origin,
    extremal_sign_datum,
    hemisphere_datum,
    poisson_kernel,
    radial_derivative,
    radial_derivative_kernel,
    random_zonal_data,
    sharp_radial_sup,
    zonal_poisson_value,
)
from ballgrad.phi import phi3_closed, phi_one_sided, phi_quad, phi_second_closed
from ballgrad.quadrature import (
    band_node_table,
    integrate,
    zonal_band_integrals,
    zonal_sphere_integral,
    zonal_weight_normalization,
)

DIMENSIONS = [2, 3, 4, 5, 12, 44]
RADII = [0.0, 0.5, 0.9]


# ---------------------------------------------------------------------------
# each route returns the estimate it computed


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("rho", RADII)
def test_capital_c_scales_the_profile_estimate(n, rho):
    # the estimate of phi_quad times (n-1) m_{n-1}/m_n / (1 - rho^2), the
    # factor that scales the value
    bound, profile = capital_c(BoundQuery(n, rho)), phi_quad(n, rho)
    scale = (n - 1.0) * ball_volume(n - 1) / ball_volume(n)
    assert isinstance(bound, Evaluation)
    assert bound.error_estimate == scale * profile.error_estimate / (1.0 - rho * rho)
    assert bound.value == scale * profile.value / (1.0 - rho * rho)


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("rho", RADII)
def test_zonal_sphere_integral_scales_the_quadrature_estimate(n, rho):
    def kernel(t):
        return poisson_kernel(n, rho, t)

    c = zonal_weight_normalization(n)
    raw = integrate(kernel, -1.0, 1.0, weight_exponent=0.5 * (n - 3))
    assert zonal_sphere_integral(kernel, n) == Evaluation(c * raw.value, c * raw.error_estimate)


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("rho", RADII)
@pytest.mark.parametrize(
    "route, kernel", [(radial_derivative, radial_derivative_kernel), (zonal_poisson_value, poisson_kernel)]
)
def test_harmonic_routes_carry_the_band_engine_estimate(n, rho, route, kernel):
    # the estimate of zonal_band_integrals on the datum's node table
    for datum in (hemisphere_datum(), random_zonal_data(5, 4), extremal_sign_datum(n, rho)):
        bands = zonal_band_integrals(lambda t: kernel(n, rho, t), band_node_table(n, datum.breakpoints))
        result = route(n, datum, AxisPoint(rho))
        assert isinstance(result.value, float)
        assert result.error_estimate == bands.error_estimate > 0.0


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("rho", RADII)
def test_sharp_radial_sup_is_the_derivative_at_its_datum(n, rho):
    p = AxisPoint(rho)
    assert sharp_radial_sup(n, p) == radial_derivative(n, extremal_sign_datum(n, rho), p)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_extremal_gradient_is_the_derivative_at_the_hemisphere(n):
    assert extremal_gradient_at_origin(n) == radial_derivative(n, hemisphere_datum(), AxisPoint(0.0))


# ---------------------------------------------------------------------------
# the estimate bounds the error against known values


def _hemisphere_value_3d(rho):
    """The hemisphere datum's extension on the axis in dimension three."""
    return 1.0 / rho - (1.0 - rho * rho) / (rho * math.sqrt(1.0 + rho * rho))


@pytest.mark.parametrize(
    "rho",
    [
        0.1,
        0.3,
        0.5,
        0.7,
        0.9,
        0.95,
        0.99,
        # ROADMAP item 4: the band engine's estimate is 4.33e-12 here against
        # an error of 1.71e-11; a priori panels with an analytic bound (item
        # 12) are meant to close it
        pytest.param(0.999, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4: silent cell")),
    ],
)
def test_hemisphere_value_within_its_estimate(rho):
    result = zonal_poisson_value(3, hemisphere_datum(), AxisPoint(rho))
    assert abs(result.value - _hemisphere_value_3d(rho)) <= result.error_estimate


@pytest.mark.parametrize("n", range(2, 13))
def test_extremal_gradient_within_its_estimate(n):
    result = extremal_gradient_at_origin(n)
    assert abs(result.value - schwarz_pick_constant(n)) <= result.error_estimate


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
def test_capital_c_within_its_estimate_in_dimension_three(rho):
    result = capital_c(BoundQuery(3, rho))
    assert abs(result.value - khavinson_radial_3d(rho)) <= result.error_estimate


def _profile_40_digits(n, rho):
    """The defining integral of the profile at the float ``rho`` in 40-digit
    arithmetic, split at the kink s."""
    with mpmath.workdps(40):
        r = mpmath.mpf(rho)
        s, p = (n - 2) * r / n, mpmath.mpf(n - 3) / 2

        def integrand(t):
            return abs(t - s) * (1 - t * t) ** p * (1 - 2 * t * r + r * r) ** (-p - mpmath.mpf(1) / 2)

        return mpmath.quad(integrand, [-1, s - (1 + s) / 64, s, s + (1 - s) / 64, 1])


# ROADMAP items 2 and 13: the adaptive quadrature of the defining integral
# converges falsely.  In dimension three the true error is 1.84 times the
# estimate at 1 - 1e-6, and 6.67e-8 against an estimate of 1.34e-12 at
# 1 - 1e-7; at (44, 0.999) it is 5.46e-15 against 2.19e-15.  These are the
# known silent cells of the full-interval route; the one-sided route is
# within its estimate at each of them
_PROFILE_FALSE_CONVERGENCE = pytest.mark.xfail(strict=True, reason="ROADMAP items 2 and 13: silent cell")


@pytest.mark.parametrize(
    "n, rho",
    [
        *((3, rho) for rho in (0.0, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1.0)),
        pytest.param(3, 1.0 - 1e-6, marks=_PROFILE_FALSE_CONVERGENCE),
        pytest.param(3, 1.0 - 1e-7, marks=_PROFILE_FALSE_CONVERGENCE),
        pytest.param(44, 0.999, marks=_PROFILE_FALSE_CONVERGENCE),
    ],
)
def test_full_interval_profile_within_its_estimate(n, rho):
    result = phi_quad(n, rho)
    exact = phi3_closed(rho) if n == 3 else float(_profile_40_digits(n, rho))
    assert abs(result.value - exact) <= result.error_estimate


@pytest.mark.parametrize(
    "n, rho",
    [
        # every cell of the full-interval route above, its strict xfails
        # among them, and ROADMAP item 13's silent cells of phi_quad at
        # 1 - 1e-10
        *((3, rho) for rho in (0.0, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1.0)),
        (3, 1.0 - 1e-6),
        (3, 1.0 - 1e-7),
        (44, 0.999),
        (12, 1.0 - 1e-10),
        (45, 1.0 - 1e-10),
    ],
)
def test_one_sided_profile_within_its_estimate(n, rho):
    result = phi_one_sided(n, rho)
    exact = phi3_closed(rho) if n == 3 else float(_profile_40_digits(n, rho))
    assert abs(result.value - exact) <= result.error_estimate


@pytest.mark.parametrize("n", [3, 4, 12, 44, 200])
def test_monotone_sweep_estimates_stay_below_its_margin(n):
    # the sweep's strictness margin is 1e-12 on differences of neighbouring
    # values; an estimate ten times below it leaves no verdict in doubt
    assert phi_one_sided(n, np.linspace(0.0, 1.0, 1001)).error_estimate.max() <= 1e-13


def _second_closed_50_digits(n, rho):
    """The closed form of the profile's second derivative at the float
    ``rho``, in 50-digit arithmetic with mpmath's own 2F1."""
    with mpmath.workdps(50):
        n, t = mpmath.mpf(n), mpmath.mpf(rho) ** 2
        a, w = 1 - (n - 4) * t / n, 1 - (n - 2) ** 2 * t / n**2
        b, c = 1 - (n - 2) * (n - 3) * t / n**2, 1 - (n - 2) * (n - 3) * t / (n * (n - 1))
        e = 1 - (n - 2) * t / n
        f = mpmath.hyp2f1(1, n / 2, (n + 1) / 2, t * w / a)
        return 2 * (n - 2) / t * w ** ((n - 3) / 2) * a ** (-n / 2) * (b * a - c * w * e * f)


@pytest.mark.parametrize(
    "n, rho",
    [
        # ROADMAP item 16's cells, each silent while the 2F1 came from the
        # Gauss series: errors of 6.9e-12 to 3.1e-10 against estimates that
        # assumed it met 1e-13
        (12, 0.99),
        (30, 0.9),
        (45, 0.99),
        (101, 0.99),
        (101, 0.999),
        (200, 0.99),
        (500, 0.9),
        *((n, rho) for n in (3, 4, 12) for rho in (0.01, 0.5, 0.9, 0.999, 1.0)),
    ],
)
def test_closed_second_derivative_within_its_estimate(n, rho):
    result = phi_second_closed(n, rho)
    assert abs(result.value - float(_second_closed_50_digits(n, rho))) <= result.error_estimate


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("rho", RADII)
def test_sharp_radial_sup_and_capital_c_agree_within_both_estimates(n, rho):
    sup, bound = sharp_radial_sup(n, AxisPoint(rho)), capital_c(BoundQuery(n, rho))
    assert abs(sup.value - bound.value) <= sup.error_estimate + bound.error_estimate


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("rho", RADII)
def test_poisson_kernel_normalization_within_its_estimate(n, rho):
    result = zonal_sphere_integral(lambda t: poisson_kernel(n, rho, t), n)
    assert abs(result.value - 1.0) <= result.error_estimate
