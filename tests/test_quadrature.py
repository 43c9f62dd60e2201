import math

import numpy as np
import pytest

from ballgrad.errors import ConvergenceError
from ballgrad.quadrature import (
    QuadratureSpec,
    integrate,
    zonal_sphere_integral,
    zonal_weight_normalization,
)


def test_constant_is_exact():
    res = integrate(lambda t: np.ones_like(t), -1.0, 1.0)
    assert res.value == pytest.approx(2.0, abs=1e-14)
    assert res.error_estimate <= 1e-12


def test_kinked_weighted_integrand():
    # |t| sqrt(1-t^2) has antiderivative -(1-t^2)^(3/2)/3 on each side of 0
    spec = QuadratureSpec(kinks=(0.0,))
    res = integrate(lambda t: np.abs(t) * np.sqrt((1.0 - t) * (1.0 + t)), -1.0, 1.0, spec)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_profile_type_integrand_matches_closed_form():
    # dimension-3 profile integrand at rho = 0.25; oracle 1.0017301295578687
    # is the elementary closed form evaluated in extended precision
    rho = 0.25
    s = rho / 3.0

    def f(t):
        return np.abs(t - s) / np.sqrt(1.0 - 2.0 * t * rho + rho * rho)

    res = integrate(f, -1.0, 1.0, QuadratureSpec(kinks=(s,)))
    assert res.value == pytest.approx(1.0017301295578687, abs=1e-10)


@pytest.mark.parametrize("degree", range(0, 30))
def test_polynomial_exactness_away_from_endpoints(degree):
    # 15-node panels integrate degree <= 29 exactly when no endpoint
    # substitution is triggered
    a, b = -0.9, 0.8
    exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    res = integrate(lambda t: t**degree, a, b)
    assert res.value == pytest.approx(exact, abs=1e-13)
    assert res.subdivisions_used == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_kink_declaration_matches_refined_naive(n):
    spec_tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=20000)
    for s in (-0.7, -0.2, 0.1, 0.5, 0.8):

        def f(t):
            return np.abs(t - s) * ((1.0 - t) * (1.0 + t)) ** (0.5 * (n - 3))

        aware = integrate(f, -1.0, 1.0, QuadratureSpec(kinks=(s,)))
        naive = integrate(f, -1.0, 1.0, spec_tight)
        tol = max(1e-12, 1e-11 * abs(aware.value))
        assert abs(aware.value - naive.value) <= tol


def _honesty_corpus():
    """Integrands on [-1, 1] paired with exact values and any declared kinks."""
    cases = []
    for k in range(10):
        cases.append((lambda t, k=k: t**k, (1.0 - (-1.0) ** (k + 1)) / (k + 1), ()))
    for a in (-2.0, -1.0, 1.0, 2.0, 3.0):
        cases.append((lambda t, a=a: np.exp(a * t), (math.exp(a) - math.exp(-a)) / a, ()))
    for w in (1.0, 3.0, 7.0, 11.0, 15.0):
        cases.append((lambda t, w=w: np.sin(w * t), 0.0, ()))
        cases.append((lambda t, w=w: np.cos(w * t), 2.0 * math.sin(w) / w, ()))
    for a in (1.2, 1.5, 2.0, 3.0):
        cases.append((lambda t, a=a: 1.0 / (t + a), math.log((1.0 + a) / (a - 1.0)), ()))
    cases.append((lambda t: 1.0 / (1.0 + t * t), 2.0 * math.atan(1.0), ()))
    cases.append((lambda t: 1.0 / (2.0 - t), math.log(3.0), ()))
    for s in (-0.8, -0.5, 0.0, 0.3, 0.6, 0.8):
        cases.append(
            (lambda t, s=s: np.abs(t - s), ((1.0 + s) ** 2 + (1.0 - s) ** 2) / 2.0, (s,))
        )
    for s in (-0.3, 0.2):
        cases.append((lambda t, s=s: np.abs(t - s) * t, s**3 / 3.0 - s, (s,)))
    cases.append((lambda t: np.sqrt((1.0 - t) * (1.0 + t)), math.pi / 2.0, ()))
    cases.append((lambda t: ((1.0 - t) * (1.0 + t)) ** 1.5, 3.0 * math.pi / 8.0, ()))
    cases.append((lambda t: np.exp(-t * t), math.sqrt(math.pi) * math.erf(1.0), ()))
    cases.append((lambda t: np.log(2.0 + t), 3.0 * math.log(3.0) - 2.0, ()))
    cases.append((lambda t: np.cosh(t), 2.0 * math.sinh(1.0), ()))
    cases.append((lambda t: np.sinh(t), 0.0, ()))
    cases.append((lambda t: np.arctan(t), 0.0, ()))
    cases.append(
        (lambda t: np.exp(t) * np.sin(t), (math.e * (math.sin(1) - math.cos(1)) - (math.sin(-1) - math.cos(-1)) / math.e) / 2.0, ())
    )
    cases.append(
        (lambda t: np.exp(t) * np.cos(t), (math.e * (math.sin(1) + math.cos(1)) - (math.sin(-1) + math.cos(-1)) / math.e) / 2.0, ())
    )
    cases.append((lambda t: t * t * np.exp(t), (1.0 * math.e) - 5.0 / math.e, ()))
    cases.append((lambda t: np.cos(0.5 * t), 4.0 * math.sin(0.5), ()))
    return cases


def test_honesty_corpus_has_enough_cases():
    assert len(_honesty_corpus()) >= 50


def test_error_estimates_are_honest():
    over, total = 0, 0
    for f, exact, kinks in _honesty_corpus():
        spec = QuadratureSpec(kinks=kinks)
        res = integrate(f, -1.0, 1.0, spec)
        # reported estimate honors the success contract at these tolerances
        assert res.error_estimate <= max(spec.abs_tol, spec.rel_tol * abs(res.value))
        true_err = abs(res.value - exact)
        total += 1
        if true_err > res.error_estimate:
            over += 1
        assert true_err <= 10.0 * max(res.error_estimate, 1e-16), f"estimate badly off for {exact}"
    assert over <= 0.05 * total


def test_budget_exhaustion_carries_best_estimate():
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate(lambda t: np.abs(t - 0.37), -1.0, 1.0, spec)
    err = excinfo.value
    assert err.value == pytest.approx(((1.37) ** 2 + (0.63) ** 2) / 2.0, abs=1e-3)
    assert err.error_estimate > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_integrand_stops_in_the_first_round(bad):
    # one piece costs three panel calls (whole panel, left and right
    # halves); non-finite halves raise before any bisection
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return np.full_like(t, bad)

    with pytest.raises(ConvergenceError, match="^quadrature gave a non-finite value or error estimate$"):
        integrate(f, -0.5, 0.5)
    assert calls == [(15,)] * 3


def test_non_finite_whole_panel_still_bisects():
    # the middle node of the whole panel [-1/2, 1/2] is t = 0, where f is
    # NaN; no node of a half panel is, so the piece is bisected
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return np.where(t == 0.0, np.nan, np.cos(t))

    res = integrate(f, -0.5, 0.5)
    assert len(calls) > 3 and res.subdivisions_used >= 1
    assert res.value == pytest.approx(2.0 * math.sin(0.5), abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e-16)
    with pytest.raises(ValueError):
        QuadratureSpec(kinks=(0.5, 0.2))
    with pytest.raises(ValueError):
        QuadratureSpec(kinks=(-1.5,))
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        integrate(lambda t: t, 1.0, -1.0)
    with pytest.raises(ValueError):
        integrate(lambda t: t, 0.0, 1.0, QuadratureSpec(kinks=(-0.5,)))


@pytest.mark.parametrize(
    "tolerances",
    [{"abs_tol": math.nan}, {"abs_tol": math.inf}, {"rel_tol": math.nan}, {"rel_tol": math.inf}],
)
def test_spec_rejects_non_finite_tolerances(tolerances):
    # nan would spend the whole budget and then report a missed tolerance;
    # inf would stop at once with no accuracy control, in both engines
    with pytest.raises(ValueError, match="finite"):
        QuadratureSpec(**tolerances)


@pytest.mark.parametrize("field", ["max_subdivisions", "base_nodes"])
@pytest.mark.parametrize("count", [math.nan, math.inf, 1.5, True])
def test_spec_rejects_counts_that_are_not_integers(field, count):
    # a nan budget never compares as spent, so a hard integrand would run forever
    with pytest.raises(ValueError, match="integer"):
        QuadratureSpec(**{field: count})


def test_zonal_normalization():
    assert zonal_sphere_integral(lambda t: np.ones_like(t), 5).value == pytest.approx(1.0, abs=1e-12)


def test_zonal_odd_integrand_vanishes():
    assert zonal_sphere_integral(lambda t: t, 4).value == pytest.approx(0.0, abs=1e-12)


def test_zonal_abs_dimension_three():
    spec = QuadratureSpec(kinks=(0.0,))
    assert zonal_sphere_integral(np.abs, 3, spec).value == pytest.approx(0.5, abs=1e-12)


def test_zonal_normalization_constant():
    # c_3 = 1/2 and c_4 = 2/pi
    assert zonal_weight_normalization(3) == pytest.approx(0.5, rel=1e-14)
    assert zonal_weight_normalization(4) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_zonal_singular_weight_dimension_two():
    # weight (1-t^2)^(-1/2): the constant datum still integrates to 1
    assert zonal_sphere_integral(lambda t: np.ones_like(t), 2).value == pytest.approx(1.0, abs=1e-11)
