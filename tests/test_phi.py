import dataclasses
import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballgrad import phi as phi_module
from ballgrad import quadrature, specfun
from ballgrad.errors import ConvergenceError, Evaluation
from ballgrad.phi import (
    SECOND_CLOSED_RHO_MIN,
    _gap_from,
    phi3_closed,
    phi_one_sided,
    phi_quad,
    phi_second,
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
from ballgrad.specfun import profile_hyp2f1


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

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 44])
    def test_head_is_the_degree_zero_and_one_terms(self, n):
        # M0 + M1 rho, the integral of |x - s| (1 - x^2)^((n-3)/2) (1 + (n-2) x rho),
        # equals 2 (1 - s^2)^((n+1)/2) / (n - 1)
        with mpmath.workdps(40):
            for rho in (0.3, 0.9, 0.98):
                r = mpmath.mpf(rho)
                s = (n - 2) * r / n

                def integrand(x):
                    return abs(x - s) * (1 - x * x) ** (mpmath.mpf(n - 3) / 2) * (1 + (n - 2) * x * r)

                moments = mpmath.quad(integrand, [-1, s, 1])
                factored = 2 * (1 - s * s) ** (mpmath.mpf(n + 1) / 2) / (n - 1)
                assert abs(moments - factored) <= 1e-20 * factored, rho

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 44, 60, 100])
    def test_head_keeps_its_relative_precision(self, n):
        # with K = 0 only the head is summed; the factored form stays
        # accurate relative to itself where the moments cancel (at n = 60,
        # rho = 0.98 it is 2.3e-32), up to the conditioning of w^((n+1)/2)
        for rho in (0.3, 0.9, 0.98):
            head = phi_series(n, rho, K=0).value
            s2 = ((n - 2.0) * rho / n) ** 2
            with mpmath.workdps(40):
                s = (n - 2) * mpmath.mpf(rho) / n
                exact = float(2 * (1 - s * s) ** (mpmath.mpf(n + 1) / 2) / (n - 1))
            bound = 4 * 2.0**-53 * ((n + 1) / 2 * (1 + 2 * s2 / (1 - s2)) + 2)
            assert head > 0.0 and abs(head - exact) <= bound * exact, rho


SERIES_FIXTURE = json.loads((Path(__file__).parent / "series_fixture.json").read_text())
FIXTURE_RADII = [float.fromhex(h) for h in SERIES_FIXTURE["radii"]]


def _recorded(name, n):
    return [tuple(map(float.fromhex, pair)) for pair in SERIES_FIXTURE[name][str(n)]]


class TestBatchedSeries:
    """Both series take a sequence of radii; every entry must be the value
    and estimate of its one-radius call, which in turn are those of the
    one-radius loop the batched sum replaced (``series_fixture.json``)."""

    @pytest.mark.parametrize("n", [3, 4, 12, 44])
    def test_second_series_is_bit_identical_to_the_recorded_loop(self, n):
        recorded = _recorded("phi_second_series", n)
        batch = phi_second_series(n, FIXTURE_RADII)
        assert [(e.value, e.error_estimate) for e in batch] == recorded
        for rho, pair in zip(FIXTURE_RADII[::7], recorded[::7]):
            single = phi_second_series(n, rho)
            assert (single.value, single.error_estimate) == pair

    @pytest.mark.parametrize("n", [3, 4, 12, 44])
    def test_series_moves_only_by_the_factored_head(self, n):
        # the head is now 2 (1 - s^2)^((n+1)/2) / (n - 1) instead of a
        # difference of moments; the tail and its stopping degree are as before
        batch = phi_series(n, FIXTURE_RADII)
        for rho, e, (value, estimate) in zip(FIXTURE_RADII, batch, _recorded("phi_series", n)):
            assert e.error_estimate == estimate, rho
            assert abs(e.value - value) <= 4.4e-16, rho

    def test_one_number_gives_one_evaluation(self):
        single = phi_second_series(4, 0.5)
        (batched,) = phi_second_series(4, [0.5])
        assert single == batched
        assert isinstance(single.value, float)

    @pytest.mark.parametrize("fn", [phi_series, phi_second_series])
    @pytest.mark.parametrize("rhos", [[], np.zeros((2, 2)), [0.5, math.nan], [0.2, 1.0], [0.2, 1.5], [-0.1]])
    def test_rejects_bad_radii(self, fn, rhos):
        with pytest.raises(ValueError):
            fn(4, rhos)

    def test_memory_stays_bounded(self, traced_growth):
        # passes of 64 radii hold their terms until each radius stops; a
        # long sequence must not hold more than about one pass at a time
        radii = np.linspace(0.0, 0.999, 10_000)
        result, growth = traced_growth(lambda: phi_second_series(3, radii), lambda: phi_second_series(3, [0.5]))
        assert len(result) == radii.size
        assert growth < 2_000_000

    @pytest.mark.parametrize("fn", [phi_series, phi_second_series])
    @pytest.mark.parametrize("K", [-1, 1.5, True, False, math.nan, math.inf, -math.inf, 3001, 10**9])
    def test_rejects_bad_truncation_degree(self, fn, K):
        # an unbounded K ran for minutes, and a NaN or huge one reported an
        # error estimate of 0.0 after rho^k underflowed
        with pytest.raises(ValueError, match="K must be an integer"):
            fn(4, 0.999, K=K)

    @pytest.mark.parametrize("fn", [phi_series, phi_second_series])
    def test_accepts_truncation_degrees_up_to_the_cap(self, fn):
        assert fn(4, 0.5, K=np.int64(5)) == fn(4, 0.5, K=5.0) == fn(4, 0.5, K=5)
        assert fn(4, [0.0, 0.2, 0.9], K=3000) == fn(4, [0.0, 0.2, 0.9], K=3000.0)


# the origin, radii at the 3000-degree cap at n = 12, and radii that stop
# at many degrees, most of them inside a block of the recurrence
LAYOUT_RADII = [0.0, 0.99, 0.99 + 1e-5, 0.99 - 1e-5, *np.linspace(0.05, 0.95, 19).tolist(), 0.5, 0.0]


@pytest.mark.parametrize("n", [3, 4, 12, 44])
def test_entries_do_not_depend_on_pass_size_or_block_cap(monkeypatch, n):
    # one radius per pass up to one pass for all; blocks of at most 2 (the
    # least a restart can read from) up to 1000 degrees
    expected = {
        fn: [(e.value.hex(), e.error_estimate.hex()) for e in (fn(n, rho) for rho in LAYOUT_RADII)]
        for fn in (phi_series, phi_second_series)
    }
    for per_pass, cap in ((1, 2), (5, 3), (64, 128), (30, 1000)):
        monkeypatch.setattr(phi_module, "_SERIES_PASS", per_pass)
        monkeypatch.setattr(specfun, "_GEGENBAUER_BLOCK", cap)
        for fn, pairs in expected.items():
            batch = fn(n, LAYOUT_RADII)
            assert [(e.value.hex(), e.error_estimate.hex()) for e in batch] == pairs, (fn.__name__, per_pass, cap)


# (route, n) -> {rho: (value, estimate)} as the series summed them before
# the summation engine was shared with hyp2f1.  With the blocks that ramped
# 2, 4, 8, ..., 128 degrees, the stopping term of each was the last row of
# a block of gegenbauer_iter (0.13, 0.86, 0.33, 0.77, 0.05, 0.31, 0.04) or
# the first row of the next.  The entries after them stop on a boundary of
# the blocks that open at 64 degrees (Gegenbauer degrees 2-65, 66-133,
# 134-261): on the last row of a block (0.73, 0.61 at n = 12, 0.61 of the
# second derivative at n = 4) or the first row of the next (0.87, 0.62,
# 0.54).  No value depends on the layout, so none of these may move.
BOUNDARY_STOPS = {
    (phi_series, 4): {
        0.13: ("0x1.553065e28c1e9p-1", "0x1.8f787f0b38349p-52"),
        0.86: ("0x1.4ee3de25b3f40p-1", "0x1.61f7f30c2a3d7p-43"),
        0.15: ("0x1.552426d375244p-1", "0x1.40527254bd30ep-53"),
        0.46: ("0x1.53846d42aa4fep-1", "0x1.b5600b2392a1ep-48"),
        0.73: ("0x1.50b7edbeb2f27p-1", "0x1.2af90a78c20d3p-44"),
        0.87: ("0x1.4ebc6ddae589ep-1", "0x1.b16ea60812431p-43"),
    },
    (phi_series, 12): {
        0.33: ("0x1.68b219620101fp-3", "0x1.892309e1b7b49p-49"),
        0.77: ("0x1.2f466344dea20p-3", "0x1.a6991f05b0879p-45"),
        0.34: ("0x1.67f7151f85f28p-3", "0x1.a75510fac5962p-49"),
        0.61: ("0x1.4ac0059b1c002p-3", "0x1.9c1e9ed66fa18p-46"),
    },
    (phi_second_series, 4): {
        0.05: ("-0x1.112d2a6c9f4f3p-5", "0x1.d19212c102d6fp-60"),
        0.31: ("-0x1.155b10e1491b8p-5", "0x1.4724494fd34a1p-51"),
        0.6: ("-0x1.21ec85e7e5b58p-5", "0x1.d3e9c707f58efp-54"),
        0.61: ("-0x1.2287afdc4d996p-5", "0x1.87c61d4caf759p-50"),
        0.62: ("-0x1.2326246cfa512p-5", "0x1.25eb7cabb623ap-47"),
    },
    (phi_second_series, 12): {
        0.04: ("-0x1.a6481244aa355p-4", "0x1.881ba2cf5cb9dp-59"),
        0.52: ("-0x1.1088a71c7b27cp-3", "0x1.e096c06271d0dp-48"),
        0.54: ("-0x1.16a51cbe496d0p-3", "0x1.2fee4c293840cp-47"),
    },
}


@pytest.mark.parametrize("fn, n", list(BOUNDARY_STOPS))
def test_stops_on_a_block_boundary(fn, n):
    recorded = BOUNDARY_STOPS[(fn, n)]
    radii = list(recorded)
    for evaluations in ([fn(n, rho) for rho in radii], fn(n, radii)):
        assert [(e.value.hex(), e.error_estimate.hex()) for e in evaluations] == list(recorded.values())


def test_recurrence_runs_only_on_the_radii_still_summing(monkeypatch):
    # a batch forms, for each radius, the Gegenbauer values its one-radius
    # call forms and none after the radius stops: the recurrence restarts on
    # the radii still summing
    formed = []
    blocks = specfun.gegenbauer_iter

    def counting(lam, x, **kwargs):
        for block in blocks(lam, x, **kwargs):
            formed.append(block.shape[0] * np.size(x))
            yield block

    monkeypatch.setattr(specfun, "gegenbauer_iter", counting)
    radii = [0.1, 0.5, 0.8, 0.9, 0.97, 0.0, 0.5]
    for fn in (phi_series, phi_second_series):
        formed.clear()
        for rho in radii:
            fn(4, rho)
        alone = sum(formed)
        formed.clear()
        fn(4, radii)
        assert sum(formed) == alone, fn.__name__


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5, 12, 44]),
    rhos=st.lists(st.floats(0.0, 0.999), max_size=196),
    K=st.sampled_from([None, 0, 5, 300]),
    second=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
@example(n=4, rhos=np.linspace(0.0, 0.999, 196).tolist(), K=None, second=True, rng=random.Random(1))
@example(n=12, rhos=np.linspace(0.0, 0.999, 196).tolist(), K=300, second=False, rng=random.Random(2))
def test_batch_entries_equal_their_one_radius_calls(n, rhos, K, second, rng):
    # unsorted, with duplicates and the origin; 200 radii span four passes
    fn = phi_second_series if second else phi_series
    radii = [*rhos, *rhos[:3], 0.0]
    rng.shuffle(radii)
    batch = fn(n, radii, K=K)
    assert len(batch) == len(radii)
    for rho, e in zip(radii, batch):
        single = fn(n, rho, K=K)
        assert (e.value, e.error_estimate) == (single.value, single.error_estimate)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 44),
    rhos=st.lists(st.floats(SECOND_CLOSED_RHO_MIN, 1.0, exclude_min=True), min_size=1, max_size=150),
    rng=st.randoms(use_true_random=False),
)
@example(n=4, rhos=[1.0, 0.5, 0.0010000000000000002], rng=random.Random(3))
def test_closed_batch_entries_equal_their_one_radius_calls(n, rhos, rng):
    # unsorted and with duplicates; the hypergeometric values of the batch
    # come from one batched profile_hyp2f1 call
    radii = [*rhos, *rhos[:3]]
    rng.shuffle(radii)
    batch = phi_second_closed(n, radii)
    assert len(batch) == len(radii)
    for rho, e in zip(radii, batch):
        single = phi_second_closed(n, rho)
        assert (e.value, e.error_estimate) == (single.value, single.error_estimate)


@pytest.mark.parametrize("n", [3, 4, 12])
def test_second_router_takes_the_callers_series(monkeypatch, n):
    # phi-table's case: the series list it already summed serves the radii
    # at and below the threshold, with the bits of phi_second's own call,
    # and no second series is summed
    radii = [0.5, 0.0, SECOND_CLOSED_RHO_MIN, 0.99, 5e-4]
    summed, expected = phi_second_series(n, radii), phi_second(n, radii)

    def refuse(*args):
        raise AssertionError("phi_second summed the series again")

    monkeypatch.setattr(phi_module, "phi_second_series", refuse)
    assert phi_second(n, radii, summed) == expected
    with pytest.raises(ValueError):
        phi_second(n, radii, summed[:-1])


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


def _phi3_second_exact(rho):
    """Second derivative of the closed form of phi3_closed, at 40 digits."""
    with mpmath.workdps(40):
        return float(
            mpmath.diff(lambda r: 2 * ((1 + r * r / 3) ** 1.5 - 1 + r * r) / (3 * r * r), mpmath.mpf(rho), 2)
        )


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
            phi_second_closed(2, 0.5)
        with pytest.raises(ValueError):
            phi_second_closed(4, 0.5 * SECOND_CLOSED_RHO_MIN)

    @pytest.mark.parametrize(
        "rhos", [[], np.full((2, 2), 0.5), [0.5, math.nan], [0.5, SECOND_CLOSED_RHO_MIN], [0.5, 1.5]]
    )
    def test_closed_form_guard_on_sequences(self, rhos):
        with pytest.raises(ValueError):
            phi_second_closed(4, rhos)

    def test_closed_one_number_gives_one_evaluation(self):
        single = phi_second_closed(4, 0.5)
        (batched,) = phi_second_closed(4, [0.5])
        assert single == batched
        assert isinstance(single.value, float) and isinstance(single.error_estimate, float)

    def test_closed_matches_mpmath_n3(self):
        # one batched call, geometric near SECOND_CLOSED_RHO_MIN and linear up to 1
        radii = [*(SECOND_CLOSED_RHO_MIN * np.geomspace(1.01, 100.0, 20)), *np.linspace(0.1, 1.0, 41)[1:]]
        for rho, e in zip(radii, phi_second_closed(3, radii)):
            assert abs(e.value - _phi3_second_exact(rho)) <= e.error_estimate

    def test_routing_n3(self):
        # the series stops at its 3,000-degree cap here, 4.8e-4 off
        assert abs(phi_second(3, 0.999).value - _phi3_second_exact(0.999)) <= 1e-12
        for rho in (0.0, 1e-4, 0.000998, SECOND_CLOSED_RHO_MIN):
            assert phi_second(3, rho) == phi_second_series(3, rho)

    @pytest.mark.parametrize("n", [3, 4, 12])
    def test_router_sequence_equals_its_one_radius_calls(self, n):
        # unsorted, with duplicates, the origin, the threshold and rho = 1
        radii = [0.5, SECOND_CLOSED_RHO_MIN, 0.0, 1.0, 0.999, 1e-4, 0.5, 0.0010000000000000002, 0.0]
        routed = phi_second(n, radii)
        assert len(routed) == len(radii)
        for rho, e in zip(radii, routed):
            assert e == phi_second(n, rho)
            if rho > SECOND_CLOSED_RHO_MIN:
                assert e == phi_second_closed(n, rho)
            else:
                assert e == phi_second_series(n, rho)

    @pytest.mark.parametrize("rhos", [[], np.full((2, 2), 0.5), [0.5, math.nan], [0.5, -0.1], [0.5, 1.5], 1.5])
    def test_router_rejects_bad_radii(self, rhos):
        with pytest.raises(ValueError):
            phi_second(4, rhos)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_three_routes_agree(self, n):
        for rho in (0.05, 0.35, 0.65, 0.95):
            c = phi_second_closed(n, rho).value
            s = phi_second_series(n, rho).value
            f = phi_second_fd(n, rho).value
            scale = abs(c)
            assert abs(c - s) / scale <= 1e-6
            assert abs(c - f) / scale <= 1e-6


# The Richardson difference of phi_second_fd over five phi_quad values at
# the binary64 floor, one call per value: the same difference of the
# independent full-interval route, kept as its oracle.
_FD_TIGHT = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)


@pytest.fixture
def fd_tight(monkeypatch):
    """phi_quad runs under quadrature.DEFAULT_SPEC, here set to _FD_TIGHT."""
    monkeypatch.setattr(quadrature, "DEFAULT_SPEC", _FD_TIGHT)


def _adaptive_fd(n, rho, step=1e-3):
    def value(r):
        return phi_quad(n, abs(r)).value

    center = value(rho)

    def second_difference(h):
        return (value(rho + h) - 2.0 * center + value(rho - h)) / (h * h)

    d_h = second_difference(step)
    d_h2 = second_difference(0.5 * step)
    return (4.0 * d_h2 - d_h) / 3.0, max(abs(d_h - d_h2) / 3.0, 16.0 * 1e-15 / (step * step))


class TestFiniteDifferenceRoute:
    @pytest.mark.parametrize("n", [3, 4, 5, 12, 20, 44])
    @pytest.mark.usefixtures("fd_tight")
    def test_matches_the_adaptive_route(self, n):
        radii = [i / 20 for i in range(20)]
        for rho, e in zip(radii, phi_second_fd(n, radii)):
            value, estimate = _adaptive_fd(n, rho)
            assert abs(e.value - value) <= min(e.error_estimate, estimate)

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 20, 44])
    @pytest.mark.usefixtures("fd_tight")
    def test_both_routes_evaluate_up_to_0_99(self, n):
        # neither route refuses a radius here; at rho = 0.998 the adaptive
        # one raises ConvergenceError at n = 4, 5, 12 and 20
        for rho in (0.96, 0.97, 0.98, 0.99):
            assert math.isfinite(_adaptive_fd(n, rho)[0])
            assert math.isfinite(phi_second_fd(n, rho).value)

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 20, 44, 100, 200])
    def test_matches_the_closed_form_up_to_0_999(self, n):
        # ROADMAP item 4: differences of the full-interval quadrature raised
        # ConvergenceError at rho = 0.998 for n = 4, 5, 12, 20 and 44; the
        # one-sided values hold up to rho + h = 1.  The largest error seen
        # was 0.3 of the two estimates' sum
        radii = [0.05, 0.3, 0.6, 0.9, 0.95, 0.99, 0.995, 0.998, 0.999]
        for rho, fd, closed in zip(radii, phi_second_fd(n, radii), phi_second_closed(n, radii)):
            assert abs(fd.value - closed.value) <= fd.error_estimate + closed.error_estimate, rho

    def test_one_radius_is_a_batch_of_one(self):
        for n, rho in ((3, 0.0), (3, 0.3), (4, 0.5), (44, 0.99)):
            single = phi_second_fd(n, rho)
            (batched,) = phi_second_fd(n, [rho])
            assert single == batched
            assert isinstance(single.value, float) and isinstance(single.error_estimate, float)

    @pytest.mark.parametrize(
        "rhos", [[], np.full((2, 2), 0.5), [0.5, math.nan], [0.5, -0.1], [0.5, 0.9995], 0.9995, -0.1]
    )
    def test_rejects_bad_radii(self, rhos):
        with pytest.raises(ValueError, match=r"need rho \+ step <= 1"):
            phi_second_fd(4, rhos)

    @pytest.mark.parametrize("n", [2, 1001])
    def test_rejects_dimensions_outside_the_one_sided_domain(self, n):
        # at n = 2 the profile is the constant 2; above 1000 the one-sided
        # route is not defined
        with pytest.raises(ValueError):
            phi_second_fd(n, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5, 12, 44]),
    rhos=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=8),
    rng=st.randoms(use_true_random=False),
)
@example(n=4, rhos=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], rng=random.Random(4))
def test_fd_batch_entries_agree_with_their_one_radius_calls(n, rhos, rng):
    # in input order, unsorted and with duplicates.  Bit for bit: every
    # profile value of phi_one_sided is that of its one-radius call, so the
    # difference quotients, which magnify its last bits by 4/h^2, are too
    radii = [*rhos, *rhos[:2]]
    rng.shuffle(radii)
    batch = phi_second_fd(n, radii)
    assert len(batch) == len(radii)
    for rho, e in zip(radii, batch):
        assert e == phi_second_fd(n, rho)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route, n, rho", [(phi_series, 400, 0.9), (phi_second_series, 300, 0.99)])
def test_non_finite_series_sums_are_refused(route, n, rho):
    # the Gegenbauer terms overflow there; the sum is refused rather than
    # returned as nan, with no numpy warning
    with pytest.raises(ConvergenceError, match=f"^Gegenbauer series at n = {n} is not finite at rho={rho:.6f}: "):
        route(n, rho)


@pytest.mark.parametrize("n, rho", [(101, 0.9999999), (100, 1.0)])
def test_non_finite_profile_values_are_refused(n, rho):
    # the kernel factor overflows near rho = 1 in high dimension: the
    # full-interval quadrature raises rather than return inf
    with pytest.raises(ConvergenceError, match="non-finite"):
        phi_quad(n, rho)


@pytest.mark.parametrize("n, rho", [(101, 0.9999999), (100, 1.0)])
def test_one_sided_values_are_finite_where_the_full_interval_overflows(n, rho):
    # the one-sided route forms every power of a ratio at most 1
    result = phi_one_sided(n, rho)
    assert abs(result.value - float(_profile_40_digits(n, rho))) <= result.error_estimate


def _profile_40_digits(n, rho, lower=-1, upper=1):
    """The defining integral of |t - s| w over [lower, upper] at the float
    ``rho``, in 40-digit arithmetic, with breakpoints graded toward the
    kink s from both sides."""
    with mpmath.workdps(40):
        r = mpmath.mpf(rho)
        s, p, e2 = (n - 2) * r / n, mpmath.mpf(n - 3) / 2, (1 - r) ** 2

        def integrand(t):
            d = e2 + 2 * r * (1 - t)
            return abs(t - s) * ((1 + t) * (1 - t) / d) ** p / mpmath.sqrt(d)

        left = [s - (1 + s) / mpmath.mpf(4) ** k for k in range(1, 5)] if lower == -1 else []
        right = [s + (1 - s) / mpmath.mpf(4) ** k for k in range(4, 0, -1)] if upper == 1 else []
        return mpmath.quad(integrand, [lower, *left, s, *right, upper] if lower != upper else [s, upper])


ONE_SIDED_DIMENSIONS = [3, 4, 5, 12, 44, 45, 101, 200, 500, 1000]
ONE_SIDED_RADII = [0.0, 0.3, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-7, 1.0]


class TestPhiOneSided:
    @pytest.mark.parametrize("n", ONE_SIDED_DIMENSIONS)
    def test_matches_the_defining_integral(self, n):
        # 40-digit quadrature of the two-sided definition, so the moment
        # identity behind the route is checked along with its layout
        result = phi_one_sided(n, ONE_SIDED_RADII)
        for rho, value, estimate in zip(ONE_SIDED_RADII, result.value, result.error_estimate):
            exact = float(_profile_40_digits(n, rho))
            assert abs(value - exact) <= estimate <= 1e-13, (n, rho)

    def test_dimension_three_closed_form_on_the_monotone_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        result = phi_one_sided(3, grid)
        for rho, value, estimate in zip(grid.tolist(), result.value, result.error_estimate):
            assert abs(value - phi3_closed(rho)) <= estimate <= 1e-14, rho

    @pytest.mark.parametrize("n", [3, 4, 12, 45, 200])
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999])
    def test_moment_identity(self, n, rho):
        # M1 = s M0: the integral of (s - t) w below s equals that of (t - s)
        # w above it, so twice the upper side is the profile too
        upper = 2 * _profile_40_digits(n, rho, lower=(n - 2) * mpmath.mpf(rho) / n)
        result = phi_one_sided(n, rho)
        assert abs(result.value - float(upper)) <= result.error_estimate

    @pytest.mark.parametrize("n, rho", [(3, 0.3), (4, 0.0), (4, 0.75), (5, 1.0), (12, 0.5), (40, 0.95), (44, 0.9)])
    def test_agrees_with_the_full_interval_quadrature(self, n, rho):
        full, result = phi_quad(n, rho), phi_one_sided(n, rho)
        assert abs(result.value - full.value) <= result.error_estimate + full.error_estimate

    @pytest.mark.parametrize("n, rho", [(3, 0.3), (4, 0.0), (4, 0.75), (5, 1.0), (12, 0.5), (40, 0.95), (44, 0.9)])
    def test_matches_the_defining_integral_at_the_agreement_cells(self, n, rho):
        # the same cells against 40-digit quadrature, so that the agreement
        # above does not rest on the full-interval route alone
        result = phi_one_sided(n, [rho])
        (value,), (estimate,) = result.value, result.error_estimate
        assert abs(value - float(_profile_40_digits(n, rho))) <= estimate <= 1e-13

    def test_one_radius_gives_floats(self):
        result = phi_one_sided(4, 0.5)
        assert isinstance(result.value, float) and isinstance(result.error_estimate, float)
        assert result == Evaluation(*(float(v[0]) for v in dataclasses.astuple(phi_one_sided(4, [0.5]))))

    @pytest.mark.parametrize("n", [2, 1001, 4.5, True, math.nan])
    def test_rejects_bad_dimensions(self, n):
        with pytest.raises(ValueError):
            phi_one_sided(n, 0.5)

    @pytest.mark.parametrize("rho", [[], [[0.5]], [-0.1, 0.5], [0.5, 1.5], [math.nan], 1.5, -1e-300, math.inf])
    def test_rejects_bad_radii(self, rho):
        with pytest.raises(ValueError):
            phi_one_sided(4, rho)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5, 12, 13, 44, 200, 1000]),
    rhos=st.lists(st.floats(0.0, 1.0), max_size=12),
    rng=st.randoms(use_true_random=False),
)
@example(n=4, rhos=np.linspace(0.0, 1.0, 12).tolist(), rng=random.Random(8))
def test_one_sided_entries_equal_their_one_radius_calls(n, rhos, rng):
    # unsorted, with duplicates, both ends and 140 radii besides, so that
    # the entries span two passes: each value and estimate has the bits of
    # the radius's own call
    radii = [*rhos, *rhos[:2], 0.0, 1.0, *np.linspace(0.0, 0.99, 140).tolist()]
    rng.shuffle(radii)
    result = phi_one_sided(n, radii)
    for rho, value, estimate in zip(radii, result.value.tolist(), result.error_estimate.tolist()):
        assert (value, estimate) == dataclasses.astuple(phi_one_sided(n, rho))


def _scalar_psi(n, t):
    """psi at one t as it was formed before the array form: every power by
    the scalar ``**``, which numpy's vector pow does not always match, and
    2F1 from the profile route's one-value call."""
    ph = varphi(n, t)
    f_val = profile_hyp2f1(n, ph).value
    first = ph ** (0.5 * (n - 1)) * math.sqrt(1.0 - ph) * f_val
    num = (
        t ** (0.5 * (n - 1))
        * (1.0 - (n - 2.0) ** 2 * t / (n * n)) ** (0.5 * (n - 3))
        * (1.0 - (n - 2.0) * (n - 3.0) * t / (n * n))
    )
    den = (1.0 - (n - 4.0) * t / n) ** (0.5 * (n - 2)) * (1.0 - (n - 2.0) * (n - 3.0) * t / (n * (n - 1.0)))
    return first - num / den


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 44),
    ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    rng=st.randoms(use_true_random=False),
)
@example(n=3, ts=[0.0, 1.0, 0.5], rng=random.Random(5))
@example(n=4, ts=[1.0, 5e-324, 0.0], rng=random.Random(6))
def test_psi_and_gap_batches_equal_their_one_point_calls(n, ts, rng):
    # in input order, unsorted and with duplicates, bit for bit; psi also
    # equals its scalar formula
    points = [*ts, *ts[:2]]
    rng.shuffle(points)
    psis = psi(n, points)
    gaps = technical_gap(n, points)
    assert len(psis) == len(gaps) == len(points)
    for t, p, g in zip(points, psis, gaps):
        assert p.hex() == psi(n, t).hex() == _scalar_psi(n, t).hex()
        assert g.hex() == technical_gap(n, t).hex()


@pytest.mark.parametrize("ts", [[], np.full((2, 2), 0.5), [0.5, math.nan], [0.5, -0.1], [0.5, 1.5], 1.5, -0.1, math.nan])
@pytest.mark.parametrize("fn", [psi, technical_gap])
def test_psi_and_gap_reject_bad_points(fn, ts):
    with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
        fn(5, ts)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, t", [(400, 0.99), (500, 0.9801), (1000, 0.81)])
def test_non_finite_psi_is_refused(n, t):
    # both powers of psi's second term underflow to 0.0 there, and 0/0 is
    # NaN: refused, with no numpy warning, in a batch and a sweep alike
    with pytest.raises(ConvergenceError, match=f"psi at n = {n} is not finite at t={t:.6f}"):
        psi(n, t)
    with pytest.raises(ConvergenceError, match="psi"):
        psi(n, [0.5, t])
    with pytest.raises(ConvergenceError, match="psi"):
        verify_technical(n)
    assert math.isfinite(technical_gap(n, t))


def test_non_finite_gap_is_refused():
    # the rational side stays finite on [0, 1]; a NaN 2F1 value is refused
    with pytest.raises(ConvergenceError, match="technical gap at n = 5 is not finite at t=0.500000"):
        _gap_from(5, np.array([0.25, 0.5]), np.array([1.0, math.nan]))


class TestTechnicalGap:
    def test_sides_coincide_at_origin(self):
        assert technical_gap(5, 0.0) == 0.0

    def test_sign_pattern(self):
        assert technical_gap(4, 0.5) > 0.0
        assert technical_gap(12, 0.99) > 0.0
        assert technical_gap(3, 0.5) < 0.0


class TestAuxiliaryReduction:
    """The paper's reduction of concavity to the auxiliary inequality: with
    t = rho^2, Phi''(rho) = -(2 (n-2) / t) W^((n-1)/2) A^(-n/2) C E gap(n, t),
    every factor positive on (0, 1]."""

    RADII = [0.0011, 0.01, 0.05, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 0.99, 1.0]

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 44])
    def test_closed_second_derivative_is_the_scaled_gap(self, n):
        for rho, closed in zip(self.RADII, phi_second_closed(n, self.RADII)):
            t = rho * rho
            a = 1.0 - (n - 4.0) * t / n
            w = 1.0 - (n - 2.0) ** 2 * t / (n * n)
            c = 1.0 - (n - 2.0) * (n - 3.0) * t / (n * (n - 1.0))
            e = 1.0 - (n - 2.0) * t / n
            gap = technical_gap(n, t)
            reduced = -(2.0 * (n - 2.0) / t) * w ** (0.5 * (n - 1)) * a ** (-0.5 * n) * c * e * gap
            assert min(a, w, c, e) > 0.0
            assert abs(closed.value - reduced) <= closed.error_estimate, rho
            # the sign corollary: concave exactly where the gap is positive
            assert (closed.value < 0.0) == (gap > 0.0) == (n >= 4), rho

    def test_w_is_at_most_a(self):
        # ROADMAP item 17's premise: A - W = (n-2)^2 t / n^2 - (n-4) t / n =
        # 4 t / n^2 >= 0, so W / A is a ratio at most 1 and varphi = t W / A
        # is at most t
        t = np.linspace(0.0, 1.0, 1001)
        for n in range(3, 1001):
            a, w, *_ = phi_module._factors(n, t)
            assert np.all(w <= a) and np.all(phi_module._varphi(n, t) <= t), n


class TestVerifyMonotone:
    def test_decreasing_above_three(self):
        report = verify_monotone(4)
        assert report.passed
        names = {c.name for c in report.checks}
        assert "strictly_decreasing" in names
        assert "derivative_zero_at_origin" in names

    def test_increasing_at_three(self):
        report = verify_monotone(3)
        assert report.passed
        assert any(c.name == "strictly_increasing" for c in report.checks)
        assert any(c.name == "maximum_at_one" for c in report.checks)

    def test_high_dimension(self):
        assert verify_monotone(12).passed


class TestVerifyConcavity:
    def test_concave_above_three(self):
        report = verify_concavity(4)
        assert report.passed
        neg = next(c for c in report.checks if c.name == "second_derivative_negative")
        assert neg.passed and not neg.expected

    def test_dimension_three_expected_failure(self):
        report = verify_concavity(3)
        assert report.passed  # failure is expected, not an error
        neg = next(c for c in report.checks if c.name == "second_derivative_negative")
        assert not neg.passed
        assert neg.expected
        assert neg.worst_margin > 0.0

    def test_dimension_ten(self):
        assert verify_concavity(10).passed

    @staticmethod
    def _with_nan(route, at):
        def routed(n, rho):
            evaluations = route(n, rho)
            evaluations[at] = dataclasses.replace(evaluations[at], value=math.nan)
            return evaluations

        return routed

    @pytest.mark.parametrize("at", [0, 500])
    def test_a_nan_second_derivative_fails_the_sweep(self, monkeypatch, at):
        # max() over a list skips a NaN that does not come first; the sweep
        # takes its worst value at the np.argmax index, the first NaN
        monkeypatch.setattr(phi_module, "phi_second", self._with_nan(phi_module.phi_second, at))
        neg = verify_concavity(4).checks[0]
        assert neg.name == "second_derivative_negative" and not neg.passed and not neg.expected
        assert math.isnan(neg.worst_margin) and neg.at == f"rho={(at + 1) / 1002:.6f}"

    def test_a_nan_route_value_fails_the_agreement(self, monkeypatch):
        # the finite-difference value is the middle one of a radius's three
        # route values, where max() and min() over a list skip a NaN
        monkeypatch.setattr(phi_module, "phi_second_fd", self._with_nan(phi_module.phi_second_fd, 4))
        report = verify_concavity(4)
        agree = report.checks[1]
        assert agree.name == "route_agreement" and not report.passed
        assert math.isnan(agree.worst_margin) and agree.at == "rho=0.5"


class TestVerifyTechnical:
    def test_positive_gap_above_three(self):
        report = verify_technical(4)
        assert report.passed
        assert any(c.name == "gap_positive" and c.passed for c in report.checks)
        assert any(c.name == "psi_positive" and c.passed for c in report.checks)
        assert any(c.name == "quadratic_positive" and c.passed for c in report.checks)

    def test_reversed_at_three(self):
        report = verify_technical(3)
        assert report.passed
        assert any(c.name == "gap_reversed" and c.passed for c in report.checks)

    def test_high_dimension(self):
        assert verify_technical(12).passed

    def test_a_zero_psi_fails_the_strict_check(self):
        # psi(250, t) underflows to 0.0 past the origin; zero is not
        # positive, so the sweep fails at the first such grid point
        report = verify_technical(250)
        check = next(c for c in report.checks if c.name == "psi_positive")
        assert (check.passed, check.worst_margin, check.at) == (False, 0.0, "t=0.001000")
        assert not report.passed


def _grid_point(at, var, points):
    """Index of the grid point that the label ``var=...`` names: the
    nearest, so the six printed digits only pick it."""
    key, value = at.split("=")
    k = int(np.argmin(np.abs(points - float(value))))
    assert key == var and f"{points[k]:.6f}" == value
    return k


@pytest.mark.parametrize("n", [3, 4, 12])
def test_each_reported_location_holds_its_margin(n):
    # the entry at a check's label, recomputed from public routes, has the
    # bits of its worst margin: a grid entry has the bits of its one-point call
    grid = np.linspace(0.0, 1.0, 1001)  # the monotone and technical sweeps
    interior = np.arange(1, 1002) / 1002.0  # the concavity sweep

    def monotone(k):
        assert k >= 1  # a difference is labelled by its right grid point
        left, right = phi_one_sided(n, grid[k - 1 : k + 1]).value
        return right - left

    recompute = {
        "strictly_decreasing": ("rho", grid, monotone),
        "strictly_increasing": ("rho", grid, monotone),
        "second_derivative_negative": ("rho", interior, lambda k: phi_second(n, float(interior[k])).value),
        "gap_positive": ("t", grid, lambda k: technical_gap(n, float(grid[k]))),
        "gap_reversed": ("t", grid, lambda k: technical_gap(n, float(grid[k]))),
        "psi_positive": ("t", grid, lambda k: psi(n, float(grid[k]))),
        "quadratic_positive": ("t", grid, lambda k: psi_prime_quadratic(n, float(grid[k]))),
    }
    seen = set()
    for report in (verify_monotone(n), verify_concavity(n), verify_technical(n)):
        for check in report.checks:
            if check.name in recompute:
                var, points, entry = recompute[check.name]
                assert entry(_grid_point(check.at, var, points)) == check.worst_margin, check.name
                seen.add(check.name)
    assert len(seen) == (3 if n == 3 else 5)


def test_quadrature_spec_passthrough(monkeypatch):
    # phi_quad reads quadrature.DEFAULT_SPEC at the call
    monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13))
    ev = phi_quad(5, 0.25)
    assert ev.error_estimate <= 1e-12
