"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np

from ballgrad.bounds import (
    BoundQuery,
    capital_c,
    khavinson_radial_3d,
    khavinson_sharp_constant_3d,
    schwarz_pick_constant,
)
from ballgrad.cli import _constants_payload
from ballgrad.harmonic import (
    AxisPoint,
    extremal_gradient_at_origin,
    probe_batch,
    probe_conjecture,
    probe_schwarz_pick,
    sharp_radial_sup,
)
from ballgrad.phi import (
    phi3_closed,
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
)
from ballgrad.specfun import verify_identities

RHO_TENTHS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}")
    assert ok


def test_criterion_01_profile_at_origin():
    worst = 0.0
    for n in range(3, 13):
        worst = max(worst, abs(phi_quad(n, 0.0).value - 2.0 / (n - 1.0)))
    _line(1, worst <= 1e-10, f"profile(0) = 2/(n-1) for n in 3..12, worst err {worst:.2e} (tol 1e-10)")


def test_criterion_02_profile_route_agreement():
    worst_series = 0.0
    for n in range(3, 9):
        for rho in RHO_TENTHS:
            diff = abs(phi_quad(n, rho).value - phi_series(n, rho, K=200).value)
            worst_series = max(worst_series, diff)
    worst_closed = 0.0
    for rho in np.linspace(0.0, 1.0, 101):
        rho = float(rho)
        worst_closed = max(worst_closed, abs(phi_quad(3, rho).value - phi3_closed(rho)))
    ok = worst_series <= 1e-8 and worst_closed <= 1e-10
    _line(
        2,
        ok,
        f"quadrature vs series worst {worst_series:.2e} (tol 1e-8); "
        f"vs dimension-3 closed form worst {worst_closed:.2e} (tol 1e-10)",
    )


def test_criterion_03_second_derivative_routes():
    worst_fd = 0.0
    worst_series = 0.0
    for n in range(4, 9):
        for rho in RHO_TENTHS[1:]:
            closed = phi_second_closed(n, rho).value
            fd = phi_second_fd(n, rho).value
            worst_fd = max(worst_fd, abs(closed - fd) / abs(closed))
            worst_series = max(worst_series, abs(closed - phi_second_series(n, rho).value))
    ok = worst_fd <= 1e-6 and worst_series <= 1e-9
    _line(
        3,
        ok,
        f"closed vs Richardson finite difference worst rel {worst_fd:.2e} (tol 1e-6); "
        f"vs series worst abs {worst_series:.2e} (tol 1e-9)",
    )


def test_criterion_04_concavity():
    worst = -math.inf
    grid = np.arange(1, 1002) / 1002.0
    for n in range(4, 13):
        worst = max(worst, *phi_second(n, grid).value.tolist())
    origin3 = phi_second_series(3, 0.0).value
    rel3 = abs(origin3 - 1.0 / 18.0) / (1.0 / 18.0)
    ok = worst <= -1e-12 and rel3 <= 1e-10
    _line(
        4,
        ok,
        f"second derivative < 0 on (0,1) for n in 4..12, max {worst:.2e} (margin 1e-12); "
        f"dimension-3 origin value +1/18, rel err {rel3:.2e} (tol 1e-10)",
    )


def test_criterion_05_auxiliary_inequality():
    grid = np.linspace(0.0, 1.0, 1001)
    worst_gap = math.inf
    origin_gap = 0.0
    for n in range(4, 13):
        origin, *gaps = technical_gap(n, grid)
        worst_gap = min(worst_gap, min(gaps))
        origin_gap = max(origin_gap, abs(origin))
    reversed_ok = all(g < 0.0 for g in technical_gap(3, grid[1:]))

    psi_origin = max(abs(psi(n, 0.0)) for n in range(3, 13))

    worst_prime = 0.0
    h = 1e-6
    ts = [float(t) for t in np.linspace(0.1, 0.9, 9)]
    for n in range(4, 9):
        # the values at t + h and t - h, interleaved, from one call
        pairs = psi(n, [x for t in ts for x in (t + h, t - h)])
        for t, plus, minus in zip(ts, pairs[0::2], pairs[1::2]):
            fd = (plus - minus) / (2.0 * h)
            closed = psi_prime_closed(n, t)
            worst_prime = max(worst_prime, abs(closed - fd) / abs(closed))

    q_min = math.inf
    for n in range(4, 65):
        for t in np.linspace(0.0, 1.0, 101):
            q_min = min(q_min, psi_prime_quadratic(n, float(t)))
    q4_exact = all(psi_prime_quadratic(4, float(t)) == 128.0 for t in np.linspace(0.0, 1.0, 11))
    q5_exact = psi_prime_quadratic(5, 1.0) == 688.0

    ok = (
        worst_gap > 0.0
        and origin_gap <= 1e-12
        and reversed_ok
        and psi_origin <= 1e-12
        and worst_prime <= 1e-5
        and q_min > 0.0
        and q4_exact
        and q5_exact
    )
    _line(
        5,
        ok,
        f"gap > 0 for n in 4..12 (min {worst_gap:.2e}), reversed at n=3 ({reversed_ok}); "
        f"psi(0) worst {psi_origin:.2e} (tol 1e-12); derivative closed vs fd worst rel "
        f"{worst_prime:.2e} (tol 1e-5); quadratic factor min {q_min:.4g} > 0 over n in 4..64, "
        f"Q4=128 exact {q4_exact}, Q5(1)=688 exact {q5_exact}",
    )


def test_criterion_06_identity_suite():
    reports = [verify_identities(n) for n in range(4, 9)]
    ok = all(r.passed for r in reports)
    worst = max(c.worst_margin for r in reports for c in r.checks)
    names = sorted({c.name for r in reports for c in r.checks})
    _line(6, ok, f"identity sweeps pass for n in 4..8 ({len(names)} identities, worst margin {worst:.2e})")


def test_criterion_07_origin_extremality_and_constants():
    worst = 0.0
    for n in range(2, 9):
        worst = max(worst, abs(extremal_gradient_at_origin(n).value - schwarz_pick_constant(n)))
    printed3 = dict(_constants_payload(3))
    printed4 = dict(_constants_payload(4))
    consts_ok = (
        abs(printed3["schwarz_pick_constant"] - 1.5) <= 1e-14
        and abs(dict(_constants_payload(2))["schwarz_pick_constant"] - 4.0 / math.pi) <= 1e-14
        and abs(printed3["khavinson_sharp_constant_3d"] - 8.0 / (3.0 * math.sqrt(3.0))) <= 1e-14
        and abs(printed3["khavinson_sharp_constant_3d"] - 1.5396) <= 1e-4
        and abs(printed4["schwarz_pick_constant"] - 16.0 / (3.0 * math.pi)) <= 1e-14
    )
    ok = worst <= 1e-8 and consts_ok
    _line(
        7,
        ok,
        f"hemisphere gradient at origin equals the constant for n in 2..8, worst {worst:.2e} "
        f"(tol 1e-8); printed constants match 4/pi, 3/2, 8/(3 sqrt 3), 16/(3 pi): {consts_ok}",
    )


def test_criterion_08_radial_sup_realizes_bound():
    worst = 0.0
    worst3 = 0.0
    for n in range(3, 9):
        for rho in RHO_TENTHS:
            lhs = sharp_radial_sup(n, AxisPoint(rho)).value
            worst = max(worst, abs(lhs - capital_c(BoundQuery(n, rho)).value))
            if n == 3:
                worst3 = max(worst3, abs(lhs - khavinson_radial_3d(rho)))
    ok = worst <= 1e-6 and worst3 <= 1e-6
    _line(
        8,
        ok,
        f"kernel-derivative route equals pointwise bound for n in 3..8, worst {worst:.2e}; "
        f"dimension 3 matches the radial formula, worst {worst3:.2e} (tol 1e-6)",
    )


def test_criterion_09_khavinson_limit():
    t = 1.0 - 1e-8
    val = (1.0 - t * t) * khavinson_radial_3d(t)
    err = abs(val - khavinson_sharp_constant_3d())
    _line(9, err <= 1e-6, f"radial formula boundary limit 8/(3 sqrt 3), err {err:.2e} (tol 1e-6)")


def test_criterion_10_monte_carlo_dominance():
    all_ok = True
    details = []
    for n in (2, 3, 4, 5):
        report = probe_schwarz_pick(probe_batch(n, 200, 7))
        checks = {c.name: c for c in report.checks}
        dom = checks["bound_dominates"]
        att = checks["extremal_attains_pointwise_bound"]
        all_ok = all_ok and dom.passed and att.passed
        details.append(f"n={n}: margin {dom.worst_margin:.1e}, attain gap {att.worst_margin:.1e}")
    _line(10, all_ok, "200 data x 11 radii dominated and extremal data attain; " + "; ".join(details))


def test_criterion_11_conjecture_probe():
    rep2 = probe_conjecture(probe_batch(2, 200, 7))
    checks2 = {c.name: c for c in rep2.checks}
    no_cx2 = checks2["no_counterexample"]
    rep5 = probe_conjecture(probe_batch(5, 100, 7))
    checks5 = {c.name: c for c in rep5.checks}
    ratio5 = checks5["max_ratio"].worst_margin
    ok = no_cx2.passed and math.isfinite(ratio5)
    _line(
        11,
        ok,
        f"probe completed; n=2 max ratio {1.0 + no_cx2.worst_margin:.12f} <= 1 + 1e-9 (theorem); "
        f"n=5 max ratio {ratio5:.12f} recorded without assertion",
    )
