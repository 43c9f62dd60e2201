"""The radial profile behind the sharp gradient bound and its derivatives,
each computable by independent routes, plus the grid verification sweeps
for monotonicity, concavity and the auxiliary inequality.

Throughout, ``n`` is the ambient dimension and ``rho`` the radial variable
in [0, 1].  The profile is

    Phi(rho) = integral over [-1, 1] of
        |t - (n-2) rho / n| (1 - t^2)^((n-3)/2) (1 - 2 t rho + rho^2)^(-(n-2)/2) dt,

with Phi(0) = 2/(n-1).  For n = 3 it has the elementary closed form
implemented in :func:`phi3_closed`; for n = 2 the integrand loses its rho
dependence and Phi is the constant 2.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import quadrature, specfun
from .errors import ConvergenceError, Evaluation, check_dim
from .quadrature import _NON_FINITE, QuadratureSpec, integrate
from .report import CheckResult, VerificationReport, extreme_check, worst_error_check
from .specfun import HypergeometricInput, _one_or_list, _pow_each, _radii, _sorted_passes, hyp2f1

__all__ = [
    "phi_quad",
    "phi_quad_grid",
    "phi_series",
    "phi3_closed",
    "varphi",
    "phi_second_closed",
    "phi_second_series",
    "phi_second_fd",
    "phi_second",
    "psi",
    "psi_prime_closed",
    "psi_prime_quadratic",
    "technical_gap",
    "verify_monotone",
    "verify_concavity",
    "verify_technical",
    "SECOND_CLOSED_RHO_MIN",
]

# Below this radius the closed second-derivative form divides a vanishing
# brace by rho^2; the series route is exact there instead.
SECOND_CLOSED_RHO_MIN = 1e-3

_ADAPTIVE_CAP = 3000

# Radii per pass of the series sum.
_SERIES_PASS = 64

# Radii per pass of phi_quad_grid: few enough that the panel arrays of one
# pass stay small, many enough that numpy does the work.
_GRID_BLOCK = 128

# Grid points of each verification sweep.
_SWEEP_POINTS = 1001

# Quadrature at the binary64 floor, for differences of profile values.
_TIGHT_SPEC = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)

# Width of the Richardson finite difference of phi_second_fd.
_FD_STEP = 1e-3


def kink_abscissa(n: int, rho: float) -> float:
    """Interior point where the defining integrand loses smoothness."""
    return (n - 2.0) * rho / n


def phi_quad(n: int, rho: float, spec: QuadratureSpec | None = None) -> Evaluation:
    """Profile value by adaptive quadrature of the defining integral.

    The kink abscissa is declared to the quadrature, and the endpoint pieces
    run in the cosine-substituted variable, so rho = 1 (where the kernel
    factor has an integrable endpoint singularity) is allowed.  A panel
    that is not finite (the kernel factor overflows near rho = 1 in high
    dimension) makes :func:`integrate` raise :class:`ConvergenceError`.
    Returns that call's result, a :class:`ballgrad.quadrature.QuadratureResult`.
    """
    n = check_dim(n, 2)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    s = kink_abscissa(n, rho)
    d_exp = 0.5 * (n - 2)

    def f(t):
        distance = np.abs(t - s)  # at n = 2 the kernel factor is x^(-0.0), exactly 1
        return distance if n == 2 else distance * (1.0 - 2.0 * t * rho + rho * rho) ** (-d_exp)

    qspec = replace(spec if spec is not None else quadrature.DEFAULT_SPEC, kinks=(s,))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return integrate(f, -1.0, 1.0, qspec, weight_exponent=0.5 * (n - 3))


def phi_quad_grid(n: int, rhos, spec: QuadratureSpec | None = None) -> Evaluation:
    """Profile values at many radii by one batched quadrature.

    Returns an :class:`Evaluation` of two arrays over ``rhos``.  Each radius is
    one group of :func:`ballgrad.quadrature.group_integrals`: the defining
    integral cut at the kink s = (n-2) rho / n, both pieces in the
    cosine-substituted variable as in :func:`phi_quad`, with that group's
    own stopping test (summed gap within the largest of ``spec.abs_tol``,
    ``spec.rel_tol`` times the value and the roundoff floor), estimate and
    ``spec.max_subdivisions`` budget.  The radii run in passes of 128, so
    the panel arrays stay bounded, taken from the sorted radii by the pass
    rule of the series sums (:func:`specfun._sorted_passes`) and scattered
    back to input order: the radii near 1 need the most bisection rounds,
    and a pass runs until its slowest group stops, so sorting keeps those
    rounds to the passes that hold such radii.  Every entry has the bits
    of its one-radius call, whatever the order.  A non-finite panel or
    result raises :class:`ConvergenceError`; :func:`phi_quad` stays the
    independent route.
    """
    n = check_dim(n, 2)
    rho = np.asarray(rhos, dtype=float)
    if rho.ndim != 1 or rho.size == 0 or not np.all((0.0 <= rho) & (rho <= 1.0)):
        raise ValueError("rhos must be a non-empty sequence in [0, 1]")
    values, estimates = np.empty(rho.size), np.empty(rho.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for index in _sorted_passes(rho, _GRID_BLOCK):
            block = _phi_quad_block(n, rho[index], spec)
            values[index], estimates[index] = block.value, block.error_estimate
    if not (np.isfinite(values).all() and np.isfinite(estimates).all()):
        raise ConvergenceError(_NON_FINITE, values, estimates)
    return Evaluation(values, estimates)


def _phi_quad_block(n, rho, spec):
    """One pass of :func:`phi_quad_grid` over at most ``_GRID_BLOCK`` radii."""
    s = kink_abscissa(n, rho)
    d_exp = 0.5 * (n - 2)

    def g(theta, group):
        t = np.cos(theta)
        r = rho[group][:, None]
        kernel = (1.0 - 2.0 * t * r + r * r) ** (-d_exp)
        return np.abs(t - s[group][:, None]) * kernel * np.sin(theta) ** (n - 2)

    return quadrature.kink_integrals(g, s, spec)


def _series_radii(rho):
    """:func:`_radii` in the domain [0, 1) of both series."""
    return _radii(
        rho,
        lambda r: (0.0 <= r) & (r < 1.0),
        "the expansion requires rho in [0, 1), or a non-empty sequence of such radii",
    )


def _evaluations(single, values, estimates):
    """One evaluation per radius, or the only one for a one-number call."""
    evaluations = [Evaluation(v, e) for v, e in zip(values, estimates)]
    return evaluations[0] if single else evaluations


def _sum_series(rho, head, k0, lams, s, prefactors, coefficients, K):
    """Exact sums of ``head`` and the terms c_k rho^k, k = k0, k0 + 1, ...,
    at every radius of ``rho``, and the magnitude of each sum's first
    omitted term, as two lists.

    The Gegenbauer values C_j^(lam)(s) for the parameters ``lams`` enter
    degree k = k0 + j.  ``coefficients(k, c, p)`` forms c_k for a block of
    degrees ``k`` (a column), their Gegenbauer values ``c`` (degree x
    parameter x radius) and the columns ``p`` of ``prefactors`` (one row
    per prefactor, one column per radius) that belong to those radii.

    The radii are summed by :func:`specfun._exact_sums` in passes of
    ``_SERIES_PASS``, one block of degrees per block of
    :func:`specfun.gegenbauer_iter`.  A radius stops at degree ``K`` + 1,
    or with ``K`` unset at the term after three in a row below 1e-12 of its
    running sum or at degree 3001; also once rho^k vanishes.  ``K`` must be
    unset or an integer in [0, 3000], else ``ValueError``.  When radii
    leave, the recurrence restarts on the rest from their last two
    Gegenbauer values.  Each term is formed by the same operations as in a
    one-radius sum, so no result depends on the batch or the block sizes.
    """
    if K is not None and (isinstance(K, bool) or not 0 <= K <= _ADAPTIVE_CAP or K != int(K)):
        raise ValueError(f"K must be an integer in [0, {_ADAPTIVE_CAP}]")
    cap = _ADAPTIVE_CAP if K is None else int(K)
    column = lams[:, None]

    def blocks(index):
        r, x, p = rho[index], s[index], prefactors[:, index]
        gegenbauer = specfun.gegenbauer_iter(column, x)
        pw = np.ones(index.size)
        for _ in range(k0):
            pw = pw * r
        j = 0  # the Gegenbauer degree of the next block
        while True:
            c = next(gegenbauer)
            size = c.shape[0]
            # rho^k by repeated multiplication, as a one-radius loop forms it
            pws = np.empty((size, r.size))
            pws[0], pws[1:] = pw, r
            np.multiply.accumulate(pws, out=pws)
            degrees = np.arange(k0 + j, k0 + j + size, dtype=float)[:, None]
            terms = coefficients(degrees, c, p)
            terms *= pws
            pw = pws[-1] * r
            j += size
            keep = yield terms, (pws == 0.0) | (degrees > cap)
            if keep is not None:
                r, x, p, pw = r[keep], x[keep], p[:, keep], pw[keep]
                gegenbauer = specfun.gegenbauer_iter(column, x, state=(j, c[-2][:, keep], c[-1][:, keep]))

    values, omitted, _ = specfun._exact_sums(rho, head, _SERIES_PASS, blocks, None if K is not None else 1e-12)
    return values.tolist(), omitted.tolist()


def phi_series(n: int, rho, K: int | None = None) -> Evaluation | list[Evaluation]:
    """Profile value by the Gegenbauer expansion in powers of rho.

    With s = (n-2) rho / n, the degree-0 and degree-1 terms together are
    the head 2 (1 - s^2)^((n+1)/2) / (n - 1), and the k >= 2 tail has the
    closed-form coefficients

        2 n (n-2) / (k (k-1) (k+n-2) (k+n-1))
            * (1 - s^2)^((n+1)/2) * C_{k-2}^{(n+2)/2}(s) * rho^k,

    so this route runs no quadrature.  With ``K`` unset the sum stops
    adaptively; the reported error estimate is the first omitted term.
    ``K`` is the last degree summed, an integer in [0, 3000].  ``rho`` may
    be one radius or a 1-D sequence of them; a sequence gives one
    evaluation per radius, in input order, each equal to its one-radius
    call (see :func:`_sum_series`).
    """
    n = check_dim(n, 3)
    radii, single = _series_radii(rho)
    s = kink_abscissa(n, radii)
    wpow = _pow_each(1.0 - s * s, 0.5 * (n + 1))
    scale = 2.0 * n * (n - 2.0)

    def coefficients(k, c, p):
        return scale / (k * (k - 1.0) * (k + n - 2.0) * (k + n - 1.0)) * p[0] * c[:, 0]

    lams = np.array([0.5 * (n + 2)])
    head = 2.0 * wpow / (n - 1.0)
    values, omitted = _sum_series(radii, head, 2, lams, s, wpow[None, :], coefficients, K)
    return _evaluations(single, values, omitted)


def phi3_closed(rho: float) -> float:
    """Elementary closed form of the profile in dimension three.

    Returns (2/3) [ (1 + rho^2/3)^(3/2) - 1 + rho^2 ] / rho^2, with the even
    Taylor expansion about 0 below rho = 1e-4 to avoid 0/0.  The numerator
    is assembled through expm1/log1p so small rho keeps full precision.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    r2 = rho * rho
    if rho < 1e-4:
        return 1.0 + r2 / 36.0
    num = math.expm1(1.5 * math.log1p(r2 / 3.0)) + r2
    return (2.0 / 3.0) * num / r2


def varphi(n: int, t: float) -> float:
    """Substitution t (1 - (n-2)^2 t / n^2) / (1 - (n-4) t / n) on [0, 1].

    Increases from 0 to (n-1)/n, which is the largest hypergeometric
    argument used anywhere in the package.
    """
    n = check_dim(n, 3)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return _varphi(n, t)


def _varphi(n, t):
    """:func:`varphi` without the checks, for one t or an array of them."""
    a, w, *_ = _factors(n, t)
    return t * w / a


def _factors(n, t):
    """The factors A, W, B, C, E of the auxiliary inequality at t = rho^2 (one
    t or an array): 1 - c t with c = (n-4)/n, (n-2)^2/n^2, (n-2)(n-3)/n^2,
    (n-2)(n-3)/(n(n-1)) and (n-2)/n.  With them Phi''(rho) =
    -(2 (n-2) / t) W^((n-1)/2) A^(-n/2) C E technical_gap(n, t)."""
    return (
        1.0 - (n - 4.0) * t / n,
        1.0 - (n - 2.0) ** 2 * t / (n * n),
        1.0 - (n - 2.0) * (n - 3.0) * t / (n * n),
        1.0 - (n - 2.0) * (n - 3.0) * t / (n * (n - 1.0)),
        1.0 - (n - 2.0) * t / n,
    )


def phi_second_closed(n: int, rho) -> Evaluation | list[Evaluation]:
    """Second derivative of the profile by the hypergeometric closed form.

    Valid for n >= 3 and rho above :data:`SECOND_CLOSED_RHO_MIN`; below that
    the 1/rho^2 prefactor against a vanishing brace loses too many digits
    and :func:`phi_second_series` is exact instead.  ``rho`` may be one
    radius or a 1-D sequence of them; a sequence gives one evaluation per
    radius, in input order, with every hypergeometric value from one
    batched :func:`hyp2f1` call, and one radius is a batch of one.
    """
    n = check_dim(n, 3)
    r, single = _radii(
        rho,
        lambda r: (SECOND_CLOSED_RHO_MIN < r) & (r <= 1.0),
        f"closed form needs rho in ({SECOND_CLOSED_RHO_MIN}, 1]; use phi_second_series below",
    )
    r2 = r * r
    aa, w, b, c, e = _factors(n, r2)
    f_val = _varphi_hyp2f1(n, r2)[1]
    term1 = b * aa
    term2 = c * w * e * f_val
    prefactor = 2.0 * (n - 2.0) / r2 * _pow_each(w, 0.5 * (n - 3)) * _pow_each(aa, -0.5 * n)
    value = prefactor * (term1 - term2)
    est = abs(prefactor) * (specfun.DEFAULT_SERIES_RTOL * abs(term2) + 1e-16 * (abs(term1) + abs(term2)))
    return _evaluations(single, value.tolist(), est.tolist())


def phi_second_series(n: int, rho, K: int | None = None) -> Evaluation | list[Evaluation]:
    """Second derivative of the profile by its three-part Gegenbauer series.

    The three series run over parameters (n-2)/2, n/2 and (n+2)/2 with
    prefactors 2(n-2)^2/n^2, -4(n-2)^2/(n(n-1)) and 2(n-2)/(n+1), degree
    ratios 1, (n-1)/(n+k-1) and n(n+1)/((n+k)(n+k+1)), and powers of
    w = 1 - s^2 with exponents (n-3)/2, (n-1)/2 and (n+1)/2.  At rho = 0
    only the degree-0 terms survive, which makes this the exact route near
    the origin.  ``rho`` and ``K`` are as for :func:`phi_series`.
    """
    n = check_dim(n, 3)
    radii, single = _series_radii(rho)
    s = kink_abscissa(n, radii)
    w = 1.0 - s * s
    prefactors = np.empty((3, radii.size))  # filled in place, so that no row is held twice
    prefactors[0] = 2.0 * (n - 2.0) ** 2 / (n * n) * _pow_each(w, 0.5 * (n - 3))
    prefactors[1] = -4.0 * (n - 2.0) ** 2 / (n * (n - 1.0)) * _pow_each(w, 0.5 * (n - 1)) * (n - 1.0)
    prefactors[2] = 2.0 * (n - 2.0) / (n + 1.0) * _pow_each(w, 0.5 * (n + 1)) * n * (n + 1.0)

    def coefficients(k, c, p):
        return p[0] * c[:, 0] + p[1] / (n + k - 1.0) * c[:, 1] + p[2] / ((n + k) * (n + k + 1.0)) * c[:, 2]

    lams = np.array([0.5 * (n - 2), 0.5 * n, 0.5 * (n + 2)])
    values, omitted = _sum_series(radii, np.zeros(radii.size), 0, lams, s, prefactors, coefficients, K)
    return _evaluations(single, values, omitted)


def phi_second_fd(n: int, rho) -> Evaluation | list[Evaluation]:
    """Second derivative by a Richardson-extrapolated central difference of
    the quadrature route.

    Uses the symmetric second difference at widths h = 1e-3 and h/2
    combined as (4 D(h/2) - D(h)) / 3, with rho + h <= 1.  The profile is
    even in rho, so points reflected below the origin take the value at
    their mirror radius.  ``rho`` may be
    one radius or a 1-D sequence of them; a sequence gives one evaluation
    per radius, in input order, and one radius is a batch of one.  The five
    abscissae of every radius go through one :func:`phi_quad_grid` call at
    the binary64 floor, since the difference quotient amplifies
    per-evaluation noise by 4/h^2.
    """
    n = check_dim(n, 2)
    step = _FD_STEP
    radii, single = _radii(rho, lambda r: (0.0 <= r) & (r <= 1.0 - step), "need rho + step <= 1")
    half = 0.5 * step
    abscissae = np.abs(np.stack((radii, radii + step, radii - step, radii + half, radii - half)))
    center, up, down, up_half, down_half = phi_quad_grid(n, abscissae.ravel(), _TIGHT_SPEC).value.reshape(5, -1)
    d_h = (up - 2.0 * center + down) / (step * step)
    d_h2 = (up_half - 2.0 * center + down_half) / (half * half)
    values = (4.0 * d_h2 - d_h) / 3.0
    noise = 16.0 * 1e-15 / (step * step)
    estimates = np.maximum(np.abs(d_h - d_h2) / 3.0, noise)
    return _evaluations(single, values.tolist(), estimates.tolist())


def phi_second(n: int, rho) -> Evaluation | list[Evaluation]:
    """Second derivative of the profile by the closed form where it is well
    conditioned (rho above :data:`SECOND_CLOSED_RHO_MIN`), by the series at
    and below it, in every dimension n >= 3.

    ``rho`` may be one radius in [0, 1] or a 1-D sequence of them; a
    sequence gives one evaluation per radius, in input order, from one
    series call for its radii at or below the threshold and one closed call
    for the rest."""
    radii, single = _radii(rho, lambda r: (0.0 <= r) & (r <= 1.0), "rho must lie in [0, 1]")
    closed = radii > SECOND_CLOSED_RHO_MIN
    evaluations = [None] * radii.size
    for route, where in ((phi_second_series, ~closed), (phi_second_closed, closed)):
        index = np.flatnonzero(where)
        if index.size:
            for i, e in zip(index.tolist(), route(n, radii[index])):
                evaluations[i] = e
    return evaluations[0] if single else evaluations


def _unit_points(t):
    """:func:`_radii` for points t of [0, 1]."""
    return _radii(t, lambda x: (0.0 <= x) & (x <= 1.0), "t must lie in [0, 1]")


def psi(n: int, t) -> float | list[float]:
    """Difference whose sign settles the auxiliary inequality.

    Vanishes at t = 0; positive on (0, 1) for n >= 4 and negative for n = 3,
    mirroring the reversal of the inequality in dimension three.  ``t`` may
    be one number or a 1-D sequence of them; a sequence gives a list in
    input order, with every hypergeometric value from one batched
    :func:`hyp2f1` call, and one number is a batch of one.
    """
    n = check_dim(n, 3)
    ts, single = _unit_points(t)
    return _one_or_list(_psi_from(n, ts, *_varphi_hyp2f1(n, ts)), single)


def _varphi_hyp2f1(n, t):
    """varphi(n, t) and 2F1(1, n/2; (n+1)/2; varphi(n, t)) at an array of
    t, the values that :func:`psi` and :func:`technical_gap` share, as two
    arrays from one :func:`hyp2f1` call."""
    ph = _varphi(n, t)
    return ph, np.array(hyp2f1(HypergeometricInput(1.0, 0.5 * n, 0.5 * (n + 1), ph)))


def _psi_from(n, t, ph, f_val):
    """:func:`psi` at an array of t, from its varphi and 2F1 values."""
    a, w, b, c, _ = _factors(n, t)
    first = _pow_each(ph, 0.5 * (n - 1)) * np.sqrt(1.0 - ph) * f_val
    num = _pow_each(t, 0.5 * (n - 1)) * _pow_each(w, 0.5 * (n - 3)) * b
    den = _pow_each(a, 0.5 * (n - 2)) * c
    return first - num / den


def psi_prime_quadratic(n: int, t: float) -> float:
    """Quadratic factor of the closed-form derivative of :func:`psi`.

    Constant 128 for n = 4 (the linear and quadratic coefficients carry a
    factor n - 4); positive on [0, 1] for every n >= 4.  ``t`` may also be
    an array, which gives an array.
    """
    n = check_dim(n, 3)
    return (
        n**3 * (n * n - 3.0 * n - 2.0)
        - 2.0 * n * (n - 2.0) * (n - 4.0) * (n * n - 3.0 * n + 1.0) * t
        + (n - 2.0) ** 2 * (n - 3.0) * (n - 4.0) ** 2 * t * t
    )


def psi_prime_closed(n: int, t: float) -> float:
    """Closed form of the derivative of :func:`psi` for n >= 4."""
    n = check_dim(n, 4)
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    a, w, _, c, _ = _factors(n, t)
    pref = t ** (0.5 * (n - 1)) / (2.0 * n**5 * (n - 1.0))
    return pref * a ** (-0.5 * n) * w ** (0.5 * (n - 5)) * c ** (-2.0) * psi_prime_quadratic(n, t)


# ---------------------------------------------------------------------------
# verification sweeps


def _technical_rhs(n, t):
    a, w, b, c, e = _factors(n, t)
    return (a * b) / (e * w * c)


def technical_gap(n: int, t) -> float | list[float]:
    """Hypergeometric side minus rational side of the auxiliary inequality.

    Both sides equal 1 at t = 0; the gap is positive on (0, 1] for n >= 4
    and negative for n = 3.  ``t`` may be one number or a 1-D sequence of
    them, as for :func:`psi`.
    """
    n = check_dim(n, 3)
    ts, single = _unit_points(t)
    return _one_or_list(_varphi_hyp2f1(n, ts)[1] - _technical_rhs(n, ts), single)


def _label(var, points):
    """Labels for the entries of a sweep over ``points``, by index."""
    return lambda i: f"{var}={points[i]:.6f}"


def verify_monotone(n: int) -> VerificationReport:
    """Monotonicity sweep of the profile on a uniform grid of [0, 1].

    Asserts strict decrease with maximum 2/(n-1) at the origin for n >= 4,
    strict increase with the maximum at rho = 1 for n = 3, and a vanishing
    one-sided derivative at the origin.  Strictness carries a 1e-12 margin
    to stay clear of float noise.
    """
    n = check_dim(n, 3)
    grid = np.linspace(0.0, 1.0, _SWEEP_POINTS)
    values = phi_quad_grid(n, grid).value.tolist()

    checks = []

    err0 = abs(values[0] - 2.0 / (n - 1.0))
    checks.append(CheckResult("value_at_origin", err0 <= 1e-10, err0, "rho=0"))

    diffs = np.diff(values)
    at = _label("rho", grid[1:])  # a difference is labelled by its right grid point
    if n >= 4:
        checks.append(extreme_check("strictly_decreasing", diffs, at, lambda d: d <= -1e-12))
        max_err = abs(max(values) - 2.0 / (n - 1.0))
        checks.append(CheckResult("maximum_at_origin", max_err <= 1e-10, max_err, "rho=0"))
    else:
        checks.append(extreme_check("strictly_increasing", diffs, at, lambda d: d >= 1e-12, smallest=True))
        max_err = abs(max(values) - phi3_closed(1.0))
        checks.append(CheckResult("maximum_at_one", max_err <= 1e-10, max_err, "rho=1"))

    # The profile is even, so the symmetric difference about the origin is
    # identically zero; the one-sided quotient at delta is the honest probe
    # and converges to the derivative at rate delta.
    delta = 1e-6
    slope = abs(phi_quad(n, delta, _TIGHT_SPEC).value - phi_quad(n, 0.0, _TIGHT_SPEC).value) / delta
    checks.append(CheckResult("derivative_zero_at_origin", slope <= 1e-6, slope, "rho=0"))

    return VerificationReport("monotone", n, tuple(checks))


def verify_concavity(n: int) -> VerificationReport:
    """Concavity sweep of the profile on an interior grid of (0, 1).

    The sweep runs through :func:`phi_second` in every dimension.  For
    n >= 4 the second derivative must stay below -1e-12 everywhere; for
    n = 3 it is positive, recorded as an expected failure.  In every
    dimension the closed, series and finite-difference routes must agree.
    """
    n = check_dim(n, 3)
    grid = (np.arange(1, _SWEEP_POINTS + 1)) / (_SWEEP_POINTS + 1.0)
    agree_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    # the sweep and the closed route's agreement values in one routed call
    second = [e.value for e in phi_second(n, grid.tolist() + agree_grid)]
    values = second[: grid.size]
    routes = [
        [e.value for e in phi_second_series(n, agree_grid)],
        [e.value for e in phi_second_fd(n, agree_grid)],
        second[grid.size :],
    ]

    checks = [
        extreme_check(
            "second_derivative_negative",
            values,
            _label("rho", grid),
            lambda v: v <= -1e-12,
            expected=(n == 3),
        )
    ]

    errors = []
    for r, *at_r in zip(agree_grid, *routes):
        errors.append((np.ptp(at_r) / np.max(np.abs(at_r)), f"rho={r}"))
    checks.append(worst_error_check("route_agreement", errors, 1e-6))

    return VerificationReport("concavity", n, tuple(checks))


def verify_technical(n: int) -> VerificationReport:
    """Sweep of the auxiliary inequality on a uniform grid of [0, 1].

    Both sides coincide at t = 0, so strictness is asserted on the positive
    grid points and equality to 1e-12 at the origin.  For n >= 4 the gap,
    the difference :func:`psi` and the quadratic factor must all be
    positive; for n = 3 the gap has the opposite sign.
    """
    n = check_dim(n, 3)
    grid = np.linspace(0.0, 1.0, _SWEEP_POINTS)
    # one hypergeometric value per grid point serves both the gap and psi,
    # all of them from one batched call
    phs, f_vals = _varphi_hyp2f1(n, grid)
    gaps = f_vals - _technical_rhs(n, grid)

    checks = []
    at0 = float(abs(gaps[0]))
    checks.append(CheckResult("sides_equal_at_origin", at0 <= 1e-12, at0, "t=0"))

    # psi on the whole grid for n >= 4, at t = 0 alone for n = 3
    m = grid.size if n >= 4 else 1
    psis = _psi_from(n, grid[:m], phs[:m], f_vals[:m])
    at = _label("t", grid[1:])
    if n >= 4:
        checks.append(extreme_check("gap_positive", gaps[1:], at, lambda g: g > 0.0, smallest=True))
        checks.append(extreme_check("psi_positive", psis[1:], at, lambda p: p > 0.0, smallest=True))
        quads = psi_prime_quadratic(n, grid)
        checks.append(extreme_check("quadratic_positive", quads, _label("t", grid), lambda q: q > 0.0, smallest=True))
    else:
        checks.append(extreme_check("gap_reversed", gaps[1:], at, lambda g: g < 0.0))

    psi0 = float(abs(psis[0]))
    checks.append(CheckResult("psi_zero_at_origin", psi0 <= 1e-12, psi0, "t=0"))

    return VerificationReport("technical", n, tuple(checks))
