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
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import quadrature, specfun
from .errors import ConvergenceError, check_dim
from .quadrature import QuadratureSpec, integrate
from .report import CheckResult, VerificationReport, worst_error_check
from .specfun import HypergeometricInput, _one_or_list, _pow_each, _radii, hyp2f1

__all__ = [
    "PhiEvaluation",
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
    "verify_monotone",
    "verify_concavity",
    "verify_technical",
    "SECOND_CLOSED_RHO_MIN",
]

Method = Literal["quad", "series", "closed3", "second_closed", "second_series", "second_fd"]

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

_NON_FINITE = "profile quadrature gave a non-finite value or error estimate"


@dataclass(frozen=True)
class PhiEvaluation:
    """One evaluation of the profile or a derivative by one route."""

    n: int
    rho: float
    value: float
    method: Method
    error_estimate: float


def kink_abscissa(n: int, rho: float) -> float:
    """Interior point where the defining integrand loses smoothness."""
    return (n - 2.0) * rho / n


def phi_quad(n: int, rho: float, spec: QuadratureSpec | None = None) -> PhiEvaluation:
    """Profile value by adaptive quadrature of the defining integral.

    The kink abscissa is declared to the quadrature, and the endpoint pieces
    run in the cosine-substituted variable, so rho = 1 (where the kernel
    factor has an integrable endpoint singularity) is allowed.  A value or
    estimate that is not finite (the kernel factor overflows near rho = 1
    in high dimension) raises :class:`ConvergenceError`.
    """
    n = check_dim(n, 2)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    s = kink_abscissa(n, rho)
    d_exp = 0.5 * (n - 2)

    def f(t):
        return np.abs(t - s) * (1.0 - 2.0 * t * rho + rho * rho) ** (-d_exp)

    qspec = replace(spec if spec is not None else quadrature.DEFAULT_SPEC, kinks=(s,))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res = integrate(f, -1.0, 1.0, qspec, weight_exponent=0.5 * (n - 3))
    if not (math.isfinite(res.value) and math.isfinite(res.error_estimate)):
        raise ConvergenceError(_NON_FINITE, res.value, res.error_estimate)
    return PhiEvaluation(n, rho, res.value, "quad", res.error_estimate)


def phi_quad_grid(n: int, rhos, spec: QuadratureSpec | None = None):
    """Profile values at many radii by one batched quadrature.

    Returns ``(values, estimates)`` as arrays over ``rhos``.  Each radius is
    one group of :func:`ballgrad.quadrature.group_integrals`: the defining
    integral cut at the kink s = (n-2) rho / n, both pieces in the
    cosine-substituted variable as in :func:`phi_quad`, with that group's
    own stopping test (summed gap within the largest of ``spec.abs_tol``,
    ``spec.rel_tol`` times the value and the roundoff floor), estimate and
    ``spec.max_subdivisions`` budget.  The radii run in passes of 128, so
    the panel arrays stay bounded, and every entry has the bits of its
    one-radius call.  Non-finite results raise as in :func:`phi_quad`,
    which stays the independent adaptive route.
    """
    n = check_dim(n, 2)
    rho = np.asarray(rhos, dtype=float)
    if rho.ndim != 1 or rho.size == 0 or not np.all((0.0 <= rho) & (rho <= 1.0)):
        raise ValueError("rhos must be a non-empty sequence in [0, 1]")
    blocks = (rho[i : i + _GRID_BLOCK] for i in range(0, rho.size, _GRID_BLOCK))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values, estimates = (np.concatenate(part) for part in zip(*(_phi_quad_block(n, b, spec) for b in blocks)))
    if not (np.isfinite(values).all() and np.isfinite(estimates).all()):
        raise ConvergenceError(_NON_FINITE, values, estimates)
    return values, estimates


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


def _evaluations(n, radii, single, values, estimates, method):
    """One evaluation per radius, or the only one for a one-number call."""
    evaluations = [
        PhiEvaluation(n, r, v, method, e) for r, v, e in zip(radii.tolist(), values, estimates)
    ]
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

    Each radius stops on its own: after degree ``K``, or with ``K`` unset
    after three terms in a row below 1e-12 of its running sum or after
    degree 3000; also once rho^k vanishes.  ``K`` must be unset or an
    integer in [0, 3000], else ``ValueError``.  A radius that stops has
    its terms ``math.fsum``med and leaves the pass.  The radii run sorted,
    in passes of ``_SERIES_PASS``, so the slow radii near 1 share them.  The
    terms of a pass are formed a block of degrees at a time, one block per
    block of :func:`specfun.gegenbauer_iter`.  When radii leave, the
    recurrence restarts on the radii still summing, from their last two
    Gegenbauer values.  Each term is formed by the same operations as in a
    one-radius sum, so no result depends on the other radii of the batch
    or on the block sizes.
    """
    if K is not None and (isinstance(K, bool) or not 0 <= K <= _ADAPTIVE_CAP or K != int(K)):
        raise ValueError(f"K must be an integer in [0, {_ADAPTIVE_CAP}]")
    cap = _ADAPTIVE_CAP if K is None else int(K)
    values = np.empty(rho.size)
    omitted = np.empty(rho.size)
    order = np.argsort(rho, kind="stable")
    column = lams[:, None]
    for start in range(0, rho.size, _SERIES_PASS):
        index = order[start : start + _SERIES_PASS]  # the radii of the pass still summing
        gegenbauer = specfun.gegenbauer_iter(column, s[index])
        r, p, heads, running = rho[index], prefactors[:, index], head[index], head[index]
        pw = np.ones(index.size)
        for _ in range(k0):
            pw = pw * r
        small = np.zeros((3, index.size), dtype=bool)  # last three terms below 1e-12 of the sum
        blocks = []  # the terms so far, one array per block of degrees
        j = 0  # the Gegenbauer degree of the next block
        while index.size:
            c = next(gegenbauer)
            size = c.shape[0]
            # rho^k by repeated multiplication, as a one-radius loop forms it
            pws = np.empty((size, index.size))
            pws[0], pws[1:] = pw, r
            np.multiply.accumulate(pws, out=pws)
            degrees = np.arange(k0 + j, k0 + j + size, dtype=float)[:, None]
            terms = coefficients(degrees, c, p)
            terms *= pws
            sums = np.empty((size + 1, index.size))
            sums[0], sums[1:] = running, terms
            np.add.accumulate(sums, out=sums)
            stop = (pws == 0.0) | (degrees > cap)
            if K is None:
                flags = np.empty((size + 3, index.size), dtype=bool)
                flags[:3] = small
                np.less_equal(np.abs(terms), 1e-12 * np.abs(sums[1:]), out=flags[3:])
                stop |= flags[:-3] & flags[1:-2] & flags[2:-1]
                small = flags[-3:]
            blocks.append(terms)
            pw, running = pws[-1] * r, sums[-1]
            j += size
            done = stop.any(axis=0)
            if not done.any():
                continue
            last = stop.argmax(axis=0)
            finished = np.flatnonzero(done)
            omitted[index[finished]] = np.abs(terms[last[finished], finished])
            ends = (j - size + 1 + last[finished]).tolist()
            # as many radii at a time as keep the gathered copy near 64 kB:
            # each row is one radius's head and its terms before the stop
            per = max(1, 8192 // j)
            for lo in range(0, finished.size, per):
                group = finished[lo : lo + per]
                rows = np.concatenate([heads[group, None], *(block[:, group].T for block in blocks)], axis=1)
                for i, row, end in zip(index[group], rows, ends[lo : lo + per]):
                    values[i] = math.fsum(memoryview(row)[:end])
            keep = ~done
            for b, block in enumerate(blocks):
                blocks[b] = block[:, keep]  # in place: the old copy of each block goes at once
            index, r, p, heads = index[keep], r[keep], p[:, keep], heads[keep]
            running, pw, small = running[keep], pw[keep], small[:, keep]
            if index.size:
                state = (j, c[-2][:, keep], c[-1][:, keep])
                gegenbauer = specfun.gegenbauer_iter(column, s[index], state=state)
    return values.tolist(), omitted.tolist()


def phi_series(n: int, rho, K: int | None = None) -> PhiEvaluation | list[PhiEvaluation]:
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
    return _evaluations(n, radii, single, values, omitted, "series")


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
    return t * (1.0 - (n - 2.0) ** 2 * t / (n * n)) / (1.0 - (n - 4.0) * t / n)


def phi_second_closed(n: int, rho, rel_tol: float = specfun.DEFAULT_SERIES_RTOL) -> PhiEvaluation | list[PhiEvaluation]:
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
    w = 1.0 - (n - 2.0) ** 2 * r2 / (n * n)
    aa = 1.0 - (n - 4.0) * r2 / n
    z = r2 * w / aa
    f_val = np.array(hyp2f1(HypergeometricInput(1.0, 0.5 * n, 0.5 * (n + 1), z), rel_tol))
    term1 = (1.0 - (n - 2.0) * (n - 3.0) * r2 / (n * n)) * aa
    term2 = (
        (1.0 - (n - 2.0) * (n - 3.0) * r2 / (n * (n - 1.0)))
        * w
        * (1.0 - (n - 2.0) * r2 / n)
        * f_val
    )
    prefactor = 2.0 * (n - 2.0) / r2 * _pow_each(w, 0.5 * (n - 3)) * _pow_each(aa, -0.5 * n)
    value = prefactor * (term1 - term2)
    est = abs(prefactor) * (rel_tol * abs(term2) + 1e-16 * (abs(term1) + abs(term2)))
    return _evaluations(n, r, single, value.tolist(), est.tolist(), "second_closed")


def phi_second_series(n: int, rho, K: int | None = None) -> PhiEvaluation | list[PhiEvaluation]:
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
    a1 = 2.0 * (n - 2.0) ** 2 / (n * n) * _pow_each(w, 0.5 * (n - 3))
    a2 = -4.0 * (n - 2.0) ** 2 / (n * (n - 1.0)) * _pow_each(w, 0.5 * (n - 1))
    a3 = 2.0 * (n - 2.0) / (n + 1.0) * _pow_each(w, 0.5 * (n + 1))
    prefactors = np.vstack((a1, a2 * (n - 1.0), a3 * n * (n + 1.0)))

    def coefficients(k, c, p):
        return p[0] * c[:, 0] + p[1] / (n + k - 1.0) * c[:, 1] + p[2] / ((n + k) * (n + k + 1.0)) * c[:, 2]

    lams = np.array([0.5 * (n - 2), 0.5 * n, 0.5 * (n + 2)])
    values, omitted = _sum_series(radii, np.zeros(radii.size), 0, lams, s, prefactors, coefficients, K)
    return _evaluations(n, radii, single, values, omitted, "second_series")


def phi_second_fd(n: int, rho, step: float = 1e-3) -> PhiEvaluation | list[PhiEvaluation]:
    """Second derivative by a Richardson-extrapolated central difference of
    the quadrature route.

    Uses the symmetric second difference at widths ``step`` and ``step/2``
    combined as (4 D(h/2) - D(h)) / 3; ``step`` must be finite and positive,
    with rho + step <= 1.  The profile is even in rho, so points reflected
    below the origin take the value at their mirror radius.  ``rho`` may be
    one radius or a 1-D sequence of them; a sequence gives one evaluation
    per radius, in input order, and one radius is a batch of one.  The five
    abscissae of every radius go through one :func:`phi_quad_grid` call at
    the binary64 floor, since the difference quotient amplifies
    per-evaluation noise by 4/h^2.
    """
    n = check_dim(n, 2)
    if not 0.0 < step < math.inf:
        raise ValueError("step must be finite and positive")
    radii, single = _radii(rho, lambda r: (0.0 <= r) & (r <= 1.0 - step), "need rho + step <= 1")
    half = 0.5 * step
    abscissae = np.abs(np.stack((radii, radii + step, radii - step, radii + half, radii - half)))
    center, up, down, up_half, down_half = phi_quad_grid(n, abscissae.ravel(), _TIGHT_SPEC)[0].reshape(5, -1)
    d_h = (up - 2.0 * center + down) / (step * step)
    d_h2 = (up_half - 2.0 * center + down_half) / (half * half)
    values = (4.0 * d_h2 - d_h) / 3.0
    noise = 16.0 * 1e-15 / (step * step)
    estimates = np.maximum(np.abs(d_h - d_h2) / 3.0, noise)
    return _evaluations(n, radii, single, values.tolist(), estimates.tolist(), "second_fd")


def phi_second(n: int, rho) -> PhiEvaluation | list[PhiEvaluation]:
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


def psi(n: int, t, rel_tol: float = specfun.DEFAULT_SERIES_RTOL) -> float | list[float]:
    """Difference whose sign settles the auxiliary inequality.

    Vanishes at t = 0; positive on (0, 1) for n >= 4 and negative for n = 3,
    mirroring the reversal of the inequality in dimension three.  ``t`` may
    be one number or a 1-D sequence of them; a sequence gives a list in
    input order, with every hypergeometric value from one batched
    :func:`hyp2f1` call, and one number is a batch of one.
    """
    n = check_dim(n, 3)
    ts, single = _unit_points(t)
    return _one_or_list(_psi_from(n, ts, *_varphi_hyp2f1(n, ts, rel_tol)), single)


def _varphi_hyp2f1(n, t, rel_tol=specfun.DEFAULT_SERIES_RTOL):
    """varphi(n, t) and 2F1(1, n/2; (n+1)/2; varphi(n, t)) at an array of
    t, the values that :func:`psi` and :func:`technical_gap` share, as two
    arrays from one :func:`hyp2f1` call."""
    ph = _varphi(n, t)
    return ph, np.array(hyp2f1(HypergeometricInput(1.0, 0.5 * n, 0.5 * (n + 1), ph), rel_tol))


def _psi_from(n, t, ph, f_val):
    """:func:`psi` at an array of t, from its varphi and 2F1 values."""
    first = _pow_each(ph, 0.5 * (n - 1)) * np.sqrt(1.0 - ph) * f_val
    num = (
        _pow_each(t, 0.5 * (n - 1))
        * _pow_each(1.0 - (n - 2.0) ** 2 * t / (n * n), 0.5 * (n - 3))
        * (1.0 - (n - 2.0) * (n - 3.0) * t / (n * n))
    )
    den = _pow_each(1.0 - (n - 4.0) * t / n, 0.5 * (n - 2)) * (
        1.0 - (n - 2.0) * (n - 3.0) * t / (n * (n - 1.0))
    )
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
    pref = t ** (0.5 * (n - 1)) / (2.0 * n**5 * (n - 1.0))
    return (
        pref
        * (1.0 - (n - 4.0) * t / n) ** (-0.5 * n)
        * (1.0 - (n - 2.0) ** 2 * t / (n * n)) ** (0.5 * (n - 5))
        * (1.0 - (n - 2.0) * (n - 3.0) * t / (n * (n - 1.0))) ** (-2.0)
        * psi_prime_quadratic(n, t)
    )


# ---------------------------------------------------------------------------
# verification sweeps


def _technical_rhs(n, t):
    return ((1.0 - (n - 4.0) * t / n) * (1.0 - (n - 2.0) * (n - 3.0) * t / (n * n))) / (
        (1.0 - (n - 2.0) * t / n)
        * (1.0 - (n - 2.0) ** 2 * t / (n * n))
        * (1.0 - (n - 2.0) * (n - 3.0) * t / (n * (n - 1.0)))
    )


def technical_gap(n: int, t) -> float | list[float]:
    """Hypergeometric side minus rational side of the auxiliary inequality.

    Both sides equal 1 at t = 0; the gap is positive on (0, 1] for n >= 4
    and negative for n = 3.  ``t`` may be one number or a 1-D sequence of
    them, as for :func:`psi`.
    """
    n = check_dim(n, 3)
    ts, single = _unit_points(t)
    return _one_or_list(_varphi_hyp2f1(n, ts)[1] - _technical_rhs(n, ts), single)


def verify_monotone(n: int) -> VerificationReport:
    """Monotonicity sweep of the profile on a uniform grid of [0, 1].

    Asserts strict decrease with maximum 2/(n-1) at the origin for n >= 4,
    strict increase with the maximum at rho = 1 for n = 3, and a vanishing
    one-sided derivative at the origin.  Strictness carries a 1e-12 margin
    to stay clear of float noise.
    """
    n = check_dim(n, 3)
    grid = np.linspace(0.0, 1.0, _SWEEP_POINTS)
    values = phi_quad_grid(n, grid)[0].tolist()

    checks = []

    err0 = abs(values[0] - 2.0 / (n - 1.0))
    checks.append(CheckResult("value_at_origin", err0 <= 1e-10, err0, "rho=0"))

    diffs = np.diff(values)
    if n >= 4:
        worst = float(diffs.max())
        idx = int(diffs.argmax())
        checks.append(
            CheckResult("strictly_decreasing", worst <= -1e-12, worst, f"rho={grid[idx + 1]:.6f}")
        )
        max_err = abs(max(values) - 2.0 / (n - 1.0))
        checks.append(CheckResult("maximum_at_origin", max_err <= 1e-10, max_err, "rho=0"))
    else:
        worst = float(diffs.min())
        idx = int(diffs.argmin())
        checks.append(
            CheckResult("strictly_increasing", worst >= 1e-12, worst, f"rho={grid[idx + 1]:.6f}")
        )
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
    n >= 4 the second derivative must stay below -1e-12 everywhere and the
    closed, series and finite-difference routes must agree; for n = 3 the
    second derivative is positive, recorded as an expected failure, and the
    route agreement compares the series and finite-difference routes only.
    """
    n = check_dim(n, 3)
    grid = (np.arange(1, _SWEEP_POINTS + 1)) / (_SWEEP_POINTS + 1.0)
    agree_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    # the sweep and, at n >= 4, the closed route's agreement values in one
    # routed call; the series route's agreement values in one more
    closed_agree = agree_grid if n >= 4 else []
    second = [e.value for e in phi_second(n, grid.tolist() + closed_agree)]
    values = second[: grid.size]
    routes = [
        [e.value for e in phi_second_series(n, agree_grid)],
        [e.value for e in phi_second_fd(n, agree_grid)],
    ]
    if closed_agree:
        routes.append(second[grid.size :])

    checks = []
    worst = max(values)
    idx = int(np.argmax(values))
    checks.append(
        CheckResult(
            "second_derivative_negative",
            worst <= -1e-12,
            float(worst),
            f"rho={grid[idx]:.6f}",
            expected=(n == 3),
        )
    )

    errors = []
    for r, *at_r in zip(agree_grid, *routes):
        scale = max(abs(v) for v in at_r)
        errors.append(((max(at_r) - min(at_r)) / scale, f"rho={r}"))
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
    if n >= 4:
        idx = 1 + int(np.argmin(gaps[1:]))
        worst = float(gaps[idx])
        checks.append(CheckResult("gap_positive", worst > 0.0, worst, f"t={grid[idx]:.6f}"))
        idxp = 1 + int(np.argmin(psis[1:]))
        worst_psi = float(psis[idxp])
        checks.append(CheckResult("psi_positive", worst_psi > 0.0, worst_psi, f"t={grid[idxp]:.6f}"))
        quads = psi_prime_quadratic(n, grid)
        idxq = int(np.argmin(quads))
        worst_q = float(quads[idxq])
        checks.append(CheckResult("quadratic_positive", worst_q > 0.0, worst_q, f"t={grid[idxq]:.6f}"))
    else:
        idx = 1 + int(np.argmax(gaps[1:]))
        worst = float(gaps[idx])
        checks.append(CheckResult("gap_reversed", worst < 0.0, worst, f"t={grid[idx]:.6f}"))

    psi0 = float(abs(psis[0]))
    checks.append(CheckResult("psi_zero_at_origin", psi0 <= 1e-12, psi0, "t=0"))

    return VerificationReport("technical", n, tuple(checks))
