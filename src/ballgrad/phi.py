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

import functools
import math
from dataclasses import replace

import numpy as np

from . import quadrature, specfun
from .errors import ConvergenceError, Evaluation, check_dim
from .quadrature import integrate
from .report import CheckResult, VerificationReport, extreme_check, worst_error_check
from .specfun import _batch, _pow_each, _radii

__all__ = [
    "phi_quad",
    "phi_one_sided",
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

# Radii per pass of phi_one_sided: few enough that the node arrays of one
# pass stay small, many enough that numpy does the work.
_GRID_BLOCK = 128

# Largest dimension of phi_one_sided, the Gauss-Legendre nodes per panel of
# its layout, and the Bernstein-ellipse parameters its bound tries per panel.
_SIDED_MAX_DIM = 1000
_SIDED_NODES = 16
_SIDED_ELLIPSES = np.array([2.0, 2.5, 3.0, 3.5, 4.0])

# Grid points of each verification sweep.
_SWEEP_POINTS = 1001

# Width of the Richardson finite difference of phi_second_fd.
_FD_STEP = 1e-3


def kink_abscissa(n: int, rho: float) -> float:
    """Interior point where the defining integrand loses smoothness."""
    return (n - 2.0) * rho / n


def phi_quad(n: int, rho: float) -> Evaluation:
    """Profile value by adaptive quadrature of the defining integral, under
    ``quadrature.DEFAULT_SPEC`` as it is at the call, with the kink added.

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

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return integrate(f, -1.0, 1.0, replace(quadrature.DEFAULT_SPEC, kinks=(s,)), weight_exponent=0.5 * (n - 3))


def phi_one_sided(n: int, rho) -> Evaluation:
    """Profile value by the one-sided integral, on a fixed Gauss layout.

    With w = (1 - t^2)^((n-3)/2) D^(-(n-2)/2), D = 1 - 2 t rho + rho^2, the
    moment of (t - s) w vanishes at s = (n-2) rho / n (of the Gegenbauer
    expansion of D^(-(n-2)/2) only degrees 0 and 1 meet 1 and t), so Phi = 2
    * integral over [-1, s] of (s - t) w dt.  That integrand has no kink and
    no singularity within 2/n of [-1, s], so one layout (:func:`_sided_layout`)
    serves every radius, with no bisection.  Every power is of a ratio at
    most 1: w = q^((n-3)/2) D^(-1/2), q = (1 - t^2)/D, as D - (1 - t^2) =
    (t - rho)^2.  The estimate sums the panel bounds of :func:`_sided_bounds`
    and 4 (n + 8) u Phi, u = 2^-53, five times the largest rounding error
    seen against 40-digit mpmath up to n = 1000.

    ``n`` must lie in [3, 1000] and ``rho`` in [0, 1], else ``ValueError``;
    a 1-D sequence of radii gives an :class:`Evaluation` of two arrays.  The
    values run in passes of 128 radii, each summed by
    :func:`ballgrad.quadrature.row_sums`, so each entry has the bits of its
    one-radius call.
    """
    n = check_dim(n, 3)
    if n > _SIDED_MAX_DIM:
        raise ValueError(f"the one-sided route needs n <= {_SIDED_MAX_DIM}")
    radii, single = _radii(rho, lambda r: (0.0 <= r) & (r <= 1.0), "rho must lie in [0, 1]")
    f, g, weights, *tables = _sided_layout(n)
    p, c = 0.5 * (n - 3), 1.0 + kink_abscissa(n, radii[:, None])
    oms, e2, r2 = (n - (n - 2.0) * radii[:, None]) / n, (1.0 - radii[:, None]) ** 2, 2.0 * radii[:, None]
    values = np.empty(radii.size)
    for start in range(0, radii.size, _GRID_BLOCK):
        part = slice(start, start + _GRID_BLOCK)
        om = oms[part] + c[part] * g  # 1 - t at the nodes t = -1 + (1 + s) f, and D = e2 + r2 (1 - t)
        d = e2[part] + r2[part] * om
        values[part] = quadrature.row_sums((c[part] * f * om / d) ** p / np.sqrt(d), weights)
    values *= c[:, 0] ** 2
    panels = _sided_bounds(n, radii[:, None], *tables)
    estimates = c[:, 0] ** 2 * quadrature.row_sums(panels, np.ones(panels.shape[1])) + 4.0 * (n + 8) * 2.0**-53 * values
    return _batch(single, values, estimates)


@functools.lru_cache(maxsize=64)
def _sided_layout(n):
    """The layout of :func:`phi_one_sided` in dimension ``n``, in the fraction
    f = (1 + t)/(1 + s), which no radius moves: 16 Gauss-Legendre nodes on
    each panel, with edges at f = 1/2 and 1 - 2^-k, k = 2..max(7, ceil(log2
    n)); the first panel runs in y, f = y^2 / 2, where (1 + t)^((n-3)/2) dt
    is a polynomial.  From n = 13 on, where the first panel's bound passes
    1e-13, every panel is halved.  Returns f, 1 - f, weights holding 2 (1 -
    f) and the Jacobian, and, per panel, the tables of :func:`_sided_bounds`
    for whichever of the ellipses ``_SIDED_ELLIPSES`` and the bound by the
    largest value is least at the worst of nine radii.  Each holds at every
    radius: 1 - t at an ellipse's right end is least at rho = 1."""
    top = max(7, math.ceil(math.log2(n)))
    edges = np.concatenate([[0.5], 1.0 - 0.5 ** np.arange(2.0, top + 1), [1.0]])
    if n > 12:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:]), [0.25]]))
    x, w = quadrature._gauss_rule(_SIDED_NODES)
    f0, y, lo, hi = edges[0], 0.5 * (x + 1.0), edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    f = np.concatenate([f0 * y * y, (mid + half * x).ravel()])
    g = np.concatenate([1.0 - f0 * y * y, (1.0 - mid - half * x).ravel()])
    weights = 2.0 * g * np.concatenate([f0 * y * w, (half * w).ravel()])
    r = _SIDED_ELLIPSES
    gauss = (64.0 / 15.0) * r ** (2.0 - 2.0 * _SIDED_NODES) / (r * r - 1.0)  # ATAP Thm 19.3, per unit half-width
    a, b2 = 0.5 * half * (r + 1.0 / r), (0.5 * half * (r - 1.0 / r)) ** 2  # semi-axes about a panel
    ry2, yb2 = f0 * (0.5 + 0.25 * (r + 1.0 / r)) ** 2, (0.25 * (r - 1.0 / r)) ** 2  # f0 |y|^2 and Im(y)^2 on the first
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lower = np.where(mid > a, 1.0 + b2 / (mid - a) ** 2, np.inf) ** (0.25 * (n - 3))  # |1 + t| off the axis
        far = 2.0 * half * gauss * (1.0 - mid + a) * lower
    omega = np.vstack([np.append(1.0 - ry2, 1.0 - f0), np.hstack([1.0 - mid - a, 1.0 - hi])])
    beta = np.vstack([np.append(8.0 * f0 * yb2, 0.0), np.hstack([b2, 0.0 * hi])])
    scale = np.vstack([np.append(2.0 * np.sqrt(f0 * ry2) * gauss * (1.0 + ry2), 8.0 * f0), np.hstack([far, 8.0 * half * (1.0 - lo)])])
    trial = _sided_bounds(n, np.linspace(0.0, 1.0, 9)[:, None, None], omega, beta, scale)
    best = (np.arange(omega.shape[0]), np.nan_to_num(trial, nan=np.inf, posinf=np.inf).max(axis=0).argmin(axis=1))
    return f, g, weights, omega[best], beta[best], scale[best]


def _sided_bounds(n, rho, omega, beta, scale):
    """Bounds on the error of each panel of :func:`phi_one_sided` at the
    radii ``rho`` (a column), over (1 + s)^2, by the tables of
    :func:`_sided_layout`, whose first row is the first panel.

    A Bernstein ellipse of parameter R about a panel of half-width h bounds
    its part of Phi by 2 h (64/15) M R^(-30) / (R^2 - 1) (Trefethen, *ATAP*,
    Thm 19.3, for 16 nodes), with M the largest |(s - t) w| on the ellipse.
    On an ellipse whose points have real part at most x (and at least x_lo)
    and imaginary part at most b, the exact moduli of 1 - t, 1 + t and D
    give |q|^2 <= q(min(x, rho))^2 (1 + b^2 Delta) (1 + b^2 / (1 + x_lo)^2)
    and |D| >= D(x), with Delta = (1 - rho)^2 (D + sqrt(rho) (1 + rho)
    (1 - x)) / ((1 - x) D)^2; on the first panel, in y, the height term is
    8 f0 (1 + s) Im(y)^2 Delta.  The other bound adds the largest values of
    the panel's integral and of its rule: twice its length times (s - t) at
    its left end times w at its right end."""
    p, c = 0.5 * (n - 3), 1.0 + kink_abscissa(n, rho)
    oms, e2, r2 = (n - (n - 2.0) * rho) / n, (1.0 - rho) ** 2, 2.0 * rho
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        om = oms + c * omega  # 1 - x at the ellipse's rightmost point
        d = e2 + r2 * om
        q = np.where(om < 1.0 - rho, 1.0, (2.0 - om) * om / d)
        delta = e2 * (d + np.sqrt(rho) * (1.0 + rho) * om) / (om * d) ** 2
        height = c * c * beta
        height[:, 0] = c[:, 0] * beta[0]
        bound = scale * (q * q * (1.0 + height * delta)) ** (0.5 * p) / np.sqrt(d)
    return np.where(om > 0.0, bound, np.inf)


def _series_radii(rho):
    """:func:`_radii` in the domain [0, 1) of both series."""
    return _radii(
        rho,
        lambda r: (0.0 <= r) & (r < 1.0),
        "the expansion requires rho in [0, 1), or a non-empty sequence of such radii",
    )


def _sum_series(n, rho, head, k0, lams, s, prefactors, coefficients, K):
    """Exact sums of ``head`` and the terms c_k rho^k, k = k0, k0 + 1, ...,
    at every radius of ``rho`` in dimension ``n``, and the magnitude of each
    sum's first omitted term, as two arrays.

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
    A sum that is not finite (its terms overflow from n = 300 near rho = 1)
    raises :class:`ConvergenceError` at the first such radius, with no numpy
    warning.
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

    with np.errstate(over="ignore", invalid="ignore"):
        values, omitted, _ = specfun._exact_sums(rho, head, _SERIES_PASS, blocks, None if K is not None else 1e-12)
    return _finite("Gegenbauer series", n, "rho", rho, values), omitted


def phi_series(n: int, rho, K: int | None = None) -> Evaluation:
    """Profile value by the Gegenbauer expansion in powers of rho.

    With s = (n-2) rho / n, the degree-0 and degree-1 terms together are
    the head 2 (1 - s^2)^((n+1)/2) / (n - 1), and the k >= 2 tail has the
    closed-form coefficients

        2 n (n-2) / (k (k-1) (k+n-2) (k+n-1))
            * (1 - s^2)^((n+1)/2) * C_{k-2}^{(n+2)/2}(s) * rho^k,

    so this route runs no quadrature.  With ``K`` unset the sum stops
    adaptively; the reported error estimate is the first omitted term.
    ``K`` is the last degree summed, an integer in [0, 3000].  ``rho`` may
    be one radius or a 1-D sequence of them; a sequence gives an
    :class:`Evaluation` of two arrays, in input order, each entry with the
    bits of its one-radius call (see :func:`_sum_series`).
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
    values, omitted = _sum_series(n, radii, head, 2, lams, s, wpow[None, :], coefficients, K)
    return _batch(single, values, omitted)


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


def phi_second_closed(n: int, rho) -> Evaluation:
    """Second derivative of the profile by the hypergeometric closed form.

    Valid for n >= 3 and rho above :data:`SECOND_CLOSED_RHO_MIN`; below that
    the 1/rho^2 prefactor against a vanishing brace loses too many digits
    and :func:`phi_second_series` is exact instead.  ``rho`` may be one
    radius or a 1-D sequence of them; a sequence gives an
    :class:`Evaluation` of two arrays, in input order, with every
    hypergeometric value from one :func:`specfun.profile_hyp2f1` call, and
    one radius is a batch of one.
    The estimate propagates rounding to first order, u = 2^-53: each factor
    1 - k t errs by at most 3u absolute (t = rho^2 included), varphi = t W / A
    by the sum of those relative errors, and F_n by its route's estimate
    plus varphi / (1 - varphi) times the relative error of its argument (a
    bound on F_n's logarithmic derivative, its coefficients being at most
    1).  These enter the bracket term1 - term2, which cancels by up to 150
    times at n = 200, and the powers of the prefactor.
    """
    n = check_dim(n, 3)
    r, single = _radii(
        rho,
        lambda r: (SECOND_CLOSED_RHO_MIN < r) & (r <= 1.0),
        f"closed form needs rho in ({SECOND_CLOSED_RHO_MIN}, 1]; use phi_second_series below",
    )
    r2 = r * r
    aa, w, b, c, e = _factors(n, r2)
    ph, f = _varphi_hyp2f1(n, r2)
    term1 = b * aa
    cwe = c * w * e
    term2 = cwe * f.value
    prefactor = 2.0 * (n - 2.0) / r2 * _pow_each(w, 0.5 * (n - 3)) * _pow_each(aa, -0.5 * n)
    value = prefactor * (term1 - term2)
    u = 2.0**-53
    ea, ew, eb, ec, ee = (3.0 * u / x for x in (aa, w, b, c, e))
    f_rel = ec + ew + ee + (ew + ea + 3.0 * u) * ph / (1.0 - ph) + 2.0 * u
    bracket = abs(term1) * (eb + ea + 2.0 * u) + abs(term2) * f_rel + abs(cwe) * f.error_estimate
    est = abs(prefactor) * bracket + (0.5 * (n - 3) * ew + 0.5 * n * ea + 6.0 * u) * abs(value)
    return _batch(single, value, est)


def phi_second_series(n: int, rho, K: int | None = None) -> Evaluation:
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
    values, omitted = _sum_series(n, radii, np.zeros(radii.size), 0, lams, s, prefactors, coefficients, K)
    return _batch(single, values, omitted)


def phi_second_fd(n: int, rho) -> Evaluation:
    """Second derivative by a Richardson-extrapolated central difference of
    the one-sided profile route.

    Uses the symmetric second difference at widths h = 1e-3 and h/2
    combined as (4 D(h/2) - D(h)) / 3, with rho + h <= 1.  The profile is
    even in rho, so points reflected below the origin take the value at
    their mirror radius.  ``n`` must lie in [3, 1000], the domain of
    :func:`phi_one_sided`, which takes the five abscissae of every radius in
    one call; the difference quotient amplifies their rounding by 4/h^2,
    which the estimate's floor covers.  ``rho`` may be one radius or a 1-D
    sequence of them; a sequence gives an :class:`Evaluation` of two
    arrays, in input order, and one radius is a batch of one.
    """
    n = check_dim(n, 3)
    step = _FD_STEP
    radii, single = _radii(rho, lambda r: (0.0 <= r) & (r <= 1.0 - step), "need rho + step <= 1")
    half = 0.5 * step
    abscissae = np.abs(np.stack((radii, radii + step, radii - step, radii + half, radii - half)))
    center, up, down, up_half, down_half = phi_one_sided(n, abscissae.ravel()).value.reshape(5, -1)
    d_h = (up - 2.0 * center + down) / (step * step)
    d_h2 = (up_half - 2.0 * center + down_half) / (half * half)
    values = (4.0 * d_h2 - d_h) / 3.0
    noise = 16.0 * 1e-15 / (step * step)
    estimates = np.maximum(np.abs(d_h - d_h2) / 3.0, noise)
    return _batch(single, values, estimates)


def phi_second(n: int, rho, series=None) -> Evaluation:
    """Second derivative of the profile by the closed form where it is well
    conditioned (rho above :data:`SECOND_CLOSED_RHO_MIN`), by the series at
    and below it, in every dimension n >= 3.

    ``rho`` may be one radius in [0, 1] or a 1-D sequence of them; a
    sequence gives an :class:`Evaluation` of two arrays, in input order,
    from one series call for its radii at or below the threshold and one
    closed call for the rest.  A caller that holds the
    :class:`Evaluation` of :func:`phi_second_series` at the same radii
    passes it as ``series``: its entries at and below the threshold, which
    have the bits of the series call they replace, are taken as they are."""
    radii, single = _radii(rho, lambda r: (0.0 <= r) & (r <= 1.0), "rho must lie in [0, 1]")
    closed = radii > SECOND_CLOSED_RHO_MIN
    if series is None:
        values, estimates = np.empty(radii.size), np.empty(radii.size)
        routes = ((phi_second_series, ~closed), (phi_second_closed, closed))
    else:
        values, estimates = (np.array(x, dtype=float).reshape(-1) for x in (series.value, series.error_estimate))
        if values.size != radii.size or estimates.size != radii.size:
            raise ValueError("series must hold one evaluation per radius")
        routes = ((phi_second_closed, closed),)
    for route, where in routes:
        if where.any():
            e = route(n, radii[where])
            values[where], estimates[where] = e.value, e.error_estimate
    return _batch(single, values, estimates)


def _unit_points(t):
    """:func:`_radii` for points t of [0, 1]."""
    return _radii(t, lambda x: (0.0 <= x) & (x <= 1.0), "t must lie in [0, 1]")


def psi(n: int, t) -> float | np.ndarray:
    """Difference whose sign settles the auxiliary inequality.

    Vanishes at t = 0; positive on (0, 1) for n >= 4 and negative for n = 3,
    mirroring the reversal of the inequality in dimension three.  ``t`` may
    be one number or a 1-D sequence of them; a sequence gives a float64
    array in input order, with every hypergeometric value from one
    :func:`specfun.profile_hyp2f1` call, and one number is a batch of one.
    A value that is not finite (from n = 400 on, its powers underflow to
    0/0 near t = 1) raises :class:`ConvergenceError`, with no numpy warning.
    """
    n = check_dim(n, 3)
    ts, single = _unit_points(t)
    ph, f = _varphi_hyp2f1(n, ts)
    return _batch(single, _psi_from(n, ts, ph, f.value))


def _varphi_hyp2f1(n, t):
    """varphi(n, t) at an array of t, and the :class:`Evaluation` of
    2F1(1, n/2; (n+1)/2; varphi(n, t)) by :func:`specfun.profile_hyp2f1`,
    the values that :func:`phi_second_closed`, :func:`psi` and
    :func:`technical_gap` share, from one call."""
    ph = _varphi(n, t)
    return ph, specfun.profile_hyp2f1(n, ph)


def _finite(name, n, var, points, values):
    """``values`` (an array over the ``points`` of the variable ``var``) if
    every entry is finite, else :class:`ConvergenceError` naming the first
    point that is not."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(bad.argmax())
        message = f"{name} at n = {n} is not finite at {var}={points[k]:.6f}: its terms under- or overflow binary64"
        raise ConvergenceError(message, float(values[k]), math.inf)
    return values


def _psi_from(n, t, ph, f_val):
    """:func:`psi` at an array of t, from its varphi and 2F1 values."""
    a, w, b, c, _ = _factors(n, t)
    first = _pow_each(ph, 0.5 * (n - 1)) * np.sqrt(1.0 - ph) * f_val
    num = _pow_each(t, 0.5 * (n - 1)) * _pow_each(w, 0.5 * (n - 3)) * b
    den = _pow_each(a, 0.5 * (n - 2)) * c
    with np.errstate(divide="ignore", invalid="ignore"):
        return _finite("psi", n, "t", t, first - num / den)


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


def _gap_from(n, t, f_val):
    """:func:`technical_gap` at an array of t, from its 2F1 values."""
    a, w, b, c, e = _factors(n, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _finite("technical gap", n, "t", t, f_val - (a * b) / (e * w * c))


def technical_gap(n: int, t) -> float | np.ndarray:
    """Hypergeometric side minus rational side of the auxiliary inequality.

    Both sides equal 1 at t = 0; the gap is positive on (0, 1] for n >= 4
    and negative for n = 3.  ``t`` may be one number or a 1-D sequence of
    them, as for :func:`psi`, and a value that is not finite raises
    :class:`ConvergenceError` as there.
    """
    n = check_dim(n, 3)
    ts, single = _unit_points(t)
    return _batch(single, _gap_from(n, ts, _varphi_hyp2f1(n, ts)[1].value))


def _label(var, points):
    """Labels for the entries of a sweep over ``points``, by index."""
    return lambda i: f"{var}={points[i]:.6f}"


def verify_monotone(n: int) -> VerificationReport:
    """Monotonicity sweep of the profile on a uniform grid of [0, 1].

    Asserts strict decrease with maximum 2/(n-1) at the origin for n >= 4,
    strict increase with the maximum at rho = 1 for n = 3, and a vanishing
    one-sided derivative at the origin.  Strictness carries a 1e-12 margin
    to stay clear of float noise.  The grid values, and with its first the
    slope at the origin from the value at 1e-6, come from one
    :func:`phi_one_sided` call, whose estimates stay below 1e-13 on this
    grid for n <= 200; n runs from 3 to 1000 (``ValueError`` above).
    """
    n = check_dim(n, 3)
    grid = np.linspace(0.0, 1.0, _SWEEP_POINTS)
    delta = 1e-6
    *values, near = phi_one_sided(n, np.append(grid, delta)).value.tolist()

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
    slope = abs(near - values[0]) / delta
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
    second = phi_second(n, np.append(grid, agree_grid)).value
    values = second[: grid.size]
    routes = np.stack((phi_second_series(n, agree_grid).value, phi_second_fd(n, agree_grid).value, second[grid.size :]))

    checks = [
        extreme_check(
            "second_derivative_negative",
            values,
            _label("rho", grid),
            lambda v: v <= -1e-12,
            expected=(n == 3),
        )
    ]

    spreads = np.ptp(routes, axis=0) / np.max(np.abs(routes), axis=0)
    checks.append(worst_error_check("route_agreement", zip(spreads.tolist(), (f"rho={r}" for r in agree_grid)), 1e-6))

    return VerificationReport("concavity", n, tuple(checks))


def verify_technical(n: int) -> VerificationReport:
    """Sweep of the auxiliary inequality on a uniform grid of [0, 1].

    Both sides coincide at t = 0, so strictness is asserted on the positive
    grid points and equality to 1e-12 at the origin.  For n >= 4 the gap,
    the difference :func:`psi` and the quadratic factor must all be
    positive; for n = 3 the gap has the opposite sign.  A gap or psi value
    that is not finite raises :class:`ConvergenceError` rather than enter a
    check, since NaN would fail a sign check the paper proves.
    """
    n = check_dim(n, 3)
    grid = np.linspace(0.0, 1.0, _SWEEP_POINTS)
    # one hypergeometric value per grid point serves both the gap and psi,
    # all of them from one batched call
    phs, f = _varphi_hyp2f1(n, grid)
    f_vals = f.value
    gaps = _gap_from(n, grid, f_vals)

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
