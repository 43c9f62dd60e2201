"""Sharp constants and bound functions for gradients of bounded harmonic
functions on the unit ball.

For |u| < 1 harmonic on the ball the gradient satisfies

    |grad u(x)| <= 2 m_{n-1} / m_n * 1 / (1 - |x|^2)

in every dimension except three, where the best constant is the larger
8 / (3 sqrt 3) and the bound is strict everywhere.  The pointwise-sharp
envelope is carried by :func:`capital_c`, which depends on |x| only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Evaluation, check_dim
from .phi import phi_quad

__all__ = [
    "ball_volume",
    "schwarz_pick_constant",
    "khavinson_sharp_constant_3d",
    "khavinson_radial_3d",
    "BoundQuery",
    "capital_c",
    "gradient_bound",
    "pw_bound",
    "halfspace_constant",
    "BoundRow",
    "bound_table",
]

_SQRT3 = math.sqrt(3.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in dimension n (1 for n = 0)."""
    check_dim(n, 0)
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0)


def schwarz_pick_constant(n: int) -> float:
    """Constant 2 m_{n-1} / m_n: the sharp gradient bound at the origin."""
    check_dim(n, 2)
    return 2.0 * ball_volume(n - 1) / ball_volume(n)


def khavinson_sharp_constant_3d() -> float:
    """Best constant 8 / (3 sqrt 3) for dimension three; never attained."""
    return 8.0 / (3.0 * _SQRT3)


def khavinson_radial_3d(t: float) -> float:
    """Largest radial derivative at radius t over |u| < 1 harmonic in 3d.

    Equals 3/2 at the origin and, after multiplying by 1 - t^2, increases
    to 8 / (3 sqrt 3) as t -> 1.  Coincides with :func:`capital_c` at n = 3
    (an algebraic identity via rationalizing the cube-root difference).
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    t2 = t * t
    return (9.0 - t2) ** 2 / (
        3.0 * _SQRT3 * (1.0 - t2) * ((t2 + 3.0) ** 1.5 + 3.0 * _SQRT3 * (1.0 - t2))
    )


@dataclass(frozen=True)
class BoundQuery:
    """A dimension and a radius |x| < 1; bounds depend on x through |x| only."""

    n: int
    rho: float

    def __post_init__(self):
        check_dim(self.n, 2)
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")


def capital_c(query: BoundQuery) -> Evaluation:
    """Pointwise-sharp gradient bound (n-1) m_{n-1}/m_n * Phi(rho)/(1-rho^2),
    with Phi from :func:`ballgrad.phi.phi_quad` under ``quadrature.DEFAULT_SPEC``,
    whose estimate is scaled by the same factor.

    At rho = 0 this equals :func:`schwarz_pick_constant`.  Defined for every
    n >= 2; at n = 2 the profile is constant and the bound reduces to the
    disk constant 4/pi over 1 - rho^2.
    """
    n, rho = query.n, query.rho
    phi = phi_quad(n, rho)
    scale = (n - 1.0) * ball_volume(n - 1) / ball_volume(n)
    return Evaluation(scale * phi.value / (1.0 - rho * rho), scale * phi.error_estimate / (1.0 - rho * rho))


def gradient_bound(n: int, rho: float) -> float:
    """Uniform sharp gradient bound at radius rho: constant over 1 - rho^2.

    The constant is 2 m_{n-1}/m_n except in dimension three, which takes
    8 / (3 sqrt 3); there the bound is sharp but strict at every point.
    """
    check_dim(n, 2)
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    const = khavinson_sharp_constant_3d() if n == 3 else schwarz_pick_constant(n)
    return const / (1.0 - rho * rho)


def pw_bound(n: int, dist: float, osc: float) -> float:
    """Oscillation gradient estimate m_{n-1}/m_n * osc / dist."""
    check_dim(n, 2)
    if not dist > 0.0:
        raise ValueError("distance to the boundary must be positive")
    if not osc >= 0.0:
        raise ValueError("oscillation must be nonnegative")
    return ball_volume(n - 1) / ball_volume(n) * osc / dist


def halfspace_constant(n: int) -> float:
    """Sharp constant of the half-space gradient estimate,
    4 (n-1)^((n+1)/2) m_{n-1} / (n^((n+2)/2) m_n)."""
    check_dim(n, 2)
    return (
        4.0
        * (n - 1.0) ** (0.5 * (n + 1))
        * ball_volume(n - 1)
        / (n ** (0.5 * (n + 2)) * ball_volume(n))
    )


@dataclass(frozen=True)
class BoundRow:
    rho: float
    capital_c: float
    schwarz_pick_over_1mr2: float
    pw_over_1mr: float
    khavinson_radial_if_n3: float | None


def bound_table(n: int, rho_grid) -> tuple[BoundRow, ...]:
    """One row per radius with every constant side by side.

    The oscillation column uses the ball itself as the domain, so the
    distance to the boundary is 1 - rho and the oscillation budget is 2.
    """
    rows = []
    sp = schwarz_pick_constant(n)
    for rho in rho_grid:
        rho = float(rho)
        rows.append(
            BoundRow(
                rho=rho,
                capital_c=capital_c(BoundQuery(n, rho)).value,
                schwarz_pick_over_1mr2=sp / (1.0 - rho * rho),
                pw_over_1mr=sp / (1.0 - rho),
                khavinson_radial_if_n3=khavinson_radial_3d(rho) if n == 3 else None,
            )
        )
    return tuple(rows)
