"""Sharp gradient bounds for bounded harmonic functions on the unit ball.

The package computes the classical sharp constants (origin, uniform,
half-space and oscillation forms), the pointwise-sharp radial envelope and
its defining profile with first and second derivatives, each by at least
two independent numerical routes, together with Poisson-integral probes
that realize the bounds on explicit boundary data.
"""

from .bounds import (
    BoundQuery,
    BoundRow,
    ball_volume,
    bound_table,
    capital_c,
    gradient_bound,
    halfspace_constant,
    khavinson_radial_3d,
    khavinson_sharp_constant_3d,
    pw_bound,
    schwarz_pick_constant,
)
from .errors import ConvergenceError, Evaluation
from .harmonic import (
    AxisPoint,
    ZonalBoundaryData,
    extremal_gradient_at_origin,
    extremal_sign_datum,
    hemisphere_datum,
    poisson_kernel,
    probe_batch,
    probe_conjecture,
    probe_schwarz_pick,
    radial_derivative,
    radial_derivative_kernel,
    radial_derivative_sign_change,
    random_zonal_data,
    sharp_radial_sup,
    verify_theorem_b,
    zonal_poisson_value,
)
from .phi import (
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
    varphi,
    verify_concavity,
    verify_monotone,
    verify_technical,
)
from .quadrature import QuadratureResult, QuadratureSpec, integrate, zonal_sphere_integral
from .report import CheckResult, VerificationReport
from .specfun import (
    HypergeometricInput,
    abs_kernel_coefficient,
    gegenbauer_weighted_derivative,
    hyp2f1,
    verify_identities,
)

__version__ = "0.1.0"
