"""Zonal Poisson integrals on the unit ball and the empirical probes of the
sharp gradient bounds.

All boundary data here are axially symmetric: the datum is a piecewise
constant function of the height t = <zeta, axis>, so every sphere integral
reduces to one dimension with weight (1 - t^2)^((n-3)/2) and evaluation
points can stay on the axis without losing generality.  The kernel carries
probability normalization (the constant datum integrates to exactly 1), so
the harmonic extension of data bounded by 1 is itself bounded by 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds
from .errors import Evaluation, check_count, check_dim
from .quadrature import band_node_table, row_sums, zonal_band_integrals, zonal_sphere_integral
from .report import CheckResult, VerificationReport, extreme_check, worst_error_check

__all__ = [
    "ZonalBoundaryData",
    "hemisphere_datum",
    "AxisPoint",
    "poisson_kernel",
    "zonal_poisson_value",
    "radial_derivative_kernel",
    "radial_derivative_sign_change",
    "radial_derivative",
    "extremal_gradient_at_origin",
    "extremal_sign_datum",
    "sharp_radial_sup",
    "random_zonal_data",
    "PROBE_RADII",
    "probe_batch",
    "probe_schwarz_pick",
    "probe_conjecture",
    "verify_theorem_b",
]


@dataclass(frozen=True)
class ZonalBoundaryData:
    """Piecewise-constant axially symmetric boundary datum with sup <= 1.

    ``values[j]`` applies on the height band between ``breakpoints[j-1]``
    and ``breakpoints[j]`` (left edge -1, right edge +1).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(map(float, self.breakpoints))
        vals = tuple(map(float, self.values))
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bps) + 1:
            raise ValueError("need exactly one value per band")
        # one pass over -1, the breakpoints and +1 holds both conditions on
        # the breakpoints; only a refused datum is searched for the one it breaks
        edges = (-1.0, *bps, 1.0)
        if not all(map(float.__lt__, edges, edges[1:])):
            if any(not -1.0 < b < 1.0 for b in bps):
                raise ValueError("breakpoints must lie strictly inside (-1, 1)")
            raise ValueError("breakpoints must be strictly increasing")
        # a NaN value fails both comparisons, so it is refused
        if not all(-1.0 <= v <= 1.0 for v in vals):
            raise ValueError("datum values must satisfy |v| <= 1")
        object.__setattr__(self, "_bp_arr", np.array(bps, dtype=float))
        object.__setattr__(self, "_val_arr", np.array(vals, dtype=float))

    def __call__(self, t):
        idx = np.searchsorted(self._bp_arr, t, side="right")
        return self._val_arr[idx]


def hemisphere_datum() -> ZonalBoundaryData:
    """-1 on the lower hemisphere, +1 on the upper: the extremal datum at
    the origin."""
    return ZonalBoundaryData((0.0,), (-1.0, 1.0))


@dataclass(frozen=True)
class AxisPoint:
    """Point rho * axis with rho in [0, 1); zonal symmetry makes this lossless."""

    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")


def poisson_kernel(n: int, rho: float, t):
    """Kernel (1 - rho^2) / (1 - 2 rho t + rho^2)^(n/2) at axis radius rho
    against boundary height t, normalized to unit zonal integral."""
    t = np.asarray(t, dtype=float)
    return (1.0 - rho * rho) * (1.0 - 2.0 * rho * t + rho * rho) ** (-0.5 * n)


def radial_derivative_kernel(n: int, rho: float, t):
    """Radial derivative of the kernel in rho; linear numerator over the
    distance factor to the power (n+2)/2."""
    t = np.asarray(t, dtype=float)
    num = (n - (n - 4.0) * rho * rho) * t - rho * (n + 2.0 - (n - 2.0) * rho * rho)
    return num * (1.0 - 2.0 * rho * t + rho * rho) ** (-0.5 * (n + 2))


def radial_derivative_sign_change(n: int, rho: float) -> float:
    """Unique zero of the kernel-derivative numerator; negative below,
    positive above.  Lies in [0, 1) for rho in [0, 1); any other rho,
    NaN included, is refused as by :class:`AxisPoint`."""
    n = check_dim(n, 2)
    rho = AxisPoint(rho).rho
    return rho * (n + 2.0 - (n - 2.0) * rho * rho) / (n - (n - 4.0) * rho * rho)


def _band_matrix(n, data):
    """Band matrix of ``data`` and the node table of its cut set.

    The breakpoints of all data form one cut set; every datum is constant
    on each band between cuts, so row i of the matrix holds datum i's band
    values, read at the band midpoints.  The node table
    (:func:`ballgrad.quadrature.band_node_table`, which checks n) is the
    band engine's whole geometry in dimension n, and its quadrature spec,
    shared by every kernel and radius.
    """
    cuts = np.array(sorted(set().union(*(datum.breakpoints for datum in data))))
    edges = np.concatenate(([-1.0], cuts, [1.0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.array([datum(mids) for datum in data]), band_node_table(n, cuts)


def _band_extension(kernel, n, rho, band_values, table):
    """Integrals of ``kernel(n, rho, t)`` against every row of a band
    matrix: the rows times the kernel's band integrals, computed once for
    the whole batch by :func:`ballgrad.quadrature.zonal_band_integrals`
    on the cut set's node ``table``, summed row by row
    (:func:`ballgrad.quadrature.row_sums`).  Returns an :class:`Evaluation`:
    the values as an array and the engine's error estimate, which bounds
    every datum with sup <= 1."""
    integrals = zonal_band_integrals(lambda t: kernel(n, rho, t), table)
    return Evaluation(row_sums(band_values, integrals.value), integrals.error_estimate)


def _zonal_extension(kernel, n, datum, rho):
    """Integral of ``kernel(n, rho, t)`` against one datum: its band matrix
    and node table (:func:`_band_matrix`), then its integral
    (:func:`_band_extension`), as an :class:`Evaluation` of one float."""
    extension = _band_extension(kernel, n, rho, *_band_matrix(n, [datum]))
    return Evaluation(float(extension.value[0]), extension.error_estimate)


def zonal_poisson_value(n: int, data: ZonalBoundaryData, p: AxisPoint) -> Evaluation:
    """Harmonic extension of ``data`` evaluated at the axis point, with the
    band engine's estimate; the datum jumps are the band cuts."""
    return _zonal_extension(poisson_kernel, n, data, p.rho)


def radial_derivative(n: int, data: ZonalBoundaryData, p: AxisPoint) -> Evaluation:
    """Radial derivative of the harmonic extension at the axis point, with
    the band engine's estimate.

    For zonal data the gradient on the axis is purely radial, so the
    absolute value of this quantity is the full gradient norm there.
    """
    return _zonal_extension(radial_derivative_kernel, n, data, p.rho)


def extremal_gradient_at_origin(n: int) -> Evaluation:
    """Gradient norm at the origin of the hemisphere datum's extension.

    The kernel derivative at the origin is n t, so this is n times the
    zonal integral of |t|; it must reproduce
    :func:`ballgrad.bounds.schwarz_pick_constant`.
    """
    return radial_derivative(n, hemisphere_datum(), AxisPoint(0.0))


def extremal_sign_datum(n: int, rho: float) -> ZonalBoundaryData:
    """Sign of the kernel derivative: the datum maximizing the radial
    derivative at radius rho."""
    ts = radial_derivative_sign_change(n, rho)
    if ts == 0.0:
        return hemisphere_datum()
    return ZonalBoundaryData((ts,), (-1.0, 1.0))


def sharp_radial_sup(n: int, p: AxisPoint) -> Evaluation:
    """Largest radial derivative at the axis point over all data with
    sup |g| <= 1: the zonal integral of the absolute kernel derivative,
    attained by :func:`extremal_sign_datum`.

    Agrees with :func:`ballgrad.bounds.capital_c`, realizing the sharp
    gradient bound through the radial direction alone.
    """
    return radial_derivative(n, extremal_sign_datum(n, p.rho), p)


def _random_zonal_from_rng(rng, pieces: int) -> ZonalBoundaryData:
    """A datum of ``pieces`` bands drawn from ``rng``: one call for the
    values, then, for more than one band, one for the breakpoints, drawn
    again while two of them are equal.  Built from Python floats, which
    have the bits of the generator's."""
    values = rng.uniform(-1.0, 1.0, size=pieces).tolist()
    if pieces == 1:
        return ZonalBoundaryData((), values)
    while True:
        bps = sorted(rng.uniform(-0.999, 0.999, size=pieces - 1).tolist())
        if all(map(float.__lt__, bps, bps[1:])):
            return ZonalBoundaryData(bps, values)


def _seeded_rng(seed):
    return np.random.default_rng(check_count(seed, 0, "seed must be a non-negative integer"))


def random_zonal_data(seed: int, pieces: int) -> ZonalBoundaryData:
    """Deterministic piecewise-constant datum; identical seeds give
    identical data.  ``seed`` and ``pieces`` are whole numbers, at least 0
    and 1 (:func:`ballgrad.errors.check_count`)."""
    pieces = check_count(pieces, 1, "need at least one piece")
    return _random_zonal_from_rng(_seeded_rng(seed), pieces)


# The radii every probe sweeps: 11 from the origin to 0.9.
PROBE_RADII = tuple(float(rho) for rho in np.linspace(0.0, 0.9, 11))


class ProbeBatch(NamedTuple):
    """The band-engine work of a probe command (:func:`probe_batch`): two
    :class:`Evaluation`, ``slopes`` and ``values`` (None at n = 3), whose
    ``value[j, i]`` is row i's radial derivative or Poisson value at
    ``PROBE_RADII[j]`` and ``error_estimate[j]`` the engine's estimate there;
    the rows are ``data``, then every radius's extremal sign datum."""

    n: int
    data: tuple[ZonalBoundaryData, ...]
    slopes: Evaluation
    values: Evaluation | None


def probe_batch(n: int, samples: int, seed: int) -> ProbeBatch:
    """The batch both probes of a command reduce: the hemisphere datum and
    ``samples - 1`` seeded random data, on one band matrix and node table
    (:func:`_band_matrix`), with one engine call per kernel and radius under
    the quadrature default in force at the call.  ``samples`` and ``seed``
    are whole numbers, at least 1 and 0 (:func:`ballgrad.errors.check_count`)."""
    n = check_dim(n, 2)
    samples = check_count(samples, 1, "need at least one sample")
    rng = _seeded_rng(seed)
    data = (hemisphere_datum(), *(_random_zonal_from_rng(rng, int(rng.integers(1, 9))) for _ in range(samples - 1)))
    band_values, table = _band_matrix(n, [*data, *(extremal_sign_datum(n, rho) for rho in PROBE_RADII)])

    def sweep(kernel):
        parts = [_band_extension(kernel, n, rho, band_values, table) for rho in PROBE_RADII]
        return Evaluation(np.array([e.value for e in parts]), np.array([e.error_estimate for e in parts]))

    return ProbeBatch(n, data, sweep(radial_derivative_kernel), None if n == 3 else sweep(poisson_kernel))


def _at(j, i):
    """Label of entry (j, i) of a (radius, sample) array."""
    return f"sample={i},rho={PROBE_RADII[j]:.3f}"


def probe_schwarz_pick(batch: ProbeBatch) -> VerificationReport:
    """Monte-Carlo sweep of the gradient bound over random zonal data.

    For every sampled datum and radius the scaled gradient
    |du/drho| (1 - rho^2) must stay below the sharp constant (with 1e-9
    slack for quadrature); the per-radius extremal sign datum must attain
    the pointwise bound of :func:`ballgrad.bounds.capital_c`.

    At radius j the batch's row after the samples' j-th is the attained
    value.  Each check reports its worst entry by
    :func:`ballgrad.report.extreme_check`: the first in radius-major order.
    """
    n, data, slopes, radii = batch.n, batch.data, batch.slopes.value, PROBE_RADII
    scale = 1.0 - np.square(radii)
    const = np.array([bounds.gradient_bound(n, rho) for rho in radii]) * scale
    lhs = np.abs(slopes[:, : len(data)]) * scale[:, None]
    targets = np.array([bounds.capital_c(bounds.BoundQuery(n, rho)).value for rho in radii])
    gaps = np.abs(np.abs(np.diagonal(slopes[:, len(data) :])) - targets) * scale
    gap_errors = zip(gaps.tolist(), (f"rho={rho:.3f}" for rho in radii))
    checks = (
        extreme_check("bound_dominates", lhs - const[:, None], _at, lambda margin: margin <= 1e-9),
        extreme_check("sup_ratio", lhs / const[:, None], _at, lambda ratio: True),
        worst_error_check("extremal_attains_pointwise_bound", gap_errors, 1e-6),
    )
    return VerificationReport("schwarz_pick_probe", n, checks)


def probe_conjecture(batch: ProbeBatch) -> VerificationReport:
    """Search for data violating the self-improving form of the bound, in
    which 1 - u(x)^2 replaces the constant budget 1.

    Purely observational for n >= 4 (the statement is open there, so a
    violation is recorded but marked expected rather than failing the
    report); for n = 2 the refined disk inequality is a theorem and a
    violation fails the report.  Dimension three is excluded.

    Reports the largest ratio by :func:`ballgrad.report.extreme_check`:
    the first in radius-major order.
    """
    n, m = batch.n, len(batch.data)
    if n == 3:
        raise ValueError("the probe applies to n = 2 or n >= 4")
    u = batch.values.value[:, :m]
    scale = (1.0 - np.square(PROBE_RADII))[:, None]
    ratios = np.abs(batch.slopes.value[:, :m]) * scale / ((1.0 - u * u) * bounds.schwarz_pick_constant(n))
    worst = extreme_check("max_ratio", ratios, _at, lambda ratio: True)
    ratio = worst.worst_margin
    checks = (
        worst,
        CheckResult("no_counterexample", ratio <= 1.0 + 1e-9, ratio - 1.0, worst.at, expected=(n >= 4)),
    )
    return VerificationReport("conjecture_probe", n, checks)


def verify_theorem_b(n: int) -> VerificationReport:
    """Cross-check that the kernel-derivative route reproduces the
    pointwise-sharp bound, plus kernel normalization and the origin case.

    The supremum runs on the band engine and the bound on the adaptive
    profile quadrature, so the comparison checks one route against the
    other; kernel normalization also runs on the adaptive route.
    """
    n = check_dim(n, 2)
    checks = []

    errors = []
    for rho in (0.0, 0.5, 0.9):
        val = zonal_sphere_integral(lambda t: poisson_kernel(n, rho, t), n).value
        errors.append((abs(val - 1.0), f"rho={rho}"))
    checks.append(worst_error_check("kernel_normalization", errors, 1e-10))

    radii = [float(rho) for rho in np.linspace(0.0, 0.9, 10)]
    sups = [sharp_radial_sup(n, AxisPoint(rho)).value for rho in radii]
    errors = [
        (abs(sup - bounds.capital_c(bounds.BoundQuery(n, rho)).value), f"rho={rho:.1f}")
        for rho, sup in zip(radii, sups)
    ]
    checks.append(worst_error_check("radial_sup_matches_pointwise_bound", errors, 1e-6))

    if n == 3:
        errors = [(abs(sup - bounds.khavinson_radial_3d(rho)), f"rho={rho:.1f}") for rho, sup in zip(radii, sups)]
        checks.append(worst_error_check("matches_khavinson_radial", errors, 1e-6))

    err = abs(extremal_gradient_at_origin(n).value - bounds.schwarz_pick_constant(n))
    checks.append(CheckResult("extremal_gradient_at_origin", err <= 1e-8, err, "rho=0"))

    return VerificationReport("theoremB", n, tuple(checks))
