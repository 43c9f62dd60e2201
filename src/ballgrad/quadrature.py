"""Adaptive one-dimensional quadrature for the integrands of this package.

Two features are tuned to the integrals that actually occur here:

* absolute-value kinks at analytically known interior abscissae, which the
  caller declares so each subinterval stays smooth, and
* algebraic endpoint weights ``(1 - t^2)^alpha`` on ``[-1, 1]``, which are
  regularized by the substitution ``t = cos(theta)`` on any subinterval that
  touches an endpoint.  The substitution turns the weight into the smooth
  factor ``sin(theta)^(2*alpha + 1)`` and keeps every evaluation strictly
  inside the open interval, so one mechanism covers every exponent, integer
  or not.

A second, batched route serves integrands that are multiplied by
piecewise-constant zonal data: :func:`zonal_band_integrals` integrates one
kernel over every height band between given cuts in a few vectorised
passes, so the integral of any datum constant on those bands is a row sum
(:func:`row_sums`).  Its only input besides the kernel is the cut set's
node table (:func:`band_node_table`): the dimension, the Gauss-node
geometry of every band and the spec, none of which depends on the kernel,
so a caller that integrates several kernels or radii over one cut set
builds it once.  :func:`integrate` stays the independent adaptive route.

Integrands must accept numpy arrays and evaluate elementwise.  Everything in
this module is pure and re-entrant.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, Evaluation, check_dim, is_whole

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "DEFAULT_SPEC",
    "integrate",
    "zonal_sphere_integral",
    "zonal_band_integrals",
    "band_node_table",
    "group_integrals",
    "kink_integrals",
    "row_sums",
    "zonal_weight_normalization",
]

_MIN_TOL = 1e-15
# Per-panel roundoff allowance, relative to the panel's two half values
# (QUADPACK scales its floor by the integral of |f| instead).  Splitting
# cannot reduce it, so it is added to the reported estimate, and an
# integral whose summed gap is already below the summed floor stops.
_EST_FLOOR = 2.0 ** -48

_NON_FINITE = "quadrature gave a non-finite value or error estimate"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, budgets and declared kink abscissae for one integral.

    ``kinks`` lists interior points, strictly increasing and inside (-1, 1),
    where the integrand is continuous but not smooth; the integration range
    is split there before any adaptive work starts.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_subdivisions: int = 2000
    base_nodes: int = 15
    kinks: Sequence[float] = ()

    def __post_init__(self):
        object.__setattr__(self, "kinks", tuple(float(k) for k in self.kinks))
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < _MIN_TOL or self.rel_tol < _MIN_TOL:
            raise ValueError("tolerances below 1e-15 are not attainable in binary64")
        # integers only: a NaN budget never compares as spent
        if not is_whole(self.max_subdivisions, 1):
            raise ValueError("max_subdivisions must be a positive integer")
        if not is_whole(self.base_nodes, 2):
            raise ValueError("base_nodes must be an integer of at least 2")
        ks = self.kinks
        if any(not -1.0 < k < 1.0 for k in ks):
            raise ValueError("kinks must lie strictly inside (-1, 1)")
        if any(hi <= lo for lo, hi in zip(ks, ks[1:])):
            raise ValueError("kinks must be strictly increasing")


@dataclass(frozen=True)
class QuadratureResult(Evaluation):
    """An :class:`Evaluation` of :func:`integrate`, with the bisections it made."""

    subdivisions_used: int


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=None)
def _gauss_rule(m: int):
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return nodes, weights


def _cos_transformed(f, weight_exponent):
    """Integrand after t = cos(theta), including Jacobian and weight.

    The weight (1 - t^2)^alpha and the Jacobian sin(theta) combine into
    sin(theta)^(2 alpha + 1), evaluated directly from theta so no precision
    is lost where cos(theta) rounds to +-1.  A power of 0 (n = 2) skips
    the sine; a power of 1 is exact.
    """
    power = 2.0 * weight_exponent + 1.0

    def g(theta):
        value = f(np.cos(theta))
        return value * np.sin(theta) ** power if power else value

    return g


def _weighted(f, weight_exponent):
    if weight_exponent == 0.0:
        return f

    def g(t):
        return f(t) * ((1.0 - t) * (1.0 + t)) ** weight_exponent

    return g


def row_sums(rows, weights):
    """``rows @ weights`` for a 2-D ``rows``, with each row summed by one loop
    over its own C-ordered copy: a row's sum has the bits of a one-row call
    wherever it sits and whatever the layout, which a BLAS product lacks."""
    return np.einsum("ij,j->i", np.ascontiguousarray(rows), weights)


def _panel_theta(lo, hi, nodes):
    """Gauss abscissae of the theta panels from ``lo`` to ``hi``, with one
    more axis, of nodes, than ``lo`` and ``hi``."""
    return (0.5 * (lo + hi))[..., None] + (0.5 * (hi - lo))[..., None] * nodes


def _panel(g, lo, hi, nodes, weights):
    half = 0.5 * (hi - lo)
    t = 0.5 * (lo + hi) + half * nodes
    return half * float(np.dot(weights, g(t)))


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    weight_exponent: float = 0.0,
) -> QuadratureResult:
    """Integrate ``f(t) * (1 - t^2)^weight_exponent`` over ``[a, b]``.

    The interval is split at every declared kink; end pieces touching -1 or
    +1 are evaluated in the cos-substituted variable, where the weight turns
    into exact powers of sin(theta).  Each piece is then bisected
    worst-error-first, with the panel error estimated as the gap between the
    whole-panel Gauss value and the sum over its two halves (the returned
    value always uses the halves).  It stops once the summed gap is within
    the absolute or relative tolerance, or within the summed roundoff floor
    that no further split can lower.

    Raises :class:`ConvergenceError`, carrying the best estimate, if the
    subdivision budget runs out first, or at once on a non-finite half-panel sum.
    """
    if spec is None:
        spec = DEFAULT_SPEC
    if not a < b:
        raise ValueError("integration interval must satisfy a < b")
    if weight_exponent != 0.0 and not (-1.0 <= a and b <= 1.0):
        raise ValueError("the endpoint weight is defined on [-1, 1] only")
    for k in spec.kinks:
        if not a < k < b:
            raise ValueError(f"kink {k} is not interior to [{a}, {b}]")
    nodes, weights = _gauss_rule(spec.base_nodes)

    pieces = []
    cuts = [a, *spec.kinks, b]
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == -1.0:
            pieces.append((_cos_transformed(f, weight_exponent), math.acos(hi), math.pi))
        elif hi == 1.0:
            pieces.append((_cos_transformed(f, weight_exponent), 0.0, math.acos(lo)))
        else:
            pieces.append((_weighted(f, weight_exponent), lo, hi))

    tie = 0

    def make_entry(g, lo, hi, q_whole):
        nonlocal tie
        mid = 0.5 * (lo + hi)
        q_left = _panel(g, lo, mid, nodes, weights)
        q_right = _panel(g, mid, hi, nodes, weights)
        refined = q_left + q_right
        if not math.isfinite(refined):
            raise ConvergenceError(_NON_FINITE, value=refined, error_estimate=math.inf)
        gap = abs(q_whole - refined)
        floor = _EST_FLOOR * (abs(q_left) + abs(q_right))
        tie += 1
        return [-gap, tie, lo, hi, q_left, q_right, refined, gap, floor, g]

    heap = [make_entry(g, lo, hi, _panel(g, lo, hi, nodes, weights)) for g, lo, hi in pieces]
    heapq.heapify(heap)

    splits = 0
    while True:
        total = math.fsum(e[6] for e in heap)
        gap_total = math.fsum(e[7] for e in heap)
        floor_total = math.fsum(e[8] for e in heap)
        estimate = gap_total + floor_total
        if gap_total <= max(spec.abs_tol, spec.rel_tol * abs(total), floor_total):
            return QuadratureResult(total, estimate, splits)
        if splits >= spec.max_subdivisions:
            raise ConvergenceError(
                f"quadrature did not meet its tolerance within {spec.max_subdivisions} subdivisions",
                value=total,
                error_estimate=estimate,
            )
        _, _, lo, hi, q_left, q_right, _, _, _, g = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, make_entry(g, lo, mid, q_left))
        heapq.heappush(heap, make_entry(g, mid, hi, q_right))
        splits += 1


def zonal_weight_normalization(n: int) -> float:
    """Constant c_n with c_n * integral of (1-t^2)^((n-3)/2) over [-1,1] = 1."""
    n = check_dim(n, 2)
    return math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n - 1))) / math.sqrt(math.pi)


def zonal_sphere_integral(g: Callable, n: int, spec: QuadratureSpec | None = None) -> Evaluation:
    """Normalized integral of an axially symmetric function over the sphere.

    Computes ``c_n * integral of g(t) (1-t^2)^((n-3)/2) dt`` over [-1, 1],
    normalized so that ``g == 1`` integrates to exactly 1, with c_n times
    the estimate of :func:`integrate`.  For n = 2 the weight is singular at
    the endpoints; the cosine substitution inside :func:`integrate` absorbs it.
    """
    c = zonal_weight_normalization(n)
    res = integrate(g, -1.0, 1.0, spec, weight_exponent=0.5 * (n - 3))
    return Evaluation(c * res.value, c * res.error_estimate)


def group_integrals(
    g: Callable, lo, hi, piece_group, spec: QuadratureSpec | None = None, scale: float = 1.0, first=None
):
    """Batch of independent integrals ("groups") in theta, bisected together.

    Piece i is the theta interval from ``lo[i]`` to ``hi[i]`` and belongs to
    group ``piece_group[i]`` (group ids run from 0 without gaps); a group's
    integral is the sum of its pieces.  ``g(theta, group)`` evaluates the
    integrand on a (panels, nodes) array of theta, where ``group`` holds the
    group id of each panel, and every panel value is multiplied by
    ``scale`` before any tolerance applies.  Returns ``(values,
    estimates)``: the integral over each piece and one error estimate per
    group.

    Each round evaluates the halves of every new panel in one call of
    ``g`` per half and weighs all of them by one row sum.  ``first``, if
    given, holds the integrand's values at the first round's nodes: three
    (pieces, nodes) arrays for every piece's whole panel, its left half and
    its right half, in place of the three calls of ``g`` that would compute
    them; later rounds call ``g``.  A
    panel's error is the gap between its whole-panel value and the sum of
    its halves, as in :func:`integrate`.  Each group stops on its
    own once its summed gap is within the largest of ``spec.abs_tol``,
    ``spec.rel_tol`` times the sum of its pieces' ``|values|`` and its summed
    roundoff floor; its estimate is its summed gap plus that floor, and it
    drops out of later rounds.  In a group still running, every panel
    whose gap exceeds its even share of the group's tolerance is bisected,
    or its worst panel if none does.  A batch whose groups all stop on the
    first round returns after that one reduction, and builds no bisection
    state.  ``spec.kinks`` is not read.

    Raises :class:`ConvergenceError`, carrying the piece values so far and
    the largest group estimate, once the splits of any group would exceed
    ``spec.max_subdivisions``, or at once on a non-finite half-panel sum.
    """
    if spec is None:
        spec = DEFAULT_SPEC
    nodes, weights = _gauss_rule(spec.base_nodes)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    group = piece_group = np.asarray(piece_group)

    def panels(spans, group, values=None):
        # the panels of each (lo, hi) span, one array per span: one call of
        # g per span (unless their values at the nodes are given), then one
        # row sum for all of them
        if values is None:
            values = [g(_panel_theta(a, b, nodes), group) for a, b in spans]
        half = 0.5 * np.concatenate([b - a for a, b in spans])
        return (scale * half * row_sums(np.reshape(values, (-1, nodes.size)), weights)).reshape(len(spans), -1)

    mid = 0.5 * (lo + hi)
    whole, left, right = panels(((lo, hi), (lo, mid), (mid, hi)), group, first)

    # The bisection state (piece ids, the settled values of finished groups,
    # split and panel counts, the running mask) is built once a group fails
    # the first round.  Until then panel i is piece i, so a piece's value is
    # 0.0 + its panel's, the bits of the piece bincount (-0.0 included), and
    # the group bincounts see every group id, so need no minimum length.
    piece = None
    n_groups = 0
    while True:
        refined = left + right
        if not np.isfinite(refined).all():
            raise ConvergenceError(_NON_FINITE, value=refined, error_estimate=math.inf)
        if piece is None:
            values = refined + 0.0
        else:
            values = settled + np.bincount(piece, weights=refined, minlength=piece_group.size)
        gap = np.abs(whole - refined)
        gap_total = np.bincount(group, weights=gap, minlength=n_groups)
        floor_total = _EST_FLOOR * np.bincount(group, weights=np.abs(left) + np.abs(right), minlength=n_groups)
        # for bands, a group's sum |values| is the largest |value| a datum
        # with sup <= 1 can take on them
        magnitude = np.bincount(piece_group, weights=np.abs(values), minlength=n_groups)
        tol = np.maximum(np.maximum(spec.abs_tol, spec.rel_tol * magnitude), floor_total)
        done = gap_total <= tol
        if piece is None:
            if done.all():
                return values, gap_total + floor_total
            n_groups = gap_total.size
            piece = np.arange(piece_group.size)
            settled = np.zeros(piece_group.size)  # values of the pieces of finished groups
            estimates = np.zeros(n_groups)
            splits = np.zeros(n_groups, dtype=int)
            panel_count = np.bincount(piece_group, minlength=n_groups)
            running = np.ones(n_groups, dtype=bool)
        done &= running
        if done.any():
            estimates[done] = (gap_total + floor_total)[done]
            running &= ~done
            if not running.any():
                return values, estimates
            settled = np.where(running[piece_group], 0.0, values)
            active = running[group]
            lo, hi, piece, group = lo[active], hi[active], piece[active], group[active]
            whole, left, right, gap = whole[active], left[active], right[active], gap[active]
        split = gap > (tol / panel_count)[group]
        count = np.bincount(group[split], minlength=n_groups)
        # where rounding (or a NaN whole panel) leaves no gap above its share, the worst panel
        for k in np.flatnonzero(running & (count == 0)):
            in_k = np.flatnonzero(group == k)
            split[in_k[np.argmax(gap[in_k])]] = True
            count[k] = 1
        if np.any(splits + count > spec.max_subdivisions):
            estimates[running] = (gap_total + floor_total)[running]
            raise ConvergenceError(
                f"band quadrature did not meet its tolerance within {spec.max_subdivisions} subdivisions",
                value=values,
                error_estimate=float(estimates.max()),
            )
        splits += count
        panel_count += count
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate((lo[split], mid))
        child_hi = np.concatenate((mid, hi[split]))
        child_group = np.concatenate((group[split], group[split]))
        child_mid = 0.5 * (child_lo + child_hi)
        child_left, child_right = panels(((child_lo, child_mid), (child_mid, child_hi)), child_group)
        lo = np.concatenate((lo[keep], child_lo))
        hi = np.concatenate((hi[keep], child_hi))
        piece = np.concatenate((piece[keep], piece[split], piece[split]))
        group = np.concatenate((group[keep], child_group))
        whole = np.concatenate((whole[keep], left[split], right[split]))
        left = np.concatenate((left[keep], child_left))
        right = np.concatenate((right[keep], child_right))


def kink_integrals(g: Callable, s):
    """Integrals over t in [-1, 1], one per kink ``s[i]``, each cut there,
    under :data:`DEFAULT_SPEC` as it is at the call.

    Integral i is group i of :func:`group_integrals`, in theta = arccos t:
    its piece for t in [-1, s_i] runs over theta in [arccos s_i, pi] and its
    piece for t in [s_i, 1] over [0, arccos s_i].  ``g(theta, group)`` is
    the integrand in theta, Jacobian and weight included, as for
    :func:`group_integrals`.  Returns an :class:`Evaluation` of two arrays,
    one value and one estimate per kink.
    """
    kink = np.arccos(s)
    lo = np.column_stack((kink, np.zeros_like(kink))).ravel()
    hi = np.column_stack((np.full_like(kink, math.pi), kink)).ravel()
    pieces, estimates = group_integrals(g, lo, hi, np.repeat(np.arange(kink.size), 2))
    return Evaluation(pieces[0::2] + pieces[1::2], estimates)


def band_node_table(n: int, cuts):
    """Node table of :func:`zonal_band_integrals` for a cut set in dimension n.

    Checks n and that ``cuts`` is strictly increasing inside (-1, 1), reads
    :data:`DEFAULT_SPEC` once, and returns ``(n, c_n, cos_theta, sin_power,
    edges, spec)``: the checked dimension and its weight normalization,
    computed once per table; cos(theta) and sin(theta)^(n-2), two (3,
    bands, nodes) arrays, at the Gauss nodes of every band's whole theta
    panel (index 0), its left half (1) and its right half (2), with the
    arithmetic :func:`group_integrals` uses for its own first round; the
    theta edges of all bands (band j spans ``edges[j + 1]`` to
    ``edges[j]``); and that spec, under which every integral on the table
    runs, whatever the default is by then.
    """
    n = check_dim(n, 2)
    spec = DEFAULT_SPEC
    cuts = np.asarray(cuts, dtype=float)
    if cuts.ndim != 1 or not (np.all(np.abs(cuts) < 1.0) and np.all(np.diff(cuts) > 0.0)):
        raise ValueError("cuts must be strictly increasing inside (-1, 1)")
    nodes, _ = _gauss_rule(spec.base_nodes)
    # theta decreases as t increases
    edges = np.concatenate(([math.pi], np.arccos(cuts), [0.0]))
    lo, hi = edges[1:], edges[:-1]
    mid = 0.5 * (lo + hi)
    theta = _panel_theta(np.stack((lo, lo, mid)), np.stack((hi, mid, hi)), nodes)
    return n, zonal_weight_normalization(n), np.cos(theta), np.sin(theta) ** (n - 2), edges, spec


def zonal_band_integrals(f: Callable, table):
    """Normalized zonal integrals of ``f`` over the height bands of a node table.

    ``table`` is the node table (:func:`band_node_table`) of dimension n and
    a cut set.  Returns an :class:`Evaluation`: ``value[j]`` is
    ``c_n * integral of f(t) (1-t^2)^((n-3)/2) dt`` over band j, which runs
    from ``cuts[j-1]`` to ``cuts[j]``; band 0 starts at -1 and the last band
    ends at +1.  A datum that is constant on every band integrates as the
    sum of its band values times ``value`` (:func:`row_sums`), and the one
    float ``error_estimate`` bounds the error of that sum for every datum with
    sup <= 1.

    The bands are integrated in theta = arccos(t), where the weight and the
    Jacobian become sin(theta)^(n-2), smooth for every n >= 2, as the
    pieces of one group of :func:`group_integrals`, which raises as it does.
    n, the weight, the normalization, the bands and the spec are the
    table's, whose builder checked them.  The relative test reads
    ``spec.rel_tol`` times the sum of ``|values|``, the largest value any
    datum with sup <= 1 can reach on these bands, so the batch analogue of
    the relative test in :func:`integrate`.  ``spec.kinks`` is not read:
    the cuts are the kinks.  The first round evaluates ``f`` once, on the
    table's nodes; only panels bisected later compute their own nodes.
    """
    n, c_n, cos_theta, sin_power, edges, spec = table

    def g(theta, group):
        return f(np.cos(theta)) * np.sin(theta) ** (n - 2)

    one_group = np.zeros(edges.size - 1, dtype=int)
    first = f(cos_theta) * sin_power
    values, estimates = group_integrals(g, edges[1:], edges[:-1], one_group, spec, c_n, first)
    return Evaluation(values, float(estimates[0]))
