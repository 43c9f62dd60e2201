import math

import numpy as np
import pytest

from ballgrad import quadrature
from ballgrad.bounds import (
    BoundQuery,
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
from ballgrad.harmonic import (
    AxisPoint,
    extremal_gradient_at_origin,
    hemisphere_datum,
    probe_batch,
    probe_conjecture,
    probe_schwarz_pick,
    radial_derivative,
    sharp_radial_sup,
    verify_theorem_b,
    zonal_poisson_value,
)
from ballgrad.phi import phi_quad, phi_series, psi
from ballgrad.quadrature import (
    QuadratureSpec,
    band_node_table,
    zonal_band_integrals,
    zonal_sphere_integral,
    zonal_weight_normalization,
)
from ballgrad.specfun import verify_identities

TIGHT = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14)


@pytest.fixture
def tight(monkeypatch):
    """capital_c runs under quadrature.DEFAULT_SPEC, here set to TIGHT."""
    monkeypatch.setattr(quadrature, "DEFAULT_SPEC", TIGHT)


class TestBallVolume:
    def test_low_dimensions(self):
        assert ball_volume(0) == pytest.approx(1.0, rel=1e-15)
        assert ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ball_volume(-1)


class TestSchwarzPickConstant:
    def test_disk(self):
        assert schwarz_pick_constant(2) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_dimension_three(self):
        assert schwarz_pick_constant(3) == pytest.approx(1.5, rel=1e-14)

    def test_dimension_four(self):
        assert schwarz_pick_constant(4) == pytest.approx(16.0 / (3.0 * math.pi), rel=1e-14)


class TestKhavinsonConstants:
    def test_sharp_constant(self):
        val = khavinson_sharp_constant_3d()
        assert val == pytest.approx(1.539600717839002, rel=1e-15)
        assert val > 1.5

    def test_radial_at_origin(self):
        assert khavinson_radial_3d(0.0) == pytest.approx(1.5, rel=1e-14)

    def test_radial_value(self):
        assert khavinson_radial_3d(0.5) == pytest.approx(2.0137017762354946, rel=1e-14)

    def test_limit_toward_boundary(self):
        t = 1.0 - 1e-8
        assert (1.0 - t * t) * khavinson_radial_3d(t) == pytest.approx(
            khavinson_sharp_constant_3d(), abs=1e-6
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            khavinson_radial_3d(1.0)

    def test_equals_pointwise_bound_dimension_three(self, tight):
        for rho in np.linspace(0.0, 0.95, 12):
            rho = float(rho)
            assert khavinson_radial_3d(rho) == pytest.approx(
                capital_c(BoundQuery(3, rho)).value, abs=1e-12
            )

    def test_scaled_bound_increases_to_unattained_supremum(self):
        grid = np.linspace(0.0, 0.999, 200)
        scaled = [(1.0 - r * r) * khavinson_radial_3d(float(r)) for r in grid]
        assert all(b > a + 1e-12 for a, b in zip(scaled, scaled[1:]))
        assert max(scaled) < khavinson_sharp_constant_3d()


class TestCapitalC:
    def test_origin_equals_schwarz_pick(self, tight):
        for n in (2, 3, 4, 5, 8):
            assert capital_c(BoundQuery(n, 0.0)).value == pytest.approx(
                schwarz_pick_constant(n), abs=1e-10
            )

    def test_below_uniform_bound(self):
        val = capital_c(BoundQuery(5, 0.7)).value
        assert val <= schwarz_pick_constant(5) / (1.0 - 0.49)

    def test_dimension_two_reduces_to_disk_constant(self, tight):
        for rho in (0.0, 0.3, 0.8):
            assert capital_c(BoundQuery(2, rho)).value == pytest.approx(
                (4.0 / math.pi) / (1.0 - rho * rho), abs=1e-10
            )

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(4, 1.0)
        with pytest.raises(ValueError):
            BoundQuery(1, 0.5)


class TestGradientBound:
    def test_disk(self):
        assert gradient_bound(2, 0.0) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_dimension_three_uses_larger_constant(self):
        assert gradient_bound(3, 0.0) == pytest.approx(8.0 / (3.0 * math.sqrt(3.0)), rel=1e-14)

    def test_scaling(self):
        assert gradient_bound(4, 0.5) == pytest.approx(16.0 / (3.0 * math.pi) / 0.75, rel=1e-14)


class TestPwBound:
    def test_ball_values(self):
        assert pw_bound(3, 1.0, 2.0) == pytest.approx(1.5, rel=1e-14)
        assert pw_bound(2, 0.5, 2.0) == pytest.approx(8.0 / math.pi, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            pw_bound(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            pw_bound(3, 1.0, -1.0)

    def test_rejects_nan_distance(self):
        with pytest.raises(ValueError):
            pw_bound(4, math.nan, 2.0)

    def test_rejects_nan_oscillation(self):
        with pytest.raises(ValueError):
            pw_bound(4, 1.0, math.nan)


class TestHalfspaceConstant:
    def test_disk(self):
        assert halfspace_constant(2) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_dimension_three(self):
        assert halfspace_constant(3) == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-14)

    def test_dimension_four(self):
        # direct formula evaluated in extended precision
        assert halfspace_constant(4) == pytest.approx(0.82699334313268807, rel=1e-14)


class TestBoundTable:
    def test_origin_row(self):
        (row,) = bound_table(4, [0.0])
        assert row.capital_c == pytest.approx(16.0 / (3.0 * math.pi), abs=1e-10)
        assert row.capital_c == pytest.approx(row.schwarz_pick_over_1mr2, abs=1e-10)
        assert row.khavinson_radial_if_n3 is None

    def test_khavinson_column_populated_at_three(self):
        rows = bound_table(3, [0.0, 0.5])
        assert rows[0].khavinson_radial_if_n3 == pytest.approx(1.5, rel=1e-12)
        assert rows[1].khavinson_radial_if_n3 == pytest.approx(
            2.0137017762354946, rel=1e-12
        )

    def test_pointwise_bound_below_uniform(self):
        grid = np.linspace(0.0, 0.9, 11)
        for row in bound_table(5, grid):
            assert row.capital_c <= row.schwarz_pick_over_1mr2 + 1e-10

    def test_equality_only_at_origin_above_three(self):
        rows = bound_table(6, [0.0, 0.2, 0.5, 0.8])
        assert rows[0].capital_c == pytest.approx(rows[0].schwarz_pick_over_1mr2, abs=1e-9)
        for row in rows[1:]:
            assert row.capital_c < row.schwarz_pick_over_1mr2 - 1e-6


# Public entries that take a dimension, with the smallest each accepts.  The
# first five keep the ids pytest gives them by position.
_BOUND_CALLS = [
    schwarz_pick_constant,
    halfspace_constant,
    lambda n: BoundQuery(n, 0.5),
    lambda n: gradient_bound(n, 0.5),
    lambda n: pw_bound(n, 1.0, 1.0),
]
_ENTRIES = [
    *zip(
        ("schwarz_pick_constant", "halfspace_constant", "<lambda>0", "<lambda>1", "<lambda>2"),
        _BOUND_CALLS,
        (2,) * len(_BOUND_CALLS),
    ),
    ("ball_volume", ball_volume, 0),
    ("phi_quad", lambda n: phi_quad(n, 0.5), 2),
    ("phi_series", lambda n: phi_series(n, 0.5), 3),
    ("psi", lambda n: psi(n, 0.5), 3),
    ("zonal_poisson_value", lambda n: zonal_poisson_value(n, hemisphere_datum(), AxisPoint(0.3)), 2),
    ("radial_derivative", lambda n: radial_derivative(n, hemisphere_datum(), AxisPoint(0.3)), 2),
    ("extremal_gradient_at_origin", extremal_gradient_at_origin, 2),
    ("sharp_radial_sup", lambda n: sharp_radial_sup(n, AxisPoint(0.3)), 2),
    # the probes take n from their batch, which checks it
    ("probe_schwarz_pick", lambda n: probe_schwarz_pick(probe_batch(n, 2, 0)), 2),
    ("probe_conjecture", lambda n: probe_conjecture(probe_batch(n, 2, 0)), 2),
    ("verify_theorem_b", verify_theorem_b, 2),
    ("zonal_sphere_integral", lambda n: zonal_sphere_integral(np.ones_like, n), 2),
    ("zonal_weight_normalization", zonal_weight_normalization, 2),
    # n reaches the band engine only through its node table, which checks it
    ("band_node_table", lambda n: band_node_table(n, ()), 2),
    ("zonal_band_integrals", lambda n: zonal_band_integrals(np.ones_like, band_node_table(n, ())), 2),
    ("verify_identities", verify_identities, 3),
]


class TestDimensionCheck:
    """Every public entry that takes a dimension refuses a number below its
    minimum, a fraction, NaN and +-inf with the same message."""

    @pytest.mark.parametrize(
        "call, n, minimum",
        [
            pytest.param(call, n, minimum, id=f"{n}-{name}")
            for name, call, minimum in _ENTRIES
            for n in (minimum - 1, minimum - 2, -3, 2.5, 4.000001, 4.5, math.nan, -math.inf, math.inf)
        ],
    )
    def test_rejects_bad_dimensions(self, call, n, minimum):
        with pytest.raises(ValueError, match=rf"^dimension must be an integer >= {minimum}$"):
            call(n)

    @pytest.mark.parametrize("call", _BOUND_CALLS)
    def test_accepts_a_whole_float(self, call):
        assert call(4.0) == call(4)
