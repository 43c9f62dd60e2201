"""The batched band engine against the independent adaptive route, an
mpmath oracle and its subdivision budget."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballgrad import harmonic, quadrature
from ballgrad.cli import main
from ballgrad.errors import ConvergenceError, Evaluation
from ballgrad.harmonic import (
    PROBE_RADII,
    AxisPoint,
    extremal_sign_datum,
    hemisphere_datum,
    poisson_kernel,
    probe_batch,
    probe_schwarz_pick,
    radial_derivative,
    radial_derivative_kernel,
    random_zonal_data,
    zonal_poisson_value,
)
from ballgrad.quadrature import (
    QuadratureSpec,
    band_node_table,
    integrate,
    zonal_band_integrals,
    zonal_weight_normalization,
)

KERNELS = {"poisson": poisson_kernel, "derivative": radial_derivative_kernel}


def _engine_value(kernel, n, rho, datum):
    bands = zonal_band_integrals(lambda t: kernel(n, rho, t), band_node_table(n, datum.breakpoints))
    return float(np.dot(datum.values, bands.value)), bands.error_estimate


def _bisect_from_the_integrand(g, lo, hi, scale=1.0):
    # the engine with its first round computed from the integrand in theta,
    # by three calls (whole panel, left and right halves), with no node
    # table, under the default spec as it is at the call
    spec = quadrature.DEFAULT_SPEC
    nodes, _ = quadrature._gauss_rule(spec.base_nodes)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    first = [g(quadrature._panel_theta(a, b, nodes)) for a, b in ((lo, hi), (lo, mid), (mid, hi))]
    return quadrature._bisect_bands(g, lo, hi, first, spec, scale)


class TestEngine:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12])
    def test_bands_of_the_constant_sum_to_one(self, n):
        cuts = (-0.6, 0.1, 0.95)
        result = zonal_band_integrals(np.ones_like, band_node_table(n, cuts))
        bands, estimate = result.value, result.error_estimate
        assert bands.shape == (4,)
        assert math.fsum(bands) == pytest.approx(1.0, abs=1e-13)
        assert estimate <= 1e-12

    def test_hemisphere_bands_dimension_three(self):
        # c_3 = 1/2 and the weight is 1, so |t| gives 1/4 on each side of 0
        bands = zonal_band_integrals(np.abs, band_node_table(3, (0.0,))).value
        np.testing.assert_allclose(bands, [0.25, 0.25], rtol=0, atol=1e-15)

    def test_no_cuts_is_one_band(self):
        bands = zonal_band_integrals(lambda t: t * t, band_node_table(4, ())).value
        # c_4 * integral of t^2 sqrt(1-t^2) = (2/pi) * (pi/8)
        assert bands.tolist() == pytest.approx([0.25], abs=1e-15)

    @pytest.mark.parametrize("cuts", [(0.5, 0.2), (0.1, 0.1), (-1.0,), (0.3, 1.0), (float("nan"),), ((0.1, 0.2),)])
    def test_rejects_bad_cuts(self, cuts):
        with pytest.raises(ValueError):
            zonal_band_integrals(np.ones_like, band_node_table(4, cuts))

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            zonal_band_integrals(np.ones_like, band_node_table(1, ()))

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_success_meets_the_tolerance(self, kernel):
        # n = 12, rho = 0.9 needs splits; on success the summed gap is within
        # max(abs_tol, rel_tol * sum |values|), and the roundoff floor added
        # to it is far below that here
        spec = quadrature.DEFAULT_SPEC
        bands = zonal_band_integrals(lambda t: KERNELS[kernel](12, 0.9, t), band_node_table(12, (0.0,)))
        assert 0.0 < bands.error_estimate <= 2.0 * max(spec.abs_tol, spec.rel_tol * np.abs(bands.value).sum())

    def test_exhausted_budget_carries_band_values(self, monkeypatch):
        spec = QuadratureSpec(max_subdivisions=1)
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", spec)
        with pytest.raises(ConvergenceError) as excinfo:
            zonal_band_integrals(lambda t: radial_derivative_kernel(12, 0.9, t), band_node_table(12, (0.0,)))
        err = excinfo.value
        assert np.shape(err.value) == (2,)
        assert err.error_estimate > spec.abs_tol


class TestNodeTable:
    CUTS = (-0.7, -0.1, 0.0, 0.55, 0.9)

    @staticmethod
    def _per_panel_route(f, n, cuts):
        # the engine with its first round computed from the integrand, with
        # no node table
        def g(theta):
            return f(np.cos(theta)) * np.sin(theta) ** (n - 2)

        edges = np.concatenate(([math.pi], np.arccos(cuts), [0.0]))
        return Evaluation(*_bisect_from_the_integrand(g, edges[1:], edges[:-1], zonal_weight_normalization(n)))

    @staticmethod
    def _probe_cuts(n):
        # the cut set of probe_batch(n, 25, 1): the breakpoints of its data
        # and of every radius's extremal sign datum
        rows = [*probe_batch(n, 25, 1).data, *(extremal_sign_datum(n, rho) for rho in PROBE_RADII)]
        return tuple(sorted(set().union(*(datum.breakpoints for datum in rows))))

    @pytest.mark.parametrize(
        "n, cut_set", [*((n, "fixed") for n in (2, 3, 4, 12)), *((n, "probe") for n in (2, 4, 12))]
    )
    def test_one_table_serves_every_kernel_and_radius(self, n, cut_set):
        cuts, radii = (self.CUTS, (0.0, 0.4, 0.9)) if cut_set == "fixed" else (self._probe_cuts(n), PROBE_RADII)
        table = band_node_table(n, cuts)
        rounds, per_panel_rounds, first_round_only = [], [], []
        for kernel in KERNELS.values():
            for rho in radii:

                def f(t):
                    return kernel(n, rho, t)

                def counted(t, log=rounds):
                    log.append(np.shape(t))
                    return f(t)

                rounds.clear()
                per_panel_rounds.clear()
                with_table = zonal_band_integrals(counted, table)
                # one evaluation on the whole table, then one per bisected half
                assert rounds[0] == (3, len(cuts) + 1, 15)
                if n == 12 and rho == 0.9 and cut_set == "fixed":
                    assert len(rounds) > 1
                without = zonal_band_integrals(f, band_node_table(n, cuts))
                per_panel = self._per_panel_route(lambda t: counted(t, per_panel_rounds), n, cuts)
                for other in (without, per_panel):
                    assert with_table.value.tobytes() == other.value.tobytes()
                    assert with_table.error_estimate == other.error_estimate
                # the per-panel route's first round is three calls (whole
                # panel, left and right halves) and each later round two on
                # both routes: where the first round passes, the table's
                # route calls the integrand exactly once
                assert len(per_panel_rounds) == len(rounds) + 2
                first_round_only.append(len(rounds) == 1)
        assert any(first_round_only)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_exhausted_budget_carries_the_same_values(self, kernel, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))

        def f(t):
            return KERNELS[kernel](12, 0.9, t)

        carried = []
        for run in (
            lambda: zonal_band_integrals(f, band_node_table(12, (0.0,))),
            lambda: self._per_panel_route(f, 12, (0.0,)),
        ):
            with pytest.raises(ConvergenceError) as excinfo:
                run()
            carried.append((excinfo.value.value.tobytes(), excinfo.value.error_estimate))
        assert carried[0] == carried[1]

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_a_table_keeps_the_spec_it_was_built_under(self, kernel, monkeypatch):
        # n = 12, rho = 0.9 needs more than one split: a table built under
        # the default integrates under it after DEFAULT_SPEC is rebound to a
        # one-split budget, and a table built under that budget runs out of
        # it after the default is restored
        def f(t):
            return KERNELS[kernel](12, 0.9, t)

        default = quadrature.DEFAULT_SPEC
        built_under_default = band_node_table(12, (0.0,))
        want = zonal_band_integrals(f, built_under_default)
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))
        built_under_one_split = band_node_table(12, (0.0,))
        assert built_under_default[5] is default and built_under_one_split[5] is quadrature.DEFAULT_SPEC
        got = zonal_band_integrals(f, built_under_default)
        assert got.value.tobytes() == want.value.tobytes() and got.error_estimate == want.error_estimate
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", default)
        with pytest.raises(ConvergenceError, match="within 1 subdivisions"):
            zonal_band_integrals(f, built_under_one_split)

    @pytest.mark.parametrize("n", [4, 12])
    def test_weight_and_normalization_follow_the_table(self, n):
        # n reaches the engine only through its table: the constant datum
        # sums to 1 and t^2 to 1/n, the second moment of one coordinate on
        # the sphere, and the Poisson kernel at rho = 0.9, which needs later
        # rounds, still sums to 1
        table = band_node_table(n, (0.1,))
        for f, exact in ((np.ones_like, 1.0), (lambda t: t * t, 1.0 / n), (lambda t: poisson_kernel(n, 0.9, t), 1.0)):
            bands = zonal_band_integrals(f, table)
            assert abs(math.fsum(bands.value) - exact) <= max(1e-14, bands.error_estimate)


class TestBisectedRounds:
    """Integrals the engine bisects for one to four rounds, pinned bit for
    bit (float hex): every total is a sequential sum in panel order, so a
    change of summation order or panel order shows here."""

    # (n, rho): value and estimate of sharp_radial_sup(n, AxisPoint(rho))
    SUPS = {
        (3, 0.7): ("0x1.7d76935a0ade5p+1", "0x1.39176935a0adep-43"),
        (3, 0.9): ("0x1.0215371eb8430p+3", "0x1.3d6a9b8f5c218p-44"),
        (4, 0.7): ("0x1.a4c981ffb7078p+1", "0x1.7999303ff6e0fp-44"),
        (4, 0.9): ("0x1.17ff4be4a2a7bp+3", "0x1.130ffd2f928aap-39"),
        (12, 0.7): ("0x1.2ce7b3197c546p+2", "0x1.9b05d98cbe2a2p-45"),
        (12, 0.9): ("0x1.5d0e0265111ebp+3", "0x1.25844404ca224p-38"),
    }

    @pytest.mark.parametrize("n, rho", sorted(SUPS))
    def test_sharp_radial_sup_is_pinned(self, n, rho):
        sup = harmonic.sharp_radial_sup(n, AxisPoint(rho))
        assert (sup.value.hex(), sup.error_estimate.hex()) == self.SUPS[n, rho]

    def test_derivative_kernel_bands_are_pinned(self):
        calls = []

        def f(t):
            calls.append(np.shape(t))
            return radial_derivative_kernel(12, 0.9, t)

        bands = zonal_band_integrals(f, band_node_table(12, (0.0,)))
        assert [v.hex() for v in bands.value.tolist()] == ["-0x1.0b50f8b3f5d9dp-6", "0x1.0b50f8b3eed00p-6"]
        assert bands.error_estimate.hex() == "0x1.72605c6c0b987p-44"
        # the table's round, then two calls (left and right halves) in each of four bisected rounds
        assert len(calls) == 1 + 2 * 4


class TestGroups:
    """The bisection itself, on integrands in theta: all pieces form one
    group, under one tolerance, one budget and one estimate."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_stops_in_the_first_round(self, bad):
        # the first round's three calls (whole panel, left and right halves)
        # give non-finite halves: the engine raises before any bisection,
        # with no call of its own
        calls = []

        def g(theta):
            calls.append(theta.shape)
            return np.full_like(theta, bad)

        with pytest.raises(ConvergenceError, match="^quadrature gave a non-finite value or error estimate$"):
            _bisect_from_the_integrand(g, [0.0], [1.0])
        assert calls == [(1, 15)] * 3

    def test_non_finite_whole_panel_still_bisects(self):
        # the middle node of the whole panel [0, 1] is theta = 0.5, where g
        # is NaN; no node of a half panel is, so the piece is bisected and
        # its halves' sum is returned
        calls = []

        def g(theta):
            calls.append(theta.shape)
            return np.where(theta == 0.5, np.nan, np.cos(theta))

        values, estimate = _bisect_from_the_integrand(g, [0.0], [1.0])
        assert len(calls) > 3 and np.isfinite(estimate)
        assert values[0] == pytest.approx(math.sin(1.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    pieces=st.integers(1, 8),
    n=st.sampled_from([2, 3, 4, 5, 12]),
    rho=st.floats(0.0, 0.95),
)
def test_engine_matches_the_adaptive_route(seed, pieces, n, rho):
    c = zonal_weight_normalization(n)
    # the sign datum makes the derivative kernel's integral the supremum
    # that sharp_radial_sup reads from the engine
    for datum in (random_zonal_data(seed, pieces), extremal_sign_datum(n, rho)):
        spec = QuadratureSpec(kinks=datum.breakpoints)
        for kernel in KERNELS.values():
            engine, engine_est = _engine_value(kernel, n, rho, datum)
            # c * this integral is what zonal_sphere_integral returns with the
            # breakpoints as kinks; integrate also reports its estimate
            adaptive = integrate(
                lambda t: kernel(n, rho, t) * datum(t), -1.0, 1.0, spec, weight_exponent=0.5 * (n - 3)
            )
            assert abs(engine - c * adaptive.value) <= max(1e-12, engine_est + c * adaptive.error_estimate)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("n, rho, seed, pieces", [(2, 0.5, 3, 4), (3, 0.9, 5, 6), (4, 0.7, 8, 8), (12, 0.9, 4, 5)])
def test_engine_matches_mpmath_oracle(kernel, n, rho, seed, pieces):
    datum = random_zonal_data(seed, pieces)
    engine, estimate = _engine_value(KERNELS[kernel], n, rho, datum)
    with mpmath.workdps(30):
        r = mpmath.mpf(rho)

        def integrand(t):
            d = 1 - 2 * r * t + r * r
            if kernel == "poisson":
                k = (1 - r * r) * d ** (-mpmath.mpf(n) / 2)
            else:
                k = ((n - (n - 4) * r * r) * t - r * (n + 2 - (n - 2) * r * r)) * d ** (-mpmath.mpf(n + 2) / 2)
            return k * (1 - t * t) ** (mpmath.mpf(n - 3) / 2)

        c = mpmath.gamma(mpmath.mpf(n) / 2) / (mpmath.gamma(mpmath.mpf(n - 1) / 2) * mpmath.sqrt(mpmath.pi))
        edges = [-1, *datum.breakpoints, 1]
        exact = c * mpmath.fsum(
            v * mpmath.quad(integrand, [lo, hi]) for v, lo, hi in zip(datum.values, edges, edges[1:])
        )
    assert abs(engine - float(exact)) <= max(1e-12, estimate)


@pytest.mark.parametrize("n", [2, 4, 12])
def test_single_datum_values_are_the_engine_dot_product(n):
    datum = random_zonal_data(11, 6)
    p = AxisPoint(0.6)
    assert radial_derivative(n, datum, p).value == pytest.approx(
        _engine_value(radial_derivative_kernel, n, 0.6, datum)[0], abs=1e-14
    )
    assert zonal_poisson_value(n, datum, p).value == pytest.approx(
        _engine_value(poisson_kernel, n, 0.6, datum)[0], abs=1e-14
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 44])
def test_band_rows_do_not_depend_on_the_batch_or_its_layout(n):
    # a band matrix of 40 data on one node table: every row's integral must
    # have the bits of a one-row batch, in C and in Fortran order
    data = [random_zonal_data(seed, 1 + seed % 8) for seed in range(40)]
    band_values, table = harmonic._band_matrix(n, data)
    for kernel in KERNELS.values():
        values = harmonic._band_extension(kernel, n, 0.7, band_values, table)
        fortran = harmonic._band_extension(kernel, n, 0.7, np.asfortranarray(band_values), table)
        assert values.value.tobytes() == fortran.value.tobytes() and values.error_estimate == fortran.error_estimate
        for i, value in enumerate(values.value.tolist()):
            assert harmonic._band_extension(kernel, n, 0.7, band_values[i : i + 1], table).value.tolist() == [value]


def test_row_sums_are_row_local():
    # each row's sum has the bits of its own one-row call, wherever the row
    # sits and whatever the layout of the rows or the alignment of the data
    rng = np.random.default_rng(3)
    for m in (1, 2, 5, 15, 16, 17, 64):
        rows = rng.standard_normal((37, m)) * 10.0 ** rng.integers(-6, 7, (37, m))
        weights = rng.standard_normal(m)
        sums = quadrature.row_sums(rows, weights)
        shifted = np.empty(rows.size + 1)[1:].reshape(rows.shape)  # 8 bytes off the allocation
        shifted[...] = rows
        for layout in (np.asfortranarray(rows), rows[::-1][::-1], shifted, np.concatenate((rows, rows))[37:]):
            assert quadrature.row_sums(layout, weights).tobytes() == sums.tobytes()
        for i in range(rows.shape[0]):
            assert quadrature.row_sums(rows[i : i + 1], weights).tobytes() == sums[i : i + 1].tobytes()


@pytest.mark.parametrize("rho", [0.99, 0.999])
def test_relative_tolerance_reaches_near_the_boundary(rho):
    # the kernel's own rounding keeps the summed gap above 1e-12 here; the
    # relative test (sum |values| = 1 for the Poisson kernel) stops the
    # engine where integrate stops too.  Closed form for the hemisphere
    # datum in dimension three.
    exact = (1.0 - (1.0 - rho * rho) / math.sqrt(1.0 + rho * rho)) / rho
    assert zonal_poisson_value(3, hemisphere_datum(), AxisPoint(rho)).value == pytest.approx(exact, abs=1e-10)


class TestBudget:
    # the engine takes its budget from the one default the quadrature
    # module owns
    @pytest.fixture(autouse=True)
    def one_split(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))

    def test_radial_derivative_raises(self):
        with pytest.raises(ConvergenceError):
            radial_derivative(12, hemisphere_datum(), AxisPoint(0.9))

    def test_probe_raises(self):
        with pytest.raises(ConvergenceError):
            probe_schwarz_pick(probe_batch(12, 1, 0))

    def test_probe_exits_two(self, capsys):
        # the command's batch integrates the slopes before any pointwise
        # bound is computed; at n = 44 one split is too few for them even
        # on bands cut at every radius's extremal cut, so the band engine's
        # budget is the one that runs out
        code = main(["probe", "--n", "44", "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: band quadrature did not meet its tolerance")
