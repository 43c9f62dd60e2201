import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballgrad import harmonic
from ballgrad.bounds import (
    BoundQuery,
    capital_c,
    gradient_bound,
    khavinson_radial_3d,
    schwarz_pick_constant,
)
from ballgrad.harmonic import (
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
from ballgrad.cli import main
from ballgrad.errors import Evaluation
from ballgrad.quadrature import band_node_table, row_sums, zonal_band_integrals, zonal_sphere_integral
from ballgrad.report import CheckResult, VerificationReport


class TestZonalBoundaryData:
    def test_band_lookup(self):
        g = ZonalBoundaryData((-0.5, 0.5), (1.0, -0.25, 0.75))
        assert g(-0.9) == 1.0
        assert g(0.0) == -0.25
        assert g(0.9) == 0.75
        np.testing.assert_allclose(g(np.array([-0.9, 0.0, 0.9])), [1.0, -0.25, 0.75])

    INSIDE = "^breakpoints must lie strictly inside \\(-1, 1\\)$"
    INCREASING = "^breakpoints must be strictly increasing$"
    BOUNDED = "^datum values must satisfy \\|v\\| <= 1$"

    @pytest.mark.parametrize(
        "breakpoints, values, message",
        [
            ((0.5, -0.5), (1.0, 0.0, 0.0), INCREASING),
            ((0.0,), (2.0, 0.0), BOUNDED),
            ((1.0,), (0.5, 0.5), INSIDE),
            ((0.0,), (0.5,), "^need exactly one value per band$"),
            ((math.nan,), (0.5, 0.5), INSIDE),
            ((-0.2, 0.3, math.nan), (0.5, 0.5, 0.5, 0.5), INSIDE),
            ((0.25, 0.25), (0.5, 0.5, 0.5), INCREASING),
            ((-1.0,), (0.5, 0.5), INSIDE),
            ((-1.0, 0.0, 2.0), (0.5, 0.5, 0.5, 0.5), INSIDE),
            # a datum that breaks both conditions on its breakpoints is
            # refused for the first, and the band count is checked before either
            ((0.5, -2.0), (0.5, 0.5, 0.5), INSIDE),
            ((0.5, -0.5), (0.5,), "^need exactly one value per band$"),
            ((0.5, -0.5), (2.0, 0.0, 0.0), INCREASING),
            ((0.0,), (0.5, -math.inf), BOUNDED),
        ],
    )
    def test_validation(self, breakpoints, values, message):
        with pytest.raises(ValueError, match=message):
            ZonalBoundaryData(breakpoints, values)

    def test_rejects_nan_value(self):
        # abs(nan) > 1 is False, so the bound must be written so that a
        # comparison with NaN refuses
        with pytest.raises(ValueError, match=self.BOUNDED):
            ZonalBoundaryData((0.0,), (math.nan, 1.0))

    def test_accepts_the_edges_of_the_value_range(self):
        datum = ZonalBoundaryData((-0.999, -0.0, 0.999), (-1.0, 1.0, -0.0, 1))
        assert datum.breakpoints == (-0.999, -0.0, 0.999) and datum.values == (-1.0, 1.0, -0.0, 1.0)
        assert all(type(x) is float for x in datum.breakpoints + datum.values)

    def test_hemisphere(self):
        g = hemisphere_datum()
        assert g(-0.1) == -1.0
        assert g(0.1) == 1.0


class TestPoissonKernel:
    def test_center_is_one(self):
        for t in (-1.0, 0.0, 0.7):
            assert float(poisson_kernel(4, 0.0, t)) == 1.0

    def test_point_value(self):
        assert float(poisson_kernel(3, 0.5, 1.0)) == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_normalization(self, n, rho):
        val = zonal_sphere_integral(lambda t: poisson_kernel(n, rho, t), n).value
        assert val == pytest.approx(1.0, abs=1e-10)


class TestZonalPoissonValue:
    def test_hemisphere_odd_symmetry(self):
        assert zonal_poisson_value(3, hemisphere_datum(), AxisPoint(0.0)).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_constant_datum(self):
        ones = ZonalBoundaryData((), (1.0,))
        for n, rho in ((3, 0.3), (5, 0.8)):
            assert zonal_poisson_value(n, ones, AxisPoint(rho)).value == pytest.approx(1.0, abs=1e-11)

    def test_hemisphere_closed_form_dimension_three(self):
        # antiderivative of the kernel in t gives u(rho) = (1 - (1-rho^2)/sqrt(1+rho^2))/rho
        rho = 0.5
        expected = (1.0 - 0.75 / math.sqrt(1.25)) / 0.5
        got = zonal_poisson_value(3, hemisphere_datum(), AxisPoint(rho)).value
        assert got == pytest.approx(expected, abs=1e-11)

    def test_hemisphere_monte_carlo_oracle(self):
        # uniform sphere sampling, fixed seed, 1e7 points
        n, rho = 3, 0.5
        rng = np.random.default_rng(12345)
        acc = 0.0
        total = 10_000_000
        chunk = 1_000_000
        for _ in range(total // chunk):
            xyz = rng.standard_normal((chunk, n))
            t = xyz[:, -1] / np.linalg.norm(xyz, axis=1)
            acc += float(
                np.sum(poisson_kernel(n, rho, t) * np.sign(t))
            )
        mc = acc / total
        exact = zonal_poisson_value(n, hemisphere_datum(), AxisPoint(rho)).value
        assert exact == pytest.approx(mc, abs=1e-3)

    def test_maximum_principle(self):
        for seed in range(8):
            datum = random_zonal_data(seed, 6)
            for rho in (0.0, 0.4, 0.85):
                val = zonal_poisson_value(4, datum, AxisPoint(rho)).value
                assert abs(val) <= 1.0 + 1e-12


class TestRadialDerivativeKernel:
    def test_center_slope(self):
        for n in (3, 4, 6):
            for t in (-0.7, 0.2, 1.0):
                assert float(radial_derivative_kernel(n, 0.0, t)) == pytest.approx(
                    n * t, rel=1e-14
                )

    def test_matches_finite_difference(self):
        h = 1e-6
        for n in (3, 4, 6, 8):
            for rho in (0.1, 0.5, 0.8):
                for t in (-0.9, -0.2, 0.3, 0.95):
                    fd = (
                        float(poisson_kernel(n, rho + h, t))
                        - float(poisson_kernel(n, rho - h, t))
                    ) / (2.0 * h)
                    assert float(radial_derivative_kernel(n, rho, t)) == pytest.approx(
                        fd, rel=1e-7
                    )

    def test_constant_datum_has_zero_slope(self):
        # normalization is rho-independent, so the derivative integrates to 0
        for n, rho in ((4, 0.3), (6, 0.7)):
            val = zonal_sphere_integral(lambda t: radial_derivative_kernel(n, rho, t), n).value
            assert val == pytest.approx(0.0, abs=1e-10)

    def test_sign_change_is_interior_root(self):
        for n in (2, 3, 5, 8):
            for rho in (0.0, 0.3, 0.7, 0.95):
                ts = radial_derivative_sign_change(n, rho)
                assert 0.0 <= ts < 1.0
                assert float(radial_derivative_kernel(n, rho, ts)) == pytest.approx(
                    0.0, abs=1e-12
                )

    @pytest.mark.parametrize("call", [radial_derivative_sign_change, extremal_sign_datum])
    @pytest.mark.parametrize("rho", [5.0, 1.0, -0.5, -1e-300, math.nan, math.inf])
    def test_refuses_rho_outside_the_unit_interval(self, call, rho):
        with pytest.raises(ValueError, match=r"^rho must lie in \[0, 1\)$"):
            call(4, rho)


class TestRadialDerivative:
    def test_constant_datum(self):
        ones = ZonalBoundaryData((), (1.0,))
        assert radial_derivative(5, ones, AxisPoint(0.6)).value == pytest.approx(0.0, abs=1e-10)

    def test_hemisphere_at_origin_attains_constant(self):
        val = radial_derivative(4, hemisphere_datum(), AxisPoint(0.0)).value
        assert val == pytest.approx(16.0 / (3.0 * math.pi), abs=1e-9)

    def test_extremal_sign_datum_attains_pointwise_bound(self):
        for n in (3, 4, 5):
            for rho in (0.0, 0.4, 0.8):
                datum = extremal_sign_datum(n, rho)
                val = abs(radial_derivative(n, datum, AxisPoint(rho)).value)
                target = capital_c(BoundQuery(n, rho)).value
                assert val == pytest.approx(target, abs=1e-6)

    def test_dominated_by_radial_sup(self):
        for seed in range(10):
            datum = random_zonal_data(seed, 5)
            for rho in (0.0, 0.3, 0.7):
                lhs = abs(radial_derivative(4, datum, AxisPoint(rho)).value)
                assert lhs <= sharp_radial_sup(4, AxisPoint(rho)).value + 1e-9


class TestExtremalGradientAtOrigin:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_schwarz_pick(self, n):
        assert extremal_gradient_at_origin(n).value == pytest.approx(
            schwarz_pick_constant(n), abs=1e-8
        )

    def test_known_values(self):
        assert extremal_gradient_at_origin(3).value == pytest.approx(1.5, abs=1e-10)
        assert extremal_gradient_at_origin(2).value == pytest.approx(4.0 / math.pi, abs=1e-10)


class TestSharpRadialSup:
    def test_origin_dimension_four(self):
        assert sharp_radial_sup(4, AxisPoint(0.0)).value == pytest.approx(
            16.0 / (3.0 * math.pi), abs=1e-9
        )

    def test_matches_pointwise_bound(self):
        assert sharp_radial_sup(5, AxisPoint(0.5)).value == pytest.approx(
            capital_c(BoundQuery(5, 0.5)).value, abs=1e-6
        )

    def test_matches_khavinson_radial(self):
        assert sharp_radial_sup(3, AxisPoint(0.7)).value == pytest.approx(
            khavinson_radial_3d(0.7), abs=1e-6
        )


class TestRandomZonalData:
    def test_single_piece_is_constant(self):
        datum = random_zonal_data(1, 1)
        assert datum.breakpoints == ()
        assert len(datum.values) == 1

    def test_determinism(self):
        a = random_zonal_data(1, 8)
        b = random_zonal_data(1, 8)
        assert a.breakpoints == b.breakpoints
        assert a.values == b.values

    def test_seed_sensitivity(self):
        a = random_zonal_data(1, 8)
        b = random_zonal_data(2, 8)
        assert a.values != b.values

    def test_rejects_zero_pieces(self):
        with pytest.raises(ValueError):
            random_zonal_data(0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            random_zonal_data(-1, 3)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            probe_batch(4, 3, -1)

    @pytest.mark.parametrize("bad", [2.5, True, False, math.nan, math.inf, -1, 0])
    def test_counts_are_whole_numbers(self, bad):
        # unchecked, a fraction reaches range() or numpy's size= as a
        # TypeError, and a bool passes as 0 or 1
        with pytest.raises(ValueError, match="^need at least one sample$"):
            probe_batch(4, bad, 0)
        with pytest.raises(ValueError, match="^need at least one piece$"):
            random_zonal_data(0, bad)

    @pytest.mark.parametrize("bad", [2.5, True, False, math.nan, math.inf, -1])
    def test_seeds_are_whole_numbers(self, bad):
        for call in (lambda: probe_batch(4, 3, bad), lambda: random_zonal_data(bad, 3)):
            with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
                call()

    class _StubGenerator:
        """Hands out the given draws in order and records each call."""

        def __init__(self, *draws):
            self.draws = list(draws)
            self.calls = []

        def uniform(self, low, high, size):
            self.calls.append((low, high, size))
            return np.array(self.draws.pop(0))

    def test_a_repeated_breakpoint_is_drawn_again(self):
        rng = self._StubGenerator([0.25, -0.5, 1.0 / 3.0], [0.125, 0.125], [0.5, -0.75])
        datum = harmonic._random_zonal_from_rng(rng, 3)
        assert rng.calls == [(-1.0, 1.0, 3), (-0.999, 0.999, 2), (-0.999, 0.999, 2)] and rng.draws == []
        assert datum == ZonalBoundaryData((-0.75, 0.5), (0.25, -0.5, 1.0 / 3.0))

    def test_distinct_breakpoints_are_drawn_once(self):
        rng = self._StubGenerator([0.25, -0.5], [0.5], [0.0])
        assert harmonic._random_zonal_from_rng(rng, 2) == ZonalBoundaryData((0.5,), (0.25, -0.5))
        assert rng.calls == [(-1.0, 1.0, 2), (-0.999, 0.999, 1)]
        rng = self._StubGenerator([0.25], [0.5])
        assert harmonic._random_zonal_from_rng(rng, 1) == ZonalBoundaryData((), (0.25,))
        assert rng.calls == [(-1.0, 1.0, 1)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_seed_contract(self, seed):
        # a probe's data are the hemisphere datum, then per datum three calls
        # of one generator in order: the band count, the values and the
        # sorted breakpoints; random_zonal_data makes the last two
        rng = np.random.default_rng(seed)
        want = [hemisphere_datum()]
        for _ in range(29):
            pieces = int(rng.integers(1, 9))
            values = rng.uniform(-1.0, 1.0, size=pieces)
            cuts = np.sort(rng.uniform(-0.999, 0.999, size=pieces - 1)) if pieces > 1 else ()
            want.append(ZonalBoundaryData(tuple(cuts), tuple(values)))
        assert probe_batch(4, 30, seed).data == tuple(want)
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=5)
        cuts = np.sort(rng.uniform(-0.999, 0.999, size=4))
        assert random_zonal_data(seed, 5) == ZonalBoundaryData(tuple(cuts), tuple(values))

    def test_whole_float_counts_are_ints(self):
        assert random_zonal_data(3.0, 4.0) == random_zonal_data(3, 4)
        batch = probe_batch(4, 3.0, 2.0)
        assert len(batch.data) == 3 and batch.slopes.value.tobytes() == probe_batch(4, 3, 2).slopes.value.tobytes()


class TestProbes:
    def test_schwarz_pick_probe_passes(self):
        report = probe_schwarz_pick(probe_batch(4, 20, 7))
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["bound_dominates", "sup_ratio", "extremal_attains_pointwise_bound"]
        sup = report.checks[1]
        # the hemisphere datum at the origin attains the constant
        assert sup.worst_margin == pytest.approx(1.0, abs=1e-9)
        assert sup.at == "sample=0,rho=0.000"

    def test_schwarz_pick_probe_dimension_three_strict(self):
        report = probe_schwarz_pick(probe_batch(3, 15, 7))
        assert report.passed
        sup = next(c for c in report.checks if c.name == "sup_ratio")
        assert sup.worst_margin < 1.0  # strictness: the constant is never attained

    def test_schwarz_pick_probe_disk(self):
        assert probe_schwarz_pick(probe_batch(2, 15, 7)).passed

    def test_conjecture_probe_dimension_two_is_theorem(self):
        report = probe_conjecture(probe_batch(2, 25, 3))
        assert report.passed
        no_cx = next(c for c in report.checks if c.name == "no_counterexample")
        assert no_cx.passed and not no_cx.expected

    def test_conjecture_probe_observational_high_dimension(self):
        report = probe_conjecture(probe_batch(5, 25, 3))
        no_cx = next(c for c in report.checks if c.name == "no_counterexample")
        assert no_cx.expected  # a violation would be recorded, not an error
        ratio = next(c for c in report.checks if c.name == "max_ratio")
        assert 0.0 < ratio.worst_margin <= 1.0 + 1e-9

    def test_conjecture_probe_rejects_dimension_three(self):
        batch = probe_batch(3, 5, 0)
        with pytest.raises(ValueError):
            probe_conjecture(batch)

    def test_probes_of_one_command_share_one_draw(self, capsys, monkeypatch):
        # a command builds one batch from one draw and hands that batch to
        # both probes; a new command draws anew and prints the same bytes
        built, seeded = harmonic.probe_batch, harmonic._seeded_rng
        batches, draws, reduced = [], [], []

        def building(*args):
            batches.append(built(*args))
            return batches[-1]

        def drawing(seed):
            draws.append(seed)
            return seeded(seed)

        def reducing(probe):
            return lambda batch: reduced.append(batch) or probe(batch)

        monkeypatch.setattr(harmonic, "probe_batch", building)
        monkeypatch.setattr(harmonic, "_seeded_rng", drawing)
        for name in ("probe_schwarz_pick", "probe_conjecture"):
            monkeypatch.setattr(harmonic, name, reducing(getattr(harmonic, name)))
        argv = ["probe", "--n", "4", "--samples", "5", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(batches) == 1 and draws == [11] and len(reduced) == 2
        assert reduced[0] is reduced[1] is batches[0]
        assert main([*argv[:-1], "12"]) == 0
        assert main(argv) == 0
        assert draws == [11, 12, 11] and len(batches) == 3 and reduced[-1] is batches[2]
        assert capsys.readouterr().out.endswith(first)

    def test_hemisphere_equality_case(self):
        # ratio exactly 1 at the origin: u(0) = 0 and the gradient attains
        # the constant
        report = probe_conjecture(probe_batch(4, 1, 0))
        ratio = next(c for c in report.checks if c.name == "max_ratio")
        assert ratio.worst_margin == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_theorem_b_report(n):
    report = verify_theorem_b(n)
    assert report.passed
    if n == 3:
        assert any(c.name == "matches_khavinson_radial" for c in report.checks)


def _per_batch_extension(kernel, n, data, rho):
    """The probes' former route: the cut set, band matrix and node table
    rebuilt from the data for every batch, then met with the kernel's band
    integrals row by row.  Returns the values and the engine's estimate."""
    cuts = np.array(sorted(set().union(*(datum.breakpoints for datum in data))))
    edges = np.concatenate(([-1.0], cuts, [1.0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    band_values = np.array([datum(mids) for datum in data])
    integrals = zonal_band_integrals(lambda t: kernel(n, rho, t), band_node_table(n, cuts))
    return row_sums(band_values, integrals.value).tolist(), integrals.error_estimate


def _batch_rows(n, data, radii):
    """The rows of a probe batch: its data, then every radius's extremal
    sign datum."""
    return [*data, *(extremal_sign_datum(n, r) for r in radii)]


def _hex(values):
    return [float(v).hex() for v in values]


RADII = tuple(float(rho) for rho in np.linspace(0.0, 0.9, 11))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    samples=st.integers(1, 40),
    n=st.sampled_from([2, 3, 4, 5, 12]),
    rho=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
)
@example(seed=7, samples=25, n=4, rho=0.0)  # t* = 0 is the hemisphere's cut
@example(seed=7, samples=25, n=4, rho=0.45)  # t* splits a band
@example(seed=7, samples=25, n=12, rho=0.9)  # later rounds bisect panels
def test_probe_matrices_equal_the_per_batch_route(seed, samples, n, rho):
    # the probes' batch: one band matrix and node table of the data and
    # every radius's extremal datum, reused across kernels and radii, must
    # give every value bit for bit as a batch built anew for each call.
    # Its slopes and Poisson values (none at n = 3) at the probe radii must
    # be those values, and so must its band product at the drawn radius
    batch = probe_batch(n, samples, seed)
    data = _batch_rows(n, batch.data, RADII)
    band_values, table = harmonic._band_matrix(n, data)
    kernels = (radial_derivative_kernel, poisson_kernel)
    for kernel, rows in zip(kernels, batch[2:]):
        assert (rows is None) == (kernel is poisson_kernel and n == 3)
        if rows is not None:
            for j, r in enumerate(RADII):
                want, want_estimate = _per_batch_extension(kernel, n, data, r)
                assert _hex(rows.value[j]) == _hex(want) and rows.error_estimate[j] == want_estimate
        want, _ = _per_batch_extension(kernel, n, data, rho)
        assert _hex(harmonic._band_extension(kernel, n, rho, band_values, table).value) == _hex(want)
        assert _hex(harmonic._zonal_extension(kernel, n, data, rho).value) == _hex(want)


@pytest.fixture
def engine_log(monkeypatch):
    """Every node table the harmonic module builds and every band-engine
    call it makes, as (bands of the table, whether probe_batch is running)."""
    tables, calls, running = [], [], []
    build = harmonic.probe_batch

    def building(*args):
        running.append(True)
        try:
            return build(*args)
        finally:
            running.pop()

    def tabling(n, cuts):
        tables.append((np.asarray(cuts).size + 1, bool(running)))
        return band_node_table(n, cuts)

    def integrating(f, table):
        calls.append((len(table[4]) - 1, bool(running)))
        return zonal_band_integrals(f, table)

    monkeypatch.setattr(harmonic, "probe_batch", building)
    monkeypatch.setattr(harmonic, "band_node_table", tabling)
    monkeypatch.setattr(harmonic, "zonal_band_integrals", integrating)
    return tables, calls


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_each_probe_builds_one_node_table(engine_log, n):
    # the batch builds its one node table, over the data's and every
    # radius's extremal cuts, and per radius makes one engine call for the
    # slopes and, but at n = 3, one for the Poisson values: 22 calls, 11 at
    # n = 3.  Either probe then builds no table and integrates nothing
    assert harmonic.PROBE_RADII == RADII
    tables, calls = engine_log
    batch = harmonic.probe_batch(n, 25, 3)
    full = len(set().union(*(datum.breakpoints for datum in _batch_rows(n, batch.data, RADII)))) + 1
    count = len(RADII) * (1 if n == 3 else 2)
    assert tables == [(full, True)] and calls == [(full, True)] * count
    for probe in (probe_schwarz_pick,) if n == 3 else (probe_conjecture, probe_schwarz_pick):
        probe(batch)
        assert len(tables) == 1 and len(calls) == count


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_a_probe_command_integrates_only_in_its_batch(engine_log, monkeypatch, capsys, n):
    # a command draws its data once, builds one node table and makes 22
    # engine calls on it (11 at n = 3), every one inside probe_batch
    tables, calls = engine_log
    draws = []
    seeded = harmonic._seeded_rng
    monkeypatch.setattr(harmonic, "_seeded_rng", lambda seed: draws.append(seed) or seeded(seed))
    assert main(["probe", "--n", str(n), "--samples", "25", "--seed", "3"]) == 0
    assert capsys.readouterr().err == ""
    assert draws == [3] and len(tables) == 1 and len(calls) == len(RADII) * (1 if n == 3 else 2)
    assert set(calls) == {tables[0]} and tables[0][1]


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_probe_attains_the_sharp_radial_sup_at_every_radius(n):
    # at radius j the row after the samples' j-th is the extremal datum's:
    # it must agree with sharp_radial_sup, the datum's own single-cut
    # route, within the two engine estimates
    samples = 25
    batch = probe_batch(n, samples, 5)
    assert probe_schwarz_pick(batch).passed
    slopes, estimates = batch.slopes.value, batch.slopes.error_estimate
    for j, rho in enumerate(RADII):
        cut = extremal_sign_datum(n, rho).breakpoints
        own_estimate = zonal_band_integrals(
            lambda t: radial_derivative_kernel(n, rho, t), band_node_table(n, cut)
        ).error_estimate
        assert abs(slopes[j, samples + j] - sharp_radial_sup(n, AxisPoint(rho)).value) <= estimates[j] + own_estimate


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), samples=st.integers(1, 30), n=st.sampled_from([2, 4, 5, 12]))
@example(seed=7, samples=25, n=12)
def test_shared_batch_agrees_with_the_data_only_route(seed, samples, n):
    # the oracle is the conjecture probe's former cut set, made of its data
    # alone: both kernels' values on the shared batch, whose cuts add every
    # radius's extremal cut, must agree with it within the two estimates
    batch = probe_batch(n, samples, seed)
    for kernel, rows in zip((radial_derivative_kernel, poisson_kernel), batch[2:]):
        for j, rho in enumerate(RADII):
            own, own_estimate = _per_batch_extension(kernel, n, batch.data, rho)
            for value, want in zip(rows.value[j], own):
                assert abs(value - want) <= rows.error_estimate[j] + own_estimate


@pytest.mark.parametrize("n", [2, 3, 4, 12, 44])
@pytest.mark.parametrize("samples, seed", [(200, 7), (25, 1), (25, 2)])
def test_probe_slack_exceeds_the_engine_error(n, samples, seed):
    # the 1e-9 slack of each probe verdict must exceed what the engine's
    # estimates can move its margin.  bound_dominates: (1 - rho^2) times
    # the slope estimate.  no_counterexample: the first-order error that
    # the slope and value estimates carry into each ratio
    # |du| (1 - rho^2) / ((1 - u^2) C_n), and so into their largest.  The
    # (samples, seed) pairs are those of the pinned commands.
    batch = probe_batch(n, samples, seed)
    _, data, slope_evaluation, value_evaluation = batch
    slopes, slope_estimates = slope_evaluation.value, slope_evaluation.error_estimate
    if n != 3:
        values, value_estimates = value_evaluation.value, value_evaluation.error_estimate
    sp = schwarz_pick_constant(n)
    worst_bound = 0.0
    ratios, errors = [], []
    for j, rho in enumerate(RADII):
        slope_estimate = slope_estimates[j]
        worst_bound = max(worst_bound, (1.0 - rho * rho) * slope_estimate)
        if n == 3:
            continue
        value_estimate = value_estimates[j]
        for u, du in zip(values[j, : len(data)].tolist(), slopes[j, : len(data)].tolist()):
            # the probe's own expression, so that the largest is its max_ratio
            ratios.append(abs(du) * (1.0 - rho * rho) / ((1.0 - u * u) * sp))
            scale = (1.0 - rho * rho) / ((1.0 - u * u) * sp)
            errors.append(scale * slope_estimate + ratios[-1] * 2.0 * abs(u) / (1.0 - u * u) * value_estimate)
    assert 0.0 < worst_bound < 1e-9
    if n == 3:
        return
    ratios, errors = np.array(ratios), np.array(errors)
    top = ratios.max()
    assert probe_conjecture(batch).checks[0].worst_margin == top
    # a row whose ratio is far below the largest cannot move it, however
    # ill-conditioned (u near +-1): at n = 44 the hemisphere datum at
    # rho = 0.9 has 1 - u^2 ~ 2e-7 and carries ~1e-7 into its ratio 0.56
    assert max((ratios + errors).max() - top, top - (ratios - errors).max()) < 1e-9


def _loop_reports(batch):
    """Both probe reports as per-sample loops form them, reading the batch's
    arrays one entry at a time and keeping the first strict maximum."""
    n, data, slopes = batch.n, batch.data, batch.slopes.value
    values = None if batch.values is None else batch.values.value
    m = len(data)
    worst_margin, worst_at, max_ratio, ratio_at, worst_gap, gap_at = -math.inf, "", -math.inf, "", 0.0, ""
    top, at = -math.inf, ""
    for j, rho in enumerate(RADII):
        const = gradient_bound(n, rho) * (1.0 - rho * rho)
        for i in range(m):
            lhs = abs(float(slopes[j, i])) * (1.0 - rho * rho)
            if lhs - const > worst_margin:
                worst_margin, worst_at = lhs - const, f"sample={i},rho={rho:.3f}"
            if lhs / const > max_ratio:
                max_ratio, ratio_at = lhs / const, f"sample={i},rho={rho:.3f}"
            if values is not None:
                u = float(values[j, i])
                ratio = abs(float(slopes[j, i])) * (1.0 - rho * rho) / ((1.0 - u * u) * schwarz_pick_constant(n))
                if ratio > top:
                    top, at = ratio, f"sample={i},rho={rho:.3f}"
        gap = abs(abs(float(slopes[j, m + j])) - capital_c(BoundQuery(n, rho)).value) * (1.0 - rho * rho)
        if gap > worst_gap:
            worst_gap, gap_at = gap, f"rho={rho:.3f}"
    schwarz_pick = VerificationReport(
        "schwarz_pick_probe",
        n,
        (
            CheckResult("bound_dominates", worst_margin <= 1e-9, worst_margin, worst_at),
            CheckResult("sup_ratio", True, max_ratio, ratio_at),
            CheckResult("extremal_attains_pointwise_bound", worst_gap <= 1e-6, worst_gap, gap_at),
        ),
    )
    conjecture = VerificationReport(
        "conjecture_probe",
        n,
        (
            CheckResult("max_ratio", True, top, at),
            CheckResult("no_counterexample", top <= 1.0 + 1e-9, top - 1.0, at, expected=(n >= 4)),
        ),
    )
    return schwarz_pick, conjecture


@pytest.mark.parametrize("n", [2, 3, 4, 12, 44])
@pytest.mark.parametrize("samples, seed", [(200, 7), (25, 1), (25, 2), (40, 11)])
def test_each_probe_report_equals_a_loop_over_the_batch(n, samples, seed):
    # the probes' array expressions against plain loops over the same batch:
    # every margin bit for bit, and the first worst entry in radius-major
    # order as its label
    batch = probe_batch(n, samples, seed)
    schwarz_pick, conjecture = _loop_reports(batch)
    assert probe_schwarz_pick(batch) == schwarz_pick
    if n != 3:
        assert probe_conjecture(batch) == conjecture


@pytest.mark.parametrize("n", [3, 4, 12])
def test_each_probe_location_holds_its_margin(n):
    # every probe check's margin is the entry of the batch's arrays at its
    # label, recomputed one entry at a time
    batch = probe_batch(n, 25, 1)
    m = len(batch.data)

    def entry(check):
        if check.at == "":  # no positive error: no location
            return 0.0
        fields = dict(field.split("=") for field in check.at.split(","))
        j = round(float(fields["rho"]) / 0.09)
        rho = RADII[j]
        assert f"{rho:.3f}" == fields["rho"]
        scale = 1.0 - rho * rho
        if check.name == "extremal_attains_pointwise_bound":
            return abs(abs(float(batch.slopes.value[j, m + j])) - capital_c(BoundQuery(n, rho)).value) * scale
        i = int(fields["sample"])
        lhs, const = abs(float(batch.slopes.value[j, i])) * scale, gradient_bound(n, rho) * scale
        if check.name == "bound_dominates":
            return lhs - const
        if check.name == "sup_ratio":
            return lhs / const
        u = float(batch.values.value[j, i])
        ratio = abs(float(batch.slopes.value[j, i])) * scale / ((1.0 - u * u) * schwarz_pick_constant(n))
        return ratio if check.name == "max_ratio" else ratio - 1.0

    reports = [probe_schwarz_pick(batch)] + ([] if n == 3 else [probe_conjecture(batch)])
    checks = [check for report in reports for check in report.checks]
    assert len(checks) == (3 if n == 3 else 5)
    for check in checks:
        assert entry(check) == check.worst_margin, check.name


def test_probes_read_tied_entries_in_radius_major_order():
    # infinite slopes at (radius 0, sample 1) and (radius 1, sample 0) tie
    # exactly in every probe check; radius-major order reports the first,
    # column-major order would report the second
    batch = probe_batch(4, 3, 1)
    slopes = batch.slopes.value.copy()
    slopes[0, 1] = slopes[1, 0] = np.inf
    tied = batch._replace(slopes=Evaluation(slopes, batch.slopes.error_estimate))
    checks = {c.name: c for report in (probe_schwarz_pick(tied), probe_conjecture(tied)) for c in report.checks}
    for name in ("bound_dominates", "sup_ratio", "max_ratio", "no_counterexample"):
        assert (checks[name].worst_margin, checks[name].at) == (math.inf, "sample=1,rho=0.000"), name
    assert not checks["bound_dominates"].passed and not checks["no_counterexample"].passed
