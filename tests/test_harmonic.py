import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ballgrad import harmonic
from ballgrad.bounds import (
    BoundQuery,
    capital_c,
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
from ballgrad.quadrature import band_node_table, zonal_band_integrals, zonal_sphere_integral


class TestZonalBoundaryData:
    def test_band_lookup(self):
        g = ZonalBoundaryData((-0.5, 0.5), (1.0, -0.25, 0.75))
        assert g(-0.9) == 1.0
        assert g(0.0) == -0.25
        assert g(0.9) == 0.75
        np.testing.assert_allclose(g(np.array([-0.9, 0.0, 0.9])), [1.0, -0.25, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            ZonalBoundaryData((0.5, -0.5), (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ZonalBoundaryData((0.0,), (2.0, 0.0))
        with pytest.raises(ValueError):
            ZonalBoundaryData((1.0,), (0.5, 0.5))
        with pytest.raises(ValueError):
            ZonalBoundaryData((0.0,), (0.5,))

    def test_rejects_nan_value(self):
        # abs(nan) > 1 is False, so the bound must be written as not <= 1
        with pytest.raises(ValueError):
            ZonalBoundaryData((0.0,), (math.nan, 1.0))

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
        val = zonal_sphere_integral(lambda t: poisson_kernel(n, rho, t), n)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestZonalPoissonValue:
    def test_hemisphere_odd_symmetry(self):
        assert zonal_poisson_value(3, hemisphere_datum(), AxisPoint(0.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_constant_datum(self):
        ones = ZonalBoundaryData((), (1.0,))
        for n, rho in ((3, 0.3), (5, 0.8)):
            assert zonal_poisson_value(n, ones, AxisPoint(rho)) == pytest.approx(1.0, abs=1e-11)

    def test_hemisphere_closed_form_dimension_three(self):
        # antiderivative of the kernel in t gives u(rho) = (1 - (1-rho^2)/sqrt(1+rho^2))/rho
        rho = 0.5
        expected = (1.0 - 0.75 / math.sqrt(1.25)) / 0.5
        got = zonal_poisson_value(3, hemisphere_datum(), AxisPoint(rho))
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
        exact = zonal_poisson_value(n, hemisphere_datum(), AxisPoint(rho))
        assert exact == pytest.approx(mc, abs=1e-3)

    def test_maximum_principle(self):
        for seed in range(8):
            datum = random_zonal_data(seed, 6)
            for rho in (0.0, 0.4, 0.85):
                val = zonal_poisson_value(4, datum, AxisPoint(rho))
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
            val = zonal_sphere_integral(lambda t: radial_derivative_kernel(n, rho, t), n)
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
        assert radial_derivative(5, ones, AxisPoint(0.6)) == pytest.approx(0.0, abs=1e-10)

    def test_hemisphere_at_origin_attains_constant(self):
        val = radial_derivative(4, hemisphere_datum(), AxisPoint(0.0))
        assert val == pytest.approx(16.0 / (3.0 * math.pi), abs=1e-9)

    def test_extremal_sign_datum_attains_pointwise_bound(self):
        for n in (3, 4, 5):
            for rho in (0.0, 0.4, 0.8):
                datum = extremal_sign_datum(n, rho)
                val = abs(radial_derivative(n, datum, AxisPoint(rho)))
                target = capital_c(BoundQuery(n, rho))
                assert val == pytest.approx(target, abs=1e-6)

    def test_dominated_by_radial_sup(self):
        for seed in range(10):
            datum = random_zonal_data(seed, 5)
            for rho in (0.0, 0.3, 0.7):
                lhs = abs(radial_derivative(4, datum, AxisPoint(rho)))
                assert lhs <= sharp_radial_sup(4, AxisPoint(rho)) + 1e-9


class TestExtremalGradientAtOrigin:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_schwarz_pick(self, n):
        assert extremal_gradient_at_origin(n) == pytest.approx(
            schwarz_pick_constant(n), abs=1e-8
        )

    def test_known_values(self):
        assert extremal_gradient_at_origin(3) == pytest.approx(1.5, abs=1e-10)
        assert extremal_gradient_at_origin(2) == pytest.approx(4.0 / math.pi, abs=1e-10)


class TestSharpRadialSup:
    def test_origin_dimension_four(self):
        assert sharp_radial_sup(4, AxisPoint(0.0)) == pytest.approx(
            16.0 / (3.0 * math.pi), abs=1e-9
        )

    def test_matches_pointwise_bound(self):
        assert sharp_radial_sup(5, AxisPoint(0.5)) == pytest.approx(
            capital_c(BoundQuery(5, 0.5)), abs=1e-6
        )

    def test_matches_khavinson_radial(self):
        assert sharp_radial_sup(3, AxisPoint(0.7)) == pytest.approx(
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
            harmonic._probe_batch(4, -1, 3, (0.0,))


class TestProbes:
    def test_schwarz_pick_probe_passes(self):
        report = probe_schwarz_pick(4, samples=20, seed=7)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["bound_dominates", "sup_ratio", "extremal_attains_pointwise_bound"]
        sup = report.checks[1]
        # the hemisphere datum at the origin attains the constant
        assert sup.worst_margin == pytest.approx(1.0, abs=1e-9)
        assert sup.at == "sample=0,rho=0.000"

    def test_schwarz_pick_probe_dimension_three_strict(self):
        report = probe_schwarz_pick(3, samples=15, seed=7)
        assert report.passed
        sup = next(c for c in report.checks if c.name == "sup_ratio")
        assert sup.worst_margin < 1.0  # strictness: the constant is never attained

    def test_schwarz_pick_probe_disk(self):
        assert probe_schwarz_pick(2, samples=15, seed=7).passed

    def test_conjecture_probe_dimension_two_is_theorem(self):
        report = probe_conjecture(2, samples=25, seed=3)
        assert report.passed
        no_cx = next(c for c in report.checks if c.name == "no_counterexample")
        assert no_cx.passed and not no_cx.expected

    def test_conjecture_probe_observational_high_dimension(self):
        report = probe_conjecture(5, samples=25, seed=3)
        no_cx = next(c for c in report.checks if c.name == "no_counterexample")
        assert no_cx.expected  # a violation would be recorded, not an error
        ratio = next(c for c in report.checks if c.name == "max_ratio")
        assert 0.0 < ratio.worst_margin <= 1.0 + 1e-9

    def test_conjecture_probe_rejects_dimension_three(self):
        with pytest.raises(ValueError):
            probe_conjecture(3, samples=5, seed=0)

    @pytest.mark.parametrize("probe", [probe_schwarz_pick, probe_conjecture])
    def test_empty_radius_grid_is_refused(self, probe):
        # no radius means no evidence: a pass would be a silent verdict
        with pytest.raises(ValueError, match="rho_grid"):
            probe(4, samples=3, rho_grid=[])

    def test_probes_of_one_command_share_one_draw(self, capsys, monkeypatch):
        cached, seeded = harmonic._probe_batch, harmonic._seeded_rng
        batches = []
        draws = []

        def recording(*args):
            batches.append(cached(*args))
            return batches[-1]

        def drawing(seed):
            draws.append(seed)
            return seeded(seed)

        monkeypatch.setattr(harmonic, "_probe_batch", recording)
        monkeypatch.setattr(harmonic, "_seeded_rng", drawing)
        cached.cache_clear()
        argv = ["probe", "--n", "4", "--samples", "5", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(batches) == 2 and batches[0] is batches[1] and draws == [11]
        assert main([*argv[:-1], "12"]) == 0
        assert batches[2] is not batches[0] and draws == [11, 12]
        # the cache holds one batch: the second seed evicted the first, which
        # is drawn again, equal to it, and prints the same bytes
        assert main(argv) == 0
        assert batches[4] is not batches[0] and draws == [11, 12, 11]
        assert batches[4][0] == batches[0][0] and batches[4][3] == batches[0][3]
        assert cached.cache_info().currsize == 1
        assert capsys.readouterr().out.endswith(first)

    def test_hemisphere_equality_case(self):
        # ratio exactly 1 at the origin: u(0) = 0 and the gradient attains
        # the constant
        report = probe_conjecture(4, samples=1, seed=0)
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
    integrals.  Returns the values and the engine's estimate."""
    cuts = np.array(sorted(set().union(*(datum.breakpoints for datum in data))))
    edges = np.concatenate(([-1.0], cuts, [1.0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    band_values = np.array([datum(mids) for datum in data])
    integrals, estimate = zonal_band_integrals(lambda t: kernel(n, rho, t), band_node_table(n, cuts))
    return (band_values @ integrals).tolist(), estimate


def _hex(values):
    return [float(v).hex() for v in values]


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
    # give every value bit for bit as a batch built anew for each call,
    # and its slopes must be those values
    radii = (rho, 0.0, 0.9)
    probe_data, band_values, table, slopes_at, estimates = harmonic._probe_batch(n, seed, samples, radii)
    data = [*probe_data, *(extremal_sign_datum(n, r) for r in radii)]
    for r, slopes, estimate in zip(radii, slopes_at, estimates):
        want, want_estimate = _per_batch_extension(radial_derivative_kernel, n, data, r)
        assert _hex(slopes) == _hex(want) and estimate == want_estimate
        for kernel in (poisson_kernel, radial_derivative_kernel):
            want = _hex(_per_batch_extension(kernel, n, data, r)[0])
            assert _hex(harmonic._band_extension(kernel, n, r, band_values, table)[0]) == want
            assert _hex(harmonic._zonal_extension(kernel, n, data, r)) == want


RADII = tuple(float(rho) for rho in np.linspace(0.0, 0.9, 11))


@pytest.mark.parametrize("n", [2, 4, 12])
def test_each_probe_builds_one_node_table(monkeypatch, n):
    # either probe run first builds the batch's one node table, over the
    # data's and every radius's extremal cuts; the other, run after it,
    # builds none, and no engine call builds its own.  Per radius the batch
    # makes one engine call for the shared slopes and the conjecture probe
    # one for the Poisson kernel
    built = []
    engine = []

    def building(n, cuts, spec=None):
        built.append(np.asarray(cuts).size + 1)
        return band_node_table(n, cuts, spec)

    def integrating(f, table, spec=None):
        engine.append(len(table[4]) - 1)
        return zonal_band_integrals(f, table, spec)

    monkeypatch.setattr(harmonic, "band_node_table", building)
    monkeypatch.setattr(harmonic, "zonal_band_integrals", integrating)
    harmonic._probe_batch.cache_clear()
    full = harmonic._probe_batch(n, 3, 25, RADII)[1].shape[1]
    for first, second, calls in (
        (probe_conjecture, probe_schwarz_pick, (2 * len(RADII), 0)),
        (probe_schwarz_pick, probe_conjecture, (len(RADII), len(RADII))),
    ):
        harmonic._probe_batch.cache_clear()
        built.clear()
        engine.clear()
        first(n, samples=25, seed=3)
        assert built == [full] and engine == [full] * calls[0]
        second(n, samples=25, seed=3)
        assert built == [full] and engine == [full] * sum(calls)


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_probe_attains_the_sharp_radial_sup_at_every_radius(n):
    # at radius j the row after the samples' j-th is the extremal datum's:
    # it must agree with sharp_radial_sup, the datum's own single-cut
    # route, within the two engine estimates
    samples = 25
    assert probe_schwarz_pick(n, samples=samples, seed=5).passed
    _, _, _, slopes_at, estimates = harmonic._probe_batch(n, 5, samples, RADII)
    assert harmonic._probe_batch.cache_info().hits >= 1
    for j, (rho, slopes, estimate) in enumerate(zip(RADII, slopes_at, estimates)):
        cut = extremal_sign_datum(n, rho).breakpoints
        _, own_estimate = zonal_band_integrals(
            lambda t: radial_derivative_kernel(n, rho, t), band_node_table(n, cut)
        )
        assert abs(slopes[samples + j] - sharp_radial_sup(n, AxisPoint(rho))) <= estimate + own_estimate


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), samples=st.integers(1, 30), n=st.sampled_from([2, 4, 5, 12]))
@example(seed=7, samples=25, n=12)
def test_shared_batch_agrees_with_the_data_only_route(seed, samples, n):
    # the oracle is the conjecture probe's former cut set, made of its data
    # alone: both kernels' values on the shared batch, whose cuts add every
    # radius's extremal cut, must agree with it within the two estimates
    harmonic._probe_batch.cache_clear()
    alone = probe_conjecture(n, samples, seed=seed)
    harmonic._probe_batch.cache_clear()
    probe_schwarz_pick(n, samples, seed=seed)
    hits = harmonic._probe_batch.cache_info().hits
    assert probe_conjecture(n, samples, seed=seed) == alone
    assert harmonic._probe_batch.cache_info().hits == hits + 1

    data, band_values, table, slopes_at, estimates = harmonic._probe_batch(n, seed, samples, RADII)
    for rho, slopes, estimate in zip(RADII, slopes_at, estimates):
        shared = (
            (radial_derivative_kernel, slopes, estimate),
            (poisson_kernel, *harmonic._band_extension(poisson_kernel, n, rho, band_values, table)),
        )
        for kernel, values, shared_estimate in shared:
            own, own_estimate = _per_batch_extension(kernel, n, data, rho)
            for value, want in zip(values, own):
                assert abs(value - want) <= shared_estimate + own_estimate


@pytest.mark.parametrize("n", [2, 3, 4, 12, 44])
@pytest.mark.parametrize("samples, seed", [(200, 7), (25, 1), (25, 2)])
def test_probe_slack_exceeds_the_engine_error(n, samples, seed):
    # the 1e-9 slack of each probe verdict must exceed what the engine's
    # estimates can move its margin.  bound_dominates: (1 - rho^2) times
    # the slope estimate.  no_counterexample: the first-order error that
    # the slope and value estimates carry into each ratio
    # |du| (1 - rho^2) / ((1 - u^2) C_n), and so into their largest.  The
    # (samples, seed) pairs are those of the pinned commands.
    data, band_values, table, slopes_at, estimates = harmonic._probe_batch(n, seed, samples, RADII)
    sp = schwarz_pick_constant(n)
    worst_bound = 0.0
    ratios, errors = [], []
    for rho, slopes, slope_estimate in zip(RADII, slopes_at, estimates):
        worst_bound = max(worst_bound, (1.0 - rho * rho) * slope_estimate)
        if n == 3:
            continue
        values, value_estimate = harmonic._band_extension(poisson_kernel, n, rho, band_values, table)
        for u, du in zip(values[: len(data)], slopes):
            # the probe's own expression, so that the largest is its max_ratio
            ratios.append(abs(du) * (1.0 - rho * rho) / ((1.0 - u * u) * sp))
            scale = (1.0 - rho * rho) / ((1.0 - u * u) * sp)
            errors.append(scale * slope_estimate + ratios[-1] * 2.0 * abs(u) / (1.0 - u * u) * value_estimate)
    assert 0.0 < worst_bound < 1e-9
    if n == 3:
        return
    ratios, errors = np.array(ratios), np.array(errors)
    top = ratios.max()
    assert probe_conjecture(n, samples, seed=seed).checks[0].worst_margin == top
    # a row whose ratio is far below the largest cannot move it, however
    # ill-conditioned (u near +-1): at n = 44 the hemisphere datum at
    # rho = 0.9 has 1 - u^2 ~ 2e-7 and carries ~1e-7 into its ratio 0.56
    assert max((ratios + errors).max() - top, top - (ratios - errors).max()) < 1e-9
