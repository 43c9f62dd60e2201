import hashlib
import json
import math
import re
import struct
from itertools import chain, islice
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_gegenbauer
from scipy.special import hyp2f1 as scipy_hyp2f1

from ballgrad import cli, specfun
from ballgrad.errors import ConvergenceError
from ballgrad.phi import phi_second_series, phi_series
from ballgrad.quadrature import QuadratureSpec, integrate
from ballgrad.specfun import (
    DEFAULT_SERIES_RTOL,
    HypergeometricInput,
    _gegenbauer,
    _kernel_moment_quadrature,
    abs_kernel_coefficient,
    gegenbauer_iter,
    gegenbauer_weighted_derivative,
    hyp2f1,
    profile_hyp2f1,
    verify_identities,
)


def _per_degree(lam, x, **kwargs):
    """The values of ``gegenbauer_iter`` one degree at a time."""
    return chain.from_iterable(gegenbauer_iter(lam, x, **kwargs))


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert next(_per_degree(1.3, 0.4)) == 1.0

    def test_degree_one_linear(self):
        # parameter (n-2)/2 at n = 5: value (n-2) x
        assert _gegenbauer(1.5, 1, 0.4) == pytest.approx(1.2, rel=1e-15)

    def test_degree_two_chebyshev_u(self):
        # parameter 1 gives 4 x^2 - 1, which vanishes at 1/2
        assert _gegenbauer(1.0, 2, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5, 4.0])
    def test_against_scipy(self, lam):
        for x in np.linspace(-1.0, 1.0, 9):
            ours = list(islice(_per_degree(lam, float(x)), 12))
            for k in range(0, 12):
                ref = eval_gegenbauer(k, lam, float(x))
                assert ours[k] == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_array_input_matches_scalar_calls(self):
        xs = np.linspace(-1.0, 1.0, 9)
        for lam in (0.5, 1.5, 4.0):
            for k in range(0, 12):
                values = _gegenbauer(lam, k, xs)
                assert values.shape == xs.shape
                assert values.tolist() == [_gegenbauer(lam, k, float(x)) for x in xs]

    # sha256 of the values of the former float-parameter path (one float
    # parameter, one float point per call), recorded before it was folded
    # into the array path: degrees 0..3000 at linspace(-0.99, 0.99, 7),
    # degree-major, each degree's seven values as little-endian float64
    FLOAT_PATH_SHA256 = {
        0.5: "53967cd0c32a48745deb8e8faa0be6e3d65e70a1cea4219eea7bc02f25f861f0",
        1.0: "15287a761894b27d1936cb18616ef880c6d4c151c33bc19efcc06c75c53413d0",
        1.5: "77af88900c6e7e3cd82dffe4c94633f1fbca60df5ec377ecbac78602ac1afa55",
        2.5: "3b17ee56d2df2174dabac7e8a6b4aa50c797fcc1c30b010764fbf7cf26a79327",
        7.0: "00e59451bcce7455ec92359848f3cd98c9e6791ef414f7ae7573b96ec31d3bf7",
        22.0: "135180447bb98b14614b9b4f677c71c395cfd99bdd73ab3215f02742673c3f74",
    }

    @pytest.mark.parametrize("lam", sorted(FLOAT_PATH_SHA256))
    def test_reproduces_the_recorded_float_path(self, lam):
        xs = np.linspace(-0.99, 0.99, 7)
        one_point_calls = np.array(list(zip(*(islice(_per_degree(lam, x), 3001) for x in xs.tolist()))))
        oracle = np.array(list(zip(*(islice(_float_path(lam, x), 3001) for x in xs.tolist()))))
        assert oracle.tobytes() == one_point_calls.tobytes()
        for parameter, points in ((lam, xs), (np.array([lam]), xs), (lam, xs.tolist())):
            values = np.array(list(islice(_per_degree(parameter, points), 3001)))
            assert values.shape == (3001, 7)
            assert values.tobytes() == one_point_calls.tobytes()
        assert hashlib.sha256(one_point_calls.astype("<f8").tobytes()).hexdigest() == self.FLOAT_PATH_SHA256[lam]

    def test_parameter_column_broadcasts_against_a_row_of_points(self):
        lams = np.array([0.5, 2.5, 22.0])
        xs = np.linspace(-0.95, 0.95, 5)
        arrays = list(islice(_per_degree(lams[:, None], xs[None, :]), 3001))
        for i, lam in enumerate(lams.tolist()):
            for j, x in enumerate(xs.tolist()):
                expected = list(islice(_per_degree(lam, x), 3001))
                assert [float(values[i, j]) for values in arrays] == expected, (lam, x)

    def test_blocks_open_at_64_up_to_the_cap(self, monkeypatch):
        # degrees 0 and 1, then max(k + 2, 64) degrees from degree k, at most 128
        sizes = [block.shape[0] for block in islice(gegenbauer_iter(1.5, np.zeros(3)), 6)]
        assert sizes == [2, 64, 68, 128, 128, 128]
        for k, size in ((2, 64), (61, 64), (62, 64), (63, 65), (126, 128), (2000, 128)):
            restarted = gegenbauer_iter(1.5, np.zeros(3), state=(k, np.ones(3), np.ones(3)))
            assert next(restarted).shape[0] == size, k
        assert [block.shape[0] for block in gegenbauer_iter(1.5, 0.3, stop=70)] == [2, 64, 5]
        monkeypatch.setattr(specfun, "_GEGENBAUER_BLOCK", 5)
        assert [block.shape for block in islice(gegenbauer_iter(1.5, 0.3), 4)] == [(2,), (5,), (5,), (5,)]

    @pytest.mark.parametrize("stop", [0, 1, 2, 5, 6, 300, 3000, np.int64(300)])
    def test_stop_cuts_the_last_block(self, stop):
        lams, xs = np.array([[0.5], [7.0]]), np.linspace(-0.99, 0.99, 7)
        blocks = list(gegenbauer_iter(lams, xs, stop=stop))
        assert [block.shape[1:] for block in blocks] == [(2, 7)] * len(blocks)
        values = np.concatenate(blocks)
        assert values.tobytes() == np.array(list(islice(_per_degree(lams, xs), stop + 1))).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 6, 133, 2000])
    def test_restart_from_two_values_repeats_the_recurrence(self, k):
        # restarted on some of the points from their values at degrees
        # k - 2 and k - 1, the recurrence gives the same bits as one call
        lams, xs = np.array([[0.5], [2.5], [22.0]]), np.linspace(-0.99, 0.99, 9)
        values = np.array(list(islice(_per_degree(lams, xs), k + 400)))
        some = [0, 4, 5, 8]
        state = (k, values[k - 2][:, some], values[k - 1][:, some])
        restarted = list(islice(_per_degree(lams, xs[some], state=state), 400))
        assert np.array(restarted).tobytes() == values[k:][:, :, some].tobytes()

    @given(
        lam=st.floats(0.5, 4.0),
        k=st.integers(min_value=0, max_value=15),
        x=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_parity(self, lam, k, x):
        plus = _gegenbauer(lam, k, x)
        minus = _gegenbauer(lam, k, -x)
        assert minus == pytest.approx((-1.0) ** k * plus, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("width", [4, 40])
    def test_point_layout_does_not_change_values(self, width):
        # a Fortran-ordered or reversed array of points gives the values of its C-ordered copy
        xs = np.linspace(-0.9, 0.9, width)
        expected = np.concatenate(list(gegenbauer_iter(1.5, xs.reshape(2, -1), stop=300)))
        for points in (np.asfortranarray(xs.reshape(2, -1)), xs[::-1].reshape(2, -1)[::-1, ::-1]):
            values = np.concatenate(list(gegenbauer_iter(1.5, points, stop=300)))
            assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stop": -1},
            {"stop": -300},
            {"stop": 2.5},
            {"stop": True},
            {"state": (1, [1.0], [0.6])},
            {"state": (0, [1.0], [0.6])},
            {"state": (2.0, [1.0], [0.6])},
            {"state": (False, [1.0], [0.6])},
            {"state": (3, [1.0, 1.0], [0.6, 0.6])},
            {"state": (3, [1.0], [])},
        ],
    )
    def test_rejects_bad_stop_or_state(self, kwargs):
        with pytest.raises(ValueError):
            gegenbauer_iter(1.5, [0.3], **kwargs)

    @pytest.mark.parametrize(
        "lam, x",
        [(math.nan, 0.3), (math.inf, 0.3), (1.5, -math.inf), (1.5, [0.3, math.nan]), ([[1.5], [math.inf]], [0.3])],
    )
    def test_rejects_non_finite_parameters_or_points(self, lam, x):
        with pytest.raises(ValueError):
            gegenbauer_iter(lam, x)


# points appended to a call's row to make its blocks wider than the narrow cut
_WIDE_FILL = np.linspace(-0.97, 0.97, specfun._GEGENBAUER_NARROW + 1)
_CUT_WIDTHS = sorted({1, specfun._GEGENBAUER_NARROW - 1, specfun._GEGENBAUER_NARROW, specfun._GEGENBAUER_NARROW + 1})


@settings(max_examples=40, deadline=None)
@given(
    lams=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=3),
    width=st.sampled_from(_CUT_WIDTHS),
    points=st.lists(st.floats(-1.0, 1.0), min_size=max(_CUT_WIDTHS), max_size=max(_CUT_WIDTHS)),
    stop=st.integers(0, 500),
    restart=st.integers(0, 500),
)
def test_narrow_columns_equal_their_columns_in_a_wide_call(lams, width, points, stop, restart):
    # a column of parameters against a row of ``width`` points, so one
    # parameter gives a flattened width at the cut, just below or above it
    lam, xs = np.array(lams)[:, None], np.array(points[:width])
    narrow = np.concatenate(list(gegenbauer_iter(lam, xs, stop=stop)))
    wide = np.concatenate(list(gegenbauer_iter(lam, np.r_[xs, _WIDE_FILL], stop=stop)))
    assert narrow.shape == (stop + 1, len(lams), width)
    assert narrow.tobytes() == np.ascontiguousarray(wide[:, :, :width]).tobytes()
    if stop >= 2:
        # restarted at degree k from the values of degrees k - 2 and k - 1
        k = 2 + restart % (stop - 1)
        restarted = gegenbauer_iter(lam, xs, stop=stop, state=(k, narrow[k - 2], narrow[k - 1]))
        assert np.concatenate(list(restarted)).tobytes() == narrow[k:].tobytes()


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 25.0), x=st.floats(-1.0, 1.0), stop=st.integers(0, 500))
def test_zero_d_call_equals_its_column_in_a_wide_call(lam, x, stop):
    values = np.concatenate(list(gegenbauer_iter(lam, x, stop=stop)))
    wide = np.concatenate(list(gegenbauer_iter(lam, np.r_[x, _WIDE_FILL], stop=stop)))
    assert values.shape == (stop + 1,)
    assert values.tobytes() == np.ascontiguousarray(wide[:, 0]).tobytes()


def test_series_and_table_do_not_depend_on_the_narrow_cut(monkeypatch, capsys):
    # every block wide (cut 0), every block narrow (a huge cut) and the default
    radii = [0.0, 0.3, 0.9, 0.97, 0.99]
    outputs = []
    for cut in (specfun._GEGENBAUER_NARROW, 0, 10**9):
        monkeypatch.setattr(specfun, "_GEGENBAUER_NARROW", cut)
        runs = [fn(n, radii) for fn in (phi_series, phi_second_series) for n in (3, 4, 12)]
        runs = [(batch.value.tobytes(), batch.error_estimate.tobytes()) for batch in runs]
        runs.append([fn(4, 0.5).value.hex() for fn in (phi_series, phi_second_series)])
        for n in (3, 4, 12):
            for method in ("quad", "series"):
                assert cli.main(["phi-table", "--n", str(n), "--method", method, "--steps", "34"]) == 0
                runs.append(capsys.readouterr().out)
        outputs.append(runs)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


class TestHyp2F1:
    def test_zero_argument(self):
        assert hyp2f1(HypergeometricInput(1.0, 2.0, 2.5, 0.0)) == 1.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z; at z = 1/2 this is 2 log 2
        val = hyp2f1(HypergeometricInput(1.0, 1.0, 2.0, 0.5))
        assert val == pytest.approx(1.3862943611198906, rel=1e-13)

    def test_largest_in_scope_argument(self):
        # z = 3/4 is the top of the substitution range at n = 4;
        # oracle value from the raw series summed in extended precision
        val = hyp2f1(HypergeometricInput(1.0, 2.0, 2.5, 0.75))
        assert val > 1.0
        assert val == pytest.approx(2.8367983046245809, rel=1e-13)

    def test_negative_arguments_match_scipy(self):
        for a, b, c in [(1.0, 2.0, 2.5), (0.5, 1.5, 2.0), (3.5, 0.5, 4.0)]:
            for z in (-0.3, -1.0, -2.5, -8.0):
                ours = hyp2f1(HypergeometricInput(a, b, c, z))
                assert ours == pytest.approx(scipy_hyp2f1(a, b, c, z), rel=1e-12)

    def test_positive_arguments_match_scipy(self):
        for a, b, c in [(1.0, 2.0, 2.5), (1.0, 3.0, 3.5), (0.5, 0.5, 1.5)]:
            for z in (0.1, 0.5, 0.9):
                ours = hyp2f1(HypergeometricInput(a, b, c, z))
                assert ours == pytest.approx(scipy_hyp2f1(a, b, c, z), rel=1e-12)

    def test_divergent_argument_rejected(self):
        with pytest.raises(ValueError, match="divergent"):
            HypergeometricInput(1.0, 2.0, 2.5, 1.0)

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            HypergeometricInput(1.0, 2.0, -3.0, 0.5)

    def test_convergence_failure_carries_partial_sum(self):
        with pytest.raises(ConvergenceError) as excinfo:
            hyp2f1(HypergeometricInput(1.0, 1.0, 2.0, 0.9999995))
        err = excinfo.value
        assert err.value > 1.0
        assert err.error_estimate > 0.0

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 2.0, 2.5, math.nan),
            (1.0, 2.0, 2.5, -math.inf),
            (math.nan, 2.0, 2.5, 0.5),
            (1.0, math.inf, 2.5, 0.5),
            (1.0, 2.0, math.inf, 0.5),
            (1.0, 2.0, math.nan, 0.5),
            (1.0, 2.0, 2.5, [0.1, math.nan, 0.2]),
            (1.0, 2.0, 2.5, [0.1, -math.inf]),
            (1.0, 2.0, math.inf, [0.1, 0.2]),
        ],
    )
    def test_non_finite_input_rejected(self, args):
        # a NaN argument used to run the whole term budget into a
        # ConvergenceError, and c = inf to return 1.0
        with pytest.raises(ValueError, match="non-finite"):
            HypergeometricInput(*args)

    @pytest.mark.parametrize("rel_tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, rel_tol):
        # a negative tolerance used to give a negative error estimate from
        # phi_second_closed, NaN a NaN one, and inf a value far off with an
        # infinite estimate
        for z in (0.5, -2.0, [0.5, -2.0]):
            with pytest.raises(ValueError, match="rel_tol"):
                hyp2f1(HypergeometricInput(1.0, 2.0, 2.5, z), rel_tol)


PROFILE_DIMENSIONS = [*range(3, 13), 20, 30, 44, 45, 101, 200, 500, 1000]
UNIT_ROUNDOFF = 2.0**-53


def _switch(n):
    """z* = (a+1)/(a+5/2), a = (n-1)/2: the continued fraction runs below it."""
    a = 0.5 * (n - 1)
    return (a + 1.0) / (a + 2.5)


def _profile_arguments(n):
    """Arguments on both sides of z*, z* itself and the float below it, and
    the profile's largest argument (n-1)/n."""
    zs = _switch(n)
    return [0.0, 1e-8, 0.1, 0.3, 0.5, 0.9 * zs, math.nextafter(zs, 0.0), zs, 0.5 * (zs + 1.0), (n - 1) / n,
            0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9]


def _mp_profile(n, z):
    with mpmath.workdps(50):
        return mpmath.hyp2f1(1, mpmath.mpf(n) / 2, mpmath.mpf(n + 1) / 2, mpmath.mpf(z))


class TestProfileHyp2F1:
    """F_n(z) = 2F1(1, n/2; (n+1)/2; z) by its incomplete-beta continued
    fraction below z* and the finite Wallis complement from z* on."""

    @pytest.mark.parametrize("n", PROFILE_DIMENSIONS)
    def test_against_mpmath_within_the_estimate(self, n):
        zs = _profile_arguments(n)
        result = profile_hyp2f1(n, zs)
        for z, value, estimate in zip(zs, result.value, result.error_estimate):
            exact = _mp_profile(n, z)
            error = float(abs(value - exact))
            assert error <= estimate, z
            # within 6 n u relative everywhere tried, against an estimate of 8 n u
            assert error <= 6.0 * n * UNIT_ROUNDOFF * float(exact), z
            assert estimate <= (8.0 * n + 3.0) * UNIT_ROUNDOFF * abs(value), z

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 20, 44, 45])
    def test_against_the_gauss_series(self, n):
        # where the general series converges fast, the two routes agree
        zs = np.linspace(0.0, 0.9, 19)
        series = hyp2f1(HypergeometricInput(1.0, 0.5 * n, 0.5 * (n + 1), zs))
        assert profile_hyp2f1(n, zs).value == pytest.approx(series, rel=1e-12, abs=0.0)

    def test_dimension_three_closed_form(self):
        # F_3(z) = 2 / (sqrt(1-z) (1 + sqrt(1-z))), on both sides of z* = 4/7
        zs = [*np.linspace(0.0, 0.99, 100), _switch(3), math.nextafter(_switch(3), 0.0), 1.0 - 1e-9]
        result = profile_hyp2f1(3, zs)
        for z, value, estimate in zip(zs, result.value, result.error_estimate):
            root = math.sqrt(1.0 - z)
            # the closed form's own rounding (a few u) fits in the estimate: 24 u of
            # rounding and a last step of at most 2 u, up to the rounding of their sum
            assert abs(value - 2.0 / (root * (1.0 + root))) <= estimate <= 27.0 * UNIT_ROUNDOFF * value, z

    def test_zero_argument(self):
        for n in (3, 4, 1000):
            result = profile_hyp2f1(n, 0.0)
            assert result.value == 1.0 and 0.0 < result.error_estimate < 1e-12

    @pytest.mark.parametrize("n", [2, 3.5, True, math.nan, math.inf, -4])
    def test_bad_dimension_rejected(self, n):
        with pytest.raises(ValueError, match="dimension"):
            profile_hyp2f1(n, 0.5)

    @pytest.mark.parametrize("z", [-0.1, 1.0, 1.5, math.nan, math.inf, [], [[0.5]], [0.5, 1.0], [0.5, -1e-300]])
    def test_argument_outside_the_unit_interval_rejected(self, z):
        with pytest.raises(ValueError, match=r"z must lie in \[0, 1\)"):
            profile_hyp2f1(4, z)

    @pytest.mark.parametrize("n", [3, 4, 12, 101])
    def test_a_fraction_past_its_cap_raises(self, monkeypatch, n):
        # never a silent value: the entry still moving carries its value so
        # far.  The complement runs no fraction, so z* itself is not refused
        # and the float below it is: the switch sits exactly at z*
        monkeypatch.setattr(specfun, "_PROFILE_CF_CAP", 3)
        with pytest.raises(ConvergenceError, match="continued fraction") as excinfo:
            profile_hyp2f1(n, [0.0, math.nextafter(_switch(n), 0.0)])
        assert excinfo.value.value > 1.0 and excinfo.value.error_estimate > 0.0
        assert profile_hyp2f1(n, [_switch(n), 1.0 - 1e-9]).value.min() > 1.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(PROFILE_DIMENSIONS),
    zs=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=60),
    rng=st.randoms(use_true_random=False),
)
def test_profile_batches_equal_their_one_argument_calls(n, zs, rng):
    # unsorted, with duplicates, z* and the float below it: each entry has
    # the bits of its one-argument call, value and estimate
    args = [*zs, *zs[:3], _switch(n), math.nextafter(_switch(n), 0.0), 0.0, (n - 1) / n]
    rng.shuffle(args)
    batch = profile_hyp2f1(n, args)
    for z, value, estimate in zip(args, batch.value.tolist(), batch.error_estimate.tolist()):
        single = profile_hyp2f1(n, z)
        assert (value.hex(), estimate.hex()) == (single.value.hex(), single.error_estimate.hex()), z


HYP_FIXTURE = json.loads((Path(__file__).parent / "hyp2f1_fixture.json").read_text())
# (a, b, c, rel_tol) -> {z: value} as the one-argument scalar loop summed them
RECORDED = {
    tuple(map(float.fromhex, (rec["a"], rec["b"], rec["c"], rec["rel_tol"]))): dict(
        zip(map(float.fromhex, rec["z"]), map(float.fromhex, rec["values"]))
    )
    for rec in HYP_FIXTURE["sets"]
}
# the z grid recorded for every package parameter set
GRID = [float.fromhex(z) for z in HYP_FIXTURE["grid"]]


def _package_set(n, upper, degree):
    """The package's 2F1(1, n/2; (n+1)/2; z), its Pfaff image (a = c - 1)
    or a nonpositive integer a, where a zero term stops the sum."""
    b, c = 0.5 * n, 0.5 * (n + 1)
    return {"one": 1.0, "c-1": c - 1.0, "polynomial": -float(degree)}[upper], b, c


class TestBatchedHyp2F1:
    """Every call is summed as one batch; every entry must be the value the
    one-argument scalar loop gave (``hyp2f1_fixture.json``), bit for bit."""

    def test_sequence_gives_an_array_in_input_order(self):
        zs = np.array([0.5, -2.0, 0.0, 0.25])
        inp = HypergeometricInput(1.0, 2.0, 2.5, zs)
        assert inp.z == (0.5, -2.0, 0.0, 0.25)
        values = hyp2f1(inp)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64 and values.shape == (4,)
        recorded = RECORDED[(1.0, 2.0, 2.5, DEFAULT_SERIES_RTOL)]
        assert [v.hex() for v in values.tolist()] == [recorded[z].hex() for z in zs.tolist()]
        assert hyp2f1(HypergeometricInput(1.0, 2.0, 2.5, [0.5])).tobytes() == values[:1].tobytes()

    def test_four_numbers_give_a_float(self):
        value = hyp2f1(HypergeometricInput(1.0, 2.0, 2.5, -2.0))
        assert type(value) is float
        assert value.hex() == RECORDED[(1.0, 2.0, 2.5, DEFAULT_SERIES_RTOL)][-2.0].hex()

    def test_every_recorded_set_alone(self):
        for (a, b, c, rel_tol), recorded in RECORDED.items():
            values = hyp2f1(HypergeometricInput(a, b, c, list(recorded)), rel_tol)
            assert [v.hex() for v in values] == [v.hex() for v in recorded.values()], (a, b, c, rel_tol)

    @pytest.mark.parametrize("rel_tol", sorted({key[3] for key in RECORDED}))
    def test_all_recorded_sets_in_one_mixed_call(self, rel_tol):
        rows = [(a, b, c, z) for (a, b, c, t), values in RECORDED.items() if t == rel_tol for z in values]
        values = hyp2f1(HypergeometricInput(*zip(*rows)), rel_tol)
        assert [v.hex() for v in values] == [RECORDED[(a, b, c, rel_tol)][z].hex() for a, b, c, z in rows]

    @pytest.mark.parametrize("zs", [[], np.zeros((2, 2)), [0.2, 1.0], [0.5, 1.5]])
    def test_bad_sequences_rejected(self, zs):
        with pytest.raises(ValueError):
            HypergeometricInput(1.0, 2.0, 2.5, zs)

    @pytest.mark.parametrize(
        "args, match",
        [
            (([1.0, 2.0], 2.0, 2.5, [0.1, 0.2, 0.3]), "equal lengths"),
            ((1.0, [2.0, 2.5], [2.5, 3.0, 3.5], 0.5), "equal lengths"),
            (([1.0], 2.0, 2.5, [0.1, 0.2]), "equal lengths"),
            (([1.0, math.nan], 2.0, 2.5, [0.1, 0.2]), "non-finite"),
            ((1.0, [2.0, math.inf], 2.5, 0.5), "non-finite"),
            ((1.0, 2.0, [2.5, -3.0], [0.1, 0.2]), "pole"),
            ((1.0, 2.0, [2.5, 0.0], 0.5), "pole"),
            (([1.0, 2.0], 2.0, 2.5, [0.1, 1.0]), "divergent"),
            ((np.zeros((2, 2)), 2.0, 2.5, 0.5), "a must be"),
            ((1.0, [], 2.5, 0.5), "b must be"),
        ],
    )
    def test_parameter_sequences_are_validated_entrywise(self, args, match):
        with pytest.raises(ValueError, match=match):
            HypergeometricInput(*args)

    def test_numbers_stand_for_every_entry(self):
        inp = HypergeometricInput([1.0, 2.0], 1.5, np.float64(3.0), [0.1, 0.7])
        assert (inp.a, inp.b, inp.c, inp.z) == ((1.0, 2.0), 1.5, 3.0, (0.1, 0.7))
        entries = [hyp2f1(HypergeometricInput(a, 1.5, 3.0, z)) for a, z in [(1.0, 0.1), (2.0, 0.7)]]
        assert hyp2f1(inp).tolist() == entries

    def test_convergence_failure_matches_the_scalar_call(self):
        recorded = HYP_FIXTURE["convergence_error"]
        a, b, c = recorded["a"], recorded["b"], recorded["c"]
        for z in (recorded["z"], [0.5, recorded["z"], 0.0]):
            with pytest.raises(ConvergenceError) as failure:
                hyp2f1(HypergeometricInput(a, b, c, z))
            assert str(failure.value) == recorded["message"]
            assert failure.value.value.hex() == recorded["value"]
            assert float(failure.value.error_estimate).hex() == recorded["error_estimate"]

    def test_memory_stays_bounded(self, traced_growth):
        # passes of arguments hold their terms until each argument stops; a
        # long sequence must not hold more than about one pass at a time
        inp = HypergeometricInput(1.0, 2.0, 2.5, np.linspace(-1.0, 0.75, 10_000))
        result, growth = traced_growth(
            lambda: hyp2f1(inp), lambda: hyp2f1(HypergeometricInput(1.0, 2.0, 2.5, [-0.5, 0.5]))
        )
        assert len(result) == 10_000
        assert growth < 2_000_000


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5, 7, 12, 20, 44, 45]),
    upper=st.sampled_from(["one", "c-1", "polynomial"]),
    degree=st.sampled_from([0, 2, 5]),
    zs=st.lists(st.sampled_from(GRID), max_size=150),
    rng=st.randoms(use_true_random=False),
)
def test_batch_entries_equal_their_scalar_calls(n, upper, degree, zs, rng):
    # every recorded package parameter set; unsorted and duplicate
    # arguments, zero, and negative arguments through the Pfaff map, each
    # equal to the value the one-argument scalar loop recorded
    a, b, c = _package_set(n, upper, degree)
    args = [*zs, *zs[:3], 0.0]
    rng.shuffle(args)
    batch = hyp2f1(HypergeometricInput(a, b, c, args))
    assert len(batch) == len(args)
    recorded = RECORDED[(a, b, c, DEFAULT_SERIES_RTOL)]
    for z, value in zip(args, batch):
        assert value.hex() == recorded[z].hex(), z


@settings(max_examples=40, deadline=None)
@given(
    cases=st.lists(
        st.tuples(
            st.integers(3, 44),
            st.sampled_from(["one", "c-1", "polynomial"]),
            st.integers(0, 6),
            st.floats(-4.0, 0.99),
        ),
        min_size=1,
        max_size=200,
    ),
    rel_tol=st.sampled_from([DEFAULT_SERIES_RTOL, 1e-15]),
)
def test_mixed_parameter_batch_equals_its_per_set_batches(cases, rel_tol):
    # one call with a parameter set per argument against one call per
    # parameter set; 200 arguments span two passes
    rows = [(*_package_set(n, upper, degree), z) for n, upper, degree, z in cases]
    mixed = hyp2f1(HypergeometricInput(*zip(*rows)), rel_tol)
    by_set = {}
    for i, (a, b, c, z) in enumerate(rows):
        by_set.setdefault((a, b, c), []).append(i)
    for (a, b, c), index in by_set.items():
        alone = hyp2f1(HypergeometricInput(a, b, c, [rows[i][3] for i in index]), rel_tol)
        assert [mixed[i].hex() for i in index] == [v.hex() for v in alone], (a, b, c)


# (a, b, c) -> {z: value} as hyp2f1 summed them before its summation engine
# was shared with the Gegenbauer series.  With the default block sizes the
# third small term of each is the last row of a block, so the sum now stops
# on the first row of the next (0.385, 0.75, 0.846, 0.8895, -2.78 at n = 4;
# 0.385, 0.7475, -3.51 at n = 12), or it is the one before last and the
# stop falls on the last row (0.37, 0.7475, 0.845 at n = 4; 0.37 at n = 12).
BOUNDARY_STOPS = {
    (1.0, 2.0, 2.5): {
        0.385: "0x1.769f398101ca3p+0",
        0.75: "0x1.6b1c34f3dac3cp+1",
        0.846: "0x1.fb24e123103a4p+1",
        0.8895: "0x1.3c2a14118fb36p+2",
        -2.78: "0x1.4da5660ba1c72p-2",
        0.37: "0x1.6fc2952e19813p+0",
        0.7475: "0x1.689215c218c8cp+1",
        0.845: "0x1.f8ef310552b8fp+1",
    },
    (1.0, 6.0, 6.5): {
        0.385: "0x1.8e58e1b93155fp+0",
        0.7475: "0x1.ae0c0c04ac465p+1",
        -3.51: "0x1.e6eb0ce81d289p-3",
        0.37: "0x1.85d70e87e4731p+0",
    },
}


@pytest.mark.parametrize("params", list(BOUNDARY_STOPS))
def test_stops_on_a_block_boundary(params):
    recorded = BOUNDARY_STOPS[params]
    zs = list(recorded)
    for values in ([hyp2f1(HypergeometricInput(*params, z)) for z in zs], hyp2f1(HypergeometricInput(*params, zs))):
        assert [v.hex() for v in values] == list(recorded.values())


def test_a_window_closing_on_the_budget_converges():
    # the third small term of 2F1(1, 1; 2; 0.9981128) is the last of the
    # 10,000 terms the budget allows, so it converges; at 0.9981129 the sum
    # runs out, and is the first argument in sorted order to do so
    a, b, c = 1.0, 1.0, 2.0
    assert hyp2f1(HypergeometricInput(a, b, c, 0.9981128)).hex() == "0x1.923598508cdadp+2"
    with pytest.raises(ConvergenceError) as failure:
        hyp2f1(HypergeometricInput(a, b, c, [0.998113, 0.9981128, 0.9981129]))
    assert str(failure.value) == "hypergeometric series did not converge within 10000 terms"
    assert failure.value.value.hex() == "0x1.92367459966f2p+2"
    assert float(failure.value.error_estimate).hex() == "0x1.6c1b06089874fp-32"


# package parameter sets with their Pfaff images and polynomials, over
# negative arguments, zero and arguments that stop at many degrees
LAYOUT_ROWS = [
    (*_package_set(n, upper, degree), z)
    for n, upper, degree in [(3, "one", 0), (4, "c-1", 0), (12, "polynomial", 5), (44, "one", 0), (4, "polynomial", 2)]
    for z in (-3.0, -0.5, 0.0, 0.1, 0.385, 0.5, 0.75, 0.9, 0.95)
]


def test_entries_do_not_depend_on_pass_size_or_block_cap(monkeypatch):
    # one argument per pass up to one pass for all; blocks of at most 2 up
    # to 1000 degrees after the first
    expected = [hyp2f1(HypergeometricInput(*row)).hex() for row in LAYOUT_ROWS]
    for per_pass in (1, 5, 128, 1000):
        for cap in (2, 64, 1000):
            monkeypatch.setattr(specfun, "_GAUSS_PASS", per_pass)
            monkeypatch.setattr(specfun, "_GAUSS_BLOCK", cap)
            values = hyp2f1(HypergeometricInput(*zip(*LAYOUT_ROWS)))
            assert [v.hex() for v in values] == expected, (per_pass, cap)


class TestPfaffTransformation:
    @pytest.mark.parametrize("params", [(1.0, 2.0, 2.5), (0.5, 1.5, 2.0), (2.0, 1.0, 3.5)])
    def test_on_grid(self, params):
        a, b, c = params
        for z in np.linspace(0.05, 0.9, 15):
            z = float(z)
            lhs = hyp2f1(HypergeometricInput(a, b, c, z), 1e-15)
            rhs = (1.0 - z) ** (-b) * hyp2f1(HypergeometricInput(c - a, b, c, z / (z - 1.0)), 1e-15)
            assert abs(lhs - rhs) / abs(lhs) <= 1e-12


class TestContiguousRelation:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_on_grid(self, n):
        a, b, c = 1.0, 0.5 * n, 0.5 * (n + 1)
        for z in np.linspace(0.05, 0.9, 12):
            z = float(z)
            lhs = (c - b) * z * hyp2f1(HypergeometricInput(a, b, c + 1.0, z), 1e-15)
            rhs = c * hyp2f1(HypergeometricInput(a - 1.0, b, c, z), 1e-15) - c * (1.0 - z) * hyp2f1(
                HypergeometricInput(a, b, c, z), 1e-15
            )
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) <= 1e-12


class TestGeneratingRelation:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
    def test_partial_sums_match_closed_form(self, lam):
        for x in np.linspace(-0.9, 0.9, 7):
            for z in (0.1, 0.4, 0.7):
                acc = 0.0
                pw = 1.0
                for value in islice(_per_degree(lam, float(x)), 400):
                    acc += value * pw
                    pw *= z
                closed = (1.0 - 2.0 * x * z + z * z) ** (-lam)
                assert abs(acc - closed) <= 1e-10


class TestAbsKernelCoefficient:
    def test_quadrature_oracle_value(self):
        # integral of |x| sqrt(1-x^2) (4x^2-1) over [-1,1] is 2/5 by the
        # antiderivative split at 0; also equals the closed form (16/40) C_0
        assert abs_kernel_coefficient(1.0, 2, 0.0) == pytest.approx(0.4, abs=1e-12)

    def test_odd_degree_vanishes_at_center(self):
        assert abs_kernel_coefficient(1.5, 3, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_vs_brute_quadrature_frozen(self):
        # extended-precision oracle for lam=0.5, k=4, s=0.3
        assert abs_kernel_coefficient(0.5, 4, 0.3) == pytest.approx(
            -0.012766541666666667, abs=1e-9
        )

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
    def test_closed_form_matches_quadrature(self, lam):
        for k in range(2, 11):
            for s in (-0.6, 0.0, 0.45):

                def f(x, _k=k, _lam=lam, _s=s):
                    return (
                        np.abs(x - _s)
                        * ((1.0 - x) * (1.0 + x)) ** (_lam - 0.5)
                        * _gegenbauer(_lam, _k, x)
                    )

                brute = integrate(f, -1.0, 1.0, QuadratureSpec(kinks=(s,))).value
                assert abs_kernel_coefficient(lam, k, s) == pytest.approx(brute, abs=1e-9)

    def test_low_degrees_delegate_to_quadrature(self):
        # k = 0 with lam = (n-2)/2, s = 0 is twice the one-sided moment
        for n in (3, 4, 5, 7):
            lam = 0.5 * (n - 2)
            assert abs_kernel_coefficient(lam, 0, 0.0) == pytest.approx(
                2.0 / (n - 1.0), abs=1e-11
            )


class TestKernelMomentQuadrature:
    """The fixed-rule brute-force moments behind ``kernel_moment_closed_form``."""

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 44])
    def test_entries_equal_their_one_case_calls(self, n):
        # the cases of the identities sweep, all in one call: every value
        # and estimate must have the bits of the case's own one-case call
        lams = sorted({0.5, 1.5, 0.5 * (n - 2)})
        cases = [(lam, k, s) for lam in lams for k in range(2, 11) for s in np.linspace(-0.8, 0.8, 5).tolist()]
        moments = _kernel_moment_quadrature(cases)
        for case, value, estimate in zip(cases, moments.value.tolist(), moments.error_estimate.tolist()):
            single = _kernel_moment_quadrature([case])
            assert (value, estimate) == (single.value[0], single.error_estimate[0])

    def test_match_mpmath(self):
        # one batch mixing parameters, degrees and kinks, so that every case
        # must keep its own degree; checked against 30-digit tanh-sinh in x
        # lam = 49, 74 and 99 are the cases of n = 100, 150 and 200, where
        # kernel_moment_closed_form is decided by the brute force's rounding
        lams = (0.5, 1.0, 1.5, 5.0, 21.0, 49.0, 74.0, 99.0)
        cases = [(lam, k, s) for lam in lams for k in (2, 5, 10) for s in (-0.8, 0.0, 0.4, 0.8)]
        moments = _kernel_moment_quadrature(cases)
        values, estimates = moments.value, moments.error_estimate
        assert values.shape == estimates.shape == (len(cases),)
        with mpmath.workdps(30):
            for (lam, k, s), value, estimate in zip(cases, values.tolist(), estimates.tolist()):
                mp_lam = mpmath.mpf(lam)

                def gegenbauer(x, _lam=mp_lam, _k=k):
                    prev, cur = mpmath.mpf(1), 2 * _lam * x
                    for j in range(2, _k + 1):
                        prev, cur = cur, (2 * (j + _lam - 1) * x * cur - (j + 2 * _lam - 2) * prev) / j
                    return cur

                def moment(x, _lam=mp_lam, _s=mpmath.mpf(s)):
                    return abs(x - _s) * gegenbauer(x) * (1 - x * x) ** (_lam - 0.5)

                oracle = mpmath.quad(moment, [-1, s, 1])
                assert abs(value - oracle) <= estimate, (lam, k, s)

    def test_node_count_bounds_the_truncation(self):
        # On a side of half-width h <= pi/2, m Gauss nodes err on a Fourier
        # mode of frequency j <= d by at most h sqrt(2) times the remainder
        # 2^(2m+1) (m!)^4 / ((2m+1) ((2m)!)^3) (d pi/2)^(2m) (of cos and sin
        # after the map to [-1, 1]) times the mode's coefficient, and each
        # of the 2 d coefficients is at most 1/pi of the integral of |f|
        # over [0, pi].  Summed over both sides, _moment_nodes keeps that
        # below 2^-53 of the integral for every degree d checked here; the
        # rule's 9/8 d or more outgrows the e pi/8 d + O(log d) it needs.
        degrees = np.arange(2.0, 4001.0)
        for d, m in zip(degrees.tolist(), specfun._moment_nodes(degrees).tolist()):
            assert m == 8 * math.ceil(9 * d / 64) + 16
            log_remainder = (
                (2 * m + 1) * math.log(2.0)
                + 4 * math.lgamma(m + 1)
                - math.log(2 * m + 1)
                - 3 * math.lgamma(2 * m + 1)
                + 2 * m * math.log(d * math.pi / 2)
            )
            # 2 sides, 2 d modes, h sqrt(2) <= pi / sqrt(2), coefficients <= 1/pi
            assert log_remainder + math.log(2.0 * 2.0 * d / math.sqrt(2.0)) <= -53.0 * math.log(2.0), d


class TestHeadMoments:
    """Degrees 0 and 1 of :func:`abs_kernel_coefficient` in closed form."""

    @pytest.mark.parametrize("n", [*range(3, 13), 20, 44, 45, 100, 200])
    def test_match_mpmath(self, n):
        lam = 0.5 * (n - 2)
        with mpmath.workdps(30):
            exponent = mpmath.mpf(n - 3) / 2
            for s in np.linspace(-0.99, 0.99, 12):
                s = float(s)

                def moment(x, _s=mpmath.mpf(s)):
                    return abs(x - _s) * (1 - x * x) ** exponent

                oracle0 = mpmath.quad(moment, [-1, s, 1])
                oracle1 = mpmath.quad(lambda x: moment(x) * (n - 2) * x, [-1, s, 1])
                assert abs(abs_kernel_coefficient(lam, 0, s) - oracle0) <= 1e-14, s
                assert abs(abs_kernel_coefficient(lam, 1, s) - oracle1) <= 1e-14, s

    @pytest.mark.parametrize("n", [*range(3, 13), 20, 44])
    def test_sum_is_the_factored_series_head(self, n):
        # M0 + M1 rho = 2 (1 - s^2)^((n+1)/2) / (n - 1) with s = (n-2) rho / n,
        # the head phi_series sums (alone with K = 0)
        lam = 0.5 * (n - 2)
        for rho in np.linspace(0.0, 0.99, 12).tolist():
            s = (n - 2.0) * rho / n
            moments = abs_kernel_coefficient(lam, 0, s) + abs_kernel_coefficient(lam, 1, s) * rho
            factored = phi_series(n, rho, K=0).value
            assert factored == 2.0 * (1.0 - s * s) ** (0.5 * (n + 1)) / (n - 1.0)
            assert abs(moments - factored) <= 1e-15, rho

    @pytest.mark.parametrize("n", [3, 4, 12, 44])
    def test_series_terms_are_the_kernel_moments(self, n):
        # the degree-k term of phi_series, read as the difference of the sums
        # to degrees k and k - 1, is the moment M_k times rho^k: the series'
        # own coefficient formula against the closed moment of degree k
        lam = 0.5 * (n - 2)
        for rho in (0.3, 0.9):
            s = (n - 2.0) * rho / n
            for k in range(2, 12):
                term = phi_series(n, rho, K=k).value - phi_series(n, rho, K=k - 1).value
                assert abs(term - abs_kernel_coefficient(lam, k, s) * rho**k) <= 1e-15, (rho, k)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("lam", [0.3, 1.25, 2.0 + 1e-9, math.nan, math.inf])
    def test_need_half_integer_parameter(self, k, lam):
        with pytest.raises(ValueError):
            abs_kernel_coefficient(lam, k, 0.2)

    def test_parameter_zero(self):
        # weight (1 - x^2)^(-1/2): the k = 0 moment is 2 sqrt(1 - s^2) + s (pi - 2 arccos s)
        s = 0.3
        expected = 2.0 * math.sqrt(1.0 - s * s) + s * (math.pi - 2.0 * math.acos(s))
        assert abs_kernel_coefficient(0.0, 0, s) == pytest.approx(expected, abs=1e-15)
        assert abs_kernel_coefficient(0.0, 1, s) == 0.0


class TestWeightedDerivative:
    def test_vanishes_at_center_even_weight(self):
        assert gegenbauer_weighted_derivative(2.0, 0, 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("case", [(3.0, 2, 0.2), (0.5, 1, 0.5), (2.5, 4, -0.3)])
    def test_matches_finite_difference(self, case):
        lam, k, x = case
        h = 1e-5

        def wfun(t):
            return (1.0 - t * t) ** (lam - 0.5) * _gegenbauer(lam, k, t)

        fd = (wfun(x + h) - wfun(x - h)) / (2.0 * h)
        val = gegenbauer_weighted_derivative(lam, k, x)
        assert val == pytest.approx(fd, rel=1e-6)

    def test_parameter_one_excluded(self):
        with pytest.raises(ValueError):
            gegenbauer_weighted_derivative(1.0, 2, 0.3)


def _hexes(values):
    return [float(v).hex() for v in values]


def _float_path(lam, x):
    """The former float-parameter path of ``gegenbauer_iter``: a test-only
    oracle for one float parameter at one float point."""
    c_prev, c = 1.0, 2.0 * lam * x
    yield c_prev
    yield c
    k = 2
    while True:
        c, c_prev = (2.0 * (k + lam - 1.0) * x * c - (k + 2.0 * lam - 2.0) * c_prev) / k, c
        yield c
        k += 1


def _scalar_moment(lam, k, s):
    """The former one-value ``abs_kernel_coefficient``, on the float path."""
    if k >= 2:
        coef = 8.0 * lam * (lam + 1.0) / (k * (k - 1.0) * (k + 2.0 * lam) * (k + 2.0 * lam + 1.0))
        return coef * (1.0 - s * s) ** (lam + 1.5) * next(islice(_float_path(lam + 2.0, s), k - 2, None))
    w = 1.0 - s * s
    if (2.0 * lam) % 2.0:
        a, p, b = 0.0, 1.0 - s, 2.0
    else:
        a, p, b = -0.5, math.acos(s), math.pi
    while a < lam - 0.5:
        a += 1.0
        p = (2.0 * a * p - s * w**a) / (2.0 * a + 1.0)
        b = 2.0 * a * b / (2.0 * a + 1.0)
    q = w ** (lam + 0.5) / (2.0 * lam + 1.0)
    if k == 0:
        return 2.0 * q + s * (b - 2.0 * p)
    return 2.0 * lam / (2.0 * lam + 2.0) * (2.0 * p - b - 2.0 * s * q)


def _scalar_derivative(lam, k, x):
    """The former one-value ``gegenbauer_weighted_derivative``, on the float path."""
    lead = -(k + 1.0) * (k + 2.0 * lam - 1.0) / (2.0 * (lam - 1.0))
    return lead * (1.0 - x * x) ** (lam - 1.5) * next(islice(_float_path(lam - 1.0, x), k + 1, None))


class TestSequenceForms:
    """``abs_kernel_coefficient`` and ``gegenbauer_weighted_derivative`` on
    one value or on sequences of degrees and points."""

    POINTS = np.linspace(-0.95, 0.95, 9).tolist()
    # sha256 of the former scalar paths' one-value calls, recorded before the
    # sequence forms: every (lam, k, point) of the loops below in loop order,
    # as little-endian float64
    MOMENT_SHA256 = "851ecc23acc61a841975665e9a014d3112d09e7f6d80bcaf4e5168dbaaa9701f"
    DERIVATIVE_SHA256 = "7444c46d4921c79f705347295ce3749cb3e4c47f4de650e667b3bf96cb41d5a2"

    def test_one_value_calls_reproduce_the_recorded_scalar_paths(self):
        lams = (0.0, 0.5, 1.0, 1.5, 4.5, 21.0)
        moments = [abs_kernel_coefficient(lam, k, s) for lam in lams for k in range(9) for s in self.POINTS]
        lams = (0.5, 2.0, 3.0, 4.5, 21.0)
        derivatives = [gegenbauer_weighted_derivative(lam, k, x) for lam in lams for k in range(9) for x in self.POINTS]
        assert all(type(v) is float for v in moments + derivatives)
        for values, digest in ((moments, self.MOMENT_SHA256), (derivatives, self.DERIVATIVE_SHA256)):
            assert hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest() == digest

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 2.0, 4.5, 7.0, 21.0])
    def test_sequences_equal_the_scalar_oracle_on_a_dense_grid(self, lam):
        # about one power in twenty rounds differently under numpy's vector pow
        s = np.random.default_rng(7).uniform(-0.999, 0.999, 300)
        for k in range(12):
            assert _hexes(abs_kernel_coefficient(lam, k, s)) == _hexes(_scalar_moment(lam, k, v) for v in s.tolist())
            if lam != 1.0:
                derivatives = gegenbauer_weighted_derivative(lam, k, s)
                assert _hexes(derivatives) == _hexes(_scalar_derivative(lam, k, v) for v in s.tolist())

    @given(
        lam_and_degrees=st.one_of(
            # degrees 0 and 1 need 2 lam to be an integer
            st.tuples(st.integers(0, 60).map(lambda m: 0.5 * m), st.just(0)),
            st.tuples(st.floats(-0.49, 30.0), st.just(2)),
        ),
        entries=st.lists(st.tuples(st.integers(0, 14), st.floats(-0.999, 0.999)), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_moment_batches_equal_their_one_value_calls(self, lam_and_degrees, entries):
        lam, lowest = lam_and_degrees
        ks, ss = zip(*((max(k, lowest), s) for k, s in entries))
        batch = abs_kernel_coefficient(lam, list(ks), np.array(ss))
        assert _hexes(batch) == _hexes(abs_kernel_coefficient(lam, k, s) for k, s in zip(ks, ss))
        assert _hexes(batch) == _hexes(_scalar_moment(lam, k, s) for k, s in zip(ks, ss))
        # one degree against many points, and many degrees against one point
        by_point = abs_kernel_coefficient(lam, ks[0], ss)
        assert _hexes(by_point) == _hexes(abs_kernel_coefficient(lam, ks[0], s) for s in ss)
        by_degree = abs_kernel_coefficient(lam, ks, ss[0])
        assert _hexes(by_degree) == _hexes(abs_kernel_coefficient(lam, k, ss[0]) for k in ks)

    @given(
        lam=st.floats(-0.49, 30.0).filter(lambda v: v != 1.0),
        entries=st.lists(st.tuples(st.integers(0, 14), st.floats(-0.999, 0.999)), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_derivative_batches_equal_their_one_value_calls(self, lam, entries):
        ks, xs = zip(*entries)
        batch = gegenbauer_weighted_derivative(lam, ks, list(xs))
        assert _hexes(batch) == _hexes(gegenbauer_weighted_derivative(lam, k, x) for k, x in entries)
        assert _hexes(batch) == _hexes(_scalar_derivative(lam, k, x) for k, x in entries)
        assert _hexes(gegenbauer_weighted_derivative(lam, ks[0], xs)) == _hexes(
            gegenbauer_weighted_derivative(lam, ks[0], x) for x in xs
        )

    def test_a_sequence_of_one_gives_a_list(self):
        assert abs_kernel_coefficient(1.5, [4], 0.3) == [abs_kernel_coefficient(1.5, 4, 0.3)]
        assert gegenbauer_weighted_derivative(2.0, 3, [0.3]) == [gegenbauer_weighted_derivative(2.0, 3, 0.3)]

    FUNCTIONS = [(abs_kernel_coefficient, "s"), (gegenbauer_weighted_derivative, "x")]

    @pytest.mark.parametrize("function, name", FUNCTIONS)
    @pytest.mark.parametrize(
        "points", [1.0, -1.0, math.nan, [], [[0.1, 0.2]], [0.1, 1.0], [-1.0], [0.2, math.nan], [0.3, -1.5]]
    )
    def test_bad_points_rejected(self, function, name, points):
        with pytest.raises(ValueError, match=re.escape(f"{name} must lie strictly inside (-1, 1)")):
            function(1.5, 3, points)

    @pytest.mark.parametrize("function", [abs_kernel_coefficient, gegenbauer_weighted_derivative])
    @pytest.mark.parametrize("degrees", [-1, 2.5, math.inf, math.nan, [], [[2, 3]], [2, -1], [3, 2.5], [math.inf]])
    def test_bad_degrees_rejected(self, function, degrees):
        with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
            function(1.5, degrees, [0.1, 0.2])

    @pytest.mark.parametrize("function", [abs_kernel_coefficient, gegenbauer_weighted_derivative])
    def test_unequal_lengths_rejected(self, function):
        with pytest.raises(ValueError, match="equal lengths"):
            function(1.5, [2, 3, 4], [0.1, 0.2])

    def test_head_degrees_in_a_sequence_need_half_integer_parameter(self):
        assert len(abs_kernel_coefficient(1.25, [2, 5], 0.2)) == 2
        with pytest.raises(ValueError, match="2 lam to be an integer"):
            abs_kernel_coefficient(1.25, [2, 1], 0.2)


def test_identity_suite_passes():
    report = verify_identities(5)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "generating_relation",
        "rainville_expansion",
        "euler_transformation",
        "contiguous_relation",
        "kernel_moment_closed_form",
        "weighted_derivative_identity",
        "hypergeometric_derivative_identity",
    }


@pytest.mark.parametrize("mutant", ["sum", "parameter"])
def test_euler_transformation_fails_a_wrong_gauss_series(monkeypatch, mutant):
    # hyp2f1 maps every z < 0 into [0, 1) by the Pfaff transformation, so a
    # Pfaff check compares the series with itself; both sides of Euler's are
    # direct series with other parameters, and a wrong series fails it
    series = specfun._gauss_series_batch

    def wrong(params, z, rel_tol):
        if mutant == "sum":
            return series(params, z, rel_tol) + 1e-9
        return series(params * np.array([[1.0], [1.0 + 1e-9], [1.0]]), z, rel_tol)

    assert specfun._euler_check(4).passed
    monkeypatch.setattr(specfun, "_gauss_series_batch", wrong)
    check = specfun._euler_check(4)
    assert check.name == "euler_transformation" and not check.passed and check.worst_margin > 1e-10
