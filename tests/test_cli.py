import csv
import hashlib
import io
import json
import math
import re

import pytest

from ballgrad import cli, phi, quadrature
from ballgrad.cli import main
from ballgrad.errors import ConvergenceError
from ballgrad.quadrature import QuadratureSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_dimension_three_values(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["schwarz_pick_constant"] == pytest.approx(1.5)
        assert payload["khavinson_sharp_constant_3d"] == pytest.approx(1.5396, abs=1e-4)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--n", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "value"]
        values = {name: val for name, val in rows[1:]}
        assert float(values["schwarz_pick_constant"]) == pytest.approx(1.6976527263135501)

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "constants", "--n", "5")
        _, second, _ = run_cli(capsys, "constants", "--n", "5")
        assert first == second


class TestPhiTable:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "phi-table", "--n", "4", "--steps", "11")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["rho", "phi", "dphi_fd", "d2phi_closed", "d2phi_series"]
        assert len(rows) == 12
        first = [float(v) for v in rows[1]]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert first[3] == pytest.approx(-1.0 / 30.0, abs=1e-9)

    def test_dimension_three_closed_column_is_the_routed_value(self, capsys):
        code, out, _ = run_cli(capsys, "phi-table", "--n", "3", "--steps", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        for row in rows[1:]:
            assert float(row[3]) == phi.phi_second(3, float(row[0])).value
        # at the origin the routed value is the series route's 1/18
        assert float(rows[1][3]) == pytest.approx(1.0 / 18.0, abs=1e-9)
        assert float(rows[1][4]) == pytest.approx(1.0 / 18.0, abs=1e-9)

    def test_series_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi-table", "--n", "5", "--steps", "4", "--method", "series", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["rows"][0]["phi"] == pytest.approx(0.5, abs=1e-9)

    def test_closed3_method_requires_three(self, capsys):
        code, _, err = run_cli(capsys, "phi-table", "--n", "4", "--method", "closed3")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("n", [3, 4, 12])
    def test_quad_column_matches_the_scalar_route(self, capsys, n):
        # the column comes from one one-sided call; each value must agree
        # with the independent full-interval route within both estimates
        code, out, _ = run_cli(capsys, "phi-table", "--n", str(n), "--method", "quad")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        grid = [float(row["rho"]) for row in rows]
        one_sided = phi.phi_one_sided(n, grid)
        for row, rho, value, estimate in zip(rows, grid, one_sided.value, one_sided.error_estimate):
            scalar = phi.phi_quad(n, rho)
            assert float(row["phi"]) == value
            assert abs(value - scalar.value) <= estimate + scalar.error_estimate, rho

    @pytest.mark.parametrize("method", ["quad", "series"])
    @pytest.mark.parametrize("n", [3, 4, 12])
    def test_second_derivative_cells_are_the_scalar_routes(self, capsys, n, method):
        code, out, _ = run_cli(capsys, "phi-table", "--n", str(n), "--method", method, "--steps", "21")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            rho = float(row["rho"])
            assert float(row["d2phi_series"]) == phi.phi_second_series(n, rho).value
            assert float(row["d2phi_closed"]) == phi.phi_second(n, rho).value

    # sha256 of stdout at the default 101 steps as printed when the quad
    # column came from the one-sided profile (phi.phi_one_sided), the closed
    # column held the routed value at n = 3 as well and took its 2F1 values
    # from specfun.profile_hyp2f1; a change that moves any printed digit
    # must update these on purpose
    TABLE_SHA256 = {
        (3, "quad", "csv"): "408f096030401d5b02048832599cf54a05d04225a7ce12670d2924f0f3c1cd1d",
        (3, "quad", "json"): "5ce29fc3f9a526e15cda63a7615a5f5a3527c2fbfba0ece6fdfb884967c2d4b1",
        (3, "series", "csv"): "f9eafe89325843aaebb32f1d50bf52274898bd0c17086b9073ff8639829e416b",
        (3, "series", "json"): "9b54f1433e9eee6b4d7e6572bcca2f2993b4af10d3b3049c5dff3222389c682e",
        (4, "quad", "csv"): "f470ea172e9a73c8d71931fdba439e1b131e9179a3465af3488127707096332c",
        (4, "quad", "json"): "4dd0889205f2511dbc98f2d030a762505b3380f0ae9a54773788ab2324fc3080",
        (4, "series", "csv"): "3b3a57194f330921b45d16b76c280b1c6e27ef865912ece3e59535d6c63d652e",
        (4, "series", "json"): "99b63804bb3445fba0c0657220f68c3ddc47a006764515aea9fdae200de98a0f",
        (12, "quad", "csv"): "cf7facf363667cedd5d9fb7cd0a7197377dec20d1fe3b0ad3c766ffe7d1f8ef0",
        (12, "quad", "json"): "b497d6496f566af13900ddb18265fb92048ae1ec8f34ece776bbb43a93126c63",
        (12, "series", "csv"): "26426b4582eb44ea6fcca5965675b7ebcd1c51bf4ad95e357861b18ab3c742d6",
        (12, "series", "json"): "3f9604560b6467cdf62a8122edbcedc58049160bcd753fe481b0722579cbf5b3",
    }

    @pytest.mark.parametrize("n, method, fmt", sorted(TABLE_SHA256))
    def test_output_is_pinned(self, capsys, n, method, fmt):
        code, out, _ = run_cli(capsys, "phi-table", "--n", str(n), "--method", method, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TABLE_SHA256[n, method, fmt]

    def test_last_row_does_not_depend_on_the_steps(self, capsys):
        # rho = 0.99 and its neighbours rho +- 1e-5 sit in one-sided profile
        # calls of 33, 63 and 303 radii, and each entry has the bits of its
        # one-radius call, so every cell of the row is the same
        rows = []
        for steps in ("11", "21", "101"):
            code, out, _ = run_cli(capsys, "phi-table", "--n", "4", "--method", "quad", "--steps", steps)
            assert code == 0
            rows.append(out.splitlines()[-1])
        assert rows[0].startswith("0.99,") and rows == [rows[0]] * 3

    def test_determinism(self, capsys):
        args = ("phi-table", "--n", "4", "--steps", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", ["quad", "series"])
    @pytest.mark.parametrize("n, rho", [(300, "0.980100"), (400, "0.861300"), (1000, "0.534600")])
    def test_non_finite_series_is_refused(self, capsys, n, rho, method, fmt):
        # from n = 300 the series terms overflow near rho = 1; a nan cell,
        # a bare NaN token in JSON, is refused instead: exit 2 and one
        # stderr line naming the first such radius, with no numpy warning
        code, out, err = run_cli(capsys, "phi-table", "--n", str(n), "--method", method, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: Gegenbauer series at n = {n} is not finite at rho={rho}: its terms under- or overflow binary64\n"


class TestVerify:
    def test_concavity_passes_dimension_four(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--suite", "concavity")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "concavity"
        assert payload["passed"] is True

    def test_concavity_dimension_three_expected_failure(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--suite", "concavity")
        assert code == 0
        payload = json.loads(out)
        neg = next(c for c in payload["checks"] if c["name"] == "second_derivative_negative")
        assert neg["passed"] is False
        assert neg["expected"] is True

    def test_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "5", "--suite", "technical")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"suite", "n", "checks", "passed"}
        for check in payload["checks"]:
            assert set(check) == {"name", "passed", "expected", "worst_margin", "at"}

    # (name, passed, expected, worst_margin, at) as printed when the sweep
    # and the slope at the origin read the one-sided profile; every verdict
    # must be reproduced and every margin within 1e-12
    MONOTONE_PINS = {
        3: [
            ("value_at_origin", True, False, 0.0, "rho=0"),
            ("strictly_increasing", True, False, 2.7777776079318528e-08, "rho=0.001000"),
            ("maximum_at_one", True, False, 1.199040866595169e-14, "rho=1"),
            ("derivative_zero_at_origin", True, False, 2.7533531010703882e-08, "rho=0"),
        ],
        4: [
            ("value_at_origin", True, False, 1.1102230246251565e-16, "rho=0"),
            ("strictly_decreasing", True, False, -1.6666667379539035e-08, "rho=0.001000"),
            ("maximum_at_origin", True, False, 1.1102230246251565e-16, "rho=0"),
            ("derivative_zero_at_origin", True, False, 1.6542323066914832e-08, "rho=0"),
        ],
        12: [
            ("value_at_origin", True, False, 2.7755575615628914e-17, "rho=0"),
            ("strictly_decreasing", True, False, -5.147630896540356e-08, "rho=0.001000"),
            ("maximum_at_origin", True, False, 2.7755575615628914e-17, "rho=0"),
            ("derivative_zero_at_origin", True, False, 5.156985949383852e-08, "rho=0"),
        ],
    }

    @pytest.mark.parametrize("n", sorted(MONOTONE_PINS))
    def test_monotone_output_is_pinned(self, capsys, n):
        code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--suite", "monotone")
        assert code == 0
        checks = json.loads(out)["checks"]
        pins = self.MONOTONE_PINS[n]
        assert [(c["name"], c["passed"], c["expected"], c["at"]) for c in checks] == [
            (name, passed, expected, at) for name, passed, expected, _, at in pins
        ]
        for check, (*_, margin, _) in zip(checks, pins):
            assert check["worst_margin"] == pytest.approx(margin, rel=0, abs=1e-12)

    # (name, passed, expected, worst_margin, at).  second_derivative_negative
    # pins the phi_second sweep, whose worst radius 0.000998 takes the
    # series, as printed when every series radius was summed by its own
    # one-radius loop.  route_agreement pins the batched series, the finite
    # differences of one one-sided profile call (phi_one_sided, whose
    # entries are those of one-radius calls) and, at n >= 4, the closed form
    # (its 2F1 values from specfun.profile_hyp2f1), at rho = 0.1, ..., 0.9
    CONCAVITY_PINS = {
        3: [
            ("second_derivative_negative", False, True, 0.05555553711089523, "rho=0.000998"),
            ("route_agreement", True, False, 9.623116957955228e-08, "rho=0.6"),
        ],
        4: [
            ("second_derivative_negative", True, False, -0.033333338669112374, "rho=0.000998"),
            ("route_agreement", True, False, 7.92335698516599e-08, "rho=0.8"),
        ],
        12: [
            ("second_derivative_negative", True, False, -0.10295269216100489, "rho=0.000998"),
            ("route_agreement", True, False, 1.4391944971004135e-08, "rho=0.1"),
        ],
    }

    @pytest.mark.parametrize("n", sorted(CONCAVITY_PINS))
    def test_concavity_output_is_pinned(self, capsys, n):
        code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--suite", "concavity")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["passed"], c["expected"], c["worst_margin"], c["at"]) for c in checks] == (
            self.CONCAVITY_PINS[n]
        )

    # (name, passed, expected, worst_margin, at) as printed when the kernel
    # moments were brute-forced by one adaptive integral each; their fixed
    # Gauss rules reproduce every margin but their own (None), which must
    # stay within 1e-13, at the case where the fixed rules put it
    IDENTITY_PINS = {
        3: [
            ("generating_relation", True, False, 1.2168044349891716e-13, "lam=0.5,x=0.90,z=0.5"),
            ("rainville_expansion", True, False, 5.719869022868806e-13, "n=4,x=0.95,z=0.8"),
            ("euler_transformation", True, False, 1.0294495440059015e-13, "a=0.5,b=1.5,c=2.5,z=0.90"),
            ("contiguous_relation", True, False, 1.282274680535334e-14, "z=0.90"),
            ("kernel_moment_closed_form", True, False, None, "lam=1.5,k=8,s=0.40"),
            ("weighted_derivative_identity", True, False, 2.2876017478560362e-08, "lam=3.0,k=4,x=-0.80"),
            ("hypergeometric_derivative_identity", True, False, 5.033074847088602e-11, "a=1.0,b=1.5,c=2.0,z=0.55"),
        ],
        4: [
            ("generating_relation", True, False, 1.2168044349891716e-13, "lam=0.5,x=0.90,z=0.5"),
            ("rainville_expansion", True, False, 5.719869022868806e-13, "n=4,x=0.95,z=0.8"),
            ("euler_transformation", True, False, 1.0294495440059015e-13, "a=0.5,b=1.5,c=2.5,z=0.90"),
            ("contiguous_relation", True, False, 1.4278418729689958e-14, "z=0.90"),
            ("kernel_moment_closed_form", True, False, None, "lam=1.5,k=8,s=0.40"),
            ("weighted_derivative_identity", True, False, 2.2876017478560362e-08, "lam=3.0,k=4,x=-0.80"),
            ("hypergeometric_derivative_identity", True, False, 5.404259258377446e-11, "a=1.0,b=2.0,c=2.5,z=0.4"),
        ],
        12: [
            ("generating_relation", True, False, 1.2168044349891716e-13, "lam=0.5,x=0.90,z=0.5"),
            ("rainville_expansion", True, False, 5.6843418860808015e-11, "n=8,x=0.95,z=0.8"),
            ("euler_transformation", True, False, 1.0294495440059015e-13, "a=0.5,b=1.5,c=2.5,z=0.90"),
            ("contiguous_relation", True, False, 2.2479763501681164e-14, "z=0.90"),
            ("kernel_moment_closed_form", True, False, None, "lam=5.0,k=9,s=-0.80"),
            ("weighted_derivative_identity", True, False, 2.2876017478560362e-08, "lam=3.0,k=4,x=-0.80"),
            ("hypergeometric_derivative_identity", True, False, 2.7016282795169506e-10, "a=1.0,b=6.0,c=6.5,z=0.1"),
        ],
    }

    @pytest.mark.parametrize("n", sorted(IDENTITY_PINS))
    def test_identities_output_is_pinned(self, capsys, n):
        code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--suite", "identities")
        assert code == 0
        checks = json.loads(out)["checks"]
        pins = self.IDENTITY_PINS[n]
        assert [(c["name"], c["passed"], c["expected"], c["at"]) for c in checks] == [
            (name, passed, expected, at) for name, passed, expected, _, at in pins
        ]
        for check, (name, _, _, margin, _) in zip(checks, pins):
            if margin is None:
                assert 0.0 <= check["worst_margin"] <= 1e-13, name
            else:
                assert check["worst_margin"] == margin, name

    # (name, passed, expected, worst_margin, at) as printed when every grid
    # point's hypergeometric value came from specfun.profile_hyp2f1, whose
    # batch entries have the bits of its one-argument calls
    TECHNICAL_PINS = {
        3: [
            ("sides_equal_at_origin", True, False, 0.0, "t=0"),
            ("gap_reversed", True, False, -2.779475902547901e-05, "t=0.001000"),
            ("psi_zero_at_origin", True, False, 0.0, "t=0"),
        ],
        4: [
            ("sides_equal_at_origin", True, False, 0.0, "t=0"),
            ("gap_positive", True, False, 8.343360876628125e-06, "t=0.001000"),
            ("psi_positive", True, False, 2.636094325410201e-10, "t=0.001000"),
            ("quadratic_positive", True, False, 128.0, "t=0.000000"),
            ("psi_zero_at_origin", True, False, 0.0, "t=0"),
        ],
        12: [
            ("sides_equal_at_origin", True, False, 0.0, "t=0"),
            ("gap_positive", True, False, 5.158995247667164e-06, "t=0.001000"),
            ("psi_positive", True, False, 1.6303523815063123e-22, "t=0.001000"),
            ("quadratic_positive", True, False, 31488.0, "t=1.000000"),
            ("psi_zero_at_origin", True, False, 0.0, "t=0"),
        ],
    }

    @pytest.mark.parametrize("n", sorted(TECHNICAL_PINS))
    def test_technical_output_is_pinned(self, capsys, n):
        code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--suite", "technical")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["passed"], c["expected"], c["worst_margin"], c["at"]) for c in checks] == (
            self.TECHNICAL_PINS[n]
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, t", [(400, "0.986000"), (500, "0.957000"), (1000, "0.778000")])
    def test_non_finite_psi_is_refused(self, capsys, n, t):
        # from n = 400 psi's powers underflow to 0/0 near t = 1; a NaN would
        # fail psi_positive, an inequality the paper proves, so the sweep is
        # refused: exit 2 and one stderr line naming the first such point
        code, out, err = run_cli(capsys, "verify", "--n", str(n), "--suite", "technical")
        assert (code, out) == (2, "")
        assert err == f"error: psi at n = {n} is not finite at t={t}: its terms under- or overflow binary64\n"

    def test_suites_run_the_current_module_attribute(self, capsys, monkeypatch):
        # a wrapper bound on the module after import (a tracer's) is the one that runs
        calls = []
        original = phi.verify_monotone
        monkeypatch.setattr(phi, "verify_monotone", lambda n: calls.append(n) or original(n))
        code, _, _ = run_cli(capsys, "verify", "--n", "4", "--suite", "all")
        assert code == 0
        assert calls == [4]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "4", "--suite", "monotone", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "passed", "expected", "worst_margin", "at"]


class TestExtremal:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["abs_error"] <= 1e-8


class TestProbe:
    def test_small_probe(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--n", "4", "--samples", "10", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "schwarz_pick_probe/bound_dominates" in names
        assert "conjecture_probe/no_counterexample" in names

    def test_dimension_three_skips_conjecture(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--n", "3", "--samples", "8", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert all(c["name"].startswith("schwarz_pick_probe/") for c in payload["checks"])

    def test_seed_determinism(self, capsys):
        args = ("probe", "--n", "2", "--samples", "6", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_negative_seed_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "probe", "--n", "3", "--samples", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a non-negative integer\n"

    # sha256 of stdout as printed when both probes of a command read one
    # batch: one cut set, made of the data and every radius's extremal cut,
    # whose slopes and Poisson values they share, each row summed on its
    # own; a change that moves any printed digit of the probes must update
    # these on purpose
    PROBE_SHA256 = {
        (2, 200, 7): "f1e47178e913bd22cab660ebad0c9dc7b5f48ef2c4ba381a03eb639b72a22a19",
        (3, 200, 7): "2fde58f166bc6481705ef17a9ec1ee734c51d8aac6ceddb1913c00055c9ed016",
        (4, 200, 7): "166d0885c6254e10ba09ed2e401f7c73588e9f99fc63bfe33810e4c472cd29ff",
        (12, 200, 7): "5d9dfd05ec0802849c1b63b25b948d608333b18674a59b017495a0684735d7c9",
        (2, 25, 1): "df6b778d4d0ae4fa07ef217e3ab2291c9d28e31ad725ff84a53725e57e5ba95b",
        (2, 25, 2): "2ea1684eca855c796f804e8bc286a4cca6d29e8bffbad46d894a54963821a40a",
        (4, 25, 1): "9d4c43fd4fc7500dcff94e699f95903c252fc972210d39925149dc5960cab9db",
        (4, 25, 2): "ba958d04c6089adbc6f06d936421d93836dfbcd28ece18188666749e3fadeb19",
        (12, 25, 1): "c64a74e4b80aec4b38668d416c2a36a932645c21ccf070bb41306107d84924c1",
        (12, 25, 2): "1f4dd0f0a29e7f3e24755e32ef2e06597100f136ac6f1526b2fa3af1035057f4",
    }

    @pytest.mark.parametrize("n, samples, seed", sorted(PROBE_SHA256))
    def test_probe_output_is_pinned(self, capsys, n, samples, seed):
        code, out, _ = run_cli(capsys, "probe", "--n", str(n), "--samples", str(samples), "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PROBE_SHA256[n, samples, seed]


class TestBound:
    def test_row_values(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "3", "--rho", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["capital_c"] == pytest.approx(2.0137017762354946, abs=1e-9)
        assert payload["khavinson_radial_if_n3"] == pytest.approx(2.0137017762354946, rel=1e-12)
        assert payload["pw_over_1mr"] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "101", "--rho", "0.9999999"],
            ["bound", "--n", "150", "--rho", "0.999"],
        ],
    )
    def test_non_finite_profile_exits_two(self, capsys, argv):
        # the profile quadrature overflows there (to inf, or to nan where
        # inf meets a zero weight); neither an inf capital_c nor a
        # worst_margin of Infinity, which is not JSON, is printed, and the
        # engines stop at the first non-finite panel instead of spending
        # their subdivision budget on it
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("error: quadrature gave a non-finite value or error estimate\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "101", "--rho", "0.9999999"],
            ["bound", "--n", "150", "--rho", "0.999"],
        ],
    )
    def test_numerical_failure_writes_one_stderr_line(self, capsys, argv):
        # the profile quadratures overflow, or meet nan, on the way to their
        # refusal; numpy warns of none of it, so the error line is all
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [100, 150, 1000])
    def test_monotone_sweep_passes_where_the_kernel_overflows(self, capsys, n):
        # the sweep reads the one-sided route, whose powers are of ratios at
        # most 1, so the overflow that refuses bound here never arises
        code, out, err = run_cli(capsys, "verify", "--n", str(n), "--suite", "monotone")
        payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON token {c}"))
        assert (code, err, payload["passed"]) == (0, "", True)
        assert all(c["passed"] and math.isfinite(c["worst_margin"]) for c in payload["checks"])

    def test_all_suites_at_150_fail_only_the_known_checks(self, capsys):
        # monotone passes; concavity's route agreement (ROADMAP item 1) and
        # the kernel moment identity (item 5(a)) are the known failures
        code, out, _ = run_cli(capsys, "verify", "--n", "150", "--suite", "all")
        checks = json.loads(out)["checks"]
        assert code == 1
        assert all(c["passed"] for c in checks if c["name"].startswith("monotone/"))
        failed = {c["name"] for c in checks if not (c["passed"] or c["expected"])}
        assert failed == {"concavity/route_agreement", "identities/kernel_moment_closed_form"}

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "5", "--rho", "0.0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "rho"
        assert rows[1][4] == ""  # khavinson column empty away from n = 3


class TestParser:
    @pytest.mark.parametrize(
        "argv, fmt",
        [
            (["constants", "--n", "3"], "json"),
            (["phi-table", "--n", "3"], "csv"),
            (["verify", "--n", "3"], "json"),
            (["extremal", "--n", "3"], "json"),
            (["probe", "--n", "3"], "json"),
            (["bound", "--n", "3", "--rho", "0.5"], "csv"),
        ],
    )
    def test_format_defaults_and_choices(self, capsys, argv, fmt):
        parser = cli.build_parser()
        assert parser.parse_args(argv).fmt == fmt
        for choice in ("csv", "json"):
            assert parser.parse_args(argv + ["--format", choice]).fmt == choice
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--format", "xml"])
        capsys.readouterr()


class TestStrictJson:
    # json.dumps writes a non-finite float as the bare token NaN or
    # Infinity, which is not JSON; every number the CLI prints must be finite
    COMMANDS = [
        *(
            ("phi-table", "--n", n, "--method", method, "--format", "json")
            for n in ("3", "4", "44")
            for method in ("quad", "series")
        ),
        ("verify", "--suite", "all", "--n", "3", "--format", "json"),
        ("probe", "--n", "4", "--samples", "25", "--seed", "1", "--format", "json"),
    ]

    @staticmethod
    def _reject(token):
        raise ValueError(f"non-JSON token {token}")

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_output_parses_as_strict_json(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out, parse_constant=self._reject)


class TestErrors:
    def test_domain_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--n", "1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, minimum",
        [
            (["constants"], 2),
            (["phi-table"], 3),
            (["verify"], 3),
            (["extremal"], 2),
            (["probe"], 2),
            (["bound", "--rho", "0.5"], 2),
        ],
    )
    def test_dimension_below_the_declared_minimum_exit_two(self, capsys, monkeypatch, argv, minimum):
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], "--help"])
        assert excinfo.value.code == 0
        assert re.search(r"ambient dimension \(>=\s+(\d+)\)", capsys.readouterr().out).group(1) == str(minimum)
        # refused before the command does any work
        run = cli.build_parser().parse_args([*argv, "--n", str(minimum)]).run
        monkeypatch.setattr(cli, run, lambda args: pytest.fail(f"{run} ran"))
        code, out, err = run_cli(capsys, *argv, "--n", str(minimum - 1))
        assert (code, out, err) == (2, "", f"error: dimension must be an integer >= {minimum}\n")

    def test_theorem_b_in_dimension_two_exit_two(self, capsys):
        # the suite runs in dimension two from the library, not from the command line
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--suite", "theoremB")
        assert (code, out, err) == (2, "", "error: dimension must be an integer >= 3\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("phi-table", "--n", "4", "--steps", "0"),
            ("probe", "--n", "4", "--samples", "0"),
            ("probe", "--n", "4", "--samples", "-3"),
        ],
    )
    def test_empty_grid_or_sample_set_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "error",
        [
            OverflowError("math range error"),
            ConvergenceError("series did not converge", value=1.0, error_estimate=0.5),
        ],
    )
    def test_numerical_failure_exit_two(self, capsys, monkeypatch, error):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_constants", fail)
        code, out, err = run_cli(capsys, "constants", "--n", "3")
        assert code == 2
        assert out == ""
        if isinstance(error, OverflowError):
            assert err == "error: numerical overflow at n = 3: a value exceeds the binary64 range\n"
        else:
            assert err == f"error: {error}\n"

    @pytest.mark.parametrize("n", ["300", "400"])
    def test_constants_overflow_names_the_dimension(self, capsys, n):
        # n = 300 overflows a float power in halfspace_constant (an errno
        # tuple), n = 400 math.gamma in ball_volume ("math range error")
        code, out, err = run_cli(capsys, "constants", "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"error: numerical overflow at n = {n}: a value exceeds the binary64 range\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--n", "12", "--rho", "0.9"),
            ("verify", "--n", "12", "--suite", "theoremB"),
            ("probe", "--n", "12", "--samples", "1"),
        ],
    )
    def test_every_route_reads_the_default_spec(self, capsys, monkeypatch, argv):
        # the quadrature module owns the default settings; a budget of one
        # split set there must reach the profile, engine and sphere routes
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "did not meet its tolerance within 1 subdivisions" in err

    def test_phi_table_reads_no_spec(self, capsys, monkeypatch):
        # its profile column comes from the one-sided route's fixed layout,
        # and its other columns from the series and closed forms
        argv = ("phi-table", "--n", "12", "--steps", "3", "--method", "quad")
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))
        assert expected[0] == 0 and run_cli(capsys, *argv) == expected

    def test_identities_read_no_spec(self, capsys, monkeypatch):
        # the kernel moments' brute force runs on fixed Gauss rules, and
        # every other identity on series and closed forms
        argv = ("verify", "--n", "12", "--suite", "identities")
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))
        assert expected[0] == 0 and run_cli(capsys, *argv) == expected

    def test_a_default_spec_set_between_two_probes_is_seen(self, capsys, monkeypatch):
        # the second command runs the same probe under a budget of one split,
        # too few at n = 44.  Its batch must integrate anew, before any
        # pointwise bound, so the band engine is the one that runs out; the
        # first command's values must not be reused
        argv = ("probe", "--n", "44", "--samples", "1")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(quadrature, "DEFAULT_SPEC", QuadratureSpec(max_subdivisions=1))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: band quadrature did not meet its tolerance within 1 subdivisions")

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--n", "4", "--suite", "bogus"])
        assert excinfo.value.code == 2

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["constants", "--n", "3", "--output", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["n"] == 3
        assert capsys.readouterr().out == ""

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(capsys, "constants", "--n", "3", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.exists()

    def test_roundoff_limited_integral_converges(self, capsys):
        # the n = 35 kernel moments are limited by roundoff, not by the
        # 1e-12 tolerance; the stopping test accepts the roundoff floor
        code, out, err = run_cli(capsys, "verify", "--n", "35", "--suite", "identities")
        assert code == 0
        assert err == ""
        assert json.loads(out)["passed"] is True
