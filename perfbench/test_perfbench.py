"""Tests of the benchmark's tracer and output checks.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ballgrad  # noqa: E402
from ballgrad import cli, quadrature  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Table, Verify  # noqa: E402


class CountingIntegrand:
    """Integrand that counts its calls (one per Gauss panel) and the
    points it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = 0

    def __call__(self, t):
        self.calls += 1
        self.points += np.size(t)
        return self.fn(t)


def _metric(tracer, name):
    return tracer.metrics()[name]["value"]


@pytest.mark.parametrize(
    "a, b, spec, weight",
    [
        (-0.5, 0.7, quadrature.QuadratureSpec(), 0.0),
        (-0.5, 0.7, quadrature.QuadratureSpec(base_nodes=7), 0.0),
        (-1.0, 1.0, quadrature.QuadratureSpec(kinks=(-0.3, 0.2, 0.6)), 0.0),
        (-1.0, 1.0, quadrature.QuadratureSpec(kinks=(0.1,)), 1.5),
        (-1.0, 0.4, quadrature.QuadratureSpec(kinks=(-0.2,), base_nodes=9), -0.25),
        (-1.0, 1.0, None, 0.5),
    ],
)
def test_panel_and_eval_formulas_match_counted_work(a, b, spec, weight):
    f = CountingIntegrand(lambda t: np.abs(np.sin(3.0 * t)) + t * t)
    with Tracer(ballgrad) as tracer:
        result = quadrature.integrate(f, a, b, spec, weight_exponent=weight)
    assert _metric(tracer, "quadrature.integrate.calls") == 1
    assert _metric(tracer, "quadrature.integrate.splits") == result.subdivisions_used
    assert _metric(tracer, "quadrature.integrate.panels") == f.calls
    assert _metric(tracer, "quadrature.integrate.evals") == f.points
    assert _metric(tracer, "quadrature.integrate.budget_exhausted") == 0


def test_formulas_hold_for_the_singular_weight_at_n2():
    f = CountingIntegrand(lambda t: np.sign(t - 0.3) / (1.0 + 25.0 * t * t))
    spec = quadrature.QuadratureSpec(kinks=(-0.5, 0.3))
    with Tracer(ballgrad) as tracer:
        quadrature.zonal_sphere_integral(f, 2, spec)
    assert _metric(tracer, "quadrature.integrate.panels") == f.calls
    assert _metric(tracer, "quadrature.integrate.evals") == f.points
    assert _metric(tracer, "quadrature.integrate.splits") > 0


def test_exhausted_budget_is_counted_with_its_panels():
    f = CountingIntegrand(lambda t: np.sqrt(np.abs(t - 0.123)))
    spec = quadrature.QuadratureSpec(max_subdivisions=3)
    with Tracer(ballgrad) as tracer:
        with pytest.raises(ballgrad.ConvergenceError):
            quadrature.integrate(f, -1.0, 1.0, spec)
    assert _metric(tracer, "quadrature.integrate.budget_exhausted") == 1
    assert _metric(tracer, "quadrature.integrate.splits") == 3
    assert _metric(tracer, "quadrature.integrate.panels") == f.calls


def test_names_imported_by_value_are_rebound_and_restored():
    originals = {
        (ballgrad.phi, "integrate"): ballgrad.phi.integrate,
        (ballgrad.specfun, "integrate"): ballgrad.specfun.integrate,
        (ballgrad.bounds, "phi_quad"): ballgrad.bounds.phi_quad,
        (ballgrad.harmonic, "zonal_sphere_integral"): ballgrad.harmonic.zonal_sphere_integral,
        (cli, "merge_reports"): cli.merge_reports,
    }
    with Tracer(ballgrad):
        for (module, attr), original in originals.items():
            assert getattr(module, attr).__wrapped__ is original
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_zonal_sphere_integral_calls_the_wrapped_integrate():
    with Tracer(ballgrad) as tracer:
        quadrature.zonal_sphere_integral(lambda t: 1.0 + 0.0 * t, 4)
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("quadrature.zonal_sphere_integral", "quadrature.integrate")
    assert inner.parent == outer.id


def test_self_times_partition_the_outer_span():
    with Tracer(ballgrad) as tracer:
        ballgrad.phi.phi_series(4, 0.5)
    root = tracer.spans[0]
    assert root.name == "phi.phi_series" and root.parent is None
    total_self = sum(s.as_dict()["self_s"] for s in tracer.spans)
    assert math.isclose(total_self, root.end - root.start, rel_tol=1e-9)
    assert all(s.as_dict()["self_s"] >= 0.0 for s in tracer.spans)


def test_series_terms_go_to_the_innermost_span():
    with Tracer(ballgrad) as tracer:
        ballgrad.phi.phi_series(4, 0.5)
        ballgrad.phi.phi_second_series(4, 0.5)
    first = _metric(tracer, "phi.phi_series.terms")
    second = _metric(tracer, "phi.phi_second_series.terms")
    assert first > 0 and second > 0
    assert _metric(tracer, "specfun.gegenbauer_iter.terms") == first + second


def test_absent_target_is_left_out_not_zero(monkeypatch):
    monkeypatch.delattr(ballgrad.phi, "technical_gap")
    with Tracer(ballgrad) as tracer:
        ballgrad.phi.phi_quad(4, 0.5)
    assert tracer.absent == ["phi.technical_gap"]
    assert not any(name.startswith("phi.technical_gap.") for name in tracer.metrics())
    assert _metric(tracer, "phi.phi_quad.calls") == 1


def test_traced_counts_repeat_exactly():
    def counts():
        with Tracer(ballgrad) as tracer, contextlib.redirect_stdout(io.StringIO()):
            cli.main(["phi-table", "--n", "4", "--steps", "5", "--method", "series"])
            cli.main(["probe", "--n", "2", "--samples", "3", "--seed", "7"])
        return {
            name: m["value"]
            for name, m in tracer.metrics().items()
            if name.rsplit(".", 1)[-1] in ("calls", "splits", "panels", "evals", "terms")
        }

    first = counts()
    assert first["quadrature.integrate.calls"] > 0 and first["phi.phi_series.terms"] > 0
    assert counts() == first


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_table_check_accepts_agreement_and_names_a_wrong_value():
    table = Table(seed=0)
    argv = ["phi-table", "--n", "4", "--method", "quad", "--steps", "101", "--format", "json"]
    rc, out = _run(argv)
    table.prepare(ballgrad)
    assert table.check(argv, rc, out) is None
    payload = json.loads(out)
    payload["rows"][7]["phi"] += 1e-9
    assert "off its oracle" in table.check(argv, rc, json.dumps(payload))
    assert "exit code 1" in table.check(argv, 1, out)


def test_table_check_allows_the_tested_routes_own_error_estimate():
    # At n = 12, rho = 0.99 the series value is off the quad value by more
    # than quad's estimate but less than the series route's own estimate.
    table = Table(seed=0)
    argv = ["phi-table", "--n", "12", "--method", "series", "--steps", "101", "--format", "json"]
    rc, out = _run(argv)
    table.prepare(ballgrad)
    quad = ballgrad.phi.phi_quad(12, 0.99)
    series = ballgrad.phi.phi_series(12, 0.99)
    assert quad.error_estimate < abs(series.value - quad.value) <= series.error_estimate
    assert table.check(argv, rc, out) is None
    payload = json.loads(out)
    payload["rows"][-1]["phi"] = quad.value + 2.0 * (quad.error_estimate + series.error_estimate)
    assert "off its oracle" in table.check(argv, rc, json.dumps(payload))


def test_verify_check_fails_on_a_failed_check_that_is_not_expected():
    report = {"suite": "all", "n": 4, "passed": False,
              "checks": [{"name": "a", "passed": False, "expected": True},
                         {"name": "b", "passed": False, "expected": False}]}
    argv = ["verify", "--suite", "all", "--n", "4"]
    assert Verify(seed=0).check(argv, 0, json.dumps(report)) == "checks failed: b"
