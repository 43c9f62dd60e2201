"""The three benchmark workloads: the CLI commands they run, the work units
they complete, and the checks their outputs must pass.

Each workload is a repeating sequence of command cycles.  ``cycle(k)`` gives
the argv lists of cycle ``k``; a timed run only stops between cycles, so
every run holds the same mix of commands.  A traced run makes one fixed
pass over the first ``trace_cycles`` cycles, so its work counts repeat
exactly.
"""

from __future__ import annotations

import csv
import io
import json
import random

import numpy as np

TABLE_STEPS = 101
PROBE_SAMPLES = 25
PROBE_RADII = 11  # probe_schwarz_pick and probe_conjecture sweep 11 radii by default
VERIFY_SUITES = 5  # suites in ``verify --suite all``


class Workload:
    trace_cycles = 1

    def __init__(self, seed):
        self.seed = seed

    def traced_pass(self):
        return [argv for k in range(self.trace_cycles) for argv in self.cycle(k)]

    def prepare(self, ballgrad):
        """Compute what the output checks need, before anything is timed."""


class Verify(Workload):
    name = "verify"
    why = (
        "verify --suite all at n = 3, 4, 12: grid sweeps where phi_quad, the concavity series "
        "and hyp2f1 do the work and harmonic is nearly idle"
    )
    unit = "suites"
    dims = (3, 4, 12)

    def cycle(self, k):
        return [["verify", "--suite", "all", "--n", str(n)] for n in self.dims]

    def units(self, argv):
        return VERIFY_SUITES

    def check(self, argv, rc, out):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        report = json.loads(out)
        bad = [c["name"] for c in report["checks"] if not (c["passed"] or c["expected"])]
        if bad:
            return "checks failed: " + ", ".join(bad)
        if report["passed"] is not True or report["n"] != int(argv[-1]):
            return "report not passed or wrong dimension"
        return None


class Probe(Workload):
    name = "probe"
    why = (
        "probe --samples 25 at n = 2, 4, 12 on seeded data: kinked zonal integrals through "
        "harmonic and integrate, with phi and specfun nearly idle"
    )
    unit = "datum_radius_pairs"
    dims = (2, 4, 12)

    trace_cycles = 4

    def command_seed(self, k, n):
        """Seed of the ``--n n`` command in cycle ``k``, derived from the
        benchmark seed.  Every command gets its own data, so a run averages
        the cost of many data rather than of one seed's."""
        return random.Random(f"probe-{self.seed}-{k}-{n}").randrange(2**31)

    def cycle(self, k):
        return [
            ["probe", "--n", str(n), "--samples", str(PROBE_SAMPLES), "--seed", str(self.command_seed(k, n))]
            for n in self.dims
        ]

    def units(self, argv):
        return PROBE_SAMPLES * PROBE_RADII

    def check(self, argv, rc, out):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        report = json.loads(out)
        if report["passed"] is not True:
            bad = [c["name"] for c in report["checks"] if not (c["passed"] or c["expected"])]
            return "probe not passed: " + ", ".join(bad)
        return None


class Table(Workload):
    name = "table"
    why = (
        "phi-table at n = 3, 4, 12 by both methods, as CSV and JSON: pointwise profile values, "
        "the only phi_series route, and both renderers"
    )
    unit = "rows"
    dims = (3, 4, 12)
    methods = ("quad", "series")

    def __init__(self, seed):
        super().__init__(seed)
        self.oracles = {}

    def cycle(self, k):
        # Consecutive commands alternate formats; over two passes every
        # (n, method) pair is rendered both as CSV and as JSON.
        pairs = [(n, m) for n in self.dims for m in self.methods]
        return [
            ["phi-table", "--n", str(n), "--method", m, "--steps", str(TABLE_STEPS),
             "--format", ("csv", "json")[(i + p) % 2]]
            for p in range(2)
            for i, (n, m) in enumerate(pairs)
        ]

    def units(self, argv):
        return TABLE_STEPS

    def prepare(self, ballgrad):
        """Profile values by an independent route, computed before timing:
        the closed form at n = 3, the other method otherwise.

        Both routes are approximations that each declare an error estimate,
        so a printed value agrees with its oracle when they differ by at most
        the sum of the two estimates (and never less than 1e-12): if each
        lies within its own estimate of the true profile, they lie within
        the sum of each other.  Judging a value by the oracle's estimate
        alone would fail a route whose value is within its own declared
        error, as the series route is at n = 12, rho = 0.99."""
        grid = [float(r) for r in np.linspace(0.0, 0.99, TABLE_STEPS)]
        phi = ballgrad.phi
        routes = {"quad": phi.phi_quad, "series": phi.phi_series}
        for n in self.dims:
            for method in self.methods:
                if n == 3:
                    ref = [(phi.phi3_closed(r), 0.0) for r in grid]
                else:
                    route = routes["series" if method == "quad" else "quad"]
                    ref = [(e.value, e.error_estimate) for e in (route(n, r) for r in grid)]
                own = [routes[method](n, r).error_estimate for r in grid]
                tolerances = [max(1e-12, ref_est + own_est) for (_, ref_est), own_est in zip(ref, own)]
                self.oracles[(n, method)] = (grid, [v for v, _ in ref], tolerances)

    def check(self, argv, rc, out):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        n, method, fmt = int(argv[2]), argv[4], argv[-1]
        if fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            rows = json.loads(out)["rows"]
        grid, ref, tolerances = self.oracles[(n, method)]
        if len(rows) != len(grid):
            return f"{len(rows)} rows, expected {len(grid)}"
        for row, rho, value, tol in zip(rows, grid, ref, tolerances):
            if float(row["rho"]) != rho:
                return f"row at rho={row['rho']}, expected {rho!r}"
            err = abs(float(row["phi"]) - value)
            if not err <= tol:
                return f"phi at rho={rho!r} off its oracle by {err:.3g} > {tol:.3g}"
        return None


WORKLOADS = {w.name: w for w in (Verify, Probe, Table)}
