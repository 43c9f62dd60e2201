"""Batch command-line front end.

Subcommands: ``constants``, ``phi-table``, ``verify``, ``extremal``,
``probe`` and ``bound``, emitting CSV or JSON.  Identical flags (including
the seed) produce byte-identical output.  Exit codes: 0 on success, 1 when
a non-expected check failed, 2 on usage or domain errors, on numerical
failures (overflow, a series or quadrature out of budget) and when the
``--output`` file cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from . import bounds, harmonic, phi, specfun
from .errors import ConvergenceError, check_dim
from .report import VerificationReport, merge_reports

# suite -> module and name of its function, looked up at call time, so a
# rebound module attribute (a tracer's wrapper, say) is the one that runs
_SUITE_RUNS = {
    "monotone": (phi, "verify_monotone"),
    "concavity": (phi, "verify_concavity"),
    "technical": (phi, "verify_technical"),
    "identities": (specfun, "verify_identities"),
    "theoremB": (harmonic, "verify_theorem_b"),
}
SUITES = ("all", *_SUITE_RUNS)


def _constants_payload(n: int):
    return [
        ("n", n),
        ("ball_volume", bounds.ball_volume(n)),
        ("ball_volume_lower", bounds.ball_volume(n - 1)),
        ("schwarz_pick_constant", bounds.schwarz_pick_constant(n)),
        ("khavinson_sharp_constant_3d", bounds.khavinson_sharp_constant_3d()),
        ("gradient_bound_numerator", bounds.gradient_bound(n, 0.0)),
        ("pw_coefficient", bounds.pw_bound(n, 1.0, 1.0)),
        ("halfspace_constant", bounds.halfspace_constant(n)),
    ]


# Each ``_cmd_*`` returns its JSON payload, its CSV rows as dicts (the keys
# are the header) and its exit code; main renders one of the two forms and
# writes it once.


def _cmd_constants(args):
    pairs = _constants_payload(args.n)
    return dict(pairs), [{"name": k, "value": float(v)} for k, v in pairs], 0


def _phi_values(n, rhos, method):
    if method == "quad":
        return phi.phi_one_sided(n, rhos).value
    if method == "series":
        return phi.phi_series(n, rhos).value
    if method == "closed3":
        if n != 3:
            raise ValueError("method closed3 requires --n 3")
        return np.array([phi.phi3_closed(rho) for rho in rhos.tolist()])


def _cmd_phi_table(args):
    n = args.n
    if args.steps < 1:
        raise ValueError("phi-table requires --steps >= 1")
    grid = np.linspace(0.0, 0.99, args.steps)
    h = 1e-5
    # every radius the table reads, in one call: rho, rho + h, |rho - h|
    value, up, down = _phi_values(n, np.concatenate((grid, grid + h, np.abs(grid - h))), args.method).reshape(3, -1)
    summed = phi.phi_second_series(n, grid)
    columns = {
        "rho": grid,
        "phi": value,
        "dphi_fd": (up - down) / (2.0 * h),
        "d2phi_closed": phi.phi_second(n, grid, summed).value,
        "d2phi_series": summed.value,
    }
    rows = [dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))]
    return {"n": n, "rows": rows}, rows, 0


def _report_result(report: VerificationReport):
    payload = report.as_dict()
    return payload, payload["checks"], 0 if report.passed else 1


def _run_suite(name: str, n: int) -> VerificationReport:
    module, function = _SUITE_RUNS[name]
    return getattr(module, function)(n)


def _cmd_verify(args):
    if args.suite == "all":
        reports = [_run_suite(s, args.n) for s in _SUITE_RUNS]
        return _report_result(merge_reports("all", args.n, reports))
    return _report_result(_run_suite(args.suite, args.n))


def _cmd_extremal(args):
    n = args.n
    value = harmonic.extremal_gradient_at_origin(n).value
    target = bounds.schwarz_pick_constant(n)
    err = abs(value - target)
    payload = {
        "n": n,
        "extremal_gradient_at_origin": value,
        "schwarz_pick_constant": target,
        "abs_error": err,
        "passed": err <= 1e-8,
    }
    return payload, [payload], 0 if payload["passed"] else 1


def _cmd_probe(args):
    batch = harmonic.probe_batch(args.n, args.samples, args.seed)
    reports = [harmonic.probe_schwarz_pick(batch)]
    if args.n != 3:
        reports.append(harmonic.probe_conjecture(batch))
    return _report_result(merge_reports("probe", args.n, reports))


def _cmd_bound(args):
    (row,) = bounds.bound_table(args.n, [args.rho])
    d = asdict(row)
    return {"n": args.n, **d}, [d], 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballgrad",
        description="Sharp gradient bounds for bounded harmonic functions on the unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, run, n_min=2, fmt="json"):
        p = sub.add_parser(name, help=help_text)
        # by name, so a parser built once runs the module's current function;
        # n_min is the one dimension check of the command line, made in main
        p.set_defaults(run=run.__name__, n_min=n_min)
        p.add_argument("--n", type=int, required=True, help=f"ambient dimension (>= {n_min})")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=fmt)
        return p

    command("constants", "emit every bound constant at dimension n", _cmd_constants)

    p = command("phi-table", "tabulate the profile and its derivatives", _cmd_phi_table, 3, fmt="csv")
    p.add_argument("--steps", type=int, default=101, help="grid points on [0, 0.99]")
    p.add_argument("--method", choices=("quad", "series", "closed3"), default="quad")

    p = command("verify", "run a verification suite", _cmd_verify, 3)
    p.add_argument("--suite", choices=SUITES, default="all")

    command("extremal", "hemisphere-datum gradient at the origin vs the constant", _cmd_extremal)

    p = command("probe", "Monte-Carlo probes of the bounds", _cmd_probe)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = command("bound", "one bound-table row", _cmd_bound, fmt="csv")
    p.add_argument("--rho", type=float, required=True)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Parsing does not change it, and
    every fresh argparse parser leaves about 60 kB of reference cycles for
    the garbage collector, which pile up over many in-process calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_dim(args.n, args.n_min)
        payload, rows, code = globals()[args.run](args)
    except OverflowError:
        # float and math overflows carry errno tuples or "math range error"
        print(f"error: numerical overflow at n = {args.n}: a value exceeds the binary64 range", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row.values()])
        text = buf.getvalue()
    if args.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
