"""Benchmark of the ballgrad command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

One process drives ``ballgrad.cli.main(argv)`` in-process with stdout
captured, over the workload's command cycles (see ``workloads.py``), and
checks every output.  With ``--trace 0`` it prints the end-to-end metrics,
their times scaled to nominal machine speed (see ``speed.py``);
with ``--trace 1`` it runs one fixed pass of commands under the outside-in
tracer (``tracer.py``), between two untraced runs of the same pass, and
prints the per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

A command fails when it raises, exits with another code than expected,
fails its output check, or prints other bytes than an earlier run of the
same argv.
"""

import os

# Pin BLAS threads in this process's environment, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import reference_loop, speed_factor
from tracer import Tracer
from workloads import WORKLOADS

SETUP_RUNS = 25
# Prints the import time, then the reference loop's times in the same
# interpreter, taken after the import so that they do not add to it.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import ballgrad, ballgrad.cli\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, 'perfbench')\n"
    "from speed import reference_loop\n"
    "print(t1 - t0, *(reference_loop() for _ in range(3)))\n"
)
SPAN_DIR = ".perfbench"


def load_program(root):
    """Import ballgrad from ``root/src``, never from an installed copy."""
    src = (root / "src").resolve()
    if not (src / "ballgrad" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ballgrad sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import ballgrad
    import ballgrad.cli

    if not Path(ballgrad.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported ballgrad from {ballgrad.__file__}, not from {src}")
    return ballgrad


def measure_setup(root):
    """Median time, in fresh interpreters, to import ballgrad and its CLI,
    each at nominal machine speed (see ``speed.py``).

    One untimed import first compiles the bytecode caches, which users do
    not pay on every run."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=root, capture_output=True, text=True,
            timeout=60, check=True,
        )
        if i:
            import_s, *refs = map(float, proc.stdout.split())
            samples.append(import_s * speed_factor(refs))
    return statistics.median(samples), len(samples)


class Runner:
    """Invokes CLI commands, checks their outputs and counts failures."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failures = {}  # (argv, reason) -> count
        self._digests = {}

    def invoke(self, argv):
        """Run one command; return its wall time and stdout length in bytes."""
        self.attempted += 1
        buf = io.StringIO()
        rc = exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a failed command is counted, not fatal
            exc = e
        dt = time.perf_counter() - t0
        out = buf.getvalue()
        reason = f"raised {exc!r}" if exc is not None else self._check(argv, rc, out)
        if reason is not None:
            key = (" ".join(argv), reason)
            self.failures[key] = self.failures.get(key, 0) + 1
        return dt, len(out.encode())

    def _check(self, argv, rc, out):
        digest = hashlib.sha256(out.encode()).hexdigest()
        first = self._digests.setdefault(tuple(argv), digest)
        if digest != first:
            return "stdout differs from an earlier run of the same argv"
        try:
            return self.workload.check(argv, rc, out)
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable output: {e!r}"

    @property
    def failed(self):
        return sum(self.failures.values())

    def report_failures(self):
        print(f"fail_ratio {self.failed}/{self.attempted} = {self.failed / self.attempted:.6g}")
        for (cmd, reason), count in sorted(self.failures.items()):
            print(f"  FAILED x{count}: ballgrad {cmd}: {reason}")


def timed_run(runner, workload, seconds):
    """Whole cycles of commands until ``seconds`` of wall time have passed.

    The reference loop runs before every command; the median of a cycle's
    loop times scales that cycle's command times to nominal machine speed.
    Returns the scaled time of every command, the work units and summed
    scaled command time of every cycle, and the wall time of every command."""
    times = []
    cycles = []
    wall = []
    k = 0
    deadline = time.perf_counter() + seconds
    while True:
        units = 0
        refs = []
        cycle_times = []
        for argv in workload.cycle(k):
            refs.append(reference_loop())
            dt, _ = runner.invoke(argv)
            cycle_times.append(dt)
            units += workload.units(argv)
        factor = speed_factor(refs)
        times += [dt * factor for dt in cycle_times]
        wall += cycle_times
        cycles.append((units, sum(cycle_times) * factor))
        k += 1
        if time.perf_counter() >= deadline:
            return times, cycles, wall


def end_to_end(root, runner, workload, seconds):
    setup_s, setup_n = measure_setup(root)
    times, cycles, wall = timed_run(runner, workload, seconds)
    # Medians over cycles and commands keep short bursts of load from other
    # processes on the machine out of the figures.
    throughput = statistics.median(units / busy for units, busy in cycles)
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10)[-1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    beyond = sum(t > p90 for t in times)
    print(f"workload {workload.name}: {len(times)} timed commands in {len(cycles)} cycles, "
          f"{sum(u for u, _ in cycles)} {workload.unit} in {sum(wall):.3f} s of command wall time "
          f"(median {statistics.median(wall):.6f} s); times below are at nominal machine speed")
    print(f"  setup_s          {setup_s:.6f} s    median of {setup_n} fresh interpreters")
    print(f"  throughput_per_s {throughput:.6f} 1/s  {workload.unit} per second, median of {len(cycles)} cycles")
    print(f"  cmd_s_p50        {p50:.6f} s    of {len(times)} commands")
    print(f"  cmd_s_p90        {p90:.6f} s    of {len(times)} commands, {beyond} beyond it")
    print(f"  peak_rss_mb      {peak_rss_mb:.3f} MB")
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "cmd_s_p50": (p50, "s"),
        "cmd_s_p90": (p90, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(root, ballgrad, runner, workload, seed):
    argvs = workload.traced_pass()

    def untraced_pass():
        return sum(runner.invoke(argv)[0] for argv in argvs)

    # Untraced passes before and after the traced one, so that a slow spell
    # of the machine shifts both sides of the overhead alike.
    before = untraced_pass()
    with Tracer(ballgrad) as tracer:
        traced_s = 0.0
        for i, argv in enumerate(argvs):
            tracer.request = i
            dt, out_bytes = runner.invoke(argv)
            traced_s += dt
            tracer.count("cli.main", "out_bytes", out_bytes)
    untraced_s = 0.5 * (before + untraced_pass())
    span_dir = root / SPAN_DIR
    span_dir.mkdir(exist_ok=True)
    span_path = span_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(span_path)

    metrics = {name: (m["value"], m["unit"]) for name, m in tracer.metrics().items()}
    metrics["bench.untraced_pass_s"] = (untraced_s, "s")
    metrics["bench.traced_pass_s"] = (traced_s, "s")
    metrics["bench.trace_overhead"] = (traced_s / untraced_s, "ratio")
    print(f"workload {workload.name}: traced pass of {len(argvs)} commands, "
          f"{len(tracer.spans)} spans written to {span_path.relative_to(root)}")
    print(f"  tracing overhead: traced {traced_s:.3f} s against untraced {untraced_s:.3f} s "
          f"(x{traced_s / untraced_s:.3f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:.6g} {unit}")
    if tracer.absent:
        print("  absent (no longer in the package, not reported): " + ", ".join(tracer.absent))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    ballgrad = load_program(root)
    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(ballgrad.cli, workload)
    workload.prepare(ballgrad)
    for argv in workload.cycle(0):  # warm-up, untimed
        runner.invoke(argv)
    if args.trace:
        metrics = traced(root, ballgrad, runner, workload, args.seed)
    else:
        metrics = end_to_end(root, runner, workload, args.seconds)
    runner.report_failures()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
