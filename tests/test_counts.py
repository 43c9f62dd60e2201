"""The traced pass of every benchmark workload does no more counted work
than the committed baseline, ``BENCH_cbbcd0a.json`` at the root of the
repository: every metric of unit ``count`` or ``count_computed`` stays at
or below its recorded value.  The pass runs under the benchmark's own
tracer (``perfbench/tracer.py``), which this test only imports.  Times are
neither recorded nor gated: they are noisy, and the counts are not.

A change that lowers a count passes; it can write a new baseline, named
after its parent commit, from ``perfbench/run.py --trace 1``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import ballgrad  # noqa: E402
from ballgrad import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE = json.loads((ROOT / "BENCH_cbbcd0a.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "count_computed")


@pytest.mark.parametrize("name", sorted(BASELINE["workloads"]))
def test_traced_counts_do_not_rise_above_the_baseline(name):
    recorded = BASELINE["workloads"][name]
    argvs = WORKLOADS[name](BASELINE["seed"]).traced_pass()
    assert argvs == recorded["traced_pass_argv"]
    with Tracer(ballgrad) as tracer:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    counts = {key: m["value"] for key, m in tracer.metrics().items() if m["unit"] in COUNT_UNITS}
    baseline = {key: m["value"] for key, m in recorded["counts"].items()}
    assert counts.keys() & baseline.keys()
    risen = {key: (baseline[key], value) for key, value in counts.items() if value > baseline.get(key, value)}
    assert not risen, f"counts above the baseline (recorded, now): {risen}"
