"""Write ``perfbench/run_record.json``: the machine, the commands and one
end-to-end and one traced run of every workload at a given seed.

Run from the root of the repository:

    python3 perfbench/record.py --seed 1 --seconds 25
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["failing_commands"] = [line.strip() for line in lines if line.strip().startswith("FAILED")]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()

    import numpy

    record = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name, cls in WORKLOADS.items():
        workload = cls(args.seed)
        record["workloads"][name] = {
            "why": workload.why,
            "unit": workload.unit,
            "first_cycle_argv": workload.cycle(0),
            "traced_pass_argv": workload.traced_pass(),
            "end_to_end": _run(name, args.seed, args.seconds, 0),
            "traced": _run(name, args.seed, args.seconds, 1),
        }
        print(f"recorded {name}", flush=True)
    out = HERE / "run_record.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
