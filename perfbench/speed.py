"""Machine-speed calibration for the end-to-end timings.

The benchmark's machines share their cores with other work, and their speed
drifts by 20-30% over spells of seconds to minutes; CPU time drifts with wall
time, so the slowdown is in the core, not in scheduling.  A fixed pure-Python
loop, timed next to the commands, drifts with it.  Every end-to-end time is
therefore reported at a nominal speed:

    time * REF_NOMINAL_S / (median time of the nearby reference loops)

so that it reads in seconds on a machine where the loop takes REF_NOMINAL_S.
The loop is part of the benchmark, not of the program, so a change to the
program moves the reported times and a change in machine speed does not.
"""

import statistics
import time

REF_ITERATIONS = 60_000
# Median time of reference_loop() on the 2-vCPU Intel Xeon machine the
# benchmark was defined on (Python 3.11.7).
REF_NOMINAL_S = 0.007


def reference_loop():
    """Run the fixed reference work once and return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def speed_factor(ref_times):
    """Factor that scales times measured next to ``ref_times`` to the nominal speed."""
    return REF_NOMINAL_S / statistics.median(ref_times)
