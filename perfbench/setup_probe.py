"""Prints the time one benchmark run spends importing the program and
constructing its networks, backends and games, in reference seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is import and memory work, which the CPU reference of `speed` does
not track. The probe gauges machine speed by work of the same kind that is
the same for every version of the program: compiling a fixed stdlib module
and importing numpy. Set-up time is scaled by the gauge's time.

The probe runs with one BLAS thread. With more, numpy's import also
starts OpenBLAS's thread pool. That is not the program's work, and its
cost depends on machine state: on one host it was about 0.07 s of a
0.16 s import, but for a 20-minute stretch set-up scaled by a gauge that
included it read 45% higher, as when the start costs nothing.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy is imported

t0 = time.perf_counter()
with open(os.path.join(os.path.dirname(os.__file__), "argparse.py")) as fh:
    source = fh.read()
for _ in range(3):
    compile(source, "argparse.py", "exec")
t1 = time.perf_counter()

import numpy  # noqa: E402,F401

t_gauge = time.perf_counter() - t0

from run import import_program  # noqa: E402  (stdlib-only at import)

import_program()
import harness  # noqa: E402
import speed  # noqa: E402

harness.build_all(sys.argv[1], int(sys.argv[2]))
print((time.perf_counter() - t1) * speed.SETUP_GAUGE_S / t_gauge)
