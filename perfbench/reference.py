"""Host-speed reference for timings on a shared machine.

The benchmark's host runs other tenants' work on the same cores, and a
core's speed switches between a fast and a slow state (about 1.6 times
slower) for periods from under a second to a minute.  A raw wall time
then tells more about the neighbours than about the program.

So the benchmark times a fixed kernel (a Python loop and a numpy
element-wise pass, like the workloads' own mix) before and after every
operation, and scales the operation's time by NOMINAL_S over the mean of
the two readings.  A change to the library moves the scaled time exactly
as it moves the raw one; a slow period of the host moves both the
operation and the kernel, and cancels.  Raw times stay in the run record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's uncontended time on the machine the benchmark was defined
# on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).  Scaled times are
# seconds on that machine at full speed.
NOMINAL_S = 2.6e-3
_X = np.linspace(0.0, 1.0, 50_000)


def read() -> float:
    """Time of one run of the reference kernel, in seconds.

    Not the fastest of several runs: a minimum picks the fast moments of
    a core that switches state quickly and under-reads a slow period.
    """
    t0 = perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i
    for _ in range(3):
        float(np.exp(np.cos(_X)).sum())
    return perf_counter() - t0
