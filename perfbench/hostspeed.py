"""Host speed: a fixed reference loop, timed between the phases of a run.

A shared host's cores run the same code at speeds that differ by half
over seconds to minutes, while the thread's own CPU time shows no steal:
the core itself is slower.  Wall time therefore measures the host as much
as the broker.  The benchmark times this module's loop, which never
changes, on every CPU it may use, right before and after each timed
phase, while the server is idle, and scales that phase's times by
``REFERENCE_S / loop time``: a time is reported as it would read on a
host that runs the loop in :data:`REFERENCE_S`.  Raw times stay in
``result.json``.

The loop is timed in thread CPU time, so a process that merely competes
for a core (a busy server thread, say) does not read as a slower host
and cannot hide its cost.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the reference loop in one pass.
LOOP = 150_000

#: Passes per CPU in one probe.
PASSES = 2

#: Thread CPU seconds one pass takes at the reference speed: about the
#: median pass on the 2-core host the benchmark was written on, so
#: scaled times read close to real ones there.
REFERENCE_S = 0.0135


def _pass() -> float:
    start = time.thread_time()
    total = 0
    for number in range(LOOP):
        total += number * number
    return time.thread_time() - start


def probe() -> float:
    """Mean seconds of one pass, over every CPU this process may use."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            # Affinity of pid 0 is this thread's alone.
            os.sched_setaffinity(0, {cpu})
            times += [_pass() for _ in range(PASSES)]
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def factor(before: float, after: float) -> float:
    """Scale for times of a phase bracketed by probes ``before``/``after``."""
    return REFERENCE_S / ((before + after) / 2.0)
