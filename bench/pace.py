"""Host pace: a fixed pure-Python reference task, timed between operations.

The benchmark host's vCPUs change speed by a fifth or more within
seconds, and the change shows in CPU time as much as in wall time, so
no statistic over a run removes it.  The worker therefore times this
task between operations and scales each operation's time by
``REFERENCE_S / pace`` where ``pace`` is the task's time measured
around that operation.  The scaled figures read as seconds on a host
that runs the task in ``REFERENCE_S``.

The task uses no chernforge code, so a change to the program cannot
move it.  It is the kind of work chernforge does: Fraction arithmetic,
dictionaries keyed by small index tuples, sorting and tuple merging.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The pace that scaled times refer to: one run of the task in 1 ms.
REFERENCE_S = 0.001
PASSES = 3

_ZERO = Fraction(0)


def _task() -> Fraction:
    table = {}
    for a in range(1, 25):
        key = (a % 4, a % 3 + 4)
        table[key] = table.get(key, _ZERO) + Fraction(a % 7 - 3, a % 5 + 1)
    items = sorted(table.items())
    merged = {}
    for k1, v1 in items:
        for k2, v2 in items:
            key = tuple(sorted(k1 + k2))
            merged[key] = merged.get(key, _ZERO) + v1 * v2
    return sum(merged.values(), _ZERO)


def sample() -> tuple[float, float]:
    """(wall, cpu) seconds of one run of the task, averaged over PASSES.

    The mean, not the fastest pass: time the hypervisor takes from the
    vCPU slows the operations' wall time, and it should slow the pace
    in the same proportion.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(PASSES):
        _task()
    return ((time.perf_counter() - wall0) / PASSES,
            (time.process_time() - cpu0) / PASSES)
