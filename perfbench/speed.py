"""The machine's speed, read from a fixed reference loop.

The 2-vCPU VM this benchmark was built on runs pure Python in a fast and a
slow state, about 1.65 times apart, each vCPU switching on its own every
few seconds with no other process of its own running: its neighbours on
the host set the pace.  A run that falls into slow spells would read slow
whatever the program does.  So every timed part of a round is preceded by a short run
of `reference_loop`, which touches no gbs code and never changes, and the
benchmark reports its times scaled to a machine on which that loop takes
`REFERENCE_S`.  The slow and the fast states each last for seconds, so a
sample taken just before a part and one just after it tell its speed.
"""

from __future__ import annotations

import time

# About what the reference loop takes in the build machine's fast state.
REFERENCE_S = 0.002


def reference_loop() -> int:
    """Tuple keys, dict lookups, list growth and small-int arithmetic: the
    operations gbs spends its time on, with no gbs code."""
    table = {}
    acc = 0
    for i in range(6000):
        key = (i & 63, i >> 6)
        row = table.get(key)
        if row is None:
            table[key] = row = [i]
        else:
            row.append(i)
        acc += len(row) + (i * 7919) % 13
    return acc


def sample(repeat: int = 3) -> float:
    """The shortest of `repeat` runs of the reference loop: the machine's
    speed now, with no interruption counted."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return min(times)
