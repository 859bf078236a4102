"""How fast the host runs right now, read with a fixed angk0-free workload.

On a shared VM the speed of the same single-threaded Python code swings by
up to two times within seconds (steal time stays at zero: the vCPU itself
runs slower).  Over 26 back-to-back calls of one case, each bracketed by two
probe() readings on a 2-core x86 VM with Python 3.11, the correlation
between call time and mean probe reading was 0.66 to 0.95 and the
quartile spread of the call times fell from 0.24-0.37 of the median to
0.10-0.12 once each call was divided by its probe reading.  The benchmark
therefore reports every time as ``elapsed * factor(before, after)``: the
time it would have taken at the host speed where probe() reads REF_MS.
"""

from __future__ import annotations

import time

# probe() on a 2-core x86 VM with Python 3.11 at its fast speed
REF_MS = 3.6
_REPS = 6
_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + (i == j) * 9 for j in range(22)] for i in range(22)]


def probe() -> float:
    """Milliseconds for six fraction-free eliminations of a fixed 22 x 22
    integer matrix."""
    start = time.perf_counter()
    for _ in range(_REPS):
        a = [row[:] for row in _MATRIX]
        prev = 1
        for k in range(21):
            for i in range(k + 1, 22):
                for j in range(k + 1, 22):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
    return (time.perf_counter() - start) * 1000.0


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two probe() readings."""
    return 2.0 * REF_MS / (before + after)
