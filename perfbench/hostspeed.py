"""How fast the host runs right now, from a fixed reference kernel.

A shared host does not run this process at one speed: when other work
lands on the same physical core, identical pure-Python code takes up to
1.6 times as long, for stretches of seconds to minutes.  Wall-clock
figures then measure the neighbours as much as treetour.

The benchmark therefore times :func:`reference_kernel` right before and
right after every op.  The kernel is fixed work in the same style as the
library (integer bitsets, small lists and sets, short loops and calls),
and it never calls treetour, so a change to the program does not change
it.  An op's *scaled* time is its wall time times :data:`REF_S` over the
kernel time measured around it: the time the op would take on the host
running at the reference speed.
"""

from __future__ import annotations

import gc
import statistics
import time

# Close to the kernel's time on an idle 2-vCPU x86-64 VM with Python 3.11,
# whose busy spells stretch it to about 4.5 ms.  The value only fixes the
# unit: scaled times read as seconds on a host that runs the kernel in REF_S.
REF_S = 0.0028

_N = 22
_SEED = 12345


def reference_kernel() -> int:
    """Fixed pure-Python work of a few milliseconds; returns a checksum."""
    x = _SEED
    rows = [0] * _N
    for u in range(_N):
        for v in range(u + 1, _N):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            if x >> 63:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    total = 0
    for s in range(_N):
        seen = {s}
        path = [s]
        cur = s
        while True:
            cand = [v for v in range(_N) if (rows[cur] >> v) & 1 and v not in seen]
            if not cand:
                break
            cur = min(cand, key=lambda v: bin(rows[v]).count("1"))
            seen.add(cur)
            path.append(cur)
        total += len(path)
        for a in range(_N):
            for b in range(_N):
                if (rows[a] >> b) & 1 and (rows[b] >> s) & 1:
                    total += 1
    return total


CHECKSUM = 2740


def sample() -> float:
    """Seconds the kernel takes now.

    This is the faster of two back-to-back runs, with the garbage collector
    held off, so that one interrupt or collection does not count.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        took = []
        for _ in range(2):
            start = time.perf_counter()
            total = reference_kernel()
            took.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    if total != CHECKSUM:
        raise RuntimeError(f"reference kernel gave {total}, expected {CHECKSUM}")
    return min(took)


def scale(before: float, after: float) -> float:
    """Factor from wall time to scaled time, given the kernel times around it."""
    return REF_S / ((before + after) / 2)


def settled_scale() -> float:
    """Scale factor from the median of five back-to-back kernel samples."""
    return REF_S / statistics.median(sample() for _ in range(5))
