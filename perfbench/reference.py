"""The machine's current speed, measured with a fixed piece of Python work.

On a shared virtual machine the same code can run at half speed for seconds
to minutes at a time (measured on a 2-core Intel Xeon VM: one and the same
request took from 0.8 to 1.8 times its median over three minutes, all of it
CPU time). No choice of run length or statistic hides a slow spell that
outlasts a run. So the benchmark times a short reference *slice*, which does
the kind of work pathcover does (breadth-first search over adjacency lists,
dict and set look-ups, integer bitmasks) but none of pathcover's code, next
to every request, and reports each time scaled to reference speed:

    scaled = measured * REF_S / (median of the nearby slice times)

A scaled time is in seconds as the program would take them on a machine that
runs one slice in REF_S. A change to pathcover moves it as it moves the
measured time; a slow spell of the machine slows the slices too and drops
out. The measured times are printed next to the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time

# One slice's time on the 2-core Xeon VM at its faster speed; it sets only
# the scale of the reported times.
REF_S = 0.0025
# A time is scaled by the median of this many slices around it.
WINDOW = 9

_N = 400
_rng = random.Random(7)
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _v in range(1, _N):
    _u = _rng.randrange(_v)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)
for _ in range(_N):
    _u, _v = _rng.sample(range(_N), 2)
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)


def _work() -> int:
    total = 0
    for s in range(0, _N, 25):
        dist = {s: 0}
        queue = [s]
        for x in queue:
            for y in _ADJ[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        mask = 0
        for v, d in dist.items():
            if d & 1:
                mask |= 1 << v
        total += bin(mask).count("1")
    return total


_EXPECTED = _work()


def slice_s() -> float:
    """Run one reference slice; return its time in seconds."""
    start = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - start
    if result != _EXPECTED:
        raise RuntimeError("the reference slice computed a different result")
    return elapsed


def scale(times: list[float], slices: list[float]) -> list[float]:
    """Scale each time to reference speed. ``slices[i]`` is the slice run
    just before ``times[i]``; the median of the WINDOW slices around it
    stands for the machine's speed at that moment."""
    half = WINDOW // 2
    scaled = []
    for i, t in enumerate(times):
        lo = max(0, min(i - half, len(slices) - WINDOW))
        scaled.append(t * REF_S / statistics.median(slices[lo:lo + WINDOW]))
    return scaled
