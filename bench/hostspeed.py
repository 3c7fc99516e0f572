"""Host-speed calibration for timing on a shared host.

Other tenants of a shared 2-core host slow pure-Python code by 1.2-1.8x,
and the slowdown holds for seconds to minutes, so a whole run can fall in a
slow stretch.  Taking the fastest of a kind's samples does not remove that;
measuring the host's speed next to each operation does.

``sample()`` times a fixed pure-Python kernel of about 3 ms that touches
none of orthospin: integer partitions, hook lengths, big-integer division and
``math.exp``, the same kinds of interpreter work as the character route.
The runner samples it right before and right after every timed interval and
reports the interval scaled to the reference host speed::

    normalised = wall * REF_S / mean(kernel before, kernel after)

A change to orthospin moves ``wall`` and not the kernel, so it moves the
normalised time by the same factor; a slower or faster host moves both.
``REF_S`` is the kernel's time on an idle core of the host where the
benchmark was defined (2-core x86-64 KVM guest, Python 3.11), so on that
host a normalised time reads as the wall time of an idle run.
"""

from __future__ import annotations

import math
import time

REF_S = 0.0023
_N = 16
_N_FACT = math.factorial(_N)


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _kernel() -> float:
    acc = 0.0
    dims = {}
    for lam in _partitions(_N, _N):
        conj = [sum(1 for r in lam if r > j) for j in range(lam[0])]
        hooks = 1
        for i, r in enumerate(lam):
            for j in range(r):
                hooks *= r - j + conj[j] - i - 1
        dims[lam] = _N_FACT // hooks
        acc += math.exp(-0.1 * len(lam)) * (dims[lam] % 97)
    return acc


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def normalise(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at the reference host speed, given kernel samples around it."""
    return wall_s * REF_S / (0.5 * (before_s + after_s))
