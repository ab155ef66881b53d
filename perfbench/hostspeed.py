"""Host-speed reference: times the benchmark reports are scaled by.

The benchmark shares a few cores of a host with other tenants, and their
load changes how fast the same Python and numpy code runs here, by up to
about 1.9x, in phases that can last longer than a whole benchmark run. Run
medians of raw wall times therefore shift from run to run with the host
and not with the program.

To take the host out, every timed operation is bracketed by a fixed
reference kernel that does the kinds of work the library does (an
interpreter loop, small numpy calls and a table gather) and calls none of
it. An operation's wall time ``t`` is reported as ``t * REF_SECONDS / r``,
where ``r`` is the kernel's mean pass time measured just before and just
after it: the time the operation would take on a host where one kernel
pass takes ``REF_SECONDS``. A change to the library moves the scaled time
exactly as it moves the wall time; a change of host speed moves both ``t``
and ``r`` and cancels out.

The phases slow interpreter-bound code most. Operations that run
vectorized over arrays of millions of elements (the adversary's guess and
entropy audits) hardly follow them, so scaling would only add the
kernel's swings; those keep their wall time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about one kernel pass on a 2-vCPU Xeon (Sapphire Rapids) KVM guest
REF_SECONDS = 1e-3

# a longer operation gets a longer reference, so that the kernel's own
# jitter stays small beside it: this share of the operation's last time
BUDGET_SHARE = 0.05

_rng = np.random.default_rng(0)
_SMALL = [_rng.integers(0, 256, size=64) for _ in range(16)]
_INDEX = _rng.integers(0, 1 << 16, size=1 << 16)
_TABLE = _rng.integers(0, 256, size=1 << 16, dtype=np.int64)


def kernel() -> int:
    """One reference pass, about a millisecond on the host named above."""
    acc, seen = 0, {}
    for i in range(1500):
        seen[i & 1023] = i
        acc += seen.get((i * 7) & 1023, 0)
    for _ in range(4):
        for a in _SMALL:
            acc += int(np.bitwise_xor(a, 7).sum())
    return acc + int(_TABLE[_INDEX].sum())


def pass_seconds(budget: float = 0.0) -> float:
    """Mean time of one kernel pass, running passes until budget seconds
    have gone by (at least one)."""
    passes, start = 0, perf_counter()
    while True:
        kernel()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= budget:
            return elapsed / passes


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds scaled to the reference host, from the pass times
    measured just before and just after."""
    return seconds * REF_SECONDS * 2 / (before + after)
