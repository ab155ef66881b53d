"""Distribution planning: per-cloud digit caps and digit-to-cloud assignment.

The cap for a cloud bounds how many encoded digits it may hold so that an
eavesdropper who breaches it (probability `breach`) and guesses the rest
uniformly still succeeds with probability at most the user budget pu:

    guess_prob = breach * d^-(total - stored) <= pu

Digits are assigned to clouds as contiguous slices of the rendered digit
stream; digits beyond the combined caps are retained locally, drawn one per
component (starting from the stream tail) before any component gives up a
second digit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .codec import CodedStream
from .errors import BadCountError, ConfigError, TooManySecretDigitsError
from .gf import check_count

Run = tuple[int, int]  # half-open [start, stop) positions in the digit stream


@dataclass(frozen=True)
class SecurityProfile:
    """Per-cloud breach probabilities and the user's guess-probability budget.

    breach[i] is the probability that an eavesdropper gains full read access
    to cloud i. Callers holding per-cloud resist probabilities pass their
    complement (1 - resist).
    """

    breach: tuple[float, ...]
    pu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "breach", tuple(float(b) for b in self.breach))
        object.__setattr__(self, "pu", float(self.pu))
        if len(self.breach) < 1:
            raise ConfigError("profile needs at least one cloud")
        if not all(0 < b <= 1 for b in self.breach):
            raise ConfigError(f"breach probabilities must be in (0, 1]: {self.breach}")
        if not 0 < self.pu <= 1:
            raise ConfigError(f"guess budget pu must be in (0, 1], got {self.pu}")

    @property
    def p(self) -> int:
        return len(self.breach)


def guess_probability(
    total_digits: int, stored: int, d: int, breach: float
) -> float:
    """Probability that a cloud-i eavesdropper recovers the full stream.

    The breach succeeds with probability `breach`; the remaining
    total_digits - stored digits must then be guessed uniformly in base d.
    """
    if not 0 <= stored <= total_digits:
        raise BadCountError(
            f"stored count {stored} outside [0, {total_digits}]"
        )
    return breach * d ** float(stored - total_digits)


def per_cloud_caps(
    total_digits: int, d: int, profile: SecurityProfile
) -> tuple[int, ...]:
    """Largest per-cloud digit counts whose guess probability stays within pu.

    cap_i = clamp(floor(T + log_d(pu) - log_d(breach_i)), 0, T), settled
    against guess_probability so the returned caps are exactly the maximal
    counts the formula admits.
    """
    if total_digits < 0:
        raise BadCountError(f"negative digit count {total_digits}")
    caps = []
    logd = math.log(d)
    for breach in profile.breach:
        raw = total_digits + (math.log(profile.pu) - math.log(breach)) / logd
        c = min(total_digits, max(0, math.floor(raw + 1e-9)))
        while c > 0 and guess_probability(total_digits, c, d, breach) > profile.pu:
            c -= 1
        while (
            c < total_digits
            and guess_probability(total_digits, c + 1, d, breach) <= profile.pu
        ):
            c += 1
        caps.append(c)
    return tuple(caps)


def _merge(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop empty runs from an ordered run list and join adjacent ones."""
    keep = stops > starts
    starts, stops = starts[keep], stops[keep]
    # joins[i + 1]: run i + 1 starts where run i stops; the ends never join
    joins = np.zeros(starts.size + 1, dtype=bool)
    np.equal(starts[1:], stops[:-1], out=joins[1:-1])
    return starts[~joins[:-1]], stops[~joins[1:]]


@dataclass(frozen=True)
class DistributionPlan:
    """Concrete digit placement: cloud runs, local runs, security accounting.

    Runs are half-open [start, stop) position ranges in the digit rendering
    of the coded stream: a cloud holds the digits of its runs, in stream
    order.
    """

    total_digits: int
    caps: tuple[int, ...]
    stored: tuple[int, ...]
    cloud_runs: tuple[tuple[Run, ...], ...]
    local_runs: tuple[Run, ...]
    guess_prob: tuple[float, ...]
    n: int
    d: int
    render_lengths: np.ndarray  # per element, in stream order

    def __post_init__(self) -> None:
        arr = np.asarray(self.render_lengths, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "render_lengths", arr)

    @property
    def p(self) -> int:
        return len(self.caps)

    @property
    def local_count(self) -> int:
        return sum(stop - start for start, stop in self.local_runs)


def make_plan(
    lengths: np.ndarray,
    n: int,
    d: int,
    profile: SecurityProfile,
    caps: tuple[int, ...] | None = None,
) -> DistributionPlan:
    """Assign every rendered digit to a cloud or to local retention, given
    only the render length of each element (stream order), the block size n
    and the base d: a strict store plans before it codes a digit.

    Cloud digit counts are chosen greedily in descending-cap order; the
    stream itself is then carved into contiguous slices handed to clouds in
    index order, so components may split across clouds. When the caps cannot
    absorb the stream, the shortfall is retained locally, one digit per
    component from the stream tail first.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if caps is None:
        caps = per_cloud_caps(total, d, profile)
    caps = tuple([check_count(c, "cap", 0) for c in caps])
    if len(caps) != profile.p:
        raise ConfigError(f"{len(caps)} caps for {profile.p} clouds")

    local_need = max(0, total - sum(caps))
    local_starts = local_stops = []
    if local_need:
        # one digit per component from the stream tail, then a second
        # round, ...; while local_need < component count, only the last
        # local_need components keep a digit, so only they are looked at
        rounds, partial = 0, local_need
        if local_need >= lengths.size:
            # kept[r]: the digits rounds 1..r + 1 take, round r + 1 one from
            # each component longer than r; kept[0] <= lengths.size, so at
            # least one round is whole
            kept = (lengths.size - np.bincount(lengths).cumsum()).cumsum()
            rounds = int(kept.searchsorted(local_need, side="right"))
            partial = local_need - int(kept[rounds - 1])
        tail = lengths[-partial:] if rounds == 0 else lengths
        prefix = np.minimum(tail, rounds)
        if partial:
            eligible = (tail > rounds).nonzero()[0]
            prefix[eligible[-partial:]] += 1
        first = total - tail[::-1].cumsum()[::-1]  # stream start of each
        starts, stops = _merge(first, first + prefix)
        local_starts, local_stops = starts.tolist(), stops.tolist()

    # the clouds hold the gaps between the local runs, in stream order;
    # cloud i takes the digits at offsets [lo, hi) of the gaps, where lo is
    # the count of the clouds before it
    gaps = [
        (a, b) for a, b in zip([0, *local_stops], [*local_starts, total]) if a < b
    ]
    ends = list(accumulate(b - a for a, b in gaps))  # offset after each gap

    remaining = total - local_need
    counts = [0] * len(caps)
    for i in sorted(range(len(caps)), key=lambda i: (-caps[i], i)):
        counts[i] = min(caps[i], remaining)
        remaining -= counts[i]

    cloud_runs: list[tuple[Run, ...]] = []
    lo = 0
    for count in counts:
        hi = lo + count
        runs = []
        if count:  # offsets lo and hi - 1 lie in gaps i and j
            i, j = bisect_right(ends, lo), bisect_left(ends, hi)
            runs = gaps[i : j + 1]
            runs[0] = (runs[0][1] - ends[i] + lo, runs[0][1])
            runs[-1] = (runs[-1][0], runs[-1][1] - ends[j] + hi)
        cloud_runs.append(tuple(runs))
        lo = hi

    guess = tuple(
        guess_probability(total, counts[i], d, profile.breach[i])
        for i in range(len(caps))
    )
    return DistributionPlan(
        total_digits=total,
        caps=caps,
        stored=tuple(counts),
        cloud_runs=tuple(cloud_runs),
        local_runs=tuple(zip(local_starts, local_stops)),
        guess_prob=guess,
        n=n,
        d=d,
        render_lengths=lengths,
    )


def perfect_secrecy_split(
    stream: CodedStream, w: int, mode: str | None = None
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int, int]]]:
    """Split digits so w per block stay local, one from each of w components.

    Returns (local digit positions, cloud digit ranges). The local share
    takes the leading digit of the first w components of every block; when
    components are single digits this retains w whole components.
    """
    if w > stream.n:
        raise TooManySecretDigitsError(
            f"cannot retain {w} digits from {stream.n} components"
        )
    if mode is not None and stream.mode != mode:
        raise ConfigError(f"stream has mode {stream.mode!r}, expected {mode!r}")
    local: list[tuple[int, int, int]] = []
    cloud: list[tuple[int, int, int, int]] = []
    for i, size in enumerate(stream.render_lengths.tolist()):
        bi, e = divmod(i, stream.n)
        if e < w:
            local.append((bi, e, 0))
            if size > 1:
                cloud.append((bi, e, 1, size))
        else:
            cloud.append((bi, e, 0, size))
    return local, cloud
