"""Throughput measurements: raw field multiplication and the full pipeline.

Times are medians over at least five repetitions after one untimed warm-up
pass, whose field multiplications are counted; absolute numbers are
machine-dependent and never asserted, only recorded. Logical work is
accounted exactly: encoding a stream of B blocks costs B * n^2 scalar field
multiplications.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import pipeline, storage
from .codec import STRICT
from .errors import ConfigError
from .gf import FieldSpec, OpCounter, check_count, get_field
from .planner import SecurityProfile

MIN_MUL_COUNT = 1_000_000
MIN_REPS = 5


@dataclass(frozen=True)
class BenchResult:
    scenario: str
    k: int
    n: int | None
    d: int
    mode: str | None
    alpha: float | None
    p: int | None
    payload_bytes: int | None
    median_ms: float
    reps: int
    mul_count: int

    @property
    def throughput(self) -> float:
        """Multiplications per second for mul runs, bytes/s for pipeline runs."""
        seconds = self.median_ms / 1e3
        work = self.payload_bytes if self.scenario == "pipeline" else self.mul_count
        return work / seconds if seconds > 0 else float("inf")


def mul_operands(k: int, mul_count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic operand stream; identical for identical seeds."""
    rng = np.random.default_rng(seed)
    q = 1 << k
    return (
        rng.integers(0, q, size=mul_count),
        rng.integers(0, q, size=mul_count),
    )


def _timed(field, fn, reps: int) -> tuple[float, int]:
    """The median ms of reps calls of fn, and the multiplications field
    counts in one untimed warm-up call before them."""
    counter = OpCounter()
    field.counter = counter
    try:
        fn()
    finally:
        field.counter = None
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples), counter.muls


def bench_mul(
    k_list, mul_count: int, reps: int = MIN_REPS, seed: int = 0
) -> list[BenchResult]:
    """Time mul_count table-lookup multiplications per field size."""
    if mul_count < MIN_MUL_COUNT:
        raise ConfigError(
            f"mul_count must be >= {MIN_MUL_COUNT}, got {mul_count}"
        )
    if reps < MIN_REPS:
        raise ConfigError(f"reps must be >= {MIN_REPS}, got {reps}")
    results = []
    for k in k_list:
        field = get_field(k)
        a, b = mul_operands(k, mul_count, seed)
        median, _ = _timed(field, lambda: field.mul_arr(a, b), reps)
        results.append(
            BenchResult(
                scenario="mul",
                k=k,
                n=None,
                d=1 << k,
                mode=None,
                alpha=None,
                p=None,
                payload_bytes=None,
                median_ms=median,
                reps=reps,
                mul_count=mul_count,
            )
        )
    return results


def encode_mul_count(message_digits: int, k: int, d: int, n: int, width: int) -> int:
    """Exact multiplication count for encoding: blocks * n^2."""
    elements = -(-message_digits // width)
    blocks = -(-elements // n)
    return blocks * n * n


def bench_pipeline(
    file_bytes: int,
    n_list,
    k_list,
    mode: str = STRICT,
    p: int = 2,
    alpha: float | None = None,
    d: int = 2,
    reps: int = MIN_REPS,
    seed: int = 0,
) -> list[BenchResult]:
    """Time pipeline.store_digits of a synthetic file per (k, n) point:
    encode, plan and store into an in-memory root.

    The security profile is left open (pu = 1) so every digit lands in a
    cloud. The recorded mul_count is measured by instrumenting the field
    during the warm-up pass.
    """
    if reps < MIN_REPS:
        raise ConfigError(f"reps must be >= {MIN_REPS}, got {reps}")
    file_bytes = check_count(file_bytes, "file_bytes", 1)
    rng = np.random.default_rng(seed)
    payload = rng.bytes(file_bytes)
    digits = pipeline.bytes_to_digits(payload, d)
    profile = SecurityProfile(breach=tuple([0.5] * p), pu=1.0)
    results = []
    for k in k_list:
        spec = FieldSpec(k=k, d=d)
        for n in n_list:

            def run():
                pipeline.store_digits(
                    digits, storage.MemoryRoot(p), spec, n=n, profile=profile,
                    mode=mode, alpha=alpha,
                )

            median, muls = _timed(spec.field(), run, reps)
            results.append(
                BenchResult(
                    scenario="pipeline",
                    k=k,
                    n=n,
                    d=d,
                    mode=mode,
                    alpha=alpha,
                    p=p,
                    payload_bytes=file_bytes,
                    median_ms=median,
                    reps=reps,
                    mul_count=muls,
                )
            )
    return results


BENCH_COLUMNS = [
    "scenario", "k", "n", "d", "mode", "alpha", "p",
    "bytes", "median_ms", "reps", "mul_count",
]


def bench_csv(results: list[BenchResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    for r in results:
        writer.writerow([
            r.scenario, r.k, r.n if r.n is not None else "",
            r.d, r.mode or "", r.alpha if r.alpha is not None else "",
            r.p if r.p is not None else "",
            r.payload_bytes if r.payload_bytes is not None else "",
            f"{r.median_ms:.3f}", r.reps, r.mul_count,
        ])
    return buf.getvalue()
