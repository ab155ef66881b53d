"""The four benchmark workloads, each a closed loop with one client.

A workload turns the seed into its inputs (random payload bytes), then runs
cycles of operations through the library's public API. Every operation is
timed on its own and checked after the timer stops; a failed check or an
exception counts the operation as failed and never stops the run.

* ``bulk-d2``     2 MiB, d=2, k=8, strict, n from the cost optimizer (as
                  ``ncss store --n auto``), p=3, on a directory root.
* ``wide-k16``    2 MiB, d=256, k=16, strict, n=100, p=2, in memory.
* ``alpha-local`` 32 KiB, d=2, k=8, alpha=5, n=16, p=2, in memory, with caps
                  that leave exactly one digit of every component local.
* ``audit``       8-byte messages in strict and alpha=5 mode, each followed
                  by a Monte-Carlo guess of its 10 withheld digits, plus the
                  exact entropy audit of the k=4, n=5 Vandermonde code.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from ncss import adversary, codec, gf, optimizer, pipeline, planner, storage
from ncss.gf import FieldSpec
from ncss.planner import SecurityProfile

import hostspeed
from tracer import TracedRoot, Tracer


class Aborted(Exception):
    """An operation raised; the rest of its cycle is skipped."""


class Cycle:
    """Timings, footprint and failures of one pass through a workload."""

    def __init__(self, index: int, tracer: Tracer | None, last: dict):
        self.index = index
        self.tracer = tracer
        self.last = last  # (kind, group) -> wall seconds of the run's last one
        self.seconds: Counter = Counter()  # op kind -> wall seconds
        self.scaled: Counter = Counter()  # op kind -> seconds at reference speed
        self.samples = defaultdict(list)  # (kind, group) -> [(scaled s, bytes)]
        self.sizes: Counter = Counter()  # byte and element tallies
        self.attempted = 0
        self.failed = 0
        self.complete = False  # every operation ran (checks may still fail)

    def root(self, root):
        """The root the timed code sees: pass-through traced when tracing."""
        return TracedRoot(root, self.tracer) if self.tracer else root

    def run(self, kind: str, fn, group: str = "", nbytes: int = 0, scale: bool = True):
        """Time fn() as one operation of this cycle; group and nbytes (the
        payload it moves) feed the per-operation throughput. With scale, the
        operation is bracketed by host-speed reference passes and its time
        scaled to reference speed; without, its wall time is kept."""
        key = (kind, group)
        self.attempted += 1
        # the first operation of its kind in a run has no reference before
        # it: its budget is not known yet, and one lone pass runs cold
        last = self.last.get(key)
        before = hostspeed.pass_seconds(hostspeed.BUDGET_SHARE * last) if scale and last else None
        start = perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                with self.tracer.op(kind, self.index):
                    result = fn()
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise Aborted(kind) from exc
        elapsed = perf_counter() - start
        self.last[key] = elapsed
        scaled = elapsed
        if scale:
            after = hostspeed.pass_seconds(hostspeed.BUDGET_SHARE * elapsed)
            scaled = hostspeed.scaled(elapsed, before or after, after)
        self.seconds[kind] += elapsed
        self.scaled[kind] += scaled
        self.samples[key].append((scaled, nbytes))
        return result

    def verify(self, check, *args) -> None:
        """Run the checks of the operation just timed; count it failed if any
        check reports a problem or raises."""
        try:
            problems = check(*args)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"cycle {self.index}: {problem}", file=sys.stderr)

    @property
    def op_seconds(self) -> float:
        return sum(self.seconds.values())

    @property
    def scaled_seconds(self) -> float:
        return sum(self.scaled.values())


def _footprint(cycle: Cycle, manifest, root, payload_bytes: int) -> None:
    """Add one stored dataset's bytes, elements and runs to the cycle."""
    cycle.sizes["payload"] += payload_bytes
    cycle.sizes["cloud"] += sum(
        len(root.read_shard(i)) for i in range(len(manifest.cloud_runs))
    )
    cycle.sizes["local"] += len(root.read_local())
    cycle.sizes["manifest"] += len(root.read_manifest().encode())
    cycle.sizes["elements"] += manifest.block_count * manifest.n
    cycle.sizes["runs"] += len(manifest.local_runs) + sum(
        len(runs) for runs in manifest.cloud_runs
    )
    cycle.sizes["local_digits"] += sum(t - s for s, t in manifest.local_runs)


def _held(runs, total: int) -> np.ndarray:
    """Boolean mask of the stream positions covered by half-open runs."""
    marks = np.zeros(total + 1, dtype=np.int64)
    if runs:
        arr = np.asarray(runs, dtype=np.int64)
        np.add.at(marks, arr[:, 0], 1)
        np.add.at(marks, arr[:, 1], -1)
    return np.cumsum(marks[:-1]) > 0


def check_store(manifest, profile: SecurityProfile, local_each: bool) -> list[str]:
    """Secrecy checks of a stored dataset, recomputed from its manifest.

    Each cloud's guess probability, from the digits its runs actually hold,
    must be within pu. With local_each, the local share must hold at least
    one digit of every coded component.
    """
    problems = []
    lengths = manifest.element_lengths()
    total = int(lengths.sum())
    for i, runs in enumerate(manifest.cloud_runs):
        stored = sum(t - s for s, t in runs)
        if stored != manifest.stored[i]:
            problems.append(f"cloud {i} runs hold {stored} digits, manifest says {manifest.stored[i]}")
        guess = planner.guess_probability(total, stored, manifest.d, profile.breach[i])
        if guess > profile.pu:
            problems.append(f"cloud {i} guess probability {guess:.3g} > pu {profile.pu:.3g}")
    if local_each and total:
        held = _held(manifest.local_runs, total)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        bare = int(np.count_nonzero(np.add.reduceat(held, starts) == 0))
        if bare:
            problems.append(f"{bare} components have no digit in the local share")
    return problems


def _same(got: bytes, want: bytes) -> list[str]:
    return [] if got == want else [f"round trip differs ({len(got)} vs {len(want)} bytes)"]


class DataWorkload:
    """Store a payload, then recover it, once per cycle."""

    def __init__(self, size, d, k, n, breach, mode=codec.STRICT,
                 alpha=None, pu=1e-6, directory=False, local_each=False):
        self.size = size
        self.d = d
        self.k = k
        self.n = n  # None: chosen by optimizer.solve_cost, as the CLI does
        self.profile = SecurityProfile(breach=breach, pu=pu)
        self.mode = mode
        self.alpha = alpha
        self.directory = directory
        self.local_each = local_each
        self.caps = None

    def prepare(self, seed: int, workdir: Path) -> None:
        """Make the payload from the seed; derive n and caps untimed."""
        self.workdir = workdir
        self.payload = np.random.default_rng(seed).bytes(self.size)
        self.spec = FieldSpec(k=self.k, d=self.d)
        digits = pipeline.bytes_to_digits(self.payload, self.d)
        self.points = gf.default_points(self.n or self._auto_n(len(digits)))
        if self.local_each:
            # dry run: the caps leave one digit of every component local
            dry = self._store_digits(digits, storage.MemoryRoot(self.profile.p))
            cloud, p = dry.plan.total_digits - dry.grouping.r, self.profile.p
            self.caps = tuple(cloud // p + (i < cloud % p) for i in range(p))

    def _auto_n(self, m: int) -> int:
        problem = optimizer.CostProblem(
            m=max(1, m), d=self.d, k=self.k, p=self.profile.p,
            breach=max(self.profile.breach), pu=self.profile.pu,
        )
        return optimizer.solve_cost(problem).n_star

    def _store_digits(self, digits, root):
        n = self.n or self._auto_n(len(digits))
        return pipeline.store_digits(
            digits, root, self.spec, n=n, profile=self.profile,
            mode=self.mode, alpha=self.alpha, caps=self.caps,
        )

    def setup_specs(self) -> list[tuple[int, int, tuple[int, ...]]]:
        return [(self.k, self.d, self.points)]

    def fields(self) -> list:
        return [self.spec.field()]

    def _new_root(self):
        if self.directory:
            return storage.DirectoryRoot(
                tempfile.mkdtemp(dir=self.workdir), clouds=self.profile.p
            )
        return storage.MemoryRoot(self.profile.p)

    def warm(self) -> None:
        """Fill the lazy caches (field, matrix, inverse) with a tiny payload."""
        root = self._new_root()
        try:
            tiny = pipeline.bytes_to_digits(self.payload[:64], self.d)
            pipeline.store_digits(
                tiny, root, self.spec, n=len(self.points), profile=self.profile,
                mode=self.mode, alpha=self.alpha,
            )
            pipeline.recover(root)
        finally:
            self._drop(root)

    def _drop(self, root) -> None:
        if self.directory:
            shutil.rmtree(root.path, ignore_errors=True)

    def cycle(self, cyc: Cycle) -> None:
        raw = self._new_root()
        root = cyc.root(raw)
        try:
            result = cyc.run("store", lambda: self._store_digits(
                pipeline.bytes_to_digits(self.payload, self.d), root), nbytes=self.size)
            cyc.verify(check_store, result.manifest, self.profile, self.local_each)
            data = cyc.run("recover", lambda: pipeline.digits_to_bytes(
                pipeline.recover(root, pipeline.load_manifest(root))), nbytes=self.size)
            cyc.verify(_same, data, self.payload)
            _footprint(cyc, result.manifest, raw, self.size)
        finally:
            self._drop(raw)


class AuditWorkload:
    """Tiny messages stored, recovered and attacked; exact secrecy audits."""

    d, k, n = 2, 8, 4
    message_bytes = 8
    unknown = 10
    entropy_k, entropy_n, entropy_w = 4, 5, 2
    entropy_ts = (3, 4)

    def __init__(self, batch: int, trials: int):
        self.batch = batch  # messages per mode per cycle; the first is attacked
        self.trials = trials
        self.profile = SecurityProfile(breach=(1.0,), pu=2.0 ** -self.unknown)
        self.modes = ((codec.STRICT, None), (codec.ALPHA_BOUNDED, 5.0))

    def prepare(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.spec = FieldSpec(k=self.k, d=self.d)
        self.points = gf.default_points(self.n)
        espec = FieldSpec(k=self.entropy_k, d=2)
        self.entropy_points = gf.default_points(self.entropy_n)
        self.entropy_matrix = gf.build_vandermonde(espec, self.entropy_points)

    def setup_specs(self):
        return [(self.k, self.d, self.points),
                (self.entropy_k, 2, self.entropy_points)]

    def fields(self) -> list:
        return [self.spec.field(), self.entropy_matrix.field]

    def warm(self) -> None:
        for mode, alpha in self.modes:
            root = storage.MemoryRoot(1)
            pipeline.store_digits(
                pipeline.bytes_to_digits(bytes(self.message_bytes), self.d),
                root, self.spec, n=self.n, profile=self.profile,
                mode=mode, alpha=alpha,
            )
            pipeline.recover(root)

    def _guess(self, root, seed: int):
        scenario = adversary.scenario_from_storage(pipeline.load_manifest(root), root, 0)
        return scenario.unknown_count, adversary.simulate_guess(scenario, self.trials, seed=seed)

    def _check_guess(self, unknown: int, rate: float) -> list[str]:
        if unknown != self.unknown:
            return [f"{unknown} unknown digits, expected {self.unknown}"]
        p = float(self.d) ** -unknown
        sigma = math.sqrt(p * (1 - p) / self.trials)
        if abs(rate - p) > 4 * sigma:
            return [f"guess rate {rate:.6g} is {abs(rate - p) / sigma:.1f} sigma from {p:.6g}"]
        return []

    # guess and entropy run vectorized over 2^20-element arrays; the host
    # speed the reference kernel sees does not move them (scaled, their
    # run-to-run spread doubled), so they keep wall time
    def cycle(self, cyc: Cycle) -> None:
        for mode, alpha in self.modes:
            roots = []
            for _ in range(self.batch):
                message = self.rng.bytes(self.message_bytes)
                raw = storage.MemoryRoot(1)
                root = cyc.root(raw)
                result = cyc.run("store", lambda: pipeline.store_digits(
                    pipeline.bytes_to_digits(message, self.d), root, self.spec,
                    n=self.n, profile=self.profile, mode=mode, alpha=alpha),
                    group=mode, nbytes=self.message_bytes)
                cyc.verify(check_store, result.manifest, self.profile, False)
                data = cyc.run("recover", lambda: pipeline.digits_to_bytes(
                    pipeline.recover(root, pipeline.load_manifest(root))),
                    group=mode, nbytes=self.message_bytes)
                cyc.verify(_same, data, message)
                _footprint(cyc, result.manifest, raw, self.message_bytes)
                roots.append(root)
            seed = int(self.rng.integers(1 << 32))
            unknown, rate = cyc.run("guess", lambda: self._guess(roots[0], seed), scale=False)
            cyc.verify(self._check_guess, unknown, rate)
            cyc.sizes["guess_trials"] += self.trials
        for t in self.entropy_ts:
            report = cyc.run("entropy", lambda: adversary.entropy_audit(
                self.entropy_matrix, w=self.entropy_w, t=t), scale=False)
            mds = t <= self.entropy_n - self.entropy_w
            cyc.verify(lambda: [] if report.perfect == mds else
                       [f"entropy audit t={t}: perfect={report.perfect}, MDS rule says {mds}"])


def make(name: str, small: bool = False):
    """The named workload; small shrinks payloads and trials for smoke tests."""
    kib = 1 << 10
    if name == "bulk-d2":
        return DataWorkload(
            size=4 * kib if small else 2 << 20, d=2, k=8, n=None,
            breach=(0.5, 0.25, 0.1), directory=True,
        )
    if name == "wide-k16":
        return DataWorkload(
            size=4 * kib if small else 2 << 20, d=256, k=16, n=100,
            breach=(0.5, 0.25),
        )
    if name == "alpha-local":
        return DataWorkload(
            size=kib if small else 32 * kib, d=2, k=8, n=16, breach=(0.5, 0.25),
            mode=codec.ALPHA_BOUNDED, alpha=5.0, local_each=True,
        )
    if name == "audit":
        return AuditWorkload(batch=2 if small else 32, trials=1 << 12 if small else 1 << 20)
    raise KeyError(name)

