"""Span tracer that instruments the ncss library from outside.

The tracer wraps a named list of public functions and methods at run time
(``install``) and puts them back afterwards (``uninstall``); no library file
changes. Every call to a wrapped name records a span: name, start, end,
parent span and operation id. Spans stay in memory until the run ends and
are then reduced to per-layer metrics.

A name the library no longer has is recorded in ``absent`` instead of
raising, so the benchmark keeps running across refactors that delete or
rename functions; the metrics built only from absent names read 0 and the
count of absent names is reported as ``trace.absent``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "ncss"

# (module, attribute) pairs the tracer wraps; "Class.method" reaches into a
# class. Intermediate callers (store_shards, reconstruct, ...) are wrapped
# too, so that each layer's self time excludes the layers beneath it.
TARGETS = (
    ("pipeline", "bytes_to_digits"),
    ("pipeline", "digits_to_bytes"),
    ("pipeline", "store_digits"),
    ("pipeline", "load_manifest"),
    ("pipeline", "recover"),
    ("optimizer", "solve_cost"),
    ("codec", "make_grouping_plan"),
    ("codec", "regroup"),
    ("codec", "encode_stream"),
    ("codec", "encode_block"),
    ("codec", "render_elements"),
    ("codec", "parse_renders"),
    ("codec", "ungroup"),
    ("gf", "Field.mat_vec"),
    ("gf", "Field.mat_vec_batch"),
    ("gf", "Field.mat_mul"),
    ("gf", "Field.mat_invert"),
    ("gf", "build_vandermonde"),
    ("planner", "make_plan"),
    ("storage", "store_shards"),
    ("storage", "fetch_shards"),
    ("storage", "reconstruct"),
    ("storage", "assemble_stream"),
    ("storage", "crc32c"),
    ("storage", "pack_shard"),
    ("storage", "unpack_shard"),
    ("storage", "Manifest.to_json"),
    ("storage", "Manifest.from_json"),
    ("adversary", "scenario_from_storage"),
    ("adversary", "simulate_guess"),
    ("adversary", "entropy_audit"),
)


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.ops: list[tuple[str, int, int]] = []  # (kind, cycle, span index)
        self.counts: dict[int, Counter] = defaultdict(Counter)  # op -> counters
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str, cycle: int):
        """Time one operation; the spans opened inside it share its id."""
        self._op = len(self.ops)
        idx = len(self.spans)
        self.ops.append((kind, cycle, idx))
        self._open("op." + kind)
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def count(self, key: str, value: int) -> None:
        self.counts[self._op][key] += value

    def wrap(self, name: str, fn):
        """fn, recording a span called name around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- instrumenting the library ---------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; remember the missing ones."""
        for module_name, attr in targets:
            name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)  # keeps classmethods
            except (ImportError, AttributeError):
                self.missing(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__))
            elif callable(raw):
                wrapped = self.wrap(name, raw)
            else:
                self.missing(name)
                continue
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped)

    def missing(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved = []

    # -- reduction --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The benchmark is single-threaded, so sibling spans never overlap
        and the covered part is the sum of the children's durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def by_cycle(self) -> dict[int, dict]:
        """Per traced cycle: self seconds per (op kind, span name), op walls,
        covered op time and counters."""
        selfs = self.self_times()
        cycles: dict[int, dict] = {}
        for op_idx, (kind, cycle, span_idx) in enumerate(self.ops):
            c = cycles.setdefault(cycle, {
                "self": defaultdict(float), "wall": 0.0, "covered": 0.0,
                "counts": Counter(), "kinds": Counter(),
            })
            start, end = self.spans[span_idx][1], self.spans[span_idx][2]
            c["wall"] += end - start
            c["kinds"][kind] += 1
            c["counts"].update(self.counts.get(op_idx, {}))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op < 0 or name.startswith("op."):
                continue
            kind, cycle, span_idx = self.ops[op]
            c = cycles[cycle]
            c["self"][(kind, name)] += selfs[i]
            if parent == span_idx:
                c["covered"] += end - start
        return cycles

    def summary(self) -> dict[str, dict]:
        """Calls, total and self milliseconds per span name, all ops."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(self.spans, selfs):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += own * 1e3
        return out


class TracedRoot:
    """Pass-through storage root that times and counts backend I/O.

    Every ``read_*``/``write_*`` method of the wrapped root becomes a span
    named ``root.<method>``; bytes moved and writes issued are counted on
    the current operation.
    """

    def __init__(self, root, tracer: Tracer):
        self._root = root
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._root, name)
        if not callable(attr) or not name.startswith(("read_", "write_")):
            return attr
        tracer = self._tracer
        inner = tracer.wrap("root." + name, attr)

        def io(*args, **kwargs):
            result = inner(*args, **kwargs)
            if name.startswith("write_"):
                tracer.count("bytes_written", len(args[-1]))
                tracer.count("backend_writes", 1)
            else:
                tracer.count("bytes_read", len(result))
            return result

        return io
