"""Benchmark of the ncss library: store, recover and audit, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-d2 --seed 1 --seconds 55 --trace 0

One process runs one workload (see workloads.py) in a closed loop for about
``--seconds`` seconds and prints, as the last line of standard output, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
BENCHMARK.json runs ``bulk-d2`` and ``audit``; ``wide-k16`` and
``alpha-local`` run the same way by hand.

* ``--trace 0`` reports the end-to-end metrics, measured untraced: medians
  over the run's cycles, peak RSS of this process, and the median set-up
  time of several fresh interpreters. These times and throughputs are
  scaled to reference host speed (see hostspeed.py), so that the load other
  tenants put on a shared host does not move them; per-layer times are not.
* ``--trace 1`` alternates untraced and traced cycles and reports the
  per-layer metrics: self times, counts, and the tracer's coverage and
  overhead. A span summary goes to standard error.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, so timings do not depend on the core count; this
# must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"  # temp roots live here and are removed after the run
WORKLOADS = ("bulk-d2", "wide-k16", "alpha-local", "audit")
SETUP_REPS = 7
COVERAGE_FLOOR = 0.9

SETUP_CODE = """
import time
start = time.perf_counter()
import ncss
for k, d, points in {specs!r}:
    ncss.build_vandermonde(ncss.FieldSpec(k=k, d=d), points).inverse()
elapsed = time.perf_counter() - start
import hostspeed
ref = hostspeed.pass_seconds({budget!r})
print(hostspeed.scaled(elapsed, ref, ref))
"""
SETUP_REF_BUDGET = 0.1  # seconds of reference passes after each set-up

# name -> unit; every one is reported with --trace 0
END_TO_END = {
    "store_MBps": "MB/s",
    "recover_MBps": "MB/s",
    "cycle_s": "s",
    "stored_bytes_per_byte": "B/B",
    "cloud_bytes_per_byte": "B/B",
    "local_bytes_per_byte": "B/B",
    "peak_rss_MB": "MB",
    "setup_s": "s",
}

FIELD_MATRIX = ("gf.Field.mat_vec", "gf.Field.mat_vec_batch", "gf.Field.mat_mul")
ENCODE_KINDS = ("store", "entropy")  # operations that apply A
DECODE_KINDS = ("recover", "guess")  # operations that apply A^-1

# per-layer self times: metric -> span names whose self times add up
SELF_TIMES = {
    "pipeline.bytes_to_digits_ms": ("pipeline.bytes_to_digits",),
    "pipeline.digits_to_bytes_ms": ("pipeline.digits_to_bytes",),
    "optimizer.solve_cost_ms": ("optimizer.solve_cost",),
    "codec.regroup_ms": ("codec.regroup",),
    "codec.render_ms": ("codec.render_elements",),
    "codec.encode_dispatch_ms": ("codec.encode_stream", "codec.encode_block"),
    "codec.parse_ms": ("codec.parse_renders",),
    "codec.ungroup_ms": ("codec.ungroup",),
    "planner.make_plan_ms": ("planner.make_plan",),
    "storage.crc_ms": ("storage.crc32c",),
    "storage.pack_ms": ("storage.pack_shard",),
    "storage.unpack_ms": ("storage.unpack_shard",),
    "storage.manifest_ms": ("storage.Manifest.to_json", "storage.Manifest.from_json"),
    "storage.assemble_ms": ("storage.assemble_stream",),
    "adversary.scenario_ms": ("adversary.scenario_from_storage",),
    "adversary.simulate_guess_ms": ("adversary.simulate_guess",),
    "adversary.entropy_audit_ms": ("adversary.entropy_audit",),
}

# every per-layer metric, reported with --trace 1: name -> (unit, better).
# Values are per cycle (median over traced cycles) and read 0 where a layer
# is not called; gf.inverse_ms is timed in the set-up, since the inverse is
# cached afterwards; guess_trials_per_s and entropy_audit_s come from the
# untraced cycles of the traced run and apply to the audit workload only.
PER_LAYER = {
    **{name: ("ms", "lower") for name in SELF_TIMES},
    "gf.encode_ms": ("ms", "lower"),
    "gf.decode_ms": ("ms", "lower"),
    "gf.inverse_ms": ("ms", "lower"),
    "gf.elements": ("count", "lower"),
    "gf.encode_ns_per_elem": ("ns", "lower"),
    "gf.muls": ("count", "lower"),
    "planner.runs": ("count", "lower"),
    "planner.local_digits": ("count", "lower"),
    "storage.manifest_bytes": ("B", "lower"),
    "storage.backend_write_ms": ("ms", "lower"),
    "storage.backend_read_ms": ("ms", "lower"),
    "storage.bytes_written": ("B", "lower"),
    "storage.bytes_read": ("B", "lower"),
    "storage.backend_writes": ("count", "lower"),
    "guess_trials_per_s": ("1/s", "higher"),
    "entropy_audit_s": ("s", "lower"),
    "error_rate": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "trace.absent": ("count", "lower"),
}


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup(workload, reps: int) -> list[float]:
    """Lazy set-up a first call pays, each time in a fresh interpreter:
    import, field tables, and the workload's matrices with their inverses;
    scaled to reference speed by passes run right after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    code = SETUP_CODE.format(specs=workload.setup_specs(), budget=SETUP_REF_BUDGET)
    samples = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=HERE.parent,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def throughput(cycles, kind: str) -> float:
    """MB/s of a typical operation of one kind: for each group of alike
    operations (audit's two modes), the median time over the whole run."""
    groups = defaultdict(list)
    for c in cycles:
        for (k, group), samples in c.samples.items():
            if k == kind:
                groups[group].extend(samples)
    seconds = sum(_median(s for s, _ in v) for v in groups.values())
    nbytes = sum(_median(b for _, b in v) for v in groups.values())
    return _ratio(nbytes, seconds) / 1e6


def end_to_end(cycles, setup: list[float]) -> dict[str, float]:
    def med(fn):
        return _median(fn(c) for c in cycles)

    def per_byte(*parts):
        return med(lambda c: _ratio(sum(c.sizes[p] for p in parts), c.sizes["payload"]))

    return {
        "store_MBps": throughput(cycles, "store"),
        "recover_MBps": throughput(cycles, "recover"),
        "cycle_s": med(lambda c: c.scaled_seconds),
        "stored_bytes_per_byte": per_byte("cloud", "local", "manifest"),
        "cloud_bytes_per_byte": per_byte("cloud"),
        "local_bytes_per_byte": per_byte("local"),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": _median(setup),
    }


def per_layer(tracer, traced, untraced, attempted, failed) -> dict[str, float]:
    spans = tracer.by_cycle()

    def self_ms(c, names, kinds=None, prefix=False):
        return 1e3 * sum(
            v for (kind, name), v in c["self"].items()
            if (name.startswith(names) if prefix else name in names)
            and (kinds is None or kind in kinds)
        )

    rows = []
    for cyc in traced:
        c = spans[cyc.index]
        row = {name: self_ms(c, names) for name, names in SELF_TIMES.items()}
        store_gf = self_ms(c, FIELD_MATRIX, ("store",))
        row.update({
            "gf.encode_ms": self_ms(c, FIELD_MATRIX, ENCODE_KINDS),
            "gf.decode_ms": self_ms(c, FIELD_MATRIX, DECODE_KINDS),
            "gf.elements": cyc.sizes["elements"],
            "gf.encode_ns_per_elem": _ratio(store_gf * 1e6, cyc.sizes["elements"]),
            "gf.muls": cyc.sizes["muls"],
            "planner.runs": cyc.sizes["runs"],
            "planner.local_digits": cyc.sizes["local_digits"],
            "storage.manifest_bytes": cyc.sizes["manifest"],
            "storage.backend_write_ms": self_ms(c, "root.write_", prefix=True),
            "storage.backend_read_ms": self_ms(c, "root.read_", prefix=True),
            "storage.bytes_written": c["counts"]["bytes_written"],
            "storage.bytes_read": c["counts"]["bytes_read"],
            "storage.backend_writes": c["counts"]["backend_writes"],
            "trace.coverage": _ratio(c["covered"], c["wall"]),
        })
        rows.append(row)
    out = {name: _median(row[name] for row in rows) for name in rows[0]}
    setup = spans.get(-1)
    out["gf.inverse_ms"] = self_ms(setup, ("gf.Field.mat_invert",)) if setup else 0.0
    out["guess_trials_per_s"] = _median(
        _ratio(c.sizes["guess_trials"], c.seconds["guess"]) for c in untraced)
    out["entropy_audit_s"] = _median(c.seconds["entropy"] for c in untraced)
    out["error_rate"] = _ratio(failed, attempted)
    out["trace.overhead"] = _ratio(
        _median(c.op_seconds for c in traced), _median(c.op_seconds for c in untraced))
    out["trace.absent"] = len(tracer.absent)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result object printed by main."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    workload = workloads.make(name, small)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload.prepare(seed, workdir)
        setup = [] if trace else measure_setup(workload, 1 if small else SETUP_REPS)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
            with tracer.op("setup", -1):
                workload.warm()
            tracer.uninstall()
        else:
            workload.warm()
        cycles = _loop(workload, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    done = [c for c in cycles if c.complete]
    untraced = [c for c in done if c.tracer is None]
    if tracer is not None:
        traced = [c for c in done if c.tracer is not None]
        metrics = per_layer(tracer, traced, untraced, attempted, failed) if traced else {}
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        _report_trace(tracer, metrics)
    else:
        metrics = end_to_end(untraced, setup) if untraced else {}
        units = END_TO_END
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u} for k, u in units.items()},
    }


def _loop(workload, seconds: float, tracer) -> list:
    """Closed loop: cycle after cycle until the next one would overrun.

    Traced runs alternate untraced and traced cycles, so that the tracer's
    overhead is measured within the run; they make at least one of each.
    """
    import workloads

    counter_cls = None
    if tracer is not None:
        from ncss import gf

        counter_cls = getattr(gf, "OpCounter", None)
        if counter_cls is None or not all(hasattr(f, "counter") for f in workload.fields()):
            counter_cls = None
            tracer.missing("gf.OpCounter")
    cycles, walls, last = [], [], {}
    start = perf_counter()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        cyc = workloads.Cycle(len(cycles), tracer if traced else None, last)
        counter = counter_cls() if traced and counter_cls else None
        fields = workload.fields() if counter else []
        began = perf_counter()
        if traced:
            tracer.install()
        for field in fields:
            field.counter = counter
        try:
            workload.cycle(cyc)
            cyc.complete = True
        except workloads.Aborted:
            pass
        finally:
            for field in fields:
                field.counter = None
            if traced:
                tracer.uninstall()
        if counter:
            cyc.sizes["muls"] += counter.muls
        cycles.append(cyc)
        walls.append(perf_counter() - began)
        owed = tracer is not None and len(cycles) < 2
        if not owed and perf_counter() - start + statistics.median(walls) > seconds:
            return cycles


def _report_trace(tracer, metrics) -> None:
    summary = {"absent": tracer.absent, "spans": tracer.summary()}
    print(json.dumps(summary, indent=1), file=sys.stderr)
    coverage = metrics.get("trace.coverage", 0.0)
    if coverage < COVERAGE_FLOOR:
        print(f"warning: trace.coverage {coverage:.3f} is below {COVERAGE_FLOOR}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ncss" / "__init__.py").is_file():
        print(f"error: the ncss sources are missing ({SRC / 'ncss'})", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
