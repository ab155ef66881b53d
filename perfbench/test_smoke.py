"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    result = run.run(workload, seed=1, seconds=0.1, trace=trace, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["error_rate"] == 0
        assert values["trace.absent"] == 0
        assert values["trace.coverage"] >= run.COVERAGE_FLOOR
    else:
        assert all(v > 0 for v in values.values()), values


def test_declared_metrics_match_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


def test_scaling_cancels_host_speed():
    import hostspeed

    ref = hostspeed.REF_SECONDS
    assert hostspeed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # a host twice as slow doubles both the operation and the passes
    assert hostspeed.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert hostspeed.pass_seconds(0.01) > 0


def test_tracer_reports_missing_names_and_restores():
    sys.path.insert(0, str(run.SRC))
    from ncss import codec, storage
    from tracer import Tracer

    before = codec.regroup, storage.Manifest.__dict__["from_json"]
    tracer = Tracer()
    tracer.install((("codec", "regroup"), ("codec", "no_such_function"),
                    ("nonexistent_module", "f"), ("storage", "Manifest.from_json")))
    assert tracer.absent == ["codec.no_such_function", "nonexistent_module.f"]
    assert codec.regroup is not before[0]
    tracer.uninstall()
    assert (codec.regroup, storage.Manifest.__dict__["from_json"]) == before


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
