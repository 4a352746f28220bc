"""Smoke test of the benchmark harness itself, at a tiny grid size.

    python3 -m pytest perfbench -q
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
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GRID = 12
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WARP_PLANE_CALLS = {"acceptance": 3, "dense": 1, "generate": 4}
RESTARTS = 100


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _traced(workload):
    result, record = run.run_benchmark(workload, 0, 0.1, True, grid=GRID)
    data = json.loads(Path(record["spans_path"]).read_text())
    spans = [tracing.Span(*s) for s in data["spans"]]
    counts = {(op, key): value for op, key, value in data["counts"]}
    return result, spans, counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_have_their_units(workload):
    result, _ = run.run_benchmark(workload, 0, 0.1, False, grid=GRID)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload):
    result, spans, counts = _traced(workload)
    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert spans

    own = tracing.self_times(spans)
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    for s in spans:
        assert own[s.id] >= -1e-9
        assert sum(own[c.id] for c in children.get(s.id, [])) <= (s.end - s.start) + 1e-9

    # The exact counts are the same for every op and on a second run.
    profiles = tracing.op_profiles(spans, counts)
    assert {p["geometry.warp_plane.calls"] for p in profiles.values()} == {WARP_PLANE_CALLS[workload]}
    if workload in workloads.ANALYZE:
        assert {p["ml.kmeans_fit.restarts"] for p in profiles.values()} == {RESTARTS}
    again, _, _ = _traced(workload)
    for key in ("geometry.warp_plane.calls", "ml.kmeans_fit.restarts", "features.cells"):
        assert again["metrics"][key] == result["metrics"][key]


def test_tracer_restores_the_package():
    import uled_inspect
    from uled_inspect import geometry

    original = geometry.warp_plane
    with tracing.Tracer(uled_inspect):
        assert geometry.warp_plane is not original
    assert geometry.warp_plane is original


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
