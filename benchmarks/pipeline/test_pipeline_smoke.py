"""Smoke test of the pipeline benchmark: every declared metric is reported.

Runs ``run.py --smoke --trace 1`` (tiny sizes, all four workloads) and
checks the report against ``BENCHMARK.json``: every end-to-end and
per-layer metric is present for every workload, every per-layer metric
is measured by at least one workload, every name is well formed, every
output was correct, and the exported spans pass the Eq. 1 check.

    python -m pytest benchmarks/pipeline/test_pipeline_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_reports_every_declared_metric(tmp_path):
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--seed", "3", "-o", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    report = json.loads(out.read_text())

    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    for name in [*workloads, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert sorted(report["workloads"]) == sorted(workloads)

    measured = set()
    for workload in workloads:
        result = report["workloads"][workload]
        assert result["correct"] and result["failed"] == 0, result["problems"]
        assert set(result["end_to_end"]) == end_to_end, workload
        assert set(result["per_layer"]) == per_layer, workload
        assert result["trace"]["eq1_ok"], result["trace"]
        measured.update(result["per_layer_reported"])
    assert measured == per_layer, sorted(per_layer - measured)
