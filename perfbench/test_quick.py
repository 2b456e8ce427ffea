"""Checks the benchmark itself, in quick mode.

    python3 -m pytest perfbench

Every workload is run in its own process, untraced and traced, and must
report every metric named in BENCHMARK.json with its unit, with no failed op.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_mode_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]

    record = json.loads((ROOT / f"perfbench/out/{workload}-quick-seed1-trace{trace}.json").read_text())
    assert record["failed_ratio"] == 0
    assert record["src_lines"] > 0 and record["python"] and record["git_sha"]
    assert len(record["digests"]) == record["attempted"]
