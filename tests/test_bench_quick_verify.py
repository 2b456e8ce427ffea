"""The benchmark's quick pipeline, verify and sample-replay workloads still
give their frozen outputs.

perfbench/run.py compares the digest of every op's exact output with the
frozen seed-1 reference in perfbench/digests.json and reports `correct`, so
these runs guard the pipeline's final specs and slide lists (and with them
validate and classify on every derived spec), verify_slide's exact results
(window laws and cylinder measures included) and the sampled and replayed
configurations as the benchmark sees them.  Each workload also runs traced
(--trace 1), where the tracer's hooks read the return values of the wrapped
calls (a window scan's WindowScan, say), so a return value they cannot read
fails here too.  The files under perfbench/ are run, never changed; each run
writes its record to the ignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [
        pytest.param(w, trace, id=w + suffix)
        for trace, suffix in (("0", ""), ("1", "-traced"))
        for w in ("pipeline", "verify", "sample-replay")
    ],
)
def test_quick_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--quick",
         "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
