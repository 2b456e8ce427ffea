"""The benchmark's quick verify workload still gives its frozen outputs.

perfbench/run.py compares the digest of every op's exact output with the
frozen seed-1 reference in perfbench/digests.json and reports `correct`, so
this run guards verify_slide's exact results (window laws and cylinder
measures included) as the benchmark sees them.  The files under perfbench/
are run, never changed; the run writes its record to the ignored
perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_verify_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--quick",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
