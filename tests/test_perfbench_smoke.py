"""One checked, traced pass of each benchmark workload on this checkout.

Runs ``perfbench/worker.py`` as the benchmark runs it, in a fresh
interpreter, and asserts that the pass exits 0, fails none of its checks and
reports every per-layer metric that ``BENCHMARK.json`` declares.  The one
exception is ``trace.overhead_frac``: ``perfbench/run.py`` computes it from
traced and untraced passes together, so a single pass does not have it.
Each seed-1 pass must also reproduce its output digest, which has not
changed since the benchmark was written: a changed digest is a changed
output or random stream.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
LAYERS = [m["name"] for m in BENCHMARK["per_layer"]
          if m["name"] != "trace.overhead_frac"]
DIGESTS = {
    "exact-analyze":
        "609ed3f45f3af0979c36e945915da34d6b7ac2d30dc0872dfe312ca44f5fb7b9",
    "oracle-verify":
        "19c8a4f032a90d95954f927548fccfc91ea7cdc012ade8e98d1d5d6463331ee0",
    "mc-sweep":
        "0a246b0753964737b6c2003844cd390dc0c604cc956f122ad2bf03b5c73e317b",
}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_worker_pass(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", workload, "--seed", "1", "--check", "--trace"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert result["digest"] == DIGESTS[workload]
    missing = [name for name in LAYERS if name not in result["layers"]]
    assert not missing, f"per-layer metrics missing: {missing}"
