"""One checked, traced pass of each benchmark workload on this checkout.

Runs ``perfbench/worker.py`` as the benchmark runs it, in a fresh
interpreter, and asserts that the pass exits 0, fails none of its checks and
reports every per-layer metric that ``BENCHMARK.json`` declares.  The one
exception is ``trace.overhead_frac``: ``perfbench/run.py`` computes it from
traced and untraced passes together, so a single pass does not have it.
Each seed-1 pass must also reproduce its output digest: a changed digest is
a changed output or random stream.  The oracle-verify digest has not
changed since the benchmark was written.  The exact-analyze one changed
once, when `deterministic_bounds`'s upper bound of a nontrivial profile went
from n + 1 total bits to n content bits.  The mc-sweep one changed once,
when every simulate and sweep stream became counter-based (SplitMix64 on a
(cell, trial, stream, value) counter) in place of PCG64(SeedSequence).
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
        "b23942ac8d985735d8cd1c8c126f72753c2125d227333a20160c3c1a2af73551",
    "oracle-verify":
        "19c8a4f032a90d95954f927548fccfc91ea7cdc012ade8e98d1d5d6463331ee0",
    "mc-sweep":
        "9c7c8a77fda90f1e456749a27162a069846769e0d5d6fd759c3fe81d1c2a38ba",
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
