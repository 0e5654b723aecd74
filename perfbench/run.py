"""xorcomm benchmark.

    python3 perfbench/run.py --workload exact-analyze --seed 1 --seconds 40 --trace 0

Runs passes of one workload, each in a fresh interpreter (perfbench/worker.py)
and one after another, until the next pass would end after --seconds.  Every
pass of a run gets the same inputs, made from --seed; the first pass checks
every output, and each later one must return the same bytes.

With --trace 0 the passes are untraced and the result holds the end-to-end
metrics, as medians over passes of speed-adjusted seconds (see SpeedProbe in
worker.py).  With --trace 1 traced and untraced passes alternate and the
result holds the per-layer metrics.

Prints a report line (every metric by the names in perfbench/README.md, the
output digest, failed-operation counts and the environment), then, as the
last line, the result: {"correct", "attempted", "failed", "metrics"}.
Exits 2, printing no result, when the checkout has no xorcomm sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact-analyze", "oracle-verify", "mc-sweep")
MIN_PASSES = 3
LIMIT_S = 150  # no pass starts that would end later than this

# Each workload's two timed stages, under the names of the report line.
STAGE_NAMES = {
    "exact-analyze": (("analyze_cold_s", "s"), ("analyze_reports_per_s", "1/s")),
    "oracle-verify": (("verify_rank_s", "s"), ("verify_lemma_s", "s")),
    "mc-sweep": (("sweep_trials_per_s", "1/s"), ("simulate_trials_per_s", "1/s")),
}


class BenchError(RuntimeError):
    pass


def run_pass(workload, seed, check, traced, spans, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if traced:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded {timeout:.0f} s: {' '.join(cmd)}") from None
    wall = time.monotonic() - launch
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(traced=traced, wall=wall, setup_s=result["ready"] - launch)
    return result


def run_passes(args):
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_out",
                             f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    start = time.monotonic()
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        first_traced = traced and not any(p["traced"] for p in passes)
        elapsed = time.monotonic() - start
        passes.append(run_pass(args.workload, args.seed, not passes, traced,
                               spans if first_traced else None,
                               timeout=LIMIT_S + 25 - elapsed))
        elapsed = time.monotonic() - start
        typical = median(p["wall"] for p in passes)
        if elapsed + typical > LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    return passes


def speed(p):
    """A pass's mean speed factor: adjusted over measured stage seconds."""
    return sum(p["adjusted"].values()) / sum(p["stages"].values())


def summarize(args, passes):
    """Returns (report, result) dictionaries."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]][:20]
    # same seed, same inputs: every pass must return what the checked first
    # pass returned
    for p in passes[1:]:
        attempted += 1
        if p["digest"] != passes[0]["digest"]:
            failed += 1
            failures.append("output differs between passes of one seed")
    # exact counts must repeat in every traced pass
    counts = [{k: v for k, (v, unit) in p["layers"].items() if unit == "count"}
              for p in traced]
    for c in counts[1:]:
        attempted += 1
        if c != counts[0]:
            failed += 1
            failures.append("per-layer counts differ between traced passes")

    def stage(name, p):
        return p["adjusted"].get(name, 0.0)

    def busy(p):
        return sum(p["adjusted"].values())

    end_to_end = {
        "setup_s": (median(p["setup_s"] * p["setup_speed"] for p in plain), "s"),
        "stage1_s": (median(stage("stage1", p) for p in plain), "s"),
        "stage2_s": (median(stage("stage2", p) for p in plain), "s"),
        "peak_rss_mb": (median(p["rss_mb"] for p in plain), "MB"),
    }
    raw = {"setup_s": median(p["setup_s"] for p in plain),
           "stage1_s": median(p["stages"]["stage1"] for p in plain),
           "stage2_s": median(p["stages"]["stage2"] for p in plain)}
    named = {"setup_s": end_to_end["setup_s"],
             "peak_rss_mb": end_to_end["peak_rss_mb"]}
    for key, (name, unit) in zip(("stage1", "stage2"), STAGE_NAMES[args.workload]):
        if unit == "1/s":
            named[name] = (median(p["items"][key] / stage(key, p) for p in plain), unit)
        else:
            named[name] = (median(stage(key, p) for p in plain), unit)
    named["ops_failed_frac"] = (failed / attempted, "ratio", attempted)
    mc_trials = passes[0]["mc_trials"]
    if mc_trials:
        named["mc_wrong_frac"] = (passes[0]["mc_wrong"] / mc_trials, "ratio", mc_trials)

    per_layer = {}
    if traced:
        for name, (value, unit) in traced[0]["layers"].items():
            if unit == "s":
                value = median(p["layers"][name][0] * speed(p) for p in traced)
            per_layer[name] = (value, unit)
        per_layer["trace.overhead_frac"] = (
            median(busy(p) for p in traced) / median(busy(p) for p in plain) - 1, "ratio")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "traced_passes": len(traced),
        "digest": passes[0]["digest"],
        "unadjusted": raw,
        "pass_seconds": [{"traced": p["traced"], "setup": p["setup_s"],
                          "ref": p["ref"], **p["stages"]} for p in passes],
        "env": environment(passes[0]),
        "metrics": {k: dict(zip(("value", "unit", "base"), v))
                    for k, v in {**named, **per_layer}.items()},
        "failures": failures,
    }
    metrics = per_layer if args.trace else end_to_end
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return report, result


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(first_pass):
    return {"git_sha": git_sha(), "python": first_pass["python"],
            "numpy": first_pass["numpy"], "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="xorcomm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running pass before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "xorcomm", "cli.py")):
        print(f"no xorcomm sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report, result = summarize(args, passes)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
