"""A/B benchmark of a parent revision against the working tree.

    python3 tools/abbench.py --parent HEAD --label mychange \\
        --run exact-analyze=2701-2710 --run oracle-verify=2711-2713 \\
        --seconds 40

Builds clean copies of both sides under one scratch directory: the parent
with `git archive`, the working tree from the files git tracks or would
track (`git ls-files -co --exclude-standard`), so no build or cache output
of either checkout rides along.  Then, one command at a time:

- each --run seed is one pair of `perfbench/run.py --trace 0` runs, one per
  side, the first side alternating from pair to pair;
- seed 1 runs once a side with `--seconds 1 --trace 1`, for the output
  digests and the per-layer counts;
- each n of ANALYZE_NS runs `python -m xorcomm analyze` in fresh processes
  on `threshold:<n/4>` and `mod:3:1`, ANALYZE_REPEATS alternating pairs,
  for the wall time, the peak RSS (VmHWM) and the output's sha256; each
  argv of SIMULATE_ARGVS, a one-trial `simulate` whose time is mostly the
  fixed cost of a trial loop, runs the same way;
- Tier-1 runs in both copies, parent/change/change/parent, with
  perfbench's reference_work timed before and after each run.

perfbench is used as it stands: its run.py as a black box, and its
worker's reference_work, imported in a child process of each copy.

Writes BENCH_<label>.json: per workload and end-to-end metric, each side's
q1/median/q3 (speed-adjusted and raw), the pairs the change won, the change
in %, the median gap over the parent's interquartile range (positive: the
change is better), the failed operations, and whether the two sides'
digests agree on every seed; the same comparison of each fresh `analyze`
and `simulate` cell's wall time and peak RSS; then every run's result
line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from statistics import quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ANALYZE_PROFILES = ("threshold:{quarter}", "mod:3:1")
ANALYZE_NS = (64, 512, 4096)
ANALYZE_REPEATS = 10  # fresh analyze pairs per n and profile
SIMULATE_ARGVS = (  # ham draws a tape, xor2way at b >= n does not
    ("simulate", "--protocol", "ham", "--profile", "threshold:8", "--n", "256",
     "--weight", "9", "--trials", "1", "--reps", "4"),
    ("simulate", "--protocol", "xor2way", "--profile", "threshold:8", "--n",
     "64", "--weight", "3", "--trials", "1"),
)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=5"]
REFERENCE = ("import sys, time\n"
             "sys.path.insert(0, 'perfbench')\n"
             "from statistics import median\n"
             "from worker import reference_work\n"
             "times = []\n"
             "for _ in range(40):\n"
             "    t = time.perf_counter(); reference_work()\n"
             "    times.append(time.perf_counter() - t)\n"
             "print(median(times) * 1000)\n")


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


# -- summarising (pure: the Tier-1 test feeds it canned runs) ----------------

def quartiles(values) -> list[float]:
    """[q1, median, q3], inclusive method; one value is its own quartiles."""
    values = sorted(values)
    if len(values) == 1:
        return values * 3
    return quantiles(values, n=4, method="inclusive")


def change_pct(parent: float, change: float) -> float | None:
    return round(100 * (change - parent) / parent, 2) if parent else None


def _values(runs, side, metric, raw):
    """{pair: value} of one metric on one side."""
    out = {}
    for run in runs:
        if run["side"] != side:
            continue
        if raw and metric in run["unadjusted"]:
            out[run["pair"]] = run["unadjusted"][metric]
        else:
            out[run["pair"]] = run["result"]["metrics"][metric]["value"]
    return out


def compare(parent: dict, change: dict, better: str) -> dict:
    """Two sides' {pair: value} of one metric: each side's quartiles, the
    change in %, the pairs the change won and the median gap over the
    parent's interquartile range (positive: the change is better)."""
    sign = 1 if better == "lower" else -1
    entry = {side: quartiles(values.values())
             for side, values in zip(SIDES, (parent, change))}
    pairs = sorted(parent.keys() & change.keys())
    won = sum(sign * (parent[p] - change[p]) > 0 for p in pairs)
    (q1, p_med, q3), c_med = entry["parent"], entry["change"][1]
    gap = sign * (p_med - c_med)
    entry.update(
        change_pct=change_pct(p_med, c_med),
        change_better_pairs=f"{won}/{len(pairs)}",
        median_gap_over_parent_iqr=(round(gap / (q3 - q1), 2) if q3 > q1
                                    else None))
    return entry


def summarize_metric(runs, metric: str, better: str) -> dict:
    """One end-to-end metric of one workload's runs, both sides."""
    adjusted, raw = (
        compare(_values(runs, "parent", metric, unadjusted),
                _values(runs, "change", metric, unadjusted), better)
        for unadjusted in (False, True))
    entry = {"better": better}
    for side in SIDES:
        entry[side] = {"adjusted": adjusted[side], "raw": raw[side]}
    entry.update(
        change_pct=adjusted["change_pct"], raw_change_pct=raw["change_pct"],
        change_better_pairs=adjusted["change_better_pairs"],
        median_gap_over_parent_iqr=adjusted["median_gap_over_parent_iqr"])
    return entry


def summarize(runs, metrics: dict[str, str]) -> dict:
    """Per workload: each metric ({name: "lower" or "higher"}) summarised,
    the failed and attempted operations of each side, and whether the two
    sides' output digests agree on every seed."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        entry = {name: summarize_metric(mine, name, better)
                 for name, better in metrics.items()}
        for key in ("failed", "attempted"):
            entry[key] = {side: sum(run["result"][key] for run in mine
                                    if run["side"] == side) for side in SIDES}
        digests = {}
        for run in mine:
            digests.setdefault(run["seed"], {})[run["side"]] = run["digest"]
        entry["digests_equal_per_seed"] = all(
            len(set(d.values())) == 1 for d in digests.values())
        summary[workload] = entry
    return summary


def analyze_cell(samples: dict) -> dict:
    """One command's fresh runs (an `analyze` n and profile, or a
    `simulate`), {side: [sample, ...]} with sample i of each side forming
    pair i: wall time and peak RSS compared as end-to-end metrics are, and
    whether every output was the same."""
    cell = {key: compare(*({i: s[key] for i, s in enumerate(samples[side])}
                           for side in SIDES), "lower")
            for key in ("wall_s", "peak_rss_mb")}
    cell["outputs_equal"] = len({s["digest"] for side in SIDES
                                 for s in samples[side]}) == 1
    return cell


def traced_entry(results: dict) -> dict:
    """Both sides' seed-1 traced result lines, cut to what must repeat:
    digest, correctness and the per-layer counts."""
    entry = {}
    for side, (report, result) in results.items():
        entry[side] = {
            "digest": report["digest"], "correct": result["correct"],
            "failed": result["failed"],
            "counts": {k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"}}
    sides = list(entry.values())
    entry["digests_equal"] = len({e["digest"] for e in sides}) == 1
    entry["counts_equal"] = all(e["counts"] == sides[0]["counts"]
                                for e in sides)
    return entry


# -- running ------------------------------------------------------------------

def seed_list(text: str) -> list[int]:
    """'2701-2703,2710' -> [2701, 2702, 2703, 2710]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, **kw)


def build_copies(parent: str, into: str) -> dict[str, str]:
    dirs = {side: os.path.join(into, side) for side in SIDES}
    for d in dirs.values():
        os.makedirs(d)
    archive = git("archive", parent, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dirs["parent"]], input=archive,
                   check=True)
    names = git("ls-files", "-coz", "--exclude-standard",
                capture_output=True).stdout
    packed = subprocess.run(
        ["tar", "-c", "--null", "--ignore-failed-read", "-T", "-", "-f", "-"],
        cwd=ROOT, input=names, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dirs["change"]], input=packed,
                   check=True)
    return dirs


def run_bench(copy: str, workload: str, seed: int, seconds: int, trace: int):
    """perfbench/run.py in one copy: (report line, result line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {copy}:\n{proc.stderr[-3000:]}")
    report, result = (json.loads(line)
                      for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def bench_pairs(dirs, workload, seeds, seconds, start) -> list[dict]:
    runs = []
    for pair, seed in enumerate(seeds, 1):
        order = SIDES if (start + pair) % 2 else SIDES[::-1]
        for side in order:
            log(f"{workload} pair {pair} seed {seed} {side}")
            report, result = run_bench(dirs[side], workload, seed, seconds, 0)
            runs.append({"workload": workload, "pair": pair, "seed": seed,
                         "side": side, "first": side == order[0],
                         "passes": report["passes"], "digest": report["digest"],
                         "unadjusted": report["unadjusted"], "result": result})
    return runs


# python -m xorcomm, printing at exit the peak RSS of its own address space
# (VmHWM).  Not ru_maxrss: on Linux a child's ru_maxrss also counts the
# memory of the process that started it, as it was at the exec.
HWM_MAIN = ("import atexit, runpy, sys\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        kb = next(l.split()[1] for l in fh if l.startswith('VmHWM'))\n"
            "    print(int(kb) / 1024, file=sys.stderr)\n"
            "atexit.register(hwm)\n"
            "sys.argv[0] = 'xorcomm'\n"
            "runpy.run_module('xorcomm', run_name='__main__', alter_sys=True)\n")


def fresh_cli(copy: str, argv) -> dict:
    """One `python -m xorcomm *argv` in a fresh process: wall seconds, peak
    RSS and the sha256 of its stdout."""
    with tempfile.TemporaryFile() as out:
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", HWM_MAIN, *argv], cwd=copy, env=env,
            stdout=out, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode} in "
                             f"{copy}:\n{proc.stderr}")
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": wall, "peak_rss_mb": float(proc.stderr.split()[-1]),
            "digest": digest}


def fresh_cell(dirs, argv) -> dict:
    """ANALYZE_REPEATS alternating pairs of fresh runs of argv."""
    log(" ".join(argv))
    samples = {side: [] for side in SIDES}
    for i in range(ANALYZE_REPEATS):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            samples[side].append(fresh_cli(dirs[side], argv))
    return analyze_cell(samples)


def analyze_cells(dirs) -> dict:
    cells = {}
    for n in ANALYZE_NS:
        for template in ANALYZE_PROFILES:
            profile = template.format(quarter=n // 4)
            cells[f"n={n} {profile}"] = fresh_cell(
                dirs, ("analyze", "--n", str(n), "--profile", profile))
    return cells


def reference_ms(copy: str) -> float:
    proc = subprocess.run([sys.executable, "-c", REFERENCE], cwd=copy,
                          capture_output=True, text=True, check=True)
    return round(float(proc.stdout), 2)


def tier1_runs(dirs) -> list[dict]:
    runs = []
    for side in ("parent", "change", "change", "parent"):
        log(f"Tier-1 {side}")
        before = reference_ms(dirs[side])
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(TIER1, cwd=dirs[side], env=env,
                              capture_output=True, text=True)
        after = reference_ms(dirs[side])
        tail = proc.stdout.strip().splitlines()
        counts = {word: int(num) for num, word in
                  re.findall(r"(\d+) (passed|failed|error)", tail[-1])}
        slowest = [[test, float(secs)] for secs, test in re.findall(
            r"^([\d.]+)s \w+\s+(\S+)$", proc.stdout, re.M)]
        runs.append({"side": side, "reference_work_before_ms": before,
                     "reference_work_after_ms": after,
                     "passed": counts.get("passed", 0),
                     "failed": counts.get("failed", 0) + counts.get("error", 0),
                     "seconds": float(re.search(r"in ([\d.]+)s", tail[-1])[1]),
                     "slowest": slowest})
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--label", required=True)
    parser.add_argument("--run", action="append", default=[],
                        metavar="WORKLOAD=SEEDS",
                        help="a workload and its pair seeds, e.g. "
                             "exact-analyze=2701-2710")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--workdir", default=None,
                        help="where the copies go (default: a temporary "
                             "directory, removed at the end)")
    parser.add_argument("--out", default=None,
                        help="default: BENCH_<label>.json at the repo root")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    parent_sha = git("rev-parse", args.parent, capture_output=True,
                     text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="abbench-",
                                     dir=args.workdir) as tmp:
        dirs = build_copies(parent_sha, tmp)
        runs, traced = [], {}
        for start, spec in enumerate(args.run):
            workload, _, seeds = spec.partition("=")
            runs += bench_pairs(dirs, workload, seed_list(seeds), args.seconds,
                                start)
        for workload in dict.fromkeys(run["workload"] for run in runs):
            log(f"{workload} seed 1 traced")
            traced[workload] = traced_entry(
                {side: run_bench(dirs[side], workload, 1, 1, 1)
                 for side in SIDES})
        analyze = analyze_cells(dirs)
        simulate = {" ".join(argv[1:]): fresh_cell(dirs, argv)
                    for argv in SIMULATE_ARGVS}
        tier1 = tier1_runs(dirs)
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    bench = {
        "label": args.label,
        "parent": parent_sha,
        "change": "working tree",
        "command": "python3 tools/abbench.py " + " ".join(
            argv if argv is not None else sys.argv[1:]),
        "host": {"python": platform.python_version(), "numpy": numpy_version,
                 "nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine()},
        "seconds": args.seconds,
        "summary": summarize(runs, metrics),
        "traced_seed_1": traced,
        "analyze_fresh_process": analyze,
        "simulate_fresh_process": simulate,
        "tier1": tier1,
        "runs": runs,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
