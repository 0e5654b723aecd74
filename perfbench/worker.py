"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload exact-analyze --seed 1 [--check] [--trace]

Every pass starts cold, as a user of the xorcomm CLI does: the in-process
caches of the library are empty.  The pass runs the workload's steps one at a
time, in one thread; a step is one CLI call through ``xorcomm.cli.main`` with
stdout captured, or one direct library call.  With --check it then checks
every output.  It prints one JSON line with its timings, counts, check
tallies and the sha256 digest of what the steps returned (CLI stdout, and
the str of direct results), which lets unchecked passes of the same inputs
be compared with a checked one.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import xorcomm.cli  # noqa: E402

xorcomm.cli.build_parser()
# Set-up ends here.  CLOCK_MONOTONIC is system-wide, so the parent subtracts
# its own launch time from this stamp.
READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

# Sizes, tuned so that one pass takes a few seconds on a 2-core machine.
ANALYZE_NS = (64, 128, 256)
ANALYZE_MIX = {"bits": 20, "threshold": 10, "exact": 10, "mod": 10}
CHECKED_KS = 2
PROBE_PERIOD_S = 0.25
# Seconds of reference_work() at the host's usual speed.  Times are
# reported as speed-adjusted seconds: measured seconds times this over the
# mean reference time measured during and around them.
NOMINAL_REF_S = 0.015
RANK_N = 8
# The n=8 sample: every profile of rank 58 (a rank-deficient matrix runs all
# 26 modular eliminations, and taking the whole class keeps the cost the
# same for every seed) plus seeded full-rank ones, which stop after one.
RANK_DEFICIENT = 58
RANK_FULL = 8
SWEEP_CELLS = (  # protocol, threshold d, n, --trials, extra flags
    ("xor2way", 8, 64, 8, ()),       # b = 162 >= n: identity map, no tape
    ("xor2way", 4, 512, 2, ()),      # b = 50 < n: n tape values per round
    ("xor1way", 4, 256, 2, ()),
    ("ham", 8, 256, 4, ("--reps", "4")),
)
SIMULATE_CELLS = (  # protocol, threshold d, n, --trials, extra flags
    ("ham", 8, 4096, 120, ("--reps", "3")),
    ("xor2way", 8, 64, 400, ()),
)


def reference_work():
    """Fixed work that does not touch xorcomm: big-integer sums, an
    interpreter loop, and small and large numpy operations, the mix the
    workloads run.  Its time measures the host's current speed."""
    rows = [(1,)]
    for m in range(1, 241):
        prev = rows[-1]
        rows.append(tuple((prev[j - 1] if j else 0) + (prev[j] if j < m else 0)
                          for j in range(m + 1)))
    n = 240
    sum((-1) ** t * rows[k][t] * rows[n - k][s - t] for k in (77, 131)
        for s in range(0, n + 1, 3) for t in range(max(0, s - n + k), min(k, s) + 1))
    s = 0
    for i in range(20000):
        s += (i * 7) % 13
    x = np.arange(64)
    for _ in range(600):
        x = (x * 3 + 1) % 1009
    a = np.arange(1 << 16, dtype=np.int64).reshape(256, 256)
    for _ in range(5):
        a = (a * 5 + 3) % 2147483647


class SpeedProbe:
    """Times reference_work() every PROBE_PERIOD_S, from a SIGALRM handler,
    so that a long step is sampled while it runs.

    A shared host's speed drifts by up to 2x within minutes.  A step's
    speed factor is NOMINAL_REF_S over the mean reference time near it, and
    the time spent in the handler is left out of the step's seconds.
    """

    def __init__(self, work):
        self.work = work
        self.samples = []  # (start, end) of each reference run

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        self.work()
        self.samples.append((start, perf_counter()))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def paused(self, start, end):
        return sum(e - s for s, e in self.samples if start <= s and e <= end)

    def speed(self, start, end):
        near = [e - s for s, e in self.samples
                if start - PROBE_PERIOD_S <= e <= end + PROBE_PERIOD_S]
        if not near:  # the timer waited for a long call into native code
            s, e = min(self.samples, key=lambda se: abs(se[1] - end))
            near = [e - s]
        return NOMINAL_REF_S * len(near) / sum(near)


class Step:
    """One timed call; `run` returns (stdout text or result, return code)."""

    def __init__(self, stage, run, check, items=1):
        self.stage, self.run, self.check, self.items = stage, run, check, items
        self.out = self.rc = self.rows = None
        self.seconds = self.speed = 0.0


def cli_call(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = xorcomm.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a lost run
            traceback.print_exc(file=err)
            rc = None
        if rc != 0:
            sys.stderr.write(f"{' '.join(argv)}: rc={rc}\n{err.getvalue()[-2000:]}")
        return out.getvalue(), rc
    return run


# ---------------------------------------------------------------------------
# Workload plans: inputs come from the benchmark seed only


def _profiles(rng, n):
    """A cold `bits:` profile, then the warm mix, all distinct."""
    kinds = ["bits"] + [k for k, c in ANALYZE_MIX.items() for _ in range(c)]
    seen, specs = set(), []
    for kind in kinds:
        while True:
            if kind == "bits":
                spec = "bits:" + "".join(rng.choice("01") for _ in range(n + 1))
            elif kind == "threshold":
                spec = f"threshold:{rng.randrange(n)}"
            elif kind == "exact":
                spec = f"exact:{rng.randrange(n + 1)}"
            else:
                m = rng.randrange(2, 9)
                res = sorted(rng.sample(range(m), rng.randrange(1, m)))
                spec = f"mod:{m}:{','.join(map(str, res))}"
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
                break
    return specs


def plan_exact_analyze(seed, tally, ctx):
    rng = random.Random(f"exact-analyze:{seed}")
    steps = []
    for n in ANALYZE_NS:
        for i, spec in enumerate(_profiles(rng, n)):
            ks = [rng.randrange(n + 1) for _ in range(CHECKED_KS)]

            def check(step, spec=spec, n=n, ks=ks):
                rows = ctx.setdefault(("pascal", n), checks.pascal(n))
                checks.check_analyze(tally, step.out, spec, n, ks, rows)
            steps.append(Step("stage1" if i == 0 else "stage2",
                              cli_call(["analyze", "--n", str(n), "--profile", spec]),
                              check))
    return steps


def _verify(stage, *argv, tally):
    argv = ["verify", *argv]
    return Step(stage, cli_call(argv),
                lambda step: checks.check_verify(tally, step.out, step.rc, argv))


def plan_oracle_verify(seed, tally, ctx):
    from xorcomm import oracle, spectral, symfun

    rng = random.Random(f"oracle-verify:{seed}")
    by_rank = {}
    for i in range(1 << (RANK_N + 1)):
        spec = "bits:" + "".join(str((i >> k) & 1) for k in range(RANK_N + 1))
        rank = checks.spectral_rank(RANK_N, checks.profile_bits(spec, RANK_N))
        by_rank.setdefault(rank, []).append(spec)
    picked = by_rank[RANK_DEFICIENT] + rng.sample(by_rank[1 << RANK_N], RANK_FULL)
    rng.shuffle(picked)

    steps = [_verify("stage1", "--suite", "rank", "--n-max", "6", tally=tally)]
    for spec in picked:
        def run(spec=spec):
            profile = symfun.parse_profile(spec, RANK_N)
            brute = oracle.brute_rank(oracle.TruthTable.from_profile(profile))
            return (brute, spectral.weight_spectrum(profile).rank), 0

        def check(step, spec=spec):
            checks.check_rank(tally, spec, RANK_N, *step.out)
        steps.append(Step("stage1", run, check))
    steps += [
        _verify("stage2", "--suite", "lemma", "--exhaustive", "--n", "20", tally=tally),
        _verify("stage2", "--suite", "lemma", "--n", "64", "--samples", "20000",
                "--seed", str(seed), tally=tally),
        _verify("stage2", "--suite", "fourier", "--n-max", "14", tally=tally),
    ]
    return steps


def plan_mc_sweep(seed, tally, ctx):
    rng = random.Random(f"mc-sweep:{seed}")
    cells = ctx.setdefault("cells", [])
    simulated = ctx.setdefault("simulated", [])
    steps = []
    for protocol, d, n, trials, extra in SWEEP_CELLS:
        argv = ["sweep", "--protocol", protocol, "--profile", f"threshold:{d}",
                "--n", str(n), "--trials", str(trials), *extra, "--seed", str(seed)]
        steps.append(Step("stage1", cli_call(argv),
                          lambda step, argv=argv: cells.append(
                              checks.check_sweep(tally, step.out, step.rc, argv)),
                          items=(n + 1) * trials))
    for protocol, d, n, trials, extra in SIMULATE_CELLS:
        # one weight on each side of the threshold, so every seed runs the
        # same mix of regions
        if protocol == "xor2way":
            weights = (rng.choice([*range(d + 1), *range(n - d, n + 1)]),
                       rng.randrange(d + 1, n - d))
        else:
            weights = (rng.randrange(d + 1), rng.randrange(d + 1, n + 1))
        for weight in weights:
            argv = ["simulate", "--protocol", protocol, "--profile",
                    f"threshold:{d}", "--n", str(n), "--weight", str(weight),
                    "--trials", str(trials), *extra, "--seed", str(seed)]
            def check_rows(step, argv=argv):
                step.rows = checks.check_simulate(tally, step.out, step.rc, argv)
                simulated.extend(x["correct"] for x in step.rows)
            per_trial = Step("stage2", cli_call(argv), check_rows, items=trials)
            steps.append(per_trial)
            steps.append(Step(
                "aggregate", cli_call(argv + ["--aggregate"]),
                lambda step, rows_of=per_trial: checks.check_aggregate(
                    tally, step.out, step.rc, rows_of.rows)))
    return steps


PLANS = {"exact-analyze": plan_exact_analyze,
         "oracle-verify": plan_oracle_verify,
         "mc-sweep": plan_mc_sweep}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="check every output (else only time and digest)")
    parser.add_argument("--spans", default=None,
                        help="write the traced spans here (gzipped JSON lines)")
    args = parser.parse_args(argv)
    if not os.path.abspath(xorcomm.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"xorcomm was imported from {xorcomm.cli.__file__}, not {SRC}")

    tally, ctx = checks.Tally(), {}
    steps = PLANS[args.workload](args.seed, tally, ctx)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    # in a traced pass the probe is a span, so no self time includes it
    work = reference_work if tracer is None else tracer.wrap(
        "perfbench.speed_probe", reference_work)
    digest = hashlib.sha256()
    spans = []
    with SpeedProbe(work) as probe:
        for index, step in enumerate(steps):
            if tracer is not None:
                tracer.step = index
            t0 = perf_counter()
            step.out, step.rc = step.run()
            spans.append((t0, perf_counter()))
            digest.update(str(step.out).encode())
    for step, (t0, t1) in zip(steps, spans):
        step.seconds = t1 - t0 - probe.paused(t0, t1)
        step.speed = probe.speed(t0, t1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    cells, simulated = ctx.get("cells", []), ctx.get("simulated", [])
    if args.check:
        for step in steps:
            step.check(step)
        checks.check_pooled(tally, cells)

    stages, adjusted, items = {}, {}, {}
    for step in steps:
        stages[step.stage] = stages.get(step.stage, 0.0) + step.seconds
        adjusted[step.stage] = adjusted.get(step.stage, 0.0) + step.seconds * step.speed
        items[step.stage] = items.get(step.stage, 0) + step.items
    result = {
        "ready": READY, "stages": stages, "adjusted": adjusted,
        "ref": [e - s for s, e in probe.samples],
        "setup_speed": probe.speed(*probe.samples[0]), "items": items,
        "digest": digest.hexdigest(), "rss_mb": rss_mb,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures,
        "mc_trials": sum(c["trials"] for c in cells) + len(simulated),
        "mc_wrong": (sum(c["trials"] - c["wins"] for c in cells)
                     + simulated.count(False)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
