"""Command-line front end.

Subcommands: analyze (JSON report), verify (oracle cross-checks), simulate
(protocol runs as JSON lines), sweep (CSV experiment grid).  Big integers are
serialized as decimal strings so no toolchain rounds them.  Seed precedence:
--seed flag, then XORCOMM_SEED, then 0; a seed, --trials and --samples
must be non-negative.  analyze accepts n up to MAX_ANALYZE_N; verify refuses, before
any work, a run that would check nothing and an n above the limit of the
oracle or the protocol runs its suite uses.  simulate and sweep refuse
--trials 0, an empty --n list (sweep), an --n or --buckets above
MAX_ANALYZE_N and a protocol flag the named protocol does not read.  Bad
input prints one `error: ...` line on stderr and exits 2.  The parser is
built once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import engine, oracle, protocols, spectral, symfun

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# An exact report costs O(n^2) operations on O(n)-bit integers, so its time
# grows as n^3 (README gives measured times).  A larger n is refused rather
# than left to run for minutes.  simulate and sweep refuse an n or a bucket
# count above it too: the xor protocols hash into 2r^2 buckets, and at
# n = 20000 those rows alone would need gigabytes.
MAX_ANALYZE_N = 4096
# verify --suite ham-onesided runs (n+1)(n+2)/2 * --trials protocol runs of
# O(n) work each, so its time grows as n^3 (README gives measured times).
MAX_HAM_ONESIDED_N = 64


def _non_negative(name: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _exit_usage(message: str):
    """Print one error line and exit 2, as argparse does for a bad flag."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return _non_negative("--seed", args.seed)
    env = os.environ.get("XORCOMM_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"XORCOMM_SEED is not an integer: {env!r}") from None
        return _non_negative("XORCOMM_SEED", value)
    return 0


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def analysis_report(profile: symfun.SymmetricProfile, spec: str) -> dict:
    gp = symfun.gap_params(profile)
    spectrum = spectral.weight_spectrum(profile)
    holds, witness = spectral.lemma_window_check(spectrum)
    lower, upper = spectral.deterministic_bounds(profile, spectrum)
    return {
        "profile": spec,
        "n": profile.n,
        "s": "".join(str(b) for b in profile.s),
        "trivial_class": gp.trivial_class.value,
        "r0": gp.r0, "r1": gp.r1, "r": gp.r,
        "saturated": gp.saturated,
        "conjectured_unbounded_measure":
            symfun.conjectured_unbounded_measure(profile),
        "spectrum": {
            "coeffs": [str(c) for c in spectrum.coeffs],
            "support": list(spectrum.support),
            "rank": str(spectrum.rank),
        },
        "lemma_window": {"holds": holds, "witness": witness},
        "deterministic_bounds": {"lower": lower, "upper": upper},
    }


def cmd_analyze(args) -> int:
    if args.n > MAX_ANALYZE_N:
        raise ValueError(f"analyze --n {args.n} is above the limit "
                         f"of {MAX_ANALYZE_N}")
    profile = symfun.parse_profile(args.profile, args.n)
    _emit(analysis_report(profile, args.profile))
    return EXIT_OK


def _verify_fourier(args) -> tuple[int, int]:
    import numpy as np
    checked = mismatches = 0
    for n in range(1, args.n_max + 1):
        C = spectral.krawtchouk_matrix_i64(n)
        B = oracle.brute_symmetric_fourier_matrix(n)
        P = oracle.all_profiles_matrix(n)
        spec_side = P @ C.T
        brute_side = P @ B.T
        checked += spec_side.size
        mismatches += int(np.count_nonzero(spec_side != brute_side))
    return checked, mismatches


def _verify_rank(args) -> tuple[int, int]:
    checked = mismatches = 0
    for n in range(1, args.n_max + 1):
        for i in range(1 << (n + 1)):
            s = tuple((i >> k) & 1 for k in range(n + 1))
            profile = symfun.SymmetricProfile(n, s)
            formula = spectral.weight_spectrum(profile).rank
            brute = oracle.brute_rank(oracle.TruthTable.from_profile(profile))
            checked += 1
            mismatches += int(formula != brute)
    return checked, mismatches


def _verify_lemma(args, seed) -> tuple[int, int]:
    if args.exhaustive:
        violations = oracle.exhaustive_lemma_scan(args.n)
        for v in violations:
            print(f"violation: n={v.n} s={''.join(str(b) for b in v.s)}")
        return 1 << (args.n + 1), len(violations)
    count = oracle.sampled_lemma_scan(args.n, args.samples, seed)
    return args.samples, count


def _verify_ham_onesided(args, seed) -> tuple[int, int]:
    checked = bad = 0
    n = args.n
    for d in range(n + 1):
        proto = protocols.HamProtocol(protocols.HamConfig(d=d))
        profile = symfun.parse_profile(f"threshold:{d}", n)
        for m in range(d + 1):
            res = engine.mc_error_estimate(proto, profile, m, args.trials,
                                           (seed, d, m))
            checked += res.trials
            bad += res.trials - res.successes
    return checked, bad


def _check_verify_limits(args) -> None:
    """Refuse, before any work, a run that would check nothing, and an n
    that a suite would only reject (or take hours over) after running every
    smaller n."""
    if args.suite in ("rank", "fourier") and args.n_max < 1:
        raise ValueError(f"verify --suite {args.suite} --n-max {args.n_max} "
                         f"checks nothing; it must be at least 1")
    # a sampled lemma scan needs a nontrivial profile, which n <= 1 lacks
    least_n = {"lemma": 0 if args.exhaustive else 2,
               "ham-onesided": 1}.get(args.suite)
    if least_n is not None and args.n < least_n:
        raise ValueError(f"verify --suite {args.suite} --n {args.n} "
                         f"must be at least {least_n}")
    if args.suite == "lemma" and not args.exhaustive and args.samples == 0:
        raise ValueError("verify --suite lemma --samples 0 checks nothing; "
                         "it must be at least 1")
    if args.suite == "ham-onesided" and args.trials == 0:
        raise ValueError("verify --suite ham-onesided --trials 0 checks "
                         "nothing; it must be at least 1")
    if args.suite == "rank" and args.n_max > oracle.MAX_RANK_N:
        raise ValueError(f"verify --suite rank --n-max {args.n_max} is above "
                         f"the limit of {oracle.MAX_RANK_N}")
    if args.suite == "fourier" and args.n_max > oracle.MAX_TABLE_N:
        raise ValueError(f"verify --suite fourier --n-max {args.n_max} is "
                         f"above the limit of {oracle.MAX_TABLE_N}")
    if (args.suite == "lemma" and not args.exhaustive
            and args.n > spectral.CACHE_MAX_N):
        raise ValueError(f"verify --suite lemma --n {args.n} is above the "
                         f"limit of {spectral.CACHE_MAX_N}")
    if args.suite == "ham-onesided" and args.n > MAX_HAM_ONESIDED_N:
        raise ValueError(f"verify --suite ham-onesided --n {args.n} is above "
                         f"the limit of {MAX_HAM_ONESIDED_N}")


def cmd_verify(args) -> int:
    _non_negative("--trials", args.trials)
    _non_negative("--samples", args.samples)
    _check_verify_limits(args)
    seed = _resolve_seed(args)
    if args.suite == "fourier":
        checked, bad = _verify_fourier(args)
    elif args.suite == "rank":
        checked, bad = _verify_rank(args)
    elif args.suite == "lemma":
        checked, bad = _verify_lemma(args, seed)
    elif args.suite == "ham-onesided":
        checked, bad = _verify_ham_onesided(args, seed)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown suite {args.suite!r}")
    status = "pass" if bad == 0 else "FAIL"
    print(f"suite={args.suite} checked={checked} mismatches={bad} {status}")
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def _check_run_limits(args, n_list) -> None:
    """Refuse, before any work, no trials and an n or a bucket count above
    MAX_ANALYZE_N."""
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    sizes = [("--n", n) for n in n_list] + [("--buckets", args.buckets)]
    for flag, value in sizes:
        if value is not None and value > MAX_ANALYZE_N:
            raise ValueError(f"{args.command} {flag} {value} is above the "
                             f"limit of {MAX_ANALYZE_N}")


def _make_protocol(args, profile) -> engine.Protocol:
    return protocols.make_protocol(
        args.protocol, profile, buckets=args.buckets,
        repetitions=args.reps, region_reps=args.region_reps,
        search_rep_factor=args.search_rep_factor)


def cmd_simulate(args) -> int:
    _check_run_limits(args, [args.n])
    seed = _resolve_seed(args)
    profile = symfun.parse_profile(args.profile, args.n)
    if not 0 <= args.weight <= args.n:
        _exit_usage(f"simulate --weight {args.weight} is out of range "
                    f"for n={args.n}")
    protocol = _make_protocol(args, profile)
    if args.aggregate:
        res = engine.mc_error_estimate(protocol, profile, args.weight,
                                       args.trials, seed)
        _emit({"protocol": protocol.name, "profile": args.profile,
               "n": args.n, "weight": args.weight, "trials": res.trials,
               "success_rate": res.success_rate, "mean_bits": res.mean_bits,
               "max_bits": res.max_bits, "rounds_mean": res.rounds_mean,
               "seed": seed, "params": protocol.params()})
        return EXIT_OK
    trials = engine.run_trials(protocol, profile, args.weight, args.trials,
                               seed)
    for t, (out, truth, transcript) in enumerate(trials):
        report = engine.make_report(protocol, out, truth, transcript)
        # a shallow copy: the report holds no nested dataclass
        _emit({**vars(report), "trial": t, "weight": args.weight, "seed": seed})
    return EXIT_OK


def cmd_sweep(args) -> int:
    n_list = [int(tok) for tok in args.n.split(",") if tok != ""]
    if not n_list:
        raise ValueError(f"sweep --n {args.n!r} lists no n")
    _check_run_limits(args, n_list)
    seed = _resolve_seed(args)
    rows = engine.sweep(lambda profile, n: _make_protocol(args, profile),
                        args.profile, n_list, args.trials, seed)
    fields = ["n", "family", "r0", "r1", "r", "protocol", "weight", "trials",
              "success_rate", "mean_bits", "max_bits", "rounds_mean"]
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        _exit_usage(f"sweep --out cannot write {args.out}: {exc}")
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorcomm",
        description="Analyze and simulate symmetric XOR communication problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="randomness seed (default: $XORCOMM_SEED or 0)")

    def add_protocol_flags(p):
        # None, the default, means "not given": the protocol's own default
        for flag, readers in (("--buckets", "ham"), ("--reps", "ham"),
                              ("--region-reps", "xor2way and xor1way"),
                              ("--search-rep-factor", "xor2way and xor1way")):
            p.add_argument(flag, type=int, help=f"read by {readers} only")

    p = sub.add_parser("analyze", help="exact spectral/gap analysis report")
    p.add_argument("--n", type=int, required=True,
                   help=f"number of input bits, at most {MAX_ANALYZE_N}")
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run an oracle cross-check suite")
    p.add_argument("--suite", required=True,
                   choices=["fourier", "rank", "lemma", "ham-onesided"])
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--trials", type=int, default=100)
    add_seed(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a protocol, JSON line per trial")
    p.add_argument("--protocol", required=True,
                   choices=list(protocols.PROTOCOL_NAMES))
    p.add_argument("--profile", required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"number of input bits, at most {MAX_ANALYZE_N}")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    add_protocol_flags(p)
    p.add_argument("--aggregate", action="store_true")
    add_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte-Carlo grid over n and weight, CSV out")
    p.add_argument("--protocol", required=True,
                   choices=list(protocols.PROTOCOL_NAMES))
    p.add_argument("--profile", required=True,
                   help="profile family applied at each n")
    p.add_argument("--n", required=True,
                   help=f"comma-separated list of n, each at most "
                        f"{MAX_ANALYZE_N}")
    p.add_argument("--trials", type=int, default=100)
    add_protocol_flags(p)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
