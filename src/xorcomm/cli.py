"""Command-line front end.

Subcommands: analyze (JSON report), verify (oracle cross-checks), simulate
(protocol runs as JSON lines), sweep (CSV experiment grid).  Big integers are
serialized as decimal strings so no toolchain rounds them.  Seed precedence:
--seed flag, then XORCOMM_SEED, then 0.  analyze accepts n up to
MAX_ANALYZE_N.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import engine, oracle, protocols, spectral, symfun

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# An exact report costs O(n^2) operations on O(n)-bit integers, so its time
# grows as n^3 (README gives measured times).  A larger n is refused rather
# than left to run for minutes.
MAX_ANALYZE_N = 4096


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("XORCOMM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"XORCOMM_SEED is not an integer: {env!r}")
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
            res = oracle.mc_error_estimate(proto, profile, m, args.trials,
                                           (seed, d, m))
            checked += res.trials
            bad += res.trials - res.successes
    return checked, bad


def cmd_verify(args) -> int:
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


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    profile = symfun.parse_profile(args.profile, args.n)
    if not 0 <= args.weight <= args.n:
        raise SystemExit(f"weight {args.weight} out of range for n={args.n}")
    protocol = protocols.make_protocol(
        args.protocol, profile, buckets=args.buckets,
        repetitions=args.reps, region_reps=args.region_reps,
        search_rep_factor=args.search_rep_factor)
    if args.aggregate:
        res = oracle.mc_error_estimate(protocol, profile, args.weight,
                                       args.trials, seed)
        _emit({"protocol": protocol.name, "profile": args.profile,
               "n": args.n, "weight": args.weight, "trials": res.trials,
               "success_rate": res.success_rate, "mean_bits": res.mean_bits,
               "max_bits": res.max_bits, "rounds_mean": res.rounds_mean,
               "seed": seed, "params": protocol.params()})
        return EXIT_OK
    import numpy as np
    for t in range(args.trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t, 0)))
        pair = oracle.weighted_pair(args.n, args.weight, rng)
        out, transcript = engine.run_protocol(protocol, pair, profile,
                                              (seed, t, 1))
        truth = symfun.evaluate_F(profile, pair)
        report = engine.make_report(protocol, out, truth, transcript)
        row = dataclasses.asdict(report)
        row.update({"trial": t, "weight": args.weight, "seed": seed})
        _emit(row)
    return EXIT_OK


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    n_list = [int(tok) for tok in args.n.split(",") if tok != ""]

    def factory(profile, n):
        return protocols.make_protocol(
            args.protocol, profile, buckets=args.buckets,
            repetitions=args.reps, region_reps=args.region_reps,
            search_rep_factor=args.search_rep_factor)

    rows = engine.sweep(factory, args.profile, n_list, args.trials, seed)
    fields = ["n", "family", "r0", "r1", "r", "protocol", "weight", "trials",
              "success_rate", "mean_bits", "max_bits", "rounds_mean"]
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise SystemExit(f"cannot write {args.out}: {exc}")
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorcomm",
        description="Analyze and simulate symmetric XOR communication problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="randomness seed (default: $XORCOMM_SEED or 0)")

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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--buckets", type=int, default=None)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--region-reps", type=int, default=5)
    p.add_argument("--search-rep-factor", type=int, default=2)
    p.add_argument("--aggregate", action="store_true")
    add_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte-Carlo grid over n and weight, CSV out")
    p.add_argument("--protocol", required=True,
                   choices=list(protocols.PROTOCOL_NAMES))
    p.add_argument("--profile", required=True,
                   help="profile family applied at each n")
    p.add_argument("--n", required=True, help="comma-separated list of n")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--buckets", type=int, default=None)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--region-reps", type=int, default=5)
    p.add_argument("--search-rep-factor", type=int, default=2)
    p.add_argument("--out", default=None)
    add_seed(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except symfun.ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
