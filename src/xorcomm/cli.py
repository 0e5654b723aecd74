"""Command-line front end.

Subcommands: analyze (JSON report), verify (oracle cross-checks), simulate
(protocol runs as JSON lines), sweep (CSV experiment grid).  Big integers are
serialized as decimal strings so no toolchain rounds them.  Seed precedence:
--seed flag, then XORCOMM_SEED, then 0; a seed must be non-negative.

Every numeric input is range-checked by _check_bounds before any work:
analyze's --n (1..MAX_ANALYZE_N); simulate's and sweep's --trials (at least
1), each --n (1..MAX_ANALYZE_N), simulate's --weight (0..n) and the protocol
flag caps; and each verify suite's flags, whose defaults, least values and
limits are the suite's entry in VERIFY_SUITES.  sweep's --n list must name
at least one n and no n twice.  A verify suite refuses a flag it does not
read, as simulate and sweep refuse a protocol flag the named protocol does
not read.  Bad input prints one `error: ...` line on stderr and exits 2.
The parser is built once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import operator
import os
import sys

from . import engine, oracle, protocols, spectral, symfun
from ._np import np

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# An exact report costs O(n^2) operations on O(n)-bit integers, so its time
# grows as n^3 (README gives measured times).  A larger n is refused rather
# than left to run for minutes.  simulate and sweep refuse an n or a bucket
# count above it too: the xor protocols hash into 2r^2 buckets, and at
# n = 20000 those rows alone would need gigabytes.
MAX_ANALYZE_N = 4096
# A phase's work and its count per row grow with the repetitions: --reps
# and --region-reps are capped at MAX_ANALYZE_N, --search-rep-factor at
# this (README gives the worst cases at the caps).
MAX_SEARCH_REP_FACTOR = 16
# verify --suite ham-onesided counts (n+1)(n+2)/2 * --trials rows of O(n)
# work each, so its time grows as n^3 (README gives measured times).
MAX_HAM_ONESIDED_N = 64


def _check_bounds(command: str, bounds) -> None:
    """Refuse each (flag, value, least, limit) with value below least or
    above limit.  A value of None was not given; a bound of None is none."""
    for flag, value, least, limit in bounds:
        if value is None:
            continue
        if least is not None and value < least:
            raise ValueError(f"{command} {flag} {value} must be at least "
                             f"{least}")
        if limit is not None and value > limit:
            raise ValueError(f"{command} {flag} {value} is above the limit "
                             f"of {limit}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        flag, seed = "--seed", args.seed
    else:
        flag, env = "XORCOMM_SEED", os.environ.get("XORCOMM_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(
                f"XORCOMM_SEED is not an integer: {env!r}") from None
    _check_bounds(args.command, [(flag, seed, 0, None)])
    return seed


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# analyze writes its coefficients this many at a time: at n = 4096 the
# decimal strings of all 4,097, or a JSON text around them, would hold every
# coefficient a second time beside the ints (about 9 MB for a dense profile).
_COEFF_BLOCK = 256


def _emit_analysis(report: dict) -> None:
    """_emit(report), with report["spectrum"]["coeffs"], ints, written as
    decimal strings a block at a time."""
    spectrum = report["spectrum"]
    head, tail = json.dumps({**report, "spectrum": {**spectrum, "coeffs": []}},
                            sort_keys=True).split('"coeffs": []')
    coeffs = spectrum["coeffs"]
    write = sys.stdout.write
    write(head + '"coeffs": [')
    for i in range(0, len(coeffs), _COEFF_BLOCK):
        write((", " if i else "") + ", ".join(
            f'"{c}"' for c in coeffs[i:i + _COEFF_BLOCK]))
    write("]" + tail + "\n")


def analysis_report(profile: symfun.SymmetricProfile, spec: str) -> dict:
    """The analyze report, its coefficients as ints (see _emit_analysis)."""
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
            "coeffs": spectrum.coeffs,
            "support": list(spectrum.support),
            "rank": str(spectrum.rank),
        },
        "lemma_window": {"holds": holds, "witness": witness},
        "deterministic_bounds": {"lower": lower, "upper": upper},
    }


def cmd_analyze(args) -> int:
    _check_bounds("analyze", [("--n", args.n, 1, MAX_ANALYZE_N)])
    profile = symfun.parse_profile(args.profile, args.n)
    _emit_analysis(analysis_report(profile, args.profile))
    return EXIT_OK


def _verify_fourier(seed, n_max) -> tuple[int, int]:
    checked = mismatches = 0
    for n in range(1, n_max + 1):
        # exact in int64: every entry is below 2^n, n <= MAX_TABLE_N
        C = np.array(spectral.krawtchouk_matrix(n), dtype=np.int64)
        B = oracle.brute_symmetric_fourier_matrix(n)
        # every profile's two spectra, C s and B s, agree iff C = B: the
        # unit vectors are profiles.  Only a difference is counted out.
        checked += (1 << (n + 1)) * (n + 1)
        if not np.array_equal(C, B):
            P = oracle.all_profiles_matrix(n)
            mismatches += int((P @ C.T != P @ B.T).sum())
    return checked, mismatches


def _verify_rank(seed, n_max) -> tuple[int, int]:
    checked = mismatches = 0
    for n in range(1, n_max + 1):
        for i, brute in enumerate(oracle.paired_brute_ranks(n)):
            formula = spectral.weight_spectrum(symfun.SymmetricProfile(
                n, oracle.profile_of_index(n, i))).rank
            checked += 1
            mismatches += int(formula != brute)
    return checked, mismatches


def _verify_lemma_exhaustive(seed, n) -> tuple[int, int]:
    violations = oracle.exhaustive_lemma_scan(n)
    for v in violations:
        print(f"violation: n={v.n} s={''.join(str(b) for b in v.s)}")
    return 1 << (n + 1), len(violations)


def _verify_lemma(seed, n, samples) -> tuple[int, int]:
    return samples, oracle.sampled_lemma_scan(n, samples, seed)


def _verify_ham_onesided(seed, n, trials) -> tuple[int, int]:
    """Check that no ham row's count overshoots its threshold d at a
    distance m <= d: the rows ham would hash at threshold:d, one repetition
    of default_buckets(d, n) buckets, in each trial of the cells
    (seed, d, m), their inputs and tapes laid out as the trial loop lays
    them out.  ham itself draws none of them (a test whose distance is at
    most its threshold cannot vote ">d"), so the suite counts them with the
    sketch's kernel; at b >= n the bucket map is the identity and the count
    is the distance itself.  Each trial is one row checked, and a mismatch
    a row whose count exceeds d."""
    checked = bad = 0
    for d in range(n + 1):
        b = protocols.default_buckets(d, n)
        for X, Y, tapes in engine._cell_blocks(n, range(d + 1), trials,
                                               (seed, d), prefix=True):
            if b < n:
                counts = protocols._bucket_parities(
                    X, Y, [False], b, tapes, np.arange(len(X)),
                    tapes.position[:, None])
            else:
                counts = np.count_nonzero(X != Y, axis=1)
            checked += len(X)
            bad += int(np.count_nonzero(counts > d))
    return checked, bad


# Each verify suite: its run(seed, *values), and (default, least, limit) of
# each flag it reads, in run's order.  The least refuses a run that would
# check nothing (every profile at n <= 1 is trivial, so a lemma scan needs
# n >= 2); the limit is that of the oracle or the protocol runs it uses, so
# a suite never runs every smaller n (hours for rank) before failing.
VERIFY_SUITES = {
    "fourier": (_verify_fourier, {"--n-max": (6, 1, oracle.MAX_TABLE_N)}),
    "rank": (_verify_rank, {"--n-max": (6, 1, oracle.MAX_RANK_N)}),
    "lemma --exhaustive": (_verify_lemma_exhaustive,
                           {"--n": (12, 2, oracle.MAX_SCAN_N)}),
    "lemma": (_verify_lemma, {"--n": (12, 2, oracle.MAX_SAMPLED_SCAN_N),
                              "--samples": (10000, 1, oracle.MAX_SAMPLES)}),
    "ham-onesided": (_verify_ham_onesided,
                     {"--n": (12, 1, MAX_HAM_ONESIDED_N),
                      "--trials": (100, 1, None)}),
}


def _flag_value(args, flag: str, default=None):
    """The value of a numeric flag, default where not given (None)."""
    value = getattr(args, flag[2:].replace("-", "_"))
    return default if value is None else value


def cmd_verify(args) -> int:
    suite = args.suite + (" --exhaustive" if args.exhaustive else "")
    if suite not in VERIFY_SUITES:
        raise ValueError(f"verify --suite {args.suite} does not use "
                         f"--exhaustive")
    run, reads = VERIFY_SUITES[suite]
    for flag in ("--n", "--n-max", "--samples", "--trials"):
        if flag not in reads and _flag_value(args, flag) is not None:
            raise ValueError(f"verify --suite {suite} does not use {flag}")
    bounds = [(flag, _flag_value(args, flag, default), least, limit)
              for flag, (default, least, limit) in reads.items()]
    _check_bounds(f"verify --suite {suite}", bounds)
    checked, bad = run(_resolve_seed(args), *(b[1] for b in bounds))
    status = "pass" if bad == 0 else "FAIL"
    print(f"suite={args.suite} checked={checked} mismatches={bad} {status}")
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


def _protocol_flags(args) -> dict:
    """{parameter: value} of every protocol flag, None where not given."""
    return {key: _flag_value(args, flag)
            for key, flag in protocols.FLAGS.items()}


def _check_run_limits(args, n_list, *extra) -> None:
    """Refuse, before any work, no trials, an n outside 1..MAX_ANALYZE_N, a
    protocol flag above its cap and any extra (flag, value, least, limit)."""
    caps = {"search_rep_factor": MAX_SEARCH_REP_FACTOR}
    _check_bounds(args.command, [
        ("--trials", args.trials, 1, None),
        *(("--n", n, 1, MAX_ANALYZE_N) for n in n_list),
        *((protocols.FLAGS[key], value, None, caps.get(key, MAX_ANALYZE_N))
          for key, value in _protocol_flags(args).items()),
        *extra])


def _make_protocol(args, profile) -> engine.Protocol:
    return protocols.make_protocol(args.protocol, profile,
                                   **_protocol_flags(args))


def cmd_simulate(args) -> int:
    _check_run_limits(args, [args.n], ("--weight", args.weight, 0, args.n))
    seed = _resolve_seed(args)
    profile = symfun.parse_profile(args.profile, args.n)
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
        _emit({**engine.make_report(protocol, out, truth, transcript),
               "trial": t, "weight": args.weight, "seed": seed})
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        n_list = [int(tok) for tok in args.n.split(",") if tok != ""]
    except ValueError as exc:  # int() names the bad token
        raise ValueError(f"sweep --n {args.n!r}: {exc}") from None
    if not n_list:
        raise ValueError(f"sweep --n {args.n!r} lists no n")
    for i, n in enumerate(n_list):
        if n in n_list[:i]:  # its cells would run, and print, twice
            raise ValueError(f"sweep --n {args.n!r} lists n={n} twice")
    _check_run_limits(args, n_list)
    seed = _resolve_seed(args)
    # Every n's profile and protocol are built, then --out is opened, all
    # before the first cell runs: a refused run creates or truncates no
    # file, and an unwritable path fails at once.
    cells = {}
    for n in n_list:
        profile = symfun.parse_profile(args.profile, n)
        cells[n] = (profile, _make_protocol(args, profile))
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise ValueError(
            f"sweep --out cannot write {args.out}: {exc}") from None
    try:
        rows = engine.sweep(cells, args.profile, args.trials, seed)
        writer = csv.writer(out)
        writer.writerow(engine.SWEEP_FIELDS)
        writer.writerows(map(operator.itemgetter(*engine.SWEEP_FIELDS), rows))
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
        for key, flag in protocols.FLAGS.items():
            readers = " and ".join(
                name for name, cls in protocols.PROTOCOLS.items()
                if key in protocols.flag_fields(cls))
            p.add_argument(flag, type=int, help=f"read by {readers} only")

    p = sub.add_parser("analyze", help="exact spectral/gap analysis report")
    p.add_argument("--n", type=int, required=True,
                   help=f"number of input bits, at most {MAX_ANALYZE_N}")
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run an oracle cross-check suite")
    # the suite names of VERIFY_SUITES, in order; --n, --n-max, --samples
    # and --trials default to None, "not given": the suite's entry fills in
    p.add_argument("--suite", required=True,
                   choices=list(dict.fromkeys(
                       suite.split()[0] for suite in VERIFY_SUITES)))
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int)
    p.add_argument("--trials", type=int)
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
