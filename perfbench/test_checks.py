"""Each benchmark checker must count a corrupted result as a failed operation.

    python3 -m pytest perfbench/test_checks.py

The fixtures are built from the checkers' own exact arithmetic, so these
tests do not import xorcomm.
"""

import csv
import io
import json

import pytest

import checks

N = 8
SPEC = "bits:011010011"


def analyze_report(n=N, spec=SPEC):
    s = checks.profile_bits(spec, n)
    rows = checks.pascal(n)
    coeffs = [checks.coefficient(n, s, k, rows) for k in range(n + 1)]
    support = [k for k, c in enumerate(coeffs) if c]
    return {"n": n, "s": "".join(map(str, s)),
            "spectrum": {"coeffs": [str(c) for c in coeffs], "support": support,
                         "rank": str(sum(rows[n][k] for k in support))}}


def run_analyze(report, ks=(0, 3, 5)):
    tally = checks.Tally()
    checks.check_analyze(tally, json.dumps(report), SPEC, N, ks, checks.pascal(N))
    return tally


def test_clean_report_passes():
    tally = run_analyze(analyze_report())
    assert (tally.attempted, tally.failed) == (3, 0)


@pytest.mark.parametrize("k", range(N + 1))
def test_flipped_coefficient_fails(k):
    # a sign flip keeps Parseval, support and rank; the seeded direct sums
    # catch it at k in (0, 3, 5), and a changed magnitude fails Parseval
    report = analyze_report()
    c = int(report["spectrum"]["coeffs"][k])
    report["spectrum"]["coeffs"][k] = str(-c if c and k in (0, 3, 5) else c + 2)
    assert run_analyze(report).failed >= 1


def test_wrong_rank_fails():
    report = analyze_report()
    report["spectrum"]["rank"] = str(int(report["spectrum"]["rank"]) + 1)
    tally = run_analyze(report)
    assert tally.failed == 1 and "support/rank" in tally.failures[0]


def test_brute_rank_disagreement_fails():
    want = checks.spectral_rank(N, checks.profile_bits(SPEC, N))
    tally = checks.Tally()
    checks.check_rank(tally, SPEC, N, want, want)
    checks.check_rank(tally, SPEC, N, want - 1, want)
    assert (tally.attempted, tally.failed) == (2, 1)


# -- mc-sweep: ham at threshold:1, n=16 sends one 8-bit parity string ------

HAM_N, HAM_D, HAM_BITS = 16, 1, 9
SWEEP_ARGV = ["sweep", "--protocol", "ham", "--profile", f"threshold:{HAM_D}",
              "--n", str(HAM_N), "--trials", "2", "--seed", "1"]


def sweep_csv(success):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=["n", "weight", "r", "trials",
                                             "success_rate", "mean_bits", "max_bits"])
    writer.writeheader()
    for m in range(HAM_N + 1):
        writer.writerow({"n": HAM_N, "weight": m, "r": HAM_D + 1, "trials": 2,
                         "success_rate": success(m), "mean_bits": float(HAM_BITS),
                         "max_bits": HAM_BITS})
    return out.getvalue()


def test_ham_false_positive_in_sweep_fails():
    clean, bad = checks.Tally(), checks.Tally()
    checks.check_sweep(clean, sweep_csv(lambda m: 1.0), 0, SWEEP_ARGV)
    checks.check_sweep(bad, sweep_csv(lambda m: 0.5 if m == HAM_D else 1.0), 0,
                       SWEEP_ARGV)
    assert clean.failed == 0 and clean.attempted == bad.attempted
    assert bad.failed == 1 and "weight <= d" in bad.failures[0]


def simulate_rows(weight, outputs):
    truth = int(weight > HAM_D)
    return "".join(json.dumps({
        "trial": t, "truth": truth, "output": o, "correct": o == truth,
        "total_bits": HAM_BITS, "bits_b_to_a": 1, "rounds": 2}) + "\n"
        for t, o in enumerate(outputs))


def simulate_argv(weight, trials):
    return ["simulate", "--protocol", "ham", "--profile", f"threshold:{HAM_D}",
            "--n", str(HAM_N), "--weight", str(weight), "--trials", str(trials),
            "--seed", "1"]


def test_ham_false_positive_in_rows_fails():
    tally = checks.Tally()
    checks.check_simulate(tally, simulate_rows(0, [0, 1, 0]), 0, simulate_argv(0, 3))
    assert tally.failed == 1 and "weight <= d" in tally.failures[0]


def test_aggregate_disagreement_fails():
    tally = checks.Tally()
    rows = checks.check_simulate(tally, simulate_rows(5, [1, 0, 1]), 0,
                                 simulate_argv(5, 3))
    agg = {"trials": 3, "success_rate": 2 / 3, "mean_bits": float(HAM_BITS),
           "max_bits": HAM_BITS, "rounds_mean": 2.0}
    checks.check_aggregate(tally, json.dumps(agg), 0, rows)
    assert tally.failed == 0
    checks.check_aggregate(tally, json.dumps({**agg, "mean_bits": 9.5}), 0, rows)
    checks.check_aggregate(tally, json.dumps({**agg, "success_rate": 1.0}), 0, rows)
    assert tally.failed == 2


def test_pooled_success_below_gate_fails():
    tally = checks.Tally()
    checks.check_pooled(tally, [{"protocol": "xor2way", "trials": 100, "wins": 95},
                                {"protocol": "ham", "trials": 100, "wins": 80}])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_verify_mismatch_fails():
    argv = ["verify", "--suite", "rank", "--n-max", "6"]
    tally = checks.Tally()
    checks.check_verify(tally, "suite=rank checked=252 mismatches=0 pass\n", 0, argv)
    checks.check_verify(tally, "suite=rank checked=252 mismatches=1 FAIL\n", 1, argv)
    checks.check_verify(tally, "suite=rank checked=250 mismatches=0 pass\n", 0, argv)
    assert (tally.attempted, tally.failed) == (3, 2)
