"""Correctness checks on the outputs the benchmark captures.

Every check recomputes its expectation here, from ``math.comb`` and the
profile definitions, and never calls the library formula it tests.  A check
is one operation: it is attempted once and either passes or fails.
"""

from __future__ import annotations

import csv
import io
import json
import math


class Tally:
    """Counts attempted and failed operations and keeps the first failures."""

    MAX_KEPT = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.MAX_KEPT:
                self.failures.append(what)
        return ok


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# ---------------------------------------------------------------------------
# Profiles and exact spectra, computed independently of the library


def profile_bits(spec: str, n: int) -> tuple[int, ...]:
    """S(0..n) for the profile specs the benchmark generates."""
    name, _, rest = spec.partition(":")
    if name == "bits":
        return tuple(int(c) for c in rest)
    if name == "threshold":
        d = int(rest)
        return tuple(int(k > d) for k in range(n + 1))
    if name == "exact":
        k0 = int(rest)
        return tuple(int(k == k0) for k in range(n + 1))
    if name == "mod":
        m, _, residues = rest.partition(":")
        res = {int(r) % int(m) for r in residues.split(",")}
        return tuple(int(k % int(m) in res) for k in range(n + 1))
    raise ValueError(f"profile spec {spec!r} is not generated by the benchmark")


def pascal(n: int) -> list[list[int]]:
    """Rows 0..n of binomial coefficients from math.comb."""
    return [[math.comb(m, j) for j in range(m + 1)] for m in range(n + 1)]


def coefficient(n: int, s: tuple[int, ...], k: int, rows=None) -> int:
    """2^n f^(w) at |w| = k as the direct alternating sum
    sum_{S(j)=1} sum_t (-1)^t C(k,t) C(n-k,j-t)."""
    rows = rows or pascal(n)
    ck, cnk = rows[k], rows[n - k]
    total = 0
    for j, bit in enumerate(s):
        if bit:
            for t in range(max(0, j - (n - k)), min(k, j) + 1):
                term = ck[t] * cnk[j - t]
                total += -term if t & 1 else term
    return total


def spectral_rank(n: int, s: tuple[int, ...]) -> int:
    """rank of [f(x xor y)] = sum of C(n,k) over weights k with c_k != 0."""
    rows = pascal(n)
    return sum(rows[n][k] for k in range(n + 1) if coefficient(n, s, k, rows))


def threshold_r(n: int, d: int) -> int:
    """r for threshold:d.  S(k) != S(k+2) only at k = d-1 and k = d, so S is
    2-periodic from weight d+1 on and r = d+1, while the change sits in the
    lower half (2d + 3 <= n)."""
    if d < 0 or 2 * d + 3 > n:
        raise ValueError(f"threshold:{d} at n={n} is outside the generated range")
    return d + 1


# ---------------------------------------------------------------------------
# exact-analyze


def check_analyze(tally: Tally, out: str, spec: str, n: int, ks, rows) -> None:
    """Three checks on one `analyze` JSON report: exact Parseval, support and
    rank from the coefficients, and direct sums for the seeded weights ks."""
    s = profile_bits(spec, n)
    where = f"analyze n={n} {spec[:40]}"
    try:
        rep = json.loads(out)
        coeffs = [int(c) for c in rep["spectrum"]["coeffs"]]
        support = list(rep["spectrum"]["support"])
        rank = int(rep["spectrum"]["rank"])
        echoed = (rep["n"] == n and rep["s"] == "".join(map(str, s))
                  and len(coeffs) == n + 1)
    except (ValueError, KeyError, TypeError):
        for _ in range(3):
            tally.check(False, f"{where}: unreadable report")
        return
    binom = rows[n]
    lhs = sum(binom[k] * c * c for k, c in enumerate(coeffs))
    rhs = (1 << n) * sum(binom[j] for j in range(n + 1) if s[j])
    tally.check(echoed and lhs == rhs, f"{where}: Parseval or profile echo")
    nonzero = [k for k, c in enumerate(coeffs) if c != 0]
    tally.check(support == nonzero and rank == sum(binom[k] for k in nonzero),
                f"{where}: support/rank")
    tally.check(all(coeffs[k] == coefficient(n, s, k, rows) for k in ks),
                f"{where}: coefficients at k={list(ks)}")


# ---------------------------------------------------------------------------
# oracle-verify


def expected_checked(suite: str, argv: list[str]) -> int:
    """The `checked` total each verify suite must report for argv."""
    if suite == "rank":
        return sum(1 << (n + 1) for n in range(1, int(_opt(argv, "--n-max")) + 1))
    if suite == "fourier":
        return sum((1 << (n + 1)) * (n + 1)
                   for n in range(1, int(_opt(argv, "--n-max")) + 1))
    if "--exhaustive" in argv:
        return 1 << (int(_opt(argv, "--n")) + 1)
    return int(_opt(argv, "--samples"))


def check_verify(tally: Tally, out: str, rc: int, argv: list[str]) -> None:
    suite = _opt(argv, "--suite")
    want = (f"suite={suite} checked={expected_checked(suite, argv)} "
            "mismatches=0 pass")
    lines = out.strip().splitlines()
    tally.check(rc == 0 and lines[-1:] == [want],
                f"verify {' '.join(argv[1:])}: got rc={rc} {lines[-1:]}")


def check_rank(tally: Tally, spec: str, n: int, brute: int, spectral: int) -> None:
    want = spectral_rank(n, profile_bits(spec, n))
    tally.check(brute == spectral == want,
                f"rank n={n} {spec}: brute={brute} spectral={spectral} want={want}")


# ---------------------------------------------------------------------------
# mc-sweep


def expected_total_bits(protocol: str, n: int, d: int, reps: int = 1,
                        region_reps: int = 5, factor: int = 2) -> set[int]:
    """Closed-form transcript lengths, answer bit included, for a
    threshold:d profile.  xor2way has one length per region kind."""
    if protocol == "ham":
        return {reps * min(2 * (d + 1) ** 2, n) + 1}
    r = threshold_r(n, d)
    b = 2 * r * r
    if protocol == "xor1way":
        enum = math.ceil(factor * math.log2(max(r, 2)))
        return {1 + 2 * region_reps * b + 2 * r * enum * b + 1}
    probe = math.ceil(factor * math.log2(math.log2(max(r, 4))))
    probes = math.ceil(math.log2(r)) if r > 1 else 0
    region = 2 * region_reps * b + 2
    return {region + 1 + 1, region + probes * (probe * b + 1) + 1}


def _threshold(argv: list[str]) -> int:
    return int(_opt(argv, "--profile").split(":")[1])


def check_sweep(tally: Tally, out: str, rc: int, argv: list[str]) -> dict:
    """Checks one `sweep` CSV; returns per-protocol trial tallies for the
    pooled-success check and the wrong-answer count."""
    protocol = _opt(argv, "--protocol")
    n, d = int(_opt(argv, "--n")), _threshold(argv)
    trials = int(_opt(argv, "--trials"))
    where = f"sweep {protocol} n={n}"
    rows = list(csv.DictReader(io.StringIO(out))) if rc == 0 else []
    r = threshold_r(n, d)
    tally.check(rc == 0 and [int(x["weight"]) for x in rows] == list(range(n + 1))
                and all(int(x["trials"]) == trials and int(x["r"]) == r
                        for x in rows), f"{where}: grid, trials or r")
    wins = sum(round(float(x["success_rate"]) * trials) for x in rows)
    if protocol == "ham":
        tally.check(all(float(x["success_rate"]) == 1.0
                        for x in rows if int(x["weight"]) <= d),
                    f"{where}: ham output 1 at weight <= d")
    if protocol in ("ham", "xor1way"):
        want = expected_total_bits(protocol, n, d, int(_opt(argv, "--reps", 1)))
        tally.check(bool(rows) and all(
            {float(x["mean_bits"]), float(x["max_bits"])} <= want for x in rows),
            f"{where}: total bits differ from closed form {sorted(want)}")
    return {"protocol": protocol, "trials": trials * len(rows), "wins": wins}


def check_pooled(tally: Tally, cells: list[dict], gate: float = 0.9) -> None:
    for protocol in sorted({c["protocol"] for c in cells}):
        mine = [c for c in cells if c["protocol"] == protocol]
        trials = sum(c["trials"] for c in mine)
        wins = sum(c["wins"] for c in mine)
        tally.check(trials > 0 and wins >= gate * trials,
                    f"pooled success {protocol}: {wins}/{trials} < {gate}")


def parse_rows(out: str) -> list[dict]:
    try:
        return [json.loads(line) for line in out.splitlines() if line]
    except ValueError:
        return []


def check_simulate(tally: Tally, out: str, rc: int, argv: list[str]) -> list[dict]:
    """Checks the per-trial rows of one `simulate` call; returns the rows."""
    protocol = _opt(argv, "--protocol")
    n, d = int(_opt(argv, "--n")), _threshold(argv)
    weight, trials = int(_opt(argv, "--weight")), int(_opt(argv, "--trials"))
    where = f"simulate {protocol} n={n} weight={weight}"
    rows = parse_rows(out) if rc == 0 else []
    truth = int(weight > d)
    tally.check(len(rows) == trials and all(
        x["trial"] == t and x["truth"] == truth
        and x["correct"] == (x["output"] == truth) for t, x in enumerate(rows)),
        f"{where}: rows, truth or correct flag")
    want = expected_total_bits(protocol, n, d, int(_opt(argv, "--reps", 1)))
    tally.check(bool(rows) and all(x["total_bits"] in want for x in rows),
                f"{where}: total bits outside closed form {sorted(want)}")
    if protocol in ("ham", "xor1way"):
        tally.check(bool(rows) and all(x["bits_b_to_a"] == 1 for x in rows),
                    f"{where}: one-way protocol sent Bob->Alice content")
    if protocol == "ham" and weight <= d:
        tally.check(all(x["output"] == 0 for x in rows),
                    f"{where}: ham output 1 at weight <= d")
    return rows


def check_aggregate(tally: Tally, out: str, rc: int, rows: list[dict]) -> None:
    """`simulate --aggregate` must equal the aggregate of the per-trial rows
    of the same seed."""
    try:
        agg = json.loads(out) if rc == 0 else {}
    except ValueError:
        agg = {}
    t = len(rows)
    want = {"trials": t,
            "success_rate": sum(x["correct"] for x in rows) / t if t else 0.0,
            "mean_bits": sum(x["total_bits"] for x in rows) / t if t else 0.0,
            "max_bits": max((x["total_bits"] for x in rows), default=0),
            "rounds_mean": sum(x["rounds"] for x in rows) / t if t else 0.0}
    got = {k: agg.get(k) for k in want}
    tally.check(t > 0 and got == want, f"aggregate {got} != per-trial {want}")
