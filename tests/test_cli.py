import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from xorcomm import engine, oracle, protocols, spectral
from xorcomm.cli import (MAX_ANALYZE_N, MAX_HAM_ONESIDED_N, build_parser,
                         main)
from xorcomm.oracle import (MAX_RANK_N, MAX_SAMPLED_SCAN_N, MAX_SAMPLES,
                            MAX_TABLE_N)
from xorcomm.spectral import CACHE_MAX_N


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_parity(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "8",
                               "--profile", "parity")
        assert code == 0
        report = json.loads(out)
        assert report["trivial_class"] == "Parity"
        assert report["spectrum"]["rank"] == "2"
        assert report["deterministic_bounds"] == {"lower": 1, "upper": 1}

    def test_const0(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "8",
                               "--profile", "const0")
        report = json.loads(out)
        assert report["spectrum"]["rank"] == "0"
        assert report["deterministic_bounds"] == {"lower": 0, "upper": 0}

    def test_threshold_gap(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "16",
                               "--profile", "threshold:3")
        report = json.loads(out)
        assert (report["r0"], report["r1"]) == (4, 0)

    def test_big_rank_is_decimal_string(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--n", "80",
                            "--profile", "exact:0")
        report = json.loads(out)
        assert report["spectrum"]["rank"] == str(1 << 80)

    def test_large_n_exact(self, capsys):
        n, d = 1024, 300
        assert n > CACHE_MAX_N  # the spectrum is streamed
        code, out, _ = run_cli(capsys, "analyze", "--n", str(n),
                               "--profile", f"threshold:{d}")
        assert code == 0
        report = json.loads(out)
        coeffs = [int(c) for c in report["spectrum"]["coeffs"]]
        support = [k for k, c in enumerate(coeffs) if c != 0]
        assert report["spectrum"]["support"] == support
        assert report["spectrum"]["rank"] == str(
            sum(math.comb(n, k) for k in support))
        # exact Parseval: sum_k C(n,k) c_k^2 = 2^n |S^{-1}(1)|
        ones = sum(math.comb(n, s) for s in range(d + 1, n + 1))
        assert sum(math.comb(n, k) * c * c
                   for k, c in enumerate(coeffs)) == (ones << n)
        # spot checks against the alternating sum
        # c_k = sum_t (-1)^t C(k,t) sum_{s>d} C(n-k,s-t)
        for k in (0, 1, 511, 512, 1023, 1024):
            tail = [0] * (d + 2)  # tail[j] = sum_{u>=j} C(n-k,u), j <= d+1
            tail[d + 1] = sum(math.comb(n - k, u) for u in range(d + 1, n - k + 1))
            for j in range(d, -1, -1):
                tail[j] = tail[j + 1] + math.comb(n - k, j)
            want = sum((-1) ** t * math.comb(k, t) * tail[max(0, d + 1 - t)]
                       for t in range(k + 1))
            assert coeffs[k] == want, f"k={k}"

    def test_n_above_limit_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--n",
                                 str(MAX_ANALYZE_N + 1), "--profile", "const0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and str(MAX_ANALYZE_N) in err

    def test_canonical_specs_unchanged(self, capsys):
        # the spellings that parse_profile still takes give the bytes they
        # gave when it also took loose ones (sha256 of stdout)
        digests = {
            "threshold:2":
                "f2bb7025f458add56b671d9db4442093289181920da5263a4962e43d6159006b",
            "parity":
                "920f8873417c051dc5989226c303b7f0260e53ff8d0336cb299dc6b434b7d622",
            "mod:3:0,2":
                "4afef7144c18e00f9d999819ba0279b9bddd41b5f0bdc880066287740f02b80b",
        }
        for spec, digest in digests.items():
            code, out, _ = run_cli(capsys, "analyze", "--n", "8", "--profile",
                                   spec)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_profile_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--n", "8",
                               "--profile", "bogus:1")
        assert code == 2
        assert "bogus" in err


class TestVerify:
    def test_fourier_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "fourier",
                               "--n-max", "6")
        assert code == 0
        assert "pass" in out

    def test_rank_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "rank",
                               "--n-max", "4")
        assert code == 0

    # A planted fault must show whichever side of a reversal pair it is on:
    # the rank suite runs one elimination per pair, yet compares every
    # profile's own weight_spectrum.
    @pytest.mark.parametrize("bad", [(1, 1, 0, 1, 0), (0, 1, 0, 1, 1)])
    def test_rank_planted_fault(self, capsys, monkeypatch, bad):
        real = spectral.weight_spectrum

        def planted(profile):
            spectrum = real(profile)
            if profile.s != bad:
                return spectrum
            return dataclasses.replace(spectrum, rank=spectrum.rank + 1)

        monkeypatch.setattr(spectral, "weight_spectrum", planted)
        code, out, _ = run_cli(capsys, "verify", "--suite", "rank",
                               "--n-max", "4")
        assert code == 1
        assert out == "suite=rank checked=60 mismatches=1 FAIL\n"

    def test_fourier_planted_fault(self, capsys, monkeypatch):
        # one wrong entry at n = 5: the suite compares matrices, and must
        # still count what the per-profile products count
        real = spectral.krawtchouk_matrix

        def planted(n):
            C = real(n)
            if n != 5:
                return C
            return tuple(tuple(c + ((k, s) == (2, 3))
                               for s, c in enumerate(row))
                         for k, row in enumerate(C))

        monkeypatch.setattr(spectral, "krawtchouk_matrix", planted)
        expected = 0
        for n in range(1, 7):
            P = oracle.all_profiles_matrix(n)
            C = np.array(planted(n), dtype=np.int64)
            B = oracle.brute_symmetric_fourier_matrix(n)
            expected += int((P @ C.T != P @ B.T).sum())
        assert expected == 1 << 5  # the profiles with s[3] = 1
        code, out, _ = run_cli(capsys, "verify", "--suite", "fourier",
                               "--n-max", "6")
        assert code == 1
        assert out == (f"suite=fourier checked=1536 mismatches={expected} "
                       "FAIL\n")

    def test_lemma_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma",
                               "--n", "10", "--exhaustive")
        assert code == 0

    def test_lemma_sampled(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma",
                               "--n", "40", "--samples", "500", "--seed", "3")
        assert code == 0

    def test_ham_onesided(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "ham-onesided",
                               "--n", "8", "--trials", "20", "--seed", "1")
        assert code == 0

    def test_ham_onesided_checks_the_sketch(self, capsys, monkeypatch):
        # ham hashes no row at a weight m <= d, so the suite counts the
        # rows itself: a sketch that overshoots by one fails it on every
        # sketched row.  At n = 8 only d = 0 has b = 2 < n, so its 20 rows
        # (m = 0) are the mismatches of the 45 * 20 checked.  About 0.01 s.
        def overshoot(*args):
            return bucket_parities(*args) + 1

        bucket_parities = protocols._bucket_parities
        monkeypatch.setattr(protocols, "_bucket_parities", overshoot)
        code, out, _ = run_cli(capsys, "verify", "--suite", "ham-onesided",
                               "--n", "8", "--trials", "20", "--seed", "1")
        assert code == 1
        assert out == "suite=ham-onesided checked=900 mismatches=20 FAIL\n"

    # Each limit is checked before any work: above it, a suite used to run
    # every smaller n (hours for rank) before failing, or cached an exact
    # matrix that grows as n^3 bits (sampled lemma).
    @pytest.mark.parametrize("argv, limit", [
        (("--suite", "rank", "--n-max", str(MAX_RANK_N + 1)), MAX_RANK_N),
        (("--suite", "fourier", "--n-max", str(MAX_TABLE_N + 1)), MAX_TABLE_N),
        (("--suite", "lemma", "--n", str(MAX_SAMPLED_SCAN_N + 1),
          "--samples", "1"), MAX_SAMPLED_SCAN_N),
        (("--suite", "ham-onesided", "--n", str(MAX_HAM_ONESIDED_N + 1)),
         MAX_HAM_ONESIDED_N),
    ])
    def test_n_above_limit_exit_2(self, capsys, argv, limit):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and str(limit) in err


SIM = ("simulate", "--protocol", "parity", "--profile", "parity", "--n", "8",
       "--weight", "1")


class TestBadNumericInput:
    # Each used to run: a negative --trials printed success_rate -0.0, a
    # negative --samples printed checked=-5 pass, a negative seed failed
    # inside numpy naming no flag, and threshold:-5 silently meant const1.
    # Each row's id is explicit, frozen at the id pytest first gave it from
    # its position, so a row inserted anywhere renames no other; a new row
    # takes a new id of its own.
    @pytest.mark.parametrize("argv, name", [
        pytest.param(
            SIM + ("--trials", "-3"), "--trials", id="argv0---trials"),
        pytest.param(
            SIM + ("--trials", "-3", "--aggregate"), "--trials",
            id="argv1---trials"),
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity", "--n",
             "4", "--trials", "-1"), "--trials", id="argv2---trials"),
        pytest.param(
            ("verify", "--suite", "ham-onesided", "--n", "4", "--trials",
             "-2"), "--trials", id="argv3---trials"),
        pytest.param(
            ("verify", "--suite", "lemma", "--n", "20", "--samples", "-5"),
            "--samples", id="argv4---samples"),
        pytest.param(
            SIM + ("--seed", "-1"), "--seed", id="argv5---seed"),
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity", "--n",
             "4", "--seed", "-5"), "--seed", id="argv6---seed"),
        pytest.param(
            ("analyze", "--n", "8", "--profile", "threshold:-5"),
            "threshold:-5", id="argv7-threshold:-5"),
        # each of these checked nothing and printed "checked=0 ... pass"
        pytest.param(
            ("verify", "--suite", "rank", "--n-max", "0"), "--n-max 0",
            id="argv8---n-max 0"),
        pytest.param(
            ("verify", "--suite", "fourier", "--n-max", "0"), "--n-max 0",
            id="argv9---n-max 0"),
        pytest.param(
            ("verify", "--suite", "lemma", "--n", "64", "--samples", "0"),
            "--samples 0", id="argv10---samples 0"),
        pytest.param(
            ("verify", "--suite", "ham-onesided", "--n", "8", "--trials", "0"),
            "--trials 0", id="argv11---trials 0"),
        pytest.param(
            ("verify", "--suite", "ham-onesided", "--n", "-1"), "--n -1",
            id="argv12---n -1"),
        # failed with "negative shift count"
        pytest.param(
            ("verify", "--suite", "lemma", "--exhaustive", "--n", "-3"),
            "--n -3", id="argv13---n -3"),
        # every profile at n <= 1 is trivial, so sampling never ended
        pytest.param(
            ("verify", "--suite", "lemma", "--n", "1", "--samples", "5"),
            "--n 1", id="argv14---n 1"),
        # each printed an estimate from no trials, or only the CSV header
        pytest.param(
            SIM + ("--trials", "0"), "--trials", id="argv15---trials"),
        pytest.param(
            SIM + ("--trials", "0", "--aggregate"), "--trials",
            id="argv16---trials"),
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity", "--n",
             "4", "--trials", "0"), "--trials", id="argv17---trials"),
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity", "--n",
             ","), "--n", id="argv18---n"),
        # each died with a numpy "Unable to allocate 14.9 GiB" traceback and
        # exit 1: b = 2r^2 ~ 2e8 buckets at n = 20000, and --buckets 1e9
        pytest.param(
            ("simulate", "--protocol", "xor2way", "--profile", "mod:3:0",
             "--n", "20000", "--weight", "10"),
            "--n 20000", id="argv19---n 20000"),
        pytest.param(
            ("simulate", "--protocol", "ham", "--profile", "threshold:2",
             "--n", "16", "--buckets", "1000000000", "--weight", "3"),
            "--buckets 1000000000", id="argv20---buckets 1000000000"),
        pytest.param(
            ("sweep", "--protocol", "ham", "--profile", "threshold:2", "--n",
             "16", "--buckets", "4097"), "--buckets 4097",
            id="argv21---buckets 4097"),
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity", "--n",
             "8,4097,16"), "--n 4097", id="argv22---n 4097"),
        pytest.param(
            ("simulate", "--protocol", "fullsend", "--profile", "parity",
             "--n", "3000000", "--weight", "1"),
            "--n 3000000", id="argv23---n 3000000"),
        # each ran, holding repetitions * b bytes of rows per phase: memory
        # grew about 1.9 MB per unit of --search-rep-factor, without bound
        pytest.param(
            ("simulate", "--protocol", "ham", "--profile", "threshold:2",
             "--n", "16", "--reps", "4097", "--weight", "3"),
            "--reps 4097", id="argv24---reps 4097"),
        pytest.param(
            ("sweep", "--protocol", "xor2way", "--profile", "threshold:2",
             "--n", "16", "--region-reps", "4097"), "--region-reps 4097",
            id="argv25---region-reps 4097"),
        pytest.param(
            ("simulate", "--protocol", "xor1way", "--profile", "threshold:2",
             "--n", "16", "--search-rep-factor", "17", "--weight", "3"),
            "--search-rep-factor 17", id="argv26---search-rep-factor 17"),
        # printed "invalid literal for int() with base 10: 'x'"
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity", "--n",
             "4,x"), "--n '4,x': invalid literal for int() with base 10: 'x'",
            id="argv27---n '4,x': invalid literal for int() "
               "with base 10: 'x'"),
        # each printed "pass" (checked=2, checked=4), though every profile
        # at n <= 1 is trivial and none was checked
        pytest.param(
            ("verify", "--suite", "lemma", "--exhaustive", "--n", "0"),
            "--n 0", id="argv28---n 0"),
        pytest.param(
            ("verify", "--suite", "lemma", "--exhaustive", "--n", "1"),
            "--n 1", id="argv29---n 1"),
        # each exited 0, ignoring a flag its suite does not read
        pytest.param(
            ("verify", "--suite", "fourier", "--n-max", "2", "--n", "999999"),
            "fourier does not use --n", id="argv30-fourier does not use --n"),
        pytest.param(
            ("verify", "--suite", "rank", "--n-max", "2", "--samples", "0"),
            "does not use --samples", id="argv31-does not use --samples"),
        pytest.param(
            ("verify", "--suite", "rank", "--n-max", "2", "--exhaustive"),
            "does not use --exhaustive",
            id="argv32-does not use --exhaustive"),
        pytest.param(
            ("verify", "--suite", "lemma", "--exhaustive", "--n", "10",
             "--samples", "0"), "does not use --samples",
            id="argv33-does not use --samples"),
        pytest.param(
            ("verify", "--suite", "ham-onesided", "--n-max", "3"),
            "does not use --n-max", id="argv34-does not use --n-max"),
        # ran every cell of n=4 twice and printed each row twice
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity", "--n",
             "4,8,4"), "--n '4,8,4' lists n=4 twice",
            id="argv35---n '4,8,4' lists n=4 twice"),
        # each ran: an empty residue was skipped, and int() took the space
        # and the '_'
        pytest.param(
            ("analyze", "--n", "8", "--profile", "mod:3:1,,2"),
            "'mod:3:1,,2'", id="argv36-mod:3:1,,2"),
        pytest.param(
            ("analyze", "--n", "8", "--profile", "mod:3:1,"),
            "'mod:3:1,'", id="argv37-mod:3:1,"),
        pytest.param(
            ("analyze", "--n", "8", "--profile", "threshold: 1"),
            "'threshold: 1'", id="argv38-threshold: 1"),
        pytest.param(
            ("simulate", "--protocol", "ham", "--profile", "exact:1_0",
             "--n", "16", "--weight", "3"), "'exact:1_0'",
            id="argv39-exact:1_0"),
        # each exited 0: the family name was stripped and lower-cased, and
        # text after a parameterless family was ignored
        pytest.param(
            ("analyze", "--n", "8", "--profile", " THRESHOLD :2"),
            "' THRESHOLD :2'", id="argv40- THRESHOLD :2"),
        pytest.param(
            ("analyze", "--n", "8", "--profile", "const0:junk"),
            "'const0:junk'", id="argv41-const0:junk"),
        pytest.param(
            ("sweep", "--protocol", "parity", "--profile", "parity:",
             "--n", "8"), "'parity:'", id="argv42-parity:"),
        # trial 2^31 would take a trial's stream counters past 2^64; the
        # refusal comes before the first block
        pytest.param(
            ("simulate", "--protocol", "xor2way", "--profile", "threshold:2",
             "--n", "8", "--weight", "1", "--trials", str(2 ** 31 + 1)),
            "trials must be 1 to 2^31", id="argv43-trials past 2^31"),
        # 2.5 died inside numpy and -5 checked nothing; above the limit a
        # scan would run for minutes, and its candidates near 2^31 trials
        pytest.param(
            ("verify", "--suite", "lemma", "--n", "512", "--samples",
             str(MAX_SAMPLES + 1)),
            f"--samples {MAX_SAMPLES + 1} is above the limit of {MAX_SAMPLES}",
            id="argv44---samples above the limit"),
    ])
    def test_exit_2(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("value", ["-7", "seven"])
    def test_bad_env_seed_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("XORCOMM_SEED", value)
        code, out, err = run_cli(capsys, *SIM)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "XORCOMM_SEED" in err


def _protocol_argv(command, protocol, profile="threshold:2"):
    argv = (command, "--protocol", protocol, "--profile", profile, "--n", "8")
    return argv + (("--weight", "1") if command == "simulate" else ())


class TestIgnoredProtocolFlags:
    # A protocol used to ignore every flag it does not read, so a typo or a
    # wrong protocol name still ran and exited 0.
    # Explicit ids, frozen as in TestBadNumericInput.
    @pytest.mark.parametrize("argv, flag", [
        pytest.param(
            _protocol_argv("simulate", "parity", "parity")
            + ("--buckets", "4"), "--buckets", id="argv0---buckets"),
        pytest.param(
            _protocol_argv("sweep", "parity", "parity") + ("--reps", "2"),
            "--reps", id="argv1---reps"),
        pytest.param(
            _protocol_argv("simulate", "fullsend") + ("--buckets", "4"),
            "--buckets", id="argv2---buckets"),
        pytest.param(
            _protocol_argv("sweep", "fullsend") + ("--reps", "2"), "--reps",
            id="argv3---reps"),
        pytest.param(
            _protocol_argv("simulate", "xor2way") + ("--buckets", "0"),
            "--buckets", id="argv4---buckets"),
        pytest.param(
            _protocol_argv("simulate", "xor2way") + ("--reps", "0"), "--reps",
            id="argv5---reps"),
        pytest.param(
            _protocol_argv("sweep", "xor1way") + ("--buckets", "4"),
            "--buckets", id="argv6---buckets"),
        pytest.param(
            _protocol_argv("simulate", "xor1way") + ("--reps", "2"), "--reps",
            id="argv7---reps"),
        pytest.param(
            _protocol_argv("simulate", "parity", "parity")
            + ("--region-reps", "3"), "--region-reps",
            id="argv8---region-reps"),
        pytest.param(
            _protocol_argv("sweep", "parity", "parity")
            + ("--search-rep-factor", "3"), "--search-rep-factor",
            id="argv9---search-rep-factor"),
        pytest.param(
            _protocol_argv("sweep", "fullsend") + ("--region-reps", "3"),
            "--region-reps", id="argv10---region-reps"),
        pytest.param(
            _protocol_argv("simulate", "fullsend")
            + ("--search-rep-factor", "3"), "--search-rep-factor",
            id="argv11---search-rep-factor"),
        pytest.param(
            _protocol_argv("simulate", "ham") + ("--region-reps", "3"),
            "--region-reps", id="argv12---region-reps"),
        pytest.param(
            _protocol_argv("sweep", "ham") + ("--search-rep-factor", "3"),
            "--search-rep-factor", id="argv13---search-rep-factor"),
    ])
    def test_exit_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("argv, defaults", [
        (_protocol_argv("simulate", "xor2way") + ("--trials", "4"),
         ("--region-reps", "5", "--search-rep-factor", "2")),
        (_protocol_argv("sweep", "ham") + ("--trials", "3"),
         ("--reps", "1")),
        # a verify suite's defaults come from its VERIFY_SUITES entry
        (("verify", "--suite", "lemma", "--samples", "300"), ("--n", "12")),
        (("verify", "--suite", "ham-onesided", "--n", "6", "--seed", "5"),
         ("--trials", "100")),
    ])
    def test_explicit_defaults_same_output(self, capsys, argv, defaults):
        code, omitted, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, *defaults) == (0, omitted, "")


class TestSimulate:
    def test_parity_aggregate(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--protocol", "parity",
                               "--profile", "parity", "--n", "16",
                               "--weight", "3", "--trials", "20",
                               "--aggregate", "--seed", "0")
        assert code == 0
        row = json.loads(out)
        assert row["success_rate"] == 1.0

    def test_per_trial_lines(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--protocol", "fullsend",
                               "--profile", "exact:0", "--n", "8",
                               "--weight", "2", "--trials", "3", "--seed", "0")
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            row = json.loads(line)
            assert row["correct"] is True
            assert row["bits_a_to_b"] == 8

    def test_weight_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--protocol", "parity",
                             "--profile", "parity", "--n", "4",
                             "--weight", "9")
        assert code == 2

    def test_weight_out_of_range_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--protocol", "parity",
                                 "--profile", "parity", "--n", "4",
                                 "--weight", "9")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--weight 9" in err

    def test_parity_protocol_refuses_threshold_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--protocol", "parity",
                                 "--profile", "threshold:3", "--n", "8",
                                 "--weight", "1")
        assert code == 2
        assert out == ""
        assert err == ("error: parity protocol needs a const0, const1, "
                       "parity or notparity profile\n")

    def test_deterministic_output(self, capsys):
        args = ["simulate", "--protocol", "xor2way", "--profile", "exact:0",
                "--n", "32", "--weight", "0", "--trials", "10",
                "--seed", "7", "--aggregate"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestSweep:
    def test_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--protocol", "parity",
                             "--profile", "parity", "--n", "4,2",
                             "--trials", "2", "--seed", "1",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == ("n,family,r0,r1,r,protocol,weight,trials,"
                            "success_rate,mean_bits,max_bits,rounds_mean")
        assert len(lines) == 1 + 3 + 5  # header + weights at n=2 and n=4
        first = lines[1].split(",")
        assert first[0] == "2"

    def test_unwritable_path(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--protocol", "parity",
                             "--profile", "parity", "--n", "2", "--trials",
                             "1", "--out", "/nonexistent-dir/x.csv")
        assert code == 2

    def test_unwritable_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--protocol", "parity",
                                 "--profile", "parity", "--n", "2",
                                 "--trials", "1", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err


class TestSweepOutFailsFast:
    SWEEP = ("sweep", "--protocol", "xor1way", "--profile", "threshold:2",
             "--n", "17,32", "--trials", "4", "--seed", "22")

    def test_unwritable_path_refused_before_any_cell(self, capsys,
                                                     monkeypatch, tmp_path):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran before --out was checked")
        monkeypatch.setattr(engine, "sweep", no_cells)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, *self.SWEEP, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(path) in err

    @pytest.mark.parametrize("profile, n_list", [
        ("bogus", "8"),
        ("exact:6", "8,4"),  # refused at the second n only
        ("parity", "8,5000"),
    ])
    def test_refused_run_leaves_out_untouched(self, capsys, tmp_path,
                                              profile, n_list):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("earlier contents\n")
        for path in (fresh, kept):
            code, out, err = run_cli(capsys, "sweep", "--protocol", "parity",
                                     "--profile", profile, "--n", n_list,
                                     "--trials", "1", "--out", str(path))
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith("error: ")
        assert not fresh.exists()
        assert kept.read_text() == "earlier contents\n"

    def test_out_bytes_are_the_stdout_bytes(self, capsys, tmp_path):
        # the digest TestGoldenOutput pins for the same run on stdout
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, *self.SWEEP, "--out", str(path))
        assert code == 0 and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "88461369b08f71036a177e5af4813dacbc76070cb814765a25c9d664c70264a8")


class TestGoldenOutput:
    # sha256 of stdout, recorded when each Hamming-test repetition still drew
    # its own bucket map and inputs were validated tuples.  Odd and even n,
    # bucket maps drawn (b < n) and identity (b >= n), and flipped tests.
    # When every stream became counter-based, only the exact:0 sweep's
    # bytes changed, and it was re-pinned: in the other runs every trial is
    # correct and its bit count depends only on the region it takes.
    @pytest.mark.parametrize("argv, digest", [
        (("sweep", "--protocol", "ham", "--profile", "threshold:2",
          "--n", "33,64", "--trials", "5", "--reps", "3", "--seed", "21"),
         "128a24993626389782a41fda9d125dc6b9d54c9a96d76b56ca8231c2137c7fe4"),
        (("sweep", "--protocol", "xor1way", "--profile", "threshold:2",
          "--n", "17,32", "--trials", "4", "--seed", "22"),
         "88461369b08f71036a177e5af4813dacbc76070cb814765a25c9d664c70264a8"),
        (("simulate", "--protocol", "xor2way", "--profile", "threshold:3",
          "--n", "49", "--weight", "5", "--trials", "25", "--seed", "23"),
         "5ee499b3478fd6d53d30e7932483705989824646bb7842078042a6c73531c4e0"),
        # Recorded when each Hamming test, and each search probe, made its
        # own tape draw: xor2way probes with b = 98 buckets (identity map at
        # n = 33, drawn at n = 100), the r = 1 path, which runs no probes,
        # and xor1way at three n.
        (("sweep", "--protocol", "xor2way", "--profile", "threshold:6",
          "--n", "33,100", "--trials", "3", "--seed", "7"),
         "3a795de9ea7670543df7683b94e437c80893338c6e5146b7a0086d8d5c488b8a"),
        (("sweep", "--protocol", "xor2way", "--profile", "exact:0",
          "--n", "64", "--trials", "5", "--seed", "7"),
         "8d07721044bf58fb0696169df58d8aa37eff0d80d963640303f268959a14f605"),
        (("sweep", "--protocol", "xor1way", "--profile", "threshold:3",
          "--n", "17,32,40", "--trials", "3", "--seed", "7"),
         "64258996236a64331d6bcda124978464a999a9b5a1eee5838f775c39040f01a1"),
        # Recorded while each protocol kept its parameters in a separate
        # config object: the params of every protocol, per trial and
        # aggregated, and the ham-onesided suite.
        (("simulate", "--protocol", "ham", "--profile", "threshold:2",
          "--n", "16", "--weight", "3", "--trials", "3", "--seed", "5"),
         "99294c753abe8a056816635c0786d3f9d2f1a16478758fd64f34ac6f6bc2564a"),
        (("simulate", "--protocol", "ham", "--profile", "threshold:2",
          "--n", "16", "--weight", "3", "--trials", "3", "--buckets", "8",
          "--reps", "2", "--aggregate", "--seed", "5"),
         "54279d411e704e477cb1b0a0bf83cbd81f5ea0c26eb6478d82e5bf5affa94aed"),
        (("simulate", "--protocol", "parity", "--profile", "parity",
          "--n", "8", "--weight", "1", "--trials", "2", "--seed", "5"),
         "5dc82eb87712519007f932e28d9a8af067959637dc44546e8cd7484d489b2f5e"),
        (("simulate", "--protocol", "fullsend", "--profile", "exact:0",
          "--n", "8", "--weight", "2", "--trials", "2", "--aggregate",
          "--seed", "5"),
         "2cbba4a55e09f3a895329139f0cd0bdc51bcdf652c0e5edda57549a3a99d8d15"),
        (("simulate", "--protocol", "xor1way", "--profile", "threshold:2",
          "--n", "24", "--weight", "1", "--trials", "3", "--region-reps", "3",
          "--search-rep-factor", "1", "--seed", "5"),
         "00cf21b86cca6a5406d9bfa0e1f0c0dfc56ae6da3a9897297ce7822ad4b73974"),
        (("verify", "--suite", "ham-onesided", "--n", "6", "--trials", "3",
          "--seed", "5"),
         "babc06247407091be392c7e08f6e35b9e06f274ebe2956e870ec0d71a6694748"),
        # Recorded while the rank suite ran one elimination per profile and
        # the fourier suite multiplied every profile by both matrices.
        (("verify", "--suite", "rank", "--n-max", "5"),
         "952db3a9e9cc15b08ff551935d71c2c1534aaf1be16bf692aa88ad1a11449da7"),
        (("verify", "--suite", "fourier", "--n-max", "10"),
         "0ceb0ccbfbfa1f1ebfbf15e66261eb6939114d76b379c878c9e76011d4cd5a6e"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_repeats(self, capsys):
        # the shared parser keeps no state between calls
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", "bogus"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert "invalid choice: 'bogus'" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_protocol_flags_name_their_readers(self, capsys, command):
        # the flags and their help come from the protocols' dataclass fields
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        for flag, readers in (("--buckets", "ham"), ("--reps", "ham"),
                              ("--region-reps", "xor2way and xor1way"),
                              ("--search-rep-factor", "xor2way and xor1way")):
            assert re.search(rf"{flag} [A-Z_]+\s+read by {readers} only\n",
                             out), flag

    # sha256 of each --help text at COLUMNS=80, recorded while every verify
    # flag still had a default of its own in the parser
    @pytest.mark.parametrize("command, digest", [
        ("analyze",
         "89354750d6f5f19ef1633314f4843bf1e59fdbb72021acf46524539e65a1a1c9"),
        ("verify",
         "63fd7fb931af2a42035b6f9d238d88bdba112de9f196a1d6dbc1d0c368bb8725"),
        ("simulate",
         "9ff0c86819423efa1c0e2416cde1c1d32c67458420ed4ce8b06d95a4b3b84678"),
        ("sweep",
         "f638d917753aabe47497b82d1227f37a6f9c553f87607641449a1ae11d77039b"),
    ])
    def test_help_digest(self, capsys, monkeypatch, command, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSubprocessDeterminism:
    def test_byte_identical_runs(self):
        cmd = [sys.executable, "-m", "xorcomm", "analyze", "--n", "12",
               "--profile", "mod:3:0"]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_usage_error_exit_2(self):
        # main returns 2, and python -m xorcomm exits with it
        cmd = [sys.executable, "-m", "xorcomm", "simulate", "--protocol",
               "parity", "--profile", "parity", "--n", "4", "--weight", "9"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 2
        assert a.stdout == ""
        assert a.stderr.count("\n") == 1 and "--weight 9" in a.stderr

    def test_env_seed_used(self):
        import os
        cmd = [sys.executable, "-m", "xorcomm", "simulate", "--protocol",
               "parity", "--profile", "parity", "--n", "8", "--weight", "1",
               "--trials", "2", "--aggregate"]
        env = dict(os.environ, XORCOMM_SEED="123")
        a = subprocess.run(cmd, capture_output=True, env=env)
        row = json.loads(a.stdout)
        assert row["seed"] == 123


class TestNumpyOnFirstUse:
    # numpy's compiled core.  Not "numpy": the placeholder that xorcomm._np
    # binds is under that name from the start, loaded or not.
    CORE = "numpy._core._multiarray_umath"

    @pytest.mark.parametrize("argv, code, loaded", [
        (("analyze", "--n", "64", "--profile", "threshold:16"), 0, False),
        (("--help",), 0, False),
        (("simulate", "--protocol", "parity", "--profile", "parity", "--n",
          "4", "--weight", "9"), 2, False),
        # the control: the first array operation loads it
        (("simulate", "--protocol", "parity", "--profile", "parity", "--n",
          "4", "--weight", "1"), 0, True),
    ])
    def test_loaded_at_exit(self, argv, code, loaded):
        # python -m xorcomm, reporting at exit whether numpy was loaded
        script = (
            "import atexit, runpy, sys\n"
            f"atexit.register(lambda: print({self.CORE!r} in sys.modules,"
            " file=sys.stderr))\n"
            f"sys.argv = ['xorcomm', *{argv!r}]\n"
            "runpy.run_module('xorcomm', run_name='__main__', alter_sys=True)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stderr.splitlines()[-1] == str(loaded)

    def test_one_numpy(self):
        # numpy is imported already, so the binding is numpy itself
        from xorcomm import _np, cli, engine, oracle, protocols, symfun
        assert _np._numpy() is sys.modules["numpy"] is np
        for module in (cli, engine, oracle, protocols, symfun):
            assert module.np is np

    def test_no_numpy_is_an_import_error(self):
        script = ("import sys\n"
                  "sys.modules['numpy'] = None\n"
                  "import xorcomm\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ModuleNotFoundError: import of numpy halted" in proc.stderr
