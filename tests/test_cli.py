import hashlib
import json
import math
import subprocess
import sys

import pytest

from xorcomm.cli import (MAX_ANALYZE_N, MAX_HAM_ONESIDED_N, build_parser,
                         main)
from xorcomm.oracle import MAX_RANK_N, MAX_TABLE_N
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

    # Each limit is checked before any work: above it, a suite used to run
    # every smaller n (hours for rank) before failing, or cached an exact
    # matrix that grows as n^3 bits (sampled lemma).
    @pytest.mark.parametrize("argv, limit", [
        (("--suite", "rank", "--n-max", str(MAX_RANK_N + 1)), MAX_RANK_N),
        (("--suite", "fourier", "--n-max", str(MAX_TABLE_N + 1)), MAX_TABLE_N),
        (("--suite", "lemma", "--n", str(CACHE_MAX_N + 1), "--samples", "1"),
         CACHE_MAX_N),
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
    @pytest.mark.parametrize("argv, name", [
        (SIM + ("--trials", "-3"), "--trials"),
        (SIM + ("--trials", "-3", "--aggregate"), "--trials"),
        (("sweep", "--protocol", "parity", "--profile", "parity", "--n", "4",
          "--trials", "-1"), "--trials"),
        (("verify", "--suite", "ham-onesided", "--n", "4", "--trials", "-2"),
         "--trials"),
        (("verify", "--suite", "lemma", "--n", "20", "--samples", "-5"),
         "--samples"),
        (SIM + ("--seed", "-1"), "--seed"),
        (("sweep", "--protocol", "parity", "--profile", "parity", "--n", "4",
          "--seed", "-5"), "--seed"),
        (("analyze", "--n", "8", "--profile", "threshold:-5"), "threshold:-5"),
        # each of these checked nothing and printed "checked=0 ... pass"
        (("verify", "--suite", "rank", "--n-max", "0"), "--n-max 0"),
        (("verify", "--suite", "fourier", "--n-max", "0"), "--n-max 0"),
        (("verify", "--suite", "lemma", "--n", "64", "--samples", "0"),
         "--samples 0"),
        (("verify", "--suite", "ham-onesided", "--n", "8", "--trials", "0"),
         "--trials 0"),
        (("verify", "--suite", "ham-onesided", "--n", "-1"), "--n -1"),
        # failed with "negative shift count"
        (("verify", "--suite", "lemma", "--exhaustive", "--n", "-3"), "--n -3"),
        # every profile at n <= 1 is trivial, so sampling never ended
        (("verify", "--suite", "lemma", "--n", "1", "--samples", "5"), "--n 1"),
        # each printed an estimate from no trials, or only the CSV header
        (SIM + ("--trials", "0"), "--trials"),
        (SIM + ("--trials", "0", "--aggregate"), "--trials"),
        (("sweep", "--protocol", "parity", "--profile", "parity", "--n", "4",
          "--trials", "0"), "--trials"),
        (("sweep", "--protocol", "parity", "--profile", "parity", "--n", ","),
         "--n"),
        # each died with a numpy "Unable to allocate 14.9 GiB" traceback and
        # exit 1: b = 2r^2 ~ 2e8 buckets at n = 20000, and --buckets 1e9
        (("simulate", "--protocol", "xor2way", "--profile", "mod:3:0", "--n",
          "20000", "--weight", "10"), "--n 20000"),
        (("simulate", "--protocol", "ham", "--profile", "threshold:2", "--n",
          "16", "--buckets", "1000000000", "--weight", "3"),
         "--buckets 1000000000"),
        (("sweep", "--protocol", "ham", "--profile", "threshold:2", "--n",
          "16", "--buckets", "4097"), "--buckets 4097"),
        (("sweep", "--protocol", "parity", "--profile", "parity", "--n",
          "8,4097,16"), "--n 4097"),
        (("simulate", "--protocol", "fullsend", "--profile", "parity", "--n",
          "3000000", "--weight", "1"), "--n 3000000"),
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
    @pytest.mark.parametrize("argv, flag", [
        (_protocol_argv("simulate", "parity", "parity") + ("--buckets", "4"),
         "--buckets"),
        (_protocol_argv("sweep", "parity", "parity") + ("--reps", "2"),
         "--reps"),
        (_protocol_argv("simulate", "fullsend") + ("--buckets", "4"),
         "--buckets"),
        (_protocol_argv("sweep", "fullsend") + ("--reps", "2"), "--reps"),
        (_protocol_argv("simulate", "xor2way") + ("--buckets", "0"),
         "--buckets"),
        (_protocol_argv("simulate", "xor2way") + ("--reps", "0"), "--reps"),
        (_protocol_argv("sweep", "xor1way") + ("--buckets", "4"),
         "--buckets"),
        (_protocol_argv("simulate", "xor1way") + ("--reps", "2"), "--reps"),
        (_protocol_argv("simulate", "parity", "parity")
         + ("--region-reps", "3"), "--region-reps"),
        (_protocol_argv("sweep", "parity", "parity")
         + ("--search-rep-factor", "3"), "--search-rep-factor"),
        (_protocol_argv("sweep", "fullsend") + ("--region-reps", "3"),
         "--region-reps"),
        (_protocol_argv("simulate", "fullsend")
         + ("--search-rep-factor", "3"), "--search-rep-factor"),
        (_protocol_argv("simulate", "ham") + ("--region-reps", "3"),
         "--region-reps"),
        (_protocol_argv("sweep", "ham") + ("--search-rep-factor", "3"),
         "--search-rep-factor"),
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
        with pytest.raises(SystemExit):
            main(["simulate", "--protocol", "parity", "--profile", "parity",
                  "--n", "4", "--weight", "9"])

    def test_weight_out_of_range_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--protocol", "parity", "--profile", "parity",
                  "--n", "4", "--weight", "9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--weight 9" in captured.err

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
        with pytest.raises(SystemExit):
            main(["sweep", "--protocol", "parity", "--profile", "parity",
                  "--n", "2", "--trials", "1",
                  "--out", "/nonexistent-dir/x.csv"])

    def test_unwritable_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--protocol", "parity", "--profile", "parity",
                  "--n", "2", "--trials", "1", "--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(path) in captured.err


class TestGoldenOutput:
    # sha256 of stdout, recorded when each Hamming-test repetition still drew
    # its own bucket map and inputs were validated tuples.  Odd and even n,
    # bucket maps drawn (b < n) and identity (b >= n), and flipped tests.
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
         "1df359502b5d718826063d7d534dc04867c76c0c1ad96a53b0e021580ee3b7f8"),
        (("sweep", "--protocol", "xor1way", "--profile", "threshold:3",
          "--n", "17,32,40", "--trials", "3", "--seed", "7"),
         "64258996236a64331d6bcda124978464a999a9b5a1eee5838f775c39040f01a1"),
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


class TestSubprocessDeterminism:
    def test_byte_identical_runs(self):
        cmd = [sys.executable, "-m", "xorcomm", "analyze", "--n", "12",
               "--profile", "mod:3:0"]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_env_seed_used(self):
        import os
        cmd = [sys.executable, "-m", "xorcomm", "simulate", "--protocol",
               "parity", "--profile", "parity", "--n", "8", "--weight", "1",
               "--trials", "2", "--aggregate"]
        env = dict(os.environ, XORCOMM_SEED="123")
        a = subprocess.run(cmd, capture_output=True, env=env)
        row = json.loads(a.stdout)
        assert row["seed"] == 123
