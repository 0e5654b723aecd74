import json
import math
import subprocess
import sys

import pytest

from xorcomm.cli import MAX_ANALYZE_N, main
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
