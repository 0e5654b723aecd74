import numpy as np
import pytest

from xorcomm import spectral
from xorcomm.oracle import (TruthTable, all_profiles_matrix, brute_fourier,
                            brute_symmetric_fourier_matrix)
from xorcomm.spectral import (CACHE_MAX_N, binom, deterministic_bounds,
                              krawtchouk_coefficient, krawtchouk_matrix,
                              krawtchouk_matrix_i64, lemma_window_check,
                              parseval_check, weight_spectrum, window_bounds)
from xorcomm.symfun import SymmetricProfile, parse_profile


class TestKrawtchouk:
    def test_k_zero_is_binomial(self):
        assert krawtchouk_coefficient(4, 0, 2) == 6

    def test_s_zero_is_one(self):
        for n in (1, 5, 9):
            for k in range(n + 1):
                assert krawtchouk_coefficient(n, k, 0) == 1

    def test_middle_value(self):
        # brute signed sum over the 6 weight-2 vectors at n=4, w=1100
        total = 0
        for x in range(16):
            if bin(x).count("1") == 2:
                total += (-1) ** bin(x & 0b0011).count("1")
        assert total == -2
        assert krawtchouk_coefficient(4, 2, 2) == -2

    def test_range_errors(self):
        with pytest.raises(ValueError):
            krawtchouk_coefficient(4, 5, 0)
        with pytest.raises(ValueError):
            krawtchouk_coefficient(4, 0, -1)

    def test_matches_character_sum_small(self):
        # c_{k,s} = sum over |y|=s of (-1)^{y . 1^k 0^(n-k)}
        n = 6
        for k in range(n + 1):
            mask = (1 << k) - 1
            for s in range(n + 1):
                total = sum((-1) ** bin(y & mask).count("1")
                            for y in range(1 << n)
                            if bin(y).count("1") == s)
                assert krawtchouk_coefficient(n, k, s) == total

    def test_recurrence_matches_coefficient(self):
        for n in range(41):
            assert krawtchouk_matrix(n) == tuple(
                tuple(krawtchouk_coefficient(n, k, s) for s in range(n + 1))
                for k in range(n + 1)), f"n={n}"


class TestWeightSpectrum:
    def test_const0(self):
        sp = weight_spectrum(parse_profile("const0", 5))
        assert all(c == 0 for c in sp.coeffs)
        assert sp.rank == 0

    def test_parity_n2(self):
        sp = weight_spectrum(parse_profile("parity", 2))
        assert sp.coeffs == (2, 0, -2)
        assert sp.support == (0, 2)
        assert sp.rank == 2

    def test_const1_n2(self):
        sp = weight_spectrum(parse_profile("const1", 2))
        assert sp.coeffs == (4, 0, 0)
        assert sp.rank == 1

    def test_parity_support_is_endpoints(self):
        for n in range(1, 11):
            sp = weight_spectrum(parse_profile("parity", n))
            assert sp.support == (0, n)

    def test_agrees_with_brute_fourier(self):
        for n in range(1, 9):
            P = all_profiles_matrix(n)
            spec_side = P @ krawtchouk_matrix_i64(n).T
            brute_side = P @ brute_symmetric_fourier_matrix(n).T
            assert np.array_equal(spec_side, brute_side)

    def test_brute_fourier_constant_on_weight_classes(self):
        p = parse_profile("threshold:2", 8)
        table = TruthTable.from_profile(p)
        sp = weight_spectrum(p)
        for k in (0, 3, 8):
            vals = set()
            for wmask in range(1 << 8):
                if bin(wmask).count("1") == k:
                    w = tuple((wmask >> i) & 1 for i in range(8))
                    vals.add(brute_fourier(table, w))
            assert vals == {sp.coeffs[k]}

    @pytest.mark.parametrize("spec", ["threshold:200", "exact:0", "parity",
                                      "mod:3:1"])
    def test_streamed_equals_cached(self, spec, monkeypatch):
        n = CACHE_MAX_N + 1
        p = parse_profile(spec, n)
        before = krawtchouk_matrix.cache_info()
        streamed = weight_spectrum(p)
        # the streamed build never calls the cached matrix
        assert krawtchouk_matrix.cache_info() == before
        monkeypatch.setattr(spectral, "CACHE_MAX_N", n)
        assert weight_spectrum(p) == streamed
        assert parseval_check(p, streamed)


class TestRank:
    def test_equality_full_rank(self):
        for n in (3, 6, 9):
            assert weight_spectrum(parse_profile("exact:0", n)).rank == 1 << n

    def test_parity_rank_two(self):
        assert weight_spectrum(parse_profile("parity", 4)).rank == 2

    def test_rank_zero_iff_const0(self):
        for n in (2, 5):
            for i in range(1 << (n + 1)):
                p = SymmetricProfile(n, tuple((i >> k) & 1 for k in range(n + 1)))
                assert (weight_spectrum(p).rank == 0) == (i == 0)


class TestParseval:
    def test_exhaustive_small(self):
        for n in range(1, 9):
            for i in range(1 << (n + 1)):
                p = SymmetricProfile(n, tuple((i >> k) & 1 for k in range(n + 1)))
                assert parseval_check(p, weight_spectrum(p))


class TestWindow:
    def test_bounds(self):
        assert window_bounds(8) == (1, 7)
        assert window_bounds(16) == (2, 14)
        assert window_bounds(20) == (3, 17)

    def test_const0_false(self):
        holds, witness = lemma_window_check(weight_spectrum(parse_profile("const0", 8)))
        assert (holds, witness) == (False, None)

    def test_parity_false(self):
        holds, witness = lemma_window_check(weight_spectrum(parse_profile("parity", 8)))
        assert (holds, witness) == (False, None)

    def test_threshold_true(self):
        holds, witness = lemma_window_check(
            weight_spectrum(parse_profile("threshold:3", 16)))
        assert holds
        assert 2 <= witness <= 14


class TestBounds:
    def test_parity(self):
        p = parse_profile("parity", 8)
        assert deterministic_bounds(p, weight_spectrum(p)) == (1, 1)

    def test_equality(self):
        p = parse_profile("exact:0", 10)
        assert deterministic_bounds(p, weight_spectrum(p)) == (10, 11)

    def test_const0(self):
        p = parse_profile("const0", 8)
        assert deterministic_bounds(p, weight_spectrum(p)) == (0, 0)

    def test_binom_edges(self):
        assert binom(5, -1) == 0
        assert binom(5, 6) == 0
        assert binom(5, 2) == 10
