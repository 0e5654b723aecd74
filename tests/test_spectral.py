import numpy as np
import pytest

from xorcomm import spectral
from xorcomm.engine import run_protocol, weighted_pair
from xorcomm.oracle import (TruthTable, all_profiles_matrix, brute_fourier,
                            brute_symmetric_fourier_matrix, profile_of_index)
from xorcomm.protocols import make_protocol
from xorcomm.spectral import (CACHE_MAX_N, deterministic_bounds,
                              krawtchouk_coefficient, krawtchouk_matrix,
                              lemma_window_check, packed_columns,
                              parseval_check, weight_spectrum, window_bounds)
from xorcomm.symfun import SymmetricProfile, evaluate_F, parse_profile

# Two primes near 2^61 (2^61 - 1 and 2^61 + 15) and two fixed points.
IDENTITY_PRIMES = ((1 << 61) - 1, (1 << 61) + 15)
IDENTITY_POINTS = (3, 987_654_321)


def generating_sums(n, coeffs, bits, u, p):
    """(sum_k C(n,k) c_k u^k, sum_s S(s) C(n,s) (1-u)^s (1+u)^(n-s)) mod p.

    The two are equal for the spectrum c of S: summing
    C(n,k) C[k][s] = C(n,s) C[s][k] times u^k over k gives
    C(n,s) (1-u)^s (1+u)^(n-s) (MacWilliams & Sloane, ch. 5).  O(n) steps
    with running binomials and powers, and no Krawtchouk recurrence.
    """
    lhs = rhs = 0
    binom, power, term = 1, 1, pow(1 + u, n, p)
    ratio = (1 - u) * pow(1 + u, -1, p) % p
    for k in range(n + 1):
        b = binom % p
        lhs = (lhs + b * (coeffs[k] % p) * power) % p
        rhs = (rhs + b * term) % p if bits[k] else rhs
        binom = binom * (n - k) // (k + 1)
        power, term = power * u % p, term * ratio % p
    return lhs, rhs


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

    def test_matrix_cache_is_bounded(self):
        # the 16 matrices of n = 497..512, all cached, peaked at 248 MB
        for n in range(50, 56):
            krawtchouk_matrix(n)
        info = krawtchouk_matrix.cache_info()
        assert info.currsize <= 4
        krawtchouk_matrix(55)
        assert krawtchouk_matrix.cache_info().hits == info.hits + 1

    def test_packed_cache_is_bounded(self):
        assert packed_columns.cache_parameters()["maxsize"] == 4
        for n in range(50, 56):
            packed_columns(n)
        info = packed_columns.cache_info()
        assert info.currsize <= 4
        packed_columns(55)
        assert packed_columns.cache_info().hits == info.hits + 1


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

    def test_coeffs_agree_with_brute_fourier(self):
        # the packed spectrum itself, for all 1,020 profiles of n = 1..8
        for n in range(1, 9):
            B = brute_symmetric_fourier_matrix(n)
            for row in all_profiles_matrix(n):
                sp = weight_spectrum(SymmetricProfile(n, tuple(row.tolist())))
                assert sp.coeffs == tuple((B @ row).tolist()), (n, row)

    def test_packed_equals_direct_sums(self):
        # const1 puts 2^n in slot 0, the most any slot holds
        for n in range(1, 41):
            C = [[krawtchouk_coefficient(n, k, s) for s in range(n + 1)]
                 for k in range(n + 1)]
            pairs = tuple((s // 2) % 2 for s in range(n + 1))
            for p in (parse_profile("const1", n), parse_profile("parity", n),
                      parse_profile("notparity", n), parse_profile("exact:0", n),
                      SymmetricProfile(n, pairs)):
                assert weight_spectrum(p).coeffs == tuple(
                    sum(c for c, b in zip(row, p.s) if b) for row in C), (n, p.s)

    @pytest.mark.parametrize("spec", ["const1", "threshold:256"])
    def test_packed_equals_streamed_at_widest_slots(self, spec, monkeypatch):
        n = CACHE_MAX_N
        p = parse_profile(spec, n)
        packed = weight_spectrum(p)
        monkeypatch.setattr(spectral, "CACHE_MAX_N", n - 1)
        before = packed_columns.cache_info()
        assert weight_spectrum(p) == packed
        assert packed_columns.cache_info() == before

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
        before = krawtchouk_matrix.cache_info(), packed_columns.cache_info()
        streamed = weight_spectrum(p)
        # the streamed build touches neither cache
        assert (krawtchouk_matrix.cache_info(),
                packed_columns.cache_info()) == before
        monkeypatch.setattr(spectral, "CACHE_MAX_N", n)
        assert weight_spectrum(p) == streamed
        assert parseval_check(p, streamed)

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_generating_function_identity_above_cache(self, n):
        # every coefficient of a streamed spectrum, at even and odd n
        assert n > CACHE_MAX_N
        for spec in ("const1", "mod:3:1"):
            p = parse_profile(spec, n)
            coeffs = list(weight_spectrum(p).coeffs)
            checks = [(q, u) for q in IDENTITY_PRIMES for u in IDENTITY_POINTS]
            for q, u in checks:
                lhs, rhs = generating_sums(n, coeffs, p.s, u, q)
                assert lhs == rhs, (spec, q, u)
            # q > n divides no C(n, k), so one coefficient off by 1 fails
            coeffs[n // 3] += 1
            for q, u in checks:
                lhs, rhs = generating_sums(n, coeffs, p.s, u, q)
                assert lhs != rhs, (spec, q, u)


class TestRank:
    def test_equality_full_rank(self):
        for n in (3, 6, 9):
            assert weight_spectrum(parse_profile("exact:0", n)).rank == 1 << n

    def test_parity_rank_two(self):
        assert weight_spectrum(parse_profile("parity", 4)).rank == 2

    def test_rank_zero_iff_const0(self):
        for n in (2, 5):
            for i in range(1 << (n + 1)):
                p = SymmetricProfile(n, profile_of_index(n, i))
                assert (weight_spectrum(p).rank == 0) == (i == 0)


class TestParseval:
    def test_exhaustive_small(self):
        for n in range(1, 9):
            for i in range(1 << (n + 1)):
                p = SymmetricProfile(n, profile_of_index(n, i))
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
        assert deterministic_bounds(p, weight_spectrum(p)) == (10, 10)

    def test_const0(self):
        p = parse_profile("const0", 8)
        assert deterministic_bounds(p, weight_spectrum(p)) == (0, 0)

    @pytest.mark.parametrize("n", [3, 8, 17])
    def test_upper_is_engine_content_bits(self, n):
        """The upper bound is the content bits of the engine's run of the
        cheapest always-correct protocol: xor2way and xor1way on a constant
        (nothing sent); parity on parity, and xor2way and xor1way on parity
        and notparity (one bit); fullsend on any other profile (n bits)."""
        rng = np.random.default_rng(n)
        for spec, names in (("const0", ("xor2way", "xor1way")),
                            ("const1", ("xor2way", "xor1way")),
                            ("parity", ("parity", "xor2way", "xor1way")),
                            ("notparity", ("xor2way", "xor1way")),
                            (f"threshold:{n // 2}", ("fullsend",)),
                            ("exact:0", ("fullsend",))):
            p = parse_profile(spec, n)
            upper = deterministic_bounds(p, weight_spectrum(p))[1]
            for name in names:
                pair = weighted_pair(n, int(rng.integers(n + 1)), rng)
                out, t = run_protocol(make_protocol(name, p), pair, p, 0)
                assert out == evaluate_F(p, pair), (spec, n, name)
                assert upper == t.content_bits, (spec, n, name)

    @pytest.mark.parametrize("spec, name", [
        ("const0", "xor2way"), ("const1", "xor2way"), ("parity", "parity"),
        ("notparity", "parity"), ("threshold:4", "fullsend"),
        ("exact:0", "fullsend"), ("mod:3:1", "fullsend")])
    def test_upper_is_charged_at_every_weight(self, spec, name):
        """At n = 8 the upper bound is the content bits the engine charges
        the protocol named for its class, on a pair of every weight: 0
        under xor2way, 1 under parity, n under fullsend."""
        n = 8
        p = parse_profile(spec, n)
        upper = deterministic_bounds(p, weight_spectrum(p))[1]
        assert upper == {"xor2way": 0, "parity": 1, "fullsend": n}[name]
        rng = np.random.default_rng(8)
        for m in range(n + 1):
            pair = weighted_pair(n, m, rng)
            out, t = run_protocol(make_protocol(name, p), pair, p, m)
            assert out == evaluate_F(p, pair), m
            assert t.content_bits == upper, m
