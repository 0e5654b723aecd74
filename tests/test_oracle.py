import hashlib
import math

import numpy as np
import pytest

from xorcomm import oracle, spectral
from xorcomm.engine import mc_error_estimate, weighted_pair
from xorcomm.oracle import (MAX_SAMPLED_SCAN_N, MAX_SCAN_N, TruthTable,
                            all_profiles_matrix, brute_fourier, brute_rank,
                            brute_symmetric_fourier_matrix,
                            exhaustive_lemma_scan, profile_of_index,
                            sampled_lemma_scan, xor_matrix)
from xorcomm.protocols import FullSendProtocol, ParityProtocol
from xorcomm.spectral import weight_spectrum
from xorcomm.symfun import (SymmetricProfile, TrivialClass, classify,
                            parse_profile)


def bareiss_rank(M):
    """Fraction-free exact elimination over the integers (reference only)."""
    A = [list(map(int, row)) for row in M]
    rows, cols = len(A), len(A[0])
    rank, prev = 0, 1
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                A[i][j] = (A[rank][col] * A[i][j] - A[i][col] * A[rank][j]) // prev
            A[i][col] = 0
        prev = A[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


def reference_rref_mod_p(M, p):
    """The retired elimination (reference only): row echelon form by
    per-pivot int64 row updates with row swaps, then back-substitution to
    the reduced form.  Needs p < 2^31."""
    A = np.mod(M, p).astype(np.int64)
    m, ncols = A.shape
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = np.nonzero(A[rank:, col])[0]
        if piv.size == 0:
            continue
        i = rank + piv[0]
        if i != rank:
            A[[rank, i]] = A[[i, rank]]
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank, col:] = A[rank, col:] * inv % p
        below = np.nonzero(A[rank + 1:, col])[0] + rank + 1
        if below.size:
            A[below, col:] = (A[below, col:]
                              - np.outer(A[below, col], A[rank, col:])) % p
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    R = A[:rank]
    for i in range(rank - 1, 0, -1):
        above = np.nonzero(R[:i, pivots[i]])[0]
        if above.size:
            R[above] = (R[above] - np.outer(R[above, pivots[i]], R[i])) % p
    return R, pivots


class TestTruthTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruthTable(2, (0, 1, 0))
        with pytest.raises(ValueError):
            TruthTable(17, (0,) * (1 << 17))

    def test_from_profile(self):
        t = TruthTable.from_profile(parse_profile("parity", 3))
        assert t.values == tuple(bin(x).count("1") % 2 for x in range(8))


class TestBruteFourier:
    def test_const0(self):
        t = TruthTable(3, (0,) * 8)
        assert brute_fourier(t, (1, 0, 1)) == 0

    def test_w_zero_counts_ones(self):
        t = TruthTable(3, (1, 0, 1, 1, 0, 0, 1, 0))
        assert brute_fourier(t, (0, 0, 0)) == 4

    def test_parity_n2(self):
        t = TruthTable.from_profile(parse_profile("parity", 2))
        assert brute_fourier(t, (1, 1)) == -2

    def test_w_length_checked(self):
        t = TruthTable(2, (0, 1, 1, 0))
        with pytest.raises(ValueError):
            brute_fourier(t, (1, 0, 0))

    def test_matrix_matches_scalar(self):
        n = 5
        B = brute_symmetric_fourier_matrix(n)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = tuple(int(b) for b in rng.integers(0, 2, n + 1))
            p = SymmetricProfile(n, s)
            t = TruthTable.from_profile(p)
            for k in range(n + 1):
                w = tuple(1 if i < k else 0 for i in range(n))
                assert brute_fourier(t, w) == sum(
                    B[k][q] for q in range(n + 1) if s[q])


class TestBruteRank:
    def test_equality_identity(self):
        t = TruthTable.from_profile(parse_profile("exact:0", 5))
        assert brute_rank(t) == 32

    def test_const1(self):
        t = TruthTable.from_profile(parse_profile("const1", 5))
        assert brute_rank(t) == 1

    def test_parity_n4(self):
        t = TruthTable.from_profile(parse_profile("parity", 4))
        assert brute_rank(t) == 2

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_rank(TruthTable(11, (0,) * (1 << 11)))

    def test_matches_bareiss_small(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for _ in range(8):
                vals = tuple(int(b) for b in rng.integers(0, 2, 1 << n))
                t = TruthTable(n, vals)
                assert brute_rank(t) == bareiss_rank(xor_matrix(t))


def symmetric_profiles(n):
    for i in range(1 << (n + 1)):
        yield SymmetricProfile(n, profile_of_index(n, i))


class TestReversalPairs:
    def test_reversed_matrix_is_row_permutation(self):
        # the identity paired_brute_ranks rests on, at every n the rank
        # suite accepts: M_s' is M_s with rows x -> x xor 1^n
        for n in range(1, oracle.MAX_RANK_N + 1):
            flipped = np.arange(1 << n) ^ ((1 << n) - 1)
            for p in symmetric_profiles(n):
                rev = SymmetricProfile(n, p.s[::-1])
                M = xor_matrix(TruthTable.from_profile(p))
                assert np.array_equal(
                    xor_matrix(TruthTable.from_profile(rev)), M[flipped])

    def test_matches_one_rank_per_profile(self):
        for n in range(1, 6):
            assert oracle.paired_brute_ranks(n) == [
                brute_rank(TruthTable.from_profile(p))
                for p in symmetric_profiles(n)]

    def test_one_elimination_per_pair(self, monkeypatch):
        # a stand-in rank that numbers its calls and logs their tables
        calls = []

        def numbered(table):
            calls.append(table.values)
            return len(calls) - 1

        monkeypatch.setattr(oracle, "brute_rank", numbered)
        for n in range(1, oracle.MAX_RANK_N + 1):
            calls.clear()
            ranks = oracle.paired_brute_ranks(n)
            palindromes = 1 << ((n + 2) // 2)  # 2^ceil((n+1)/2)
            assert len(calls) == ((1 << (n + 1)) + palindromes) // 2
            for p, call in zip(symmetric_profiles(n), ranks):
                rev = SymmetricProfile(n, p.s[::-1])
                assert calls[call] in (TruthTable.from_profile(p).values,
                                       TruthTable.from_profile(rev).values)


class TestRankCertificate:
    # det = -3: p = 3 divides it, p = 5 does not
    M = np.array([[1, 1], [1, -2]], dtype=np.int64)

    def test_prime_dividing_determinant(self):
        assert oracle._kernel_certificate(self.M, 3) is None
        assert oracle._kernel_certificate(self.M, 5) == 2

    def test_unlucky_prime_reaches_fallback(self, monkeypatch):
        calls = []
        fallback = oracle._max_rank_mod_primes

        def spy(M):
            calls.append(M.shape)
            return fallback(M)
        monkeypatch.setattr(oracle, "_max_rank_mod_primes", spy)
        assert oracle._exact_rank(self.M, 3) == 2
        assert calls == [(2, 2)]
        calls.clear()
        assert oracle._exact_rank(self.M, 5) == 2
        assert calls == []

    def test_inexact_check_reaches_fallback(self):
        # ncols * max|M| * max|V| reaches 2^53, so the M V check is refused
        # and the fallback primes give the rank
        big = 1 << 61
        p = oracle._primes_above(oracle._RANK_PRIMES, 1)[0]
        M = np.full((2, 2), big)
        assert oracle._kernel_certificate(M, p) is None
        assert oracle._exact_rank(M, p) == 1
        # mod p both columns agree, over Q the kernel is not (-1, 1)
        M = np.array([[big, big + p]], dtype=np.int64)
        assert oracle._kernel_certificate(M, p) is None
        assert oracle._exact_rank(M, p) == 1
        # kernel vector (-1/q1, -1/q2, -1/q3, 1): each q is below the lift
        # bound isqrt(p/2) = 1448, and the lcm q1*q2*q3 >= 2^31 is refused
        q1, q2, q3 = 1291, 1297, 1301
        M = np.array([[q1, 0, 0, 1], [0, q2, 0, 1], [0, 0, q3, 1]])
        assert oracle._kernel_certificate(M, p) is None
        assert oracle._exact_rank(M, p) == 3

    def test_exact_product_guard_boundary(self):
        # ncols * max|M| * max|V| exactly 2^53 is refused, one below it is
        # computed, and exactly
        V = np.ones((2, 1))
        assert oracle._exact_product(np.full((1, 2), 1 << 52), V) is None
        top = (1 << 53) - 1
        assert oracle._exact_product(np.array([[top]]),
                                     np.ones((1, 1))).tolist() == [[top]]
        q = top // 3  # bound 3q = 2^53 - 2
        M = np.array([[q, -q, q]])
        assert oracle._exact_product(M, np.ones((3, 1))).tolist() == [[q]]
        assert oracle._exact_product(M, np.full((3, 1), 2)) is None
        for bad in (np.nan, np.inf, -np.inf):
            assert oracle._exact_product(np.array([[1.0, bad]]), V) is None
            assert oracle._exact_product(np.ones((1, 2)),
                                         np.array([[1.0], [bad]])) is None

    def test_lift_failure_reaches_fallback(self, monkeypatch):
        # the reduced echelon form holds +-1/2, above the lift bound
        # isqrt(7 / 2) = 1, so the kernel is not lifted and the fallback
        # primes give the rank
        M = np.array([[1, 0, 1, 0], [1, 1, 0, 1], [0, 1, 1, 0]])
        lifts = []
        rational_lift = oracle._rational_lift

        def spy(U, p):
            lifts.append(rational_lift(U, p))
            return lifts[-1]
        monkeypatch.setattr(oracle, "_rational_lift", spy)
        assert oracle._kernel_certificate(M, 7) is None
        assert lifts == [None]
        assert oracle._exact_rank(M, 7) == 3

    def test_rational_lift(self):
        p = 101  # bound isqrt(50) = 7
        U = np.array([[0, 1, p - 1], [3 * pow(4, -1, p) % p, 50, 7]])
        a, b = oracle._rational_lift(U, p)
        assert a.tolist() == [[0, 1, -1], [3, -1, 7]]  # 50 = -1/2 mod 101
        assert b.tolist() == [[1, 1, 1], [4, 2, 1]]
        # 10 = a/b would need |a| or b above 7
        assert oracle._rational_lift(np.array([[10 * pow(9, -1, p) % p]]),
                                     p) is None

    def test_primes_found_once(self):
        primes = oracle._primes_above(1 << 22, 3)
        assert isinstance(primes, tuple)
        assert primes is oracle._primes_above(1 << 22, 3)
        assert primes[0] == (1 << 22) + 15 == 4194319
        assert oracle._primes_above(1 << 22, 1) == primes[:1]

    def test_matches_fallback_symmetric(self):
        for n in range(1, 6):
            for p in symmetric_profiles(n):
                t = TruthTable.from_profile(p)
                M = xor_matrix(t)
                assert brute_rank(t) == oracle._max_rank_mod_primes(M), p

    def test_matches_fallback_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = TruthTable(5, tuple(int(b) for b in rng.integers(0, 2, 32)))
            assert brute_rank(t) == oracle._max_rank_mod_primes(xor_matrix(t))

    def test_independent_of_spectral(self, monkeypatch):
        profiles = [*symmetric_profiles(4), *symmetric_profiles(6)]
        want = [weight_spectrum(p).rank for p in profiles]
        assert any(w < 1 << p.n for w, p in zip(want, profiles))
        tables = [TruthTable.from_profile(p) for p in profiles]

        def forbidden(*args, **kwargs):
            raise AssertionError("brute_rank used a spectral formula")
        for name in ("weight_spectrum", "krawtchouk_matrix", "_half_columns",
                     "packed_columns"):
            monkeypatch.setattr(spectral, name, forbidden)
        monkeypatch.setattr(oracle, "krawtchouk_matrix", forbidden)
        assert [brute_rank(t) for t in tables] == want


# full rank: threshold:2 at 4, mod:3:0 at 5; singular, with LAPACK raising
# LinAlgError (const0, const1, parity, mod:3:1) or returning a float
# "inverse" (threshold:1 and threshold:3 at 5, ranks 22)
NONSINGULAR = [("threshold:2", 4), ("mod:3:0", 5)]
SINGULAR = [("const0", 4), ("const1", 4), ("parity", 4), ("const0", 5),
            ("const1", 5), ("parity", 5), ("mod:3:1", 5), ("threshold:1", 5),
            ("threshold:3", 5)]


def profile_matrix(name, n):
    t = TruthTable.from_profile(parse_profile(name, n))
    return t, xor_matrix(t)


class TestNonsingular:
    def test_full_rank_iff_certified(self):
        # every profile at n <= 6: 252 matrices, 154 of them full rank
        for n in range(1, 7):
            for p in symmetric_profiles(n):
                M = xor_matrix(TruthTable.from_profile(p))
                assert oracle._nonsingular(M) == (
                    oracle._max_rank_mod_primes(M) == 1 << n), p

    @pytest.mark.parametrize("name, n", SINGULAR)
    def test_singular_refused(self, name, n):
        _, M = profile_matrix(name, n)
        assert oracle._nonsingular(M) is False

    # "nearby", the inverse of M + 2^-10 I, is a valid hint for a
    # nonsingular M, so it is tried on the singular ones only
    @pytest.mark.parametrize("hint, name, n", [
        (hint, name, n)
        for hint in ("perturbed", "identity", "zeros", "random")
        for name, n in NONSINGULAR + SINGULAR] + [
        ("nearby", name, n) for name, n in SINGULAR])
    def test_wrong_hint_never_certifies(self, monkeypatch, hint, name, n):
        t, M = profile_matrix(name, n)
        want = oracle._max_rank_mod_primes(M)
        rng = np.random.default_rng(3)
        pinv = np.linalg.pinv

        def inv(F):
            if hint == "identity":
                return np.eye(len(F))
            if hint == "zeros":
                return np.zeros_like(F)
            if hint == "nearby":
                return pinv(F + np.ldexp(np.eye(len(F)), -10))
            if hint == "random":
                return rng.normal(size=F.shape)
            # M (R + J) = I + M J, and each row of M holds a 1
            return pinv(F) + 1.0
        monkeypatch.setattr(oracle.np.linalg, "inv", inv)
        assert oracle._nonsingular(M) is False
        assert brute_rank(t) == want

    def test_linalg_error_refused(self, monkeypatch):
        t, M = profile_matrix(*NONSINGULAR[0])

        def inv(F):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(oracle.np.linalg, "inv", inv)
        assert oracle._nonsingular(M) is False
        assert brute_rank(t) == 16

    def test_row_sum_bound_is_strict(self, monkeypatch):
        # the singular all-ones M = J at m = 2 (s = 6) with the hint I / 2:
        # E = 32 J - 64 I, each row sum exactly 2^s
        M = np.ones((2, 2), dtype=np.int64)
        monkeypatch.setattr(oracle.np.linalg, "inv", lambda F: np.eye(2) / 2)
        assert oracle._nonsingular(M) is False

    def test_entries_near_2_61_refused(self):
        # det -1, but float64 rounds 2^61 + 1 to 2^61
        c = (1 << 61) + 1
        assert oracle._nonsingular(
            np.array([[c, 1], [1, 0]], dtype=np.int64)) is False
        # singular, rows (2, 3) and q (2, 3); rounded to float64, they are
        # not parallel
        q = 23312007253771414
        assert oracle._nonsingular(
            np.array([[2, 3], [2 * q, 3 * q]], dtype=np.int64)) is False

    def test_guard_refuses_inexact_product(self, monkeypatch):
        # M = diag(A, I) is singular: A's rows are (a, b) and 3 (a, b).  The
        # hint Z = diag(ZA, 2^8 I) has A ZA = [[25, 74], [75, 222]] exactly,
        # from terms near 2^60; summed in float64 they round to a product
        # that passes the row-sum test.  Every entry is below 2^53, so
        # only the guard m * max|M| * max|Z| < 2^53 refuses it.
        a, b = 665921401, 678131111
        ZA = [[1791764644, -12924564], [-1759504029, 12691858]]
        A = [[a, b], [3 * a, 3 * b]]
        exact = [[sum(A[i][k] * ZA[k][j] for k in range(2)) for j in range(2)]
                 for i in range(2)]
        assert exact == [[25, 74], [75, 222]]
        rounded = [[float(A[i][0]) * ZA[0][j] + float(A[i][1]) * ZA[1][j]
                    for j in range(2)] for i in range(2)]
        shift = 1 << 8  # s = 2 * m.bit_length() + 2 at m = 4
        assert max(abs(rounded[i][0] - shift * (i == 0))
                   + abs(rounded[i][1] - shift * (i == 1))
                   for i in range(2)) < shift
        M = np.eye(4, dtype=np.int64)
        M[:2, :2] = A
        Z = np.eye(4) * shift
        Z[:2, :2] = ZA
        monkeypatch.setattr(oracle.np.linalg, "inv", lambda F: Z / shift)
        assert oracle._nonsingular(M) is False

    def test_brute_rank_skips_elimination_at_full_rank(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a full-rank matrix was eliminated")
        monkeypatch.setattr(oracle, "_exact_rank", forbidden)
        for name, n in NONSINGULAR:
            assert brute_rank(profile_matrix(name, n)[0]) == 1 << n


RANK_P = oracle._primes_above(oracle._RANK_PRIMES, 1)[0]
BLOCK = oracle._PANEL


def matrix_of_rank(rng, m, ncols, rank):
    """A seeded m x ncols integer matrix, of the given rank over Q."""
    return (rng.integers(-40, 40, size=(m, rank))
            @ rng.integers(-40, 40, size=(rank, ncols)))


def assert_rref_matches(M, p=RANK_P):
    R, pivots = oracle._rref_mod_p(M, p)
    want_R, want_pivots = reference_rref_mod_p(M, p)
    assert pivots == want_pivots
    assert R.dtype == np.int64
    assert np.array_equal(R, want_R)
    return R, pivots


class TestRrefModP:
    @pytest.mark.parametrize("ncols", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                       3 * BLOCK + 5])
    @pytest.mark.parametrize("shape", ["wide", "square", "tall"])
    def test_matches_reference(self, ncols, shape):
        m = {"wide": ncols // 2 + 1, "square": ncols,
             "tall": 2 * ncols + 3}[shape]
        rng = np.random.default_rng(ncols * 10 + len(shape))
        full = min(m, ncols)
        for rank in sorted({0, full // 2, full}):
            _, pivots = assert_rref_matches(matrix_of_rank(rng, m, ncols,
                                                           rank))
            assert len(pivots) == rank

    def test_one_by_one(self):
        for v in (0, 1, -1, 7, RANK_P, RANK_P + 3, -(1 << 60)):
            assert_rref_matches(np.array([[v]], dtype=np.int64))

    def test_pivot_only_in_last_free_row(self):
        # U upside down: at each column the one free row with a nonzero
        # entry is the last one, across panel boundaries
        rng = np.random.default_rng(3)
        n = 3 * BLOCK + 5
        U = np.triu(rng.integers(-9, 9, size=(n, n)))
        np.fill_diagonal(U, rng.integers(1, 9, size=n))
        R, pivots = assert_rref_matches(U[::-1])
        assert pivots == list(range(n))
        assert np.array_equal(R, np.eye(n, dtype=np.int64))
        # a zero column and a dependent row keep it rank-deficient
        M = U[::-1].copy()
        M[:, BLOCK + 2] = 0
        M[0] = 3 * M[1] - M[2]
        assert_rref_matches(M)

    def test_multiples_of_p_never_pivot(self):
        # rows that are multiples of one row mod p, with multipliers near p:
        # each eliminated entry is a float multiple of p up to BLOCK (p-1)^2
        # in size, and none of them may become a pivot
        p = RANK_P
        rng = np.random.default_rng(4)
        u = rng.integers(p - 1000, p, size=BLOCK + 9)
        v = rng.integers(p - 1000, p, size=3 * BLOCK + 5)
        for rows in (np.outer(u, v) % p, np.outer(u, v)):
            R, pivots = assert_rref_matches(rows, p)
            assert pivots == [0]
            assert R.tolist() == [[x * pow(int(v[0]), -1, p) % p
                                   for x in v.tolist()]]

    @pytest.mark.parametrize("p", [3, 5, 103, 1000003, RANK_P])
    def test_reduce_multiples_of_p_near_limit(self, p):
        # floor(X / p) through the rounded 1/p is one off for some of
        # these: one too high near the top at p = 3, 5 and 1000003, one
        # too low at 2p for p = 103.  The result must still be exactly
        # X mod p, so 0 at every multiple of p.
        top = ((1 << 53) - 2 * p) // p - 1
        rng = np.random.default_rng(5)
        twos = [1 << j for j in range(top.bit_length())]
        ks = [top, top - 1, -top, -top + 1, 0, *twos, *(-k for k in twos),
              *rng.integers(top // 2, top, size=400).tolist(),
              *rng.integers(-top, -top // 2, size=400).tolist()]
        values = [k * p + d for k in ks for d in (-1, 0, 1, p - 1)]
        X = np.array(values, dtype=np.float64)
        assert X.tolist() == values  # every value is an exact float
        oracle._reduce(X, p, np.empty_like(X))
        assert X.tolist() == [x % p for x in values]

    def test_prime_too_large_refused(self):
        # 2 * BLOCK * (p-1)^2 must stay below 2^53
        with pytest.raises(ValueError):
            oracle._rref_mod_p(np.eye(2, dtype=np.int64), (1 << 30) + 3)

    def test_rank_mod_p(self):
        rng = np.random.default_rng(6)
        M = matrix_of_rank(rng, 50, 90, 23)
        assert oracle._rank_mod_p(M, RANK_P) == 23


class TestFallbackPrimes:
    @pytest.mark.parametrize("n", range(10))
    def test_product_exceeds_determinant_bound(self, monkeypatch, n):
        # an m x m 0/1 determinant is at most (m+1)^((m+1)/2) / 2^m; the
        # primes the fallback tries must multiply to more than that, so
        # that not all of them divide a nonzero maximal minor
        m = 1 << n
        used = []

        def record(M, p):
            used.append(p)
            return 0  # never full rank, so every prime is tried
        monkeypatch.setattr(oracle, "_rank_mod_p", record)
        assert oracle._max_rank_mod_primes(np.zeros((m, m))) == 0
        assert len(set(used)) == len(used) and min(used) > 1 << 22
        need = (m + 1) ** (m + 1)  # the bound squared, times 4^m
        assert math.prod(used) ** 2 * 4 ** m > need
        # and no prime more than needed
        assert math.prod(used[:-1]) ** 2 * 4 ** m <= need


class TestScans:
    def test_profile_matrix_and_trivial_rows(self):
        n = 3
        P = all_profiles_matrix(n)
        profiles = [SymmetricProfile(n, profile_of_index(n, i))
                    for i in range(len(P))]
        assert [p.s for p in profiles] == [tuple(row) for row in P.tolist()]
        trivial = {p.s: classify(p) for p in profiles
                   if classify(p) is not TrivialClass.NONTRIVIAL}
        assert trivial == {(0, 0, 0, 0): TrivialClass.CONST0,
                           (1, 1, 1, 1): TrivialClass.CONST1,
                           (0, 1, 0, 1): TrivialClass.PARITY,
                           (1, 0, 1, 0): TrivialClass.NOTPARITY}

    def test_exhaustive_small_runs(self):
        # execution contract: the list is reported as-is
        violations = exhaustive_lemma_scan(2)
        for v in violations:
            assert v.n == 2

    def test_exhaustive_excludes_trivial(self):
        # parity has empty window support but is never reported
        violations = exhaustive_lemma_scan(8)
        parity = parse_profile("parity", 8)
        assert parity not in violations

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            exhaustive_lemma_scan(MAX_SCAN_N + 1)

    def test_sampled_deterministic(self):
        a = sampled_lemma_scan(40, 2000, seed=5)
        b = sampled_lemma_scan(40, 2000, seed=5)
        assert a == b

    def test_sampled_counts_planted_violation_style(self):
        # sanity: at tiny n random nontrivial profiles exist and scan runs
        assert sampled_lemma_scan(4, 500, seed=1) >= 0

    def test_sampled_cap(self):
        with pytest.raises(ValueError):
            sampled_lemma_scan(MAX_SAMPLED_SCAN_N + 1, 1, seed=1)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_sampled_refuses_n_without_nontrivial_profiles(self, n):
        # every profile at n <= 1 is trivial: rejection sampling never ends
        with pytest.raises(ValueError):
            sampled_lemma_scan(n, 5, seed=1)

    def test_sampled_accepts_same_rows_as_tuple_rejection(self, monkeypatch):
        # With window rows (1, 0, 0, 0), a row "violates" iff s[0] = 0, so
        # the count depends on which rows were accepted.  The reference is
        # the earlier loop, which rejected trivial rows by tuple lookup.
        n, samples, seed = 3, 3000, 9
        fake = ((1, 0, 0, 0),) * (n + 1)
        monkeypatch.setattr(oracle, "krawtchouk_matrix", lambda m: fake)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        trivial = {(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0)}
        accepted = []
        while len(accepted) < samples:
            take = min(4096, 4 * (samples - len(accepted)) + 16)
            P = rng.integers(0, 2, size=(take, n + 1), dtype=np.int64)
            keep = [tuple(int(b) for b in row) for row in P]
            keep = [s for s in keep if s not in trivial]
            accepted += keep[:samples - len(accepted)]
        want = sum(s[0] == 0 for s in accepted)
        assert 0 < want < samples
        assert sampled_lemma_scan(n, samples, seed) == want

    def test_sampled_rechecks_every_suspect_in_draw_order(self, monkeypatch):
        # zero column fingerprints make every drawn row a suspect, so the
        # exact recheck sees exactly the accepted rows, in draw order
        n, samples, seed = 6, 5000, 4
        monkeypatch.setattr(oracle, "_column_fingerprints",
                            lambda rows, m, p: [0] * (m + 1))
        seen = []

        def record(rows, ones, target):
            seen.append(ones)
            return False
        monkeypatch.setattr(oracle, "_window_equals", record)
        assert sampled_lemma_scan(n, samples, seed) == 0
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        accepted = []
        while len(accepted) < samples:
            take = min(4096, 4 * (samples - len(accepted)) + 16)
            P = rng.integers(0, 2, size=(take, n + 1), dtype=np.int64)
            keep = [row for row in P.tolist() if row[2:] != row[:-2]]
            accepted += keep[:samples - len(accepted)]
        assert len(seen) == samples
        assert seen == [[t for t, b in enumerate(row) if b]
                        for row in accepted]


def window_vector(n, i):
    """Exact window vector of profile index i (reference only)."""
    lo, hi = spectral.window_bounds(n)
    C = spectral.krawtchouk_matrix(n)
    s = profile_of_index(n, i)
    return [sum(C[k][t] for t in range(n + 1) if s[t])
            for k in range(lo, hi + 1)]


def brute_window_matches(n, target):
    """Every profile index with the given window vector, by one int64
    product over all 2^(n+1) profiles (reference only)."""
    lo, hi = spectral.window_bounds(n)
    C = np.array(spectral.krawtchouk_matrix(n), dtype=np.int64)
    window = C[lo:hi + 1]
    W = all_profiles_matrix(n) @ window.T
    return np.flatnonzero(np.all(W == np.array(target, dtype=np.int64)
                                 .reshape(1, -1), axis=1)).tolist()


def product_lemma_scan(n):
    """The retired scan's method without its 2^18-row chunks: every profile
    row times the window rows, 2-periodic (trivial) profiles skipped
    (reference only)."""
    found = (profile_of_index(n, i) for i in
             brute_window_matches(n, [0] * len(window_vector(n, 0))))
    return [SymmetricProfile(n, s) for s in found if s[2:] != s[:-2]]


class TestMeetInTheMiddle:
    @pytest.mark.parametrize("n", [6, 9, 12, 14])
    def test_planted_targets(self, n):
        rng = np.random.default_rng(1000 + n)
        for i in rng.integers(0, 1 << (n + 1), size=4).tolist():
            target = window_vector(n, i)
            got = oracle._window_matches(n, target)
            assert i in got
            assert got == brute_window_matches(n, target)

    def test_zero_target_includes_trivial(self):
        for n in range(0, 15):
            zero = [0] * len(window_vector(n, 0))
            got = oracle._window_matches(n, zero)
            assert got == brute_window_matches(n, zero), f"n={n}"
        # n = 1 has an empty window, so all four (trivial) profiles match
        assert oracle._window_matches(1, []) == [0, 1, 2, 3]
        assert oracle._window_matches(0, [0]) == [0]

    def test_matches_product_reference(self):
        for n in range(0, 17):
            assert exhaustive_lemma_scan(n) == product_lemma_scan(n), f"n={n}"

    def test_no_violation_up_to_cap(self):
        for n in range(17, MAX_SCAN_N + 1):
            assert exhaustive_lemma_scan(n) == [], f"n={n}"

    def test_exact_recheck_removes_collisions(self, monkeypatch):
        # At p = 3, 5 and 7 a pivot bit b - sum a_f s_f is 0 or 1 mod p for
        # many assignments whose bit over Q is not; the output must not
        # change, whatever the prime.  _primes_above(start, 1) is 3, 5 and 7
        # at start 2, 4 and 6.
        n = 9
        targets = [[0] * len(window_vector(n, 0)), window_vector(n, 300)]
        want = [brute_window_matches(n, t) for t in targets]
        equals, rechecked = oracle._window_equals, []

        def record(rows, ones, target):
            rechecked.append(ones)
            return equals(rows, ones, target)
        monkeypatch.setattr(oracle, "_window_equals", record)
        for start in (2, 4, 6):
            monkeypatch.setattr(oracle, "_RANK_PRIMES", start)
            assert [oracle._window_matches(n, t) for t in targets] == want
        # each prime rechecks every true match; any more were false
        assert len(rechecked) > 3 * sum(map(len, want))

    def test_zero_target_is_trivial_past_brute_force(self):
        # past n = 16 the scan itself is checked to find something: the
        # zero window vector has exactly the four 2-periodic profiles
        for n in range(17, MAX_SCAN_N + 1):
            ones = (1 << (n + 1)) - 1
            odd = sum(1 << t for t in range(1, n + 1, 2))  # parity
            zero = [0] * len(window_vector(n, 0))
            assert oracle._window_matches(n, zero) == sorted(
                [0, ones, odd, ones ^ odd]), f"n={n}"

    @pytest.mark.parametrize("n", [20, 30, MAX_SCAN_N])
    def test_planted_targets_past_brute_force(self, n):
        rng = np.random.default_rng(2000 + n)
        for i in rng.integers(0, 1 << (n + 1), size=4).tolist():
            target = window_vector(n, i)
            got = oracle._window_matches(n, target)
            assert i in got
            assert all(window_vector(n, j) == target for j in got)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            oracle._window_matches(8, [0])
        with pytest.raises(ValueError):
            exhaustive_lemma_scan(-1)


class TestMC:
    def test_weighted_pair_exact_weight(self):
        # weighted_pair builds its pair unchecked; these digests of the
        # x + y bytes are those of the checked InputPair(x, y) build, so
        # they pin the stream and the bits
        digests = {0: "3bffb5e34a5c6ff0", 1: "2f55da36c3fba9b4",
                   7: "8afffc7751d5a54c", 16: "3d8cbe69ef607df8"}
        rng = np.random.default_rng(3)
        for m in (0, 1, 7, 16):
            pair = weighted_pair(16, m, rng)
            assert pair.xor_weight() == m
            for bits in (pair.x, pair.y):
                assert bits.dtype == np.uint8 and bits.shape == (16,)
                assert set(bits.tolist()) <= {0, 1}
                with pytest.raises(ValueError):
                    bits[0] = 0
            assert int(np.count_nonzero(pair.x ^ pair.y)) == m
            digest = hashlib.sha256(pair.x.tobytes() + pair.y.tobytes())
            assert digest.hexdigest()[:16] == digests[m]

    def test_parity_protocol_exact(self):
        res = mc_error_estimate(ParityProtocol(), parse_profile("parity", 20),
                                3, 50, seed=0)
        assert res.success_rate == 1.0
        assert res.mean_bits == 2.0  # 1 content bit + 1 answer bit

    def test_fullsend_exact(self):
        res = mc_error_estimate(FullSendProtocol(),
                                parse_profile("exact:0", 12), 4, 25, seed=0)
        assert res.success_rate == 1.0
        assert res.max_bits == 13

    def test_replay_deterministic(self):
        p = parse_profile("threshold:2", 24)
        a = mc_error_estimate(FullSendProtocol(), p, 5, 40, seed=9)
        b = mc_error_estimate(FullSendProtocol(), p, 5, 40, seed=9)
        assert a == b

    def test_weight_range_checked(self):
        with pytest.raises(ValueError):
            mc_error_estimate(ParityProtocol(), parse_profile("parity", 4),
                              5, 1, seed=0)


class TestRankIdentityGeneral:
    def test_nonsymmetric_rank_equals_support(self):
        # rank(M_F) = number of nonzero Fourier coefficients, arbitrary f
        rng = np.random.default_rng(7)
        n = 5
        for _ in range(10):
            vals = tuple(int(b) for b in rng.integers(0, 2, 1 << n))
            t = TruthTable(n, vals)
            support = sum(
                1 for wmask in range(1 << n)
                if brute_fourier(t, tuple((wmask >> i) & 1 for i in range(n))))
            assert brute_rank(t) == support
