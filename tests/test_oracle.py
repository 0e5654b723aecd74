import math
import tracemalloc

import numpy as np
import pytest
import stream_reference as ref

from xorcomm import _streams, oracle, spectral
from xorcomm.engine import (mc_error_estimate, run_protocol, run_trials,
                            weighted_pair)
from xorcomm.oracle import (MAX_SAMPLED_SCAN_N, MAX_SCAN_N, TruthTable,
                            all_profiles_matrix, brute_fourier, brute_rank,
                            brute_symmetric_fourier_matrix,
                            exhaustive_lemma_scan, profile_of_index,
                            sampled_lemma_scan, xor_matrix)
from xorcomm.protocols import FullSendProtocol, ParityProtocol, make_protocol
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


def sylvester(n):
    """H[x, w] = (-1)^popcount(x & w) by direct enumeration (reference)."""
    return np.array([[-1 if (x & w).bit_count() & 1 else 1
                      for w in range(1 << n)] for x in range(1 << n)])


@pytest.fixture
def fresh_sylvester():
    # _sylvester caches one n: clear it around a test that swaps its hint
    oracle._sylvester.cache_clear()
    yield
    oracle._sylvester.cache_clear()


def subspace_table(rng, n, k):
    """The indicator of a seeded k-dimensional subspace V of {0,1}^n.  Its
    Fourier transform is |V| times the indicator of V's dual, of size
    2^(n-k), so its XOR matrix has rank 2^(n-k)."""
    span = [0]
    while len(span) < 1 << k:
        v = int(rng.integers(1, 1 << n))
        if v not in span:
            span += [s ^ v for s in span]
    return TruthTable(n, tuple(int(x in span) for x in range(1 << n)))


class TestRankCertificate:
    def test_prime_dividing_determinant(self):
        # f = 1 on {00, 01, 10}: d = (3, 1, 1, -1), so det M = -3, and the
        # rank mod 3 is 3; the certificate reads no prime
        t = TruthTable(2, (1, 1, 1, 0))
        M = xor_matrix(t)
        assert oracle._rank_mod_p(M, 3) == 3
        assert oracle._rank_mod_p(M, 5) == 4
        assert oracle._diagonal_rank(M) == 4
        assert brute_rank(t) == 4

    def test_failed_certificate_reaches_fallback(self, monkeypatch,
                                                 fresh_sylvester):
        calls = []
        fallback = oracle._max_rank_mod_primes

        def spy(M):
            calls.append(M.shape)
            return fallback(M)
        monkeypatch.setattr(oracle, "_max_rank_mod_primes", spy)
        t = profile_matrix("threshold:3", 5)[0]
        assert brute_rank(t) == 22
        assert calls == []
        monkeypatch.setattr(oracle, "_hadamard",
                            lambda n: wrong_hint("swapped", n))
        oracle._sylvester.cache_clear()
        assert oracle._sylvester(5) is None
        assert brute_rank(t) == 22
        assert calls == [(32, 32)]

    def test_inexact_check_reaches_fallback(self, monkeypatch):
        # ncols * max|M| * max|H| reaches 2^53, so M H is refused
        big = 1 << 61
        assert oracle._diagonal_rank(np.full((2, 2), big)) is None
        assert oracle._diagonal_rank(np.full((4, 4), 1 << 51)) is None
        assert oracle._diagonal_rank(np.full((4, 4), (1 << 51) - 1)) == 1
        # with M H refused (H H is not), brute_rank takes the fallback
        t, M = profile_matrix("threshold:3", 5)
        exact_product = oracle._exact_product
        monkeypatch.setattr(oracle, "_exact_product", lambda A, B: (
            exact_product(A, B) if A is B else None))
        assert oracle._diagonal_rank(M) is None
        assert brute_rank(t) == oracle._max_rank_mod_primes(M) == 22

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

    def test_matches_fallback_random_n7_n8(self):
        # random tables are rank-deficient at n = 7 and 8 (ranks 108-233
        # with seed 34), so each fallback reference runs every one of its
        # 15 or 36 primes: about 0.07 s at n = 7 and 0.45 s at n = 8
        rng = np.random.default_rng(34)
        for n in (7, 8):
            for _ in range(2):
                t = TruthTable(n, tuple(rng.integers(0, 2, 1 << n).tolist()))
                assert brute_rank(t) == oracle._max_rank_mod_primes(
                    xor_matrix(t))

    @pytest.mark.parametrize("n, k", [(7, 3), (8, 2)])
    def test_planted_subspace(self, n, k):
        t = subspace_table(np.random.default_rng(n), n, k)
        want = 1 << (n - k)
        assert brute_rank(t) == want
        assert oracle._max_rank_mod_primes(xor_matrix(t)) == want

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


# full rank: threshold:2 at 4, mod:3:0 at 5; singular: const0, const1,
# parity, mod:3:1, and threshold:1 and threshold:3 at 5 (ranks 22)
NONSINGULAR = [("threshold:2", 4), ("mod:3:0", 5)]
SINGULAR = [("const0", 4), ("const1", 4), ("parity", 4), ("const0", 5),
            ("const1", 5), ("parity", 5), ("mod:3:1", 5), ("threshold:1", 5),
            ("threshold:3", 5)]


def profile_matrix(name, n):
    t = TruthTable.from_profile(parse_profile(name, n))
    return t, xor_matrix(t)


def wrong_hint(hint, n):
    """A wrong stand-in for the Sylvester matrix of order 2^n.  "scaled",
    D H D^-1 with D = diag(2, 1, ..., 1), has H H = 2^n I, but entries 2 and
    1/2, and only +-1 entries are taken.  Only "nearby", D H D for a random
    +-1 diagonal D, passes both; the check M H = H diag(d) is left to turn
    it down."""
    H = sylvester(n).astype(np.float64)
    m = 1 << n
    rng = np.random.default_rng(3)
    if hint == "identity":
        return np.eye(m)
    if hint == "zeros":
        return np.zeros((m, m))
    if hint == "perturbed":
        return H + 1
    if hint == "random":
        return rng.choice([-1.0, 1.0], size=(m, m))
    if hint == "negated":
        H[m - 1, m - 1] *= -1
        return H
    if hint == "swapped":
        return H[[1, 0, *range(2, m)]]
    if hint == "scaled":
        H[0] *= 2
        H[:, 0] /= 2
        return H
    D = rng.choice([-1.0, 1.0], size=m)
    return D[:, None] * H * D


HINTS = ("perturbed", "identity", "zeros", "random", "negated", "swapped",
         "scaled", "nearby")


class TestNonsingular:
    # the certificate M H = H diag(d) proves M nonsingular exactly when
    # every d[w] is nonzero, and otherwise gives its rank
    def test_full_rank_iff_certified(self):
        # every profile at n <= 6: 252 matrices, 154 of them full rank
        for n in range(1, 7):
            for p in symmetric_profiles(n):
                M = xor_matrix(TruthTable.from_profile(p))
                rank = oracle._diagonal_rank(M)
                assert rank is not None, p
                assert rank == oracle._max_rank_mod_primes(M), p

    @pytest.mark.parametrize("name, n", SINGULAR)
    def test_singular_refused(self, name, n):
        _, M = profile_matrix(name, n)
        rank = oracle._diagonal_rank(M)
        assert rank == oracle._max_rank_mod_primes(M) < 1 << n

    @pytest.mark.parametrize("hint, name, n", [
        (hint, name, n) for hint in HINTS for name, n in NONSINGULAR + SINGULAR])
    def test_wrong_hint_never_certifies(self, monkeypatch, fresh_sylvester,
                                        hint, name, n):
        t, M = profile_matrix(name, n)
        want = oracle._max_rank_mod_primes(M)
        monkeypatch.setattr(oracle, "_hadamard",
                            lambda k: wrong_hint(hint, k))
        assert (oracle._sylvester(n) is None) == (hint != "nearby")
        assert oracle._diagonal_rank(M) in (None, want)
        assert brute_rank(t) == want

    def test_entries_near_2_61_refused(self):
        # det -1, but float64 rounds 2^61 + 1 to 2^61
        c = (1 << 61) + 1
        assert oracle._diagonal_rank(
            np.array([[c, 1], [1, 0]], dtype=np.int64)) is None
        # singular, rows (2, 3) and q (2, 3); rounded to float64, they are
        # not parallel
        q = 23312007253771414
        assert oracle._diagonal_rank(
            np.array([[2, 3], [2 * q, 3 * q]], dtype=np.int64)) is None

    def test_guard_refuses_inexact_product(self):
        # M is the XOR matrix of g, less 1 at [7, 1], so M H != H diag(d)
        # for every d.  Each row of M H summed left to right in float64
        # passes the check anyway, as the sums pass 2^53.  Every entry is
        # below 2^53, so only the guard 8 * max|M| * max|H| < 2^53 refuses
        # it.
        g = [2403861164107072, 8690505974642024, 8751358727149336,
             1792776798887208, 3921638162194936, 8820099336727280,
             5143911099889480, 8392863098415344]
        M = [[g[x ^ y] for y in range(8)] for x in range(8)]
        M[7][1] -= 1
        H = sylvester(3).tolist()
        exact = [[sum(M[i][x] * H[x][w] for x in range(8)) for w in range(8)]
                 for i in range(8)]
        assert exact[7] != [h * d for h, d in zip(H[7], exact[0])]
        rounded = []
        for row in M:
            sums = []
            for w in range(8):
                s = 0.0
                for x in range(8):
                    s += float(row[x]) * H[x][w]
                sums.append(s)
            rounded.append(sums)
        assert all(rounded[i] == [h * d for h, d in zip(H[i], rounded[0])]
                   for i in range(8))
        assert oracle._diagonal_rank(np.array(M, dtype=np.int64)) is None

    def test_check_takes_no_full_size_temporary(self, fresh_sylvester):
        # at n = 9 a 2^n x 2^n float64 matrix is 2 MB: beyond M and H, the
        # check holds P = M H and a bool matrix an eighth of its size, a
        # traced peak of 1.16 times M's 2 MB; H * d took a second 2 MB, a
        # peak of 2.13 times
        _, M = profile_matrix("threshold:3", 9)
        oracle._sylvester(9)
        tracemalloc.start()
        try:
            rank = oracle._diagonal_rank(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == weight_spectrum(parse_profile("threshold:3", 9)).rank
        assert peak < 1.5 * M.nbytes

    def test_sylvester_is_checked_and_read_only(self, fresh_sylvester):
        for n in range(6):
            H = oracle._sylvester(n)
            assert np.array_equal(H, sylvester(n))
            assert H is oracle._sylvester(n)
            assert not H.flags.writeable

    def test_brute_rank_skips_elimination_at_full_rank(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a full-rank matrix was eliminated")
        monkeypatch.setattr(oracle, "_max_rank_mod_primes", forbidden)
        monkeypatch.setattr(oracle, "_rref_mod_p", forbidden)
        for name, n in NONSINGULAR:
            assert brute_rank(profile_matrix(name, n)[0]) == 1 << n

    def test_no_profile_reaches_elimination(self, monkeypatch):
        # all 1,020 profiles at n <= 8, one brute_rank each
        def forbidden(*args):
            raise AssertionError("a profile's rank took an elimination")
        monkeypatch.setattr(oracle, "_max_rank_mod_primes", forbidden)
        monkeypatch.setattr(oracle, "_rref_mod_p", forbidden)
        for n in range(1, oracle.MAX_RANK_N + 1):
            for p in symmetric_profiles(n):
                brute_rank(TruthTable.from_profile(p))


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


def reference_scan_rows(seed, n, samples):
    """The first `samples` candidates of the sampled scan that are not
    2-periodic, from tests/stream_reference.py (reference only)."""
    accepted, i = [], 0
    while len(accepted) < samples:
        row = ref.profile_bits(seed, n, i)
        if row[2:] != row[:-2]:
            accepted.append(row)
        i += 1
    return accepted


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

    def test_sampled_counts_planted_violation_style(self, monkeypatch):
        # With window rows (1, 1, 0, 0, 0), the planted "violations" are the
        # accepted rows with s[0] = s[1] = 0: the scan counts exactly the
        # reference's, among the first 500 nontrivial candidates at n = 4.
        n, samples, seed = 4, 500, 1
        fake = ((1, 1, 0, 0, 0),) * (n + 1)
        monkeypatch.setattr(oracle, "krawtchouk_matrix", lambda m: fake)
        want = sum(s[0] == s[1] == 0
                   for s in reference_scan_rows(seed, n, samples))
        assert 0 < want < samples
        assert sampled_lemma_scan(n, samples, seed) == want

    def test_sampled_cap(self):
        with pytest.raises(ValueError):
            sampled_lemma_scan(MAX_SAMPLED_SCAN_N + 1, 1, seed=1)

    # 2.5 died inside numpy with a TypeError, and -5 returned 0, as if it
    # had checked something
    @pytest.mark.parametrize("samples", [
        pytest.param(2.5, id="float"), pytest.param(True, id="bool"),
        pytest.param("5", id="str"), pytest.param(None, id="none"),
        pytest.param(-5, id="negative"), pytest.param(0, id="zero"),
        pytest.param(oracle.MAX_SAMPLES + 1, id="above-limit")])
    def test_sampled_refuses_bad_samples(self, samples):
        with pytest.raises(ValueError):
            sampled_lemma_scan(8, samples, seed=1)

    def test_sampled_limit_runs(self, monkeypatch):
        # the limit itself is accepted, one more refused
        monkeypatch.setattr(oracle, "MAX_SAMPLES", 500)
        assert sampled_lemma_scan(2, 500, seed=1) == 0
        with pytest.raises(ValueError):
            sampled_lemma_scan(2, 501, seed=1)

    def test_sampled_refuses_candidates_past_the_last_trial(self,
                                                            monkeypatch):
        # with the trial limit at 300 and one candidate a batch, the 300
        # candidates at n = 4 hold more than 200 nontrivial ones but fewer
        # than 300: the draw past them is refused, never wrapped to trial 0
        monkeypatch.setattr(_streams, "_MAX_TRIALS", 300)
        monkeypatch.setattr(oracle, "_SCAN_BATCH", 1)
        assert sampled_lemma_scan(4, 200, seed=2) == 0
        with pytest.raises(ValueError, match=r"2\^31"):
            sampled_lemma_scan(4, 300, seed=2)

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
        trivial = {(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0)}
        accepted, i = [], 0
        while len(accepted) < samples:
            s = tuple(ref.profile_bits(seed, n, i))
            if s not in trivial:
                accepted.append(s)
            i += 1
        want = sum(s[0] == 0 for s in accepted)
        assert 0 < want < samples
        assert sampled_lemma_scan(n, samples, seed) == want

    def test_sampled_rechecks_every_suspect_in_draw_order(self, monkeypatch):
        # zero column fingerprints make every drawn row a suspect, so the
        # exact recheck sees exactly the accepted rows, in draw order, the
        # same at each batch size
        n, samples, seed = 6, 5000, 4
        monkeypatch.setattr(oracle, "_column_fingerprints",
                            lambda rows, m, p: [0] * (m + 1))
        seen = []

        def record(rows, ones, target):
            seen.append(ones)
            return False
        monkeypatch.setattr(oracle, "_window_equals", record)
        accepted = reference_scan_rows(seed, n, samples)
        for batch in (1, 7, 4096):
            monkeypatch.setattr(oracle, "_SCAN_BATCH", batch)
            seen.clear()
            assert sampled_lemma_scan(n, samples, seed) == 0
            assert len(seen) == samples
            assert seen == [[t for t, b in enumerate(row) if b]
                            for row in accepted], batch


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
        # weighted_pair builds its pair unchecked; the reference's pair, the
        # input of trial t in the cell seeded 3, pins the stream and the
        # bits
        for t, m in enumerate((0, 1, 7, 16)):
            pair = weighted_pair(16, m, 3, trial=t)
            assert pair.xor_weight() == m
            for bits in (pair.x, pair.y):
                assert bits.dtype == np.uint8 and bits.shape == (16,)
                assert set(bits.tolist()) <= {0, 1}
                with pytest.raises(ValueError):
                    bits[0] = 0
            assert int(np.count_nonzero(pair.x ^ pair.y)) == m
            x, y = ref.pair(16, m, 3, t)
            assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y)

    @pytest.mark.parametrize("name, spec, n, m", [
        ("xor2way", "threshold:3", 40, 5), ("ham", "threshold:2", 64, 3),
        ("xor1way", "mod:3:1", 48, 7)])
    @pytest.mark.parametrize("seed", [0, 9, (2, 2 ** 40)])
    def test_weighted_pair_replays_run_trials(self, name, spec, n, m, seed):
        # run_protocol on weighted_pair(n, m, seed) is the first row of
        # run_trials(..., m, 1, seed): the same input and the same tape
        profile = parse_profile(spec, n)
        proto = make_protocol(name, profile)
        out, transcript = run_protocol(proto, weighted_pair(n, m, seed),
                                       profile, seed)
        (want_out, truth, want_transcript), = run_trials(proto, profile, m,
                                                         1, seed)
        assert (out, transcript) == (want_out, want_transcript)

    @pytest.mark.parametrize("trial", [
        -1, 2 ** 31, 2 ** 70, 1.5, True, "1", None, np.array([0, 1])])
    def test_weighted_pair_refuses_trial(self, trial):
        # refused as RandomTape refuses a trial, and an array of trials too
        with pytest.raises(ValueError):
            weighted_pair(8, 2, 0, trial=trial)

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
