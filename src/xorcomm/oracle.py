"""Independent brute-force references.

Everything here recomputes quantities from first principles (direct character
sums, exact matrix rank) so the spectral module and the protocols have
something to be validated against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._np import np
from ._streams import _INPUT, _low_bits, _stream_words, _trial_starts

# The Monte-Carlo trial loop lives in engine.  perfbench/tracer.py still
# binds oracle.weighted_pair and oracle.mc_error_estimate, whose metrics
# BENCHMARK.json declares, so these two re-exports stay until the tracer
# binds the engine names.
from .engine import mc_error_estimate, weighted_pair  # noqa: F401
from .spectral import krawtchouk_matrix, window_bounds
from .symfun import SymmetricProfile, TrivialClass, classify, flip_reduction

MAX_TABLE_N = 16
# verify --suite rank checks all 2^(n+1) profiles at each n, with one rank
# per reversal pair (paired_brute_ranks).  At n = 9 the 528 ranks took
# 4.9 s of wall time and 9.7 s of CPU time in one run on a 2-core host,
# about 9 ms a rank: one 512 x 512 product M H and its check, with H H
# checked once for the n.  Each n doubles the profiles and multiplies a
# product's work by 8.
MAX_RANK_N = 8
# exhaustive_lemma_scan enumerates 2^q assignments, q about n/4: at n = 39,
# q = 10, and a fresh process took 0.14-0.15 s and 30 MB of peak RSS on a
# 2-core x86-64 host.  39 is kept until a limit is measured for it.
MAX_SCAN_N = 39
# sampled_lemma_scan reads krawtchouk_matrix(n), which stays cached: 13.8 MB
# and about 0.03 s to build at n = 512, and its size grows as n^3 bits.
MAX_SAMPLED_SCAN_N = 512
MAX_SAMPLES = 1 << 24  # most samples a scan takes (README gives times)
_SCAN_BATCH = 4096  # candidates drawn a batch; no candidate depends on it


@dataclass(frozen=True)
class TruthTable:
    """General Boolean f on {0,1}^n as a flat 0/1 vector indexed by x."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.n > MAX_TABLE_N:
            raise ValueError(f"truth tables limited to n <= {MAX_TABLE_N}")
        if len(self.values) != 1 << self.n:
            raise ValueError("table length must be 2^n")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("table entries must be 0 or 1")

    @classmethod
    def from_profile(cls, profile: SymmetricProfile) -> "TruthTable":
        n = profile.n
        vals = tuple(profile.s[x.bit_count()] for x in range(1 << n))
        return cls(n=n, values=vals)


def brute_fourier(table: TruthTable, w) -> int:
    """2^n * f~(w) = sum_x (-1)^{x.w} f(x), by direct enumeration."""
    n = table.n
    if len(w) != n:
        raise ValueError(f"w length {len(w)} != n {n}")
    wmask = sum(1 << i for i, b in enumerate(w) if b)
    total = 0
    for x, fx in enumerate(table.values):
        if fx:
            total += -1 if (x & wmask).bit_count() & 1 else 1
    return total


@functools.lru_cache(maxsize=32)
def brute_symmetric_fourier_matrix(n: int) -> np.ndarray:
    """B[k, s] = sum over |x|=s of the sign against w = 1^k 0^{n-k}.

    Direct enumeration over all 2^n points; independent of the Krawtchouk
    formula.  Brute spectrum of profile p is then B @ p.
    """
    if n > MAX_TABLE_N:
        raise ValueError(f"limited to n <= {MAX_TABLE_N}")
    xs = np.arange(1 << n, dtype=np.int64)
    wt = np.bitwise_count(xs)
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    for k in range(n + 1):
        mask = (1 << k) - 1
        signs = np.where(np.bitwise_count(xs & mask) & 1, -1, 1)
        out[k] = np.bincount(wt, weights=signs, minlength=n + 1).astype(np.int64)
    return out


def all_profiles_matrix(n: int) -> np.ndarray:
    """All 2^(n+1) profiles as rows of a 0/1 matrix; row i has s[k] = bit k of i."""
    idx = np.arange(1 << (n + 1), dtype=np.int64)
    return ((idx[:, None] >> np.arange(n + 1)) & 1).astype(np.int64)


def profile_of_index(n: int, i: int) -> tuple[int, ...]:
    """Row i of all_profiles_matrix(n), the profile bits s[k] = bit k of i."""
    return tuple((i >> k) & 1 for k in range(n + 1))


# ---------------------------------------------------------------------------
# Exact rank of the XOR matrix


@functools.lru_cache(maxsize=None)
def _primes_above(start: int, count: int) -> tuple[int, ...]:
    out, cand = [], start | 1
    while len(out) < count:
        if all(cand % d for d in range(3, math.isqrt(cand) + 1, 2)):
            out.append(cand)
        cand += 2
    return tuple(out)


# _rref_mod_p holds integers in float64, exact only below 2^53: between
# reductions an entry takes at most _PANEL row operations of size (p-1)^2.
# Rank primes are taken above _RANK_PRIMES; the first, 4194319, leaves
# p + 2 * _PANEL * (p-1)^2 below 2^51.
_PANEL = 32
_RANK_PRIMES = 1 << 22


def _reduce(X: np.ndarray, p: int, q: np.ndarray) -> None:
    """X mod p in place, for float64 X holding integers of absolute value
    below 2^53 - 2p; q is scratch of X's shape.  floor(X / p) through the
    rounded reciprocal can be one off either way, which leaves X - p*floor
    in -p..2p-1; the two fix-ups bring it into 0..p-1, so a multiple of p
    always becomes 0, never p."""
    np.multiply(X, 1.0 / p, out=q)
    np.floor(q, out=q)
    q *= -p
    X += q
    np.add(X, p, out=X, where=X < 0)
    np.subtract(X, p, out=X, where=X >= p)


def _rref_mod_p(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of the integer matrix M mod the prime p:
    the pivot rows as int64 in 0..p-1, each 1 at its own pivot column and
    0 at every other, and their pivot columns.

    Gauss-Jordan on float64 with delayed reduction (as FFLAS-FFPACK does:
    Dumas, Giorgi & Pernet, ACM TOMS 2008), one panel of _PANEL columns at
    a time.  The panel is copied into a block [panel | Y]; when row s
    becomes the panel's pivot t, Y[s, t] = 1, and every row operation is
    applied to Y too, so Y ends as the columns of the panel's transform at
    its pivot rows S.  Pivot rows are marked, never swapped.  Only the
    pivot column and the pivot row are reduced before use; the rest of the
    block is reduced when the panel ends.  The columns right of the panel
    then take all of its row operations as one product,
    T += (Y - E_S) @ T[S], and one reduction, a chunk of _PANEL columns at
    a time.  Every entry stays an integer below p + _PANEL * (p-1)^2 in
    absolute value, which the check below keeps under 2^53 - 2p, so each
    float operation, the BLAS product included, is exact, and so is
    _reduce.  The work is done on transposes, so that each column is one
    contiguous row.
    """
    if p + 2 * _PANEL * (p - 1) ** 2 >= 1 << 53:
        raise ValueError(f"p = {p} is too large for exact float64 "
                         f"elimination")
    if M.size and (M.min() < 0 or M.max() >= p):  # 0/1 is reduced already
        M = np.mod(M, p)
    AT = M.T.astype(np.float64, order="C")
    ncols, m = AT.shape
    free = np.ones(m, dtype=np.int64)  # 1 at the rows not yet pivots
    rows, pivots = [], []
    block = np.empty((2 * _PANEL, m))
    work = np.empty((2 * _PANEL, m))
    for c0 in range(0, ncols, _PANEL):
        if len(rows) == m:
            break
        w = min(_PANEL, ncols - c0)
        B = block[:2 * w]
        B[:w] = AT[c0:c0 + w]
        B[w:] = 0
        S = []
        for j in range(w):
            if len(rows) + len(S) == m:
                break
            # the pivot column and row are short: int64 % reduces them
            # exactly, in one call each.  A column without a pivot is left
            # for the panel's reduction: later pivots never touch it.
            col = B[j].astype(np.int64)
            col %= p
            score = col * free
            r = int(score.argmax())
            if score[r] == 0:
                continue
            t = len(S)
            # Y's columns right of t are still zero, and the row is zero
            # left of j: its other pivot columns were eliminated in it
            span = slice(j, w + t + 1)
            B[w + t, r] = 1
            row = B[span, r].astype(np.int64)
            row %= p
            row *= pow(int(row[0]), -1, p)
            row %= p
            col[r] = 0  # row r takes no part in its own update
            B[span] -= np.multiply.outer(row, col, out=work[:row.size])
            B[span, r] = row
            S.append(r)
            free[r] = 0
            pivots.append(c0 + j)
        k = len(S)
        _reduce(B[:w + k], p, work[:w + k])
        AT[c0:c0 + w] = B[:w]
        if k:
            Y = B[w:w + k]
            Y[np.arange(k), S] -= 1
            for c in range(c0 + w, ncols, _PANEL):
                T = AT[c:c + _PANEL]
                product = np.matmul(T[:, S], Y, out=work[:T.shape[0]])
                T += product
                _reduce(T, p, product)
        rows += S
    # the pivot rows, copied once, as int64: a panel of columns at a time
    R = np.empty((ncols, len(rows)), dtype=np.int64)
    for c in range(0, ncols, _PANEL):
        R[c:c + _PANEL] = AT[c:c + _PANEL, rows]
    return R.T, pivots


def _rank_mod_p(M: np.ndarray, p: int) -> int:
    return len(_rref_mod_p(M, p)[1])


def xor_matrix(table: TruthTable) -> np.ndarray:
    """[f(x xor y)] as float64, which holds its 0/1 entries exactly; the
    x xor y table is the least unsigned type (uint16 to n = 16)."""
    idx = np.arange(1 << table.n,
                    dtype=np.min_scalar_type((1 << table.n) - 1))
    vals = np.array(table.values, dtype=np.float64)
    return vals[np.bitwise_xor.outer(idx, idx)]


def _exact_product(M: np.ndarray, V: np.ndarray) -> np.ndarray | None:
    """M V on float64 BLAS if ncols * max|M| * max|V| < 2^53, else None.
    For integer M and V every entry and partial sum is then an integer
    below 2^53, exact in any summation order; float64 rounds monotonically,
    so a true bound of 2^53 or more fails, as do NaN and inf (min and max
    both return a NaN).  max|A| is read without an |A| copy."""
    bound = M.shape[1]
    for A in (M, V):
        bound *= max(-float(A.min()), float(A.max()))
    return M @ V if bound < 1 << 53 else None


def _fallback_primes(m: int) -> tuple[int, ...]:
    """The fewest primes above _RANK_PRIMES whose product exceeds
    (m+1)^((m+1)/2) / 2^m, the largest |det| of an m x m 0/1 matrix (its
    +-1 bordering and Hadamard's bound).  Compared exactly, as
    product^2 * 4^m > (m+1)^(m+1)."""
    need = (m + 1) ** (m + 1)
    # each prime exceeds 2^22, so product^2 gains more than 44 bits a prime
    primes = _primes_above(_RANK_PRIMES, need.bit_length() // 44 + 1)
    product = 1
    for count, p in enumerate(primes, 1):
        product *= p
        if product * product << 2 * m > need:
            return primes[:count]
    raise AssertionError("unreachable: the last prime passes")


def _max_rank_mod_primes(M: np.ndarray) -> int:
    """The max of the ranks of a 0/1 matrix modulo _fallback_primes: some
    nonzero maximal minor is at most the 0/1 determinant bound in absolute
    value, so not every one of those primes divides it, and the max is
    exactly the rational rank.
    """
    m = M.shape[0]
    best = 0
    for p in _fallback_primes(m):
        best = max(best, _rank_mod_p(M, p))
        if best == m:
            break
    return best


def _hadamard(n: int) -> np.ndarray:
    """The Sylvester matrix H[x, w] = (-1)^popcount(x & w) of order 2^n, as
    float64, built in place by doubling: H_{k+1} = [[H_k, H_k], [H_k, -H_k]].
    """
    H = np.ones((1 << n, 1 << n))
    for k in range(n):
        m = 1 << k
        H[:m, m:2 * m] = H[:m, :m]
        H[m:2 * m, :m] = H[:m, :m]
        np.negative(H[:m, :m], out=H[m:2 * m, m:2 * m])
    return H


@functools.lru_cache(maxsize=1)
def _sylvester(n: int) -> np.ndarray | None:
    """_hadamard(n), read-only, if it is a +-1 matrix with H H = 2^n I,
    checked exactly (_exact_product); else None.  Cached for one n."""
    H = _hadamard(n)
    if not np.all((H == 1) | (H == -1)):
        return None
    HH = _exact_product(H, H)
    if HH is None:
        return None
    HH[np.diag_indices(1 << n)] -= 1 << n
    if HH.any():
        return None
    H.flags.writeable = False
    return H


def _diagonal_rank(M: np.ndarray) -> int | None:
    """The rank of the integer matrix M, square of order 2^n, if the
    Sylvester matrix H diagonalises it, proved exactly; else None.

    H is only a hint, as a float inverse is in Rump's verification methods
    (Acta Numerica 2010).  _sylvester proves H H = 2^n I, so H is
    invertible.  P = M H is computed exactly (_exact_product), d is read
    from row 0 of P, and P = H diag(d) is checked entry by entry as
    P * H = d in every row, in place: H is +-1, so P[x, w] = H[x, w] d[w]
    iff P[x, w] H[x, w] = d[w], and each product is exact.  Then
    M = H diag(d) H^-1, and the rank of M is the number of nonzero d[w].
    This holds for any such M, and a hint that fails a check gives None,
    never a rank.
    """
    H = _sylvester(M.shape[0].bit_length() - 1)
    if H is None:
        return None
    P = _exact_product(M, H)
    if P is None:
        return None
    d = P[0].copy()
    P *= H
    return int(np.count_nonzero(d)) if (P == d).all() else None


def brute_rank(table: TruthTable) -> int:
    """Exact rank over the rationals of [f(x xor y)], proved from both sides
    by one exact product (_diagonal_rank): M H = H diag(d) with H H = 2^n I,
    so the rank is the number of nonzero d[w].  H, the Sylvester matrix, is
    a hint that is checked, never trusted, and nothing in this path reads
    the spectral module: no weight class and no Krawtchouk coefficient, so
    it holds for every TruthTable, symmetric or not.  If a check fails, the
    rank is the max of the ranks modulo enough primes that no nonzero
    maximal minor is divisible by all of them (_max_rank_mod_primes).
    """
    if table.n > MAX_RANK_N:
        raise ValueError(f"brute_rank limited to n <= {MAX_RANK_N}")
    M = xor_matrix(table)
    rank = _diagonal_rank(M)
    return _max_rank_mod_primes(M) if rank is None else rank


def paired_brute_ranks(n: int) -> list[int]:
    """brute_rank of every profile at n, by index as in all_profiles_matrix,
    with one brute_rank call per reversal pair.

    The reversed profile s'(k) = s(n - k) has index the bit-reverse of i
    over n + 1 bits, and the same rank: |x xor y xor 1^n| = n - |x xor y|,
    so M_s'[x, y] = s(n - |x xor y|) = M_s[x xor 1^n, y], and M_s' is M_s
    with its rows permuted by x -> x xor 1^n (the Hamming scheme's
    complement symmetry; MacWilliams & Sloane, ch. 5).  So the
    2^(n+1) profiles take (2^(n+1) + 2^ceil((n+1)/2)) / 2 calls, one per
    pair and one per palindrome.
    """
    ranks = {}
    for i in range(1 << (n + 1)):
        p = SymmetricProfile(n, profile_of_index(n, i))
        partner = flip_reduction(p)
        ranks[p] = ranks[partner] if partner in ranks else brute_rank(
            TruthTable.from_profile(p))
    return list(ranks.values())


# ---------------------------------------------------------------------------
# Lemma window scans


_FINGERPRINT_SEED = 0x5CA7


def _subset_sums_mod(cols: list[int], p: int) -> np.ndarray:
    """All 2^len(cols) subset sums of cols mod p, built by doubling in
    place, so entry i is the sum over the set bits of i."""
    f = np.zeros(1 << len(cols), dtype=np.int64)
    for j, c in enumerate(cols):
        m = 1 << j
        np.add(f[:m], c, out=f[m:2 * m])
        np.remainder(f[m:2 * m], p, out=f[m:2 * m])
    return f


def _column_fingerprints(rows, n: int, p: int) -> list[int]:
    """The fingerprints sum_k w[k] rows[k][t] mod p of the columns
    t = 0..n, with weights w the words of a stream of the cell seeded
    _FINGERPRINT_SEED (never a caller's seed) mod p."""
    weights = (_stream_words(_trial_starts(_FINGERPRINT_SEED, 0, _INPUT),
                             len(rows))[0] % p).tolist()
    return [sum(w * row[t] for w, row in zip(weights, rows)) % p
            for t in range(n + 1)]


def _window_equals(rows, ones, target) -> bool:
    """Whether the profile that is 1 exactly at ones has window vector
    target, checked on exact Python ints."""
    return all(sum(row[t] for t in ones) == v for row, v in zip(rows, target))


def _window_matches(n: int, target) -> list[int]:
    """Every profile index i (s[t] = bit t of i, as in all_profiles_matrix),
    trivial profiles included, whose window vector
    (sum_t s[t] C[k][t] for k in window_bounds(n)) equals target; ascending.

    The window vector is linear in s, so the matches are the 0/1 solutions
    of [window rows | target].  One elimination of it mod p, the first
    prime above _RANK_PRIMES, leaves q free columns; as C C = 2^n I, the
    window rows stay independent mod every odd p, so
    q = n + 1 - (hi - lo + 1), about n/4.
    Each pivot bit is b - sum_f a_f s_f mod p, one subset sum per pivot row
    over the 2^q assignments of the free bits, and an assignment is kept if
    every pivot bit is 0 or 1.  A true match solves the system mod every p,
    so none is missed; every kept candidate is rechecked exactly on Python
    ints, so none is false.
    """
    lo, hi = window_bounds(n)
    rows = krawtchouk_matrix(n)[lo:hi + 1]
    target = [int(v) for v in target]
    if len(target) != len(rows):
        raise ValueError(f"target has {len(target)} entries, the window "
                         f"at n={n} has {len(rows)}")
    p = _primes_above(_RANK_PRIMES, 1)[0]
    R, pivots = _rref_mod_p(np.array(
        [[c % p for c in (*row, v)] for row, v in zip(rows, target)],
        dtype=np.int64).reshape(len(rows), n + 2), p)
    if n + 1 in pivots:  # no solution mod p, so none over Q
        return []
    free = [t for t in range(n + 1) if t not in pivots]
    # powers of two below 2^(n+1) never wrap: entry a is the index of the
    # free bits that a sets
    index = _subset_sums_mod([1 << t for t in free], 1 << (n + 1))
    kept = np.ones(index.size, dtype=bool)
    for row, t in zip(R, pivots):
        bit = (int(row[-1]) - _subset_sums_mod(row[free].tolist(), p)) % p
        kept &= bit <= 1
        index[bit == 1] += 1 << t
    return [i for i in sorted(index[kept].tolist())
            if _window_equals(rows, np.flatnonzero(profile_of_index(n, i)),
                              target)]


def exhaustive_lemma_scan(n: int) -> list[SymmetricProfile]:
    """All nontrivial profiles at n whose support misses the middle window,
    in ascending profile index: the 0/1 solutions of a zero window vector
    (_window_matches)."""
    if n < 0:
        raise ValueError(f"exhaustive scan needs n >= 0, got {n}")
    if n > MAX_SCAN_N:
        raise ValueError(f"exhaustive scan limited to n <= {MAX_SCAN_N}")
    if n < 2:  # every profile at n <= 1 is 2-periodic
        return []
    lo, hi = window_bounds(n)
    found = (SymmetricProfile(n, profile_of_index(n, i))
             for i in _window_matches(n, [0] * (hi - lo + 1)))
    return [p for p in found if classify(p) is TrivialClass.NONTRIVIAL]


def sampled_lemma_scan(n: int, samples: int, seed) -> int:
    """Count of random nontrivial profiles failing the window check.

    Candidate i has s[k] = bit k, low first, of stream 0 of trial i in the
    cell seeded (seed, n) (_streams); the first `samples` that are not
    2-periodic (trivial) are checked.  One random-linear fingerprint of the
    window vector mod 2^31 - 1, a single mat-vec per batch, clears almost
    every profile; a profile whose window vanishes has fingerprint 0, and
    each such suspect gets the exact big-integer recheck.
    """
    if not 2 <= n <= MAX_SAMPLED_SCAN_N:  # every profile at n <= 1 is trivial
        raise ValueError(f"sampled scan needs 2 <= n <= {MAX_SAMPLED_SCAN_N}, "
                         f"got n={n}")
    if type(samples) is not int or not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples {samples!r} not an int in 1..{MAX_SAMPLES}")
    lo, hi = window_bounds(n)
    rows = krawtchouk_matrix(n)[lo:hi + 1]
    zero = [0] * len(rows)
    p = 2_147_483_647
    # a sum of n+1 residues below 2^31 stays inside int64
    cols = np.array(_column_fingerprints(rows, n, p), dtype=np.int64)
    count = drawn = first = 0
    while drawn < samples:
        take = min(_SCAN_BATCH, 4 * (samples - drawn) + 16)
        P = _low_bits(_stream_words(_trial_starts((seed, n), np.arange(
            first, first + take), _INPUT), -(-(n + 1) // 64)), n + 1)
        first += take
        trivial = (P[:, 2:] == P[:, :-2]).all(axis=1)
        # every drawn row is fingerprinted, so no kept row is copied out of
        # P; int64 @ int64 runs faster than uint8 @ int64
        fp = P.astype(np.int64) @ cols
        fp %= p
        keep = np.flatnonzero(~trivial)[:samples - drawn]
        drawn += keep.size
        for i in keep[fp[keep] == 0]:
            count += _window_equals(rows, np.flatnonzero(P[i]).tolist(), zero)
    return count
