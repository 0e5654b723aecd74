"""Independent brute-force references.

Everything here recomputes quantities from first principles (direct character
sums, exact matrix rank) so the spectral module and the protocols have
something to be validated against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# The Monte-Carlo trial loop lives in engine; these names stay importable here.
from .engine import MCResult, mc_error_estimate, weighted_pair  # noqa: F401
from .spectral import krawtchouk_matrix, window_bounds
from .symfun import SymmetricProfile

MAX_TABLE_N = 16
# verify --suite rank checks all 2^(n+1) profiles at each n; at n = 9 one
# rank takes up to 0.26 s, so the 1,024 profiles there alone take minutes.
MAX_RANK_N = 8
# exhaustive_lemma_scan holds two tables of 2^((n+1)/2) int64 fingerprints;
# at n = 39 a fresh process took under 1 s and 76 MB, at n = 40 101 MB.
MAX_SCAN_N = 39


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
        vals = tuple(profile.s[bin(x).count("1")] for x in range(1 << n))
        return cls(n=n, values=vals)


def _popcount(a: np.ndarray, bits: int) -> np.ndarray:
    out = np.zeros_like(a)
    for i in range(bits):
        out += (a >> i) & 1
    return out


def brute_fourier(table: TruthTable, w) -> int:
    """2^n * f~(w) = sum_x (-1)^{x.w} f(x), by direct enumeration."""
    n = table.n
    if len(w) != n:
        raise ValueError(f"w length {len(w)} != n {n}")
    wmask = sum(1 << i for i, b in enumerate(w) if b)
    total = 0
    for x, fx in enumerate(table.values):
        if fx:
            total += -1 if bin(x & wmask).count("1") & 1 else 1
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
    wt = _popcount(xs, n)
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    for k in range(n + 1):
        mask = (1 << k) - 1
        signs = 1 - 2 * (_popcount(xs & mask, n) & 1)
        out[k] = np.bincount(wt, weights=signs, minlength=n + 1).astype(np.int64)
    return out


def all_profiles_matrix(n: int) -> np.ndarray:
    """All 2^(n+1) profiles as rows of a 0/1 matrix; row i has s[k] = bit k of i."""
    idx = np.arange(1 << (n + 1), dtype=np.int64)
    return ((idx[:, None] >> np.arange(n + 1)) & 1).astype(np.int64)


def trivial_profile_indices(n: int) -> tuple[int, int, int, int]:
    """Row indices of const0, const1, parity, notparity in all_profiles_matrix."""
    const1 = (1 << (n + 1)) - 1
    parity = sum(1 << k for k in range(1, n + 1, 2))
    return 0, const1, parity, const1 ^ parity


# ---------------------------------------------------------------------------
# Exact rank of the XOR matrix


@functools.lru_cache(maxsize=None)
def _primes_above(start: int, count: int) -> tuple[int, ...]:
    out, cand = [], start | 1
    while len(out) < count:
        p, is_p = cand, True
        d = 3
        if p % 2 == 0:
            is_p = False
        while is_p and d * d <= p:
            if p % d == 0:
                is_p = False
            d += 2
        if is_p:
            out.append(p)
        cand += 2
    return tuple(out)


def _echelon_mod_p(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of M mod p (p < 2^31): the pivot rows, each scaled
    to 1 at its pivot, and their pivot columns."""
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
        if below.size:  # columns left of col are already zero there
            A[below, col:] = (A[below, col:]
                              - np.outer(A[below, col], A[rank, col:])) % p
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return A[:rank], pivots


def _rank_mod_p(M: np.ndarray, p: int) -> int:
    return len(_echelon_mod_p(M, p)[1])


def xor_matrix(table: TruthTable) -> np.ndarray:
    idx = np.arange(1 << table.n)
    vals = np.array(table.values, dtype=np.int64)
    return vals[np.bitwise_xor.outer(idx, idx)]


def _rational_lift(U: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Rational reconstruction of every residue in U (von zur Gathen &
    Gerhard, Modern Computer Algebra, 5.10): arrays (a, b) with
    a = U*b mod p, |a|, b <= isqrt(p/2) and gcd(a, b) = 1, or None if some
    entry has no such fraction.  2*isqrt(p/2)^2 < p makes each one unique.

    Runs the half-extended Euclidean algorithm on (p, u) for all entries at
    once and stops each at the first remainder <= the bound.
    """
    bound = math.isqrt(p // 2)
    r0 = np.full(U.size, p, dtype=np.int64)
    r1 = U.ravel().astype(np.int64)
    t0 = np.zeros(U.size, dtype=np.int64)
    t1 = np.ones(U.size, dtype=np.int64)
    idx = np.flatnonzero(r1 > bound)
    while idx.size:
        q = r0[idx] // r1[idx]
        r0[idx], r1[idx] = r1[idx], r0[idx] - q * r1[idx]
        t0[idx], t1[idx] = t1[idx], t0[idx] - q * t1[idx]
        idx = idx[r1[idx] > bound]
    sign = np.where(t1 < 0, -1, 1)
    a, b = (sign * r1).reshape(U.shape), (sign * t1).reshape(U.shape)
    if np.any(b > bound) or np.any(np.gcd(a, b) != 1):
        return None
    return a, b


def _kernel_certificate(M: np.ndarray, p: int) -> int | None:
    """The rank of the integer matrix M over the rationals, proved from one
    elimination mod p, or None if p does not prove it.

    The rank mod p, r_p, is at most the rational rank.  Below full column
    rank, the reduced echelon form mod p gives ncols - r_p kernel vectors
    (1 at a free column, -R[i, j] at the pivots).  Their entries are lifted
    to fractions, each vector is scaled by the lcm of its denominators, and
    M V = 0 is checked exactly.  The free-column block of V is diagonal and
    nonzero, so V has full column rank, and a passing check proves the
    rational rank is at most r_p.
    """
    R, pivots = _echelon_mod_p(M, p)
    rank, ncols = len(pivots), M.shape[1]
    if rank == ncols:
        return rank
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    # Back-substitute to reduced form.  Only the free columns change: row i
    # is zero left of its pivot, so it never touches an earlier pivot column.
    X = R[:, free]
    for i in range(rank - 1, 0, -1):
        above = np.nonzero(R[:i, pivots[i]])[0]
        if above.size:
            X[above] = (X[above] - np.outer(R[above, pivots[i]], X[i])) % p
    lifted = _rational_lift((-X) % p, p)
    if lifted is None:
        return None
    a, b = lifted
    lcms = [math.lcm(*col.tolist()) for col in b.T]
    wide = max(lcms) >= 1 << 31  # else |a| * lcm / b < 2^46
    dtype = object if wide else np.int64
    L = np.array(lcms, dtype=dtype)
    V = np.zeros((ncols, free.size), dtype=dtype)
    V[free, np.arange(free.size)] = L
    V[pivots] = a.astype(dtype) * (L // b.astype(dtype))
    vmax = int(np.abs(V).max())
    if not wide and ncols * int(np.abs(M).max()) * vmax < 1 << 62:
        residual = M @ V
    else:
        residual = M.astype(object) @ V.astype(object)
    return rank if not np.any(residual) else None


def _max_rank_mod_primes(M: np.ndarray) -> int:
    """The max of the ranks of a 0/1 matrix modulo enough distinct 31-bit
    primes: some nonzero maximal minor has absolute value at most
    (m+1)^((m+1)/2) / 2^m (0/1 determinant bound), so it is divisible by
    fewer primes than are tried, and the max is exactly the rational rank.
    """
    m = M.shape[0]
    log2_bound = (m + 1) * 0.5 * np.log2(m + 1) - m
    nprimes = max(1, int(log2_bound // 30) + 1)
    primes = _primes_above(1 << 30, nprimes)
    best = 0
    for p in primes:
        best = max(best, _rank_mod_p(M, p))
        if best == m:
            break
    return best


def _exact_rank(M: np.ndarray, p: int) -> int:
    rank = _kernel_certificate(M, p)
    return _max_rank_mod_primes(M) if rank is None else rank


def brute_rank(table: TruthTable) -> int:
    """Exact rank over the rationals of [f(x xor y)], proved from both sides.

    Lower bound: one elimination modulo the first prime p above 2^30; the
    rank mod p, r_p, never exceeds the rational rank, so r_p = 2^n ends it.
    Upper bound: below full rank, the 2^n - r_p kernel vectors of the mod-p
    echelon form are lifted to integers by rational reconstruction and
    M V = 0 is checked exactly, which proves the rank is at most r_p.
    Fallback: if the lift or the check fails (p divides a minor it should
    not), the answer is the max of the ranks modulo enough primes that no
    nonzero maximal minor is divisible by all of them.  No Fourier or
    Krawtchouk formula is used.
    """
    if table.n > MAX_RANK_N:
        raise ValueError(f"brute_rank limited to n <= {MAX_RANK_N}")
    return _exact_rank(xor_matrix(table), _primes_above(1 << 30, 1)[0])


# ---------------------------------------------------------------------------
# Lemma window scans


# Random-linear fingerprints of window vectors live mod this prime; a sum of
# two residues stays below 2^62, inside int64.
_FINGERPRINT_P = (1 << 61) - 1
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


def _column_fingerprints(rows, n: int, p: int) -> tuple[list[int], list[int]]:
    """Weights w from _FINGERPRINT_SEED (never a caller's seed) and the
    fingerprints sum_k w[k] rows[k][t] mod p of the columns t = 0..n."""
    weights = np.random.default_rng(_FINGERPRINT_SEED).integers(
        0, p, size=len(rows)).tolist()
    cols = [sum(w * row[t] for w, row in zip(weights, rows)) % p
            for t in range(n + 1)]
    return weights, cols


def _window_equals(rows, ones, target) -> bool:
    """Whether the profile that is 1 exactly at ones has window vector
    target, checked on exact Python ints."""
    return all(sum(row[t] for t in ones) == v for row, v in zip(rows, target))


def _window_matches(n: int, target) -> list[int]:
    """Every profile index i (s[t] = bit t of i, as in all_profiles_matrix),
    trivial profiles included, whose window vector
    (sum_t s[t] C[k][t] for k in window_bounds(n)) equals target; ascending.

    Meet in the middle (Horowitz & Sahni, JACM 1974): the window vector is
    linear in s, so a random-linear fingerprint of it mod p is the sum of
    the fingerprints of the set columns.  The subset sums of the low and the
    high columns are tabulated separately, the low table is sorted, and each
    high sum looks up the low sums that complete it to the target's
    fingerprint.  Every true match collides whatever the random weights
    are, so none is missed; every collision is rechecked exactly on Python
    ints, so none is false.  The result does not depend on the seed.
    """
    lo, hi = window_bounds(n)
    rows = krawtchouk_matrix(n)[lo:hi + 1]
    target = [int(v) for v in target]
    if len(target) != len(rows):
        raise ValueError(f"target has {len(target)} entries, the window "
                         f"at n={n} has {len(rows)}")
    p = _FINGERPRINT_P
    weights, cols = _column_fingerprints(rows, n, p)
    goal = sum(w * v for w, v in zip(weights, target)) % p
    half = (n + 1) // 2
    low = _subset_sums_mod(cols[:half], p)
    high = _subset_sums_mod(cols[half:], p)
    order = np.argsort(low, kind="stable")
    low = low[order]
    want = np.subtract(goal, high, out=high)
    want %= p
    first = np.searchsorted(low, want)
    # first = low.size means want is above every low sum; clipped, it
    # points at a smaller entry and still misses
    np.minimum(first, low.size - 1, out=first)
    hit = np.flatnonzero(low[first] == want)
    count = np.searchsorted(low, want[hit], side="right") - first[hit]
    starts = np.repeat(first[hit] - np.cumsum(count) + count, count)
    low_idx = order[starts + np.arange(starts.size)]
    candidates = (np.repeat(hit, count) << half) | low_idx
    return [i for i in sorted(candidates.tolist())
            if _window_equals(rows, [t for t in range(n + 1) if i >> t & 1],
                              target)]


def exhaustive_lemma_scan(n: int) -> list[SymmetricProfile]:
    """All nontrivial profiles at n whose support misses the middle window,
    in ascending profile index, found by a meet-in-the-middle search for
    the zero window vector."""
    if n < 0:
        raise ValueError(f"exhaustive scan needs n >= 0, got {n}")
    if n > MAX_SCAN_N:
        raise ValueError(f"exhaustive scan limited to n <= {MAX_SCAN_N}")
    lo, hi = window_bounds(n)
    skip = set(trivial_profile_indices(n))
    return [SymmetricProfile(n, tuple((i >> k) & 1 for k in range(n + 1)))
            for i in _window_matches(n, [0] * max(0, hi - lo + 1))
            if i not in skip]


def sampled_lemma_scan(n: int, samples: int, seed) -> int:
    """Count of random nontrivial profiles failing the window check.

    Profiles are drawn with i.i.d. uniform bits, rejecting the four trivial
    ones.  One random-linear fingerprint of the window vector mod
    2^31 - 1, a single mat-vec per batch, clears almost every profile; a
    profile whose window vanishes has fingerprint 0, and each such suspect
    gets the exact big-integer recheck.
    """
    if n < 2:  # the rejection loop would never end
        raise ValueError(f"every profile at n={n} is trivial; "
                         f"sampling needs n >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = window_bounds(n)
    rows = krawtchouk_matrix(n)[lo:hi + 1]
    zero = [0] * len(rows)
    p = 2_147_483_647
    # a sum of n+1 residues below 2^31 stays inside int64
    cols = np.array(_column_fingerprints(rows, n, p)[1], dtype=np.int64)
    parity = np.arange(n + 1) % 2
    count = drawn = 0
    while drawn < samples:
        take = min(4096, 4 * (samples - drawn) + 16)
        P = rng.integers(0, 2, size=(take, n + 1), dtype=np.int64)
        ones = P.sum(axis=1)
        trivial = ((ones == 0) | (ones == n + 1)
                   | np.all(P == parity, axis=1) | np.all(P != parity, axis=1))
        K = P[~trivial][:samples - drawn]
        drawn += K.shape[0]
        for row in K[(K @ cols) % p == 0]:
            count += _window_equals(rows, np.flatnonzero(row).tolist(), zero)
    return count
