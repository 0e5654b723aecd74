"""Exact Fourier spectra of symmetric Boolean functions.

Coefficients are stored scaled by 2^n so everything stays in arbitrary
precision integer arithmetic; exact zero tests are the whole point, since the
spectral support determines the rank of the XOR matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress, islice
from operator import neg

from .symfun import SymmetricProfile, TrivialClass, classify

# weight_spectrum keeps the Krawtchouk matrix of n <= CACHE_MAX_N in
# krawtchouk_matrix's cache (about 17 MB of integers at n = 512); above it,
# the rows are streamed and a spectrum needs O(n) integers.  The cache holds
# the 4 most recent n: building n = 497..512 in one process peaked at 99 MB
# of RSS with 4 and at 248 MB when all 16 stayed cached.
CACHE_MAX_N = 512


@functools.lru_cache(maxsize=64)
def binomial_table(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, C(n, 0..n), as exact integers."""
    return tuple(math.comb(n, k) for k in range(n + 1))


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return binomial_table(n)[k]


def krawtchouk_coefficient(n: int, k: int, s: int) -> int:
    """c_{k,s} = sum_t (-1)^t C(k,t) C(n-k,s-t), the character sum of the
    weight-s slice against a weight-k representative.

    The library builds whole rows with krawtchouk_rows; this direct sum is
    kept as the independent check of that recurrence."""
    if not (0 <= k <= n and 0 <= s <= n):
        raise ValueError(f"k={k}, s={s} out of range for n={n}")
    return sum((-1) ** t * binom(k, t) * binom(n - k, s - t)
               for t in range(max(0, k + s - n), min(k, s) + 1))


def krawtchouk_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the rows C[0], ..., C[n] of the Krawtchouk matrix, in order.

    Row k holds the coefficients of P_k(z) = (1-z)^k (1+z)^(n-k), so row 0
    is C(n, 0..n), and (1+z) P_{k+1} = (1-z) P_k gives
    C[k+1][s] = C[k][s] - C[k][s-1] - C[k+1][s-1] (MacWilliams & Sloane,
    ch. 5).  Since z^n P_k(1/z) = (-1)^k P_k(z), C[k][n-s] = (-1)^k C[k][s]:
    only the first half of each row is summed, the rest is mirrored.  Two
    rows are alive at a time.
    """
    row = binomial_table(n)
    yield row
    half = n // 2 + 1
    for k in range(1, n + 1):
        new = []
        prev_old = prev_new = 0
        for c in row[:half]:
            prev_new = c - prev_old - prev_new
            prev_old = c
            new.append(prev_new)
        mirror = reversed(new[:n + 1 - half])
        new.extend(map(neg, mirror) if k % 2 else mirror)
        row = tuple(new)
        yield row


@functools.lru_cache(maxsize=4)
def krawtchouk_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix C with C[k][s] = c_{k,s}, exact integers."""
    return tuple(krawtchouk_rows(n))


@dataclass(frozen=True)
class WeightSpectrum:
    """Spectrum of a symmetric f, indexed by Hamming weight.

    coeffs[k] equals 2^n * f~(w) for every w of weight k; rank is the exact
    rank of the 2^n x 2^n matrix [f(x xor y)].
    """

    n: int
    coeffs: tuple[int, ...]
    support: tuple[int, ...]
    rank: int


def weight_spectrum(profile: SymmetricProfile) -> WeightSpectrum:
    n = profile.n
    rows = krawtchouk_matrix(n) if n <= CACHE_MAX_N else krawtchouk_rows(n)
    # C[n-k][s] = (-1)^s C[k][s], so row k gives both coeffs[k] and
    # coeffs[n-k] and rows past n/2 are never needed.
    even = [b if s % 2 == 0 else 0 for s, b in enumerate(profile.s)]
    odd = [b if s % 2 else 0 for s, b in enumerate(profile.s)]
    coeffs = [0] * (n + 1)
    for k, row in enumerate(islice(rows, n // 2 + 1)):
        e, o = sum(compress(row, even)), sum(compress(row, odd))
        coeffs[k], coeffs[n - k] = e + o, e - o
    support = tuple(k for k, c in enumerate(coeffs) if c != 0)
    rank = sum(binom(n, k) for k in support)
    return WeightSpectrum(n=n, coeffs=tuple(coeffs), support=support, rank=rank)


def window_bounds(n: int) -> tuple[int, int]:
    """Inclusive weight window [ceil(n/8), floor(7n/8)]."""
    return (-(-n // 8), 7 * n // 8)


def lemma_window_check(spectrum: WeightSpectrum) -> tuple[bool, int | None]:
    """Does the spectral support meet the middle weight window?

    Returns (True, witness weight) or (False, None).  No validity assumption
    is made at small n; this is a checkable predicate, not an assertion.
    """
    lo, hi = window_bounds(spectrum.n)
    for k in spectrum.support:
        if lo <= k <= hi:
            return True, k
    return False, None


def parseval_check(profile: SymmetricProfile, spectrum: WeightSpectrum) -> bool:
    """Exact Parseval identity for 0/1-valued f (standard identity)."""
    n = profile.n
    lhs = sum(binom(n, k) * spectrum.coeffs[k] ** 2 for k in range(n + 1))
    rhs = (1 << n) * sum(binom(n, s) for s in range(n + 1) if profile.s[s])
    return lhs == rhs


def deterministic_bounds(profile: SymmetricProfile,
                         spectrum: WeightSpectrum) -> tuple[int, int]:
    """(log-rank lower bound, trivial upper bound) on D(F), where spectrum
    is weight_spectrum(profile).

    Upper bound counts Bob's 1-bit answer so both parties learn the output.
    """
    lower = (max(spectrum.rank, 1) - 1).bit_length()  # ceil(log2 rank)
    cls = classify(profile)
    if cls in (TrivialClass.CONST0, TrivialClass.CONST1):
        upper = 0
    elif cls in (TrivialClass.PARITY, TrivialClass.NOTPARITY):
        upper = 1
    else:
        upper = profile.n + 1
    return lower, upper
