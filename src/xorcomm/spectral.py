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
from itertools import accumulate, compress, islice
from operator import add, neg, sub

from .symfun import SymmetricProfile, TrivialClass, classify

# weight_spectrum keeps the packed Krawtchouk columns of n <= CACHE_MAX_N
# in packed_columns's cache (4.6 MB at n = 512, 0.6 MB at n = 256); above
# it, the rows are streamed and a spectrum needs O(n) integers.  The cache
# holds the 4 most recent n: a spectrum at each of n = 497..512 in one
# process peaked at 50 MB of RSS (99 MB when it cached the 13.8 MB tuple
# matrices that krawtchouk_matrix still builds for the oracle).
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

    The library builds rows with krawtchouk_rows and packed half-columns
    with packed_columns, both by one recurrence; this direct sum is kept as
    the independent check of it."""
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


@functools.lru_cache(maxsize=4)
def packed_columns(n: int) -> tuple[int, int, tuple[int, ...]]:
    """Columns s < h = n//2 + 1 of the Krawtchouk matrix, rows k < h, each
    packed into one integer (Kronecker substitution): (w, offset, P) with
    P[s] = sum_k C[k][s] * 2^(8*w*k), a signed slot of w bytes per k.

    Adding packed columns adds every slot at once.  A slot that
    weight_spectrum reads back is a sum of +-C[k][s] over distinct weights
    s (column t stands for both s = t and s = n - t), so its size is at
    most sum_s C(n, s) = 2^n, as |C[k][s]| <= C(n, s).  With 8*w >= n + 2
    bits, adding offset, which holds 2^(8*w - 1) in each slot, makes every
    slot a digit in [0, 2^(8*w)), and to_bytes reads them (_read_slots).
    """
    h = n // 2 + 1
    w = (n + 2 + 7) // 8
    half = 1 << (8 * w - 1)
    offset = int.from_bytes(half.to_bytes(w, "little") * h, "little")
    binoms = binomial_table(n)
    col = [0] * h
    packed = []
    for s in range(h):
        # krawtchouk_rows's recurrence, run down column s from C[0][s]:
        # C[k+1][s] = C[k][s] - (C[k][s-1] + C[k+1][s-1])
        col = list(accumulate(map(add, col, col[1:]), sub, initial=binoms[s]))
        packed.append(int.from_bytes(
            b"".join([(c + half).to_bytes(w, "little") for c in col]),
            "little") - offset)
    return w, offset, tuple(packed)


def _read_slots(total: int, w: int, offset: int, h: int,
                start: int) -> list[int]:
    """Slots start, start + 2, ... (below h) of a signed packed sum."""
    half = 1 << (8 * w - 1)
    data = (total + offset).to_bytes(h * w, "little")
    return [int.from_bytes(data[i:i + w], "little") - half
            for i in range(start * w, h * w, 2 * w)]


def _packed_coeffs(profile: SymmetricProfile) -> list[int]:
    n = profile.n
    h = n // 2 + 1
    w, offset, columns = packed_columns(n)
    # s < h reads column s; s >= h reads column n - s, as
    # C[k][s] = (-1)^k C[k][n-s].  Each half is split by the parity of s.
    direct, mirror = profile.s[:h], profile.s[:h - 1:-1]  # mirror[t]: s = n-t
    de, do, me, mo = (sum(compress(columns[start::2], bits[start::2]))
                      for bits, start in ((direct, 0), (direct, 1),
                                          (mirror, n % 2), (mirror, 1 - n % 2)))
    # slot k of de + do + (-1)^k (me + mo) is coeffs[k]; as
    # C[n-k][s] = (-1)^s C[k][s], slot k of de - do + (-1)^k (me - mo) is
    # coeffs[n-k].  Even k read the + combination, odd k the - one.
    low, high = [0] * h, [0] * h
    for out, d, m in ((low, de + do, me + mo), (high, de - do, me - mo)):
        out[0::2] = _read_slots(d + m, w, offset, h, 0)
        out[1::2] = _read_slots(d - m, w, offset, h, 1)
    return low + high[n - h::-1]


def _streamed_coeffs(profile: SymmetricProfile) -> list[int]:
    n = profile.n
    # C[n-k][s] = (-1)^s C[k][s], so row k gives both coeffs[k] and
    # coeffs[n-k] and rows past n/2 are never needed.
    even = [b if s % 2 == 0 else 0 for s, b in enumerate(profile.s)]
    odd = [b if s % 2 else 0 for s, b in enumerate(profile.s)]
    coeffs = [0] * (n + 1)
    for k, row in enumerate(islice(krawtchouk_rows(n), n // 2 + 1)):
        e, o = sum(compress(row, even)), sum(compress(row, odd))
        coeffs[k], coeffs[n - k] = e + o, e - o
    return coeffs


def weight_spectrum(profile: SymmetricProfile) -> WeightSpectrum:
    n = profile.n
    coeffs = (_packed_coeffs(profile) if n <= CACHE_MAX_N
              else _streamed_coeffs(profile))
    support = tuple(compress(range(n + 1), coeffs))
    rank = sum(compress(binomial_table(n), coeffs))
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
