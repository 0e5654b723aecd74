"""Exact Fourier spectra of symmetric Boolean functions.

Coefficients are stored scaled by 2^n so everything stays in arbitrary
precision integer arithmetic; exact zero tests are the whole point, since the
spectral support determines the rank of the XOR matrix.  Every Krawtchouk
coefficient here comes from the one recurrence of _half_columns.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import add, neg, sub

from .symfun import SymmetricProfile, TrivialClass, classify

# weight_spectrum reads the packed half-columns of n <= CACHE_MAX_N from
# packed_columns's cache of 4 n (4.6 MB at n = 512, 0.6 MB at n = 256), and
# streams them above.  A spectrum at each of n = 497..512 in one process
# peaked at 50 MB of RSS (99 MB with krawtchouk_matrix's 13.8 MB tuples).
CACHE_MAX_N = 512


@functools.lru_cache(maxsize=64)
def binomial_table(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, C(n, 0..n), as exact integers."""
    return tuple(math.comb(n, k) for k in range(n + 1))


def krawtchouk_coefficient(n: int, k: int, s: int) -> int:
    """c_{k,s} = sum_t (-1)^t C(k,t) C(n-k,s-t), the character sum of the
    weight-s slice against a weight-k representative.

    The library reads every coefficient from _half_columns's recurrence;
    this direct sum is kept as the independent check of it."""
    if not (0 <= k <= n and 0 <= s <= n):
        raise ValueError(f"k={k}, s={s} out of range for n={n}")
    return sum((-1) ** t * math.comb(k, t) * math.comb(n - k, s - t)
               for t in range(max(0, k + s - n), min(k, s) + 1))


def _half_columns(n: int) -> Iterator[list[int]]:
    """Yield the half-columns [C[0][s], ..., C[h-1][s]] of the Krawtchouk
    matrix, s = 0, ..., h - 1, where h = n//2 + 1; each list is new.

    Row k holds the coefficients of P_k(z) = (1-z)^k (1+z)^(n-k), so row 0
    is C(n, 0..n), and (1+z) P_{k+1} = (1-z) P_k gives
    C[k+1][s] = C[k][s] - (C[k][s-1] + C[k+1][s-1]) (MacWilliams & Sloane,
    ch. 5), run here down column s from column s - 1.  C[k][n-s] =
    (-1)^k C[k][s] and C[n-k][s] = (-1)^s C[k][s] give the rest.
    """
    h = n // 2 + 1
    binoms = binomial_table(n)
    col = [0] * h
    for s in range(h):
        col = list(accumulate(map(add, col, col[1:]), sub, initial=binoms[s]))
        yield col


@functools.lru_cache(maxsize=4)
def krawtchouk_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Matrix C with C[k][s] = c_{k,s}, exact integers, from the
    half-columns and the two symmetries of _half_columns."""
    rows = [list(row) for row in zip(*_half_columns(n))]  # k, s <= n//2
    for k, row in enumerate(rows):  # C[k][n-s] = (-1)^k C[k][s]
        mirror = reversed(row[:(n + 1) // 2])
        row.extend(map(neg, mirror) if k % 2 else mirror)
    for row in reversed(rows[:(n + 1) // 2]):  # C[n-k][s] = (-1)^s C[k][s]
        rows.append(row[:])
        rows[-1][1::2] = map(neg, row[1::2])
    return tuple(map(tuple, rows))


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
    """The half-columns of _half_columns, packed: (w, offset, P) with
    P[s] = sum_k C[k][s] * 2^(8*w*k) for s, k < n//2 + 1, a signed slot of
    w bytes per k (Kronecker substitution).

    Adding packed columns adds every slot at once.  A slot that
    weight_spectrum reads back is a sum of +-C[k][s] over distinct weights
    s (column t stands for both s = t and s = n - t), so its size is at
    most sum_s C(n, s) = 2^n, as |C[k][s]| <= C(n, s).  With 8*w >= n + 2
    bits, adding offset, which holds 2^(8*w - 1) in each slot, makes every
    slot a digit in [0, 2^(8*w)), and to_bytes reads them (_read_slots).
    """
    w = (n + 2 + 7) // 8
    half = 1 << (8 * w - 1)
    offset = int.from_bytes(half.to_bytes(w, "little") * (n // 2 + 1),
                            "little")
    return w, offset, tuple(int.from_bytes(
        b"".join([(c + half).to_bytes(w, "little") for c in col]),
        "little") - offset for col in _half_columns(n))


def _read_slots(biased: int, w: int, h: int, start: int) -> list[int]:
    """Slots start, start + 2, ... (below h) of a packed sum plus offset."""
    half = 1 << (8 * w - 1)
    data = biased.to_bytes(h * w, "little")
    return [int.from_bytes(data[i:i + w], "little") - half
            for i in range(start * w, h * w, 2 * w)]


def _coeffs(profile: SymmetricProfile) -> list[int]:
    n = profile.n
    h = n // 2 + 1
    if n > CACHE_MAX_N:
        # Streamed, over the sparser of S and 1 - S: column t is added for
        # s = t and, signed by C[k][n-t] = (-1)^k C[k][t], for s = n - t (once,
        # unsigned, if n - t = t), into the sums E and O of even and odd s.
        # As C[n-k][s] = (-1)^s C[k][s], coeffs[k] = E[k] + O[k] and
        # coeffs[n-k] = E[k] - O[k], combined in place so that no third list
        # of h big integers is held.
        flip = 2 * sum(profile.s) > n + 1
        even, odd = [0] * h, [0] * h
        for t, col in enumerate(_half_columns(n)):
            for s, odd_k in {n - t: sub, t: add}.items():
                if profile.s[s] != flip:
                    total = odd if s % 2 else even
                    total[0::2] = map(add, total[0::2], col[0::2])
                    total[1::2] = map(odd_k, total[1::2], col[1::2])
        for k, (e, o) in enumerate(zip(even, odd)):
            even[k], odd[k] = (-e - o, o - e) if flip else (e + o, e - o)
        if flip:  # c(S) = c(1) - c(1 - S), and c(1) is 2^n at k = 0 only
            even[0] += 1 << n
        return even + odd[n - h::-1]
    w, offset, columns = packed_columns(n)
    # s < h reads column s; s >= h reads column t = n - s (mirror[t]),
    # as C[k][s] = (-1)^k C[k][n-s].  Each half is split by parity of s.
    direct, mirror = profile.s[:h], profile.s[:h - 1:-1]
    de, do, me, mo = (sum(compress(columns[i::2], bits[i::2])) for bits, i
                      in ((direct, 0), (direct, 1), (mirror, n % 2),
                          (mirror, 1 - n % 2)))
    # As C[n-k][s] = (-1)^s C[k][s], slot k of de +- do + (-1)^k (me +- mo)
    # is coeffs[k] (+) or coeffs[n-k] (-): even k read d + m, odd k d - m.
    # Each pair is combined in place, so no packed sum outlives its use.
    de, do = de + do, de - do
    me, mo = me + mo, me - mo
    low, high = [0] * h, [0] * h
    for out, d, m in ((low, de, me), (high, do, mo)):
        out[0::2] = _read_slots(d + m + offset, w, h, 0)
        out[1::2] = _read_slots(d - m + offset, w, h, 1)
    return low + high[n - h::-1]


def weight_spectrum(profile: SymmetricProfile) -> WeightSpectrum:
    n = profile.n
    coeffs = _coeffs(profile)
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
    binoms = binomial_table(profile.n)
    lhs = sum(b * c * c for b, c in zip(binoms, spectrum.coeffs))
    rhs = (1 << profile.n) * sum(compress(binoms, profile.s))
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
