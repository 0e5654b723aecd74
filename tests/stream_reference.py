"""The engine's counter-based streams restated on plain Python ints, one
value at a time, apart from the engine's array code: the reference that
tests/test_engine.py, tests/test_protocols.py and tests/test_oracle.py
check the engine and the sampled lemma scan against.

Value i of stream s (0: input, 1: tape) of trial t in a cell seeded `seed`
is mix64(key + ((2t + s) * 2^32 + i) * GAMMA mod 2^64), key folding the
seed's 32-bit words with mix64.
"""

import functools

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def words(seed):
    """An int's 32-bit words, least significant first; a tuple's items'
    words in turn."""
    if isinstance(seed, tuple):
        return [w for item in seed for w in words(item)]
    seed = int(seed)
    out = [seed % 2 ** 32]
    while seed >= 2 ** 32:
        seed //= 2 ** 32
        out.append(seed % 2 ** 32)
    return out


@functools.lru_cache(maxsize=None)
def cell_key(seed):
    key = 0
    for w in words(seed):
        key = mix64((key + GAMMA + w) % 2 ** 64)
    return key


def value(seed, t, s, i):
    """Value i of stream s of trial t in the cell seeded `seed`."""
    return mix64((cell_key(seed) + ((2 * t + s) * 2 ** 32 + i) * GAMMA)
                 % 2 ** 64)


def tape_start(seed, t):
    """The counter of value 0 of trial t's tape."""
    return (cell_key(seed) + (2 * t + 1) * 2 ** 32 * GAMMA) % 2 ** 64


def pair(n, m, seed, t):
    """Trial t's input at weight m: x the low-first bits of the first
    ceil(n/64) values; y flips the m positions whose keys (the next n
    values, position j in the low bits) are least."""
    head = -(-n // 64)
    vals = [value(seed, t, 0, i) for i in range(head + n)]
    x = [(vals[j // 64] >> (j % 64)) & 1 for j in range(n)]
    low = (n - 1).bit_length()
    keys = [(vals[head + j] >> low << low) | j for j in range(n)]
    y = list(x)
    for j in sorted(range(n), key=keys.__getitem__)[:m]:
        y[j] ^= 1
    return (np.array(x, dtype=np.uint8), np.array(y, dtype=np.uint8))


def profile_bits(seed, n, i):
    """Candidate i of the sampled lemma scan at n: s[k] is bit k, low bit
    first, of the first ceil((n+1)/64) values of stream 0 of trial i in
    the cell seeded (seed, n)."""
    vals = [value((seed, n), i, 0, j) for j in range(-(-(n + 1) // 64))]
    return [(vals[k // 64] >> (k % 64)) & 1 for k in range(n + 1)]


class ReferenceTape:
    """Trial t's tape: value p is 32-bit half p mod 2 (low first) of
    stream value p // 2, scaled to (half * upper) >> 32."""

    def __init__(self, seed, t=0):
        self.seed, self.t, self.position = seed, t, 0
        self._word = (None, None)

    def _half(self, p):
        if self._word[0] != p // 2:
            self._word = (p // 2, value(self.seed, self.t, 1, p // 2))
        return (self._word[1] >> (32 * (p % 2))) % 2 ** 32

    def integers(self, upper, size):
        out = [self._half(p) * upper >> 32
               for p in range(self.position, self.position + size)]
        self.position += size
        return np.array(out, dtype=np.int64)
