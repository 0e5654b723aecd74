"""Counter-based random streams (Salmon et al., SC 2011), the one place a
seed becomes random bits.  Value i of stream s of trial t in a cell seeded
`seed` is mix64(_cell_key(seed) + ((2t + s) * 2^32 + i) * GAMMA mod 2^64),
mix64 being SplitMix64's output function, a bijection (Steele, Lea & Flood,
OOPSLA 2014).  GAMMA is odd, so a cell's streams never overlap; a stream
holds 2^32 values, and its readers refuse a draw past them."""

from __future__ import annotations

from ._np import np

# SplitMix64's increment and output multipliers (Steele, Lea & Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A, _MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
# A trial's streams: s = 0 its input, s = 1 its tape.  Each holds 2^32
# values, and 2t + s < 2^32 keeps trial t's counters below 2^64.
_INPUT, _TAPE = 0, 1
_STREAM_VALUES = 1 << 32
_MAX_TRIALS = 1 << 31


def _seed_words(seed) -> tuple[int, ...] | list[int]:
    """seed's uint32 words: a non-negative int is its 32-bit words, least
    significant first (0 is [0]), and a sequence is its items' words in
    turn.  Negative ints, strings and other types are refused."""
    if type(seed) is tuple and all(type(item) is int and 0 <= item <= _MASK32
                                   for item in seed):
        return seed  # a word an item, as the engine's seeds mostly are
    if isinstance(seed, (int, np.integer)):
        seed = int(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed & _MASK32]
        while seed := seed >> 32:
            words.append(seed & _MASK32)
        return words
    if isinstance(seed, (tuple, list, range, np.ndarray)):
        return [word for item in seed for word in _seed_words(item)]
    raise TypeError(f"seed must be an integer or a sequence of integers, "
                    f"not {seed!r}")


def _mix64(z: int) -> int:
    """SplitMix64's output function of a word below 2^64, on Python ints."""
    z = (z ^ z >> 30) * _MIX_A & _MASK64
    z = (z ^ z >> 27) * _MIX_B & _MASK64
    return z ^ z >> 31


def _cell_key(seed) -> int:
    """The 64-bit key of a cell seed: its words folded by _mix64."""
    key = 0
    for word in _seed_words(seed):
        key = _mix64((key + _GAMMA + word) & _MASK64)
    return key


def _mix64_array(words: np.ndarray) -> np.ndarray:
    """_mix64 of each word of a uint64 array, in place, with one scratch
    buffer; returns words."""
    scratch = np.empty_like(words)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(words, shift, out=scratch)
        words ^= scratch
        if mult is not None:
            words *= mult
    return words


def _cell_keys(seed, weights) -> np.ndarray:
    """_cell_key((*seed, m)) for each m of weights, as uint64: seed's words
    folded once, then one mix per weight.  A weight _cell_key refuses is
    refused, as is one of 2^32 or more (two words)."""
    words = _seed_words(tuple(weights))
    if len(words) != len(weights):
        raise ValueError(f"a weight of {weights} is 2^32 or more")
    keys = np.array(words, dtype=np.uint64)
    keys += np.uint64((_cell_key(seed) + _GAMMA) & _MASK64)
    return _mix64_array(keys)


def _stream_starts(keys: np.ndarray, trials: np.ndarray,
                   stream: int) -> np.ndarray:
    """The counter of value 0 of trial t's stream for each (key, t),
    key + (2t + stream) * 2^32 * GAMMA mod 2^64, as uint64."""
    starts = (trials.astype(np.uint64) * 2 + stream) << 32
    starts *= _GAMMA
    starts += keys
    return starts


def _trial_starts(seed, trial, stream: int, ndim: int = 1) -> np.ndarray:
    """_stream_starts of each trial of `trial`, an int or (ndim 1) a 1-D
    integer array, in the cell seeded `seed`, each trial in [0, 2^31)."""
    trials = np.asarray(trial)
    if (trials.dtype.kind not in "iu" or trials.ndim > ndim or trials.size
            and not 0 <= trials.min() <= trials.max() < _MAX_TRIALS):
        raise ValueError(f"trial {trial!r} is not an integer in [0, 2^31)")
    return _stream_starts(np.uint64(_cell_key(seed)), trials.ravel(), stream)


def _stream_words(starts: np.ndarray, width: int) -> np.ndarray:
    """The (k, width) uint64 array mix64(starts[r] + i * GAMMA), i < width:
    `width` values of each row's stream, starts[r] the counter of its first.
    The mix runs in place (_mix64_array)."""
    words = np.arange(width, dtype=np.uint64)
    words *= _GAMMA
    return _mix64_array(starts[:, None] + words)


def _low_bits(words: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits, low first, of each row of uint64s, as uint8."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=1, count=count, bitorder="little")
