"""Two-party protocol execution: shared tapes, channel, transcripts, the
Monte-Carlo trial loop and sweeps.

Protocols run a block of trials at once: X and Y hold one trial's input per
row, tapes[t] is trial t's own shared tape and the channel counts each
trial's bits and rounds in arrays.  _run_block runs one block (run_protocol
a block of one); _run_blocks, the one trial loop and the one place that
lays out trial streams, runs every other trial: run_trials,
mc_error_estimate, weight_estimates and sweep.  A block holds at most
_DRAW_BLOCK // n trials, so peak memory does not grow with the number of
trials.

Every random stream is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): value i of stream s (0: input, 1:
tape) of trial t in a cell seeded `seed` is mix64(_cell_key(seed) +
((2t + s) * 2^32 + i) * GAMMA mod 2^64), mix64 being SplitMix64's output
function, a bijection (Steele, Lea & Flood, OOPSLA 2014).  GAMMA is odd, so
a cell's streams never overlap; a stream holds 2^32 values, and a draw past
them is refused.  Trial t is a pure function of (seed, t), the same in any
block, so it replays on its own.  A block's inputs are one array expression
(_weighted_pairs), and so is each draw block of a phase (RandomTape).

Bits are counted, not transmitted: a send is a bit count, which the
channel charges to the trials it lists, keeping running totals per
direction and the number of rounds; no protocol builds a payload.  Bob is
the output party for every protocol; the engine appends his 1-bit answer
to the transcript so both parties know the result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Iterator, Sequence

from ._np import np
from .symfun import InputPair, ProfileError, SymmetricProfile, gap_params

# Most input bits one block of trials holds (trials * n), and most tape
# values one draw block of a protocol phase takes.  A larger phase is split
# into blocks of whole rows (at least one), which bounds the memory of the
# draw and of its bincount: the traced peak of a sweep cell stays under
# 1.1 MB.  At 2^16 the blocks' arrays took about 4.5 MB more peak RSS; at
# 2^13 the benchmark's sweep cells ran slower, paying more blocks' fixed
# costs.
_DRAW_BLOCK = 1 << 14


class ScheduleViolation(RuntimeError):
    """A party sent a message its declared schedule forbids."""


@dataclass(frozen=True)
class Transcript:
    """Bit counts of one run; the last Bob->Alice bit is the answer."""

    bits_a_to_b: int
    bits_b_to_a: int
    rounds: int  # maximal blocks of messages in one direction

    @property
    def total_bits(self) -> int:
        return self.bits_a_to_b + self.bits_b_to_a

    @property
    def content_bits(self) -> int:
        return self.total_bits - 1


# SplitMix64's increment and output multipliers (Steele, Lea & Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A, _MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
# A trial's streams: s = 0 its input, s = 1 its tape.  Each holds 2^32
# values, and 2t + s < 2^32 keeps trial t's counters below 2^64.
_INPUT, _TAPE = 0, 1
_STREAM_VALUES = 1 << 32
_MAX_TRIALS = 1 << 31
# The largest tape bound: (half * upper) >> 32 is then exact in int64.
_MAX_UPPER = 1 << 31


def _seed_words(seed) -> Sequence[int]:
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


def _stream_starts(keys: np.ndarray, trials: np.ndarray,
                   stream: int) -> np.ndarray:
    """The counter of value 0 of trial t's stream for each (key, t),
    key + (2t + stream) * 2^32 * GAMMA mod 2^64, as uint64."""
    starts = (trials.astype(np.uint64) * 2 + stream) << 32
    starts *= _GAMMA
    starts += keys
    return starts


def _stream_words(starts: np.ndarray, width: int) -> np.ndarray:
    """The (k, width) uint64 array mix64(starts[r] + i * GAMMA), i < width:
    `width` values of each row's stream, starts[r] the counter of its first.
    The mix runs in place, with one scratch buffer."""
    words = np.arange(width, dtype=np.uint64)
    words *= _GAMMA
    words = starts[:, None] + words
    scratch = np.empty_like(words)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(words, shift, out=scratch)
        words ^= scratch
        if mult is not None:
            words *= mult
    return words


def _weighted_pairs(n: int, weights: np.ndarray,
                    starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The engine's input sampler: (X, Y), (k, n) uint8, row r from the
    input stream starting at counter starts[r], at XOR-weight weights[r].
    x is the low-first bits of the stream's first ceil(n/64) values; y
    flips the weights[r] positions whose keys, the next n values with the
    position in the low bits (so none tie), rank lowest."""
    head = -(-n // 64)
    words = _stream_words(starts, head + n)
    X = np.unpackbits(words[:, :head].astype("<u8", copy=False).view(np.uint8),
                      axis=1, count=n, bitorder="little")
    keys = words[:, head:]
    keys &= ~((1 << (n - 1).bit_length()) - 1) & _MASK64
    keys |= np.arange(n, dtype=np.uint64)
    rows = np.arange(len(weights))
    cut = np.sort(keys, axis=1)[rows, np.maximum(weights - 1, 0)]
    flips = keys <= cut[:, None]
    flips[weights == 0] = False
    return X, X ^ flips


class RandomTape:
    """One trial's shared public coin, consumed in lock-step by both
    parties: the tape stream of trial `trial` in the cell seeded `seed`.

    Tape value p is the 32-bit half p mod 2 (low first) of stream value
    p // 2, scaled to (half * upper) >> 32, so each of the `upper` values
    has a probability within 2^-32 of 1/upper.  `position` is where the
    stream stands: past the values drawn, and past any a protocol skipped.
    A run that never draws computes nothing for its tape.  integers is the
    one way values leave a tape; a draw block of rows of several tapes,
    each at its own tape index, is one tape too (RandomTape.rows), drawn by
    one integers call, and it moves none of them: the protocol that draws
    it sets where each tape ends.
    """

    def __init__(self, seed, trial: int = 0):
        if not 0 <= trial < _MAX_TRIALS:
            raise ValueError(f"trial {trial} out of range")
        self._start = int(_stream_starts(
            np.array([_cell_key(seed)], dtype=np.uint64), np.array([trial]),
            _TAPE)[0])
        self._rows = None
        self.position = 0

    @classmethod
    def _at(cls, start: int) -> RandomTape:
        """The tape whose value 0 is at counter `start`."""
        tape = cls.__new__(cls)
        tape._start, tape._rows, tape.position = start, None, 0
        return tape

    @classmethod
    def rows(cls, tapes: Sequence[RandomTape], firsts: Sequence[int],
             width: int) -> RandomTape:
        """The draw block of one row of `width` values off each of tapes,
        row j from tape index firsts[j] of tapes[j] (a tape may give
        several rows).  Drawing it moves no tape."""
        block = cls._at(0)
        block._rows = (tapes, firsts, width)
        return block

    def integers(self, upper: int, size: int) -> np.ndarray:
        """`size` values below upper (<= 2^31) as int64: the tape's next
        ones, moving it past them, or a draw block's rows, row by row; a
        draw past a stream's end is refused before anything is computed."""
        if not 1 <= upper <= _MAX_UPPER:
            raise ValueError(f"tape bound {upper} out of range")
        tapes, firsts, width = self._rows or ((self,), (self.position,), size)
        firsts = np.asarray(firsts, dtype=np.int64)
        if len(firsts) * width != size:
            raise ValueError(f"size {size} is not {len(firsts)} rows of "
                             f"{width}")
        if len(firsts) and int(firsts.max()) + width > 2 * _STREAM_VALUES:
            raise ValueError("draw past the end of a tape's stream")
        if self._rows is None:
            self.position += size
        starts = np.array([tape._start for tape in tapes], dtype=np.uint64)
        starts += (firsts >> 1).astype(np.uint64) * _GAMMA
        odd = (firsts & 1).astype(bool)
        halves = _stream_words(starts, (width + 1 + odd.any()) // 2).astype(
            "<u8", copy=False).view("<u4")
        chosen = halves[:, :width]
        if odd.any():
            chosen = np.where(odd[:, None], halves[:, 1:width + 1], chosen)
        values = np.multiply(chosen, upper, dtype=np.int64)
        values >>= 32
        return values.reshape(-1)


# the direction of a trial's last message, in Channel._last
_TO_BOB, _TO_ALICE = 1, 2


class Channel:
    """Counts, for each trial of a block, the bits each party sends and the
    rounds.  Enforces the one-way restriction when declared.

    A send is a bit count: it charges `bits` to each trial that `trials`
    lists (an index array; None: every trial), and a trial listed twice is
    charged twice but starts at most one round.
    """

    def __init__(self, one_way: bool = False, trials: int = 1):
        self.one_way = one_way
        self.bits_a_to_b = np.zeros(trials, dtype=np.int64)
        self.bits_b_to_a = np.zeros(trials, dtype=np.int64)
        self.rounds = np.zeros(trials, dtype=np.int64)
        self._last = np.zeros(trials, dtype=np.int8)  # 0: nothing sent yet

    def _count(self, to_bob: bool, bits: int, trials=None) -> None:
        totals = self.bits_a_to_b if to_bob else self.bits_b_to_a
        where = slice(None) if trials is None else trials
        np.add.at(totals, where, bits)
        # a trial listed twice starts at most one round
        direction = _TO_BOB if to_bob else _TO_ALICE
        self.rounds[where] += self._last[where] != direction
        self._last[where] = direction

    def a_to_b(self, *, bits: int, trials=None) -> None:
        self._count(True, bits, trials)

    def b_to_a(self, *, bits: int, trials=None) -> None:
        if self.one_way:
            raise ScheduleViolation(
                "one-way protocol attempted a Bob->Alice content message")
        self._count(False, bits, trials)

    def _final_answer(self) -> None:
        # Bob's 1-bit answer, exempt from the one-way check
        self._count(False, 1)

    def transcript(self, t: int = 0) -> Transcript:
        """Trial t's bit counts and rounds."""
        return Transcript(int(self.bits_a_to_b[t]), int(self.bits_b_to_a[t]),
                          int(self.rounds[t]))


@dataclass(frozen=True)
class Protocol:
    """Base protocol: a frozen dataclass of its parameters, and run()."""

    name: ClassVar[str] = "abstract"
    one_way: ClassVar[bool] = False

    def run(self, X: np.ndarray, Y: np.ndarray, profile: SymmetricProfile,
            channel: Channel, tapes: list[RandomTape]) -> np.ndarray:
        """Run a block of trials: row t of X and Y is trial t's input and
        tapes[t] its tape.  Returns the T outputs."""
        raise NotImplementedError

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _run_block(protocol: Protocol, profile: SymmetricProfile, X, Y,
               tapes: list[RandomTape]) -> tuple[np.ndarray, Channel]:
    """Run one block, row t of X and Y and tapes[t] being trial t's; return
    its outputs and its channel, Bob's answers counted."""
    channel = Channel(one_way=protocol.one_way, trials=len(tapes))
    out = np.asarray(protocol.run(X, Y, profile, channel, tapes),
                     dtype=np.int64)
    channel._final_answer()
    return out, channel


def _run_blocks(protocol: Protocol, profile: SymmetricProfile, cells,
                trials: int) -> Iterator[tuple]:
    """The trial loop: run `trials` trials of each (m, seed) cell, cell by
    cell, in blocks of at most _DRAW_BLOCK // n trials, and yield each
    block's (outputs, truths, channel), row t of each being the block's
    trial t.  A cell's trial t takes its input (_weighted_pairs at weight
    m) from its stream 0 and its tape from its stream 1.  trials and every
    cell's m and seed are checked before the first block runs."""
    n = profile.n
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be 1 to 2^31, got {trials}")
    for m, _ in cells:
        if not 0 <= m <= n:
            raise ValueError(f"weight m={m} out of range for n={n}")
    weights = np.array([m for m, _ in cells], dtype=np.int64)
    keys = np.array([_cell_key(seed) for _, seed in cells], dtype=np.uint64)
    s = np.array(profile.s)
    total, size = len(cells) * trials, max(1, _DRAW_BLOCK // n)
    for lo in range(0, total, size):
        cell, t = np.divmod(np.arange(lo, min(lo + size, total)), trials)
        X, Y = _weighted_pairs(n, weights[cell],
                               _stream_starts(keys[cell], t, _INPUT))
        tapes = [RandomTape._at(start) for start in
                 _stream_starts(keys[cell], t, _TAPE).tolist()]
        out, channel = _run_block(protocol, profile, X, Y, tapes)
        yield out, s[np.count_nonzero(X != Y, axis=1)], channel


def run_protocol(protocol: Protocol, pair: InputPair,
                 profile: SymmetricProfile, seed) -> tuple[int, Transcript]:
    """Execute one protocol run, a block of one; deterministic given seed."""
    if pair.n != profile.n:
        raise ProfileError(f"pair length {pair.n} != profile n {profile.n}")
    out, channel = _run_block(protocol, profile, pair.x[None], pair.y[None],
                              [RandomTape(seed)])
    return int(out[0]), channel.transcript()


def make_report(protocol: Protocol, output: int, truth: int,
                transcript: Transcript) -> dict:
    """One run's row of `simulate`, without the trial, weight and seed."""
    return {"protocol": protocol.name, "output": output, "truth": truth,
            "correct": output == truth,
            "bits_a_to_b": transcript.bits_a_to_b,
            "bits_b_to_a": transcript.bits_b_to_a,
            "total_bits": transcript.total_bits,
            "content_bits": transcript.content_bits,
            "rounds": transcript.rounds, "params": protocol.params()}


@dataclass(frozen=True)
class MCResult:
    trials: int
    successes: int
    success_rate: float
    mean_bits: float
    max_bits: int
    rounds_mean: float


def weighted_pair(n: int, m: int, rng: np.random.Generator) -> InputPair:
    """Uniform x and y = x xor (uniform weight-m mask): _weighted_pairs on
    the input stream whose value 0 is at a counter drawn from rng."""
    if not 0 <= m <= n:
        raise ValueError(f"weight m={m} out of range for n={n}")
    start = rng.integers(0, 1 << 64, size=1, dtype=np.uint64)
    X, Y = _weighted_pairs(n, np.array([m]), start)
    # fresh 0/1 uint8 rows of length n: InputPair's copy and checks would
    # find nothing
    x, y = X[0], Y[0]
    x.flags.writeable = y.flags.writeable = False
    return InputPair._of_bits(x, y)


def run_trials(protocol: Protocol, profile: SymmetricProfile, m: int,
               trials: int, seed) -> Iterator[tuple[int, int, Transcript]]:
    """Yield (output, truth, transcript) for each trial at XOR-weight m."""
    for out, truth, channel in _run_blocks(protocol, profile, [(m, seed)],
                                           trials):
        for t in range(len(out)):
            yield int(out[t]), int(truth[t]), channel.transcript(t)


def _estimates(protocol: Protocol, profile: SymmetricProfile, cells,
               trials: int) -> list[MCResult]:
    """The MCResult of each (m, seed) cell, all cells' trials in one loop."""
    successes, bits_sum, bits_max, rounds_sum = np.zeros((4, len(cells)),
                                                         dtype=np.int64)
    done = 0
    for out, truth, channel in _run_blocks(protocol, profile, cells, trials):
        cell = np.arange(done, done + len(out)) // trials
        done += len(out)
        bits = channel.bits_a_to_b + channel.bits_b_to_a
        np.add.at(successes, cell, out == truth)
        np.add.at(bits_sum, cell, bits)
        np.maximum.at(bits_max, cell, bits)
        np.add.at(rounds_sum, cell, channel.rounds)
    return [MCResult(trials=trials, successes=int(wins),
                     success_rate=int(wins) / trials,
                     mean_bits=int(total) / trials, max_bits=int(most),
                     rounds_mean=int(rounds) / trials)
            for wins, total, most, rounds
            in zip(successes, bits_sum, bits_max, rounds_sum)]


def mc_error_estimate(protocol, profile: SymmetricProfile, m: int,
                      trials: int, seed) -> MCResult:
    """Empirical success rate and bit cost at exact XOR-weight m."""
    return _estimates(protocol, profile, [(m, seed)], trials)[0]


def weight_estimates(protocol: Protocol, profile: SymmetricProfile, weights,
                     trials: int, seed) -> list[MCResult]:
    """The MCResult at each XOR-weight of `weights`, in order, every
    weight's trials in one loop.  Weight m runs with the cell seed
    (*seed, m), seed being a sequence; a weight listed twice is refused."""
    weights = list(weights)
    if len(set(weights)) < len(weights):
        raise ValueError(f"weights {weights} list a weight twice")
    return _estimates(protocol, profile,
                      [(m, (*seed, m)) for m in weights], trials)


# The columns of a sweep row, in the order the CSV writer prints them.
SWEEP_FIELDS = ("n", "family", "r0", "r1", "r", "protocol", "weight", "trials",
                "success_rate", "mean_bits", "max_bits", "rounds_mean")


def sweep(cells: dict, family: str, trials: int, seed,
          weights=None) -> list[dict]:
    """Monte-Carlo statistics rows keyed by SWEEP_FIELDS, for each n of
    cells ({n: (the profile family parsed at n, the protocol run at n)}) in
    increasing order and each weight (default 0..n) in increasing order.
    Weight m at n has the cell seed (seed, n, m); every weight of one n
    runs in one trial loop, so small cells share their blocks."""
    rows = []
    for n, (profile, protocol) in sorted(cells.items()):
        gp = gap_params(profile)
        ws = sorted(weights) if weights is not None else range(n + 1)
        results = weight_estimates(protocol, profile, ws, trials, (seed, n))
        rows.extend(dict(zip(SWEEP_FIELDS, (
            n, family, gp.r0, gp.r1, gp.r, protocol.name, m, trials,
            res.success_rate, res.mean_bits, res.max_bits, res.rounds_mean)))
            for m, res in zip(ws, results))
    return rows
