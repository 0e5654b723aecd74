"""Two-party protocol execution: shared tapes, channel, transcripts, the
Monte-Carlo trial loop and sweeps.

Protocols run a block of trials at once: X and Y hold one trial's input per
row, tapes[t] is trial t's own shared tape and the channel counts each
trial's bits and rounds in arrays.  _run_block runs one block (run_protocol
a block of one); _run_blocks, the one trial loop and the one place that
derives trial seeds, runs every other trial: run_trials, mc_error_estimate,
weight_estimates and sweep.  A block holds at most _DRAW_BLOCK // n trials,
so peak memory does not grow with the number of trials.  Trial t of a cell
with base seed s draws its input from (*s, t, 0) and its tape from
(*s, t, 1), whatever block it runs in, so every trial is replayable on its
own.

Each stream is that of PCG64(SeedSequence(seed)), but no trial builds numpy
objects: _pcg64_states derives the PCG64 states of _SEED_CHUNK (256)
trials' seeds at once, across cells, running SeedSequence's hash as uint32
array operations, and each input, and each tape from its first draw, swaps
its own state into the loop's one generator.  A chunk's tape states are
derived on the first draw of any of its tapes.  The tests check the states
and the draws against numpy's own SeedSequence.  RandomTape.position counts
the values a tape has drawn, so it is where the tape's stream stands: a
protocol may stop drawing early, in its tape's last phase, without moving
any value it does draw.

Bits are counted, not transmitted: a send is a bit count, which the
channel charges to the trials it lists, keeping running totals per
direction and the number of rounds; no protocol builds a payload.  Bob is
the output party for every protocol; the engine appends his 1-bit answer
to the transcript so both parties know the result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator, Sequence

from ._np import np
from .symfun import InputPair, ProfileError, SymmetricProfile, gap_params

# Most input bits one block of trials holds (trials * n), and most tape
# values one draw block of a protocol phase takes.  A larger phase is split
# into blocks of whole rows (at least one), which bounds the memory of the
# draw and of its bincount: the traced peak of a sweep cell stays under
# 1.1 MB.  At 2^16 the blocks' arrays, and a block's seeded tapes (then
# about 4 KB a trial; a drawn tape, which holds only its state, now takes
# under 1 KB), took about 4.5 MB more peak RSS; at 2^13 the benchmark's
# sweep cells ran slower, paying more blocks' fixed costs.
_DRAW_BLOCK = 1 << 14
# Trials whose seeds' PCG64 states are derived in one vectorised hash.  The
# hash has a fixed cost of a few dozen numpy calls, so a chunk spans cells:
# a sweep cell holds only a few trials.
_SEED_CHUNK = 256


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


# NumPy's SeedSequence (NEP 19) hash constants, and PCG64's 128-bit LCG
# multiplier (O'Neill 2014).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _seed_words(seed) -> Sequence[int]:
    """seed's uint32 entropy words, as SeedSequence coerces them: a
    non-negative int is its 32-bit words, least significant first (0 is
    [0]), and a sequence is its items' words in turn.  Strings, which
    SeedSequence parses, are refused."""
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


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of `calls` hash steps and after the
    last, as a read-only (calls + 1, 1) column; it does not depend on the
    data, so one array serves every chunk of the same seed length."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, step i on row i: xor with consts[i], then
    multiply by consts[i + 1]."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x
    out -= _MIX_R * y
    out ^= out >> 16
    return out


def _pool_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) seeded from each column of `entropy`, a
    (words, seeds) uint32 array, through SeedSequence's pool of 4."""
    length, k = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, length - 4))
    pool = np.zeros((4, k), dtype=np.uint32)
    pool[:length] = entropy[:4]
    pool = _hashmix(pool, consts[:5])
    # each pool word, mixed into the other three, then each further
    # entropy word into all four; call counts the hash steps taken
    call = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst],
                         _hashmix(pool[src], consts[call:call + 4]))
        call += 3
    for src in range(4, length):
        pool = _mix(pool, _hashmix(entropy[src], consts[call:call + 5]))
        call += 4
    # generate_state(4, uint64): 8 words off the pool, paired little-endian
    words = _hashmix(np.tile(pool, (2, 1)),
                     _hash_consts(_INIT_B, _MULT_B, 8))
    seeded = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(
            words.T, dtype="<u4").view("<u8").tolist():
        # PCG64's srandom: inc = 2 * initseq + 1, two LCG steps around
        # adding the initial state
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        seeded.append((state, inc))
    return seeded


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) that PCG64(SeedSequence(seed)) starts from, for
    each seed: the SeedSequence hash runs as uint32 array operations over
    every seed of one word count at once."""
    words = [_seed_words(seed) for seed in seeds]
    by_length = {}
    for i, w in enumerate(words):
        by_length.setdefault(len(w), []).append(i)
    states = [None] * len(words)
    for rows in by_length.values():
        entropy = np.array([words[i] for i in rows], dtype=np.uint32).T
        for i, state in zip(rows, _pool_states(entropy)):
            states[i] = state
    return states


class _SeedChunk:
    """Seeds whose PCG64 states are derived together, on the first request
    for any of them, and the generator their streams take turns on (None:
    one made on that request)."""

    __slots__ = ("seeds", "gen", "_states")

    def __init__(self, seeds, gen=None):
        self.seeds, self.gen, self._states = seeds, gen, None

    def state(self, i: int) -> dict:
        """Seed i's PCG64 starting state, as the bit generator's .state."""
        if self._states is None:
            self._states = _pcg64_states(self.seeds)
            if self.gen is None:
                self.gen = np.random.default_rng(0)
        state, inc = self._states[i]
        return {"bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}


class RandomTape:
    """One shared public-coin stream, consumed in lock-step by both parties.

    The tape is the stream of PCG64(SeedSequence(seed)).  It keeps its own
    bit-generator state and swaps it into a generator it shares with other
    tapes around each draw.  Its starting state comes from its chunk (seed
    `index` of it; by default a chunk of its own seed) on the first draw,
    so a run that never draws (every bucket map the identity) pays nothing
    for its tape.  `position` counts the values drawn so far.
    """

    def __init__(self, seed, chunk: _SeedChunk | None = None, index: int = 0):
        self._seed = seed
        self._chunk = chunk if chunk is not None else _SeedChunk([seed])
        self._index = index
        self._state = None
        self.position = 0

    def integers(self, upper: int, size: int | None = None) -> np.ndarray:
        if self._state is None:
            self._state = self._chunk.state(self._index)
        gen = self._chunk.gen
        gen.bit_generator.state = self._state
        self.position += size if size is not None else 1
        out = gen.integers(0, upper, size=size)
        self._state = gen.bit_generator.state
        return out


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
    trial t.  A cell's trial t takes its input (weighted_pair at weight m)
    from (*seed, t, 0) and its tape from (*seed, t, 1).  trials and every
    cell's m are checked before the first block runs."""
    n = profile.n
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cells = [(m, tuple(seed) if isinstance(seed, (tuple, list)) else (seed,))
             for m, seed in cells]
    for m, _ in cells:
        if not 0 <= m <= n:
            raise ValueError(f"weight m={m} out of range for n={n}")
    s = np.array(profile.s)
    # One generator for the whole loop; each input and each tape swaps its
    # own state in.  The seeds of _SEED_CHUNK trials, across cells, are
    # derived together: the inputs' at once, the tapes' on their first draw.
    gen = np.random.default_rng(0)
    total, size = len(cells) * trials, max(1, _DRAW_BLOCK // n)
    for lo in range(0, total, size):
        rows = range(lo, min(lo + size, total))
        X = np.empty((len(rows), n), dtype=np.uint8)
        Y = np.empty_like(X)
        tapes = []
        for row, i in enumerate(rows):
            j = i % _SEED_CHUNK
            if j == 0:
                keys = [(*cells[k // trials][1], k % trials)
                        for k in range(i, min(i + _SEED_CHUNK, total))]
                inputs = _SeedChunk([(*key, 0) for key in keys], gen)
                tape_seeds = _SeedChunk([(*key, 1) for key in keys], gen)
            gen.bit_generator.state = inputs.state(j)
            pair = weighted_pair(n, cells[i // trials][0], gen)
            X[row], Y[row] = pair.x, pair.y
            tapes.append(RandomTape(tape_seeds.seeds[j], tape_seeds, j))
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
    """Uniform x and y = x xor (uniform weight-m mask), via a seeded shuffle."""
    # The int64 draw fixes the stream; a uint8 draw would take other values.
    x = rng.integers(0, 2, size=n, dtype=np.int64).astype(np.uint8)
    y = x.copy()
    y[rng.permutation(n)[:m]] ^= 1
    # fresh 0/1 uint8 arrays of length n: InputPair's copy and checks would
    # find nothing
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
