"""Two-party protocol execution: shared tapes, channel, transcripts, the
Monte-Carlo trial loop and sweeps.

Protocols run a block of trials at once: X and Y hold one trial's input per
row, one RandomTape holds every trial's shared tape (tape t is trial t's,
its counter start and its position two arrays) and the channel counts each
trial's bits and rounds in arrays.  _run_block runs one block (run_protocol
a block of one); _run_blocks, the one trial loop, runs every other trial
(run_trials, mc_error_estimate, weight_estimates and sweep) on the blocks
of _cell_blocks, the one place that lays out trial streams, which verify
--suite ham-onesided reads too.  A block holds at most
_TRIAL_BLOCK // n trials, so peak memory does not grow with the number of
trials, and a block samples its inputs, and draws each phase's tape
values, in draw blocks of at most _DRAW_BLOCK bits or values (or one row).

Trial t of a cell takes its input from stream 0 and its tape from stream 1
(_streams), so it is the same in any block and replays on its own.

Bits are counted, not transmitted: a send is a bit count, which the
channel charges to the trials it lists, keeping running totals per
direction and the number of rounds; no protocol builds a payload.  Bob is
the output party for every protocol; the engine appends his 1-bit answer
to the transcript so both parties know the result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Iterator

from ._np import np
from ._streams import (_GAMMA, _INPUT, _MASK64, _MAX_TRIALS, _STREAM_VALUES,
                       _TAPE, _cell_key, _cell_keys, _low_bits,
                       _stream_starts, _stream_words, _trial_starts)
from .symfun import InputPair, ProfileError, SymmetricProfile, gap_params

# Most input bits one block of trials holds (trials * n).  Each phase of a
# protocol block pays its fixed costs (kernel calls, broadcasts, channel
# charges) once, so a larger block spreads them over more trials.  The
# benchmark's sweep cells took, median of 19 fresh passes a size on a
# 2-core x86-64 Xeon, 0.097 s at 2^14, 0.070 s at 2^16 and 2^17, 0.065 s
# at 2^18 and 0.063 s at 2^20, whose passes took 0.7 MB more peak RSS.
# 2^18 doubles a block's X and Y: 1,024 trials of ham at n = 4096 then
# peak at 1.25 MB traced, against 0.85 MB at 2^17.
_TRIAL_BLOCK = 1 << 17
# Most tape values one draw block of a protocol phase takes, and most input
# bits one _weighted_pairs call samples.  A larger phase is split into
# blocks of whole rows (at least one), which bounds the memory of the draw
# and of its bincount: the traced peak of each benchmark sweep cell stays
# under 1.2 MB (under 0.65 MB when a trial block was a draw block).
# Sampling a whole block's inputs at once would hold n/64 + n uint64 words
# a trial and a sort copy of n: 17 MB at 2^20 bits and n = 512.  At 2^13
# the benchmark's sweep cells ran slower, paying more draw blocks' fixed
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


# The largest tape bound: (half * upper) >> 32 is then exact in int64.
_MAX_UPPER = 1 << 31


def _weighted_pairs(n: int, weights: np.ndarray,
                    starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The engine's input sampler: (X, Y), (k, n) uint8, row r from the
    input stream starting at counter starts[r], at XOR-weight weights[r].
    x is the low-first bits of the stream's first ceil(n/64) values; y
    flips the weights[r] positions whose keys, the next n values with the
    position in the low bits (so none tie), rank lowest."""
    head = -(-n // 64)
    words = _stream_words(starts, head + n)
    X = _low_bits(words[:, :head], n)
    keys = words[:, head:]
    keys &= ~((1 << (n - 1).bit_length()) - 1) & _MASK64
    keys |= np.arange(n, dtype=np.uint64)
    rows = np.arange(len(weights))
    cut = np.sort(keys, axis=1)[rows, np.maximum(weights - 1, 0)]
    flips = keys <= cut[:, None]
    flips[weights == 0] = False
    return X, X ^ flips


class RandomTape:
    """A block of k trials' shared public coins, each consumed in lock-step
    by both parties: RandomTape(seed, trial) holds the tape stream of each
    trial of `trial` (an int, a block of one, or a 1-D integer array) in the
    cell seeded `seed`.

    Tape value p is the 32-bit half p mod 2 (low first) of stream value
    p // 2, scaled to (half * upper) >> 32, so each of the `upper` values
    has a probability within 2^-32 of 1/upper.  A block is two arrays of
    shape (k,): _starts, the counter of each stream's value 0, and
    `position`, where each stream stands: past the values drawn, and past
    any a protocol skipped.  A run that never draws computes nothing for
    its tapes.  integers is the one way values leave a tape; rows(trials,
    firsts) is a new block of some tapes at the tape indices firsts, so a
    tape may give several rows, and drawing it moves none of this block's
    tapes: the protocol that draws it sets where each tape ends.
    """

    def __init__(self, seed, trial=0):
        self._starts = _trial_starts(seed, trial, _TAPE)
        self.position = np.zeros(len(self._starts), dtype=np.int64)

    @classmethod
    def _of(cls, starts: np.ndarray, position=0) -> RandomTape:
        """The block of the tapes whose value 0 is at the counters `starts`
        (uint64), each at `position` (a scalar or one per tape)."""
        tapes = cls.__new__(cls)
        tapes._starts = starts
        tapes.position = np.array(np.broadcast_to(position, starts.shape),
                                  dtype=np.int64)
        return tapes

    def rows(self, trials, firsts) -> RandomTape:
        """A new block whose tape j is this block's tape trials[j] at tape
        index firsts[j]."""
        return self._of(self._starts[trials], firsts)

    def integers(self, upper: int, size: int) -> np.ndarray:
        """`size` values below upper (<= 2^31) as int64: size / k off each
        of the k tapes, tape by tape, moving each past the values it gave;
        a draw past a stream's end is refused before anything is computed."""
        if not 1 <= upper <= _MAX_UPPER:
            raise ValueError(f"tape bound {upper} out of range")
        k = len(self._starts)
        width = size // k if k else 0
        if k * width != size:
            raise ValueError(f"size {size} is not {k} rows of equal width")
        firsts = self.position
        if k and int(firsts.max()) + width > 2 * _STREAM_VALUES:
            raise ValueError("draw past the end of a tape's stream")
        starts = self._starts + (firsts >> 1).astype(np.uint64) * _GAMMA
        odd = (firsts & 1).astype(bool)
        halves = _stream_words(starts, (width + 1 + odd.any()) // 2).astype(
            "<u8", copy=False).view("<u4")
        chosen = halves[:, :width]
        if odd.any():
            chosen = np.where(odd[:, None], halves[:, 1:width + 1], chosen)
        self.position = firsts + width
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
            channel: Channel, tapes: RandomTape) -> np.ndarray:
        """Run a block of trials: row t of X and Y is trial t's input and
        tape t of the block `tapes` its tape.  Returns the T outputs."""
        raise NotImplementedError

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _run_block(protocol: Protocol, profile: SymmetricProfile, X, Y,
               tapes: RandomTape) -> tuple[np.ndarray, Channel]:
    """Run one block, row t of X and Y and tape t of `tapes` being trial
    t's; return its outputs and its channel, Bob's answers counted."""
    channel = Channel(one_way=protocol.one_way, trials=len(X))
    out = np.asarray(protocol.run(X, Y, profile, channel, tapes),
                     dtype=np.int64)
    channel._final_answer()
    return out, channel


def _cell_blocks(n: int, weights, trials: int, seed,
                 prefix: bool = False) -> Iterator[tuple]:
    """The one layout of trial streams: `trials` trials of a cell at each
    weight m of weights, cell by cell, in blocks of at most
    _TRIAL_BLOCK // n trials; yield each block's (X, Y, tapes), row t of X
    and Y and tape t of `tapes` (at tape index 0) being the block's trial
    t.  The cell at m has the cell seed (*seed, m) if prefix, else seed.
    Its trial t takes its input (_weighted_pairs at weight m, a draw block
    of trials a call) from its stream 0 and its tape from its stream 1.
    trials, every m and the seed are checked before the first block."""
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be 1 to 2^31, got {trials}")
    for m in weights:
        if not 0 <= m <= n:
            raise ValueError(f"weight m={m} out of range for n={n}")
    keys = (_cell_keys(seed, weights) if prefix else
            np.full(len(weights), _cell_key(seed), dtype=np.uint64))
    weights = np.array(weights, dtype=np.int64)
    total, size = len(weights) * trials, max(1, _TRIAL_BLOCK // n)
    draw = max(1, _DRAW_BLOCK // n)
    for lo in range(0, total, size):
        cell, t = np.divmod(np.arange(lo, min(lo + size, total)), trials)
        starts = _stream_starts(keys[cell], t, _INPUT)
        X = np.empty((len(t), n), dtype=np.uint8)
        Y = np.empty_like(X)
        for i in range(0, len(t), draw):
            X[i:i + draw], Y[i:i + draw] = _weighted_pairs(
                n, weights[cell[i:i + draw]], starts[i:i + draw])
        yield X, Y, RandomTape._of(_stream_starts(keys[cell], t, _TAPE))


def _run_blocks(protocol: Protocol, profile: SymmetricProfile, weights,
                trials: int, seed, prefix: bool = False) -> Iterator[tuple]:
    """The trial loop: run the blocks of _cell_blocks (the same arguments,
    at the profile's n) and yield each block's (outputs, truths, channel),
    row t of each being the block's trial t."""
    s = np.array(profile.s)
    for X, Y, tapes in _cell_blocks(profile.n, weights, trials, seed,
                                    prefix):
        out, channel = _run_block(protocol, profile, X, Y, tapes)
        yield out, s[np.count_nonzero(X != Y, axis=1)], channel


def run_protocol(protocol: Protocol, pair: InputPair,
                 profile: SymmetricProfile, seed) -> tuple[int, Transcript]:
    """Execute one protocol run, a block of one; deterministic given seed."""
    if pair.n != profile.n:
        raise ProfileError(f"pair length {pair.n} != profile n {profile.n}")
    out, channel = _run_block(protocol, profile, pair.x[None], pair.y[None],
                              RandomTape(seed))
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


def weighted_pair(n: int, m: int, seed, trial: int = 0) -> InputPair:
    """Uniform x and y = x xor (uniform weight-m mask): the input run_trials
    gives trial `trial` (an int in [0, 2^31)) in the cell seeded `seed`."""
    if not 0 <= m <= n:
        raise ValueError(f"weight m={m} out of range for n={n}")
    X, Y = _weighted_pairs(n, np.array([m]), _trial_starts(seed, trial,
                                                            _INPUT, 0))
    # fresh 0/1 uint8 rows: InputPair's copy and checks would find nothing
    x, y = X[0], Y[0]
    x.flags.writeable = y.flags.writeable = False
    return InputPair._of_bits(x, y)


def run_trials(protocol: Protocol, profile: SymmetricProfile, m: int,
               trials: int, seed) -> Iterator[tuple[int, int, Transcript]]:
    """Yield (output, truth, transcript) for each trial at XOR-weight m."""
    for out, truth, channel in _run_blocks(protocol, profile, [m], trials,
                                           seed):
        for t in range(len(out)):
            yield int(out[t]), int(truth[t]), channel.transcript(t)


def _estimates(protocol: Protocol, profile: SymmetricProfile, weights,
               trials: int, seed, prefix: bool = False) -> list[MCResult]:
    """The MCResult of each cell of _run_blocks, all cells' trials in one
    loop."""
    successes, bits_sum, bits_max, rounds_sum = np.zeros((4, len(weights)),
                                                         dtype=np.int64)
    done = 0
    for out, truth, channel in _run_blocks(protocol, profile, weights, trials,
                                           seed, prefix):
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
    return _estimates(protocol, profile, [m], trials, seed)[0]


def weight_estimates(protocol: Protocol, profile: SymmetricProfile, weights,
                     trials: int, seed) -> list[MCResult]:
    """The MCResult at each XOR-weight of `weights`, in order, every
    weight's trials in one loop.  Weight m runs with the cell seed
    (*seed, m), seed being a sequence, whose keys are derived in one array
    pass (_cell_keys); a weight listed twice is refused."""
    weights = list(weights)
    if len(set(weights)) < len(weights):
        raise ValueError(f"weights {weights} list a weight twice")
    return _estimates(protocol, profile, weights, trials, seed, prefix=True)


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
