"""Two-party protocol execution: shared tapes, channel, transcripts, the
Monte-Carlo trial loop and sweeps.

Protocols run a block of trials at once: X and Y hold one trial's input per
row, tapes[t] is trial t's own shared tape and the channel counts each
trial's bits and rounds in arrays.  _run_blocks is the one trial loop;
run_protocol (a block of one), run_trials, mc_error_estimate and sweep all
go through it.  A block holds at most _DRAW_BLOCK // n trials, so peak
memory does not grow with the number of trials.  Trial t of a cell
with base seed s draws its input from (*s, t, 0) and its tape from
(*s, t, 1), whatever block it runs in, so every trial is replayable on its
own.

Bits are counted, not transmitted: the channel keeps running totals per
direction and the number of rounds, and stores no payload.  Bob is the
output party for every protocol; the engine appends his 1-bit answer to the
transcript so both parties know the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterator

import numpy as np

from .symfun import (InputPair, ProfileError, SymmetricProfile, gap_params,
                     parse_profile)

# Most input bits one block of trials holds (trials * n), and most tape
# values one draw block of a protocol phase takes.  A larger phase is split
# into blocks of whole rows (at least one), which bounds the memory of the
# draw and of its bincount: the traced peak of a sweep cell stays under
# 1.1 MB.  At 2^16 the blocks' arrays, and a block's seeded tapes (about
# 4 KB a trial), took about 4.5 MB more peak RSS; at 2^13 the benchmark's
# sweep cells ran slower, paying more blocks' fixed costs.
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


class RandomTape:
    """One shared public-coin stream, consumed in lock-step by both parties.

    The generator is seeded on the first draw, so a run that never draws
    (every bucket map the identity) pays nothing for its tape.
    """

    def __init__(self, seed):
        self._seed = seed
        self._gen = None
        self.position = 0

    def integers(self, upper: int, size: int | None = None) -> np.ndarray:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(self._seed)))
        self.position += size if size is not None else 1
        return self._gen.integers(0, upper, size=size)


# the direction of a trial's last message, in Channel._last
_TO_BOB, _TO_ALICE = 1, 2


class Channel:
    """Counts, for each trial of a block, the bits each party sends and the
    rounds; stores no payload.  Enforces the one-way restriction when
    declared.

    A send is an array of two or more axes: entry i of its first axis goes
    to trial trials[i] (to trial i when trials is None; a trial may take
    several entries, in order), and is one message, or along the middle
    axes that trial's messages in order; the last axis holds a message's
    bits.  Without trials, a send may also be one sized sequence of bits
    (a tuple, a numpy row), sent in every trial.  Only lengths are kept.
    """

    def __init__(self, one_way: bool = False, trials: int = 1):
        self.one_way = one_way
        self.bits_a_to_b = np.zeros(trials, dtype=np.int64)
        self.bits_b_to_a = np.zeros(trials, dtype=np.int64)
        self.rounds = np.zeros(trials, dtype=np.int64)
        self._last = np.zeros(trials, dtype=np.int8)  # 0: nothing sent yet

    def _count(self, to_bob: bool, bits, trials=None) -> None:
        totals = self.bits_a_to_b if to_bob else self.bits_b_to_a
        if trials is None:
            where = slice(None)
            totals += (len(bits) if np.ndim(bits) < 2
                       else math.prod(np.shape(bits)[1:]))
        else:
            where = trials
            np.add.at(totals, trials, math.prod(np.shape(bits)[1:]))
        # a trial that takes several rows starts at most one round
        direction = _TO_BOB if to_bob else _TO_ALICE
        self.rounds[where] += self._last[where] != direction
        self._last[where] = direction

    def a_to_b(self, bits, trials=None) -> None:
        self._count(True, bits, trials)

    def b_to_a(self, bits, trials=None) -> None:
        if self.one_way:
            raise ScheduleViolation(
                "one-way protocol attempted a Bob->Alice content message")
        self._count(False, bits, trials)

    def _final_answer(self, bits) -> None:
        # the designated output message is exempt from the one-way check
        self._count(False, bits)

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


@dataclass(frozen=True)
class ProtocolReport:
    protocol: str
    output: int
    truth: int
    correct: bool
    bits_a_to_b: int
    bits_b_to_a: int
    total_bits: int
    content_bits: int
    rounds: int
    params: dict = field(default_factory=dict)


def _run_blocks(protocol: Protocol, profile: SymmetricProfile,
                jobs) -> Iterator[tuple[np.ndarray, np.ndarray, Channel]]:
    """The trial loop: run the (pair, tape seed) jobs in blocks of at most
    _DRAW_BLOCK // n trials, and yield each block's (outputs, truths,
    channel), trial t of the block being row t of each."""
    n = profile.n
    s = np.array(profile.s)
    jobs = iter(jobs)
    while block := list(itertools.islice(jobs, max(1, _DRAW_BLOCK // n))):
        X = np.empty((len(block), n), dtype=np.uint8)
        Y = np.empty_like(X)
        for t, (pair, _) in enumerate(block):
            X[t], Y[t] = pair.x, pair.y
        tapes = [RandomTape(seed) for _, seed in block]
        channel = Channel(one_way=protocol.one_way, trials=len(block))
        out = np.asarray(protocol.run(X, Y, profile, channel, tapes),
                         dtype=np.int64)
        channel._final_answer(out[:, None])
        yield out, s[np.count_nonzero(X != Y, axis=1)], channel


def run_protocol(protocol: Protocol, pair: InputPair,
                 profile: SymmetricProfile, seed) -> tuple[int, Transcript]:
    """Execute one protocol run, a block of one; deterministic given seed."""
    if pair.n != profile.n:
        raise ProfileError(f"pair length {pair.n} != profile n {profile.n}")
    (out, _, channel), = _run_blocks(protocol, profile, [(pair, seed)])
    return int(out[0]), channel.transcript()


def make_report(protocol: Protocol, output: int, truth: int,
                transcript: Transcript) -> ProtocolReport:
    return ProtocolReport(
        protocol=protocol.name, output=output, truth=truth,
        correct=output == truth,
        bits_a_to_b=transcript.bits_a_to_b, bits_b_to_a=transcript.bits_b_to_a,
        total_bits=transcript.total_bits, content_bits=transcript.content_bits,
        rounds=transcript.rounds, params=protocol.params())


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


def _trial_jobs(n: int, m: int, trials: int, seed):
    """The (pair, tape seed) of each trial at XOR-weight m.

    Trial t draws its input from the seed (*seed, t, 0) and its tape from
    (*seed, t, 1), so every trial is replayable on its own.
    """
    if not 0 <= m <= n:
        raise ValueError(f"weight m={m} out of range for n={n}")
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((*base, t, 0)))
        yield weighted_pair(n, m, rng), (*base, t, 1)


def run_trials(protocol: Protocol, profile: SymmetricProfile, m: int,
               trials: int, seed) -> Iterator[tuple[int, int, Transcript]]:
    """Yield (output, truth, transcript) for each trial at XOR-weight m."""
    jobs = _trial_jobs(profile.n, m, trials, seed)
    for out, truth, channel in _run_blocks(protocol, profile, jobs):
        for t in range(len(out)):
            yield int(out[t]), int(truth[t]), channel.transcript(t)


def _estimates(protocol: Protocol, profile: SymmetricProfile, cells,
               trials: int) -> list[MCResult]:
    """The MCResult of each (m, seed) cell, all cells' trials in one loop."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cells = list(cells)
    jobs = itertools.chain.from_iterable(
        _trial_jobs(profile.n, m, trials, seed) for m, seed in cells)
    successes, bits_sum, bits_max, rounds_sum = np.zeros((4, len(cells)),
                                                         dtype=np.int64)
    done = 0
    for out, truth, channel in _run_blocks(protocol, profile, jobs):
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


def sweep(protocol_factory, family: str, n_list, trials: int, seed,
          weights=None) -> list[dict]:
    """Per-(n, weight) Monte-Carlo statistics rows for the CSV writer.

    The trials of every weight of one n run in one loop, so small cells
    share their blocks."""
    rows = []
    for n in n_list:
        profile = parse_profile(family, n)
        gp = gap_params(profile)
        protocol = protocol_factory(profile, n)
        ws = sorted(weights) if weights is not None else range(n + 1)
        results = _estimates(protocol, profile,
                             [(m, (seed, n, m)) for m in ws], trials)
        for m, res in zip(ws, results):
            rows.append({
                "n": n, "family": family,
                "r0": gp.r0, "r1": gp.r1, "r": gp.r,
                "protocol": protocol.name, "weight": m, "trials": trials,
                "success_rate": res.success_rate,
                "mean_bits": res.mean_bits, "max_bits": res.max_bits,
                "rounds_mean": res.rounds_mean,
            })
    rows.sort(key=lambda row: (row["n"], row["weight"]))
    return rows
