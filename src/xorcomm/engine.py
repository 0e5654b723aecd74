"""Two-party protocol execution: shared tape, channel, transcripts, the
Monte-Carlo trial loop and sweeps.

Bits are counted, not transmitted: the channel keeps running totals per
direction and the number of rounds, and stores no payload.  Bob is the
output party for every protocol; the engine appends his 1-bit answer to the
transcript so both parties know the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Iterator

import numpy as np

from .symfun import (InputPair, ProfileError, SymmetricProfile, evaluate_F,
                     gap_params, parse_profile)


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


class Channel:
    """Counts the bits each party sends and the rounds; stores no payload.
    Enforces the one-way restriction when declared.

    A message is any sized sequence of bits (a numpy row, x itself, a
    tuple); only its length is kept.
    """

    def __init__(self, one_way: bool = False):
        self.one_way = one_way
        self.bits_a_to_b = 0
        self.bits_b_to_a = 0
        self.rounds = 0
        self._to_bob = None  # direction of the last message

    def _count(self, to_bob: bool, bits) -> None:
        if to_bob:
            self.bits_a_to_b += len(bits)
        else:
            self.bits_b_to_a += len(bits)
        if to_bob is not self._to_bob:
            self.rounds += 1
            self._to_bob = to_bob

    def a_to_b(self, bits) -> None:
        self._count(True, bits)

    def b_to_a(self, bits) -> None:
        if self.one_way:
            raise ScheduleViolation(
                "one-way protocol attempted a Bob->Alice content message")
        self._count(False, bits)

    def _final_answer(self, bits) -> None:
        # the designated output message is exempt from the one-way check
        self._count(False, bits)

    def transcript(self) -> Transcript:
        return Transcript(self.bits_a_to_b, self.bits_b_to_a, self.rounds)


@dataclass(frozen=True)
class Protocol:
    """Base protocol: a frozen dataclass of its parameters, and run()."""

    name: ClassVar[str] = "abstract"
    one_way: ClassVar[bool] = False

    def run(self, x: np.ndarray, y: np.ndarray, profile: SymmetricProfile,
            channel: Channel, tape: RandomTape) -> int:
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


def run_protocol(protocol: Protocol, pair: InputPair,
                 profile: SymmetricProfile, seed) -> tuple[int, Transcript]:
    """Execute one protocol run; deterministic given seed."""
    if pair.n != profile.n:
        raise ProfileError(f"pair length {pair.n} != profile n {profile.n}")
    tape = RandomTape(seed)
    channel = Channel(one_way=protocol.one_way)
    out = int(protocol.run(pair.x, pair.y, profile, channel, tape))
    channel._final_answer((out,))
    return out, channel.transcript()


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


def run_trials(protocol: Protocol, profile: SymmetricProfile, m: int,
               trials: int, seed) -> Iterator[tuple[int, int, Transcript]]:
    """Yield (output, truth, transcript) for each trial at XOR-weight m.

    Trial t draws its input from the seed (*seed, t, 0) and its tape from
    (*seed, t, 1), so every trial is replayable on its own.
    """
    n = profile.n
    if not 0 <= m <= n:
        raise ValueError(f"weight m={m} out of range for n={n}")
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((*base, t, 0)))
        pair = weighted_pair(n, m, rng)
        out, transcript = run_protocol(protocol, pair, profile, (*base, t, 1))
        yield out, evaluate_F(profile, pair), transcript


def mc_error_estimate(protocol, profile: SymmetricProfile, m: int,
                      trials: int, seed) -> MCResult:
    """Empirical success rate and bit cost at exact XOR-weight m."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    successes = bits_sum = bits_max = rounds_sum = 0
    for out, truth, transcript in run_trials(protocol, profile, m, trials,
                                             seed):
        bits = transcript.total_bits
        successes += int(out == truth)
        bits_sum += bits
        bits_max = max(bits_max, bits)
        rounds_sum += transcript.rounds
    return MCResult(trials=trials, successes=successes,
                    success_rate=successes / trials,
                    mean_bits=bits_sum / trials, max_bits=bits_max,
                    rounds_mean=rounds_sum / trials)


def sweep(protocol_factory, family: str, n_list, trials: int, seed,
          weights=None) -> list[dict]:
    """Per-(n, weight) Monte-Carlo statistics rows for the CSV writer."""
    rows = []
    for n in n_list:
        profile = parse_profile(family, n)
        gp = gap_params(profile)
        protocol = protocol_factory(profile, n)
        ws = list(weights) if weights is not None else list(range(n + 1))
        for m in sorted(ws):
            res = mc_error_estimate(protocol, profile, m, trials, (seed, n, m))
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
