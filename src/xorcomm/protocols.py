"""Concrete protocols for symmetric XOR problems.

The Hamming-distance subprotocol here is a bucket-parity sketch with
one-sided error, standing in for the O(d log d) protocol the two-way and
one-way constructions assume.  Per repetition both parties hash positions
into b buckets off the shared tape; Alice sends her b bucket parities and a
repetition votes ">d" iff more than d bucket parities differ.  A differing
bucket needs an odd number of differing positions, so the vote can never
overshoot the true distance: error is one-sided and ANY-voting amplifies it
away.  Cost is repetitions * b bits, all Alice to Bob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Channel, Protocol, RandomTape
from .symfun import (GapParams, SymmetricProfile, TrivialClass, gap_params,
                     threshold_of)


def default_buckets(d: int, n: int) -> int:
    return min(2 * (d + 1) ** 2, n)


@dataclass(frozen=True)
class HamConfig:
    """Threshold d, bucket count, and ANY-voting repetitions."""

    d: int
    buckets: int | None = None  # None = min(2(d+1)^2, n), resolved at run time
    repetitions: int = 1

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.buckets is not None and self.buckets < 1:
            raise ValueError("buckets must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class XorProtocolConfig:
    """Amplification knobs for the two-way / one-way XOR protocols."""

    region_reps: int = 5
    search_rep_factor: int = 2

    def __post_init__(self):
        if self.region_reps < 1 or self.search_rep_factor < 1:
            raise ValueError("amplification parameters must be positive")


def _amplified_ham(x: np.ndarray, y: np.ndarray, d: int, b: int, reps: int,
                   channel: Channel, tape: RandomTape, flip: bool = False) -> bool:
    """ANY-vote of `reps` bucket-parity repetitions of "|xa xor y| > d".

    With flip=True Alice uses the complement of x, turning a test on
    |x xor y| into one on n - |x xor y|.  When b >= n the bucket map is the
    identity (no tape consumption) and each vote is exact.  Otherwise the
    maps of all repetitions come from one tape draw of reps*n values; for
    PCG64 that is the same stream, and the same end state, as reps draws of
    n values.  Alice sends one b-bit message per repetition.
    """
    n = len(x)
    if b >= n:
        bucket_map = np.arange(n)  # broadcast over the repetitions
    else:
        bucket_map = tape.integers(b, size=reps * n).reshape(reps, n)
    # Repetition i counts into buckets i*b .. i*b+b-1 (Alice) and, shifted
    # by reps*b, Bob's; one bincount then gives every parity.
    slot = bucket_map + b * np.arange(reps)[:, None]
    # x != flip is Alice's bit vector: x, or its complement when flip
    hits = np.concatenate((slot[:, x != flip].ravel(),
                           slot[:, y != 0].ravel() + reps * b))
    pa, pb = (np.bincount(hits, minlength=2 * reps * b) & 1).reshape(2, reps, b)
    for row in pa:
        channel.a_to_b(row)
    return bool(((pa != pb).sum(axis=1) > d).any())


class ParityProtocol(Protocol):
    """Alice sends |x| mod 2; the output is the parity of |x xor y|."""

    name = "parity"
    one_way = True

    def run(self, x, y, profile, channel, tape):
        pa = int(x.sum()) & 1
        channel.a_to_b((pa,))
        return (pa + int(y.sum())) & 1


class FullSendProtocol(Protocol):
    """Alice sends x verbatim; always correct, n content bits."""

    name = "fullsend"
    one_way = True

    def run(self, x, y, profile, channel, tape):
        channel.a_to_b(x)
        m = int(np.count_nonzero(x != y))
        return profile.s[m]


class HamProtocol(Protocol):
    """Decides HAM_{n,d}: outputs 1 iff it claims |x xor y| > d.

    One-sided: never outputs 1 when the true distance is <= d.
    """

    name = "ham"
    one_way = True

    def __init__(self, config: HamConfig):
        self.config = config

    def params(self):
        return {"d": self.config.d, "buckets": self.config.buckets,
                "repetitions": self.config.repetitions}

    @classmethod
    def for_profile(cls, profile: SymmetricProfile, buckets=None, repetitions=1):
        d = threshold_of(profile)
        if d is None:
            raise ValueError("ham protocol needs a threshold:<d> profile")
        return cls(HamConfig(d=d, buckets=buckets, repetitions=repetitions))

    def run(self, x, y, profile, channel, tape):
        d = self.config.d
        n = len(x)
        if d >= n:
            return 0  # distance can never exceed n; zero communication
        b = self.config.buckets or default_buckets(d, n)
        return int(_amplified_ham(x, y, d, b, self.config.repetitions,
                                  channel, tape))


def _probe_reps(r: int, factor: int) -> int:
    return math.ceil(factor * math.log2(math.log2(max(r, 4))))


def _enum_reps(r: int, factor: int) -> int:
    return math.ceil(factor * math.log2(max(r, 2)))


def _middle_representative(profile: SymmetricProfile, r: int, p: int) -> int:
    """Least k in [r, n-r] with k = p mod 2; output bit is s[k].

    On the (tiny-interval) parity mismatch the fallback is s[r], counted
    honestly as a potential error.
    """
    n = profile.n
    k = next((k for k in range(r, n - r + 1) if k % 2 == p), None)
    return profile.s[k] if k is not None else profile.s[r]


def _run_trivial(profile: SymmetricProfile, gp: GapParams, x, y,
                 channel: Channel) -> int:
    if gp.trivial_class in (TrivialClass.CONST0, TrivialClass.CONST1):
        return profile.s[0]
    # parity-type profile: 2-periodic everywhere, so s[parity] is the answer
    pa = int(x.sum()) & 1
    channel.a_to_b((pa,))
    return profile.s[(pa + int(y.sum())) & 1]


# Bob's two-bit report of the region in the two-way protocol
_REGION_BITS = {"lower": (0, 0), "middle": (0, 1), "upper": (1, 0)}


class _XorProtocol(Protocol):
    """Configuration and region location shared by the XOR protocols.

    Every internal Hamming test uses b = 2r^2 buckets (uncapped), keeping
    the simulated two-way cost at O(r^2 log r log log r) content bits.
    """

    def __init__(self, config: XorProtocolConfig = XorProtocolConfig()):
        self.config = config

    def params(self):
        return {"region_reps": self.config.region_reps,
                "search_rep_factor": self.config.search_rep_factor}

    def _region(self, x, y, r: int, b: int, channel: Channel,
                tape: RandomTape) -> str:
        """Place |x xor y| in [0, r), [r, n-r] or (n-r, n]: "lower",
        "middle" or "upper".

        Two amplified tests at threshold r-1, the upper one first and on
        Alice's flipped input (|~x xor y| = n - |x xor y|).
        """
        reps = self.config.region_reps
        up = _amplified_ham(x, y, r - 1, b, reps, channel, tape, flip=True)
        low = _amplified_ham(x, y, r - 1, b, reps, channel, tape)
        if not up:
            return "upper"
        return "middle" if low else "lower"


class TwoWayXorProtocol(_XorProtocol):
    """Region test + parity shortcut + interactive binary search.

    Phase 1 locates |x xor y| in one of three regions and Bob reports it
    with two bits.  The middle region needs only the distance parity.  A
    tail triggers a binary search whose probes are amplified
    ceil(search_rep_factor * log2 log2 r) times; Bob feeds each probe
    outcome back with one bit to steer the search.
    """

    name = "xor2way"

    def run(self, x, y, profile, channel, tape):
        gp = gap_params(profile)
        if gp.r == 0:
            return _run_trivial(profile, gp, x, y, channel)
        n, s, r = profile.n, profile.s, gp.r
        b = 2 * r * r
        region = self._region(x, y, r, b, channel, tape)
        channel.b_to_a(_REGION_BITS[region])

        if region == "middle":
            pa = int(x.sum()) & 1
            channel.a_to_b((pa,))
            return _middle_representative(profile, r, (pa + int(y.sum())) & 1)

        flip = region == "upper"
        reps = _probe_reps(r, self.config.search_rep_factor)
        # Fixed probe count: ceil(log2 r) always suffices, and padding the
        # collapsed tail keeps the transcript length input-independent.
        lo, hi = 0, r - 1
        for _ in range(math.ceil(math.log2(r)) if r > 1 else 0):
            mid = (lo + hi) // 2
            vote = _amplified_ham(x, y, mid, b, reps, channel, tape, flip=flip)
            channel.b_to_a((int(vote),))
            if lo < hi:
                if vote:
                    lo = mid + 1
                else:
                    hi = mid
        return s[n - lo] if flip else s[lo]

    def expected_content_bits(self, profile: SymmetricProfile, region: str) -> int:
        """Closed-form phase sum for one transcript, given the region taken."""
        gp = gap_params(profile)
        if gp.r == 0:
            return 0 if gp.trivial_class in (TrivialClass.CONST0,
                                             TrivialClass.CONST1) else 1
        r = gp.r
        b = 2 * r * r
        bits = 2 * self.config.region_reps * b + 2
        if region == "middle":
            return bits + 1
        probes = max(0, math.ceil(math.log2(r))) if r > 1 else 0
        reps = _probe_reps(r, self.config.search_rep_factor)
        return bits + probes * (reps * b + 1)


class OneWayXorProtocol(_XorProtocol):
    """Enumeration variant: every content message flows Alice to Bob.

    Alice ships the distance parity, both region tests, and for each
    candidate distance in the two tails the pair of Hamming tests that pin
    it down, each amplified ceil(search_rep_factor * log2 r) times.  Bob
    decodes by picking the smallest candidate whose two tests are
    consistent; one-sided test error makes smallest-consistent the natural
    rule.  Adjacent candidates share a test, so each tail needs exactly r
    distinct amplified tests.
    """

    name = "xor1way"
    one_way = True

    def run(self, x, y, profile, channel, tape):
        gp = gap_params(profile)
        if gp.r == 0:
            return _run_trivial(profile, gp, x, y, channel)
        n, s, r = profile.n, profile.s, gp.r
        b = 2 * r * r
        pa = int(x.sum()) & 1
        channel.a_to_b((pa,))
        region = self._region(x, y, r, b, channel, tape)
        reps = _enum_reps(r, self.config.search_rep_factor)
        tests = {(flip, d): _amplified_ham(x, y, d, b, reps, channel, tape,
                                           flip=flip)
                 for flip in (False, True) for d in range(r)}

        if region == "middle":
            return _middle_representative(profile, r, (pa + int(y.sum())) & 1)
        flip = region == "upper"
        for v in range(r):
            above_prev = True if v == 0 else tests[(flip, v - 1)]
            at_most_v = not tests[(flip, v)]
            if above_prev and at_most_v:
                return s[n - v] if flip else s[v]
        return s[0]

    def expected_content_bits(self, profile: SymmetricProfile) -> int:
        gp = gap_params(profile)
        if gp.r == 0:
            return 0 if gp.trivial_class in (TrivialClass.CONST0,
                                             TrivialClass.CONST1) else 1
        r = gp.r
        b = 2 * r * r
        reps = _enum_reps(r, self.config.search_rep_factor)
        return 1 + 2 * self.config.region_reps * b + 2 * r * reps * b


PROTOCOL_NAMES = ("parity", "fullsend", "ham", "xor2way", "xor1way")
# make_protocol's keyword arguments, named by the CLI flag that sets each
_CLI_FLAGS = {"buckets": "--buckets", "repetitions": "--reps",
              "region_reps": "--region-reps",
              "search_rep_factor": "--search-rep-factor"}
_READS = {"ham": ("buckets", "repetitions"),
          "xor2way": ("region_reps", "search_rep_factor"),
          "xor1way": ("region_reps", "search_rep_factor")}


def make_protocol(name: str, profile: SymmetricProfile, *, buckets=None,
                  repetitions=None, region_reps=None,
                  search_rep_factor=None) -> Protocol:
    """CLI-facing factory mapping a protocol name plus flags to an instance.

    A flag left at None takes the protocol's default.  A flag the named
    protocol does not read raises ValueError rather than being ignored.
    """
    if name not in PROTOCOL_NAMES:
        raise ValueError(f"unknown protocol {name!r}")
    flags = {key: value for key, value in (
        ("buckets", buckets), ("repetitions", repetitions),
        ("region_reps", region_reps),
        ("search_rep_factor", search_rep_factor)) if value is not None}
    ignored = [_CLI_FLAGS[key] for key in flags
               if key not in _READS.get(name, ())]
    if ignored:
        raise ValueError(f"protocol {name} does not use {', '.join(ignored)}")
    if name == "parity":
        return ParityProtocol()
    if name == "fullsend":
        return FullSendProtocol()
    if name == "ham":
        return HamProtocol.for_profile(profile, **flags)
    cls = TwoWayXorProtocol if name == "xor2way" else OneWayXorProtocol
    return cls(XorProtocolConfig(**flags))
