"""Concrete protocols for symmetric XOR problems.

The Hamming-distance subprotocol here is a bucket-parity sketch with
one-sided error, standing in for the O(d log d) protocol the two-way and
one-way constructions assume.  Per repetition both parties hash positions
into b buckets off the shared tape; Alice sends her b bucket parities and a
repetition votes ">d" iff more than d bucket parities differ.  A differing
bucket needs an odd number of differing positions, so the vote can never
overshoot the true distance: error is one-sided and ANY-voting amplifies it
away.  Cost is repetitions * b bits, all Alice to Bob.

Every repetition of one protocol phase (ham's repetitions, xor2way's two
region tests, all of xor2way's search probes, xor1way's region and
enumeration tests) is computed by one kernel, _bucket_parities: one tape
draw and one bincount for the whole phase, split into whole-row blocks when
the phase is large.  The sends and votes still follow the protocol's order;
xor2way's probes are each sent, and voted on by Bob, one at a time.

A protocol is its parameters: a frozen dataclass (as engine.Protocol is)
that validates its fields and returns them as params().  A field made by
_flag names the CLI flag that sets it; make_protocol and the CLI's flags
and help derive from the PROTOCOLS table and those fields alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .engine import Channel, Protocol, RandomTape
from .symfun import (GapParams, SymmetricProfile, TrivialClass, gap_params,
                     threshold_of)


def default_buckets(d: int, n: int) -> int:
    return min(2 * (d + 1) ** 2, n)


def _flag(default, flag: str):
    """A dataclass field with this default that the CLI flag `flag` sets."""
    return field(default=default, metadata={"flag": flag})


# Most tape values one block of a phase draws.  A larger phase is split into
# blocks of whole rows (at least one), which bounds the memory of the draw
# and of its bincount.
_DRAW_BLOCK = 1 << 16


def _bucket_parities(x: np.ndarray, y: np.ndarray, flips, b: int,
                     tape: RandomTape) -> tuple[list, np.ndarray]:
    """Alice's bucket-parity rows and each row's count of differing buckets,
    for the repetitions of one phase.

    Row i hashes the n positions into b buckets and compares Alice's bucket
    parities with Bob's, who uses y.  Alice uses x, or its complement when
    flips[i] is true, which turns a test on |x xor y| into one on
    n - |x xor y|.  When b >= n the bucket map is the identity: nothing is
    drawn, Alice's row is her bits zero-padded to b (one array per flip,
    shared by every row that sends it) and the count is exact.  Otherwise
    the maps of all rows come from tape draws of whole rows; for PCG64 that
    is the same stream, and the same end state, as one draw of n values per
    row.

    Returns (rows, diffs): the R rows Alice sends, in order, and an int
    array of the R counts.  A repetition votes ">d" iff its count exceeds d.
    """
    flips = np.asarray(flips, dtype=bool)
    n, R = len(x), len(flips)
    if b >= n:
        distance = int(np.count_nonzero(x != y))
        padded = {}
        for flip in set(flips.tolist()):
            padded[flip] = np.zeros(b, dtype=np.uint8)
            padded[flip][:n] = x != flip
        rows = [padded[f] for f in flips.tolist()]
        return rows, np.where(flips, n - distance, distance)
    rows = np.empty((R, b), dtype=np.uint8)
    diffs = np.empty(R, dtype=np.int64)
    # codes[f][j] = a + 2*beta: a is Alice's bit j (x, or 1 - x on a
    # flipped row, f = 1) and beta is Bob's, from y
    codes = np.empty((2, n), dtype=np.int64)
    codes[0] = x != 0
    codes[1] = x == 0
    codes += 2 * (y != 0)
    flip_rows = flips.astype(np.intp)
    step = max(1, _DRAW_BLOCK // n)
    for lo in range(0, R, step):
        k = min(step, R - lo)
        # Position j of row i counts into cell ((i*b + slot) << 2) + code:
        # one bincount gives, per row and bucket, how many positions have
        # each (Alice, Bob) bit pair.
        slot = tape.integers(b, size=k * n).reshape(k, n)
        slot += b * np.arange(k)[:, None]
        slot <<= 2
        slot += codes[flip_rows[lo:lo + k]]
        cnt = np.bincount(slot.ravel(), minlength=4 * k * b).reshape(k, b, 4)
        # Alice's parity counts codes 1 and 3, Bob's 2 and 3; they differ
        # iff codes 1 and 2 together are odd
        rows[lo:lo + k] = (cnt[..., 1] + cnt[..., 3]) & 1
        diffs[lo:lo + k] = ((cnt[..., 1] + cnt[..., 2]) & 1).sum(axis=1)
    return list(rows), diffs


def _send_rows(channel: Channel, rows) -> None:
    for row in rows:
        channel.a_to_b(row)


def _distance_parity(x, y, channel: Channel) -> int:
    """|x xor y| mod 2: Alice sends |x| mod 2, Bob adds |y| mod 2."""
    pa = int(x.sum()) & 1
    channel.a_to_b((pa,))
    return (pa + int(y.sum())) & 1


class ParityProtocol(Protocol):
    """Alice sends |x| mod 2; the output is the parity of |x xor y|."""

    name = "parity"
    one_way = True

    def run(self, x, y, profile, channel, tape):
        return _distance_parity(x, y, channel)


class FullSendProtocol(Protocol):
    """Alice sends x verbatim; always correct, n content bits."""

    name = "fullsend"
    one_way = True

    def run(self, x, y, profile, channel, tape):
        channel.a_to_b(x)
        m = int(np.count_nonzero(x != y))
        return profile.s[m]


@dataclass(frozen=True)
class HamProtocol(Protocol):
    """Decides HAM_{n,d}: outputs 1 iff it claims |x xor y| > d.

    One-sided: never outputs 1 when the true distance is <= d.
    """

    name = "ham"
    one_way = True

    d: int
    buckets: int | None = _flag(None, "--buckets")  # None: default_buckets
    repetitions: int = _flag(1, "--reps")

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.buckets is not None and self.buckets < 1:
            raise ValueError("buckets must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def run(self, x, y, profile, channel, tape):
        d, n = self.d, len(x)
        if d >= n:
            return 0  # distance can never exceed n; zero communication
        b = self.buckets or default_buckets(d, n)
        rows, diffs = _bucket_parities(x, y, [False] * self.repetitions, b,
                                       tape)
        _send_rows(channel, rows)
        return int((diffs > d).any())


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


def _is_constant(gp: GapParams) -> bool:
    return gp.trivial_class in (TrivialClass.CONST0, TrivialClass.CONST1)


def _run_trivial(profile: SymmetricProfile, gp: GapParams, x, y,
                 channel: Channel) -> int:
    if _is_constant(gp):
        return profile.s[0]
    # parity-type profile: 2-periodic everywhere, so s[parity] is the answer
    return profile.s[_distance_parity(x, y, channel)]


# Bob's two-bit report of the region in the two-way protocol
_REGION_BITS = {"lower": (0, 0), "middle": (0, 1), "upper": (1, 0)}


def _region_flips(reps: int) -> list[bool]:
    """The rows of the two region tests: the upper one first, on Alice's
    flipped input (|~x xor y| = n - |x xor y|), then the lower one."""
    return [True] * reps + [False] * reps


def _region(diffs: np.ndarray, r: int) -> str:
    """Place |x xor y| in [0, r), [r, n-r] or (n-r, n]: "lower", "middle"
    or "upper", from the counts of the rows of _region_flips, each test an
    amplified one at threshold r-1."""
    up, low = (diffs > r - 1).reshape(2, -1).any(axis=1)
    if not up:
        return "upper"
    return "middle" if low else "lower"


@dataclass(frozen=True)
class _XorProtocol(Protocol):
    """Amplification shared by the XOR protocols: region_reps repetitions
    per region test; search_rep_factor scales the search and enumeration.

    Every internal Hamming test uses b = 2r^2 buckets (uncapped), keeping
    the simulated two-way cost at O(r^2 log r log log r) content bits.
    """

    region_reps: int = _flag(5, "--region-reps")
    search_rep_factor: int = _flag(2, "--search-rep-factor")

    def __post_init__(self):
        if self.region_reps < 1 or self.search_rep_factor < 1:
            raise ValueError("amplification parameters must be positive")


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
        rows, diffs = _bucket_parities(
            x, y, _region_flips(self.region_reps), b, tape)
        _send_rows(channel, rows)
        region = _region(diffs, r)
        channel.b_to_a(_REGION_BITS[region])

        if region == "middle":
            return _middle_representative(profile, r,
                                          _distance_parity(x, y, channel))

        flip = region == "upper"
        reps = _probe_reps(r, self.search_rep_factor)
        # Fixed probe count: ceil(log2 r) always suffices, and padding the
        # collapsed tail keeps the transcript length input-independent.
        # The bucket maps do not depend on the votes, so all probes are
        # hashed at once; each probe's threshold waits for the votes before.
        probes = math.ceil(math.log2(r)) if r > 1 else 0
        rows, diffs = _bucket_parities(x, y, [flip] * (probes * reps), b,
                                       tape)
        lo, hi = 0, r - 1
        for probe in range(probes):
            mid = (lo + hi) // 2
            these = slice(probe * reps, (probe + 1) * reps)
            _send_rows(channel, rows[these])
            vote = bool((diffs[these] > mid).any())
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
        if gp.r == 0:  # the parity bit, or nothing for a constant
            return 0 if _is_constant(gp) else 1
        r, b = gp.r, 2 * gp.r ** 2
        bits = 2 * self.region_reps * b + 2
        if region == "middle":
            return bits + 1
        probes = max(0, math.ceil(math.log2(r))) if r > 1 else 0
        reps = _probe_reps(r, self.search_rep_factor)
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
        parity = _distance_parity(x, y, channel)
        region_rows = 2 * self.region_reps
        reps = _enum_reps(r, self.search_rep_factor)
        # the region tests, then the tests at d = 0..r-1 on x and then on
        # its complement, all in one phase
        rows, diffs = _bucket_parities(
            x, y, _region_flips(self.region_reps)
            + [False] * (r * reps) + [True] * (r * reps), b, tape)
        _send_rows(channel, rows)
        region = _region(diffs[:region_rows], r)
        # tests[flip][d]: the amplified vote ">d"
        tests = (diffs[region_rows:].reshape(2, r, reps)
                 > np.arange(r)[:, None]).any(axis=2).tolist()

        if region == "middle":
            return _middle_representative(profile, r, parity)
        flip = region == "upper"
        for v in range(r):
            above_prev = True if v == 0 else tests[flip][v - 1]
            at_most_v = not tests[flip][v]
            if above_prev and at_most_v:
                return s[n - v] if flip else s[v]
        return s[0]

    def expected_content_bits(self, profile: SymmetricProfile) -> int:
        gp = gap_params(profile)
        if gp.r == 0:  # the parity bit, or nothing for a constant
            return 0 if _is_constant(gp) else 1
        r, b = gp.r, 2 * gp.r ** 2
        reps = _enum_reps(r, self.search_rep_factor)
        return 1 + 2 * self.region_reps * b + 2 * r * reps * b


PROTOCOLS = {cls.name: cls for cls in (ParityProtocol, FullSendProtocol,
                                       HamProtocol, TwoWayXorProtocol,
                                       OneWayXorProtocol)}
PROTOCOL_NAMES = tuple(PROTOCOLS)


def flag_fields(cls) -> dict[str, str]:
    """{field: CLI flag} of the fields of cls that a flag sets (not ham's d)."""
    return {f.name: f.metadata["flag"] for f in fields(cls)
            if "flag" in f.metadata}


# every parameter that a flag sets, in the order the CLI lists the flags
FLAGS = {key: flag for cls in PROTOCOLS.values()
         for key, flag in flag_fields(cls).items()}


def make_protocol(name: str, profile: SymmetricProfile, **flags) -> Protocol:
    """CLI-facing factory: the protocol `name` with the flags, keyed by
    field name; a flag left at None takes its default, and ham's d is the
    profile's threshold.  A flag that is not a field the named protocol
    reads raises ValueError rather than being ignored."""
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}")
    cls = PROTOCOLS[name]
    flags = {key: value for key, value in flags.items() if value is not None}
    ignored = [FLAGS.get(key, key) for key in flags
               if key not in flag_fields(cls)]
    if ignored:
        raise ValueError(f"protocol {name} does not use {', '.join(ignored)}")
    if cls is HamProtocol:
        flags["d"] = threshold_of(profile)
        if flags["d"] is None:
            raise ValueError("ham protocol needs a threshold:<d> profile")
    return cls(**flags)
