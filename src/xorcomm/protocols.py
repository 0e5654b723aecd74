"""Concrete protocols for symmetric XOR problems.

Every protocol runs a block of trials at once (see engine): row t of X and
Y is trial t's input, tape t of the block `tapes` (one engine.RandomTape)
its own tape, and run returns the T outputs.  Each step that a trial takes
is one array operation over the block; a step that only some trials take
(xor2way's middle-region parity, its search probes) runs over those trials
alone.

The Hamming-distance subprotocol here is a bucket-parity sketch with
one-sided error, standing in for the O(d log d) protocol the two-way and
one-way constructions assume.  Per repetition both parties hash positions
into b buckets off the shared tape; Alice sends her b bucket parities and a
repetition votes ">d" iff more than d bucket parities differ.  A differing
bucket needs an odd number of differing positions, so the vote can never
overshoot the true distance: error is one-sided and ANY-voting amplifies it
away.  Cost is repetitions * b bits, all Alice to Bob.

A protocol phase is a send of Alice's R rows (ham's repetitions, xor2way's
two region tests, each of xor2way's search probes, xor1way's region and
enumeration tests).  A send is a bit count (see engine.Channel), so no
protocol builds the bits it sends: a phase charges its R * b bits to each of
its trials with one channel.a_to_b, and the sketch needs, per bucket, only
how many positions have Alice's bit and Bob's differ.  The rows that Bob
reads, in every trial of the block, are counted by one kernel,
_bucket_parities: the (trial, row) pairs are one axis, split into whole-row
draw blocks of at most _DRAW_BLOCK tape values, each row drawn from its
trial's tape at its own tape index, and each draw block (tapes.rows, a
block of one tape a row) drawn by one RandomTape.integers call and counted
by one bincount.  The sends and votes still follow the protocol's order;
xor2way's probes are each sent, and voted on by Bob, one at a time.

A trial draws only the rows whose counts can change Bob's output, though
Alice still sends, and the channel still charges, every row.  Each row a
trial draws keeps its tape index, so it holds the values it would hold
were every row drawn, and the outputs and transcripts are those of a run
that counts every row.  Every amplified test is an ANY-vote, and a count
never exceeds the distance, so a test's repetitions after one that voted
">threshold" cannot change its vote.  _any_votes runs a phase of such tests
(ham's repetitions, xor2way's region tests and each of its probes,
xor1way's region tests and its enumeration tests): it draws repetition 0
of every (trial, test) pair, and the others only where it voted
"<= threshold"; each tape still ends past the whole phase, as it would had
every row been drawn.  xor1way draws its enumeration rows only in the
tail trials (a middle trial's output reads none of them), and only its
side's: a lower trial the rows on x, the first half, and an upper trial,
skipping those, the rows on the complement.

A protocol is its parameters: a frozen dataclass (as engine.Protocol is)
that validates its fields and returns them as params().  A field made by
_flag names the CLI flag that sets it; make_protocol and the CLI's flags
and help derive from the PROTOCOLS table and those fields alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from . import engine
from ._np import np
from .engine import Channel, Protocol, RandomTape
from .symfun import (GapParams, SymmetricProfile, TrivialClass, gap_params,
                     threshold_of)


def default_buckets(d: int, n: int) -> int:
    return min(2 * (d + 1) ** 2, n)


def _flag(default, flag: str):
    """A dataclass field with this default that the CLI flag `flag` sets."""
    return field(default=default, metadata={"flag": flag})


def _bucket_parities(X: np.ndarray, Y: np.ndarray, flips, b: int,
                     tapes: RandomTape, trials: np.ndarray,
                     at: np.ndarray) -> np.ndarray:
    """Count Alice's bucket-parity rows, b < n buckets, in each trial that
    `trials` lists (an index array, which may list a trial more than once):
    return each row's count of differing buckets, shape (k, R) for k
    trials.  It charges nothing and moves no tape; the caller charges the
    phase's send and sets where each tape ends.

    Each of a trial's R rows hashes the n positions into b buckets and
    compares Alice's bucket parities with Bob's, who uses y.  Alice uses x,
    or its complement where flips is true, which turns a test on
    |x xor y| into one on n - |x xor y|; flips has shape (R,), shared by the
    trials, or (k, R).  A repetition votes ">d" iff its count exceeds d.
    Row (i, j) is the n values of tape trials[i] from tape index at[i, j].

    The (trial, row) pairs form one axis, trial-major, split into draw
    blocks of whole rows, each drawn by one RandomTape.integers call.
    """
    k, n = len(trials), X.shape[1]
    flips = np.asarray(flips, dtype=bool)
    R = flips.shape[-1]
    flips = np.broadcast_to(flips, (k, R))
    # Position j's code on a row of trial t is Alice's bit xor Bob's: x xor
    # y, or its complement on a flipped row, where Alice uses 1 - x.  Row i
    # of the phase is a row of trial own[trial_of[i]], flipped iff
    # flip_of[i], at index at_of[i] of tape tape_of[i].
    own, trial_of = np.unique(trials, return_inverse=True)
    differ = X[own] ^ Y[own]
    trial_of = np.repeat(trial_of, R)
    tape_of = np.repeat(trials, R)
    flip_of = flips.reshape(-1, 1)
    at_of = np.asarray(at, dtype=np.int64).reshape(-1)
    diffs = np.empty(k * R, dtype=np.int64)
    step = max(1, min(engine._DRAW_BLOCK // n, k * R))
    offsets = b * np.arange(step)[:, None]
    for lo in range(0, k * R, step):
        hi = min(lo + step, k * R)
        slot = tapes.rows(tape_of[lo:hi], at_of[lo:hi]).integers(
            b, size=(hi - lo) * n).reshape(hi - lo, n)
        # Position j of block row i counts into cell ((i*b + slot) << 1) +
        # code: one bincount gives, per row and bucket, how many positions
        # have Alice's bit equal to Bob's and how many differ.  The
        # parities differ iff an odd number of positions differ.
        slot += offsets[:hi - lo]
        slot <<= 1
        slot += differ[trial_of[lo:hi]] ^ flip_of[lo:hi]
        cnt = np.bincount(slot.ravel(),
                          minlength=2 * (hi - lo) * b).reshape(hi - lo, b, 2)
        diffs[lo:hi] = (cnt[..., 1] & 1).sum(axis=1)
    return diffs.reshape(k, R)


def _any_votes(X: np.ndarray, Y: np.ndarray, flips, thresholds, reps: int,
               b: int, tapes: RandomTape, trials=None,
               skip=0) -> np.ndarray:
    """Run one phase of m amplified tests, each an ANY-vote of `reps`
    repetitions, in each trial that `trials` lists (an index array; None:
    every trial): return the votes, shape (k, m), true where a repetition's
    count exceeds the test's threshold.  It charges nothing; the caller
    charges the phase's send.

    Test i flips Alice's input where flips does and has threshold
    thresholds[i]; flips and thresholds broadcast to (k, m), so either may
    differ per trial.  The phase holds, after the `skip` rows a trial
    passes over (a scalar or one per trial), test i's repetitions as its
    rows i * reps ... (i + 1) * reps - 1, and each row is read at its fixed
    tape index, the tape's position plus n times the row.

    When b >= n the bucket map is the identity: each count is the distance
    itself (n minus it on a flipped row), nothing is drawn and no tape
    moves.  Otherwise, a count never exceeds the distance it tests, so once
    repetition 0 of a test votes ">threshold" the others cannot change its
    vote: repetition 0 of every (trial, test) pair is drawn, and the others
    only where it voted "<= threshold".  Every count is the one a draw of
    every row gives, and each tape ends past the phase's rows, as it would
    had every row been drawn.
    """
    if trials is None:
        trials = np.arange(len(X))
    k, n = len(trials), X.shape[1]
    flips, thresholds = np.broadcast_arrays(np.asarray(flips, dtype=bool),
                                            thresholds)
    m = flips.shape[-1]
    flips = np.broadcast_to(flips, (k, m))
    thresholds = np.broadcast_to(thresholds, (k, m))
    if b >= n:
        distance = np.count_nonzero(X[trials] != Y[trials], axis=1)[:, None]
        return np.where(flips, n - distance, distance) > thresholds
    start = tapes.position[trials] + n * np.broadcast_to(skip, (k,))
    first = start[:, None] + reps * n * np.arange(m)
    votes = _bucket_parities(X, Y, flips, b, tapes, trials, first) > thresholds
    tapes.position[trials] = start + m * reps * n
    pair, test = np.nonzero(~votes)
    if reps > 1 and len(pair):
        at = first[pair, test][:, None] + n * np.arange(1, reps)
        counts = _bucket_parities(
            X, Y, np.broadcast_to(flips[pair, test][:, None], at.shape), b,
            tapes, trials[pair], at)
        votes[pair, test] = (counts > thresholds[pair, test][:, None]).any(
            axis=1)
    return votes


def _distance_parity(X, Y, channel: Channel, trials=None) -> np.ndarray:
    """|x xor y| mod 2 in each selected trial: Alice sends |x| mod 2, Bob
    adds |y| mod 2."""
    if trials is not None:
        X, Y = X[trials], Y[trials]
    channel.a_to_b(bits=1, trials=trials)
    return (np.count_nonzero(X, axis=1) + np.count_nonzero(Y, axis=1)) & 1


class ParityProtocol(Protocol):
    """Alice sends |x| mod 2; the output is S at the parity of |x xor y|.
    That is F exactly when S is 2-periodic (const0, const1, parity or
    notparity), the only profiles make_protocol gives it."""

    name = "parity"
    one_way = True

    def run(self, X, Y, profile, channel, tapes):
        return np.array(profile.s)[_distance_parity(X, Y, channel)]


class FullSendProtocol(Protocol):
    """Alice sends x verbatim; always correct, n content bits."""

    name = "fullsend"
    one_way = True

    def run(self, X, Y, profile, channel, tapes):
        channel.a_to_b(bits=X.shape[1])
        return np.array(profile.s)[np.count_nonzero(X != Y, axis=1)]


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

    def run(self, X, Y, profile, channel, tapes):
        T, n = X.shape
        d = self.d
        if d >= n:
            # distance can never exceed n; zero communication
            return np.zeros(T, dtype=np.int64)
        b = self.buckets or default_buckets(d, n)
        R = self.repetitions
        channel.a_to_b(bits=R * b)
        return _any_votes(X, Y, [False], d, R, b, tapes)[:, 0]


def _probe_reps(r: int, factor: int) -> int:
    return math.ceil(factor * math.log2(math.log2(max(r, 4))))


def _probe_count(r: int) -> int:
    # xor2way's search probes: ceil(log2 r) always suffices, and padding the
    # collapsed tail to it keeps the transcript length input-independent
    return math.ceil(math.log2(r)) if r > 1 else 0


def _enum_reps(r: int, factor: int) -> int:
    return math.ceil(factor * math.log2(max(r, 2)))


def _middle_representative(profile: SymmetricProfile, r: int,
                           parity: np.ndarray) -> np.ndarray:
    """s[k] for the least k >= r with k = parity mod 2, in each trial:
    gap_params makes S 2-periodic on [r, n-r], so that k names its parity
    class there.

    Where that k is past n-r (the middle holds at most the point r), the
    fallback is s[r], counted honestly as a potential error.
    """
    n, s = profile.n, profile.s
    ks = [r + (p - r) % 2 for p in (0, 1)]
    return np.array([s[k] if k <= n - r else s[r] for k in ks])[parity]


def _is_constant(gp: GapParams) -> bool:
    return gp.trivial_class in (TrivialClass.CONST0, TrivialClass.CONST1)


def _run_trivial(profile: SymmetricProfile, gp: GapParams, X, Y,
                 channel: Channel) -> np.ndarray:
    if _is_constant(gp):
        return np.full(len(X), profile.s[0])
    # parity-type profile: 2-periodic everywhere, so s[parity] is the answer
    return np.array(profile.s)[_distance_parity(X, Y, channel)]


# The regions of |x xor y|: [0, r), [r, n-r] and (n-r, n]
LOWER, MIDDLE, UPPER = range(3)


# The flips of the two region tests: the upper one first, on Alice's
# flipped input (|~x xor y| = n - |x xor y|), then the lower one.
_REGION_FLIPS = (True, False)


def _region(votes: np.ndarray) -> np.ndarray:
    """Place each trial's |x xor y| in [0, r), [r, n-r] or (n-r, n]: LOWER,
    MIDDLE or UPPER, from the votes of the _REGION_FLIPS tests at threshold
    r-1 (one trial per row of votes)."""
    up, low = votes[:, 0], votes[:, 1]
    return np.where(~up, UPPER, np.where(low, MIDDLE, LOWER))


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
    outcome back with one bit to steer the search.  In a block, the middle
    trials take the parity step and only the tail trials the probes.
    """

    name = "xor2way"

    def run(self, X, Y, profile, channel, tapes):
        gp = gap_params(profile)
        if gp.r == 0:
            return _run_trivial(profile, gp, X, Y, channel)
        n, r = profile.n, gp.r
        s = np.array(profile.s)
        b = 2 * r * r
        channel.a_to_b(bits=2 * self.region_reps * b)
        region = _region(_any_votes(X, Y, _REGION_FLIPS, r - 1,
                                    self.region_reps, b, tapes))
        channel.b_to_a(bits=2)  # Bob's report of the region
        out = np.empty(len(X), dtype=np.int64)

        middle = np.flatnonzero(region == MIDDLE)
        out[middle] = _middle_representative(
            profile, r, _distance_parity(X, Y, channel, middle))

        tail = np.flatnonzero(region != MIDDLE)
        flip = region[tail] == UPPER
        reps = _probe_reps(r, self.search_rep_factor)
        lo = np.zeros(len(tail), dtype=np.int64)
        hi = np.full(len(tail), r - 1)
        for _ in range(_probe_count(r)):
            mid = (lo + hi) // 2
            channel.a_to_b(bits=reps * b, trials=tail)
            vote = _any_votes(X, Y, flip[:, None], mid[:, None], reps, b,
                              tapes, tail)[:, 0]
            channel.b_to_a(bits=1, trials=tail)
            searching = lo < hi
            lo, hi = (np.where(searching & vote, mid + 1, lo),
                      np.where(searching & ~vote, mid, hi))
        out[tail] = np.where(flip, s[n - lo], s[lo])
        return out

    def expected_content_bits(self, profile: SymmetricProfile, region: str) -> int:
        """Closed-form phase sum for one transcript, given the region taken."""
        gp = gap_params(profile)
        if gp.r == 0:  # the parity bit, or nothing for a constant
            return 0 if _is_constant(gp) else 1
        r, b = gp.r, 2 * gp.r ** 2
        bits = 2 * self.region_reps * b + 2
        if region == "middle":
            return bits + 1
        reps = _probe_reps(r, self.search_rep_factor)
        return bits + _probe_count(r) * (reps * b + 1)


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

    def run(self, X, Y, profile, channel, tapes):
        gp = gap_params(profile)
        if gp.r == 0:
            return _run_trivial(profile, gp, X, Y, channel)
        n, r = profile.n, gp.r
        s = np.array(profile.s)
        b = 2 * r * r
        parity = _distance_parity(X, Y, channel)
        reps = _enum_reps(r, self.search_rep_factor)
        # one phase: the region rows, then the tests at d = 0..r-1 on x and
        # then on its complement, of which a tail trial reads its side's
        channel.a_to_b(bits=(2 * self.region_reps + 2 * r * reps) * b)
        region = _region(_any_votes(X, Y, _REGION_FLIPS, r - 1,
                                    self.region_reps, b, tapes))
        out = _middle_representative(profile, r, parity)
        tail = np.flatnonzero(region != MIDDLE)
        flip = region[tail] == UPPER
        # tests[t, v]: tail trial t's amplified vote ">v", on its side; an
        # upper trial skips the rows on x
        tests = _any_votes(X, Y, flip[:, None], np.arange(r), reps, b, tapes,
                           tail, skip=flip * r * reps)
        # candidate v is consistent iff the test at v-1 (none at v = 0)
        # says above and the one at v says at most v
        above_prev = np.ones_like(tests)
        above_prev[:, 1:] = tests[:, :-1]
        consistent = above_prev & ~tests
        v = consistent.argmax(axis=1)
        out[tail] = np.where(consistent.any(axis=1),
                             np.where(flip, s[n - v], s[v]), s[0])
        return out

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
    reads raises ValueError rather than being ignored, as does a profile
    that ham (not a threshold) or parity (not 2-periodic) cannot decide."""
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
    if (cls is ParityProtocol
            and gap_params(profile).trivial_class is TrivialClass.NONTRIVIAL):
        raise ValueError("parity protocol needs a const0, const1, parity or "
                         "notparity profile")
    return cls(**flags)
