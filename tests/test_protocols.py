import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import stream_reference as ref
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xorcomm import _streams, engine, protocols
from xorcomm.engine import (MCResult, RandomTape, Transcript,
                            mc_error_estimate, run_protocol, weighted_pair)
from xorcomm.oracle import profile_of_index
from xorcomm.protocols import (LOWER, MIDDLE, UPPER, FullSendProtocol,
                               HamProtocol, OneWayXorProtocol, ParityProtocol,
                               TwoWayXorProtocol, _any_votes,
                               _bucket_parities, _enum_reps,
                               _middle_representative, _probe_reps,
                               default_buckets, make_protocol)
from xorcomm.symfun import (InputPair, SymmetricProfile, TrivialClass,
                            evaluate_F, gap_params, parse_profile)


class TestParity:
    def test_equal_inputs(self):
        p = parse_profile("parity", 8)
        out, _ = run_protocol(ParityProtocol(), weighted_pair(8, 0, 0), p, 0)
        assert out == 0

    def test_three_flips(self):
        p = parse_profile("parity", 8)
        out, _ = run_protocol(ParityProtocol(), weighted_pair(8, 3, 1), p, 0)
        assert out == 1

    def test_one_content_bit_always(self):
        p = parse_profile("parity", 10)
        for m in range(11):
            _, t = run_protocol(ParityProtocol(), weighted_pair(10, m, m), p,
                                0)
            assert t.content_bits == 1

    @pytest.mark.parametrize("n", [3, 8, 17])
    def test_notparity_every_trial(self, n):
        # the output is S at the parity of the distance, not the parity
        # itself, which is wrong on every trial of notparity
        p = parse_profile("notparity", n)
        proto = make_protocol("parity", p)
        for res in engine.weight_estimates(proto, p, range(n + 1), 20, (n,)):
            assert res.successes == res.trials == 20

    def test_refuses_a_profile_with_a_period_break(self):
        with pytest.raises(ValueError, match="parity protocol needs a "
                           "const0, const1, parity or notparity profile"):
            make_protocol("parity", parse_profile("threshold:3", 8))


class TestFullSend:
    def test_exhaustive_n6(self):
        p = parse_profile("exact:0", 6)
        proto = FullSendProtocol()
        for xv in range(64):
            x = tuple((xv >> i) & 1 for i in range(6))
            for yv in range(64):
                y = tuple((yv >> i) & 1 for i in range(6))
                pair = InputPair(x, y)
                out, t = run_protocol(proto, pair, p, seed=0)
                assert out == evaluate_F(p, pair)
                assert t.bits_a_to_b == 6


class TestHam:
    def test_zero_distance_never_votes(self):
        proto = HamProtocol(d=0)
        p = parse_profile("threshold:0", 16)
        for s in range(20):
            out, _ = run_protocol(proto, weighted_pair(16, 0, s), p, seed=s)
            assert out == 0

    def test_d_at_least_n_is_silent(self):
        proto = HamProtocol(d=16)
        p = parse_profile("threshold:16", 16)
        out, t = run_protocol(proto, weighted_pair(16, 7, 0), p, seed=0)
        assert out == 0
        assert t.content_bits == 0

    def test_one_sided_below_threshold(self):
        # m <= d never produces a ">d" output, whatever the seed
        n, d = 32, 4
        proto = HamProtocol(d=d)
        p = parse_profile(f"threshold:{d}", n)
        for m in range(d + 1):
            for s in range(200):
                out, _ = run_protocol(proto, weighted_pair(n, m, s), p, seed=s)
                assert out == 0

    def test_exact_when_buckets_cover_positions(self):
        # identity bucket map: exhaustive over all pairs at n=6
        n = 6
        proto = HamProtocol(d=2, buckets=n)
        p = parse_profile("threshold:2", n)
        for xv in range(1 << n):
            x = tuple((xv >> i) & 1 for i in range(n))
            for yv in range(1 << n):
                pair = InputPair(x, tuple((yv >> i) & 1 for i in range(n)))
                out, _ = run_protocol(proto, pair, p, seed=0)
                assert out == evaluate_F(p, pair)

    def test_exact_per_weight_n12(self):
        n = 12
        for d in (0, 3, 7, 11):
            proto = HamProtocol(d=d, buckets=n)
            p = parse_profile(f"threshold:{d}", n)
            for m in range(n + 1):
                res = mc_error_estimate(proto, p, m, 20, seed=(d, m))
                assert res.success_rate == 1.0

    def test_bit_count_formula(self):
        n = 64
        for d, reps in ((3, 1), (3, 4), (8, 2)):
            proto = HamProtocol(d=d, repetitions=reps)
            p = parse_profile(f"threshold:{d}", n)
            _, t = run_protocol(proto, weighted_pair(n, d + 2, 0), p, seed=1)
            assert t.content_bits == reps * default_buckets(d, n)

    def test_amplification_monotone(self):
        # empirical miss rate at m = d+1 is non-increasing in repetitions
        n, d, m, trials = 128, 6, 7, 12000
        p = parse_profile(f"threshold:{d}", n)
        rates = []
        for reps in (1, 2, 4):
            proto = HamProtocol(d=d, repetitions=reps)
            res = mc_error_estimate(proto, p, m, trials, seed=17)
            rates.append(1.0 - res.success_rate)
        assert rates[0] >= rates[1] >= rates[2]


class _ReferenceChannel:
    """The references' channel: one trial's bits each way and rounds, as
    plain ints, each message sent as its payload and counted by length."""

    def __init__(self, one_way):
        self.one_way = one_way
        self.bits_a_to_b = self.bits_b_to_a = self.rounds = 0
        self._to_bob = None

    def _count(self, to_bob, bits):
        if to_bob:
            self.bits_a_to_b += len(bits)
        else:
            self.bits_b_to_a += len(bits)
        if to_bob is not self._to_bob:
            self.rounds += 1
            self._to_bob = to_bob

    def a_to_b(self, bits):
        self._count(True, bits)

    def b_to_a(self, bits):
        assert not self.one_way
        self._count(False, bits)

    def transcript(self):
        return Transcript(self.bits_a_to_b, self.bits_b_to_a, self.rounds)


def _reference_amplified_ham(x, y, d, b, reps, channel, tape, flip=False):
    """The per-repetition loop: each repetition draws its own n bucket
    indices and takes one bincount per party."""
    n = len(x)
    xa = 1 - x if flip else x
    votes = []
    for _ in range(reps):
        bucket_map = np.arange(n) if b >= n else tape.integers(b, size=n)
        pa = np.bincount(bucket_map[xa.astype(bool)], minlength=b) & 1
        channel.a_to_b(pa)
        pb = np.bincount(bucket_map[y.astype(bool)], minlength=b) & 1
        votes.append(int(np.count_nonzero(pa != pb)) > d)
    return any(votes)


def _phase_votes(x, y, tests, b, channel, tape):
    """Run the amplified tests (flip, d, reps), in order, as one phase of a
    block of one trial that sends every row; return each test's vote.
    With b < n, one _bucket_parities call counts every row, each at its
    index from the tape's position, which then moves past the phase; with
    b >= n, _any_votes counts exactly and draws nothing."""
    n = len(x)
    flips = [flip for flip, _, reps in tests for _ in range(reps)]
    channel.a_to_b(bits=len(flips) * b)
    if b >= n:
        distance = np.count_nonzero(x != y, keepdims=True)
        return [bool(_any_votes(x[None], y[None], distance, [flip], d, reps,
                                b, tape)[0, 0]) for flip, d, reps in tests]
    at = tape.position[:, None] + n * np.arange(len(flips))
    diffs = _bucket_parities(x[None], y[None], flips, b, tape, np.arange(1),
                             at)
    tape.position += len(flips) * n
    assert diffs.shape == (1, len(flips))
    diffs = diffs[0]
    votes, lo = [], 0
    for _, d, reps in tests:
        votes.append(bool((diffs[lo:lo + reps] > d).any()))
        lo += reps
    return votes


class TestAmplifiedHam:
    def check_phase(self, n, b, tests, seed):
        """Compare one phase against one reference call per test: votes,
        transcript, tape position and the tape's next values.  Alice's
        parity rows, built from x and the tape alone, are the reference's."""
        rng = np.random.default_rng(seed)
        for trial in range(6):
            # x and y differ in `trial` places, or in all but `trial`, so
            # the votes of flipped and unflipped tests go both ways
            x = rng.integers(0, 2, size=n).astype(np.uint8)
            y = x ^ np.uint8(trial % 2)
            y[rng.permutation(n)[:trial]] ^= 1
            got_ch, want_ch = engine.Channel(), _ReferenceChannel(False)
            got_tape = RandomTape(trial)
            want_tape = ref.ReferenceTape(trial)
            got = _phase_votes(x, y, tests, b, got_ch, got_tape)
            want = [_reference_amplified_ham(x, y, d, b, reps, want_ch,
                                             want_tape, flip=flip)
                    for flip, d, reps in tests]
            assert got == want
            assert got_ch.transcript() == want_ch.transcript()
            assert got_tape.position == want_tape.position
            # the shared stream continues exactly where the loop left it
            assert np.array_equal(got_tape.integers(1 << 31, size=3),
                                  want_tape.integers(1 << 31, size=3))

    # b < n draws the bucket maps off the tape (odd and even n); b >= n is
    # the identity map and draws nothing.
    @pytest.mark.parametrize("n, b, reps", [
        (33, 8, 3), (64, 18, 4), (7, 2, 5), (50, 49, 1), (20, 20, 3),
        (21, 50, 2)])
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_per_repetition_draws(self, n, b, reps, flip):
        self.check_phase(n, b, [(flip, 2, reps)], (n, b, reps))

    @pytest.mark.parametrize("n, b", [(33, 8), (20, 20), (21, 50)])
    def test_mixed_flips(self, n, b):
        # the region tests' layout, then tests at several thresholds
        tests = [(True, 3, 4), (False, 3, 4), (False, 0, 2), (True, 1, 1),
                 (False, 5, 3), (True, 0, 2)]
        self.check_phase(n, b, tests, (n, b))

    def test_phase_larger_than_one_draw_block(self):
        n, b = 601, 40
        per_block = engine._DRAW_BLOCK // n
        # two whole blocks and a part, the flip changing inside blocks
        tests = [(True, 4, per_block - 3), (False, 4, per_block + 5),
                 (True, 2, 7)]
        assert sum(reps for *_, reps in tests) * n > 2 * engine._DRAW_BLOCK
        self.check_phase(n, b, tests, 5)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_reference_any_shape(self, data):
        # b < n, b = n - 1, n, n + 1 and b > n; some examples add a test that
        # alone spans two draw blocks, at an n where that is under 1700 rows
        long_phase = data.draw(st.integers(0, 7), label="long") == 0
        n = data.draw(st.integers(40, 80) if long_phase
                      else st.integers(1, 80), label="n")
        near_n = sorted({max(1, n - 1), n, n + 1})
        b = data.draw(st.integers(1, n - 1) if long_phase else st.one_of(
            st.sampled_from(near_n), st.integers(1, 2 * n)), label="b")
        tests = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, n), st.integers(1, 4)),
            min_size=1, max_size=5), label="tests")
        if long_phase:
            flip = data.draw(st.booleans(), label="flip")
            tests.append((flip, data.draw(st.integers(0, 5)),
                          engine._DRAW_BLOCK // n + 1))
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        self.check_phase(n, b, tests, seed)

    def test_zero_rows_draw_nothing(self):
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        for b in (2, 5, 9):
            tape = RandomTape(3)
            diffs = _any_votes(x[None], x[None], [0], [], 0, 1, b, tape)
            assert diffs.size == 0
            assert tape.position == 0
            assert np.array_equal(tape.integers(1 << 31, size=3),
                                  ref.ReferenceTape(3).integers(1 << 31,
                                                                size=3))

    def test_identity_map_counts_exactly(self):
        # b >= n: the count is the distance, n minus it on a flipped row;
        # nothing is drawn.  A test votes ">d" iff its count exceeds d, so
        # a count is the number of thresholds d = 0..n it exceeds.
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        y = np.array([1, 1, 1, 0, 0], dtype=np.uint8)
        tape = RandomTape(0)
        flips, d = [True, False, True, False], np.arange(len(x) + 1)
        distance = np.count_nonzero(x != y, keepdims=True)
        votes = _any_votes(x[None], y[None], distance,
                           np.repeat(flips, len(d)), np.tile(d, len(flips)),
                           1, 8, tape)
        assert votes.reshape(len(flips), -1).sum(axis=1).tolist() == [
            3, 2, 3, 2]
        assert tape.position == 0


class TestOpenPairs:
    """A count never exceeds the distance its row tests, so _any_votes
    draws no row of a closed (trial, test) pair, one whose tested distance
    is at most its threshold."""

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_count_never_exceeds_tested_distance(self, data):
        # b < n; trials listed in any order, some twice; rows at any tape
        # index.  About 0.5 s for the 60 examples.
        n = data.draw(st.integers(2, 70), label="n")
        b = data.draw(st.integers(1, n - 1), label="b")
        k = data.draw(st.integers(1, 4), label="k")
        rows = st.lists(st.integers(0, 2 ** n - 1), min_size=k, max_size=k)
        X, Y = ((np.array(data.draw(rows, label=name), dtype=object)[:, None]
                 >> np.arange(n) & 1).astype(np.uint8)
                for name in ("X", "Y"))
        trials = np.array(data.draw(st.lists(
            st.integers(0, k - 1), min_size=1, max_size=6), label="trials"))
        R = data.draw(st.integers(1, 3), label="R")
        shape = (len(trials), R)
        flips = np.array(data.draw(st.lists(
            st.booleans(), min_size=R * len(trials), max_size=R * len(trials)),
            label="flips")).reshape(shape)
        at = np.array(data.draw(st.lists(
            st.integers(0, 2 ** 20), min_size=R * len(trials),
            max_size=R * len(trials)), label="at")).reshape(shape)
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        counts = _bucket_parities(X, Y, flips, b,
                                  RandomTape(seed, np.arange(k)), trials, at)
        distance = np.count_nonzero(X != Y, axis=1)[trials, None]
        assert (counts <= np.where(flips, n - distance, distance)).all()

    def test_closed_pairs_draw_nothing(self, tape_draws):
        # A block of 8 trials at distances from 0 to n: a phase of 4 tests
        # on every trial (as the region tests), then a phase on 5 of them,
        # each skipping 2 rows, of one test a trial at a threshold of its
        # own (as xor2way's probes on its tail trials).  Offsets 0 and 1
        # put a threshold at or above the tested distance (closed), as a
        # probe's midpoint can reach it; -1 and -3 below it (open).  Votes,
        # draws and tape ends match a draw of every row by the reference,
        # test by test.  About 0.02 s.
        n, b, reps, seed = 40, 12, 3, 9
        weights = [0, 1, 3, 6, 20, 34, 39, 40]
        pairs = [ref.pair(n, m, seed, t) for t, m in enumerate(weights)]
        X = np.array([x for x, _ in pairs])
        Y = np.array([y for _, y in pairs])
        distance = np.count_nonzero(X != Y, axis=1)
        tapes = RandomTape(seed, np.arange(len(X)))
        ends = np.zeros(len(X), dtype=np.int64)
        phases = [
            # (trials, flips, threshold offsets, skip)
            (np.arange(len(X)), np.array([[True, False, True, False]]),
             np.array([[0, -1, -3, 1]]), 0),
            (np.array([0, 2, 3, 5, 7]), np.array([[False], [True], [False],
                                                   [True], [False]]),
             np.array([[0], [-1], [1], [-3], [-1]]), 2),
        ]
        closed = 0
        for trials, flips, offsets, skip in phases:
            flips = np.broadcast_to(flips, (len(trials), flips.shape[1]))
            tested = np.where(flips, n - distance[trials, None],
                              distance[trials, None])
            thresholds = np.maximum(tested + offsets, 0)
            tape_draws.clear()
            votes = _any_votes(X, Y, distance[trials], flips, thresholds,
                               reps, b, tapes, trials, skip=skip)
            want_votes, want_draws = np.zeros_like(votes), 0
            for i, t in enumerate(trials.tolist()):
                for j, (flip, d) in enumerate(zip(flips[i], thresholds[i])):
                    row = ends[t] + n * (skip + reps * j)
                    full, first = (self.reference_vote(
                        pairs[t], seed, t, row, flip, d, b, rows)
                        for rows in (reps, 1))
                    want_votes[i, j] = full
                    if tested[i, j] > d:
                        want_draws += n if first else reps * n
                    else:
                        closed += 1
                        assert not full
            ends[trials] += n * (skip + reps * flips.shape[1])
            assert np.array_equal(votes, want_votes)
            assert sum(tape_draws) == want_draws
            assert np.array_equal(tapes.position, ends)
        assert closed >= 10

    @staticmethod
    def reference_vote(pair, seed, t, row, flip, d, b, reps):
        """The ANY-vote of trial t's `reps` repetitions from tape index
        `row`, each drawn in full by the reference."""
        tape = ref.ReferenceTape(seed, t)
        tape.position = row
        return _reference_amplified_ham(*pair, d, b, reps,
                                        _ReferenceChannel(True), tape, flip)


# --- The per-trial reference of the batched trial loop ----------------------
# The loop as it was before protocols took a block of trials: one channel,
# one tape and one protocol body per trial, every Hamming test drawing its
# own bucket maps through _reference_amplified_ham, and each trial's input
# and tape from tests/stream_reference.py.  Where a phase is the tape's
# last use, Alice sends every row but only the rows Bob reads are hashed:
# ham's repetitions after a first one that voted ">d", and xor1way's
# enumeration tests in a middle trial and on the other side of a tail
# trial, are sent by _reference_unread; ham's tape still ends past all its
# repetitions, and an upper trial skips the rows on x on its tape (when
# they would be drawn, b < n).


def _reference_parity(x, y, channel):
    pa = int(x.sum()) & 1
    channel.a_to_b((pa,))
    return (pa + int(y.sum())) & 1


def _reference_unread(channel, rows, b):
    """Alice's rows that Bob's output does not read: sent, never hashed."""
    channel.a_to_b(np.zeros(rows * b, dtype=np.uint8))


def _reference_middle(profile, r, p):
    n = profile.n
    k = next((k for k in range(r, n - r + 1) if k % 2 == p), None)
    return profile.s[k] if k is not None else profile.s[r]


def _reference_body(protocol, x, y, profile, channel, tape):
    """One trial of `protocol`, as the protocols ran before batching."""
    n, s = profile.n, profile.s
    if protocol.name == "parity":
        return s[_reference_parity(x, y, channel)]
    if protocol.name == "fullsend":
        channel.a_to_b(x)
        return s[int(np.count_nonzero(x != y))]
    if protocol.name == "ham":
        if protocol.d >= n:
            return 0
        d, reps = protocol.d, protocol.repetitions
        b = protocol.buckets or default_buckets(d, n)
        if _reference_amplified_ham(x, y, d, b, 1, channel, tape):
            _reference_unread(channel, reps - 1, b)
            if b < n:
                tape.position += (reps - 1) * n
            return 1
        return int(_reference_amplified_ham(x, y, d, b, reps - 1, channel,
                                            tape))
    gp = gap_params(profile)
    if gp.r == 0:
        if gp.trivial_class in (TrivialClass.CONST0, TrivialClass.CONST1):
            return s[0]
        return s[_reference_parity(x, y, channel)]
    r = gp.r
    b = 2 * r * r

    def test(d, reps, flip):
        return _reference_amplified_ham(x, y, d, b, reps, channel, tape, flip)

    if protocol.name == "xor1way":
        parity = _reference_parity(x, y, channel)
    up = test(r - 1, protocol.region_reps, True)
    low = test(r - 1, protocol.region_reps, False)
    region = "upper" if not up else "middle" if low else "lower"
    if protocol.name == "xor1way":
        reps = _enum_reps(r, protocol.search_rep_factor)
        if region == "middle":
            _reference_unread(channel, 2 * r * reps, b)
            return _reference_middle(profile, r, parity)
        flip = region == "upper"
        if flip:
            _reference_unread(channel, r * reps, b)
            if b < n:
                tape.position += r * reps * n
        tests = [test(d, reps, flip) for d in range(r)]
        if not flip:
            _reference_unread(channel, r * reps, b)
        for v in range(r):
            if (v == 0 or tests[v - 1]) and not tests[v]:
                return s[n - v] if flip else s[v]
        return s[0]
    channel.b_to_a({"lower": (0, 0), "middle": (0, 1),
                    "upper": (1, 0)}[region])
    if region == "middle":
        return _reference_middle(profile, r,
                                 _reference_parity(x, y, channel))
    flip = region == "upper"
    reps = _probe_reps(r, protocol.search_rep_factor)
    lo, hi = 0, r - 1
    for _ in range(math.ceil(math.log2(r)) if r > 1 else 0):
        mid = (lo + hi) // 2
        vote = test(mid, reps, flip)
        channel.b_to_a((int(vote),))
        if lo < hi:
            if vote:
                lo = mid + 1
            else:
                hi = mid
    return s[n - lo] if flip else s[lo]


def _reference_trials(protocol, profile, m, trials, seed):
    """(output, truth, transcript, tape) of each trial, one at a time."""
    for t in range(trials):
        x, y = ref.pair(profile.n, m, seed, t)
        pair = InputPair(tuple(x.tolist()), tuple(y.tolist()))
        tape = ref.ReferenceTape(seed, t)
        channel = _ReferenceChannel(protocol.one_way)
        out = int(_reference_body(protocol, pair.x, pair.y, profile, channel,
                                  tape))
        channel._count(False, (out,))  # the final answer
        yield out, evaluate_F(profile, pair), channel.transcript(), tape


def _reference_mc(rows, trials):
    bits = [t.total_bits for _, _, t, _ in rows]
    return MCResult(
        trials=trials, successes=sum(o == w for o, w, _, _ in rows),
        success_rate=sum(o == w for o, w, _, _ in rows) / trials,
        mean_bits=sum(bits) / trials, max_bits=max(bits),
        rounds_mean=sum(t.rounds for _, _, t, _ in rows) / trials)


def _logged_blocks(mp):
    """The list of the tape blocks that every engine._run_block call runs,
    those of the trial loop and run_protocol's, so a test can read them."""
    made, run_block = [], engine._run_block

    def logged(protocol, profile, X, Y, tapes):
        made.append(tapes)
        return run_block(protocol, profile, X, Y, tapes)

    mp.setattr(engine, "_run_block", logged)
    return made


def _same_tape(tapes, i, want):
    """Tape i of the block `tapes` ends where the reference tape `want`
    does, and its stream continues exactly where the reference left it."""
    assert tapes.position[i] == want.position
    assert np.array_equal(
        tapes.rows([i], tapes.position[[i]]).integers(1 << 31, size=3),
        want.integers(1 << 31, size=3))


def profile_spec(profile):
    return "bits:" + "".join(map(str, profile.s))


def check_loop(protocol, profile, weights, trials, seed, trial_block,
               draw_block):
    """Run sweep (every weight's trials in one loop), run_trials,
    mc_error_estimate and run_protocol with _TRIAL_BLOCK set to
    `trial_block` and _DRAW_BLOCK to `draw_block`, against the per-trial
    reference, trial by trial.  Return the end position of each of the
    sweep's tapes, by (m, t)."""
    n = profile.n
    want = {m: list(_reference_trials(protocol, profile, m, trials,
                                      (seed, n, m)))
            for m in weights}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_TRIAL_BLOCK", trial_block)
        mp.setattr(engine, "_DRAW_BLOCK", draw_block)
        made = _logged_blocks(mp)
        rows = engine.sweep({n: (profile, protocol)}, profile_spec(profile),
                            trials, seed, weights=weights)
        # (block, index) of each tape of the sweep, by its counter start
        tapes = {start: (block, i) for block in made
                 for i, start in enumerate(block._starts.tolist())}
        assert len(tapes) == sum(len(block._starts) for block in made) == (
            len(weights) * trials)
        tapes = {(m, t): tapes[ref.tape_start((seed, n, m), t)]
                 for m in weights for t in range(trials)}
        positions = {key: int(block.position[i])
                     for key, (block, i) in tapes.items()}
        for row, m in zip(rows, sorted(weights)):
            res = _reference_mc(want[m], trials)
            assert (row["weight"], row["success_rate"], row["mean_bits"],
                    row["max_bits"], row["rounds_mean"]) == (
                m, res.success_rate, res.mean_bits, res.max_bits,
                res.rounds_mean)
            for t, (*_, tape) in enumerate(want[m]):
                _same_tape(*tapes[m, t], tape)

        m = weights[0]
        want = list(_reference_trials(protocol, profile, m, trials, seed))
        made.clear()
        got = list(engine.run_trials(protocol, profile, m, trials, seed))
        assert got == [(out, truth, transcript)
                       for out, truth, transcript, _ in want]
        got_tapes = [(block, i) for block in made
                     for i in range(len(block._starts))]
        assert len(got_tapes) == trials
        for got_tape, (*_, want_tape) in zip(got_tapes, want):
            _same_tape(*got_tape, want_tape)
        assert engine.mc_error_estimate(protocol, profile, m, trials,
                                        seed) == _reference_mc(want, trials)

        pair = weighted_pair(n, m, seed)
        ref_tape = ref.ReferenceTape((seed, 1))
        ref_channel = _ReferenceChannel(protocol.one_way)
        out = int(_reference_body(protocol, pair.x, pair.y, profile,
                                  ref_channel, ref_tape))
        ref_channel._count(False, (out,))
        made.clear()
        assert engine.run_protocol(protocol, pair, profile, (seed, 1)) == (
            out, ref_channel.transcript())
        _same_tape(made[0], 0, ref_tape)
    return positions


class TestBatchedLoop:
    """The batched trial loop against the per-trial reference: output,
    truth, transcript, tape position and next values, per trial."""

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_matches_per_trial_reference(self, data):
        name = data.draw(st.sampled_from(
            ("parity", "fullsend", "ham", "xor2way", "xor1way")), label="name")
        n = data.draw(st.integers(1, 40), label="n")
        k = data.draw(st.integers(0, n), label="k")
        family = data.draw(st.sampled_from(
            ("threshold", "exact", "mod")), label="family")
        spec = {"threshold": f"threshold:{k}", "exact": f"exact:{k}",
                "mod": f"mod:{k % 5 + 2}:{k % 3}"}[
            "threshold" if name == "ham" else family]
        if name == "parity":  # the only profiles it decides
            spec = ("const0", "const1", "parity", "notparity")[k % 4]
        profile = parse_profile(spec, n)
        if name == "ham":
            # b < n and b >= n
            protocol = HamProtocol(
                d=k, repetitions=data.draw(st.integers(1, 4), label="reps"),
                buckets=data.draw(st.none() | st.integers(1, 2 * n),
                                  label="buckets"))
        else:
            protocol = make_protocol(name, profile)
        # the ends and the middle often, so xor2way's blocks mix regions
        weights = data.draw(st.lists(
            st.sampled_from((0, 1, n // 2, n - 1, n)) | st.integers(0, n),
            min_size=1, max_size=5, unique=True), label="weights")
        trials = data.draw(st.integers(1, 7), label="trials")
        # a small trial block splits the trials (rarely into whole blocks),
        # and a small draw block each block's inputs and each phase; the
        # two are drawn apart, so a trial block may be smaller than the
        # draw block or not a multiple of it
        sizes = (3 * n + 1, n + 5, 7 * n, 2 * n)
        trial_block = data.draw(st.sampled_from(
            (engine._TRIAL_BLOCK, *sizes)), label="trial_block")
        draw_block = data.draw(st.sampled_from(
            (engine._DRAW_BLOCK, *sizes)), label="draw_block")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        check_loop(protocol, profile, weights, trials, seed, trial_block,
                   draw_block)

    @pytest.mark.parametrize("spec, n", [("threshold:3", 40),
                                         ("exact:1", 33), ("mod:3:0", 30)])
    def test_xor2way_block_mixes_all_regions(self, spec, n):
        # lower, middle and upper trials in one block of 5, its inputs
        # sampled 3 trials at a time and some draw blocks of its phases
        # holding rows of two trials
        weights = [0, 1, 2, 3, n // 2, n - 3, n - 1, n]
        check_loop(TwoWayXorProtocol(), parse_profile(spec, n), weights, 5,
                   11, 5 * n + 3, 3 * n + 1)

    def test_trial_block_smaller_than_draw_block(self):
        # blocks of 2 trials against draw blocks of 7 rows: a block's
        # inputs take one _weighted_pairs call, and no draw block of a
        # phase is full
        n = 40
        check_loop(TwoWayXorProtocol(), parse_profile("threshold:3", n),
                   [0, 3, n // 2, n], 5, 11, 2 * n + 1, 7 * n)

    def test_phase_longer_than_draw_block(self):
        # one trial's phase spans two whole draw blocks and part of a third,
        # at the real _DRAW_BLOCK, and 3 trials split the blocks unevenly.
        # A trial at weight 3 <= d draws every repetition (its first one
        # never votes ">d"); a trial at weight 5 or 9 draws no more after a
        # first one that votes ">d", and every repetition after one that
        # misses (about 0.23 a trial at weight 5 with 40 buckets).  Both
        # happen at this seed, as the reference's first repetitions show;
        # check_loop has matched every position with the reference's, and
        # every tape ends past all the repetitions.
        n, d, b, seed = 601, 4, 40, 2
        reps = 2 * (engine._DRAW_BLOCK // n) + 7
        assert reps * n > 2 * engine._DRAW_BLOCK
        positions = check_loop(HamProtocol(d=d, buckets=b, repetitions=reps),
                               parse_profile(f"threshold:{d}", n), [3, 5, 9],
                               3, seed, engine._TRIAL_BLOCK,
                               engine._DRAW_BLOCK)
        assert len(positions) == 9
        assert set(positions.values()) == {reps * n}
        first = {(m, t): _reference_amplified_ham(
            *ref.pair(n, m, (seed, n, m), t), d, b, 1,
            _ReferenceChannel(True), ref.ReferenceTape((seed, n, m), t))
            for m, t in positions}
        assert not any(first[3, t] for t in range(3))
        assert {first[m, t] for m in (5, 9) for t in range(3)} == {False,
                                                                   True}

    @pytest.mark.parametrize("protocol", [
        TwoWayXorProtocol(), HamProtocol(d=3, buckets=10, repetitions=3)])
    def test_multi_word_seed(self, protocol):
        # 2^70 is three words, so the cell seeds (2^70, m) and
        # (2^70, n, m) are four and five words
        n = 40
        check_loop(protocol, parse_profile("threshold:3", n),
                   [0, 2, 3, 20, n], 4, 2 ** 70, engine._TRIAL_BLOCK,
                   engine._DRAW_BLOCK)

    def test_peak_memory_flat_in_trials(self):
        # A block holds at most _TRIAL_BLOCK // n = 32 trials at n = 4096,
        # so the traced peak (0.85 MB at both: one block's X and Y, 0.26
        # MB, and one draw block's arrays) is the same at 64 and at 1,024
        # trials; X and Y of all 1,024 trials alone would take 8 MB.
        p = parse_profile("threshold:8", 4096)
        proto = HamProtocol(d=8, repetitions=3)
        mc_error_estimate(proto, p, 9, 16, seed=3)  # first-call allocations
        peaks = {}
        for trials in (64, 1024):
            tracemalloc.start()
            try:
                mc_error_estimate(proto, p, 9, trials, seed=3)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[1024] - peaks[64]) < 2 ** 18
        assert peaks[1024] < 10 ** 6


class TestUnreadRows:
    """A phase that is the tape's last use draws no row that Bob's output
    does not read, and still charges every row Alice sends.  Each run is a
    block of one trial."""

    @staticmethod
    def run_one(protocol, profile, m, seed):
        pair = weighted_pair(profile.n, m, seed)
        tape = RandomTape(seed)
        out, channel = engine._run_block(protocol, profile, pair.x[None],
                                         pair.y[None], tape)
        return (int(out[0]), int(tape.position[0]),
                channel.transcript().content_bits)

    @staticmethod
    def first_vote(n, m, seed, d, b, row, flip=False):
        """Whether the repetition at tape row `row` of run_one's trial at
        weight m votes ">d", by the reference's own draw."""
        x, y = ref.pair(n, m, seed, 0)
        tape = ref.ReferenceTape(seed)
        tape.position = row * n
        return _reference_amplified_ham(x, y, d, b, 1,
                                        _ReferenceChannel(True), tape, flip)

    def test_ham_stops_after_a_far_first_repetition(self, tape_draws):
        # the tape ends past every repetition each way, as it would had
        # every row been drawn; the stop shows in the values drawn
        n, d, reps = 64, 2, 4
        b = default_buckets(d, n)
        proto, p = HamProtocol(d=d, repetitions=reps), parse_profile(
            f"threshold:{d}", n)
        bits = reps * b
        firsts = set()
        for seed in range(10):
            # weight 40 >> d: the first repetition votes ">d" and decides
            tape_draws.clear()
            assert self.run_one(proto, p, 40, seed) == (1, reps * n, bits)
            assert sum(tape_draws) == n
            # weight d: no repetition can vote ">d", so none is drawn
            tape_draws.clear()
            assert self.run_one(proto, p, d, seed) == (0, reps * n, bits)
            assert sum(tape_draws) == 0
            # weight d + 1: the first repetition decides where it votes
            # ">d"; where it misses (3 positions in 2 of 18 buckets), every
            # repetition is drawn
            first = self.first_vote(n, d + 1, seed, d, b, 0)
            firsts.add(first)
            tape_draws.clear()
            _, position, content = self.run_one(proto, p, d + 1, seed)
            assert (position, content) == (reps * n, bits)
            assert sum(tape_draws) == (n if first else reps * n)
        assert firsts == {False, True}

    def test_xor1way_middle_trial_draws_only_the_region_rows(self, regions):
        n, proto = 64, OneWayXorProtocol()
        p = parse_profile("threshold:4", n)
        r = gap_params(p).r
        region_rows = 2 * proto.region_reps
        side_rows = r * _enum_reps(r, proto.search_rep_factor)
        bits = proto.expected_content_bits(p)
        for seed in range(10):
            _, position, content = self.run_one(proto, p, n // 2, seed)
            assert regions[-1].tolist() == [MIDDLE]
            assert (position, content) == (region_rows * n, bits)
            # weight 0 is never placed in the middle (the lower test cannot
            # vote ">r-1"), and here it is lower: the trial reads the rows
            # on x, the first half of the enumeration
            _, position, content = self.run_one(proto, p, 0, seed)
            assert regions[-1].tolist() == [LOWER]
            assert (position, content) == ((region_rows + side_rows) * n,
                                           bits)
            # weight n is upper: it skips the rows on x and reads those on
            # the complement, so its tape ends where a run of every row
            # would
            _, position, content = self.run_one(proto, p, n, seed)
            assert regions[-1].tolist() == [UPPER]
            assert (position, content) == (
                (region_rows + 2 * side_rows) * n, bits)

    @staticmethod
    def region_draws(monkeypatch, tape_draws):
        """The list of the tape values drawn before each region is decided:
        the region phase's draws, in a run that draws nothing before it."""
        drawn, region = [], protocols._region

        def spy(votes):
            drawn.append(sum(tape_draws))
            return region(votes)

        monkeypatch.setattr(protocols, "_region", spy)
        return drawn

    @pytest.mark.parametrize("proto", [TwoWayXorProtocol(),
                                       OneWayXorProtocol()],
                             ids=["xor2way", "xor1way"])
    def test_region_phase_stops_after_far_first_repetitions(
            self, proto, monkeypatch, tape_draws):
        # threshold:4 at n = 64: r = 5, so b = 50 < n and the region tests
        # run the sketch at threshold r - 1 = 4
        n = 64
        p = parse_profile("threshold:4", n)
        r, R = gap_params(p).r, proto.region_reps
        assert (r, 2 * r * r) == (5, 50)
        drawn = self.region_draws(monkeypatch, tape_draws)
        bits = (proto.expected_content_bits(p, "middle")
                if proto.name == "xor2way" else proto.expected_content_bits(p))
        firsts = set()
        for seed in range(10):
            # weight n/2 is in the middle: each test's first repetition
            # votes ">4" and decides it, so the phase draws one row a test,
            # and the tape still ends past all 2R rows
            tape_draws.clear()
            out, position, content = self.run_one(proto, p, n // 2, seed)
            assert drawn[-1] == sum(tape_draws) == 2 * n
            assert (position, content) == (2 * R * n, bits)
            # weight 0: the upper test's count (n - 0 > 4) decides at its
            # first repetition; the lower test tests distance 0 <= 4, so
            # it draws nothing
            tape_draws.clear()
            self.run_one(proto, p, 0, seed)
            assert drawn[-1] == n
            # weight r = 5: the upper test (59 > 4) decides at its first
            # repetition; the lower one (5 > 4) decides at its first, row
            # R of the phase, where that votes ">4", and draws all R where
            # it misses (5 positions in fewer than 5 of 50 buckets)
            assert self.first_vote(n, r, seed, r - 1, 2 * r * r, 0, True)
            first = self.first_vote(n, r, seed, r - 1, 2 * r * r, R)
            firsts.add(first)
            tape_draws.clear()
            self.run_one(proto, p, r, seed)
            assert drawn[-1] == n + (n if first else R * n)
        assert firsts == {False, True}


class _BothSides(OneWayXorProtocol):
    """xor1way as it ran when each tail trial computed the enumeration
    rows of both sides and read its own."""

    def run(self, X, Y, profile, channel, tapes):
        gp = gap_params(profile)
        n, r = profile.n, gp.r
        s = np.array(profile.s)
        b = 2 * r * r
        parity = protocols._distance_parity(X, Y, channel)
        region_flips = [True] * self.region_reps + [False] * self.region_reps
        reps = _enum_reps(r, self.search_rep_factor)
        enum_flips = [False] * (r * reps) + [True] * (r * reps)
        channel.a_to_b(bits=(len(region_flips) + len(enum_flips)) * b)

        def next_rows(flips, trials):
            # the next len(flips) rows of each trial's tape, which moves
            # past them
            at = tapes.position[trials, None] + n * np.arange(len(flips))
            tapes.position[trials] += len(flips) * n
            return _bucket_parities(X, Y, flips, b, tapes, trials, at)

        region_diffs = next_rows(region_flips, np.arange(len(X)))
        region = protocols._region(
            (region_diffs > r - 1).reshape(len(X), 2, -1).any(axis=2))
        out = _middle_representative(profile, r, parity)
        tail = np.flatnonzero(region != MIDDLE)
        k = len(tail)
        diffs = next_rows(enum_flips, tail)
        flip = region[tail] == UPPER
        tests = (diffs.reshape(k, 2, r, reps)
                 > np.arange(r)[:, None]).any(axis=3)[np.arange(k), flip * 1]
        above_prev = np.ones_like(tests)
        above_prev[:, 1:] = tests[:, :-1]
        consistent = above_prev & ~tests
        v = consistent.argmax(axis=1)
        out[tail] = np.where(consistent.any(axis=1),
                             np.where(flip, s[n - v], s[v]), s[0])
        return out


@pytest.mark.parametrize("spec, n", [("threshold:4", 64), ("exact:1", 40),
                                     ("threshold:2", 33)])
def test_xor1way_tail_trial_reads_only_its_side(regions, spec, n):
    # A block of 3 trials at every weight, b = 2r^2 < n, so every row is
    # drawn.  Reading only its side's rows, each at the tape index it
    # holds when both sides are drawn, changes no output or transcript;
    # lower trials' tapes end r * reps rows sooner.  0.01-0.02 s a case.
    p = parse_profile(spec, n)
    r = gap_params(p).r
    assert 2 * r * r < n
    weights = np.repeat(np.arange(n + 1), 3)
    X, Y = engine._weighted_pairs(n, weights, _streams._stream_starts(
        np.full(len(weights), _streams._cell_key(7), dtype=np.uint64),
        np.arange(len(weights)), 0))
    runs = []
    for proto in (OneWayXorProtocol(), _BothSides()):
        tapes = RandomTape(7, np.arange(len(weights)))
        out, channel = engine._run_block(proto, p, X, Y, tapes)
        runs.append((out, channel, tapes.position))
    (out, channel, ends), (both_out, both_channel, both_ends) = runs
    assert np.array_equal(out, both_out)
    for field in ("bits_a_to_b", "bits_b_to_a", "rounds"):
        assert np.array_equal(getattr(channel, field),
                              getattr(both_channel, field))
    region = regions[0]
    assert np.array_equal(region, regions[1])
    assert {LOWER, MIDDLE, UPPER} <= set(region.tolist())
    side = r * _enum_reps(r, OneWayXorProtocol().search_rep_factor) * n
    assert np.array_equal(np.array(both_ends) - ends,
                          np.where(region == LOWER, side, 0))


class TestXorPhases:
    def test_r1_runs_no_probes(self, recorder):
        # exact:0 has r = 1: the tails need no search, so the region phase
        # is the last one to draw
        n, reps = 40, TwoWayXorProtocol().region_reps
        p = parse_profile("exact:0", n)
        for m in (0, n):
            pair = weighted_pair(n, m, m)
            channel, tape = recorder(), RandomTape(m)
            out, = TwoWayXorProtocol().run(pair.x[None], pair.y[None], p,
                                           channel, tape)
            assert out == evaluate_F(p, pair)
            assert tape.position == 2 * reps * n
            # one charge for the region phase's 2 * reps rows of b = 2 bits,
            # then Bob's region report
            assert channel.log == [("a2b", 2 * reps * 2), ("b2a", 2)]

    def test_identity_map_memory(self):
        # mod:3:0 at n=512 has r = 256, so b = 2r^2 = 131072 >= n: every
        # bucket map is the identity, over 8202 rows.  Traced peak of one
        # run: 35.9 MB when each test built its rows with a 2*reps*b-slot
        # bincount (reps = 16), 0.47 MB with one zero-padded row per flip,
        # 0.15 MB (warm) now that no row is built.  The R x b row matrix
        # would take 1 GB.
        p = parse_profile("mod:3:0", 512)
        pair = weighted_pair(512, 10, 0)
        tracemalloc.start()
        try:
            run_protocol(OneWayXorProtocol(), pair, p, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10 ** 6

    def test_identity_map_probes_memory(self, recorder):
        # xor2way at the same size: weight 10 is in the lower tail, so the
        # region phase is followed by ceil(log2 256) = 8 probes, each of
        # b = 2 * 256^2 bits a row.  No row is built: a fresh b-byte row
        # per probe once cost 8 MB more peak RSS at n = 4096.
        proto, b = TwoWayXorProtocol(), 2 * 256 ** 2
        p = parse_profile("mod:3:0", 512)
        pair = weighted_pair(512, 10, 0)
        channel = recorder()
        proto.run(pair.x[None], pair.y[None], p, channel, RandomTape(0))
        reps = _probe_reps(256, proto.search_rep_factor)
        assert [bits for d, bits in channel.log if d == "a2b"] == (
            [2 * proto.region_reps * b] + [reps * b] * 8)
        tracemalloc.start()
        try:
            run_protocol(proto, pair, p, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10 ** 6


class TestTwoWay:
    def test_trivial_profiles_exact_all_weights(self):
        n = 16
        proto = TwoWayXorProtocol()
        for spec in ("const0", "const1", "parity", "notparity"):
            p = parse_profile(spec, n)
            for m in range(n + 1):
                pair = weighted_pair(n, m, m)
                out, t = run_protocol(proto, pair, p, seed=m)
                assert out == evaluate_F(p, pair)
                assert t.content_bits <= 2

    def test_equality_x_equals_y(self):
        p = parse_profile("exact:0", 64)
        res = mc_error_estimate(TwoWayXorProtocol(), p, 0, 200, seed=5)
        assert res.success_rate >= 0.9

    def test_threshold_middle_region(self):
        p = parse_profile("threshold:3", 64)
        res = mc_error_estimate(TwoWayXorProtocol(), p, 10, 200, seed=5)
        assert res.success_rate >= 0.9

    def test_phase_sum_closed_form(self, regions):
        proto = TwoWayXorProtocol()
        for spec, n, ms in (("threshold:3", 48, (0, 2, 3, 20, 46)),
                            ("exact:0", 32, (0, 1, 12, 32)),
                            ("mod:4:0", 32, (0, 9, 16, 25, 32))):
            p = parse_profile(spec, n)
            for m in ms:
                pair = weighted_pair(n, m, m + 1)
                _, t = run_protocol(proto, pair, p, seed=(m, 3))
                region = {LOWER: "lower", MIDDLE: "middle",
                          UPPER: "upper"}[regions[-1][0]]
                assert t.content_bits == proto.expected_content_bits(p, region)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwoWayXorProtocol(region_reps=0)
        with pytest.raises(ValueError):
            HamProtocol(d=-1)


class TestOneWay:
    def test_no_backward_content(self, recorder):
        p = parse_profile("exact:0", 32)
        run_protocol(OneWayXorProtocol(), weighted_pair(32, 5, 0), p, 0)
        b2a = [bits for direction, bits in recorder.channels[-1].log
               if direction == "b2a"]
        assert b2a == [1]  # answer only

    def test_trivial_profiles_exact(self):
        n = 16
        proto = OneWayXorProtocol()
        for spec in ("const0", "parity"):
            p = parse_profile(spec, n)
            for m in range(n + 1):
                pair = weighted_pair(n, m, m)
                out, _ = run_protocol(proto, pair, p, seed=m)
                assert out == evaluate_F(p, pair)

    def test_equality_x_equals_y(self):
        p = parse_profile("exact:0", 32)
        res = mc_error_estimate(OneWayXorProtocol(), p, 0, 200, seed=5)
        assert res.success_rate >= 0.9

    def test_bit_count_closed_form(self):
        proto = OneWayXorProtocol()
        for spec, n, m in (("threshold:3", 48, 10), ("exact:0", 32, 2)):
            p = parse_profile(spec, n)
            _, t = run_protocol(proto, weighted_pair(n, m, 0), p, seed=2)
            assert t.content_bits == proto.expected_content_bits(p)


# The recorder only appends, so sharing it across examples is safe: each
# example reads the two channels it made last.
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_way_alice_messages_independent_of_y(recorder, data):
    # with x, the tape seed and n fixed, Alice's messages cannot depend on y
    name = data.draw(st.sampled_from(("parity", "fullsend", "ham", "xor1way")))
    n = data.draw(st.integers(1, 24))
    d = data.draw(st.integers(0, n))
    spec = f"threshold:{d}" if name == "ham" else data.draw(
        st.sampled_from((f"threshold:{d}", f"exact:{d}", "mod:3:0", "parity")
                        if name != "parity" else
                        ("const0", "const1", "parity", "notparity")))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    x, y1, y2 = data.draw(bits), data.draw(bits), data.draw(bits)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    p = parse_profile(spec, n)
    proto = make_protocol(name, p)
    run_protocol(proto, InputPair(x, y1), p, seed)
    run_protocol(proto, InputPair(x, y2), p, seed)
    a1, a2 = ([m for m in ch.log if m[0] == "a2b"]
              for ch in recorder.channels[-2:])
    assert a1 == a2


class TestFactory:
    def test_names(self):
        p = parse_profile("threshold:2", 8)
        for name, cls in (("fullsend", FullSendProtocol),
                          ("ham", HamProtocol),
                          ("xor2way", TwoWayXorProtocol),
                          ("xor1way", OneWayXorProtocol)):
            assert isinstance(make_protocol(name, p), cls)
        # parity decides only the 2-periodic profiles
        assert isinstance(make_protocol("parity", parse_profile("parity", 8)),
                          ParityProtocol)

    def test_ham_requires_threshold_profile(self):
        with pytest.raises(ValueError):
            make_protocol("ham", parse_profile("exact:2", 8))

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_protocol("quantum", parse_profile("parity", 4))

    def test_ignored_flag_refused(self):
        p = parse_profile("threshold:2", 8)
        with pytest.raises(ValueError, match="--reps"):
            make_protocol("xor2way", p, repetitions=2)
        with pytest.raises(ValueError, match="--region-reps"):
            make_protocol("ham", p, region_reps=3)
        # d is a field of ham, but the profile sets it, not a flag
        with pytest.raises(ValueError, match="does not use d"):
            make_protocol("ham", p, d=5)

    def test_protocols_are_frozen(self):
        p = parse_profile("threshold:2", 8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_protocol("ham", p).repetitions = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_protocol("xor2way", p).search_rep_factor = 3
        assert make_protocol("xor1way", p) == OneWayXorProtocol()

    def test_defaults_when_flags_omitted(self):
        p = parse_profile("threshold:2", 8)
        assert make_protocol("ham", p).params() == {
            "d": 2, "buckets": None, "repetitions": 1}
        assert make_protocol("xor1way", p).params() == {
            "region_reps": 5, "search_rep_factor": 2}


def test_middle_representative_matches_region_search():
    # the read at r + (p - r) mod 2 against the search of [r, n-r]
    for n in range(1, 11):
        for i in range(1 << (n + 1)):
            p = SymmetricProfile(n, profile_of_index(n, i))
            for r in range((n + 1) // 2 + 1):
                got = _middle_representative(p, r, np.array([0, 1]))
                assert got.tolist() == [_reference_middle(p, r, 0),
                                        _reference_middle(p, r, 1)]


def test_probe_reps_formula():
    assert _probe_reps(8, 2) == math.ceil(2 * math.log2(math.log2(8)))
    assert _probe_reps(1, 2) == _probe_reps(4, 2)
    assert _enum_reps(1, 2) == 2
    assert _enum_reps(16, 2) == 8
