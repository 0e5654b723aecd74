import math
import statistics
import tracemalloc

import numpy as np
import pytest
import stream_reference as ref
from hypothesis import given
from hypothesis import strategies as st

from xorcomm import _streams, engine
from xorcomm.engine import (Channel, Protocol, RandomTape, ScheduleViolation,
                            make_report, mc_error_estimate, run_protocol,
                            run_trials, sweep, weight_estimates)
from xorcomm.protocols import (FullSendProtocol, ParityProtocol,
                               TwoWayXorProtocol, make_protocol)
from xorcomm.symfun import InputPair, ProfileError, parse_profile


def random_pair(n, seed):
    rng = np.random.default_rng(seed)
    return InputPair(tuple(int(b) for b in rng.integers(0, 2, n)),
                     tuple(int(b) for b in rng.integers(0, 2, n)))


def cells(protocol, family, *ns):
    """sweep's cells {n: (family parsed at n, protocol)}, n in the order
    given."""
    return {n: (parse_profile(family, n), protocol) for n in ns}


class TestTranscript:
    def test_bit_accounting(self):
        ch = Channel()
        ch.a_to_b(bits=4)
        ch.b_to_a(bits=1)
        ch.a_to_b(bits=2)
        ch._final_answer()
        t = ch.transcript()
        assert t.bits_a_to_b == 6
        assert t.bits_b_to_a == 2
        assert t.total_bits == 8
        assert t.content_bits == 7
        assert t.rounds == 4

    def test_empty(self):
        t = Channel().transcript()
        assert t.rounds == 0
        assert t.total_bits == 0

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 8)),
                    max_size=20))
    def test_totals_are_sum_of_payloads(self, items):
        ch = Channel()
        for to_bob, bits in items:
            if to_bob:
                ch.a_to_b(bits=bits)
            else:
                ch.b_to_a(bits=bits)
        t = ch.transcript()
        assert t.total_bits == sum(bits for _, bits in items)
        assert t.bits_a_to_b == sum(bits for to_bob, bits in items if to_bob)
        assert t.bits_a_to_b + t.bits_b_to_a == t.total_bits
        blocks = 0
        prev = None
        for to_bob, _ in items:
            if to_bob is not prev:
                blocks += 1
                prev = to_bob
        assert t.rounds == blocks


class TestChannel:
    def test_one_way_enforced(self):
        class Rogue(Protocol):
            name = "rogue"
            one_way = True

            def run(self, x, y, profile, channel, tape):
                channel.b_to_a(bits=1)
                return 0

        p = parse_profile("parity", 4)
        with pytest.raises(ScheduleViolation):
            run_protocol(Rogue(), random_pair(4, 0), p, seed=0)

    def test_send_charges_bits_per_listed_trial(self):
        ch = Channel(trials=3)
        ch.a_to_b(bits=4)  # every trial
        assert ch.bits_a_to_b.tolist() == [4, 4, 4]
        # trial 1 listed twice: charged twice, one round
        ch.b_to_a(bits=5, trials=np.array([1, 2, 1]))
        assert ch.bits_b_to_a.tolist() == [0, 10, 5]
        assert ch.rounds.tolist() == [1, 2, 2]
        ch.b_to_a(bits=3, trials=np.array([], dtype=np.int64))  # nobody
        assert ch.bits_b_to_a.tolist() == [0, 10, 5]
        assert ch.rounds.tolist() == [1, 2, 2]
        # a send is a count, never a payload
        with pytest.raises(TypeError):
            ch.a_to_b(np.zeros((3, 4)))
        with pytest.raises(TypeError):
            ch.b_to_a(1, np.array([0]))
        assert ch.bits_a_to_b.tolist() == [4, 4, 4]

    def test_final_answer_exempt(self, recorder):
        out, transcript = run_protocol(ParityProtocol(), random_pair(6, 1),
                                       parse_profile("parity", 6), seed=0)
        assert recorder.channels[-1].log[-1] == ("b2a", 1)
        assert transcript.bits_b_to_a == 1


class TestRunProtocol:
    def test_parity_bit_accounting(self):
        p = parse_profile("parity", 8)
        pair = random_pair(8, 2)
        out, t = run_protocol(ParityProtocol(), pair, p, seed=0)
        assert t.content_bits == 1
        assert t.total_bits == 2
        assert out == pair.xor_weight() % 2

    def test_fullsend_accounting(self):
        p = parse_profile("exact:0", 8)
        out, t = run_protocol(FullSendProtocol(), random_pair(8, 3), p, seed=0)
        assert t.bits_a_to_b == 8
        assert t.bits_b_to_a == 1

    def test_replay_determinism(self, recorder):
        p = parse_profile("threshold:2", 32)
        pair = random_pair(32, 4)
        proto = TwoWayXorProtocol()
        out1, t1 = run_protocol(proto, pair, p, seed=42)
        out2, t2 = run_protocol(proto, pair, p, seed=42)
        assert out1 == out2
        assert t1 == t2
        ch1, ch2 = recorder.channels
        assert ch1.log == ch2.log

    def test_length_mismatch(self):
        with pytest.raises(ProfileError):
            run_protocol(ParityProtocol(), random_pair(5, 0),
                         parse_profile("parity", 6), seed=0)

    def test_one_way_messages_independent_of_bob(self, recorder):
        # with x and the tape fixed, Alice's stream must not depend on y
        p = parse_profile("exact:0", 24)
        proto = make_protocol("xor1way", p)
        rng = np.random.default_rng(5)
        x = tuple(int(b) for b in rng.integers(0, 2, 24))
        y1 = tuple(int(b) for b in rng.integers(0, 2, 24))
        y2 = tuple(int(b) for b in rng.integers(0, 2, 24))
        run_protocol(proto, InputPair(x, y1), p, seed=7)
        run_protocol(proto, InputPair(x, y2), p, seed=7)
        a1, a2 = ([m for m in ch.log if m[0] == "a2b"]
                  for ch in recorder.channels)
        assert a1 == a2

    def test_two_way_prefix_independent_of_bob(self, recorder):
        # Alice's messages before Bob's first reply depend only on (x, tape)
        p = parse_profile("threshold:2", 24)
        proto = TwoWayXorProtocol()
        rng = np.random.default_rng(6)
        x = tuple(int(b) for b in rng.integers(0, 2, 24))
        y1 = tuple(int(b) for b in rng.integers(0, 2, 24))
        y2 = tuple(int(b) for b in rng.integers(0, 2, 24))
        run_protocol(proto, InputPair(x, y1), p, seed=7)
        run_protocol(proto, InputPair(x, y2), p, seed=7)

        def prefix(ch):
            out = []
            for m in ch.log:
                if m[0] == "b2a":
                    break
                out.append(m)
            return out

        assert prefix(recorder.channels[0]) == prefix(recorder.channels[1])


class TestTape:
    def test_same_seed_same_stream(self):
        a, b = RandomTape(3), RandomTape(3)
        assert np.array_equal(a.integers(100, size=16), b.integers(100, size=16))
        assert a.position == b.position == 16

    def test_different_seed_differs(self):
        a, b = RandomTape(3), RandomTape(4)
        assert not np.array_equal(a.integers(1 << 30, size=16),
                                  b.integers(1 << 30, size=16))

    def test_draw_block_equals_each_tape_alone(self):
        # a block of k tapes against each of its trials' tapes alone and
        # against the reference, from position 0 and then from odd
        # positions, so that draws begin mid-word
        seed, k = 4, 5
        block = RandomTape(seed, np.arange(k))
        alone = [RandomTape(seed, t) for t in range(k)]
        want = [ref.ReferenceTape(seed, t) for t in range(k)]
        end = 0
        for upper, width in ((50, 3), (2 ** 31, 4), (7, 1)):
            got = block.integers(upper, size=k * width)
            assert np.array_equal(got, np.concatenate(
                [tape.integers(upper, size=width) for tape in alone]))
            assert np.array_equal(got, np.concatenate(
                [tape.integers(upper, size=width) for tape in want]))
            end += width
            assert block.position.tolist() == [end] * k
        # rows of three tapes in one call, each at its own tape index (odd
        # ones too, and one tape's rows apart and out of order), against
        # each tape drawing its own values from that index
        rows, width = [(0, 0), (0, 5), (1, 3), (2, 0), (2, 17), (2, 6)], 5
        drawn = block.rows([t for t, _ in rows], [at for _, at in rows])
        got = drawn.integers(50, size=30)
        want = []
        for t, at in rows:
            alone = RandomTape(seed, t)
            alone.position[:] = at
            want.append(alone.integers(50, size=width))
        assert np.array_equal(got, np.concatenate(want))
        assert drawn.position.tolist() == [at + width for _, at in rows]
        # a draw block moves none of the block's tapes
        assert block.position.tolist() == [end] * k
        with pytest.raises(ValueError, match="rows of"):
            drawn.integers(50, size=29)

    def test_identity_sweep_computes_no_tape(self, monkeypatch):
        # b >= n everywhere: no tape value is computed
        sizes = []
        integers = RandomTape.integers

        def spy(tape, upper, size):
            sizes.append(size)
            return integers(tape, upper, size)

        monkeypatch.setattr(RandomTape, "integers", spy)
        rows = sweep(cells(TwoWayXorProtocol(), "threshold:8", 64),
                     "threshold:8", 3, 7)
        assert len(rows) == 65 and sizes == []

    def test_bound_and_stream_end_refused(self):
        # A tape is 2^32 stream values, 2^33 tape values.  The refusal
        # comes before anything is computed, so it allocates nothing.
        tape = RandomTape(1)
        for upper in (0, 2 ** 31 + 1):
            with pytest.raises(ValueError, match="bound"):
                tape.integers(upper, size=1)
        tape.position[:] = 2 ** 33 - 1
        block = RandomTape(1, np.arange(2))
        block.position[1] = 2 ** 33 - 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="end"):
                tape.integers(10, size=2)
            with pytest.raises(ValueError, match="end"):
                tape.rows([0, 0], [0, 2 ** 33 - 1]).integers(10, size=4)
            with pytest.raises(ValueError, match="end"):
                block.integers(10, size=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5
        assert tape.position == 2 ** 33 - 1
        assert tape.integers(10, size=1).shape == (1,)
        assert tape.position == 2 ** 33
        assert block.position.tolist() == [0, 2 ** 33 - 1]
        # trial 2^31 would take counters past 2^64: refused, a tape at once
        # and a trial loop before its first block
        with pytest.raises(ValueError, match="trial"):
            RandomTape(0, 2 ** 31)
        with pytest.raises(ValueError, match="trials"):
            next(run_trials(ParityProtocol(), parse_profile("parity", 4), 1,
                            2 ** 31 + 1, seed=0))

    @pytest.mark.parametrize("trial", [
        1.5, 1.0, True, np.True_, np.float64(2), "1", None, 2 ** 70,
        np.array([0.0, 1.0]), np.array([True, False]), np.array([[0, 1]]),
        np.array([3, -1]), np.array([0, 5, 2 ** 31])])
    def test_non_integer_trial_refused(self, trial):
        # a float or a bool must not be truncated to another trial's tape
        # (1.5 and True would replay trial 1), and every entry of an array
        # of trials is checked
        with pytest.raises(ValueError, match="trial"):
            RandomTape(3, trial)


# Seeds of every shape the engine takes: one word, several words, the empty
# tuple, tuples of 1 to 9 words, the engine's own (s, n, m) cells, also at a
# multi-word s, a list of numpy and bool items, and a nested tuple.
SEEDS = [0, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 70, (),
         *(tuple(range(3, 3 + k)) for k in range(1, 10)),
         (7, 12), (7, 64, 3), (2 ** 70, 12), (2 ** 70, 64, 3),
         [np.int64(5), True], ((1, 2), 2 ** 33)]


def ref_seed(seed):
    """seed as tests/stream_reference.py takes it: a list as a tuple."""
    return tuple(seed) if isinstance(seed, list) else seed


def chi2_critical(df, alpha):
    """The upper-alpha point of chi-square with df degrees of freedom, by
    Wilson and Hilferty's cube-root normal approximation (good to a few
    per cent at df >= 6)."""
    z = statistics.NormalDist().inv_cdf(1 - alpha)
    h = 2 / (9 * df)
    return df * (1 - h + z * math.sqrt(h)) ** 3


class TestStreams:
    """The counter-based streams: value i of stream s of trial t is
    mix64(key + ((2t + s) 2^32 + i) GAMMA mod 2^64), checked against
    tests/stream_reference.py, a one-value-at-a-time restatement on Python
    ints.  About 0.2 s in all."""

    def test_splitmix64_known_answers(self):
        # SplitMix64 seeded 0 (Steele, Lea & Flood 2014) outputs
        # mix64(i * GAMMA) for i = 1, 2, 3
        got = _streams._stream_words(np.zeros(1, dtype=np.uint64), 4)[0]
        assert got.tolist() == [0, 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]

    def test_values_match_int_reference(self):
        # every seed shape; the first, second and last trial; both streams
        for seed in SEEDS:
            key = _streams._cell_key(seed)
            assert key == ref.cell_key(ref_seed(seed))
            for t in (0, 1, 2 ** 31 - 1):
                for s in (0, 1):
                    start = _streams._stream_starts(
                        np.array([key], dtype=np.uint64), np.array([t]), s)
                    assert _streams._stream_words(start, 5)[0].tolist() == [
                        ref.value(ref_seed(seed), t, s, i) for i in range(5)]

    def test_inputs_and_tapes_match_int_reference(self):
        # odd and even draw sizes, so draws start at odd positions, and n
        # below, at and above a multiple of 64
        for seed in (0, 2 ** 70, (7, 64, 3), ((1, 2), 2 ** 33)):
            key = _streams._cell_key(seed)
            for t in (0, 3):
                tape, want = RandomTape(seed, t), ref.ReferenceTape(seed, t)
                for upper, size in ((2, 1), (1000, 3), (2 ** 31, 5), (7, 64),
                                    (50, 7)):
                    assert np.array_equal(tape.integers(upper, size),
                                          want.integers(upper, size))
                for n, m in ((1, 0), (1, 1), (5, 2), (64, 10), (65, 65),
                             (130, 7)):
                    X, Y = engine._weighted_pairs(
                        n, np.array([m]), _streams._stream_starts(
                            np.array([key], dtype=np.uint64), np.array([t]),
                            0))
                    x, y = ref.pair(n, m, seed, t)
                    assert np.array_equal(X[0], x) and np.array_equal(Y[0], y)

    def test_distinct_counters_distinct_values(self):
        # mix64 is a bijection and GAMMA is odd: no two counters of a cell
        # share a value, here the first 4 values of 500 trials' streams
        key = np.array([_streams._cell_key((5, 6))], dtype=np.uint64)
        values = [_streams._stream_words(
            _streams._stream_starts(np.repeat(key, 500), np.arange(500), s), 4)
            for s in (0, 1)]
        assert len(np.unique(np.concatenate(values, axis=None))) == 4000

    def test_trial_identical_across_block_splits(self, monkeypatch):
        # b = 18 < n = 40, so the tapes are drawn.  A trial's run does not
        # depend on the trial block it runs in nor on the draw blocks that
        # sample its input and draw its phases, and trial t run alone, on
        # its reference input and RandomTape(seed, t), is the same.  Trial
        # blocks of all 9 trials and of 1, 2, 3 and 7, against draw blocks
        # of 1 to 3 rows and of the real 409: some larger than the trial
        # block, some smaller and not dividing it.
        profile, proto = parse_profile("threshold:3", 40), TwoWayXorProtocol()
        runs = []
        for trial_block, draw_block in (
                (engine._TRIAL_BLOCK, engine._DRAW_BLOCK),
                (engine._TRIAL_BLOCK, 97), (40, engine._DRAW_BLOCK),
                (97, 3 * 40 + 1), (3 * 40 + 1, 97), (7 * 40, 3 * 40),
                (7 * 40, 40)):
            monkeypatch.setattr(engine, "_TRIAL_BLOCK", trial_block)
            monkeypatch.setattr(engine, "_DRAW_BLOCK", draw_block)
            runs.append(list(run_trials(proto, profile, 5, 9, (3, 1))))
        assert all(run == runs[0] for run in runs[1:])
        for t, (out, truth, transcript) in enumerate(runs[0]):
            x, y = ref.pair(40, 5, (3, 1), t)
            alone, channel = engine._run_block(
                proto, profile, x[None], y[None], RandomTape((3, 1), t))
            assert (int(alone[0]), channel.transcript()) == (out, transcript)

    def test_every_mask_has_weight_m(self):
        # every weight at each n, all in one block per n
        for n in (1, 2, 63, 64, 65, 130):
            weights = np.tile(np.arange(n + 1), 8)
            starts = _streams._stream_starts(
                np.full(len(weights), _streams._cell_key(n), dtype=np.uint64),
                np.arange(len(weights)), 0)
            X, Y = engine._weighted_pairs(n, weights, starts)
            assert X.dtype == Y.dtype == np.uint8
            assert set(np.unique(np.concatenate([X, Y]))) <= {0, 1}
            assert np.array_equal(np.count_nonzero(X != Y, axis=1), weights)

    # Six chi-square gates, each at alpha = 1e-4, so a uniform generator
    # fails one of them with probability at most 6e-4 (Bonferroni).
    ALPHA = 1e-4

    @pytest.mark.parametrize("m", [1, 5, 16])
    def test_position_frequencies(self, m):
        # 20,000 trials at n = 32.  Each trial flips a uniform m-subset, so
        # each position's count has mean T p, p = m / n, and Pearson's X^2
        # times (n - 1) / (n (1 - p)) is chi-square with n - 1 degrees of
        # freedom.  x's bits: each position's count of ones is
        # Binomial(T, 1/2), independently, so sum (c - T/2)^2 / (T/4) is
        # chi-square with n.  Two gates; m = 5 checks the bits.
        n, T = 32, 20000
        starts = _streams._stream_starts(
            np.full(T, _streams._cell_key((9, m)), dtype=np.uint64),
            np.arange(T), 0)
        X, Y = engine._weighted_pairs(n, np.full(T, m), starts)
        p = m / n
        counts = np.count_nonzero(X != Y, axis=0)
        stat = ((counts - T * p) ** 2).sum() / (T * p)
        assert stat * (n - 1) / (n * (1 - p)) < chi2_critical(n - 1,
                                                               self.ALPHA)
        if m == 5:
            ones = X.sum(axis=0)
            assert ((ones - T / 2) ** 2).sum() / (T / 4) < chi2_critical(
                n, self.ALPHA)

    @pytest.mark.parametrize("b", [7, 162])
    def test_bucket_frequencies(self, b):
        # 200,000 tape values off 40 tapes, drawn in rows of n = 257 (odd,
        # so half the rows start mid-word) in one draw block; Pearson's
        # X^2 with b - 1 degrees of freedom
        tapes = RandomTape((11, b), np.arange(40))
        rows = -(-200000 // (40 * 257))
        values = tapes.rows(np.repeat(np.arange(40), rows),
                            np.tile(257 * np.arange(rows), 40)).integers(
            b, size=40 * rows * 257)
        expected = len(values) / b
        stat = ((np.bincount(values, minlength=b) - expected) ** 2).sum()
        assert stat / expected < chi2_critical(b - 1, self.ALPHA)


class TestSeedDerivation:
    """A cell seed's key: its 32-bit words, coerced as numpy's SeedSequence
    coerces them, folded by mix64."""

    @pytest.mark.parametrize("seed", [-1, (3, -1), (2 ** 40, -5, 1), 1.5,
                                      (2, 0.5), (np.float64(1.0),),
                                      (np.True_,), (None, 1)])
    def test_rejects_as_numpy_does(self, seed):
        # the cell seeds numpy's SeedSequence refuses, with its exception
        with pytest.raises(Exception) as want:
            np.random.SeedSequence(seed)
        with pytest.raises(want.type):
            _streams._cell_key(seed)

    @pytest.mark.parametrize("seed", ["5", ("5", 1), b"5"])
    def test_rejects_strings(self, seed):
        with pytest.raises(TypeError):
            _streams._cell_key(seed)

    @pytest.mark.parametrize("seed", [(0,), (7,), (2 ** 32 - 1, 5), (),
                                      (2 ** 32,), (3, 2 ** 70),
                                      ((1, 2), 2 ** 33), [4, 9],
                                      np.array([6, 2 ** 40], dtype=np.uint64)])
    def test_array_keys_equal_folded_keys(self, seed):
        # one-word seeds, multi-word ones and ones with a word of 2^32 or
        # more: the one-pass keys of the cell seeds (*seed, m) are the
        # folded ones, at weights of one word, in any order
        weights = [0, 1, 5, 513, 2 ** 31, 2 ** 32 - 1, 2]
        assert _streams._cell_keys(seed, weights).tolist() == [
            _streams._cell_key((*seed, m)) for m in weights]

    @pytest.mark.parametrize("weight, error", [
        (-1, ValueError), (1.5, TypeError), ("1", TypeError),
        (2 ** 32, ValueError)])
    def test_array_keys_refuse_bad_weights(self, weight, error):
        with pytest.raises(error):
            _streams._cell_keys((3,), [0, weight])

    @pytest.mark.parametrize("seed, error", [
        ((3, -1), ValueError), (-1, ValueError), ((3, 1.5), TypeError),
        (("3",), TypeError), (1.5, TypeError)])
    def test_bad_seed_refused_before_any_block(self, monkeypatch, seed,
                                               error):
        # a negative or non-int seed item fails the key derivation of
        # every trial loop before its first block runs
        blocks = []
        monkeypatch.setattr(engine, "_run_block",
                            lambda *args: blocks.append(args))
        profile, proto = parse_profile("parity", 8), ParityProtocol()
        with pytest.raises(error):
            sweep({8: (profile, proto)}, "parity", 3, seed)
        if isinstance(seed, tuple):
            with pytest.raises(error):
                weight_estimates(proto, profile, [0, 1], 3, seed)
        with pytest.raises(error):
            mc_error_estimate(proto, profile, 1, 3, seed)
        with pytest.raises(error):
            next(run_trials(proto, profile, 1, 3, seed))
        assert blocks == []


class TestSweep:
    parity8 = cells(ParityProtocol(), "parity", 8)

    def test_empty_n_list(self):
        rows = sweep({}, "parity", 5, 0)
        assert rows == []

    def test_single_cell_deterministic(self):
        rows1 = sweep(self.parity8, "parity", 1, 3, weights=[2])
        rows2 = sweep(self.parity8, "parity", 1, 3, weights=[2])
        assert rows1 == rows2
        assert len(rows1) == 1
        assert rows1[0]["success_rate"] == 1.0

    def test_bad_weight_fails_before_any_block(self, monkeypatch):
        # three good cells of 6,000 trials take 2 blocks, the first of
        # _TRIAL_BLOCK // 8 = 16,384 trials, at n = 8
        blocks = []
        run_blocks = engine._run_blocks

        def spy(*args):
            for block in run_blocks(*args):
                blocks.append(len(block[0]))
                yield block

        monkeypatch.setattr(engine, "_run_blocks", spy)
        with pytest.raises(ValueError, match="m=99 out of range"):
            sweep(self.parity8, "parity", 6000, 0,
                  weights=[0, 1, 2, 99])
        assert blocks == []
        sweep(self.parity8, "parity", 6000, 0, weights=[0, 1, 2])
        assert blocks == [engine._TRIAL_BLOCK // 8,
                          18000 - engine._TRIAL_BLOCK // 8]

    def test_repeated_weight_refused(self):
        with pytest.raises(ValueError, match="list a weight twice"):
            sweep(self.parity8, "parity", 1, 3, weights=[2, 1, 2])

    def test_weight_cells_are_seeded_cells(self):
        # weight m of weight_estimates runs the cell seeded (*seed, m)
        profile = parse_profile("threshold:2", 16)
        proto = TwoWayXorProtocol()
        got = weight_estimates(proto, profile, [5, 0, 3], 4, (9, 16))
        assert got == [mc_error_estimate(proto, profile, m, 4, (9, 16, m))
                       for m in (5, 0, 3)]

    def test_rows_sorted(self):
        rows = sweep(cells(FullSendProtocol(), "threshold:1", 4, 2),
                     "threshold:1", 1, 0)
        keys = [(r["n"], r["weight"]) for r in rows]
        assert keys == sorted(keys)


class TestMonteCarlo:
    def test_zero_trials_refused(self):
        # no trials would give an estimate from nothing
        with pytest.raises(ValueError, match="trials"):
            mc_error_estimate(ParityProtocol(), parse_profile("parity", 4), 1,
                              0, seed=0)
        # and a trial generator of none is refused, not silently empty
        with pytest.raises(ValueError, match="trials"):
            next(run_trials(ParityProtocol(), parse_profile("parity", 4), 1,
                            0, seed=0))


class TestReport:
    def test_correct_flag(self):
        p = parse_profile("parity", 6)
        pair = random_pair(6, 8)
        out, t = run_protocol(ParityProtocol(), pair, p, seed=0)
        rep = make_report(ParityProtocol(), out, out, t)
        assert rep["correct"]
        rep2 = make_report(ParityProtocol(), out, 1 - out, t)
        assert not rep2["correct"]
