import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xorcomm import engine
from xorcomm.engine import (Channel, Protocol, RandomTape, ScheduleViolation,
                            _pcg64_states, _SeedChunk, make_report,
                            mc_error_estimate, run_protocol, run_trials,
                            sweep, weight_estimates, weighted_pair)
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


    def test_interleaved_tapes_match_independent_streams(self):
        # two tapes take turns on one generator; after an odd number of
        # values below 2^32 PCG64 holds half a 64-bit word, which must
        # carry over to the tape's next draw
        seeds = [(4, 0, 1), (4, 1, 1)]
        chunk = _SeedChunk(seeds, np.random.default_rng(0))
        shared = [RandomTape(seed, chunk, i) for i, seed in enumerate(seeds)]
        alone = [np.random.default_rng(np.random.SeedSequence(seed))
                 for seed in seeds]
        for size in (1, 3, 5, 7):
            for tape, rng in zip(shared, alone):
                assert np.array_equal(tape.integers(1000, size=size),
                                      rng.integers(0, 1000, size=size))
                assert tape._state["has_uint32"] == tape.position % 2
                assert tape._state == rng.bit_generator.state
        for tape, rng in zip(shared, alone):
            assert tape.integers(1 << 40) == rng.integers(0, 1 << 40)
            assert tape.position == 17

    def test_undrawn_tapes_derive_no_state(self, monkeypatch):
        chunk = _SeedChunk([(5, t, 1) for t in range(3)],
                           np.random.default_rng(0))
        tapes = [RandomTape(seed, chunk, i)
                 for i, seed in enumerate(chunk.seeds)]
        assert chunk._states is None
        tapes[1].integers(9, size=2)
        assert chunk._states is not None  # the whole chunk, at once
        assert tapes[0]._state is None and tapes[2]._state is None
        # a sweep at b >= n draws nothing: only its inputs are derived
        derived = []

        def spy(seeds):
            derived.extend(seeds)
            return _pcg64_states(seeds)

        monkeypatch.setattr(engine, "_pcg64_states", spy)
        rows = sweep(cells(TwoWayXorProtocol(), "threshold:8", 64),
                     "threshold:8", 3, 7)
        assert len(rows) == 65
        assert len(derived) == 65 * 3
        assert all(seed[-1] == 0 for seed in derived)


# Seeds of every shape the engine derives: one word, several words, tuples
# shorter and longer than SeedSequence's pool of 4, and the engine's own
# (s, t, 0|1) and (s, n, m, t, 0|1), also at a multi-word s.
SEEDS = [0, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 70, (),
         *(tuple(range(3, 3 + k)) for k in range(1, 10)),
         (7, 12, 0), (7, 12, 1), (7, 64, 3, 12, 0), (7, 64, 3, 12, 1),
         (2 ** 70, 12, 0), (2 ** 70, 64, 3, 12, 1), [np.int64(5), True],
         ((1, 2), 2 ** 33)]


class TestSeedDerivation:
    def test_matches_numpy(self):
        # every word count in one call
        for seed, got in zip(SEEDS, _pcg64_states(SEEDS)):
            want = np.random.PCG64(np.random.SeedSequence(seed)).state
            assert got == (want["state"]["state"], want["state"]["inc"])

    @pytest.mark.parametrize("seed", [-1, (3, -1), (2 ** 40, -5, 1), 1.5,
                                      (2, 0.5), (np.float64(1.0),),
                                      (np.True_,), (None, 1)])
    def test_rejects_as_numpy_does(self, seed):
        with pytest.raises(Exception) as want:
            np.random.SeedSequence(seed)
        with pytest.raises(want.type):
            _pcg64_states([seed])

    def test_hash_constants_are_shared_and_read_only(self):
        # one cached column serves every chunk of a seed length, so no
        # derivation may write to it
        first = _pcg64_states(SEEDS)
        consts = engine._hash_consts(engine._INIT_A, engine._MULT_A, 16)
        assert consts is engine._hash_consts(engine._INIT_A, engine._MULT_A, 16)
        with pytest.raises(ValueError):
            consts[0, 0] = 0
        assert _pcg64_states(SEEDS) == first

    def test_shared_generator_draws_as_fresh_one(self):
        chunk = _SeedChunk(SEEDS, np.random.default_rng(0))
        for i, seed in enumerate(SEEDS):
            chunk.gen.bit_generator.state = chunk.state(i)
            fresh = np.random.default_rng(np.random.SeedSequence(seed))
            assert np.array_equal(
                chunk.gen.integers(0, 2, size=33, dtype=np.int64),
                fresh.integers(0, 2, size=33, dtype=np.int64))
            assert np.array_equal(chunk.gen.permutation(33),
                                  fresh.permutation(33))
            assert chunk.gen.bit_generator.state == fresh.bit_generator.state
            chunk.gen.bit_generator.state = chunk.state(i)
            fresh = np.random.default_rng(np.random.SeedSequence(seed))
            got, want = weighted_pair(40, 9, chunk.gen), weighted_pair(40, 9,
                                                                       fresh)
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)


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
        # three good cells of 3,000 trials take 5 blocks of at most 2,048
        # at n = 8
        blocks = []
        run_blocks = engine._run_blocks

        def spy(*args):
            for block in run_blocks(*args):
                blocks.append(len(block[0]))
                yield block

        monkeypatch.setattr(engine, "_run_blocks", spy)
        with pytest.raises(ValueError, match="m=99 out of range"):
            sweep(self.parity8, "parity", 3000, 0,
                  weights=[0, 1, 2, 99])
        assert blocks == []
        sweep(self.parity8, "parity", 3000, 0, weights=[0, 1, 2])
        assert len(blocks) == 5 and sum(blocks) == 9000

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
