import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xorcomm.engine import (Channel, Protocol, RandomTape, ScheduleViolation,
                            make_report, mc_error_estimate, run_protocol,
                            sweep)
from xorcomm.protocols import (FullSendProtocol, ParityProtocol,
                               TwoWayXorProtocol, make_protocol)
from xorcomm.symfun import InputPair, ProfileError, parse_profile


def random_pair(n, seed):
    rng = np.random.default_rng(seed)
    return InputPair(tuple(int(b) for b in rng.integers(0, 2, n)),
                     tuple(int(b) for b in rng.integers(0, 2, n)))


class TestTranscript:
    def test_bit_accounting(self):
        ch = Channel()
        ch.a_to_b((0, 1, 0, 1))
        ch.b_to_a((1,))
        ch.a_to_b((0, 0))
        ch._final_answer((1,))
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

    @given(st.lists(st.tuples(st.booleans(),
                              st.lists(st.integers(0, 1), min_size=1,
                                       max_size=8)),
                    max_size=20))
    def test_totals_are_sum_of_payloads(self, items):
        ch = Channel()
        for to_bob, bits in items:
            if to_bob:
                ch.a_to_b(bits)
            else:
                ch.b_to_a(bits)
        t = ch.transcript()
        assert t.total_bits == sum(len(p) for _, p in items)
        assert t.bits_a_to_b == sum(len(p) for to_bob, p in items if to_bob)
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
                channel.b_to_a("1")
                return 0

        p = parse_profile("parity", 4)
        with pytest.raises(ScheduleViolation):
            run_protocol(Rogue(), random_pair(4, 0), p, seed=0)

    def test_final_answer_exempt(self, recorder):
        out, transcript = run_protocol(ParityProtocol(), random_pair(6, 1),
                                       parse_profile("parity", 6), seed=0)
        assert recorder.channels[-1].log[-1] == ("b2a", (out,))
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


class TestSweep:
    def test_empty_n_list(self):
        rows = sweep(lambda p, n: ParityProtocol(), "parity", [], 5, 0)
        assert rows == []

    def test_single_cell_deterministic(self):
        rows1 = sweep(lambda p, n: ParityProtocol(), "parity", [8], 1, 3,
                      weights=[2])
        rows2 = sweep(lambda p, n: ParityProtocol(), "parity", [8], 1, 3,
                      weights=[2])
        assert rows1 == rows2
        assert len(rows1) == 1
        assert rows1[0]["success_rate"] == 1.0

    def test_rows_sorted(self):
        rows = sweep(lambda p, n: FullSendProtocol(), "threshold:1", [4, 2],
                     1, 0)
        keys = [(r["n"], r["weight"]) for r in rows]
        assert keys == sorted(keys)


class TestMonteCarlo:
    def test_zero_trials_refused(self):
        # no trials would give an estimate from nothing
        with pytest.raises(ValueError, match="trials"):
            mc_error_estimate(ParityProtocol(), parse_profile("parity", 4), 1,
                              0, seed=0)


class TestReport:
    def test_correct_flag(self):
        p = parse_profile("parity", 6)
        pair = random_pair(6, 8)
        out, t = run_protocol(ParityProtocol(), pair, p, seed=0)
        rep = make_report(ParityProtocol(), out, out, t)
        assert rep.correct
        rep2 = make_report(ParityProtocol(), out, 1 - out, t)
        assert not rep2.correct
