import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xorcomm.engine import RandomTape, run_protocol
from xorcomm.oracle import mc_error_estimate, weighted_pair
from xorcomm.protocols import (FullSendProtocol, HamConfig, HamProtocol,
                               OneWayXorProtocol, ParityProtocol,
                               TwoWayXorProtocol, XorProtocolConfig,
                               _DRAW_BLOCK, _bucket_parities,
                               default_buckets, make_protocol)
from xorcomm.symfun import InputPair, evaluate_F, parse_profile


def pair_of_weight(n, m, seed):
    rng = np.random.default_rng(seed)
    return weighted_pair(n, m, rng)


class TestParity:
    def test_equal_inputs(self):
        p = parse_profile("parity", 8)
        out, _ = run_protocol(ParityProtocol(), pair_of_weight(8, 0, 0), p, 0)
        assert out == 0

    def test_three_flips(self):
        p = parse_profile("parity", 8)
        out, _ = run_protocol(ParityProtocol(), pair_of_weight(8, 3, 1), p, 0)
        assert out == 1

    def test_one_content_bit_always(self):
        p = parse_profile("parity", 10)
        for m in range(11):
            _, t = run_protocol(ParityProtocol(), pair_of_weight(10, m, m), p, 0)
            assert t.content_bits == 1


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
        proto = HamProtocol(HamConfig(d=0))
        p = parse_profile("threshold:0", 16)
        for s in range(20):
            out, _ = run_protocol(proto, pair_of_weight(16, 0, s), p, seed=s)
            assert out == 0

    def test_d_at_least_n_is_silent(self):
        proto = HamProtocol(HamConfig(d=16))
        p = parse_profile("threshold:16", 16)
        out, t = run_protocol(proto, pair_of_weight(16, 7, 0), p, seed=0)
        assert out == 0
        assert t.content_bits == 0

    def test_one_sided_below_threshold(self):
        # m <= d never produces a ">d" output, whatever the seed
        n, d = 32, 4
        proto = HamProtocol(HamConfig(d=d))
        p = parse_profile(f"threshold:{d}", n)
        for m in range(d + 1):
            for s in range(200):
                out, _ = run_protocol(proto, pair_of_weight(n, m, s), p, seed=s)
                assert out == 0

    def test_exact_when_buckets_cover_positions(self):
        # identity bucket map: exhaustive over all pairs at n=6
        n = 6
        proto = HamProtocol(HamConfig(d=2, buckets=n))
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
            proto = HamProtocol(HamConfig(d=d, buckets=n))
            p = parse_profile(f"threshold:{d}", n)
            for m in range(n + 1):
                res = mc_error_estimate(proto, p, m, 20, seed=(d, m))
                assert res.success_rate == 1.0

    def test_bit_count_formula(self):
        n = 64
        for d, reps in ((3, 1), (3, 4), (8, 2)):
            proto = HamProtocol(HamConfig(d=d, repetitions=reps))
            p = parse_profile(f"threshold:{d}", n)
            _, t = run_protocol(proto, pair_of_weight(n, d + 2, 0), p, seed=1)
            assert t.content_bits == reps * default_buckets(d, n)

    def test_amplification_monotone(self):
        # empirical miss rate at m = d+1 is non-increasing in repetitions
        n, d, m, trials = 128, 6, 7, 12000
        p = parse_profile(f"threshold:{d}", n)
        rates = []
        for reps in (1, 2, 4):
            proto = HamProtocol(HamConfig(d=d, repetitions=reps))
            res = mc_error_estimate(proto, p, m, trials, seed=17)
            rates.append(1.0 - res.success_rate)
        assert rates[0] >= rates[1] >= rates[2]


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
    """Run the amplified tests (flip, d, reps), in order, as one phase of
    _bucket_parities; send every row and return each test's vote."""
    flips = [flip for flip, _, reps in tests for _ in range(reps)]
    rows, diffs = _bucket_parities(x, y, flips, b, tape)
    assert len(rows) == len(diffs) == len(flips)
    for row in rows:
        channel.a_to_b(row)
    votes, lo = [], 0
    for _, d, reps in tests:
        votes.append(bool((diffs[lo:lo + reps] > d).any()))
        lo += reps
    return votes


class TestAmplifiedHam:
    def check_phase(self, n, b, tests, recorder, seed):
        """Compare one phase against one reference call per test."""
        rng = np.random.default_rng(seed)
        for trial in range(6):
            # x and y differ in `trial` places, or in all but `trial`, so
            # the votes of flipped and unflipped tests go both ways
            x = rng.integers(0, 2, size=n).astype(np.uint8)
            y = x ^ np.uint8(trial % 2)
            y[rng.permutation(n)[:trial]] ^= 1
            got_ch, want_ch = recorder(), recorder()
            got_tape, want_tape = RandomTape(trial), RandomTape(trial)
            got = _phase_votes(x, y, tests, b, got_ch, got_tape)
            want = [_reference_amplified_ham(x, y, d, b, reps, want_ch,
                                             want_tape, flip=flip)
                    for flip, d, reps in tests]
            assert got == want
            assert got_ch.log == want_ch.log
            assert got_tape.position == want_tape.position
            # the shared stream continues exactly where the loop left it
            assert np.array_equal(got_tape.integers(1 << 40, size=3),
                                  want_tape.integers(1 << 40, size=3))

    # b < n draws the bucket maps off the tape (odd and even n); b >= n is
    # the identity map and draws nothing.
    @pytest.mark.parametrize("n, b, reps", [
        (33, 8, 3), (64, 18, 4), (7, 2, 5), (50, 49, 1), (20, 20, 3),
        (21, 50, 2)])
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_per_repetition_draws(self, n, b, reps, flip, recorder):
        self.check_phase(n, b, [(flip, 2, reps)], recorder, (n, b, reps))

    @pytest.mark.parametrize("n, b", [(33, 8), (20, 20), (21, 50)])
    def test_mixed_flips(self, n, b, recorder):
        # the region tests' layout, then tests at several thresholds
        tests = [(True, 3, 4), (False, 3, 4), (False, 0, 2), (True, 1, 1),
                 (False, 5, 3), (True, 0, 2)]
        self.check_phase(n, b, tests, recorder, (n, b))

    def test_phase_larger_than_one_draw_block(self, recorder):
        n, b = 601, 40
        per_block = _DRAW_BLOCK // n
        # two whole blocks and a part, the flip changing inside blocks
        tests = [(True, 4, per_block - 3), (False, 4, per_block + 5),
                 (True, 2, 7)]
        assert sum(reps for *_, reps in tests) * n > 2 * _DRAW_BLOCK
        self.check_phase(n, b, tests, recorder, 5)

    def test_zero_rows_draw_nothing(self):
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        for b in (2, 5, 9):
            tape = RandomTape(3)
            rows, diffs = _bucket_parities(x, x, [], b, tape)
            assert rows == [] and diffs.size == 0
            assert tape.position == 0
            assert np.array_equal(tape.integers(1 << 40, size=3),
                                  RandomTape(3).integers(1 << 40, size=3))

    def test_identity_rows_shared_per_flip(self):
        x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        y = np.array([1, 1, 1, 0, 0], dtype=np.uint8)
        tape = RandomTape(0)
        rows, diffs = _bucket_parities(x, y, [True, False, True, False], 8,
                                       tape)
        assert rows[0] is rows[2] and rows[1] is rows[3]
        assert rows[1].tolist() == [1, 0, 1, 1, 0, 0, 0, 0]
        assert rows[0].tolist() == [0, 1, 0, 0, 1, 0, 0, 0]
        assert diffs.tolist() == [3, 2, 3, 2]
        assert tape.position == 0


class TestXorPhases:
    def test_r1_runs_no_probes(self, recorder):
        # exact:0 has r = 1: the tails need no search, so the region phase
        # is the last one to draw
        n, reps = 40, XorProtocolConfig().region_reps
        p = parse_profile("exact:0", n)
        for m in (0, n):
            pair = pair_of_weight(n, m, m)
            channel, tape = recorder(), RandomTape(m)
            out = TwoWayXorProtocol().run(pair.x, pair.y, p, channel, tape)
            assert out == evaluate_F(p, pair)
            assert tape.position == 2 * reps * n
            assert [d for d, _ in channel.log] == ["a2b"] * (2 * reps) + ["b2a"]

    def test_identity_map_memory(self):
        # mod:3:0 at n=512 has r = 256, so b = 2r^2 = 131072 >= n: every
        # bucket map is the identity, over 8202 rows.  Traced peak of one
        # run: 35.9 MB when each test built its rows with a 2*reps*b-slot
        # bincount (reps = 16), 0.47 MB with one zero-padded row per flip.
        # The R x b row matrix would take 1 GB.
        p = parse_profile("mod:3:0", 512)
        pair = pair_of_weight(512, 10, 0)
        tracemalloc.start()
        try:
            run_protocol(OneWayXorProtocol(), pair, p, 0)
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
                pair = pair_of_weight(n, m, m)
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

    def test_phase_sum_closed_form(self, recorder):
        proto = TwoWayXorProtocol()
        for spec, n, ms in (("threshold:3", 48, (0, 2, 3, 20, 46)),
                            ("exact:0", 32, (0, 1, 12, 32)),
                            ("mod:4:0", 32, (0, 9, 16, 25, 32))):
            p = parse_profile(spec, n)
            for m in ms:
                pair = pair_of_weight(n, m, m + 1)
                _, t = run_protocol(proto, pair, p, seed=(m, 3))
                first_b2a = next(bits for direction, bits
                                 in recorder.channels[-1].log
                                 if direction == "b2a")
                region = {(0, 0): "lower", (0, 1): "middle",
                          (1, 0): "upper"}[first_b2a]
                assert t.content_bits == proto.expected_content_bits(p, region)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            XorProtocolConfig(region_reps=0)
        with pytest.raises(ValueError):
            HamConfig(d=-1)


class TestOneWay:
    def test_no_backward_content(self, recorder):
        p = parse_profile("exact:0", 32)
        run_protocol(OneWayXorProtocol(), pair_of_weight(32, 5, 0), p, 0)
        b2a = [bits for direction, bits in recorder.channels[-1].log
               if direction == "b2a"]
        assert len(b2a) == 1 and len(b2a[0]) == 1  # answer only

    def test_trivial_profiles_exact(self):
        n = 16
        proto = OneWayXorProtocol()
        for spec in ("const0", "parity"):
            p = parse_profile(spec, n)
            for m in range(n + 1):
                pair = pair_of_weight(n, m, m)
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
            _, t = run_protocol(proto, pair_of_weight(n, m, 0), p, seed=2)
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
        st.sampled_from((f"threshold:{d}", f"exact:{d}", "mod:3:0", "parity")))
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
        for name, cls in (("parity", ParityProtocol),
                          ("fullsend", FullSendProtocol),
                          ("ham", HamProtocol),
                          ("xor2way", TwoWayXorProtocol),
                          ("xor1way", OneWayXorProtocol)):
            assert isinstance(make_protocol(name, p), cls)

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

    def test_defaults_when_flags_omitted(self):
        p = parse_profile("threshold:2", 8)
        assert make_protocol("ham", p).params() == {
            "d": 2, "buckets": None, "repetitions": 1}
        assert make_protocol("xor1way", p).params() == {
            "region_reps": 5, "search_rep_factor": 2}


def test_probe_reps_formula():
    from xorcomm.protocols import _enum_reps, _probe_reps
    assert _probe_reps(8, 2) == math.ceil(2 * math.log2(math.log2(8)))
    assert _probe_reps(1, 2) == _probe_reps(4, 2)
    assert _enum_reps(1, 2) == 2
    assert _enum_reps(16, 2) == 8
