import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcomm.oracle import profile_of_index
from xorcomm.symfun import (InputPair, ProfileError, SymmetricProfile,
                            TrivialClass, classify,
                            conjectured_unbounded_measure, evaluate_F,
                            flip_reduction, gap_params, parse_profile,
                            threshold_of)


def all_profiles(n):
    for i in range(1 << (n + 1)):
        yield SymmetricProfile(n, profile_of_index(n, i))


profiles = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, 1), min_size=n + 1, max_size=n + 1))).map(
    lambda t: SymmetricProfile(t[0], tuple(t[1])))


@st.composite
def gapped_profiles(draw, max_n=200):
    """A profile up to n = max_n: random head and tail bits around a
    2-periodic middle, so r0 and r1 take every size up to saturation."""
    n = draw(st.integers(1, max_n))
    head = draw(st.integers(0, n + 1))
    tail = draw(st.integers(0, n + 1 - head))
    pattern = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    ends = draw(st.lists(st.integers(0, 1), min_size=head + tail,
                         max_size=head + tail))
    s = [pattern[k % 2] for k in range(n + 1)]
    s[:head] = ends[:head]
    s[n + 1 - tail:] = ends[head:]
    return SymmetricProfile(n, tuple(s))


class TestEvaluate:
    def test_equal_inputs(self):
        p = parse_profile("parity", 6)
        pair = InputPair((1, 0, 1, 1, 0, 0), (1, 0, 1, 1, 0, 0))
        assert evaluate_F(p, pair) == 0

    def test_complement_hits_s_n(self):
        p = parse_profile("bits:0110010", 6)
        x = (1, 0, 1, 1, 0, 0)
        y = tuple(1 - b for b in x)
        assert evaluate_F(p, InputPair(x, y)) == p.s[6]

    def test_threshold_mid_weight(self):
        p = parse_profile("threshold:3", 8)
        pair = InputPair((0,) * 8, (0, 0, 0, 0, 1, 1, 1, 1))
        assert evaluate_F(p, pair) == 1

    def test_length_mismatch(self):
        p = parse_profile("parity", 4)
        with pytest.raises(ProfileError):
            evaluate_F(p, InputPair((0,) * 5, (1,) * 5))


class TestInputPair:
    @pytest.mark.parametrize("x, y", [
        ((0, 2, 1), (0, 0, 1)),
        ((0, 1), (0, -1)),
        ((0, 1), (0, 1, 1)),
        (((0, 1), (1, 0)), ((0, 1), (1, 0))),
        # the dtype weighted_pair builds, unchecked; the public constructor
        # still checks it
        (np.array([0, 2, 1], dtype=np.uint8), (0, 0, 1)),
    ])
    def test_rejects(self, x, y):
        with pytest.raises(ProfileError):
            InputPair(x, y)

    def test_read_only_uint8_copy(self):
        src = np.array([1, 0, 1, 1], dtype=np.int64)
        pair = InputPair(src, [True, False, False, True])
        assert pair.x.dtype == pair.y.dtype == np.uint8
        assert (pair.n, pair.xor_weight()) == (4, 1)
        for bits in (pair.x, pair.y):
            with pytest.raises(ValueError):
                bits[0] = 0
        src[0] = 0  # the caller's array stays writable and is not shared
        assert pair.x.tolist() == [1, 0, 1, 1]


class TestClassify:
    @pytest.mark.parametrize("spec,expected", [
        ("const0", TrivialClass.CONST0),
        ("const1", TrivialClass.CONST1),
        ("parity", TrivialClass.PARITY),
        ("notparity", TrivialClass.NOTPARITY),
        ("threshold:3", TrivialClass.NONTRIVIAL),
        ("exact:0", TrivialClass.NONTRIVIAL),
    ])
    def test_templates(self, spec, expected):
        assert classify(parse_profile(spec, 8)) is expected

    def test_trivial_iff_r_zero(self):
        # the four templates, built by parse_profile, are exactly the
        # 2-periodic profiles
        names = {"const0": TrivialClass.CONST0, "const1": TrivialClass.CONST1,
                 "parity": TrivialClass.PARITY,
                 "notparity": TrivialClass.NOTPARITY}
        for n in range(1, 13):
            templates = {parse_profile(name, n).s: cls
                         for name, cls in names.items()}
            for p in all_profiles(n):
                gp = gap_params(p)
                assert classify(p) is templates.get(
                    p.s, TrivialClass.NONTRIVIAL)
                is_trivial = classify(p) is not TrivialClass.NONTRIVIAL
                assert is_trivial == (gp.r == 0)


class TestGapParams:
    def test_parity_zero(self):
        gp = gap_params(parse_profile("parity", 9))
        assert (gp.r0, gp.r1) == (0, 0)

    def test_equality_profile(self):
        gp = gap_params(parse_profile("exact:0", 8))
        assert (gp.r0, gp.r1) == (1, 0)

    def test_threshold(self):
        gp = gap_params(parse_profile("threshold:3", 16))
        assert (gp.r0, gp.r1) == (4, 0)

    def test_mod_profile_near_half(self):
        gp = gap_params(parse_profile("mod:4:0", 64))
        assert (gp.r0, gp.r1, gp.saturated) == (31, 31, False)

    def test_saturation(self):
        # s(n/2-1) != s(n/2+1) leaves no feasible pair under the cap
        gp = gap_params(parse_profile("mod:4:0", 66))
        assert gp.saturated
        assert (gp.r0, gp.r1) == (33, 33)
        gp2 = gap_params(SymmetricProfile(2, (1, 0, 0)))
        assert gp2.saturated and gp2.r == 1

    def test_exhaustive_minimality(self):
        # r0/r1 are minimal coordinates over all feasible pairs
        def feasible(s, n, a, b):
            return all(s[k] == s[k + 2] for k in range(a, n - b - 1))

        for n in (5, 8):
            cap = (n - 1) // 2
            for p in all_profiles(n):
                gp = gap_params(p)
                pairs = [(a, b) for a in range(cap + 1) for b in range(cap + 1)
                         if feasible(p.s, n, a, b)]
                if not pairs:
                    assert gp.saturated
                    assert gp.r0 == gp.r1 == (n + 1) // 2
                    continue
                assert not gp.saturated
                assert gp.r0 == min(a for a, _ in pairs)
                assert gp.r1 == min(b for _, b in pairs)
                assert feasible(p.s, n, gp.r0, gp.r1)


class TestGapParamsProperty:
    # The rules gap_params documents: each coordinate is minimised with the
    # other capped at floor((n-1)/2); with no feasible pair under the cap
    # both are reported saturated at ceil(n/2).
    @settings(deadline=None, max_examples=300)
    @given(gapped_profiles())
    def test_brute_force_minimum(self, p):
        n, s = p.n, np.array(p.s)
        cap = (n - 1) // 2
        # feasible(a, c): s[k] == s[k+2] for every k in [a, n-c-2]
        bad = np.concatenate(([0], np.cumsum(s[:-2] != s[2:])))
        a, c = np.meshgrid(np.arange(cap + 1), np.arange(cap + 1),
                           indexing="ij")
        feasible = bad[np.maximum(n - c - 1, a)] == bad[a]
        gp = gap_params(p)
        assert gp.r == max(gp.r0, gp.r1)
        assert (gp.r == 0) == (classify(p) is not TrivialClass.NONTRIVIAL)
        if not feasible.any():
            assert gp.saturated
            assert gp.r0 == gp.r1 == (n + 1) // 2
            return
        assert not gp.saturated
        assert gp.r0 == a[feasible].min()
        assert gp.r1 == c[feasible].min()
        assert feasible[gp.r0, gp.r1]

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_flip_swaps_gaps_and_keeps_F(self, data):
        p = data.draw(gapped_profiles())
        # each input is one n-bit integer unpacked, far cheaper for
        # hypothesis to draw than a list of n bits
        x, y = (np.array([(v >> i) & 1 for i in range(p.n)])
                for v in (data.draw(st.integers(0, 2 ** p.n - 1))
                          for _ in range(2)))
        q = flip_reduction(p)
        gp, gq = gap_params(p), gap_params(q)
        assert (gq.r0, gq.r1, gq.saturated) == (gp.r1, gp.r0, gp.saturated)
        assert evaluate_F(q, InputPair(1 - x, y)) == evaluate_F(
            p, InputPair(x, y))


def reference_gap_params(profile):
    """The quadratic scan gap_params replaced: one feasibility check of
    O(n) pairs per candidate v.  Returns (r0, r1, saturated)."""
    n, s = profile.n, profile.s

    def feasible(a, c):
        return all(s[k] == s[k + 2] for k in range(a, n - c - 1))

    cap = (n - 1) // 2
    r0 = next((v for v in range(cap + 1) if feasible(v, cap)), None)
    r1 = next((v for v in range(cap + 1) if feasible(cap, v)), None)
    if r0 is None or r1 is None:
        return (n + 1) // 2, (n + 1) // 2, True
    return r0, r1, False


class TestGapParamsLinear:
    """gap_params reads r0 and r1 off the violating pairs in one pass; the
    quadratic scan is the reference."""

    def test_every_profile_to_n10(self):
        for n in range(1, 11):
            for p in all_profiles(n):
                gp = gap_params(p)
                assert (gp.r0, gp.r1, gp.saturated) == reference_gap_params(p)

    def test_seeded_profiles_to_n4096(self):
        # random head and tail bits around a 2-periodic middle, so r0 and
        # r1 take small, middle and saturated sizes; plus the spec families
        rng = np.random.default_rng(18)
        cases = [parse_profile(spec, n) for n in (4095, 4096)
                 for spec in ("threshold:700", "exact:3000", "mod:4:1",
                              "mod:3:0", "parity")]
        for n in (17, 64, 255, 1000, 2047, 2048, 4095, 4096):
            for _ in range(3):
                head, tail = rng.integers(0, n // 2 + 2, size=2)
                s = [int(rng.integers(0, 2)), int(rng.integers(0, 2))] * n
                s = s[:n + 1]
                s[:head] = rng.integers(0, 2, size=head).tolist()
                if tail:
                    s[-tail:] = rng.integers(0, 2, size=tail).tolist()
                cases.append(SymmetricProfile(n, tuple(s)))
        for p in cases:
            gp = gap_params(p)
            assert (gp.r0, gp.r1, gp.saturated) == reference_gap_params(p)


class TestReductions:
    def test_flip_small(self):
        p = SymmetricProfile(2, (1, 0, 0))
        assert flip_reduction(p).s == (0, 0, 1)

    def test_flip_involution_and_gap_swap(self):
        for n in range(1, 11):
            for p in all_profiles(n):
                q = flip_reduction(p)
                assert flip_reduction(q) == p
                gp, gq = gap_params(p), gap_params(q)
                assert (gp.r0, gp.r1) == (gq.r1, gq.r0)

    @given(profiles)
    def test_flip_preserves_measure(self, p):
        assert (conjectured_unbounded_measure(flip_reduction(p))
                == conjectured_unbounded_measure(p))


class TestMeasure:
    def test_parity_zero(self):
        assert conjectured_unbounded_measure(parse_profile("parity", 10)) == 0

    def test_equality_one(self):
        assert conjectured_unbounded_measure(parse_profile("exact:0", 8)) == 1

    def test_threshold_two(self):
        assert conjectured_unbounded_measure(parse_profile("threshold:3", 16)) == 2


class TestParse:
    def test_bits(self):
        p = parse_profile("bits:01101", 4)
        assert p.s == (0, 1, 1, 0, 1)

    def test_mod_residues(self):
        p = parse_profile("mod:3:0,2", 6)
        assert p.s == tuple(1 if k % 3 in (0, 2) else 0 for k in range(7))

    @pytest.mark.parametrize("bad", [
        "nope", "threshold:x", "threshold:-5", "bits:01", "mod:0:1", "mod:3:",
        "exact:99"])
    def test_rejects(self, bad):
        with pytest.raises(ProfileError):
            parse_profile(bad, 8)

    # each of these was accepted: empty residues were skipped, and int()
    # takes spaces, '_', '+' and non-ASCII digits
    @pytest.mark.parametrize("bad", [
        "mod:3:1,,2", "mod:3:1,", "mod:3:,1", "threshold: 1", "threshold:1 ",
        "exact:1_0", "threshold:+1", "exact:\u0662", "mod: 3:1", "mod:3:-",
        "threshold:"])
    def test_rejects_loose_integers(self, bad):
        with pytest.raises(ProfileError, match="bad integer"):
            parse_profile(bad, 16)

    # each of these was accepted as the family it names: the name was
    # stripped and lower-cased, and text after a parameterless family was
    # ignored
    @pytest.mark.parametrize("bad", [
        " THRESHOLD :2", "Threshold:2", "threshold :2", " parity", "PARITY",
        "Const0", "mod :3:1", "BITS:010"])
    def test_rejects_loose_family_names(self, bad):
        with pytest.raises(ProfileError, match="unknown profile spec"):
            parse_profile(bad, 2)

    @pytest.mark.parametrize("bad", [
        "const0:junk", "const1:", "parity:", "notparity:1", "parity::"])
    def test_rejects_parameter_of_parameterless_family(self, bad):
        with pytest.raises(ProfileError, match="takes no parameter"):
            parse_profile(bad, 4)

    def test_integers_are_ascii_digits_with_optional_minus(self):
        assert parse_profile("mod:3:-1,0", 6) == parse_profile("mod:3:2,0", 6)
        assert parse_profile("exact:007", 8) == parse_profile("exact:7", 8)

    def test_profile_validation(self):
        with pytest.raises(ProfileError):
            SymmetricProfile(3, (0, 1))
        with pytest.raises(ProfileError):
            SymmetricProfile(1, (0, 2))

    def test_threshold_of(self):
        assert threshold_of(parse_profile("threshold:4", 9)) == 4
        assert threshold_of(parse_profile("const0", 5)) == 5
        assert threshold_of(parse_profile("exact:2", 5)) is None
