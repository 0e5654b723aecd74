"""Symmetric XOR problem instances.

A problem is given by a weight profile S: {0..n} -> {0,1}; the communication
problem it defines is F(x, y) = S(|x xor y|).  Everything downstream (spectra,
protocols, oracles) consumes the profile as the single source of truth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from ._np import np


class TrivialClass(str, Enum):
    CONST0 = "Const0"
    CONST1 = "Const1"
    PARITY = "Parity"
    NOTPARITY = "NotParity"
    NONTRIVIAL = "Nontrivial"


class ProfileError(ValueError):
    """Malformed profile, pair, or profile-spec string."""


@dataclass(frozen=True)
class SymmetricProfile:
    """The predicate S on Hamming weights, as a bit vector of length n+1."""

    n: int
    s: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ProfileError(f"n must be a positive integer, got {self.n!r}")
        if len(self.s) != self.n + 1:
            raise ProfileError(
                f"profile length {len(self.s)} != n+1 = {self.n + 1}")
        if any(b not in (0, 1) for b in self.s):
            raise ProfileError("profile entries must be 0 or 1")
        object.__setattr__(self, "s", tuple(int(b) for b in self.s))


@dataclass(frozen=True)
class GapParams:
    """Minimal head/tail lengths outside which S is 2-periodic."""

    r0: int
    r1: int
    r: int
    trivial_class: TrivialClass
    saturated: bool = False

    def __post_init__(self):
        assert self.r == max(self.r0, self.r1)
        if self.trivial_class is not TrivialClass.NONTRIVIAL:
            assert self.r == 0


def _bit_vector(bits) -> np.ndarray:
    """A read-only uint8 copy of a 1-D 0/1 vector."""
    a = np.asarray(bits)
    if a.ndim != 1:
        raise ProfileError("x and y must be 1-D bit vectors")
    if not ((a == 0) | (a == 1)).all():
        raise ProfileError("pair entries must be 0 or 1")
    out = a.astype(np.uint8)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class InputPair:
    """One (x, y) input pair; bits stored as read-only uint8 arrays.

    Pairs compare by identity: an array has no single truth value.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = _bit_vector(self.x), _bit_vector(self.y)
        if x.size != y.size:
            raise ProfileError("x and y must have equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _of_bits(cls, x: np.ndarray, y: np.ndarray) -> InputPair:
        """The pair of x and y as they are, unchecked and uncopied: for a
        caller that has just made them read-only uint8 0/1 arrays of equal
        length."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "x", x)
        object.__setattr__(pair, "y", y)
        return pair

    @property
    def n(self) -> int:
        return self.x.size

    def xor_weight(self) -> int:
        return int(np.count_nonzero(self.x != self.y))


def evaluate_F(profile: SymmetricProfile, pair: InputPair) -> int:
    """Ground truth F(x, y) = S(|x xor y|)."""
    if pair.n != profile.n:
        raise ProfileError(f"pair length {pair.n} != profile n {profile.n}")
    return profile.s[pair.xor_weight()]


def _feasible(s: tuple[int, ...], n: int, r0p: int, r1p: int) -> bool:
    # S(k) = S(k+2) for every pair {k, k+2} inside [r0p, n-r1p].  Taking
    # pairs (not left endpoints) keeps the condition mirror-symmetric, so
    # flipping the profile exactly swaps the two parameters.
    return all(s[k] == s[k + 2] for k in range(r0p, n - r1p - 1))


def _period_breaks(s: tuple[int, ...]) -> list[int]:
    """Every t with s[t] != s[t+2]: where S fails to be 2-periodic."""
    return [t for t in range(len(s) - 2) if s[t] != s[t + 2]]


# A profile with no period break is 2-periodic everywhere, so S(0) and S(1)
# name it; these four are exactly the profiles of r0 = r1 = 0.
_PERIODIC_CLASSES = {(0, 0): TrivialClass.CONST0, (1, 1): TrivialClass.CONST1,
                     (0, 1): TrivialClass.PARITY,
                     (1, 0): TrivialClass.NOTPARITY}


def classify(profile: SymmetricProfile) -> TrivialClass:
    """Trivial (constant cost) iff S has no period break."""
    return gap_params(profile).trivial_class


@functools.lru_cache(maxsize=4096)
def gap_params(profile: SymmetricProfile) -> GapParams:
    """Componentwise-minimal (r0, r1) making S 2-periodic on [r0, n-r1)."""
    n, s = profile.n, profile.s
    # Minimize each coordinate against a floor((n-1)/2) cap on the other:
    # with 2*cap <= n-1 the two one-sided windows cover the joint one, so
    # the componentwise minima stay jointly feasible.  Saturation is
    # reported at ceil(n/2), whose window is empty.
    cap = (n - 1) // 2
    # (v, cap) is feasible iff no violating pair {k, k+2} has v <= k <=
    # n-cap-2, so r0 is one past the last violation in that range; likewise
    # r1 is n-1 minus the first violation at or above cap.
    bad = _period_breaks(s)
    r0 = max((k + 1 for k in bad if k <= n - cap - 2), default=0)
    r1 = max((n - 1 - k for k in bad if k >= cap), default=0)
    saturated = r0 > cap or r1 > cap
    if saturated:
        r0 = r1 = (n + 1) // 2
    # The componentwise minima must themselves form a feasible pair.
    if not _feasible(s, n, r0, r1):
        raise AssertionError(
            f"joint feasibility violated for {profile}: r0={r0}, r1={r1}")
    trivial = TrivialClass.NONTRIVIAL if bad else _PERIODIC_CLASSES[s[:2]]
    return GapParams(r0=r0, r1=r1, r=max(r0, r1), trivial_class=trivial,
                     saturated=saturated)


def flip_reduction(profile: SymmetricProfile) -> SymmetricProfile:
    """Profile of F(flip(x), y): s'[k] = s[n-k]."""
    return SymmetricProfile(profile.n, tuple(reversed(profile.s)))


def conjectured_unbounded_measure(profile: SymmetricProfile) -> int:
    """Count of t with S(t) != S(t+2); reported as a statistic only."""
    return len(_period_breaks(profile.s))


def parse_profile(spec: str, n: int) -> SymmetricProfile:
    """Parse the profile mini-language.

    Forms: const0 | const1 | parity | notparity | threshold:<d> | exact:<k>
    | mod:<m>:<r1,r2,...> | bits:<(n+1)-char 0/1 string>, the name exactly
    so (lower case, no spaces) and no ':' after a parameterless one.
    """
    if n < 1:
        raise ProfileError(f"n must be positive, got {n}")
    name, colon, rest = spec.partition(":")
    if colon and name in ("const0", "const1", "parity", "notparity"):
        raise ProfileError(f"{name} takes no parameter, got {spec!r}")
    if name == "const0":
        s = (0,) * (n + 1)
    elif name == "const1":
        s = (1,) * (n + 1)
    elif name == "parity":
        s = tuple(k % 2 for k in range(n + 1))
    elif name == "notparity":
        s = tuple(1 - k % 2 for k in range(n + 1))
    elif name == "threshold":
        d = _parse_int(rest, spec)
        if d < 0:
            raise ProfileError(f"threshold:{d} must be non-negative")
        s = tuple(1 if k > d else 0 for k in range(n + 1))
    elif name == "exact":
        k0 = _parse_int(rest, spec)
        if not 0 <= k0 <= n:
            raise ProfileError(f"exact:{k0} out of range for n={n}")
        s = tuple(1 if k == k0 else 0 for k in range(n + 1))
    elif name == "mod":
        m_str, _, res_str = rest.partition(":")
        m = _parse_int(m_str, spec)
        if m < 1:
            raise ProfileError(f"modulus must be >= 1 in {spec!r}")
        if not res_str:
            raise ProfileError(f"no residues given in {spec!r}")
        residues = {_parse_int(tok, spec) % m for tok in res_str.split(",")}
        s = tuple(1 if k % m in residues else 0 for k in range(n + 1))
    elif name == "bits":
        if len(rest) != n + 1 or any(c not in "01" for c in rest):
            raise ProfileError(
                f"bits: payload must be {n + 1} characters of 0/1, got {rest!r}")
        s = tuple(int(c) for c in rest)
    else:
        raise ProfileError(f"unknown profile spec {name!r} in {spec!r}")
    return SymmetricProfile(n, s)


def _parse_int(token: str, spec: str) -> int:
    """An optional '-' then ASCII digits, and nothing else: int() alone
    would also take spaces, '_', '+' and non-ASCII digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ProfileError(f"bad integer {token!r} in profile spec {spec!r}")
    return int(token)


def threshold_of(profile: SymmetricProfile) -> int | None:
    """If the profile is a step s[k] = 1 iff k > d, return d; else None.

    The all-zero profile matches with d = n; const1 does not match.
    """
    s = profile.s
    d = next((k for k, b in enumerate(s) if b == 1), profile.n + 1) - 1
    if d < 0:
        return None
    if all(s[k] == (1 if k > d else 0) for k in range(profile.n + 1)):
        return d
    return None
