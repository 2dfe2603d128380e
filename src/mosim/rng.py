"""Seeded pseudo-random generator used for every nondeterministic choice.

All randomness in a run flows from one 64-bit seed through splitmix64.
Independent consumers (scene direction, bare-verb duration, execution
choice order) each get their own stream, derived from the base seed and
a label, so adding a draw in one consumer never perturbs another.
The exact scheme is documented in docs/formats.md and must not change
without bumping the trace format version.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


class SplitMix64:
    """splitmix64 sequence generator with labelled sub-streams.

    ``stream(label)`` derives a child generator from the *original* seed,
    not from the current state, so stream derivation is insensitive to
    how many values have already been drawn.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def next_bit(self) -> int:
        # next_u64() & 1 in one body: a goal loop draws a bit per pass
        z = self._state = (self._state + _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * _MIX1 & _MASK
        z = (z ^ (z >> 27)) * _MIX2 & _MASK
        return (z ^ (z >> 31)) & 1

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], both inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def stream(self, label: str) -> "SplitMix64":
        return SplitMix64(_mix64(self.seed ^ fnv1a64(label)))


def stream_for(seed: int, label: str) -> SplitMix64:
    """Stream a named consumer draws from, given the run's base seed."""
    return SplitMix64(seed).stream(label)
