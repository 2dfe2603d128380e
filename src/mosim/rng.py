"""Seeded pseudo-random generator used for every nondeterministic choice.

All randomness in a run flows from one 64-bit seed through splitmix64.
Independent consumers (scene direction, bare-verb duration, execution
choice order) each get their own stream, derived from the base seed and
a label, so adding a draw in one consumer never perturbs another.
The exact scheme is documented in docs/formats.md and must not change
without bumping the trace format version.

``next_bit`` mixes 64 draws at once: the states of the next 64 steps sit in
one integer, each in its own 128-bit lane, and one pass of the mix over that
integer gives each lane's output.  The bits are handed out one per call, and
any other draw first moves the state past the bits already handed out and
drops the rest.  So every sequence of draws, bits interleaved with the
others or not, is the one-step-at-a-time scheme's: a bit is ``next_u64() & 1``.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# next_bit's block: lane k holds step k + 1, in bits 128k .. 128k + 63
_LANES = 64
_REP = sum(1 << (128 * k) for k in range(_LANES))  # 1 in each lane
_LANE_MASK = _MASK * _REP
_LANE_GAMMAS = _GAMMA * sum((k + 1) << (128 * k) for k in range(_LANES))

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
        # the state after the last step mixed; the last ``_left`` of those
        # steps are bits of the block not yet handed out
        self._state = self.seed
        self._left = 0
        self._bits = b""

    def next_u64(self) -> int:
        if self._left:  # step back to the last bit handed out, dropping the block's others
            self._state = (self._state - self._left * _GAMMA) & _MASK
            self._left = 0
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

    def next_bit(self) -> int:
        """``next_u64() & 1``, mixed 64 steps at a time: a goal loop draws a bit per pass."""
        left = self._left
        if not left:
            # the mix of _mix64 in every lane: each is cut back to 64 bits
            # before a multiply and after it, and after each xor-shift
            z = (self._state * _REP + _LANE_GAMMAS) & _LANE_MASK
            self._state = (self._state + _LANES * _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
            z = ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2 & _LANE_MASK
            self._bits = ((z ^ (z >> 31)) & _REP).to_bytes(_LANES * 16, "little")[::16]
            left = _LANES
        self._left = left - 1
        return self._bits[-left]

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
