"""The splitmix64 streams every nondeterministic choice draws from."""

import random

import pytest

from mosim.rng import SplitMix64, stream_for


def test_splitmix64_gives_the_published_sequence_from_seed_0():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_next_bit_is_the_low_bit_of_next_u64(seed):
    bits, words = stream_for(seed, "choice"), stream_for(seed, "choice")
    assert [bits.next_bit() for _ in range(2000)] == [words.next_u64() & 1 for _ in range(2000)]
    # drawn in turn with the other draws, a bit advances the stream by one step
    assert bits.next_u64() == words.next_u64()
    assert bits.randint(0, 9) == words.randint(0, 9)
    assert bits.next_bit() == words.next_u64() & 1


class OneStepAtATime:
    """The splitmix64 scheme as docs/formats.md states it, one step per draw."""

    def __init__(self, seed):
        self.seed = self.state = seed % 2**64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def next_bit(self):
        return self.next_u64() & 1

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo, hi):
        return lo + self.next_u64() % (hi - lo + 1)


def _draws(gen, plan):
    """The values of ``plan``'s draws from ``gen``, in order."""
    out = []
    for kind, n in plan:
        for _ in range(n):
            if kind == "bit":
                out.append(gen.next_bit())
            elif kind == "u64":
                out.append(gen.next_u64())
            elif kind == "uniform":
                out.append(gen.uniform())
            else:
                out.append(gen.randint(-3, 1000))
    return out


@pytest.mark.parametrize("bits", [1, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("then", ["u64", "uniform", "randint"])
def test_a_draw_after_a_block_edge_is_the_one_step_schemes(bits, then):
    for seed in (0, 1, 2**64 - 1, 0x9E3779B97F4A7C15):
        plan = [("bit", bits), (then, 2), ("bit", 70), (then, 1), ("bit", 1)]
        assert _draws(SplitMix64(seed), plan) == _draws(OneStepAtATime(seed), plan)


def test_interleaved_draws_and_streams_are_the_one_step_schemes():
    gen = random.Random(20261021)
    kinds = ["bit", "u64", "uniform", "randint"]
    for _ in range(300):
        seed = gen.getrandbits(64)
        plan = [(gen.choice(kinds), gen.choice([0, 1, 2, 5, 63, 64, 65, 130])) for _ in range(8)]
        ours, ref = SplitMix64(seed), OneStepAtATime(seed)
        assert _draws(ours, plan) == _draws(ref, plan), (seed, plan)
        # a stream is derived from the seed alone, however many bits were drawn
        label = f"s{gen.getrandbits(8)}"
        child = ours.stream(label)
        assert _draws(child, plan) == _draws(OneStepAtATime(child.seed), plan)
        assert child.seed == SplitMix64(seed).stream(label).seed
