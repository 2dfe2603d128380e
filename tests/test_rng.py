"""The splitmix64 streams every nondeterministic choice draws from."""

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
