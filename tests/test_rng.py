"""Stream keys and re-keyed generators: every key equals numpy's
SeedSequence key for the same path, and a re-keyed generator draws
what a fresh `stream` draws."""

import numpy as np
import pytest

from boolcube import rekey, stream, stream_keys

SEEDS = (0, 1, 17, 2**31, 2**32 - 1, 2**32, 2**64, 2**64 + 5, 3**50)
PREFIXES = ((), (0,), (3,), (1, 2), (2**32 - 1,), (2**32,), (2**64, 7),
            (1, 2, 3, 4), (3**50, 2**96))


def seed_sequence_key(*path):
    return np.random.SeedSequence(list(path)).generate_state(2, np.uint64)


def word_count(v):
    return max(1, -(-v.bit_length() // 32))


def test_the_grid_reaches_past_the_pool():
    # entropy longer than SeedSequence's 4-word pool runs its extra
    # mixing loop; the short paths stay inside the pool
    lengths = {sum(map(word_count, (seed, *prefix, 0)))
               for seed in SEEDS for prefix in PREFIXES}
    assert min(lengths) < 4 < max(lengths)


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence(seed):
    for prefix in PREFIXES:
        got = stream_keys(seed, *prefix, count=40)
        assert got.dtype == np.uint64 and got.shape == (40, 2)
        want = [seed_sequence_key(seed, *prefix, i) for i in range(40)]
        assert np.array_equal(got, want), prefix


def test_keys_across_the_16_bit_boundary():
    got = stream_keys(5, 1, count=70000)
    for i in (0, 65535, 65536, 69999):
        assert np.array_equal(got[i], seed_sequence_key(5, 1, i)), i


def test_numpy_integers_key_as_ints():
    assert np.array_equal(stream_keys(np.int64(5), np.uint8(2), count=4),
                          stream_keys(5, 2, count=4))


def test_zero_count_gives_no_keys():
    assert stream_keys(3, 1, count=0).shape == (0, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: stream_keys(1.5, count=3),
     "stream seed and path must be non-negative integers, got (1.5,)"),
    (lambda: stream_keys(1, -2, count=3),
     "stream seed and path must be non-negative integers, got (1, -2)"),
    (lambda: stream_keys(1, True, count=3),
     "stream seed and path must be non-negative integers, got (1, True)"),
    (lambda: stream_keys(1, count=-1),
     "count must be an integer in [0, 2^32], got -1"),
    (lambda: stream_keys(1, count=2.0),
     "count must be an integer in [0, 2^32], got 2.0"),
    (lambda: stream_keys(1, count=2**32 + 1),
     "count must be an integer in [0, 2^32], got 4294967297"),
], ids=["seed-float", "path-negative", "path-bool", "count-negative",
        "count-float", "count-past-one-word"])
def test_stream_keys_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


DRAWS = {
    "random": lambda g: g.random(7),
    "normal": lambda g: g.normal(size=7),
    "integers": lambda g: g.integers(0, 1000, size=7),
    "uint32": lambda g: g.integers(0, 2**32, size=7, dtype=np.uint32),
    "float32": lambda g: g.random(5, dtype=np.float32),
    "permutation": lambda g: g.permutation(11),
}


def same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (sa["bit_generator"] == sb["bit_generator"]
            and all(np.array_equal(sa["state"][k], sb["state"][k])
                    for k in ("counter", "key"))
            and np.array_equal(sa["buffer"], sb["buffer"])
            and all(sa[k] == sb[k]
                    for k in ("buffer_pos", "has_uint32", "uinteger")))


@pytest.mark.parametrize("name", DRAWS)
def test_rekeyed_generator_draws_what_a_fresh_stream_draws(name):
    draw = DRAWS[name]
    keys = stream_keys(9, 2, count=6)
    gen = stream(9, 2, 0)
    for i in (3, 1, 5, 1):
        # the previous key leaves a cached 32-bit half and a partly used
        # buffer behind
        gen.random(3, dtype=np.float32)
        gen.random(2)
        fresh = stream(9, 2, i)
        assert rekey(gen, keys[i]) is gen
        assert same_state(gen, fresh), i
        for _ in range(3):
            assert np.array_equal(draw(gen), draw(fresh)), i
