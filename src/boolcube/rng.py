"""Seeded, splittable random streams.

Every stochastic operation in this package takes an explicit stream so
experiments replay exactly.  Streams are backed by the counter-based
Philox generator; independent streams are derived from a master seed
plus an integer path, so parallel consumers never share state.

A loop that needs stream(seed, *prefix, i) for i = 0, 1, 2, ... (the
trainer's per-step latent and inner streams and its per-epoch
shuffles) takes every key at once from `stream_keys` and re-keys one
reused generator per role with `rekey`.  Draw for draw the re-keyed
generator is the fresh stream(seed, *prefix, i), without hashing a
SeedSequence and building a Philox per index.
"""

from __future__ import annotations

import numpy as np

from .cube import _is_integer

__all__ = ["stream", "stream_keys", "rekey"]

# numpy's SeedSequence constants: the entropy pool's size in 32-bit
# words, the two hash multiplier chains (A mixes entropy into the pool,
# B draws the state out of it) and the pool mixer's multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _check_path(seed, path) -> None:
    if not all(_is_integer(v) and v >= 0 for v in (seed, *path)):
        raise ValueError("stream seed and path must be non-negative "
                         "integers, got %r" % ((seed, *path),))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent Philox generator for (seed, *path).

    The same (seed, path) always yields the same draw sequence; distinct
    paths yield statistically independent streams.  The seed and every
    path entry must be non-negative integers; nothing is truncated.
    """
    _check_path(seed, path)
    ss = np.random.SeedSequence([int(v) for v in (seed, *path)])
    return np.random.Generator(np.random.Philox(ss))


def _words(v: int) -> list[int]:
    """v as SeedSequence reads a path entry: little-endian 32-bit
    words, at least one."""
    out = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        out.append(v & _MASK32)
    return out


def _hash_chain(mult: int, step: int):
    """SeedSequence's hash along one multiplier chain: each call xors
    the words with the chain's multiplier, advances it by step, then
    multiplies by it and folds the high half down."""
    def hash_words(value):
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = mult * step & _MASK32
        value *= np.uint32(mult)
        value ^= value >> np.uint32(16)
        return value
    return hash_words


def _mix(x, y):
    """SeedSequence's pool mixer of two words."""
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    out ^= out >> np.uint32(16)
    return out


def stream_keys(seed: int, *prefix: int, count: int) -> np.ndarray:
    """(count, 2) uint64 array whose row i is the Philox key of
    stream(seed, *prefix, i), that is
    SeedSequence([seed, *prefix, i]).generate_state(2, np.uint64).

    All rows come out of one pass of numpy's SeedSequence mixing in
    uint32 array arithmetic, each array holding one 32-bit word per i:
    the entropy words hashed into a pool of four words, every pool word
    mixed into every other, entropy beyond the pool mixed into each,
    then four words hashed out of the pool.  The hash multipliers follow
    fixed chains, the same for every i.  Refuses what `stream` refuses,
    and a count that is not an integer in [0, 2^32], so every i is one
    word."""
    _check_path(seed, prefix)
    if not (_is_integer(count) and 0 <= count <= 1 << 32):
        raise ValueError("count must be an integer in [0, 2^32], got %r"
                         % (count,))
    entropy = [np.full(count, w, np.uint32)
               for v in (seed, *prefix) for w in _words(int(v))]
    entropy.append(np.arange(count, dtype=np.uint64).astype(np.uint32))
    entropy += [np.zeros(count, np.uint32)] * (_POOL - len(entropy))
    hashmix = _hash_chain(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_out = _hash_chain(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (hash_out(word).astype(np.uint64) for word in pool)
    keys = np.empty((count, 2), np.uint64)
    keys[:, 0] = lo0 | hi0 << np.uint64(32)
    keys[:, 1] = lo1 | hi1 << np.uint64(32)
    return keys


_ZEROS = np.zeros(4, np.uint64)


def rekey(gen: np.random.Generator, key) -> np.random.Generator:
    """gen, a Philox generator, set to the state a fresh stream with
    this key (a row of `stream_keys`) starts in: counter 0, an empty
    buffer, no cached 32-bit half.  Returns gen, which then draws, draw
    for draw, what that fresh stream draws."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
