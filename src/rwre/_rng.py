"""Deterministic random-stream derivation shared by all simulation modules.

Every simulation entry point takes either a ``numpy.random.Generator`` or a
64-bit master seed.  Replicated experiments derive one independent child
stream per replica from ``(master_seed, replica_index)`` so that results are
a pure function of the configuration and the seed, independent of execution
order or thread count.

``derive_rng`` is the reference: one ``SeedSequence`` and one ``PCG64`` per
stream.  ``derive_rngs`` gives the same streams for many keys at once by
doing ``SeedSequence``'s mixing as uint32 array arithmetic.  The identity
rests on numpy's stream-compatibility policy (NEP 19), under which the
output of ``SeedSequence`` and the seeding of ``PCG64`` stay fixed across
releases; ``tests/test_rng.py`` checks it key by key against ``derive_rng``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ModelError

__all__ = ["derive_rng", "derive_rngs", "master_rng"]

# numpy.random.SeedSequence's constants: a 4-word pool, hashmix constants
# (A), generate_state constants (B) and the mix multipliers.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _constants(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hashmix(value, const, nxt):
    """``SeedSequence``'s hashmix of ``value`` under the hash constant
    ``const``, ``nxt`` being the constant after it; ``value`` is a Python int
    or a uint32 array.  ``generate_state`` is the same map under the B
    constants."""
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


# generate_state(4, uint64) reads the pool twice round: eight words
_B = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_XOR_B = np.array(_B[:-1], dtype=np.uint32)
_MUL_B = np.array(_B[1:], dtype=np.uint32)
_CYCLE = np.arange(2 * _POOL) % _POOL


def _nonnegative(seed, key=()) -> tuple[int, tuple[int, ...]]:
    seed, key = int(seed), tuple(int(k) for k in key)
    if seed < 0 or any(k < 0 for k in key):
        raise ModelError(f"stream seed and keys must be nonnegative, got {(seed, *key)}")
    return seed, key


def master_rng(seed: int) -> np.random.Generator:
    """Single stream keyed by the master seed alone."""
    seed, _ = _nonnegative(seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for ``(seed, *key)``.

    The mixing function is ``numpy.random.SeedSequence`` with the replica key
    supplied as ``spawn_key``; it is stable across numpy releases and across
    platforms, which is what makes CSV outputs byte-reproducible.
    """
    seed, key = _nonnegative(seed, key)
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


class _State(ISeedSequence):
    """A seed sequence that hands ``PCG64`` its four precomputed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_pool(seed: int, key_words: int) -> tuple[list[int], list[int]]:
    """``SeedSequence``'s pool after the seed's words, zero-padded to the
    pool size as a spawn key requires, and the hash constants that mixing
    ``key_words`` more words into it takes.

    The first pool-size words are hashmixed in, the pool words are mixed
    with each other, and then every later word is mixed into each pool
    word, as numpy does."""
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL - len(words))
    a = _constants(_INIT_A, _MULT_A, _POOL * (len(words) + key_words))
    pairs = zip(a, a[1:])

    def hashmix(value):
        return _hashmix(value, *next(pairs))

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))
    return pool, a[_POOL * len(words):]  # one hashmix per word and pool word so far


def derive_rngs(seed: int, keys) -> list[np.random.Generator]:
    """``[derive_rng(seed, *key) for key in keys]``, derived at once.

    ``keys`` is a 2-D array of integers in ``[0, 2**32)``, one key a row.
    The seed's part of the mixing is the same for every key and is done
    once; each key word is then mixed into all pools together, and the
    ``PCG64`` state words of every stream come from one array expression.
    The streams equal ``derive_rng``'s because numpy keeps the output of
    ``SeedSequence`` and the seeding of ``PCG64`` fixed across releases
    (NEP 19); ``tests/test_rng.py`` checks the identity key by key.
    """
    seed, _ = _nonnegative(seed)
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise ModelError(f"stream keys must form a 2-D array, got shape {keys.shape}")
    if keys.size and keys.min() < 0:
        raise ModelError("stream seed and keys must be nonnegative")
    if keys.size and keys.max() > _MASK32:
        raise ModelError("derive_rngs takes keys below 2**32; use derive_rng for larger keys")
    pool0, a = _seed_pool(seed, keys.shape[1])
    const = np.array(a[:-1], dtype=np.uint32).reshape(-1, _POOL)
    nxt = np.array(a[1:], dtype=np.uint32).reshape(-1, _POOL)
    words = keys.astype(np.uint32)
    pool = np.tile(np.array(pool0, dtype=np.uint32), (len(words), 1))
    for j in range(keys.shape[1]):
        pool = _mix(pool, _hashmix(words[:, j, None], const[j], nxt[j]))
    state = _hashmix(pool[:, _CYCLE], _XOR_B, _MUL_B)
    state = state.astype("<u4", order="C").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(w))) for w in state]
