"""Deterministic random-stream derivation shared by all simulation modules.

Every simulation entry point takes either a ``numpy.random.Generator`` or a
64-bit master seed.  Replicated experiments derive one independent child
stream per replica from ``(master_seed, replica_index)`` so that results are
a pure function of the configuration and the seed, independent of execution
order or thread count.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

__all__ = ["derive_rng"]


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for ``(seed, *key)``.

    The mixing function is ``numpy.random.SeedSequence`` with the replica key
    supplied as ``spawn_key``; it is stable across numpy releases and across
    platforms, which is what makes CSV outputs byte-reproducible.
    """
    seed, key = int(seed), tuple(int(k) for k in key)
    if seed < 0 or any(k < 0 for k in key):
        raise ModelError(f"stream seed and keys must be nonnegative, got {(seed, *key)}")
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))
