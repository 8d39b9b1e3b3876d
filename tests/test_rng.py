import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwre._rng import derive_rng, derive_rngs
from rwre.errors import ModelError

WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


def _same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert np.array_equal(a.random(4), b.random(4))
    assert np.array_equal(a.integers(0, 2**63 - 1, 2), b.integers(0, 2**63 - 1, 2))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 5, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1]),
                   st.integers(0, 2**140)),
    keys=st.integers(1, 3).flatmap(
        lambda arity: st.lists(st.lists(WORD, min_size=arity, max_size=arity),
                               min_size=1, max_size=6)),
)
@example(seed=2**40 + 3, keys=[[7, 0xC0FFEE], [0, 0xC0FFEE]])
@example(seed=2**64 + 11, keys=[[0], [1], [2**32 - 1]])
@example(seed=2**130 + 7, keys=[[3, 0], [3, 1]])  # five seed words
@example(seed=2**200 + 3, keys=[[1, 2, 3]])  # seven seed words
def test_derive_rngs_equals_derive_rng_key_by_key(seed, keys):
    got = derive_rngs(seed, np.array(keys, dtype=np.int64))
    assert len(got) == len(keys)
    for rng, key in zip(got, keys):
        _same_stream(rng, derive_rng(seed, *key))


def test_derive_rngs_empty_batch_and_empty_keys():
    assert derive_rngs(3, np.empty((0, 2), dtype=np.int64)) == []
    # no key words: the seed's stream, as derive_rng(seed) gives it
    (rng,) = derive_rngs(2**70 + 1, np.empty((1, 0), dtype=np.int64))
    _same_stream(rng, derive_rng(2**70 + 1))


@pytest.mark.parametrize("make", [
    lambda: derive_rng(-1, 0),
    lambda: derive_rng(3, 0, -2),
    lambda: derive_rngs(-1, [[0, 0]]),
    lambda: derive_rngs(3, [[0, -1]]),
])
def test_negative_seed_or_key_is_model_error(make):
    with pytest.raises(ModelError, match="nonnegative"):
        make()


def test_derive_rngs_rejects_wide_keys_and_bad_shapes():
    with pytest.raises(ModelError, match="below 2\\*\\*32"):
        derive_rngs(3, [[2**32, 0]])
    with pytest.raises(ModelError, match="2-D"):
        derive_rngs(3, [0, 1])
