import pytest

from rwre._rng import derive_rng
from rwre.errors import ModelError


@pytest.mark.parametrize("make", [
    lambda: derive_rng(-1, 0),
    lambda: derive_rng(3, 0, -2),
    lambda: derive_rng(-1),
    lambda: derive_rng(2**64, -1, 0),
])
def test_negative_seed_or_key_is_model_error(make):
    with pytest.raises(ModelError, match="nonnegative"):
        make()
