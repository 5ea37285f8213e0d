"""The per-row helpers of curvbound.errors."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from curvbound.errors import fold_last

# ±0.0 in both orders, ±inf and NaN among ordinary floats
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, width=64))


@given(
    lead=st.sampled_from([(1,), (25,), (2304,), (3, 1), (2, 25), (1, 2304)]),
    k=st.integers(1, 5),
    pool=st.lists(ENTRIES, min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    transposed=st.booleans(),
    p_true=st.floats(0.0, 1.0),
)
def test_fold_last_is_the_reduction_over_the_last_axis_byte_for_byte(
        lead, k, pool, seed, transposed, p_true):
    rng = np.random.default_rng(seed)
    a = rng.choice(np.array(pool + [0.0, -0.0]), size=lead + (k,))
    if transposed:  # the same values, with the last axis the slowest in memory
        a = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
    assert fold_last(np.maximum, a).tobytes() == a.max(axis=-1).tobytes()
    assert fold_last(np.minimum, a).tobytes() == a.min(axis=-1).tobytes()
    mask = rng.random(a.shape) < p_true
    assert fold_last(np.logical_and, mask).tobytes() == mask.all(axis=-1).tobytes()


def test_fold_last_keeps_the_order_of_signed_zeros():
    a = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [np.nan, -0.0], [-np.inf, np.nan]])
    for ufunc, reduction in ((np.maximum, a.max), (np.minimum, a.min)):
        assert fold_last(ufunc, a).tobytes() == reduction(axis=-1).tobytes()
