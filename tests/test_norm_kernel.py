"""The l^r norm kernel's stack contract: a stacked norm equals its vector's norm alone, bit for bit.

spaces.lp_norm is the one place the library takes a norm, so every
stacked evaluator (columns of a tuple, rows of a sign block, tuples of an
audit chunk) relies on this.  Entries include zeros and subnormals; fewer
than 8 terms are summed, the dimensions the library works in.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multinorm.spaces import SpaceSpec, lp_norm

INF = math.inf
RS = (1.0, 1.5, 2.0, 3.0, INF)
ENTRY = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2e-308]),
)


@st.composite
def field_array(draw, shape):
    """A real or complex array of the given shape."""
    re = draw(arrays(np.float64, shape, elements=ENTRY))
    if draw(st.booleans()):
        re = re + 1j * draw(arrays(np.float64, shape, elements=ENTRY))
    return re


def _weights(draw, m):
    """Positive weights for m coordinates, or None (unweighted)."""
    if not draw(st.booleans()):
        return None
    return draw(arrays(np.float64, (m,), elements=st.floats(0.05, 20.0)))


def _bits(values) -> np.ndarray:
    return np.array(values, dtype=float).view(np.uint64)


@settings(max_examples=300)
@given(data=st.data(), r=st.sampled_from(RS), b=st.integers(1, 5), m=st.integers(1, 7))
def test_rows_of_a_stack_equal_each_vector_alone(data, r, b, m):
    V = data.draw(field_array((b, m)))
    w = _weights(data.draw, m)
    got = lp_norm(V, r, w=w)
    alone = [lp_norm(v, r, w=w) for v in V]
    assert all(isinstance(x, float) for x in alone)
    assert np.array_equal(_bits(got), _bits(alone))


@settings(max_examples=300)
@given(data=st.data(), r=st.sampled_from(RS), b=st.integers(1, 4), m=st.integers(1, 7), n=st.integers(1, 5))
def test_columns_of_a_stack_equal_each_vector_alone(data, r, b, m, n):
    V = data.draw(field_array((b, m, n)))
    w = _weights(data.draw, m)
    got = lp_norm(V, r, axis=-2, w=None if w is None else w[:, None])
    assert got.shape == (b, n)
    alone = [[lp_norm(V[i, :, j], r, w=w) for j in range(n)] for i in range(b)]
    assert np.array_equal(_bits(got), _bits(alone))


@settings(max_examples=300)
@given(data=st.data(), r=st.sampled_from(RS), m=st.integers(1, 7))
def test_space_norm_is_its_one_column_norm(data, r, m):
    w = _weights(data.draw, m)
    x = data.draw(field_array((m,)))
    space = SpaceSpec(r, m, () if w is None else tuple(w.tolist()), "complex" if np.iscomplexobj(x) else "real")
    one = space.norm(x)
    assert isinstance(one, float)
    assert np.array_equal(_bits(one), _bits(space.norm_cols(x[:, None])[0]))
