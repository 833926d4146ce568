"""Block-drawn random streams match a plain Generator draw for draw.

:class:`repro.core.draws.BlockStream` serves scalar draws from
pre-drawn blocks and re-syncs the generator before any other draw.
Every value it hands out, and the generator state it leaves behind, must
equal what a plain :class:`numpy.random.Generator` making the same
scalar calls would produce, in any interleaving.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.draws import BLOCK, BlockStream

MODULI = (1, 2, 3, 5, 7, 9, 16, 31, 1000, 2**31 + 5)


def _apply(op, source, plain):
    """Run one operation on a stream (``source``) and on a plain
    generator; returns the two results."""
    kind = op[0]
    if kind == "integers":
        _, m, reps = op
        return ([source.integers(m) for _ in range(reps)],
                [int(plain.integers(m)) for _ in range(reps)])
    if kind == "random":
        _, reps = op
        return ([source.random() for _ in range(reps)],
                [plain.random() for _ in range(reps)])
    if kind == "uniform":
        _, lo, hi, size = op
        return (source.uniform(lo, hi, size),
                plain.uniform(lo, hi, size=size).tolist())
    if kind == "choice":
        _, weights = op
        p = np.asarray(weights) / sum(weights)
        return (int(source.generator.choice(len(weights), p=p)),
                int(plain.choice(len(weights), p=p)))
    raise AssertionError(kind)


_OPS = st.one_of(
    # The stream's usual modulus, its rarer neighbours (a foreign
    # draw, or a modulus change as ``set_masters`` causes), and a
    # modulus past 2**32 that numpy draws from 64-bit words.
    st.tuples(st.just("integers"),
              st.sampled_from((3, 3, 3, 2, 5, 2**40 + 1)),
              st.integers(1, 400)),
    st.tuples(st.just("random"), st.integers(1, 400)),
    st.tuples(st.just("uniform"),
              st.sampled_from((-0.3, 0.0, -2.5)),
              st.sampled_from((0.3, 1.0, 7.25)),
              st.integers(0, 2 * BLOCK)),
    st.tuples(st.just("choice"),
              st.lists(st.floats(0.1, 4.0), min_size=1, max_size=6)),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OPS, max_size=25), seed=st.integers(0, 2**32 - 1))
def test_interleaved_draws_match_plain_generator(ops, seed):
    stream = BlockStream(np.random.default_rng(seed))
    plain = np.random.default_rng(seed)
    for op in ops:
        got, want = _apply(op, stream, plain)
        assert got == want, op
    assert (stream.generator.bit_generator.state
            == plain.bit_generator.state)


@pytest.mark.parametrize("m", MODULI)
def test_integer_blocks_match_scalar_calls(m):
    stream = BlockStream(np.random.default_rng(m))
    plain = np.random.default_rng(m)
    n = 3 * BLOCK + 7
    assert ([stream.integers(m) for _ in range(n)]
            == [int(plain.integers(m)) for _ in range(n)])
    assert (stream.generator.bit_generator.state
            == plain.bit_generator.state)


def test_uniform_matches_generator_formula():
    stream = BlockStream(np.random.default_rng(5))
    plain = np.random.default_rng(5)
    got = [x for _ in range(200) for x in stream.uniform(-0.3, 0.3, 5)]
    assert got == plain.uniform(-0.3, 0.3, size=1000).tolist()


def test_generator_accessor_resyncs_mid_block():
    stream = BlockStream(np.random.default_rng(9))
    plain = np.random.default_rng(9)
    for _ in range(10):
        assert stream.random() == plain.random()
    assert (stream.generator.bit_generator.state
            == plain.bit_generator.state)
    # The stream keeps serving correctly after handing the generator out.
    assert stream.integers(4) == plain.integers(4)
    assert stream.random() == plain.random()


def test_invalid_modulus_is_rejected_like_numpy():
    stream = BlockStream(np.random.default_rng(0))
    with pytest.raises(ValueError):
        stream.integers(0)
    with pytest.raises(ValueError):
        stream.integers(-3)
    assert (stream.generator.bit_generator.state
            == np.random.default_rng(0).bit_generator.state)
