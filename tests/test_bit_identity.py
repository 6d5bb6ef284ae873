"""The training kernels against frozen copies of their straightforward forms.

``encode_backward_batch_ids`` and ``optimizer_step`` are written for speed
but must perform the same floating-point operations, in the same order, as
the plain per-sequence backward summed over the batch and the whole-array
AdamW expression below.  These tests compare them bit for bit, signed zeros
included; inputs are NaN-free so equality plus sign bits is bit identity.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.encoder import EncoderGradients, EncoderParams, encode_backward_batch_ids
from revrank.trainer import (
    ADAMW_BLOCK_ROWS,
    AdamWState,
    TrainConfig,
    optimizer_step,
)

# Table sizes on both sides of the AdamW chunk edge.
VOCAB_SIZES = (1, ADAMW_BLOCK_ROWS - 1, ADAMW_BLOCK_ROWS, ADAMW_BLOCK_ROWS + 1, 2000)
# (d_e, d): a small tower and the default 64 x 64 projection.
DIMENSIONS = ((3, 2), (64, 64))


def reference_backward(params, batches, upstream_rows):
    """Per-sequence dense gradients, summed in batch order."""
    grad_embedding = np.zeros_like(params.embedding)
    grad_projection = np.zeros_like(params.projection)
    grad_bias = np.zeros_like(params.bias)
    for token_ids, upstream in zip(batches, upstream_rows):
        upstream = np.asarray(upstream, dtype=float)
        ids = np.asarray(token_ids, dtype=np.intp)
        pooled = params.embedding[ids].mean(axis=0)
        row_bias = upstream.copy()
        row_projection = np.outer(pooled, upstream)
        grad_pooled = params.projection @ upstream
        row_embedding = np.zeros_like(params.embedding)
        np.add.at(row_embedding, ids, grad_pooled / len(ids))
        grad_embedding += row_embedding
        grad_projection += row_projection
        grad_bias += row_bias
    return EncoderGradients(
        embedding=grad_embedding, projection=grad_projection, bias=grad_bias
    )


def reference_adamw(params, grads, state, t, lr, config):
    """Whole-array bias-corrected AdamW with decoupled weight decay."""
    b1, b2 = config.beta1, config.beta2
    for name, p in params.blocks().items():
        g = grads.blocks()[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p -= lr * (m_hat / (np.sqrt(v_hat) + config.eps) + config.weight_decay * p)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def with_signed_zeros(rng, shape, scale=1.0):
    """Normal draws with about a tenth of the entries set to +0.0 or -0.0."""
    values = rng.normal(scale=scale, size=shape)
    zeros = rng.random(shape) < 0.1
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return values


def random_params(rng, vocab_size, d_e, d):
    return EncoderParams(
        embedding=with_signed_zeros(rng, (vocab_size, d_e), 0.05),
        projection=with_signed_zeros(rng, (d_e, d), 0.05),
        bias=with_signed_zeros(rng, (d,), 0.05),
    )


@st.composite
def backward_case(draw):
    vocab_size = draw(st.sampled_from(VOCAB_SIZES))
    d_e, d = draw(st.sampled_from(DIMENSIONS))
    # Negative ids index from the end, as in numpy indexing.
    token = st.one_of(
        st.integers(-vocab_size, vocab_size - 1), st.just(vocab_size - 1), st.just(0)
    )
    batches = draw(
        st.lists(st.lists(token, min_size=1, max_size=12), min_size=1, max_size=6)
    )
    zero_upstream = draw(st.sampled_from((None, 0.0, -0.0)))
    return vocab_size, d_e, d, batches, zero_upstream, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(case=backward_case())
def test_backward_matches_per_sequence_reference(case):
    vocab_size, d_e, d, batches, zero_upstream, seed = case
    rng = np.random.default_rng(seed)
    params = random_params(rng, vocab_size, d_e, d)
    upstream = with_signed_zeros(rng, (len(batches), d))
    if zero_upstream is not None:
        upstream[0] = zero_upstream
    actual = encode_backward_batch_ids(params, batches, upstream)
    expected = reference_backward(params, batches, upstream)
    for name, block in expected.blocks().items():
        assert_same_bits(actual.blocks()[name], block)


def test_backward_signed_zero_upstream():
    rng = np.random.default_rng(0)
    params = random_params(rng, 5, 3, 2)
    batches = [[4, 4, 0], [4], [1, 2, 1, 4]]
    upstream = np.full((3, 2), -0.0)
    actual = encode_backward_batch_ids(params, batches, upstream)
    expected = reference_backward(params, batches, upstream)
    for name, block in expected.blocks().items():
        assert_same_bits(actual.blocks()[name], block)
    assert not np.signbit(actual.embedding).any()


def test_backward_empty_batch_is_zero():
    params = random_params(np.random.default_rng(1), 4, 3, 2)
    grads = encode_backward_batch_ids(params, [], np.zeros((0, 2)))
    for name, block in reference_backward(params, [], np.zeros((0, 2))).blocks().items():
        assert_same_bits(grads.blocks()[name], block)


@settings(max_examples=40, deadline=None)
@given(
    vocab_size=st.sampled_from(VOCAB_SIZES),
    dims=st.sampled_from(DIMENSIONS),
    lr=st.sampled_from((1e-2, 3e-5, 0.37)),
    weight_decay=st.sampled_from((0.0, 0.01)),
    seed=st.integers(0, 2**32 - 1),
)
def test_adamw_matches_whole_array_reference(vocab_size, dims, lr, weight_decay, seed):
    d_e, d = dims
    rng = np.random.default_rng(seed)
    config = TrainConfig(weight_decay=weight_decay)
    params = random_params(rng, vocab_size, d_e, d)
    expected = params.copy()
    state = AdamWState.zeros_like(params)
    expected_state = AdamWState.zeros_like(params)
    for t in (1, 2, 3):
        grads = EncoderGradients(**{
            name: with_signed_zeros(rng, block.shape)
            for name, block in params.blocks().items()
        })
        optimizer_step(params, grads, state, t, lr, config)
        reference_adamw(expected, grads, expected_state, t, lr, config)
        for name, block in expected.blocks().items():
            assert_same_bits(params.blocks()[name], block)
            assert_same_bits(state.m[name], expected_state.m[name])
            assert_same_bits(state.v[name], expected_state.v[name])
