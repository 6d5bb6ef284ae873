"""The encoder and training kernels against frozen copies of their straightforward forms.

``encode_batch_ids``, ``encode_backward_batch_ids`` and ``optimizer_step``
are written for speed but must perform the same floating-point operations,
in the same order, as the plain per-sequence forward and backward and the
whole-array AdamW expression below, which takes a dense gradient.  These
tests compare them bit for bit, signed zeros included; inputs are NaN-free
so equality plus sign bits is bit identity.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revrank.contrastive import interaction_matrix, score_ids
from revrank.encoder import (
    MAX_TOKENS,
    UNK,
    DualEncoder,
    EncoderGradients,
    EncoderParams,
    Vocabulary,
    _pool,
    encode_backward_batch_ids,
    encode_batch_ids,
    load_checkpoint,
    pool_ids,
    save_checkpoint,
)
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
# The backward adds d = 1 and d_e = 1, where a pairwise batch sum would differ.
BACKWARD_DIMENSIONS = DIMENSIONS + ((1, 4), (4, 1), (1, 1))
# The forward adds a wide tower and d_e = 1, whose mean numpy sums pairwise.
FORWARD_DIMENSIONS = DIMENSIONS + ((128, 32), (1, 4))


def reference_forward(params, batches):
    """Each sequence mean-pooled by numpy and projected on its own."""
    return np.stack([
        params.embedding[np.asarray(ids, dtype=np.intp)].mean(axis=0) @ params.projection
        + params.bias
        for ids in batches
    ])


def reference_backward(params, batches, upstream_rows):
    """Per-sequence dense gradients, summed in batch order, by block name."""
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
    return {"embedding": grad_embedding, "projection": grad_projection, "bias": grad_bias}


def reference_adamw(params, grads, state, t, lr, config):
    """Whole-array bias-corrected AdamW with decoupled weight decay.

    ``grads`` holds each block's dense gradient, by name.
    """
    b1, b2 = config.beta1, config.beta2
    for name, p in params.blocks().items():
        g = grads[name]
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


def random_batch(rng, vocab_size, n, longest, low=None):
    """``n`` id sequences, the first ``longest`` tokens long, the rest 1 to ``longest``."""
    lengths = rng.integers(1, longest + 1, size=n)
    lengths[0] = longest
    low = -vocab_size if low is None else low
    return [rng.integers(low, vocab_size, size=k).tolist() for k in lengths]


@st.composite
def backward_case(draw):
    vocab_size = draw(st.sampled_from(VOCAB_SIZES))
    d_e, d = draw(st.sampled_from(BACKWARD_DIMENSIONS))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        # Negative ids index from the end, as in numpy indexing.
        token = st.one_of(
            st.integers(-vocab_size, vocab_size - 1), st.just(vocab_size - 1), st.just(0)
        )
        batches = draw(
            st.lists(st.lists(token, min_size=1, max_size=12), min_size=1, max_size=6)
        )
    else:  # the size of a training batch
        n = draw(st.integers(8, 20))
        longest = draw(st.integers(1, MAX_TOKENS))
        batches = random_batch(np.random.default_rng(seed), vocab_size, n, longest)
    zero_upstream = draw(st.sampled_from((None, 0.0, -0.0)))
    return vocab_size, d_e, d, batches, zero_upstream, seed


def training_sized_case(vocab_size, d_e, d, n, seed):
    rng = np.random.default_rng(seed)
    return vocab_size, d_e, d, random_batch(rng, vocab_size, n, MAX_TOKENS), None, seed


@settings(max_examples=120, deadline=None)
@given(case=backward_case())
# Batch sums over 8 or more rows of one column, which a pairwise sum would reorder.
@example(case=training_sized_case(ADAMW_BLOCK_ROWS, 4, 1, 20, 4))
@example(case=training_sized_case(2000, 1, 1, 16, 1))
def test_backward_matches_per_sequence_reference(case):
    vocab_size, d_e, d, batches, zero_upstream, seed = case
    rng = np.random.default_rng(seed)
    params = random_params(rng, vocab_size, d_e, d)
    upstream = with_signed_zeros(rng, (len(batches), d))
    if zero_upstream is not None:
        upstream[0] = zero_upstream
    expected = reference_backward(params, batches, upstream)
    # Training hands over the forward's pooled batch; tests may pass ids.
    for actual in (encode_backward_batch_ids(params, batches, upstream),
                   encode_backward_batch_ids(params, pool_ids(params, batches), upstream)):
        for name, block in expected.items():
            assert_same_bits(actual.blocks()[name], block)
        # The compact gradient lists exactly the batch's wrapped ids, in order.
        wrapped = np.unique(np.concatenate(batches) % vocab_size)
        assert actual.rows.dtype == np.intp and np.array_equal(actual.rows, wrapped)
        assert_same_bits(actual.values, expected["embedding"][wrapped])


def test_backward_signed_zero_upstream():
    rng = np.random.default_rng(0)
    params = random_params(rng, 5, 3, 2)
    batches = [[4, 4, 0], [4], [1, 2, 1, 4]]
    upstream = np.full((3, 2), -0.0)
    actual = encode_backward_batch_ids(params, batches, upstream)
    expected = reference_backward(params, batches, upstream)
    for name, block in expected.items():
        assert_same_bits(actual.blocks()[name], block)
    assert not np.signbit(actual.embedding).any()


def test_backward_empty_batch_raises_like_the_forward():
    params = random_params(np.random.default_rng(1), 4, 3, 2)
    with pytest.raises(ValueError, match="^cannot encode an empty batch$"):
        encode_batch_ids(params, [])
    with pytest.raises(ValueError, match="^cannot encode an empty batch$"):
        encode_backward_batch_ids(params, [], np.zeros((0, 2)))


def touched_rows(rng, vocab_size, kind):
    """Sorted distinct rows: none, one, every row, or a random subset."""
    if kind == "empty":
        return np.zeros(0, dtype=np.intp)
    if kind == "one":
        return rng.integers(vocab_size, size=1)
    if kind == "all":
        return np.arange(vocab_size)
    return np.sort(rng.choice(vocab_size, size=rng.integers(vocab_size + 1), replace=False))


@settings(max_examples=60, deadline=None)
@given(
    vocab_size=st.sampled_from(VOCAB_SIZES),
    dims=st.sampled_from(DIMENSIONS),
    lr=st.sampled_from((1e-2, 3e-5, 0.37)),
    weight_decay=st.sampled_from((0.0, 0.01)),
    beta1=st.sampled_from((0.9, 0.5, 0.0)),
    # -0.0 passes the config's range check.
    beta2=st.sampled_from((0.999, -0.0)),
    touched=st.sampled_from(("empty", "one", "all", "random")),
    seed=st.integers(0, 2**32 - 1),
)
def test_adamw_matches_whole_array_reference(
    vocab_size, dims, lr, weight_decay, beta1, beta2, touched, seed
):
    d_e, d = dims
    rng = np.random.default_rng(seed)
    config = TrainConfig(weight_decay=weight_decay, beta1=beta1, beta2=beta2)
    params = random_params(rng, vocab_size, d_e, d)
    expected = params.copy()
    # Moments as training leaves them: m any sign, v never -0.0.
    state = AdamWState(
        m={name: with_signed_zeros(rng, block.shape) for name, block in params.blocks().items()},
        v={name: np.abs(with_signed_zeros(rng, block.shape))
           for name, block in params.blocks().items()},
    )
    expected_state = AdamWState(
        m={name: block.copy() for name, block in state.m.items()},
        v={name: block.copy() for name, block in state.v.items()},
    )
    for t in (1, 2, 3):
        rows = touched_rows(rng, vocab_size, touched)
        grads = EncoderGradients(
            rows=rows,
            values=with_signed_zeros(rng, (len(rows), d_e)),
            projection=with_signed_zeros(rng, (d_e, d)),
            bias=with_signed_zeros(rng, (d,)),
            vocab_size=vocab_size,
        )
        dense = grads.blocks()  # +0.0 in the rows the batch did not touch
        assert not np.signbit(np.delete(dense["embedding"], rows, axis=0)).any()
        optimizer_step(params, grads, state, t, lr, config)
        reference_adamw(expected, dense, expected_state, t, lr, config)
        for name, block in expected.blocks().items():
            assert_same_bits(params.blocks()[name], block)
            assert_same_bits(state.m[name], expected_state.m[name])
            assert_same_bits(state.v[name], expected_state.v[name])


def zero_bits(block):
    return not block.view(np.uint64).any()


@pytest.mark.parametrize("vocab_size", (ADAMW_BLOCK_ROWS + 1, 2000))
@pytest.mark.parametrize("weight_decay", (0.0, 0.01))
@pytest.mark.parametrize("beta2", (0.999, -0.0))
def test_adamw_from_zero_moments_matches_whole_array_reference(vocab_size, weight_decay, beta2):
    """Chunks no gradient has reached take the decay-only path, bit for bit.

    Training starts from zero moments.  The first steps touch chunk 0 only;
    from step 4 the rows on both sides of the first chunk edge and the last
    row are touched too.  Every chunk's parameters hold +0.0 and -0.0, whose
    update tells the decay-only path's ``+ 0.0`` apart from its absence.
    """
    d_e, d = 3, 2
    rng = np.random.default_rng(vocab_size)
    config = TrainConfig(weight_decay=weight_decay, beta2=beta2)
    params = random_params(rng, vocab_size, d_e, d)
    params.embedding[ADAMW_BLOCK_ROWS - 2 :: ADAMW_BLOCK_ROWS, :2] = (0.0, -0.0)
    params.embedding[-1, :2] = (-0.0, 0.0)
    expected = params.copy()
    state = AdamWState.zeros_like(params)
    expected_state = AdamWState.zeros_like(expected)
    assert not state.live_chunks.any()
    late_rows = [ADAMW_BLOCK_ROWS - 1, ADAMW_BLOCK_ROWS, vocab_size - 1]
    reached = set()
    for t, lr in enumerate((0.0, 1e-2, 0.37, 1e-2, 0.37, 3e-5, 1e-2), start=1):
        rows = rng.choice(ADAMW_BLOCK_ROWS - 2, size=rng.integers(1, 40), replace=False)
        if t >= 4:
            rows = np.concatenate([rows, late_rows])
        rows = np.sort(rows)
        reached.update((rows // ADAMW_BLOCK_ROWS).tolist())
        grads = EncoderGradients(
            rows=rows,
            values=with_signed_zeros(rng, (len(rows), d_e)),
            projection=with_signed_zeros(rng, (d_e, d)),
            bias=with_signed_zeros(rng, (d,)),
            vocab_size=vocab_size,
        )
        optimizer_step(params, grads, state, t, lr, config)
        reference_adamw(expected, grads.blocks(), expected_state, t, lr, config)
        for name, block in expected.blocks().items():
            assert_same_bits(params.blocks()[name], block)
            assert_same_bits(state.m[name], expected_state.m[name])
            assert_same_bits(state.v[name], expected_state.v[name])
        assert np.flatnonzero(state.live_chunks).tolist() == sorted(reached)
        for i in np.flatnonzero(~state.live_chunks):
            chunk = slice(i * ADAMW_BLOCK_ROWS, (i + 1) * ADAMW_BLOCK_ROWS)
            assert zero_bits(state.m["embedding"][chunk])
            assert zero_bits(state.v["embedding"][chunk])
    # At |V| = 2000 chunk 2 is never reached.
    assert state.live_chunks.all() == (vocab_size == ADAMW_BLOCK_ROWS + 1)


def test_adamw_state_flags_the_chunks_with_a_moment_that_is_not_plus_zero():
    vocab_size = 4 * ADAMW_BLOCK_ROWS - 5
    params = random_params(np.random.default_rng(0), vocab_size, 2, 2)
    assert AdamWState.zeros_like(params).live_chunks.tolist() == [False] * 4
    m = {name: np.zeros_like(block) for name, block in params.blocks().items()}
    v = {name: np.zeros_like(block) for name, block in params.blocks().items()}
    # Projection and bias moments do not flag a chunk.
    m["projection"][:], v["bias"][:] = 1.0, 1.0
    m["embedding"][2 * ADAMW_BLOCK_ROWS - 1, 1] = -0.0  # the last row of chunk 1
    v["embedding"][-1, 0] = 5e-324  # the last row of chunk 3
    assert AdamWState(m=m, v=v).live_chunks.tolist() == [False, True, False, True]
    v["embedding"][ADAMW_BLOCK_ROWS * 2] = -0.0  # the first row of chunk 2
    assert AdamWState(m=m, v=v).live_chunks.tolist() == [False, True, True, True]


# Batches on both sides of the pooling branch: fewer sequences than the
# longest has tokens are pooled one sequence at a time, the rest by position.
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 600),
    longest=st.integers(1, MAX_TOKENS),
    vocab_size=st.sampled_from((1, 7, 300)),
    dims=st.sampled_from(FORWARD_DIMENSIONS),
    # float64, what training writes, is drawn twice as often: only it is pooled by position.
    dtype=st.sampled_from((np.float64, np.float64, np.float32, np.float16)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, longest=1, vocab_size=7, dims=(3, 2), dtype=np.float64, seed=0)
@example(n=1, longest=MAX_TOKENS, vocab_size=300, dims=(64, 64), dtype=np.float64, seed=1)
@example(n=MAX_TOKENS - 1, longest=MAX_TOKENS, vocab_size=300, dims=(64, 64),
         dtype=np.float64, seed=2)
@example(n=MAX_TOKENS, longest=MAX_TOKENS, vocab_size=300, dims=(64, 64),
         dtype=np.float64, seed=3)
@example(n=600, longest=MAX_TOKENS, vocab_size=300, dims=(128, 32), dtype=np.float64, seed=4)
@example(n=600, longest=MAX_TOKENS, vocab_size=300, dims=(1, 4), dtype=np.float64, seed=5)
@example(n=600, longest=MAX_TOKENS, vocab_size=300, dims=(64, 64), dtype=np.float16, seed=6)
def test_forward_matches_per_sequence_reference(n, longest, vocab_size, dims, dtype, seed):
    d_e, d = dims
    rng = np.random.default_rng(seed)
    params = random_params(rng, vocab_size, d_e, d)
    params.embedding = params.embedding.astype(dtype)
    batch = random_batch(rng, vocab_size, n, longest)
    assert_same_bits(encode_batch_ids(params, batch), reference_forward(params, batch))


def test_position_pooling_is_numpy_mean_with_signed_zeros():
    # numpy's mean starts its sum from +0.0, so -0.0 rows pool to +0.0.  The
    # projection would hide that sign, so the pooled rows are compared.  No
    # batch has fewer sequences than tokens in its longest, so each is
    # pooled by position.
    embedding = np.array([[-0.0, -0.0], [-0.0, 1.0], [2.0, -0.0]])
    for batch in ([[0]], [[0], [0, 0], [0, 1, 0]], [[0, 0, 0]] * 4, [[2, 0], [0, 0]]):
        lengths = np.array([len(ids) for ids in batch])
        pooled = _pool(embedding, lengths, np.concatenate(batch))
        assert_same_bits(pooled, np.stack([embedding[ids].mean(axis=0) for ids in batch]))
        assert not np.signbit(pooled[0]).any()


# (n, longest) on both sides of the branch, a single token and rank's one context.
SHAPES = ((1, 1), (1, 60), (12, MAX_TOKENS), (MAX_TOKENS, MAX_TOKENS), (600, MAX_TOKENS),
          (500, 40))


@pytest.mark.parametrize("dims", FORWARD_DIMENSIONS)
def test_forward_on_mapped_checkpoint_tables(tmp_path, dims):
    """The tables of a loaded checkpoint are read-only views of a map of the file."""
    d_e, d = dims
    rng = np.random.default_rng(d_e * 1000 + d)
    vocab_size = 300
    vocab = Vocabulary((*(f"t{i}" for i in range(vocab_size - 1)), UNK), 1, 50000)
    path = tmp_path / "model.npz"
    save_checkpoint(DualEncoder(vocab=vocab,
                                context=random_params(rng, vocab_size, d_e, d),
                                review=random_params(rng, vocab_size, d_e, d)), path)
    model = load_checkpoint(path)
    assert not model.context.embedding.flags.writeable
    for n, longest in SHAPES:
        batch = random_batch(rng, vocab_size, n, longest, low=0)
        for params in (model.context, model.review):
            assert_same_bits(encode_batch_ids(params, batch), reference_forward(params, batch))
        contexts = random_batch(rng, vocab_size, n, longest, low=0)
        actual = score_ids(model, contexts, batch)
        expected = interaction_matrix(reference_forward(model.context, contexts),
                                      reference_forward(model.review, batch))
        assert_same_bits(actual.unclamped, expected.unclamped)
        assert_same_bits(actual.values, expected.values)


@st.composite
def blocked_case(draw):
    """Batches that span several blocks of pooling and of the backward pass."""
    vocab_size = draw(st.sampled_from((1, 7, 300, 2000)))
    d_e, d = draw(st.sampled_from(BACKWARD_DIMENSIONS + ((128, 32),)))
    n = draw(st.integers(1, 300))
    longest = draw(st.integers(1, MAX_TOKENS))
    shared = draw(st.booleans())  # one token in every sequence
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    return vocab_size, d_e, d, n, longest, shared, dtype, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(case=blocked_case())
@example(case=(300, 64, 64, 300, MAX_TOKENS, True, np.float64, 0))
@example(case=(2000, 64, 64, 300, MAX_TOKENS, False, np.float64, 1))
@example(case=(1, 1, 4, 200, 3, True, np.float64, 2))
@example(case=(300, 128, 32, 300, MAX_TOKENS, True, np.float32, 3))
def test_blocked_passes_match_per_sequence_reference(case):
    vocab_size, d_e, d, n, longest, shared, dtype, seed = case
    rng = np.random.default_rng(seed)
    params = random_params(rng, vocab_size, d_e, d)
    params.embedding = params.embedding.astype(dtype)
    batch = random_batch(rng, vocab_size, n, longest)
    if shared:
        for ids in batch:
            ids[-1] = vocab_size - 1
    assert_same_bits(encode_batch_ids(params, batch), reference_forward(params, batch))
    if dtype != np.float64:  # the reference sums a float32 table's gradient in float32
        return
    upstream = with_signed_zeros(rng, (n, d))
    expected = reference_backward(params, batch, upstream)
    actual = encode_backward_batch_ids(params, batch, upstream)
    for name, block in expected.items():
        assert_same_bits(actual.blocks()[name], block)
    assert np.array_equal(actual.rows, np.unique(np.concatenate(batch) % vocab_size))


def test_backward_one_column_one_row():
    """d_e = 1 and one distinct row: each of the row's sums is one entry wide.

    numpy's reduce adds such a column pairwise; the gradient adds the
    sequences one by one, in batch order.
    """
    rng = np.random.default_rng(0)
    params = random_params(rng, 1, 1, 4)
    batch = [[0], [0], [0], [-1]] * 10 + [[0, -1, 0]]
    upstream = rng.normal(size=(len(batch), 4)) * 10.0 ** rng.integers(-8, 8, size=(len(batch), 1))
    expected = reference_backward(params, batch, upstream)
    actual = encode_backward_batch_ids(params, batch, upstream)
    for name, block in expected.items():
        assert_same_bits(actual.blocks()[name], block)


def test_pool_and_backward_allocate_a_bounded_amount():
    """Pooling and the backward pass of 500 sequences of MAX_TOKENS tokens.

    Beyond their outputs, pooling holds the batch's ids by position (500
    KiB) and a few arrays of one row per sequence (250 KiB each).  The
    backward makes float64 temporaries of a block at a time (at most 256
    KiB each, or one token's rows), arrays of one integer per token (64000
    tokens, 500 KiB each) and each sequence's gradient added up to its most
    repeated token's count of times (about 1.2 MiB here).  Summing the
    whole batch at once took 57 MB for the backward.
    """
    rng = np.random.default_rng(0)
    vocab_size, d_e = 300, 64
    params = random_params(rng, vocab_size, d_e, 64)
    batch = [rng.integers(0, vocab_size, size=MAX_TOKENS).tolist() for _ in range(500)]
    upstream = rng.normal(size=(len(batch), 64))
    encode_backward_batch_ids(params, batch[:2], upstream[:2])  # numpy's first-call set-up
    tracemalloc.start()
    try:
        pooled = pool_ids(params, batch)
        pool_extra = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = encode_backward_batch_ids(params, pooled, upstream)
        backward_extra = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pooled.pooled.shape == (500, d_e) and len(grads.rows) == vocab_size
    assert pool_extra < 2 * 2**20
    assert backward_extra < 8 * 2**20


def test_pool_of_an_unaligned_table():
    """A table mapped from a checkpoint may be unaligned; it pools to the same bits."""
    rng = np.random.default_rng(5)
    params = random_params(rng, 300, 64, 8)
    raw = np.zeros(params.embedding.nbytes + 3, dtype=np.uint8)
    unaligned = np.frombuffer(raw.data, dtype=np.float64, count=params.embedding.size,
                              offset=3).reshape(params.embedding.shape)
    unaligned.flags.writeable = False
    raw[3:] = params.embedding.view(np.uint8).ravel()
    assert not unaligned.flags.aligned
    aligned = params.embedding
    for n in (12, 500):  # both sides of the pooling branch
        batch = random_batch(rng, 300, n, MAX_TOKENS)
        params.embedding = aligned
        expected = reference_forward(params, batch)
        params.embedding = unaligned
        assert_same_bits(encode_batch_ids(params, batch), expected)
