import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.encoder import (
    MAX_TOKENS,
    UNK,
    EncoderParams,
    Vocabulary,
    build_vocabulary,
    encode_backward_batch_ids,
    encode_batch_ids,
    init_params,
    tokenize,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("Great location!") == ["great", "location"]

    def test_field_line(self):
        assert tokenize("review_score: 9.0") == ["review", "score", "9", "0"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  \n\t ...") == []

    def test_unicode_and_digits(self):
        assert tokenize("Wi-Fi 5G café") == ["wi", "fi", "5g", "caf"]

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(),
        st.text(alphabet="İıßẞﬁǅΣσKKÅ\u0307 \t\n-_.,:/0123456789aZzé"),
        st.text(alphabet=" \t\n-_.,:/\u00a0\u2028"),
    ))
    def test_matches_split_and_filter(self, text):
        # The form tokenize had before it became one findall.
        expected = [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]
        assert tokenize(text) == expected


class TestVocabulary:
    def test_min_frequency_filter(self):
        corpus = [["a", "a", "a"], ["b"]]
        vocab = build_vocabulary(corpus, min_frequency=2, max_size=100)
        assert vocab.tokens == ("a", UNK)
        assert vocab.lookup("b") == vocab.unk_index

    def test_all_tokens_kept(self):
        corpus = [["x", "y"], ["z", "x"]]
        vocab = build_vocabulary(corpus, min_frequency=1, max_size=1000)
        assert set(vocab.tokens) == {"x", "y", "z", UNK}
        assert vocab.tokens[0] == "x"  # most frequent first
        assert vocab.tokens[-1] == UNK

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary([["b", "a", "b", "a"]], min_frequency=1, max_size=10)
        assert vocab.tokens == ("a", "b", UNK)

    def test_max_size_truncates(self):
        corpus = [[f"t{i}" for i in range(20)]]
        vocab = build_vocabulary(corpus, min_frequency=1, max_size=5)
        assert len(vocab) == 6  # five kept + UNK

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            build_vocabulary([], min_frequency=1, max_size=10)

    def test_truncation_at_lookup(self):
        vocab = build_vocabulary([["a"]], min_frequency=1, max_size=10)
        ids = vocab.encode_tokens(["a"] * (MAX_TOKENS + 40))
        assert len(ids) == MAX_TOKENS

    def test_round_trip_token_order(self):
        vocab = build_vocabulary([["c", "a", "b", "a"]], min_frequency=1, max_size=10)
        rebuilt = Vocabulary(vocab.tokens, vocab.min_frequency, vocab.max_size)
        assert rebuilt == vocab
        assert rebuilt.index == vocab.index == {"a": 0, "b": 1, "c": 2, UNK: 3}

    def test_rejects_repeated_token(self):
        with pytest.raises(ValueError, match="distinct"):
            Vocabulary(("a", "b", "a", UNK), min_frequency=1, max_size=10)

    def test_rejects_missing_unk(self):
        with pytest.raises(ValueError, match="UNK"):
            Vocabulary(("a", "b"), min_frequency=1, max_size=10)

    @given(st.lists(st.sampled_from(["a", "b", "c", "zz", UNK, ""]), max_size=MAX_TOKENS + 5))
    def test_encode_tokens_matches_lookup(self, tokens):
        vocab = build_vocabulary([["c", "a", "b", "a"]], min_frequency=1, max_size=10)
        assert vocab.encode_tokens(tokens) == [vocab.lookup(t) for t in tokens[:MAX_TOKENS]]


def small_params(seed=0, vocab_size=10, d_e=4, d=4):
    return init_params(d=d, d_e=d_e, vocab_size=vocab_size, seed=seed)


class TestEncode:
    def test_zero_params_zero_output(self):
        params = EncoderParams(
            embedding=np.zeros((5, 3)), projection=np.zeros((3, 2)), bias=np.zeros(2)
        )
        assert np.array_equal(encode_batch_ids(params, [[0, 2, 4]])[0], np.zeros(2))

    def test_single_token(self):
        params = small_params()
        expected = params.embedding[3] @ params.projection + params.bias
        assert np.allclose(encode_batch_ids(params, [[3]])[0], expected)

    def test_hand_case_2x2(self):
        params = EncoderParams(
            embedding=np.array([[1.0, 2.0], [3.0, 4.0]]),
            projection=np.array([[1.0, 0.0], [0.5, 1.0]]),
            bias=np.array([0.25, -1.0]),
        )
        # mean of both rows = [2, 3]; @ projection = [2+1.5, 3] = [3.5, 3]
        assert np.allclose(encode_batch_ids(params, [[0, 1]])[0], [3.75, 2.0])

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            encode_batch_ids(small_params(), [[]])

    def test_linear_in_embedding_scale(self):
        params = small_params(seed=3)
        base = encode_batch_ids(params, [[1, 2, 5]])[0] - params.bias
        scaled = EncoderParams(
            embedding=2.5 * params.embedding,
            projection=params.projection,
            bias=params.bias,
        )
        assert np.allclose(encode_batch_ids(scaled, [[1, 2, 5]])[0] - params.bias, 2.5 * base)

    def test_encode_string_uses_unk(self):
        vocab = build_vocabulary([["hello", "world"]], min_frequency=1, max_size=10)
        params = small_params(vocab_size=len(vocab))
        out_known = encode_batch_ids(params, [vocab.encode_text("hello")])[0]
        out_unknown = encode_batch_ids(params, [vocab.encode_text("zzz")])[0]
        expected_unk = params.embedding[vocab.unk_index] @ params.projection + params.bias
        assert np.allclose(out_unknown, expected_unk)
        assert not np.allclose(out_known, out_unknown)

    def test_batch_matches_single(self):
        params = small_params(seed=9)
        seqs = [[0, 1], [2], [3, 4, 5]]
        batch = encode_batch_ids(params, seqs)
        for row, ids in zip(batch, seqs):
            assert np.allclose(row, encode_batch_ids(params, [ids])[0])


class TestInit:
    def test_deterministic(self):
        a, b = small_params(seed=11), small_params(seed=11)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.projection, b.projection)

    def test_different_seeds_differ(self):
        assert not np.array_equal(small_params(seed=1).embedding, small_params(seed=2).embedding)

    def test_bounds_and_zero_bias(self):
        params = init_params(d=16, d_e=8, vocab_size=50, seed=4)
        assert np.all(np.abs(params.embedding) <= 0.05)
        assert np.all(np.abs(params.projection) <= 0.05)
        assert np.array_equal(params.bias, np.zeros(16))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(d=0, d_e=4, vocab_size=5, seed=0)


def finite_difference_grads(params, token_ids, upstream, h=1e-5):
    """Central differences of upstream . (encoding of token_ids) w.r.t. each block."""
    grads = {}
    for name, arr in params.blocks().items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(upstream @ encode_batch_ids(params, [token_ids])[0])
            flat[i] = orig - h
            lo = float(upstream @ encode_batch_ids(params, [token_ids])[0])
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads[name] = g
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestBackward:
    def test_zero_upstream(self):
        params = small_params()
        g = encode_backward_batch_ids(params, [[0, 1, 1]], np.zeros(4)[None])
        assert not any(b.any() for b in g.blocks().values())

    def test_single_token_embedding_grad(self):
        params = small_params(seed=5)
        upstream = np.array([1.0, -2.0, 0.5, 3.0])
        g = encode_backward_batch_ids(params, [[7]], upstream[None])
        assert np.allclose(g.embedding[7], params.projection @ upstream)
        assert np.allclose(g.embedding[[0, 1, 2, 3, 4, 5, 6, 8, 9]], 0.0)
        assert np.allclose(g.bias, upstream)

    def test_repeated_token_accumulates(self):
        params = small_params(seed=6)
        upstream = np.ones(4)
        g = encode_backward_batch_ids(params, [[2, 2, 3]], upstream[None])
        per_token = params.projection @ upstream / 3
        assert np.allclose(g.embedding[2], 2 * per_token)
        assert np.allclose(g.embedding[3], per_token)

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            params = small_params(seed=100 + trial)
            ids = rng.integers(0, 10, size=rng.integers(1, 7)).tolist()
            upstream = rng.normal(size=4)
            analytic = encode_backward_batch_ids(params, [ids], upstream[None])
            numeric = finite_difference_grads(params, ids, upstream)
            for name in numeric:
                assert rel_err(analytic.blocks()[name], numeric[name]) < 1e-4, name

    def test_batch_backward_sums(self):
        params = small_params(seed=8)
        seqs = [[0, 1], [2, 2, 3]]
        ups = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.5]])
        total = encode_backward_batch_ids(params, seqs, ups)
        a = encode_backward_batch_ids(params, [seqs[0]], ups[0][None])
        b = encode_backward_batch_ids(params, [seqs[1]], ups[1][None])
        for name in total.blocks():
            assert np.allclose(total.blocks()[name], a.blocks()[name] + b.blocks()[name])

    def test_shape_mismatch(self):
        params = small_params()
        with pytest.raises(ValueError):
            encode_backward_batch_ids(params, [[0]], np.zeros(3)[None])


class TestIndependence:
    def test_two_encoders_do_not_alias(self):
        context = small_params(seed=1)
        review = small_params(seed=2)
        before = encode_batch_ids(review, [[0, 1]])[0].copy()
        context.embedding += 100.0
        assert np.array_equal(encode_batch_ids(review, [[0, 1]])[0], before)


@settings(max_examples=25)
@given(
    data=st.data(),
    vocab_size=st.integers(min_value=2, max_value=12),
)
def test_property_gradients_match_fd(data, vocab_size):
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    params = init_params(d=3, d_e=3, vocab_size=vocab_size, seed=seed)
    n_tokens = data.draw(st.integers(min_value=1, max_value=6))
    ids = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=vocab_size - 1),
            min_size=n_tokens,
            max_size=n_tokens,
        )
    )
    upstream = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=-2, max_value=2, allow_nan=False),
                min_size=3,
                max_size=3,
            )
        )
    )
    analytic = encode_backward_batch_ids(params, [ids], upstream[None])
    numeric = finite_difference_grads(params, ids, upstream)
    for name in numeric:
        assert rel_err(analytic.blocks()[name], numeric[name]) < 1e-4
