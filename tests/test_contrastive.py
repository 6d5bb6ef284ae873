import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.contrastive import (
    LOSSES,
    Interaction,
    bce_loss,
    info_nce_floor,
    info_nce_loss,
    interaction_matrix,
    score_ids,
    sigmoid,
)
from revrank.encoder import DualEncoder, build_vocabulary, init_params, tokenize


def random_batch(seed, n=4, d=8, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=(n, d)), rng.normal(scale=scale, size=(n, d))


class TestInteractionMatrix:
    def test_zero_embeddings(self):
        inter = interaction_matrix(np.zeros((3, 5)), np.zeros((3, 5)))
        assert np.allclose(inter.values, 0.5)

    def test_identity_case(self):
        eye = np.eye(2)
        inter = interaction_matrix(eye, eye)
        expected = np.array([[0.73106, 0.5], [0.5, 0.73106]])
        assert np.allclose(inter.values, expected, atol=1e-5)

    def test_extreme_dot_products_stay_in_open_interval(self):
        c = np.array([[100.0]])
        r = np.array([[-100.0]])
        inter = interaction_matrix(c, r)
        assert 0.0 < inter.values[0, 0] < 1e-12
        inter2 = interaction_matrix(c, -r)
        assert 1.0 - 1e-12 < inter2.values[0, 0] < 1.0

    def test_shape_mismatch(self):
        # 2 contexts against 3 reviews is a valid 2 x 3 scoring matrix, but
        # neither loss can take it
        inter = interaction_matrix(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            info_nce_loss(inter)
        with pytest.raises(ValueError):
            bce_loss(inter)
        with pytest.raises(ValueError):
            interaction_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_nonfinite_rejected(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(FloatingPointError):
            interaction_matrix(bad, np.zeros((2, 2)))

    def test_nan_logits_from_finite_embeddings_rejected(self):
        # Half the products overflow to +inf and half to -inf.  Whether the
        # dot product is NaN or saturates depends on how BLAS splits the sum
        # (one fused multiply-add chain keeps the first infinity), so each
        # width is checked against the product this build computes.
        widths_with_nan = []
        for d in (2, 4, 8, 16, 32, 64):
            c = np.full((1, d), 1e200)
            r = np.tile([1e200, -1e200], (1, d // 2))
            with np.errstate(over="ignore", invalid="ignore"):
                z = c @ r.T
                if np.isnan(z).any():
                    widths_with_nan.append(d)
                    with pytest.raises(FloatingPointError):
                        interaction_matrix(c, r)
                else:  # an infinite dot product saturates
                    inter = interaction_matrix(c, r)
                    assert np.array_equal(inter.values, sigmoid(np.clip(z, -30, 30)))
        assert widths_with_nan, "no width gave a NaN dot product"

    def test_one_context_against_many_reviews(self):
        inter = interaction_matrix(np.ones((1, 3)), np.ones((5, 3)))
        assert inter.values.shape == (1, 5)
        assert inter.unclamped.shape == (1, 5)

    def test_sigmoid_tails(self):
        # interaction_matrix clamps inputs to [-30, 30]; within that range
        # the sigmoid stays strictly inside (0, 1)
        x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        y = sigmoid(x)
        assert np.all(y > 0) and np.all(y < 1)
        assert y[2] == 0.5
        huge = interaction_matrix(np.array([[1e4]]), np.array([[1.0]]))
        tiny = interaction_matrix(np.array([[-1e4]]), np.array([[1.0]]))
        assert 0.0 < tiny.values[0, 0] < huge.values[0, 0] < 1.0


class TestInfoNCE:
    def test_uniform_half_gives_ln2(self):
        inter = interaction_matrix(np.zeros((2, 3)), np.zeros((2, 3)))
        out = info_nce_loss(inter)
        assert out.loss == pytest.approx(math.log(2), abs=1e-9)

    def test_identity_case_value(self):
        eye = np.eye(2)
        out = info_nce_loss(interaction_matrix(eye, eye))
        # exact: -log(sigma(1)-softmax) = log(1 + e^{sigma(0)-sigma(1)})
        expected = math.log(1.0 + math.exp(0.5 - 1.0 / (1.0 + math.exp(-1.0))))
        assert out.loss == pytest.approx(expected, abs=1e-12)
        assert out.loss == pytest.approx(0.58419, abs=1e-4)

    def test_floor(self):
        # diagonal -> 1, off-diagonal -> 0 is the best reachable limit
        for n in (2, 3, 5):
            strong = 1000.0 * (2 * np.eye(n) - 1.0)
            inter = Interaction(
                values=sigmoid(np.clip(strong, -30, 30)),
                unclamped=strong,
                contexts=np.zeros((n, 1)),
                reviews=np.zeros((n, 1)),
            )
            out = info_nce_loss(inter)
            floor = info_nce_floor(n)
            assert out.loss >= floor - 1e-12
            assert out.loss == pytest.approx(floor, abs=1e-9)
        assert info_nce_floor(2) > 0.31326 - 1e-5

    def test_n1_rejected(self):
        inter = interaction_matrix(np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            info_nce_loss(inter)


class TestBCE:
    def test_uniform_half_gives_ln2(self):
        inter = interaction_matrix(np.zeros((2, 3)), np.zeros((2, 3)))
        out = bce_loss(inter)
        assert out.loss == pytest.approx(math.log(2), abs=1e-9)

    def test_identity_case_value(self):
        eye = np.eye(2)
        out = bce_loss(interaction_matrix(eye, eye))
        s1 = 1.0 / (1.0 + math.exp(-1.0))
        expected = -(2 * math.log(s1) + 2 * math.log(0.5)) / 4.0
        assert out.loss == pytest.approx(expected, abs=1e-12)
        assert out.loss == pytest.approx(0.50321, abs=1e-4)

    def test_perfect_prediction_limit(self):
        strong = 30.0 * (2 * np.eye(3) - 1.0)
        inter = Interaction(
            values=sigmoid(strong),
            unclamped=strong,
            contexts=np.zeros((3, 1)),
            reviews=np.zeros((3, 1)),
        )
        assert bce_loss(inter).loss < 1e-10

    def test_saturated_logs_stay_finite(self):
        z = np.array([[40.0, -40.0], [-40.0, 40.0]])
        inter = interaction_matrix(
            np.array([[40.0, 0.0], [0.0, -40.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        out = bce_loss(inter)
        assert math.isfinite(out.loss)
        assert np.all(np.isfinite(out.grad_contexts))


def masked_sigmoid(x):
    """Reference: each branch of the logistic function over its own entries."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-30, 30, allow_subnormal=True), min_size=1, max_size=300),
        rows=st.integers(1, 3),
    )
    def test_bits_equal_masked_reference(self, values, rows):
        x = np.resize(np.array(values), (rows, len(values)))
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_bits_equal_masked_reference_on_a_grid(self):
        x = np.concatenate([np.linspace(-30, 30, 200_001), [-0.0, 0.0, 5e-324, -5e-324]])
        before = x.copy()
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
        assert x.tobytes() == before.tobytes()  # the input is left alone


def fd_loss_grads(loss_fn, contexts, reviews, h=1e-5):
    def value(c, r):
        return loss_fn(interaction_matrix(c, r)).loss

    grads = []
    for arr in (contexts, reviews):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            hi = value(contexts, reviews)
            arr[idx] = orig - h
            lo = value(contexts, reviews)
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestGradients:
    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_matches_finite_differences(self, name):
        loss_fn = LOSSES[name]
        for seed in range(6):
            contexts, reviews = random_batch(seed, n=4, d=8)
            out = loss_fn(interaction_matrix(contexts, reviews))
            fd_c, fd_r = fd_loss_grads(loss_fn, contexts, reviews)
            assert rel_err(out.grad_contexts, fd_c) < 1e-4
            assert rel_err(out.grad_reviews, fd_r) < 1e-4

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_descent_direction(self, name):
        loss_fn = LOSSES[name]
        for seed in range(5):
            contexts, reviews = random_batch(seed + 50, n=5, d=6)
            out = loss_fn(interaction_matrix(contexts, reviews))
            step = 1e-3
            new = loss_fn(
                interaction_matrix(
                    contexts - step * out.grad_contexts,
                    reviews - step * out.grad_reviews,
                )
            )
            assert new.loss <= out.loss + 1e-12


class TestSymmetries:
    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_transpose_invariance(self, name):
        loss_fn = LOSSES[name]
        contexts, reviews = random_batch(3, n=5, d=4)
        direct = loss_fn(interaction_matrix(contexts, reviews)).loss
        swapped = loss_fn(interaction_matrix(reviews, contexts)).loss
        # F(reviews, contexts) = F(contexts, reviews)^T
        assert swapped == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(LOSSES))
    @settings(max_examples=20)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    def test_permutation_equivariance(self, name, seed, n):
        loss_fn = LOSSES[name]
        rng = np.random.default_rng(seed)
        contexts = rng.normal(size=(n, 3))
        reviews = rng.normal(size=(n, 3))
        perm = rng.permutation(n)
        base = loss_fn(interaction_matrix(contexts, reviews)).loss
        permuted = loss_fn(interaction_matrix(contexts[perm], reviews[perm])).loss
        assert permuted == pytest.approx(base, abs=1e-10)


class TestScorePair:
    """Pair scores from the batched scoring routine over token ids."""

    def test_zero_projection_gives_half(self):
        vocab = build_vocabulary([tokenize("hello world")], 1, 10)
        params = init_params(d=4, d_e=4, vocab_size=len(vocab), seed=0)
        params.projection[:] = 0.0
        params.bias[:] = 0.0
        model = DualEncoder(vocab=vocab, context=params, review=params)
        scores = score_ids(
            model, [vocab.encode_text("hello")], [vocab.encode_text("world")]
        ).values
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(0.5)

    def test_consistent_with_matrix(self):
        vocab = build_vocabulary([tokenize("alpha beta gamma delta")], 1, 10)
        ctx = init_params(d=4, d_e=4, vocab_size=len(vocab), seed=1)
        rev = init_params(d=4, d_e=4, vocab_size=len(vocab), seed=2)
        from revrank.encoder import encode_batch_ids

        texts = [("alpha", "beta"), ("gamma", "delta")]
        c = np.stack([encode_batch_ids(ctx, [vocab.encode_text(a)])[0] for a, _ in texts])
        r = np.stack([encode_batch_ids(rev, [vocab.encode_text(b)])[0] for _, b in texts])
        inter = interaction_matrix(c, r)
        model = DualEncoder(vocab=vocab, context=ctx, review=rev)
        scores = score_ids(
            model,
            [vocab.encode_text(a) for a, _ in texts],
            [vocab.encode_text(b) for _, b in texts],
        ).values
        for i in range(len(texts)):
            assert scores[i, i] == pytest.approx(inter.values[i, i], abs=1e-12)
        # the same floats as the training-side interaction matrix
        assert np.array_equal(scores, inter.values)

    def test_monotone_in_dot_product(self):
        z = np.linspace(-5, 5, 21)
        s = sigmoid(z)
        assert np.all(np.diff(s) > 0)
