"""Interaction matrix and contrastive losses.

For a batch of N (context, review) embedding pairs the interaction matrix is
F[i][j] = sigmoid(c_i . r_j); the diagonal holds the true pairs.  Two losses
against the implicit identity target are provided, each returning exact
gradients with respect to both embedding batches:

* InfoNCE, applied to the sigmoid outputs exactly as the training objective
  is defined here (no temperature, exp over values in (0,1)).  A consequence
  is a nonzero loss floor of log(1 + (N-1)/e) even for a perfect model.
* Elementwise binary cross entropy against the identity matrix, which does
  reach zero in the perfect-prediction limit.

Dot products are clamped to [-30, 30] before the sigmoid; within that range
the sigmoid gradient F(1-F) is exact, and outside it the clamp zeroes the
gradient (the forward value is saturated anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import DualEncoder, encode_batch_ids

SIGMOID_CLAMP = 30.0
BCE_EPS = 1e-12


@dataclass
class Interaction:
    """Forward intermediates of interaction_matrix, kept for backward."""

    values: np.ndarray  # F, N x N in (0,1)
    unclamped: np.ndarray  # raw dot products Z
    contexts: np.ndarray  # N x d
    reviews: np.ndarray  # N x d

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class LossOutput:
    loss: float
    grad_contexts: np.ndarray
    grad_reviews: np.ndarray


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def interaction_matrix(contexts: np.ndarray, reviews: np.ndarray) -> Interaction:
    """F[i][j] = sigmoid(c_i . r_j) over two N x d embedding batches."""
    contexts = np.asarray(contexts, dtype=float)
    reviews = np.asarray(reviews, dtype=float)
    if contexts.shape != reviews.shape or contexts.ndim != 2:
        raise ValueError(
            f"embedding batches must share an (N, d) shape, got "
            f"{contexts.shape} and {reviews.shape}"
        )
    if not (np.all(np.isfinite(contexts)) and np.all(np.isfinite(reviews))):
        raise ValueError("non-finite embeddings")
    z = contexts @ reviews.T
    f = sigmoid(np.clip(z, -SIGMOID_CLAMP, SIGMOID_CLAMP))
    return Interaction(values=f, unclamped=z, contexts=contexts, reviews=reviews)


def _embedding_grads(inter: Interaction, grad_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Push a gradient w.r.t. F back to the two embedding batches."""
    f = inter.values
    active = (np.abs(inter.unclamped) < SIGMOID_CLAMP).astype(float)
    grad_z = grad_f * f * (1.0 - f) * active
    return grad_z @ inter.reviews, grad_z.T @ inter.contexts


def info_nce_loss(inter: Interaction) -> LossOutput:
    """Symmetric InfoNCE over the interaction matrix.

    L = -(1/2N) [ sum_i log softmax_row(F)_ii + sum_j log softmax_col(F)_jj ]
    """
    f = inter.values
    n = inter.n
    if n < 2:
        raise ValueError("InfoNCE needs a batch of at least 2 pairs")

    def log_softmax(scores: np.ndarray) -> np.ndarray:
        shifted = scores - scores.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    row_ls = log_softmax(f)
    col_ls = log_softmax(f.T)
    diag = np.arange(n)
    loss = -(row_ls[diag, diag].sum() + col_ls[diag, diag].sum()) / (2 * n)

    # d(-log softmax_ii)/dF over rows is (P - I) per row; same over columns.
    p_row = np.exp(row_ls)
    p_col = np.exp(col_ls).T
    identity = np.eye(n)
    grad_f = (p_row + p_col - 2 * identity) / (2 * n)
    grad_c, grad_r = _embedding_grads(inter, grad_f)
    return LossOutput(loss=float(loss), grad_contexts=grad_c, grad_reviews=grad_r)


def info_nce_floor(n: int) -> float:
    """Greatest lower bound of InfoNCE over valid interaction matrices."""
    return float(np.log(1.0 + (n - 1) * np.exp(-1.0)))


def bce_loss(inter: Interaction) -> LossOutput:
    """Mean elementwise binary cross entropy against the identity target."""
    f = inter.values
    n = inter.n
    clamped = np.clip(f, BCE_EPS, 1.0 - BCE_EPS)
    identity = np.eye(n)
    loss = -(
        identity * np.log(clamped) + (1.0 - identity) * np.log(1.0 - clamped)
    ).sum() / (n * n)
    # dL/dF = (F - I) / (F (1-F) N^2).  The eps clamp guards the forward
    # logs only; F itself stays strictly inside (0,1) because the dot
    # products were clamped before the sigmoid, so this never divides by
    # zero and the downstream F(1-F) factor cancels it exactly.
    grad_f = (f - identity) / (f * (1.0 - f) * n * n)
    grad_c, grad_r = _embedding_grads(inter, grad_f)
    return LossOutput(loss=float(loss), grad_contexts=grad_c, grad_reviews=grad_r)


LOSSES = {"infonce": info_nce_loss, "bce": bce_loss}


def score_ids(
    model: DualEncoder,
    context_ids: Sequence[Sequence[int]],
    review_ids: Sequence[Sequence[int]],
) -> np.ndarray:
    """Deployed scoring rule over token ids: sigmoid(clip(C R^T, +-30)).

    Row i scores context i against every review; each sequence is encoded
    once, and all dot products come from one matrix product.
    """
    contexts = encode_batch_ids(model.context, context_ids)
    reviews = encode_batch_ids(model.review, review_ids)
    return sigmoid(np.clip(contexts @ reviews.T, -SIGMOID_CLAMP, SIGMOID_CLAMP))
