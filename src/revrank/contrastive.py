"""Interaction matrix and contrastive losses.

``interaction_matrix`` is the one place where embeddings become scores:
for N context and M review embeddings it holds F[i][j] = sigmoid(c_i . r_j),
an N x M matrix.  Training, validation and every reader score through it,
by way of ``score_ids``.  In a training batch N = M and the diagonal holds
the true pairs.  Two losses against the implicit identity target are
provided, each returning exact gradients with respect to both embedding
batches, and each rejecting a non-square matrix:

* InfoNCE, applied to the sigmoid outputs exactly as the training objective
  is defined here (no temperature, exp over values in (0,1)).  A consequence
  is a nonzero loss floor of log(1 + (N-1)/e) even for a perfect model.
* Elementwise binary cross entropy against the identity matrix, which does
  reach zero in the perfect-prediction limit.

Dot products are clamped to [-30, 30] before the sigmoid; within that range
the sigmoid gradient F(1-F) is exact, and outside it the clamp zeroes the
gradient (the forward value is saturated anyway).  An infinite dot product
saturates the same way, but a non-finite embedding or a NaN dot product
raises FloatingPointError.
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

    values: np.ndarray  # F, N x M in (0,1); N x N in a training batch
    unclamped: np.ndarray  # raw dot products Z
    contexts: np.ndarray  # N x d
    reviews: np.ndarray  # M x d

    @property
    def n(self) -> int:
        """Batch size of a square interaction; a loss cannot use N x M."""
        n, m = self.values.shape
        if n != m:
            raise ValueError(f"a loss needs a square interaction matrix, got {n} x {m}")
        return n


@dataclass
class LossOutput:
    loss: float
    grad_contexts: np.ndarray
    grad_reviews: np.ndarray


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|), which cannot overflow, it is 1 / (1 + e) where
    x >= 0 and e / (1 + e) elsewhere.  Each step runs in place over the
    whole array: a reader scores a 500 x 500 group while its dot products
    are still held, and fewer temporaries keep that cheap.
    """
    x = np.asarray(x, dtype=float)
    e = np.negative(np.abs(x))
    np.exp(e, out=e)
    denominator = e + 1.0
    np.divide(e, denominator, out=e)
    np.divide(1.0, denominator, out=e, where=x >= 0)
    return e


def interaction_matrix(contexts: np.ndarray, reviews: np.ndarray) -> Interaction:
    """F[i][j] = sigmoid(clip(c_i . r_j, +-30)) over N x d and M x d batches."""
    contexts = np.asarray(contexts, dtype=float)
    reviews = np.asarray(reviews, dtype=float)
    if contexts.ndim != 2 or reviews.ndim != 2 or contexts.shape[1] != reviews.shape[1]:
        raise ValueError(
            f"embedding batches must be (N, d) and (M, d), got "
            f"{contexts.shape} and {reviews.shape}"
        )
    if not (np.all(np.isfinite(contexts)) and np.all(np.isfinite(reviews))):
        raise FloatingPointError("non-finite embeddings")
    z = contexts @ reviews.T
    if np.isnan(z).any():
        raise FloatingPointError("NaN dot products")
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
) -> Interaction:
    """The interaction matrix of a model over token ids.

    Row i of ``.values`` scores context i against every review; each
    sequence is encoded once, and all dot products come from one matrix
    product.
    """
    return interaction_matrix(
        encode_batch_ids(model.context, context_ids),
        encode_batch_ids(model.review, review_ids),
    )
