"""
Training end to end on a planted-signal corpus
==============================================

Generates a corpus whose reviews carry a guest-type signal, trains the
dual encoder, and checks that the model recovers the signal on held-out
accommodations. Also round-trips a checkpoint through disk.
"""

import tempfile
from pathlib import Path

import numpy as np

from revrank.dataset import group_by_accommodation, split_dataset
from revrank.encoder import load_checkpoint, save_checkpoint
from revrank.evaluation import (
    helpful_votes_ranking,
    model_rank_group,
    per_accommodation_mrr,
    random_scorer_expectation,
)
from revrank.synthgen import SynthConfig, bayes_optimal_mrr, generate
from revrank.trainer import train, TrainConfig

# 120 accommodations, 12 reviews each, strong planted signal.
synth = SynthConfig(n_accommodations=120, reviews_per_accommodation=(12, 12),
                    signal_strength=0.9, seed=1)
records = generate(synth)
groups = group_by_accommodation(records)
train_g, valid_g, test_g = split_dataset(groups, (0.8, 0.1, 0.1), seed=1)
train_records = [r for g in train_g for r in g.records]
valid_records = [r for g in valid_g for r in g.records]
print(f"accommodations: {len(train_g)} train / {len(valid_g)} valid / {len(test_g)} test")

# The Bayes ranker orders reviews by the posterior that the context's guest
# type wrote them. Its expected MRR over the accommodations with at least 2
# reviews, ties counted at their expected rank, bounds what a trained model
# can reach: a model may land above it on one corpus by noise, but not in
# expectation.
print(f"bayes-optimal MRR for this generator: {bayes_optimal_mrr(synth):.4f}")

config = TrainConfig(seed=1)
result = train(train_records, valid_records, config)
print(f"\nbest epoch by validation MRR: {result.best_epoch}")
for stats in result.epochs:
    val = "-" if stats.val_mrr is None else f"{stats.val_mrr:.4f}"
    print(f"  epoch {stats.epoch}: mean loss {stats.mean_loss:.4f}, val MRR {val}")

# Held-out evaluation: rank each test accommodation's reviews for each of
# its guests, macro-average the reciprocal rank of the guest's own review.
test_groups = [g for g in test_g if len(g) >= 2]
model_mrr = np.mean(per_accommodation_mrr(
    [model_rank_group(result.best_model, g) for g in test_groups]))
votes_mrr = np.mean(per_accommodation_mrr(
    [helpful_votes_ranking(g) for g in test_groups]))
print(f"\ntest MRR: model {model_mrr:.4f}, helpful votes {votes_mrr:.4f}, "
      f"random {random_scorer_expectation(12):.4f}")

# Checkpoints are plain npz archives. Loading restores vocabulary and
# both towers, and the reloaded model scores identically.
ckpt = Path(tempfile.mkdtemp(prefix="revrank_demo_")) / "model.npz"
save_checkpoint(result.best_model, ckpt)
reloaded = load_checkpoint(ckpt)
again = np.mean(per_accommodation_mrr(
    [model_rank_group(reloaded, g) for g in test_groups]))
print(f"reloaded checkpoint test MRR: {again:.4f} (delta {abs(again - model_mrr):.1e})")
