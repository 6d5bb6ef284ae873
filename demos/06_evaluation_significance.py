"""
Comparing ranking methods with significance tests
=================================================

Evaluates several rankers on the same held-out accommodations and asks
whether the differences are statistically meaningful. Accommodations act
as blocks for a Friedman test, with Dunn pairwise follow-ups.
"""

import numpy as np

from revrank.dataset import group_by_accommodation, split_dataset
from revrank.evaluation import (
    dunn_posthoc,
    evaluate_methods,
    format_eval_report,
    helpful_votes_ranking,
    model_rank_group,
    per_accommodation_mrr,
)
from revrank.synthgen import SynthConfig, generate
from revrank.trainer import initialize_model, train, TrainConfig

synth = SynthConfig(n_accommodations=120, reviews_per_accommodation=(12, 12),
                    signal_strength=0.9, seed=2)
groups = group_by_accommodation(generate(synth))
train_g, valid_g, test_g = split_dataset(groups, (0.8, 0.1, 0.1), seed=2)
train_records = [r for g in train_g for r in g.records]
valid_records = [r for g in valid_g for r in g.records]

config = TrainConfig(seed=2)
result = train(train_records, valid_records, config)
untrained, _ = initialize_model(train_records, config)

# evaluate_methods aggregates MRR and Precision@k per method and runs the
# significance tests when two or more methods are compared.
methods = [
    ("model", lambda g: model_rank_group(result.best_model, g)),
    ("untrained", lambda g: model_rank_group(untrained, g)),
    ("votes", helpful_votes_ranking),
]
report = evaluate_methods(methods, test_g, ks=(1, 10))
print(format_eval_report(report))

# The same machinery is available piecewise. Build the per-accommodation
# MRR matrix by hand and inspect the Dunn z scores directly.
test_groups = [g for g in test_g if len(g) >= 2]
columns = [
    per_accommodation_mrr([ranker(g) for g in test_groups])
    for _, ranker in methods
]
matrix = np.array(columns).T
dunn = dunn_posthoc(matrix)
names = [name for name, _ in methods]
print("pairwise Dunn z (row beats column when positive):")
for i, row_name in enumerate(names):
    cells = " ".join(f"{dunn.z[i, j]:+7.3f}" for j in range(len(names)))
    print(f"  {row_name:>9s}: {cells}")
print(f"adjusted p model vs votes: {dunn.p_adjusted[0, 2]:.2e}")
