"""
Qualitative check: does the model surface on-topic reviews?
===========================================================

Numbers like MRR say the model ranks well, not what it ranks. This demo
samples guests, takes the top review each method would show them (their
own review excluded), and tags both with a keyword lexicon to see whose
suggestions share topics with what the guest actually wrote.
"""

from revrank.dataset import group_by_accommodation, GuestType, split_dataset
from revrank.evaluation import (
    format_overlap_table,
    model_scores,
    parse_lexicon,
    topic_overlap_report,
)
from revrank.synthgen import DEFAULT_SEGMENT_LEXICONS, SynthConfig, generate
from revrank.trainer import initialize_model, train, TrainConfig

synth = SynthConfig(n_accommodations=100, reviews_per_accommodation=(12, 12),
                    signal_strength=0.9, seed=5)
groups = group_by_accommodation(generate(synth))
train_g, valid_g, test_g = split_dataset(groups, (0.8, 0.1, 0.1), seed=5)

config = TrainConfig(seed=5)
result = train([r for g in train_g for r in g.records],
               [r for g in valid_g for r in g.records], config)
untrained, _ = initialize_model([r for g in train_g for r in g.records], config)

# A topic lexicon is plain text, one "topic: keyword, keyword" line each.
# Here the topics are the generator's own guest-type vocabularies, so a
# topic match means the review speaks to that kind of guest.
lexicon_text = "\n".join(
    f"{gt.label.lower().replace(' ', '_')}: {', '.join(tokens)}"
    for gt, tokens in DEFAULT_SEGMENT_LEXICONS.items()
)
lexicon = parse_lexicon(lexicon_text)
print(f"topics: {sorted(lexicon)}")

# Stratified sampling spreads the sampled guests over the guest types.
rows = topic_overlap_report(
    test_g,
    model_scorer=lambda g: model_scores(result.best_model, g),
    baseline_scorer=lambda g: model_scores(untrained, g),
    lexicon=lexicon,
    n_samples=8,
    seed=0,
    stratify=True,
)
print()
print(format_overlap_table(rows))

# Count topic hits over a larger sample: how often the top pick shares a
# topic with the guest's own review.
wide = topic_overlap_report(
    test_g,
    model_scorer=lambda g: model_scores(result.best_model, g),
    baseline_scorer=lambda g: model_scores(untrained, g),
    lexicon=lexicon,
    n_samples=40,
    seed=0,
    stratify=True,
)
model_hits = sum(1 for r in wide if r.model_common)
base_hits = sum(1 for r in wide if r.baseline_common)
print(f"top-pick topic overlap over {len(wide)} guests: model {model_hits}, "
      f"untrained baseline {base_hits}")
