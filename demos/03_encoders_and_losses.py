"""
The two-tower model and its contrastive objectives
==================================================

Builds a tiny dual encoder by hand, walks through the in-batch
interaction matrix, and compares the two training objectives on the same
batch. Ends with the deployed scoring rule for one guest.
"""

import numpy as np

from revrank.contrastive import (
    bce_loss,
    info_nce_loss,
    interaction_matrix,
    score_ids,
)
from revrank.encoder import (
    DualEncoder,
    build_vocabulary,
    encode_batch_ids,
    init_params,
    tokenize,
)

# Four guests and their own reviews. Matched pairs share an index.
contexts_text = [
    "guest_type: Couple\nmonth: June",
    "guest_type: Solo traveller\nmonth: January",
    "guest_type: Family with children\nmonth: August",
    "guest_type: Group\nmonth: March",
]
reviews_text = [
    "romantic terrace and quiet evenings",
    "handy desk and fast checkin for one",
    "kids loved the pool and playground",
    "big rooms fit all eight of us",
]

corpus = [tokenize(t) for t in contexts_text + reviews_text]
vocab = build_vocabulary(corpus)

# Separate towers: independent parameters, shared vocabulary. d is the
# latent dimension both towers project into. Fresh weights are tiny, so
# inflate them here to make the untrained scores visibly spread out.
ctx_params = init_params(d=16, d_e=16, vocab_size=len(vocab), seed=0)
rev_params = init_params(d=16, d_e=16, vocab_size=len(vocab), seed=1)
for params in (ctx_params, rev_params):
    params.embedding *= 20
    params.projection *= 20

ctx_ids = [vocab.encode_text(t) for t in contexts_text]
rev_ids = [vocab.encode_text(t) for t in reviews_text]
C = encode_batch_ids(ctx_params, ctx_ids)
R = encode_batch_ids(rev_params, rev_ids)

# The interaction matrix holds sigmoid(C R^T): every guest scored against
# every review in the batch. The diagonal is the true pairs.
inter = interaction_matrix(C, R)
print("interaction matrix F:")
print(np.round(inter.values, 4))

# Both objectives push the diagonal up and the off-diagonal down, but
# they normalize differently. InfoNCE applies a softmax across each row
# and column, so only relative scores matter. BCE treats every cell as an
# independent binary prediction against the identity target.
nce = info_nce_loss(inter)
bce = bce_loss(inter)
print(f"InfoNCE loss: {nce.loss:.6f}")
print(f"BCE loss:     {bce.loss:.6f}")

# Gradients flow back through F to both embedding matrices.
print(f"InfoNCE grad norms: contexts {np.linalg.norm(nce.grad_contexts):.4f}, "
      f"reviews {np.linalg.norm(nce.grad_reviews):.4f}")

# Because F is a sigmoid, InfoNCE logits live in (0, 1) and the softmax
# can never saturate, no matter how large the raw dot products get.
big = interaction_matrix(C * 1000, R * 1000)
print(f"InfoNCE at extreme scores stays finite: {info_nce_loss(big).loss:.6f}")

# At serving time one guest is scored against every review in a single
# matrix product: the context is encoded once, each review once.
model = DualEncoder(vocab=vocab, context=ctx_params, review=rev_params)
scores = score_ids(model, [vocab.encode_text(contexts_text[2])],
                   [vocab.encode_text(t) for t in reviews_text]).values
print(f"deployed scores for guest 2: {np.round(scores[0], 4)}")
