"""
Where negatives come from: two batch samplers
=============================================

Contrastive training treats the other reviews in a batch as negatives,
so the sampler decides how hard those negatives are. Random batches mix
properties; in-accommodation batches keep each batch inside one property,
which makes every negative a same-property review.
"""

from collections import Counter

from revrank.dataset import group_by_accommodation
from revrank.sampling import in_accommodation_epoch, random_epoch, verify_plan
from revrank.synthgen import SynthConfig, generate

records = generate(SynthConfig(n_accommodations=6, reviews_per_accommodation=(10, 12), seed=4))
groups = group_by_accommodation(records)
print(f"{len(records)} reviews over {len(groups)} accommodations")

# Random sampling: shuffle everything, chunk into fixed-size batches.
# A plan is nothing but its batches.
plan_random = random_epoch(records, batch_size=8, seed=0)
print(f"\nrandom plan: {len(plan_random)} batches")

# How many distinct properties land in each random batch?
mixes = []
for batch in plan_random:
    mixes.append(len({records[i].accommodation.accommodation_id for i in batch.indices}))
print(f"distinct accommodations per random batch: {sorted(Counter(mixes).items())}")

# In-accommodation sampling: chunk inside each property, then shuffle the
# batch order. Every batch is homogeneous by construction.
plan_acc = in_accommodation_epoch(groups, batch_size=8, seed=0)
print(f"\nin-accommodation plan: {len(plan_acc)} batches")
for b, batch in enumerate(plan_acc):
    print(f"{b}\t{batch.accommodation_id}\t{' '.join(map(str, batch.indices))}")

# Both plans must cover the data, keep batches at size 2 or more, and
# (for the in-accommodation sampler) stay single-property. verify_plan
# re-checks those guarantees against the records and the batch size; it
# works out from them alone which records a plan may leave out.
for label, plan in (("random", plan_random), ("in_accommodation", plan_acc)):
    problems = verify_plan(plan, records, batch_size=8)
    print(f"verify {label}: {len(problems)} problems")

# A plan that leaves out records it may not is caught.
print(f"verify the random plan without its last batch: {verify_plan(plan_random[:-1], records, 8)}")
