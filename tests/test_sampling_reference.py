"""The epoch planners against a frozen copy of their earlier form.

``random_epoch`` and ``in_accommodation_epoch`` once built a plan object
that also listed the records they left out.  They now return the batches
alone, cut with slices of Python lists, but they must make the same
random-number calls in the same order, so that every epoch of every
training gets the same batches as the straightforward planners below.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.dataset import group_by_accommodation
from revrank.sampling import in_accommodation_epoch, random_epoch, verify_plan

from test_sampling import records_for_groups


def reference_random_epoch(n_records, batch_size, seed):
    """(indices, accommodation id) of each batch, and the dropped indices."""
    order = np.random.default_rng(seed).permutation(n_records)
    batches, dropped = [], ()
    for start in range(0, len(order), batch_size):
        chunk = tuple(int(i) for i in order[start : start + batch_size])
        if len(chunk) >= 2:
            batches.append((chunk, None))
        else:
            dropped = chunk
    return batches, dropped


def reference_chunk_group(indices, batch_size):
    chunks = [
        tuple(int(i) for i in indices[start : start + batch_size])
        for start in range(0, len(indices), batch_size)
    ]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2] = chunks[-2] + chunks[-1]
        chunks.pop()
    return chunks


def reference_in_accommodation_epoch(groups, batch_size, seed):
    """(indices, accommodation id) of each batch, and the skipped groups."""
    rng = np.random.default_rng(seed)
    batches, skipped = [], []
    for group in groups:
        if len(group) < 2:
            skipped.append(group.accommodation_id)
            continue
        order = rng.permutation(len(group))
        shuffled = np.asarray(group.indices)[order]
        for chunk in reference_chunk_group(shuffled, batch_size):
            batches.append((chunk, group.accommodation_id))
    order = rng.permutation(len(batches))
    return [batches[int(i)] for i in order], skipped


def as_pairs(batches):
    return [(batch.indices, batch.accommodation_id) for batch in batches]


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=10),
    batch_size=st.integers(min_value=2, max_value=17),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_planners_match_reference(sizes, batch_size, seed):
    records = records_for_groups(sizes)
    if len(records) >= 2:
        batches = random_epoch(records, batch_size, seed)
        expected, dropped = reference_random_epoch(len(records), batch_size, seed)
        assert as_pairs(batches) == expected
        assert all(type(i) is int for batch in batches for i in batch.indices)
        assert len(dropped) == (len(records) % batch_size == 1)
        assert verify_plan(batches, records, batch_size) == []
    groups = group_by_accommodation(records)
    if any(size >= 2 for size in sizes):
        batches = in_accommodation_epoch(groups, batch_size, seed)
        expected, skipped = reference_in_accommodation_epoch(groups, batch_size, seed)
        assert as_pairs(batches) == expected
        assert all(type(i) is int for batch in batches for i in batch.indices)
        assert skipped == [g.accommodation_id for g in groups if len(g) < 2]
        assert verify_plan(batches, records, batch_size) == []
