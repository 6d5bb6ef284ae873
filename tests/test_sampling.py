import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.dataset import group_by_accommodation
from revrank.sampling import Batch, in_accommodation_epoch, random_epoch, verify_plan

from test_dataset import make_record


def records_for_groups(sizes):
    """One record list with len(sizes) accommodations of the given sizes."""
    records = []
    for g, size in enumerate(sizes):
        for k in range(size):
            records.append(make_record(acc_id=f"acc{g}", title=f"review {g} {k}"))
    return records


class TestBatch:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Batch(indices=(3,))


class TestRandomEpoch:
    def test_chunk_sizes_10_by_4(self):
        plan = random_epoch(records_for_groups([10]), batch_size=4, seed=0)
        assert [len(b) for b in plan] == [4, 4, 2]
        assert sorted(i for b in plan for i in b.indices) == list(range(10))

    def test_final_singleton_dropped(self):
        plan = random_epoch(records_for_groups([9]), batch_size=4, seed=0)
        assert [len(b) for b in plan] == [4, 4]
        covered = [i for b in plan for i in b.indices]
        assert len(set(covered)) == 8 and set(covered) < set(range(9))

    def test_deterministic(self):
        records = records_for_groups([7, 5])
        a = random_epoch(records, batch_size=4, seed=42)
        b = random_epoch(records, batch_size=4, seed=42)
        assert a == b

    def test_untagged(self):
        plan = random_epoch(records_for_groups([4, 4]), batch_size=4, seed=1)
        assert all(b.accommodation_id is None for b in plan)

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            random_epoch(records_for_groups([1]), batch_size=4, seed=0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            random_epoch(records_for_groups([5]), batch_size=1, seed=0)


class TestInAccommodationEpoch:
    def test_single_group_chunking(self):
        groups = group_by_accommodation(records_for_groups([10]))
        plan = in_accommodation_epoch(groups, batch_size=4, seed=0)
        assert sorted(len(b) for b in plan) == [2, 4, 4]
        assert all(b.accommodation_id == "acc0" for b in plan)

    def test_trailing_singleton_merges(self):
        groups = group_by_accommodation(records_for_groups([5]))
        plan = in_accommodation_epoch(groups, batch_size=4, seed=3)
        assert [len(b) for b in plan] == [5]

    def test_nine_by_four_merges_to_4_5(self):
        groups = group_by_accommodation(records_for_groups([9]))
        plan = in_accommodation_epoch(groups, batch_size=4, seed=3)
        assert sorted(len(b) for b in plan) == [4, 5]

    def test_small_group_skipped(self):
        groups = group_by_accommodation(records_for_groups([3, 1]))
        plan = in_accommodation_epoch(groups, batch_size=4, seed=0)
        assert [(b.accommodation_id, sorted(b.indices)) for b in plan] == [("acc0", [0, 1, 2])]

    def test_all_groups_too_small(self):
        groups = group_by_accommodation(records_for_groups([1, 1]))
        with pytest.raises(ValueError):
            in_accommodation_epoch(groups, batch_size=4, seed=0)

    def test_homogeneity(self):
        records = records_for_groups([6, 9, 3])
        groups = group_by_accommodation(records)
        plan = in_accommodation_epoch(groups, batch_size=4, seed=11)
        for batch in plan:
            ids = {records[i].accommodation.accommodation_id for i in batch.indices}
            assert ids == {batch.accommodation_id}

    def test_deterministic(self):
        groups = group_by_accommodation(records_for_groups([6, 9, 3]))
        a = in_accommodation_epoch(groups, batch_size=4, seed=5)
        b = in_accommodation_epoch(groups, batch_size=4, seed=5)
        assert a == b

    def test_batch_order_shuffled_across_groups(self):
        # with many groups, at least one across-group interleave must appear
        groups = group_by_accommodation(records_for_groups([4] * 12))
        plan = in_accommodation_epoch(groups, batch_size=4, seed=2)
        order = [b.accommodation_id for b in plan]
        assert order != sorted(order)


class TestVerifyPlan:
    def test_valid_plans_pass(self):
        records = records_for_groups([7, 5, 2, 1])
        groups = group_by_accommodation(records)
        for plan in (random_epoch(records, 4, seed=0), in_accommodation_epoch(groups, 4, seed=0)):
            assert verify_plan(plan, records, 4) == []

    def test_mixed_batch_flagged(self):
        records = records_for_groups([2, 2])
        bad = (Batch(indices=(0, 2), accommodation_id="acc0"),
               Batch(indices=(1, 3), accommodation_id="acc1"))
        assert verify_plan(bad, records, 4) == [
            "batch 0 tagged 'acc0' holds ['acc0', 'acc1']",
            "batch 1 tagged 'acc1' holds ['acc0', 'acc1']",
        ]

    def test_missing_record_flagged(self):
        records = records_for_groups([4])
        truncated = (Batch(indices=random_epoch(records, 4, seed=0)[0].indices[:2]),)
        assert any("never batched" in p for p in verify_plan(truncated, records, 4))

    def test_duplicate_record_flagged(self):
        records = records_for_groups([4])
        dup = (Batch(indices=(0, 1)), Batch(indices=(1, 2, 3)))
        assert verify_plan(dup, records, 4) == ["records batched more than once: [1]"]

    def test_out_of_range_flagged(self):
        records = records_for_groups([3])
        plan = (Batch(indices=(0, 1)), Batch(indices=(2, 3)))
        assert verify_plan(plan, records, 4) == ["batch 1 has record indices out of range: [3]"]

    def test_random_plan_that_drops_seven_of_nine_flagged(self):
        # A random plan may leave out one record of 9 under batch size 4, not 7.
        records = records_for_groups([9])
        assert verify_plan((Batch(indices=(0, 1)),), records, 4) == [
            "7 records never batched, not 1: [2, 3, 4, 5, 6, 7, 8]"
        ]

    def test_skipped_six_record_accommodation_flagged(self):
        # Only accommodations with fewer than 2 records may be left out.
        records = records_for_groups([3, 6])
        plan = (Batch(indices=(0, 1, 2), accommodation_id="acc0"),)
        assert verify_plan(plan, records, 4) == [
            "6 records never batched, not 0: [3, 4, 5, 6, 7, 8]"
        ]

    def test_oversized_batch_flagged(self):
        records = records_for_groups([9])
        plan = (Batch(indices=tuple(range(9))),)
        assert verify_plan(plan, records, 4) == [
            "batch 0 has 9 records, not 2 to 4",
            "0 records never batched, not 1: []",
        ]

    def test_single_record_accommodation_batched_flagged(self):
        records = records_for_groups([3, 1])
        plan = (Batch(indices=(0, 1), accommodation_id="acc0"),
                Batch(indices=(2, 3), accommodation_id="acc0"))
        assert verify_plan(plan, records, 4) == [
            "batch 1 tagged 'acc0' holds ['acc0', 'acc1']",
            "records alone in their accommodation batched: [3]",
        ]

    def test_tagged_and_untagged_mix_flagged(self):
        records = records_for_groups([4])
        plan = (Batch(indices=(0, 1), accommodation_id="acc0"), Batch(indices=(2, 3)))
        assert verify_plan(plan, records, 4) == ["plan mixes tagged and untagged batches"]


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
    batch_size=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_both_samplers_verify_clean(sizes, batch_size, seed):
    records = records_for_groups(sizes)
    if len(records) >= 2:
        plan = random_epoch(records, batch_size, seed)
        assert verify_plan(plan, records, batch_size) == []
        assert all(2 <= len(b) <= batch_size for b in plan)
    if any(s >= 2 for s in sizes):
        groups = group_by_accommodation(records)
        plan = in_accommodation_epoch(groups, batch_size, seed)
        assert verify_plan(plan, records, batch_size) == []
        assert all(2 <= len(b) <= batch_size + 1 for b in plan)


def test_within_batch_same_accommodation_rate():
    # random batches mix accommodations; tagged batches never do
    records = records_for_groups([20] * 5)
    rnd = random_epoch(records, 10, seed=0)

    def same_acc_fraction(plan):
        same = total = 0
        for batch in plan:
            ids = [records[i].accommodation.accommodation_id for i in batch.indices]
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    total += 1
                    same += ids[a] == ids[b]
        return same / total

    groups = group_by_accommodation(records)
    acc = in_accommodation_epoch(groups, 10, seed=0)
    assert same_acc_fraction(acc) == 1.0
    assert same_acc_fraction(rnd) < 0.5
