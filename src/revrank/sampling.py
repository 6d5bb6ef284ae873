"""Training-batch construction.

An epoch plan is its batches: each planner returns a tuple of ``Batch``,
whose indices point into the record list the plan was built from.  Plans
are deterministic functions of (records, batch_size, seed).

``random_epoch`` shuffles the whole training set and chunks it; a trailing
singleton chunk is left out, because a single pair has no in-batch
negatives.  ``in_accommodation_epoch`` shuffles and chunks within each
accommodation, so every batch holds reviews of one property only and is
tagged with its id; a trailing singleton merges into the previous chunk,
and accommodations with fewer than two records are left out.

``verify_plan`` checks a plan without asking the planner what it left out:
it works that out from the records and the batch size alone.  A random
plan may leave out exactly one record, when ``len(records) % batch_size ==
1``; an in-accommodation plan leaves out exactly the records of the
accommodations that have fewer than two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import AccommodationGroup, ReviewRecord


@dataclass(frozen=True)
class Batch:
    indices: tuple[int, ...]
    accommodation_id: str | None = None

    def __post_init__(self):
        if len(self.indices) < 2:
            raise ValueError(f"batch needs at least 2 records, got {len(self.indices)}")

    def __len__(self) -> int:
        return len(self.indices)


def random_epoch(
    records: Sequence[ReviewRecord], batch_size: int, seed: int
) -> tuple[Batch, ...]:
    """Shuffle all records and cut them into consecutive batches.

    The final chunk is kept if it has at least 2 records, else left out.
    """
    if len(records) < 2:
        raise ValueError(f"need at least 2 records, got {len(records)}")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(records)).tolist()
    return tuple(Batch(tuple(order[start : start + batch_size]))
                 for start in range(0, len(order) - 1, batch_size))


def in_accommodation_epoch(
    groups: Sequence[AccommodationGroup], batch_size: int, seed: int
) -> tuple[Batch, ...]:
    """Per-accommodation shuffled chunking; every batch is single-property.

    Groups with fewer than 2 records are left out.  Within a group, a
    trailing chunk of size 1 merges into the previous chunk, so one batch
    per group may hold batch_size + 1 records.  Batch order across the
    whole epoch is shuffled.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    rng = np.random.default_rng(seed)
    batches: list[Batch] = []
    for group in groups:
        if len(group) < 2:
            continue
        shuffled = np.asarray(group.indices)[rng.permutation(len(group))].tolist()
        # Chunks start every batch_size records, but never at the last one.
        bounds = [*range(0, len(shuffled) - 1, batch_size), len(shuffled)]
        batches += [Batch(tuple(shuffled[start:end]), group.accommodation_id)
                    for start, end in zip(bounds, bounds[1:])]
    if not batches:
        raise ValueError("no accommodation has at least 2 records")
    return tuple(batches[i] for i in rng.permutation(len(batches)).tolist())


def verify_plan(
    batches: Sequence[Batch], records: Sequence[ReviewRecord], batch_size: int
) -> list[str]:
    """The problems of ``batches`` as one epoch's plan over ``records``.

    A plan of untagged batches is a random plan: each batch holds 2 to
    ``batch_size`` records, and together they cover every record, except
    exactly one when ``len(records) % batch_size == 1``.  A plan of tagged
    batches is an in-accommodation plan: each batch holds 2 to
    ``batch_size + 1`` records of the accommodation it is tagged with, and
    together they cover exactly the records of the accommodations that have
    at least 2.  A plan that mixes the two kinds of batch, and a record
    batched more than once, are problems too.  A sound plan has none.
    """
    problems = []
    tagged = {batch.accommodation_id is not None for batch in batches}
    if len(tagged) > 1:
        problems.append("plan mixes tagged and untagged batches")
    in_accommodation = True in tagged
    largest = batch_size + 1 if in_accommodation else batch_size
    accommodation = [record.accommodation.accommodation_id for record in records]
    for b, batch in enumerate(batches):
        if not 2 <= len(batch) <= largest:
            problems.append(f"batch {b} has {len(batch)} records, not 2 to {largest}")
        outside = [i for i in batch.indices if not 0 <= i < len(records)]
        if outside:
            problems.append(f"batch {b} has record indices out of range: {outside}")
        if batch.accommodation_id is not None:
            ids = sorted({accommodation[i] for i in batch.indices if 0 <= i < len(records)})
            if ids != [batch.accommodation_id]:
                problems.append(f"batch {b} tagged {batch.accommodation_id!r} holds {ids}")

    counts = Counter(i for batch in batches for i in batch.indices)
    twice = sorted(i for i, count in counts.items() if count > 1)
    if twice:
        problems.append(f"records batched more than once: {twice}")
    sizes = Counter(accommodation)
    alone = {i for i, acc in enumerate(accommodation) if in_accommodation and sizes[acc] < 2}
    batched_alone = sorted(alone & counts.keys())
    if batched_alone:
        problems.append(f"records alone in their accommodation batched: {batched_alone}")
    missing = sorted(set(range(len(records))) - alone - counts.keys())
    may_miss = 0 if in_accommodation else int(len(records) % batch_size == 1)
    if len(missing) != may_miss:
        problems.append(f"{len(missing)} records never batched, not {may_miss}: {missing}")
    return problems
