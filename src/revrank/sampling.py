"""Training-batch construction.

Two epoch planners are provided.  ``random_epoch`` shuffles the whole
training set and chunks it; a trailing singleton batch is dropped (and
reported) because a single pair has no in-batch negatives.
``in_accommodation_epoch`` shuffles and chunks within each accommodation so
every batch contains reviews of one property only, merging a trailing
singleton upward into the previous chunk; accommodations with fewer than two
records are skipped and reported.

Batches hold indices into the record list they were planned from.  Plans
are deterministic functions of (records, batch_size, seed) and serializable
to a text manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class EpochPlan:
    kind: str  # "random" or "in_accommodation"
    batches: tuple[Batch, ...]
    n_records: int  # size of the record list the plan was built from
    dropped_indices: tuple[int, ...] = ()
    skipped_groups: tuple[str, ...] = ()

    def covered_indices(self) -> list[int]:
        return [i for b in self.batches for i in b.indices]


@dataclass
class PlanViolation:
    batch_index: int | None
    kind: str
    detail: str


@dataclass
class VerificationReport:
    violations: list[PlanViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def random_epoch(records: Sequence[ReviewRecord], batch_size: int, seed: int) -> EpochPlan:
    """Shuffle all records and cut into consecutive batches.

    The final chunk is kept if it has at least 2 records, otherwise dropped
    and reported via ``dropped_indices``.
    """
    if len(records) < 2:
        raise ValueError(f"need at least 2 records, got {len(records)}")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(records))
    batches = []
    dropped: tuple[int, ...] = ()
    for start in range(0, len(order), batch_size):
        chunk = tuple(int(i) for i in order[start : start + batch_size])
        if len(chunk) >= 2:
            batches.append(Batch(indices=chunk))
        else:
            dropped = chunk
    return EpochPlan(
        kind="random",
        batches=tuple(batches),
        n_records=len(records),
        dropped_indices=dropped,
    )


def _chunk_group(indices: np.ndarray, batch_size: int) -> list[tuple[int, ...]]:
    chunks = [
        tuple(int(i) for i in indices[start : start + batch_size])
        for start in range(0, len(indices), batch_size)
    ]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2] = chunks[-2] + chunks[-1]
        chunks.pop()
    return chunks


def in_accommodation_epoch(
    groups: Sequence[AccommodationGroup], batch_size: int, seed: int
) -> EpochPlan:
    """Per-accommodation shuffled chunking; every batch is single-property.

    Groups with fewer than 2 records are skipped and reported.  Within a
    group, a trailing chunk of size 1 merges into the previous chunk, so one
    batch per group may hold batch_size + 1 records.  Batch order across the
    whole epoch is shuffled.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    rng = np.random.default_rng(seed)
    batches: list[Batch] = []
    skipped: list[str] = []
    n_records = 0
    for group in groups:
        n_records = max(n_records, (max(group.indices) + 1) if group.indices else 0)
        if len(group) < 2:
            skipped.append(group.accommodation_id)
            continue
        order = rng.permutation(len(group))
        shuffled = np.asarray(group.indices)[order]
        for chunk in _chunk_group(shuffled, batch_size):
            batches.append(Batch(indices=chunk, accommodation_id=group.accommodation_id))
    if not batches:
        raise ValueError("no accommodation has at least 2 records")
    order = rng.permutation(len(batches))
    return EpochPlan(
        kind="in_accommodation",
        batches=tuple(batches[int(i)] for i in order),
        n_records=n_records,
        skipped_groups=tuple(skipped),
    )


def verify_plan(plan: EpochPlan, records: Sequence[ReviewRecord]) -> VerificationReport:
    """Check coverage, batch sizes, and tagged-batch homogeneity."""
    report = VerificationReport()
    for b_idx, batch in enumerate(plan.batches):
        if len(batch) < 2:
            report.violations.append(
                PlanViolation(b_idx, "size", f"batch has {len(batch)} records")
            )
        for i in batch.indices:
            if not 0 <= i < len(records):
                report.violations.append(
                    PlanViolation(b_idx, "range", f"record index {i} out of range")
                )
        if batch.accommodation_id is not None:
            ids = {
                records[i].accommodation.accommodation_id
                for i in batch.indices
                if 0 <= i < len(records)
            }
            if ids != {batch.accommodation_id}:
                report.violations.append(
                    PlanViolation(
                        b_idx,
                        "homogeneity",
                        f"batch tagged {batch.accommodation_id!r} contains {sorted(ids)}",
                    )
                )

    covered = plan.covered_indices()
    counts = {}
    for i in covered:
        counts[i] = counts.get(i, 0) + 1
    duplicates = sorted(i for i, c in counts.items() if c > 1)
    if duplicates:
        report.violations.append(
            PlanViolation(None, "coverage", f"records seen more than once: {duplicates}")
        )

    skipped_ids = set(plan.skipped_groups)
    eligible = set()
    for i, record in enumerate(records):
        if plan.kind == "in_accommodation":
            if record.accommodation.accommodation_id in skipped_ids:
                continue
        eligible.add(i)
    eligible -= set(plan.dropped_indices)
    missing = sorted(eligible - set(covered))
    extra = sorted(set(covered) - eligible)
    if missing:
        report.violations.append(
            PlanViolation(None, "coverage", f"eligible records never batched: {missing}")
        )
    if extra:
        report.violations.append(
            PlanViolation(None, "coverage", f"ineligible records batched: {extra}")
        )
    return report


def format_manifest(plan: EpochPlan) -> str:
    """Text manifest: one line per batch plus drop/skip annotations."""
    lines = [f"# kind={plan.kind} batches={len(plan.batches)} records={plan.n_records}"]
    for b_idx, batch in enumerate(plan.batches):
        acc = batch.accommodation_id if batch.accommodation_id is not None else "-"
        ids = " ".join(str(i) for i in batch.indices)
        lines.append(f"{b_idx}\t{acc}\t{ids}")
    if plan.dropped_indices:
        lines.append("# dropped " + " ".join(str(i) for i in plan.dropped_indices))
    for acc_id in plan.skipped_groups:
        lines.append(f"# skipped {acc_id}")
    return "\n".join(lines) + "\n"
