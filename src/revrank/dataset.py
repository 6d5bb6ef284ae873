"""Review dataset ingestion: typed records, CSV loading, grouping, splitting.

The on-disk format is a UTF-8 CSV with one header row.  Column names are
fixed (see ``COLUMNS``); text columns may be empty, numeric columns may not.
Records are grouped by accommodation and split into train/valid/test at the
accommodation level so that no accommodation straddles two splits.
"""

from __future__ import annotations

import csv
import enum
import operator
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

COLUMNS = (
    "review_title",
    "review_positive",
    "review_negative",
    "review_score",
    "review_helpful_votes",
    "guest_type",
    "guest_country",
    "room_nights",
    "month",
    "accommodation_id",
    "accommodation_type",
    "accommodation_score",
    "accommodation_country",
    "accommodation_star_rating",
    "location_is_beach",
    "location_is_ski",
    "location_is_city_center",
)

# Accommodations with fewer reviews than this are flagged in the statistics
# report (they are kept; small synthetic fixtures are legitimate).
MIN_REVIEWS_PER_ACCOMMODATION = 10


class SchemaError(ValueError):
    """The CSV header does not match the expected column set."""


class RowError(ValueError):
    """A data row violates a field constraint."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class GuestType(enum.Enum):
    SOLO_TRAVELLER = "Solo traveller"
    COUPLE = "Couple"
    GROUP = "Group"
    FAMILY_WITH_CHILDREN = "Family with children"

    @property
    def label(self) -> str:
        return self.value


_GUEST_TYPE_BY_KEY = {
    "".join(ch for ch in gt.value.lower() if ch.isalnum()): gt for gt in GuestType
}


def parse_guest_type(text: str) -> GuestType:
    """Parse a guest-type cell; tolerant of case, spacing and underscores."""
    key = "".join(filter(str.isalnum, text.lower()))
    try:
        return _GUEST_TYPE_BY_KEY[key]
    except KeyError:
        raise ValueError(f"unknown guest_type {text!r}") from None


class Month(enum.IntEnum):
    JANUARY = 1
    FEBRUARY = 2
    MARCH = 3
    APRIL = 4
    MAY = 5
    JUNE = 6
    JULY = 7
    AUGUST = 8
    SEPTEMBER = 9
    OCTOBER = 10
    NOVEMBER = 11
    DECEMBER = 12

    @property
    def label(self) -> str:
        return self.name.capitalize()


_MONTH_BY_NAME = {m.name.lower(): m for m in Month}


def parse_month(text: str) -> Month:
    """Parse a month cell given as an English month name or a 1-12 number."""
    key = text.strip().lower()
    if key in _MONTH_BY_NAME:
        return _MONTH_BY_NAME[key]
    try:
        return Month(int(key))
    except (ValueError, KeyError):
        raise ValueError(f"unknown month {text!r}") from None


_TRUE = {"1", "true", "yes"}
_FALSE = {"0", "false", "no"}


def parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key in _TRUE:
        return True
    if key in _FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class GuestContext:
    guest_type: GuestType
    guest_country: str
    room_nights: int
    month: Month

    def __post_init__(self):
        if self.room_nights < 1:
            raise ValueError(f"room_nights must be >= 1, got {self.room_nights}")


@dataclass(frozen=True)
class AccommodationContext:
    accommodation_id: str
    accommodation_type: str
    accommodation_score: float
    accommodation_country: str
    accommodation_star_rating: float
    location_is_beach: bool
    location_is_ski: bool
    location_is_city_center: bool

    def __post_init__(self):
        if not self.accommodation_id:
            raise ValueError("accommodation_id must be non-empty")
        if not 1.0 <= self.accommodation_score <= 10.0:
            raise ValueError(
                f"accommodation_score outside [1.0, 10.0]: {self.accommodation_score}"
            )
        if not 0.0 <= self.accommodation_star_rating <= 5.0:
            raise ValueError(
                f"accommodation_star_rating outside [0.0, 5.0]: "
                f"{self.accommodation_star_rating}"
            )


@dataclass(frozen=True)
class Review:
    review_title: str
    review_positive: str
    review_negative: str
    review_score: float
    review_helpful_votes: int

    def __post_init__(self):
        if not 1.0 <= self.review_score <= 10.0:
            raise ValueError(f"review_score outside [1.0, 10.0]: {self.review_score}")
        if self.review_helpful_votes < 0:
            raise ValueError(f"review_helpful_votes negative: {self.review_helpful_votes}")
        if not (self.review_title or self.review_positive or self.review_negative):
            raise ValueError("all review text fields are empty")


@dataclass(frozen=True)
class ReviewRecord:
    review: Review
    guest: GuestContext
    accommodation: AccommodationContext


@dataclass(frozen=True)
class AccommodationGroup:
    """All records of one accommodation, in input order.

    ``indices`` holds each record's position in the record list that was
    grouped, so that epoch plans and audits can refer back to it.
    """

    accommodation_id: str
    records: tuple[ReviewRecord, ...]
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def below_minimum(self) -> bool:
        return len(self.records) < MIN_REVIEWS_PER_ACCOMMODATION


@dataclass
class RowRejection:
    row: int  # 1-based data-row number (header excluded)
    reason: str


@dataclass
class LoadResult:
    records: list[ReviewRecord]
    rejections: list[RowRejection]


# Each column's index in ``COLUMNS``, which is also the order rows are parsed in.
_INDEX = {name: i for i, name in enumerate(COLUMNS)}
_GUEST_CELLS = slice(_INDEX["guest_type"], _INDEX["month"] + 1)
_ACCOMMODATION_CELLS = slice(_INDEX["accommodation_id"], len(COLUMNS))


def _parse_row(
    cells: Sequence[str | None],
    row_num: int,
    guests: dict[tuple, GuestContext],
    accommodations: dict[tuple, AccommodationContext],
) -> ReviewRecord:
    """The record of one row, from its raw cells in ``COLUMNS`` order.

    A cell the row is too short to have is None.  Fields are parsed in
    ``COLUMNS`` order, each context checked as soon as its fields are, so
    the first fault in that order is the one reported.  ``guests`` and
    ``accommodations`` map the raw cells of each context parsed so far to
    its value; a row that repeats them shares that (frozen) value.
    """

    def cell(name: str) -> str:
        value = cells[_INDEX[name]]
        if value is None:
            raise RowError(row_num, f"missing cell for column {name!r}")
        return value.strip()

    def numeric(name: str, conv):
        raw = cell(name)
        if raw == "":
            raise RowError(row_num, f"empty numeric cell {name!r}")
        try:
            return conv(raw)
        except ValueError as exc:
            raise RowError(row_num, f"bad {name!r}: {exc}") from None

    try:
        review = Review(
            review_title=cell("review_title"),
            review_positive=cell("review_positive"),
            review_negative=cell("review_negative"),
            review_score=numeric("review_score", float),
            review_helpful_votes=numeric("review_helpful_votes", int),
        )
        raw_guest = cells[_GUEST_CELLS]
        guest = guests.get(raw_guest)
        if guest is None:
            guest = guests[raw_guest] = GuestContext(
                guest_type=numeric("guest_type", parse_guest_type),
                guest_country=cell("guest_country"),
                room_nights=numeric("room_nights", int),
                month=numeric("month", parse_month),
            )
        raw_accommodation = cells[_ACCOMMODATION_CELLS]
        accommodation = accommodations.get(raw_accommodation)
        if accommodation is None:
            accommodation = accommodations[raw_accommodation] = AccommodationContext(
                accommodation_id=cell("accommodation_id"),
                accommodation_type=cell("accommodation_type"),
                accommodation_score=numeric("accommodation_score", float),
                accommodation_country=cell("accommodation_country"),
                accommodation_star_rating=numeric("accommodation_star_rating", float),
                location_is_beach=numeric("location_is_beach", parse_bool),
                location_is_ski=numeric("location_is_ski", parse_bool),
                location_is_city_center=numeric("location_is_city_center", parse_bool),
            )
    except RowError:
        raise
    except ValueError as exc:
        raise RowError(row_num, str(exc)) from None
    return ReviewRecord(review=review, guest=guest, accommodation=accommodation)


def _rows(reader: Iterator[list[str]]) -> Iterator[list[str] | csv.Error]:
    """The reader's rows, with the error in place of a row it cannot split.

    After such an error the reader goes on at the next line.
    """
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc


def load_csv(path: str | Path, schema_mode: str = "strict") -> LoadResult:
    """Load a review CSV.

    In ``strict`` mode the header must contain exactly the expected columns
    and the first malformed row aborts the load.  In ``lenient`` mode extra
    columns are ignored and malformed rows are skipped and reported.
    Rows whose accommodation context disagrees with an earlier row of the
    same accommodation_id are malformed, and so are rows the CSV reader
    cannot split (a field over ``csv.field_size_limit()``, a NUL byte).

    Rows are read as cell lists and picked by column position, with the
    semantics of ``csv.DictReader``: blank lines are skipped and not
    counted as rows; a row too short for a column is missing that cell
    (reported for the first such column in parse order); cells beyond the
    header are ignored; a column named twice in the header is read from
    its last position.  After a row the reader cannot split, it resumes at
    the next line.
    """
    if schema_mode not in ("strict", "lenient"):
        raise ValueError(f"schema_mode must be 'strict' or 'lenient', got {schema_mode!r}")
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise SchemaError(f"{path}: unreadable header row: {exc}") from None
        if header is None:
            raise SchemaError(f"{path}: empty file, no header row")
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns: {', '.join(missing)}")
        if schema_mode == "strict":
            extra = [c for c in header if c not in COLUMNS]
            if extra:
                raise SchemaError(f"{path}: unexpected columns: {', '.join(extra)}")
        position = {name: i for i, name in enumerate(header)}  # twice named: the last
        positions = [position[name] for name in COLUMNS]
        width = max(positions) + 1
        pick = operator.itemgetter(*positions)

        records: list[ReviewRecord] = []
        rejections: list[RowRejection] = []
        guests: dict[tuple, GuestContext] = {}
        accommodations: dict[tuple, AccommodationContext] = {}
        seen_accommodation: dict[str, AccommodationContext] = {}
        row_num = 0
        for row in _rows(reader):
            if row == []:
                continue
            row_num += 1
            try:
                if isinstance(row, csv.Error):
                    raise RowError(row_num, f"unreadable CSV row: {row}")
                if len(row) < width:
                    row = row + [None] * (width - len(row))
                record = _parse_row(pick(row), row_num, guests, accommodations)
                acc = record.accommodation
                known = seen_accommodation.get(acc.accommodation_id)
                if known is None:
                    seen_accommodation[acc.accommodation_id] = acc
                elif known != acc:
                    raise RowError(
                        row_num,
                        f"accommodation context for id {acc.accommodation_id!r} "
                        "disagrees with an earlier row",
                    )
            except RowError as exc:
                if schema_mode == "strict":
                    raise
                rejections.append(RowRejection(row=exc.row, reason=exc.reason))
                continue
            records.append(record)
    return LoadResult(records=records, rejections=rejections)


def record_to_row(record: ReviewRecord) -> dict[str, str]:
    """Render one record as CSV cells; inverse of row parsing."""
    r, g, a = record.review, record.guest, record.accommodation
    return {
        "review_title": r.review_title,
        "review_positive": r.review_positive,
        "review_negative": r.review_negative,
        "review_score": repr(r.review_score),
        "review_helpful_votes": str(r.review_helpful_votes),
        "guest_type": g.guest_type.label,
        "guest_country": g.guest_country,
        "room_nights": str(g.room_nights),
        "month": g.month.label,
        "accommodation_id": a.accommodation_id,
        "accommodation_type": a.accommodation_type,
        "accommodation_score": repr(a.accommodation_score),
        "accommodation_country": a.accommodation_country,
        "accommodation_star_rating": repr(a.accommodation_star_rating),
        "location_is_beach": "1" if a.location_is_beach else "0",
        "location_is_ski": "1" if a.location_is_ski else "0",
        "location_is_city_center": "1" if a.location_is_city_center else "0",
    }


def write_csv(records: Iterable[ReviewRecord], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for record in records:
            writer.writerow(record_to_row(record))


def group_by_accommodation(records: Sequence[ReviewRecord]) -> list[AccommodationGroup]:
    """Partition records by accommodation_id, preserving input order.

    Group order is first-appearance order of the id.
    """
    if not records:
        raise ValueError("cannot group an empty record list")
    by_id: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_id.setdefault(record.accommodation.accommodation_id, []).append(i)
    return [
        AccommodationGroup(
            accommodation_id=acc_id,
            records=tuple(records[i] for i in idxs),
            indices=tuple(idxs),
        )
        for acc_id, idxs in by_id.items()
    ]


def split_dataset(
    groups: Sequence[AccommodationGroup],
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[list[AccommodationGroup], list[AccommodationGroup], list[AccommodationGroup]]:
    """Randomly assign whole accommodations to train/valid/test splits.

    Split sizes follow ``fractions`` via largest-remainder rounding, with
    every nonzero-fraction split guaranteed at least one group.  The same
    (groups, fractions, seed) always yields the same assignment.
    """
    if len(fractions) != 3:
        raise ValueError("fractions must be a (train, valid, test) triple")
    if not all(np.isfinite(f) and f >= 0 for f in fractions):
        raise ValueError(f"fractions must be finite and non-negative: {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)!r}")
    n = len(groups)
    nonzero = sum(1 for f in fractions if f > 0)
    if n < nonzero:
        raise ValueError(f"{n} groups cannot fill {nonzero} nonzero splits")

    counts = [int(f * n) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, counts)]
    for _ in range(n - sum(counts)):
        i = max(range(3), key=lambda j: (remainders[j], -j))
        counts[i] += 1
        remainders[i] = -1.0
    # Largest-remainder rounding can starve a small nonzero split; top it up
    # from the largest one.
    for i in range(3):
        if fractions[i] > 0 and counts[i] == 0:
            donor = max(range(3), key=lambda j: counts[j])
            counts[donor] -= 1
            counts[i] += 1

    order = np.random.default_rng(seed).permutation(n)
    bounds = (counts[0], counts[0] + counts[1])
    train = [groups[i] for i in order[: bounds[0]]]
    valid = [groups[i] for i in order[bounds[0] : bounds[1]]]
    test = [groups[i] for i in order[bounds[1] :]]
    return train, valid, test


@dataclass
class FieldStats:
    unique_count: int
    mean: float | None
    mode: str
    minimum: float | None
    maximum: float | None


@dataclass
class DatasetStatistics:
    n_records: int
    n_accommodations: int
    voted_fraction: float  # share of reviews with at least one helpful vote
    fields: dict[str, FieldStats] = field(default_factory=dict)
    small_accommodations: list[str] = field(default_factory=list)


def _mode(values: list) -> object:
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def _format_stat_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def validate_statistics(records: Sequence[ReviewRecord]) -> DatasetStatistics:
    """Per-field unique-count / mean / mode / min / max summary.

    Booleans are treated as 0/1 numerics; categorical fields report unique
    count and mode only.
    """
    if not records:
        raise ValueError("cannot summarize an empty record list")

    def col(getter):
        return [getter(r) for r in records]

    numeric_fields = {
        "review_score": col(lambda r: r.review.review_score),
        "review_helpful_votes": col(lambda r: r.review.review_helpful_votes),
        "room_nights": col(lambda r: r.guest.room_nights),
        "accommodation_score": col(lambda r: r.accommodation.accommodation_score),
        "accommodation_star_rating": col(
            lambda r: r.accommodation.accommodation_star_rating
        ),
        "location_is_beach": col(lambda r: int(r.accommodation.location_is_beach)),
        "location_is_ski": col(lambda r: int(r.accommodation.location_is_ski)),
        "location_is_city_center": col(
            lambda r: int(r.accommodation.location_is_city_center)
        ),
    }
    categorical_fields = {
        "guest_type": col(lambda r: r.guest.guest_type.label),
        "guest_country": col(lambda r: r.guest.guest_country),
        "month": col(lambda r: r.guest.month.label),
        "accommodation_type": col(lambda r: r.accommodation.accommodation_type),
        "accommodation_country": col(lambda r: r.accommodation.accommodation_country),
    }

    stats = DatasetStatistics(
        n_records=len(records),
        n_accommodations=len({r.accommodation.accommodation_id for r in records}),
        voted_fraction=sum(r.review.review_helpful_votes > 0 for r in records)
        / len(records),
    )
    for name in COLUMNS:
        if name in numeric_fields:
            values = numeric_fields[name]
            stats.fields[name] = FieldStats(
                unique_count=len(set(values)),
                mean=float(sum(values)) / len(values),
                mode=_format_stat_value(_mode(values)),
                minimum=float(min(values)),
                maximum=float(max(values)),
            )
        elif name in categorical_fields:
            values = categorical_fields[name]
            stats.fields[name] = FieldStats(
                unique_count=len(set(values)),
                mean=None,
                mode=_format_stat_value(_mode(values)),
                minimum=None,
                maximum=None,
            )
    groups = group_by_accommodation(records)
    stats.small_accommodations = [g.accommodation_id for g in groups if g.below_minimum]
    return stats


def statistics_key_values(stats: DatasetStatistics) -> str:
    """Machine-readable ``key=value`` rendering of the statistics report."""
    lines = [
        f"n_records={stats.n_records}",
        f"n_accommodations={stats.n_accommodations}",
        f"voted_fraction={stats.voted_fraction:.6f}",
        f"small_accommodations={len(stats.small_accommodations)}",
    ]
    for name, fs in stats.fields.items():
        lines.append(f"{name}.unique={fs.unique_count}")
        if fs.mean is not None:
            lines.append(f"{name}.mean={fs.mean:.6f}")
        lines.append(f"{name}.mode={fs.mode}")
        if fs.minimum is not None:
            lines.append(f"{name}.min={fs.minimum:g}")
            lines.append(f"{name}.max={fs.maximum:g}")
    return "\n".join(lines) + "\n"
