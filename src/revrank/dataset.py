"""Review dataset ingestion: typed records, CSV loading, grouping, splitting.

The on-disk format is a UTF-8 CSV with one header row.  The record classes
are its schema: the columns (``COLUMNS``) are the fields of a record's three
parts, ``Review``, ``GuestContext`` and ``AccommodationContext``, in
declaration order, and a field's declared type sets how its cell is parsed
and written.  Text cells may be empty, the others may not.
Records are grouped by accommodation and split into train/valid/test at the
accommodation level so that no accommodation straddles two splits.
"""

from __future__ import annotations

import csv
import enum
import operator
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

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


def _check_text(part) -> None:
    """A record part's text fields have no surrounding whitespace, which a cell loses."""
    for name, kind in schema(type(part)):
        if kind is str and (value := getattr(part, name)) != value.strip():
            raise ValueError(f"{name} has leading or trailing whitespace: {value!r}")


@dataclass(frozen=True)
class GuestContext:
    guest_type: GuestType
    guest_country: str
    room_nights: int
    month: Month

    def __post_init__(self):
        _check_text(self)
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
        _check_text(self)
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
        _check_text(self)
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


@cache
def schema(cls: type) -> tuple[tuple[str, type], ...]:
    """The (field name, declared type) pairs of dataclass ``cls``, in order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


_label = operator.attrgetter("label")
# How a cell of each declared type is parsed (text is only stripped) and written.
_PARSE = {float: float, int: int, bool: parse_bool, GuestType: parse_guest_type,
          Month: parse_month}
_WRITE = {str: str, float: repr, int: str, bool: lambda value: "1" if value else "0",
          GuestType: _label, Month: _label}

# Every column, in row order (the fields of a record's parts, part after
# part): the part's field name in ``ReviewRecord``, the column's field name
# and its declared type.
_FIELDS = tuple(
    (part, name, kind) for part, cls in schema(ReviewRecord) for name, kind in schema(cls)
)
COLUMNS = tuple(name for _, name, _ in _FIELDS)
_WRITERS = tuple(_WRITE[kind] for _, _, kind in _FIELDS)
# A record's field values, in ``COLUMNS`` order.
_field_values = operator.attrgetter(*(f"{part}.{name}" for part, name, _ in _FIELDS))
# The parts whose cells many rows repeat; ``load_csv`` parses each spelling once.
_SHARED_PARTS = (GuestContext, AccommodationContext)


def parse_fields(cls: type, cells: Sequence[str | None]):
    """An instance of record part ``cls`` from the raw cells of its fields.

    Each cell is stripped and parsed by its field's declared type; a text
    field may be empty, any other may not.  The first fault in field order
    raises ValueError, and then the part's own checks run.
    """
    values = []
    for (name, kind), cell in zip(schema(cls), cells):
        if cell is None:
            raise ValueError(f"missing cell for column {name!r}")
        value = cell.strip()
        if kind is not str:
            if value == "":
                raise ValueError(f"empty numeric cell {name!r}")
            try:
                value = _PARSE[kind](value)
            except ValueError as exc:
                raise ValueError(f"bad {name!r}: {exc}") from None
        values.append(value)
    return cls(*values)


def _parse_row(
    cells: Sequence[str | None], row_num: int, shared: dict[type, dict[tuple, object]]
) -> ReviewRecord:
    """The record of one row, from its raw cells in ``COLUMNS`` order.

    A cell the row is too short to have is None.  Parts are parsed in
    ``COLUMNS`` order, so the first fault in that order is the one reported.
    ``shared`` maps each shared part to a map from the raw cells parsed so
    far to their value; a row that repeats them shares that (frozen) value.
    """
    parts, start = [], 0
    try:
        for _, cls in schema(ReviewRecord):
            raw = cells[start : start + len(schema(cls))]
            start += len(raw)
            parsed = shared.get(cls)
            if parsed is None:
                part = parse_fields(cls, raw)
            elif (part := parsed.get(raw)) is None:
                part = parsed[raw] = parse_fields(cls, raw)
            parts.append(part)
    except ValueError as exc:
        raise RowError(row_num, str(exc)) from None
    return ReviewRecord(*parts)


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


@contextmanager
def utf8_named(path: str | Path):
    """Raise ValueError naming ``path`` when the file read inside is not UTF-8 text."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text "
                         f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def load_csv(path: str | Path, schema_mode: str = "strict") -> LoadResult:
    """Load a review CSV.

    In ``strict`` mode the header must contain exactly the expected columns
    and the first malformed row aborts the load.  In ``lenient`` mode extra
    columns are ignored and malformed rows are skipped and reported.
    Rows whose accommodation context disagrees with an earlier row of the
    same accommodation_id are malformed, and so are rows the CSV reader
    cannot split (a field over ``csv.field_size_limit()``, a NUL byte).
    A file that is not UTF-8 text raises ValueError naming it; a leading
    UTF-8 byte-order mark is skipped.

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
    with path.open(newline="", encoding="utf-8-sig") as handle, utf8_named(path):
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
        shared: dict[type, dict[tuple, object]] = {cls: {} for cls in _SHARED_PARTS}
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
                record = _parse_row(pick(row), row_num, shared)
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


def record_to_row(record: ReviewRecord) -> list[str]:
    """Render one record as its CSV cells in ``COLUMNS`` order; inverse of row parsing."""
    return [write(value) for write, value in zip(_WRITERS, _field_values(record))]


def write_csv(records: Iterable[ReviewRecord], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        # A writer quotes a cell that holds a character of its line end, and a
        # bare carriage return would read back as one: the writer is told that
        # rows end in "\r\n", and each row is written with "\n" alone.
        rows = SimpleNamespace(write=lambda row: handle.write(row[:-2] + "\n"))
        writer = csv.writer(rows, lineterminator="\r\n")
        writer.writerow(COLUMNS)
        writer.writerows(map(record_to_row, records))


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


def _mode(values: Sequence) -> object:
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


# Columns left out of the statistics report: the free text and the id.
_NOT_SUMMARIZED = {"review_title", "review_positive", "review_negative", "accommodation_id"}


def validate_statistics(records: Sequence[ReviewRecord]) -> DatasetStatistics:
    """Per-field unique-count / mean / mode / min / max summary.

    Int, float and bool fields are numeric (booleans as 0/1); the other
    fields are categorical, summarized by their cell text, and report
    unique count and mode only.
    """
    if not records:
        raise ValueError("cannot summarize an empty record list")
    stats = DatasetStatistics(
        n_records=len(records),
        n_accommodations=len({r.accommodation.accommodation_id for r in records}),
        voted_fraction=sum(r.review.review_helpful_votes > 0 for r in records)
        / len(records),
    )
    columns = zip(*map(_field_values, records))
    for (_, name, kind), values in zip(_FIELDS, columns):
        if name in _NOT_SUMMARIZED:
            continue
        if kind in (int, float, bool):
            mode = _mode(values)
            stats.fields[name] = FieldStats(
                unique_count=len(set(values)),
                mean=float(sum(values)) / len(values),
                mode=f"{mode:g}" if isinstance(mode, float) else str(int(mode)),
                minimum=float(min(values)),
                maximum=float(max(values)),
            )
        else:
            values = list(map(_WRITE[kind], values))
            stats.fields[name] = FieldStats(
                unique_count=len(set(values)),
                mean=None,
                mode=_mode(values),
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
