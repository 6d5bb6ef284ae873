"""``write_csv`` and ``validate_statistics`` against frozen copies of their
field-by-field forms.

Both now walk the columns derived from the record classes and pick a writer
or a summary by each field's declared type.  On any records they must give
the same CSV bytes and the same ``statistics_key_values`` text as the
hand-written versions below, which list the 17 fields one by one.  The one
intended difference is a cell holding a carriage return: the frozen writer
leaves it bare, and a reader takes it for a line end
(``test_carriage_return_reads_back``), so the byte comparison draws text
without one and the round trip in ``test_dataset`` covers it.
"""

import csv
import os
import tempfile
from collections import Counter

from hypothesis import given, settings

from revrank.dataset import (
    COLUMNS,
    DatasetStatistics,
    FieldStats,
    GuestType,
    Month,
    group_by_accommodation,
    load_csv,
    statistics_key_values,
    validate_statistics,
    write_csv,
)
from test_dataset import CELL_TEXT, make_record, record_lists

REFERENCE_COLUMNS = (
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


def reference_record_to_row(record):
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


def reference_write_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=REFERENCE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for record in records:
            writer.writerow(reference_record_to_row(record))


def reference_mode(values):
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def reference_format_stat_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def reference_validate_statistics(records):
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
    for name in REFERENCE_COLUMNS:
        if name in numeric_fields:
            values = numeric_fields[name]
            stats.fields[name] = FieldStats(
                unique_count=len(set(values)),
                mean=float(sum(values)) / len(values),
                mode=reference_format_stat_value(reference_mode(values)),
                minimum=float(min(values)),
                maximum=float(max(values)),
            )
        elif name in categorical_fields:
            values = categorical_fields[name]
            stats.fields[name] = FieldStats(
                unique_count=len(set(values)),
                mean=None,
                mode=reference_format_stat_value(reference_mode(values)),
                minimum=None,
                maximum=None,
            )
    groups = group_by_accommodation(records)
    stats.small_accommodations = [g.accommodation_id for g in groups if g.below_minimum]
    return stats


def written(writer, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reviews.csv")
        writer(records, path)
        with open(path, "rb") as handle:
            return handle.read()


def assert_same_statistics(records):
    expected = statistics_key_values(reference_validate_statistics(records))
    assert statistics_key_values(validate_statistics(records)) == expected


def test_columns_are_the_frozen_tuple():
    assert COLUMNS == REFERENCE_COLUMNS


@settings(max_examples=100, deadline=None)
@given(records=record_lists(min_size=0, text=CELL_TEXT.map(lambda s: s.replace("\r", "\n"))))
def test_csv_bytes_match_reference(records):
    assert written(write_csv, records) == written(reference_write_csv, records)


@settings(max_examples=100, deadline=None)
@given(records=record_lists())
def test_statistics_match_reference(records):
    assert_same_statistics(records)


def test_carriage_return_reads_back(tmp_path):
    records = [make_record(title="one\rtwo"), make_record(negative="a\r\nb")]
    write_csv(records, tmp_path / "new.csv")
    assert load_csv(tmp_path / "new.csv").records == records
    reference_write_csv(records, tmp_path / "old.csv")
    assert load_csv(tmp_path / "old.csv", schema_mode="lenient").records != records


def test_month_mode_ties_break_by_label():
    # Calendar order would pick January; label order picks April.
    records = [make_record(month=Month.JANUARY), make_record(month=Month.APRIL)]
    assert "month.mode=April\n" in statistics_key_values(validate_statistics(records))
    assert_same_statistics(records)


def test_guest_type_mode_ties_break_by_label():
    # Declaration order would pick Solo traveller; label order picks Group.
    records = [make_record(guest_type=GuestType.SOLO_TRAVELLER),
               make_record(guest_type=GuestType.GROUP)]
    assert "guest_type.mode=Group\n" in statistics_key_values(validate_statistics(records))
    assert_same_statistics(records)


def test_all_equal_booleans():
    records = [make_record(beach=True, ski=False, title=f"t{i}") for i in range(3)]
    text = statistics_key_values(validate_statistics(records))
    assert "location_is_beach.mode=1\n" in text and "location_is_ski.mode=0\n" in text
    assert_same_statistics(records)


def test_single_record():
    assert_same_statistics([make_record()])
