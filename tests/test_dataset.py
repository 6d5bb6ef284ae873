import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.dataset import (
    COLUMNS,
    AccommodationContext,
    GuestContext,
    GuestType,
    Month,
    Review,
    ReviewRecord,
    RowError,
    SchemaError,
    group_by_accommodation,
    load_csv,
    parse_bool,
    parse_guest_type,
    parse_month,
    schema,
    split_dataset,
    validate_statistics,
    write_csv,
)


def make_record(
    acc_id="a1",
    title="Great stay",
    positive="Clean room",
    negative="",
    score=8.0,
    votes=0,
    guest_type=GuestType.COUPLE,
    country="UK",
    nights=2,
    month=Month.JULY,
    acc_type="Hotel",
    acc_score=8.5,
    acc_country="France",
    stars=4.0,
    beach=False,
    ski=False,
    city=True,
):
    return ReviewRecord(
        review=Review(
            review_title=title,
            review_positive=positive,
            review_negative=negative,
            review_score=score,
            review_helpful_votes=votes,
        ),
        guest=GuestContext(
            guest_type=guest_type,
            guest_country=country,
            room_nights=nights,
            month=month,
        ),
        accommodation=AccommodationContext(
            accommodation_id=acc_id,
            accommodation_type=acc_type,
            accommodation_score=acc_score,
            accommodation_country=acc_country,
            accommodation_star_rating=stars,
            location_is_beach=beach,
            location_is_ski=ski,
            location_is_city_center=city,
        ),
    )


# Text with commas, quotes, line breaks and non-ASCII characters, but no NUL.
RAW_TEXT = st.text(
    st.one_of(st.sampled_from(',"\n\r é漢😀'),
              st.characters(exclude_categories=("Cs",), exclude_characters="\x00")),
    max_size=8,
)
# Cell text that survives a CSV round trip: no leading or trailing
# whitespace, which the loader strips.
CELL_TEXT = RAW_TEXT.map(str.strip)
# The (part, field) name of every text field of a record.
TEXT_FIELDS = [(part, name) for part, cls in schema(ReviewRecord)
               for name, kind in schema(cls) if kind is str]


def bounded(lo, hi):
    """Floats in [lo, hi], with both bounds drawn often."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


@st.composite
def record_lists(draw, min_size=1, max_size=12, text=CELL_TEXT):
    """Valid records over a few accommodations, one context per id."""
    review = st.builds(
        lambda texts, score, votes: Review(*texts, score, votes),
        st.tuples(text, text, text).filter(any), bounded(1.0, 10.0), st.integers(0, 10**6),
    )
    guest = st.builds(GuestContext, st.sampled_from(GuestType), text,
                      st.integers(1, 10**6), st.sampled_from(Month))
    accommodation = st.builds(
        AccommodationContext, text.filter(bool), text, bounded(1.0, 10.0), text,
        bounded(0.0, 5.0), st.booleans(), st.booleans(), st.booleans(),
    )
    accommodations = draw(st.lists(accommodation, min_size=1, max_size=3,
                                   unique_by=lambda a: a.accommodation_id))
    record = st.builds(ReviewRecord, review, guest, st.sampled_from(accommodations))
    return draw(st.lists(record, min_size=min_size, max_size=max_size))


HEADER = ",".join(COLUMNS)


def row_text(acc_id="a1", score="8.0", nights="2", title="Nice", month="July"):
    return (
        f"{title},Good location,Noisy,{score},3,Couple,UK,{nights},{month},"
        f"{acc_id},Hotel,8.5,France,4.0,0,0,1"
    )


class TestParsing:
    def test_guest_type_variants(self):
        assert parse_guest_type("Couple") is GuestType.COUPLE
        assert parse_guest_type("couple") is GuestType.COUPLE
        assert parse_guest_type("solo_traveller") is GuestType.SOLO_TRAVELLER
        assert parse_guest_type("Family with children") is GuestType.FAMILY_WITH_CHILDREN
        with pytest.raises(ValueError):
            parse_guest_type("Business")

    def test_month_variants(self):
        assert parse_month("July") is Month.JULY
        assert parse_month("july") is Month.JULY
        assert parse_month("7") is Month.JULY
        assert parse_month("12") is Month.DECEMBER
        with pytest.raises(ValueError):
            parse_month("13")
        with pytest.raises(ValueError):
            parse_month("Julyy")

    def test_bool_variants(self):
        assert parse_bool("1") and parse_bool("true") and parse_bool("Yes")
        assert not (parse_bool("0") or parse_bool("false") or parse_bool("No"))
        with pytest.raises(ValueError):
            parse_bool("2")

    def test_invariants_reject_bad_values(self):
        with pytest.raises(ValueError):
            make_record(score=0.5)
        with pytest.raises(ValueError):
            make_record(score=10.5)
        with pytest.raises(ValueError):
            make_record(votes=-1)
        with pytest.raises(ValueError):
            make_record(nights=0)
        with pytest.raises(ValueError):
            make_record(acc_score=0.9)
        with pytest.raises(ValueError):
            make_record(stars=5.5)
        with pytest.raises(ValueError):
            make_record(title="", positive="", negative="")
        # one non-empty text field suffices
        make_record(title="", positive="", negative="Too loud")
        # a cell would read " " back as "", so no text field may hold it
        with pytest.raises(ValueError, match="^review_title has leading or trailing"):
            make_record(title=" ", positive="", negative="")


class TestLoadCsv:
    def test_lenient_skips_bad_rows(self, tmp_path):
        text = "\n".join(
            [
                HEADER,
                row_text(acc_id="a1"),
                row_text(acc_id="a2", score="11.0"),  # out of range
                row_text(acc_id="a3", nights="4"),
            ]
        )
        path = tmp_path / "d.csv"
        path.write_text(text + "\n", encoding="utf-8")
        result = load_csv(path, schema_mode="lenient")
        assert len(result.records) == 2
        assert len(result.rejections) == 1
        assert result.rejections[0].row == 2
        assert "review_score" in result.rejections[0].reason

    def test_strict_raises_on_bad_row(self, tmp_path):
        text = "\n".join([HEADER, row_text(), row_text(score="0.0")])
        path = tmp_path / "d.csv"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(RowError):
            load_csv(path, schema_mode="strict")

    def test_missing_column_raises_both_modes(self, tmp_path):
        cols = [c for c in COLUMNS if c != "month"]
        text = ",".join(cols) + "\n"
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        for mode in ("strict", "lenient"):
            with pytest.raises(SchemaError):
                load_csv(path, schema_mode=mode)

    def test_extra_column_strict_vs_lenient(self, tmp_path):
        text = HEADER + ",extra\n" + row_text() + ",x\n"
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError):
            load_csv(path, schema_mode="strict")
        result = load_csv(path, schema_mode="lenient")
        assert len(result.records) == 1

    def test_inconsistent_accommodation_context_rejected(self, tmp_path):
        text = "\n".join([HEADER, row_text(acc_id="a1"), row_text(acc_id="a1")])
        # mutate the second row's accommodation_score
        text = text.rsplit("8.5", 1)
        text = "9.0".join(text)
        path = tmp_path / "d.csv"
        path.write_text(text + "\n", encoding="utf-8")
        result = load_csv(path, schema_mode="lenient")
        assert len(result.records) == 1
        assert len(result.rejections) == 1
        assert "disagrees" in result.rejections[0].reason

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists(min_size=0), text=RAW_TEXT, field=st.sampled_from(TEXT_FIELDS))
    def test_round_trip(self, tmp_path_factory, records, text, field):
        # A text field takes any text but one with surrounding whitespace,
        # which its cell would lose; every record that can be made round-trips.
        part, name = field
        base = make_record()
        try:
            extra = replace(base, **{part: replace(getattr(base, part), **{name: text})})
        except ValueError as exc:
            assert str(exc).startswith(f"{name} ")
            assert text != text.strip() or (name, text) == ("accommodation_id", "")
        else:
            assert text == text.strip()
            acc_id = extra.accommodation.accommodation_id
            records = [extra, *(r for r in records if r.accommodation.accommodation_id != acc_id)]
        path = tmp_path_factory.mktemp("round-trip") / "out.csv"
        write_csv(records, path)
        back = load_csv(path, schema_mode="strict")
        assert back.rejections == []
        assert repr(back.records) == repr(records)


class TestGrouping:
    def test_groups_preserve_order(self):
        records = [
            make_record(acc_id="a"),
            make_record(acc_id="b"),
            make_record(acc_id="a", title="Second"),
            make_record(acc_id="c"),
        ]
        groups = group_by_accommodation(records)
        assert [g.accommodation_id for g in groups] == ["a", "b", "c"]
        assert groups[0].indices == (0, 2)
        assert groups[0].records[1].review.review_title == "Second"

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            group_by_accommodation([])

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40))
    def test_grouping_is_a_partition(self, ids):
        records = [make_record(acc_id=f"acc{i}") for i in ids]
        groups = group_by_accommodation(records)
        all_indices = sorted(i for g in groups for i in g.indices)
        assert all_indices == list(range(len(records)))
        for g in groups:
            assert all(
                r.accommodation.accommodation_id == g.accommodation_id for r in g.records
            )


class TestSplit:
    def test_ten_groups_80_10_10(self):
        groups = group_by_accommodation([make_record(acc_id=f"a{i}") for i in range(10)])
        train, valid, test = split_dataset(groups, (0.8, 0.1, 0.1), seed=0)
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_deterministic(self):
        groups = group_by_accommodation([make_record(acc_id=f"a{i}") for i in range(23)])
        a = split_dataset(groups, (0.8, 0.1, 0.1), seed=7)
        b = split_dataset(groups, (0.8, 0.1, 0.1), seed=7)
        assert [g.accommodation_id for g in a[0]] == [g.accommodation_id for g in b[0]]
        assert [g.accommodation_id for g in a[2]] == [g.accommodation_id for g in b[2]]

    def test_bad_fractions(self):
        groups = group_by_accommodation([make_record(acc_id=f"a{i}") for i in range(5)])
        with pytest.raises(ValueError):
            split_dataset(groups, (0.5, 0.4, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_dataset(groups, (0.9, 0.2, -0.1), seed=0)
        with pytest.raises(ValueError, match=r"finite.*\(nan, 0\.5, 0\.5\)"):
            split_dataset(groups, (math.nan, 0.5, 0.5), seed=0)

    def test_too_few_groups(self):
        groups = group_by_accommodation([make_record(acc_id="a"), make_record(acc_id="b")])
        with pytest.raises(ValueError):
            split_dataset(groups, (0.8, 0.1, 0.1), seed=0)

    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=3, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_split_is_disjoint_and_exhaustive(self, n, seed):
        groups = group_by_accommodation([make_record(acc_id=f"a{i}") for i in range(n)])
        train, valid, test = split_dataset(groups, (0.8, 0.1, 0.1), seed=seed)
        ids = [g.accommodation_id for part in (train, valid, test) for g in part]
        assert sorted(ids) == sorted(g.accommodation_id for g in groups)
        assert len(set(ids)) == len(ids)
        assert len(valid) >= 1 and len(test) >= 1


class TestStatistics:
    def test_votes_mean(self):
        records = [make_record(votes=0), make_record(votes=4)]
        stats = validate_statistics(records)
        assert stats.fields["review_helpful_votes"].mean == pytest.approx(2.0)
        assert stats.fields["review_helpful_votes"].minimum == 0
        assert stats.fields["review_helpful_votes"].maximum == 4
        assert stats.voted_fraction == pytest.approx(0.5)

    def test_mode_and_unique(self):
        records = [
            make_record(guest_type=GuestType.COUPLE),
            make_record(guest_type=GuestType.COUPLE),
            make_record(guest_type=GuestType.GROUP),
        ]
        stats = validate_statistics(records)
        assert stats.fields["guest_type"].mode == "Couple"
        assert stats.fields["guest_type"].unique_count == 2
        assert stats.fields["guest_type"].mean is None

    def test_mode_tie_breaks_low(self):
        records = [make_record(score=7.0), make_record(score=9.0)]
        stats = validate_statistics(records)
        assert stats.fields["review_score"].mode == "7"

    def test_small_accommodation_flagged(self):
        records = [make_record(acc_id="tiny")] * 3 + [
            make_record(acc_id="big", title=f"t{i}") for i in range(12)
        ]
        stats = validate_statistics(records)
        assert stats.small_accommodations == ["tiny"]
        assert stats.n_accommodations == 2
        assert stats.n_records == 15
