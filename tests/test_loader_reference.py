"""``load_csv`` against a frozen copy of its ``csv.DictReader`` form.

``load_csv`` reads rows as cell lists picked by column position, and it
shares one parsed context among rows that repeat its raw cells.  Both are
for speed only: on any file it must return the same records and
rejections, or raise the same exception with the same message, as the
straightforward loader below, which builds a dict per row.  Records are
compared by ``repr``, so that a -0.0 read as 0.0 would show.
"""

import csv
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revrank.dataset import (
    COLUMNS,
    AccommodationContext,
    GuestContext,
    LoadResult,
    Review,
    ReviewRecord,
    RowError,
    RowRejection,
    SchemaError,
    load_csv,
    parse_bool,
    parse_month,
)
from revrank.dataset import _GUEST_TYPE_BY_KEY


def reference_parse_guest_type(text):
    key = "".join(ch for ch in text.lower() if ch.isalnum())
    try:
        return _GUEST_TYPE_BY_KEY[key]
    except KeyError:
        raise ValueError(f"unknown guest_type {text!r}") from None


def reference_parse_row(row, row_num):
    def cell(name):
        value = row.get(name)
        if value is None:
            raise RowError(row_num, f"missing cell for column {name!r}")
        return value.strip()

    def numeric(name, conv):
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
        guest = GuestContext(
            guest_type=numeric("guest_type", reference_parse_guest_type),
            guest_country=cell("guest_country"),
            room_nights=numeric("room_nights", int),
            month=numeric("month", parse_month),
        )
        accommodation = AccommodationContext(
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


def reference_rows(reader):
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc


def reference_load_csv(path, schema_mode="strict"):
    path = Path(path)
    try:
        return reference_load_utf8_csv(path, schema_mode)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None


def reference_load_utf8_csv(path, schema_mode):
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        try:
            header = reader.fieldnames
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
        records, rejections, seen = [], [], {}
        for row_num, row in enumerate(reference_rows(reader), start=1):
            try:
                if isinstance(row, csv.Error):
                    raise RowError(row_num, f"unreadable CSV row: {row}")
                record = reference_parse_row(row, row_num)
                acc = record.accommodation
                known = seen.get(acc.accommodation_id)
                if known is None:
                    seen[acc.accommodation_id] = acc
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


def outcome(loader, path, mode):
    try:
        result = loader(path, schema_mode=mode)
    except ValueError as exc:  # SchemaError and RowError included
        return type(exc), str(exc)
    return repr(result.records), [(r.row, r.reason) for r in result.rejections]


def assert_same_outcome(path):
    for mode in ("strict", "lenient"):
        assert outcome(load_csv, path, mode) == outcome(reference_load_csv, path, mode), mode


# Valid raw spellings of each cell, some of which parse equal to another.
VALID = {
    "review_title": ["Great stay", "", " padded ", "two\nlines", "comma, quote \"q\""],
    "review_positive": ["Clean room", "Straße İstanbul ﬁne"],
    "review_negative": ["", "Noisy"],
    "review_score": ["8", "8.0", " 7.5 ", "1e1"],
    "review_helpful_votes": ["0", "3", " 12 "],
    "guest_type": ["Couple", "solo_traveller", "FAMILY WITH CHILDREN", "Group"],
    "guest_country": ["UK", "", "Japan"],
    "room_nights": ["2", "1", " 2"],
    "month": ["July", "7", " july", "January"],
    "accommodation_id": ["a1", "a2", " a1 "],
    "accommodation_type": ["Hotel", "", "Hostel"],
    "accommodation_score": ["4", "4.0", "8.5", " 8.50"],
    "accommodation_country": ["France", "Spain"],
    "accommodation_star_rating": ["0", "0.0", "-0.0", "4"],
    "location_is_beach": ["1", "true", "0", "NO"],
    "location_is_ski": ["0", "false", "yes"],
    "location_is_city_center": ["1", "0"],
}
FAULTY = {
    "review_title": ["\t"],
    "review_positive": [""],
    "review_negative": [" "],
    "review_score": ["", "abc", "0.5", "nan", "inf"],
    "review_helpful_votes": ["", "-1", "2.0", "x"],
    "guest_type": ["", "Alien"],
    "guest_country": [" "],
    "room_nights": ["0", "", "two"],
    "month": ["13", "", "jan"],
    "accommodation_id": ["", " "],
    "accommodation_type": ["Hotel "],
    "accommodation_score": ["0.5", "", "x", "nan"],
    "accommodation_country": [""],
    "accommodation_star_rating": ["5.5", "", "-1"],
    "location_is_beach": ["maybe", ""],
    "location_is_ski": ["2"],
    "location_is_city_center": ["", "y"],
}
GUEST = COLUMNS[5:9]
ACCOMMODATION = COLUMNS[9:]
EXTRA_NAMES = ("notes", "review_title", "accommodation_score", "")
OVERSIZED = "x" * (csv.field_size_limit() + 1)


def templates(names):
    """A few raw cell sets for one kind of context, repeated across rows."""
    return st.lists(
        st.fixed_dictionaries({name: st.sampled_from(VALID[name]) for name in names}),
        min_size=1, max_size=4,
    )


@st.composite
def csv_case(draw):
    header = list(draw(st.permutations(COLUMNS)))
    for name in draw(st.lists(st.sampled_from(EXTRA_NAMES), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(COLUMNS)))
    last = {name: i for i, name in enumerate(header)}
    # Rows take their context cells from a few templates, so that they
    # repeat a context's raw cells, spell it another way or disagree; a
    # row may then change one cell, to a valid or a faulty spelling.
    guests, accommodations = draw(templates(GUEST)), draw(templates(ACCOMMODATION))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        values = {name: draw(st.sampled_from(VALID[name])) for name in COLUMNS[:5]}
        values.update(draw(st.sampled_from(guests)))
        values.update(draw(st.sampled_from(accommodations)))
        changed = draw(st.one_of(st.none(), st.sampled_from(COLUMNS)))
        if changed is not None:
            values[changed] = draw(st.sampled_from(FAULTY[changed] + VALID[changed]))
        # A column named twice is read from its last position.
        row = [values.get(name, "extra") if last[name] == i else "shadowed"
               for i, name in enumerate(header)]
        kind = draw(st.sampled_from(
            ("whole",) * 6 + ("short", "long", "blank", "nul", "oversized", "one empty")
        ))
        if kind == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row += ["", "surplus"]
        elif kind == "blank":
            row = []
        elif kind == "nul":
            row[draw(st.integers(0, len(row) - 1))] += "\x00"
        elif kind == "oversized":
            row[draw(st.integers(0, len(row) - 1))] = OVERSIZED
        elif kind == "one empty":
            row = [""]
        rows.append(row)
    return header, rows, draw(st.sampled_from(("\n", "\r\n")))


def write_rows(path, header, rows, terminator):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator=terminator)
        writer.writerow(header)
        for row in rows:
            if any("\x00" in cell for cell in row):  # the writer may refuse NUL
                handle.write(",".join(row) + terminator)
            else:
                writer.writerow(row)


@settings(max_examples=150, deadline=None)
@given(case=csv_case())
def test_load_csv_matches_dictreader_reference(case):
    header, rows, terminator = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reviews.csv")
        write_rows(path, header, rows, terminator)
        assert_same_outcome(path)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=400), cut=st.integers(0, 5000))
def test_mutated_corpus_matches_reference(tmp_path_factory, data, cut):
    """A valid file with arbitrary bytes spliced in somewhere."""
    base = tmp_path_factory.getbasetemp() / "mutated.csv"
    lines = [",".join(COLUMNS)] + [
        "Title,Good,,8.0,1,Couple,UK,2,July,a1,Hotel,8.5,France,4.0,1,0,1"
    ] * 6 + ['"quoted\nnewline",,"bad, ""q""",9,0,Group,,1,7,a1,Hotel,8.5,France,4,true,0,1']
    text = "\r\n".join(lines).encode()
    cut = min(cut, len(text))
    base.write_bytes(text[:cut] + data + text[cut:])
    assert_same_outcome(base)


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "\n" + ",".join(COLUMNS) + "\n",
    '"unterminated\n',
    "a,\x00\n",
])
def test_header_faults_match_reference(tmp_path, text):
    path = tmp_path / "reviews.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_outcome(path)


def test_equal_contexts_spelled_differently_are_kept(tmp_path):
    path = tmp_path / "reviews.csv"
    base = "T,P,,8,0,Couple,UK,2,July,a1,Hotel,{},France,{},1,0,1"
    path.write_text("\n".join([
        ",".join(COLUMNS), base.format("4", "0"), base.format("4.0", "0.0"),
        base.format("4", "0"), base.format(" 4.00", "-0.0"),
    ]) + "\n", encoding="utf-8")
    result = load_csv(path)
    assert len(result.records) == 4 and result.rejections == []
    assert_same_outcome(path)
    # Each row keeps the value of its own spelling.
    assert repr(result.records[3].accommodation.accommodation_star_rating) == "-0.0"
    assert result.records[2].accommodation is result.records[0].accommodation
