"""Field-to-text serialization for the two encoder inputs.

Each record becomes two strings: the review side (title, positive, negative,
score) and the context side (guest fields followed by accommodation fields).
Every field is rendered as a ``"<field_name>: <field_value>\\n"`` line in a
fixed order; fields whose value is an empty string are skipped.  Formatting
is exact so serialized strings can serve as byte-level regression fixtures:
scores and ratings use one decimal place, counts are plain integers,
booleans are "true"/"false", and enums use their display labels.
``record_tokens`` tokenizes both inputs of a record; it is the one routine
that turns a record into the model's tokens.  ``review_text`` is a
review's free text alone, without field names, as topic detection and the
synthetic corpus's Bayes oracle read it.
"""

from __future__ import annotations

from .dataset import AccommodationContext, GuestContext, Review, ReviewRecord
from .encoder import tokenize


def _line(name: str, value: str) -> str:
    return f"{name}: {value}\n"


def _real(value: float) -> str:
    return f"{value:.1f}"


def _boolean(value: bool) -> str:
    return "true" if value else "false"


def serialize_review(review: Review) -> str:
    """Render the review-side encoder input.

    Field order: review_title, review_positive, review_negative,
    review_score.  Empty text fields are skipped; the score is always
    present, so the output is never empty.
    """
    parts = []
    if review.review_title:
        parts.append(_line("review_title", review.review_title))
    if review.review_positive:
        parts.append(_line("review_positive", review.review_positive))
    if review.review_negative:
        parts.append(_line("review_negative", review.review_negative))
    parts.append(_line("review_score", _real(review.review_score)))
    return "".join(parts)


def review_text(review: Review) -> str:
    """The review's non-empty title, positive and negative text, one per line."""
    parts = (review.review_title, review.review_positive, review.review_negative)
    return "\n".join(p for p in parts if p)


def serialize_context(guest: GuestContext, accommodation: AccommodationContext) -> str:
    """Render the context-side encoder input.

    Guest fields come first (guest_country, guest_type, room_nights, month),
    then accommodation fields (accommodation_type, accommodation_star_rating,
    accommodation_score, location_is_beach, location_is_ski,
    location_is_city_center).  Empty string fields are skipped.
    """
    parts = []
    if guest.guest_country:
        parts.append(_line("guest_country", guest.guest_country))
    parts.append(_line("guest_type", guest.guest_type.label))
    parts.append(_line("room_nights", str(guest.room_nights)))
    parts.append(_line("month", guest.month.label))
    if accommodation.accommodation_type:
        parts.append(_line("accommodation_type", accommodation.accommodation_type))
    parts.append(
        _line("accommodation_star_rating", _real(accommodation.accommodation_star_rating))
    )
    parts.append(_line("accommodation_score", _real(accommodation.accommodation_score)))
    parts.append(_line("location_is_beach", _boolean(accommodation.location_is_beach)))
    parts.append(_line("location_is_ski", _boolean(accommodation.location_is_ski)))
    parts.append(
        _line("location_is_city_center", _boolean(accommodation.location_is_city_center))
    )
    return "".join(parts)


def serialize_record(record: ReviewRecord) -> tuple[str, str]:
    """Both encoder inputs for one record: (context_text, review_text)."""
    return (
        serialize_context(record.guest, record.accommodation),
        serialize_review(record.review),
    )


def record_tokens(record: ReviewRecord) -> tuple[list[str], list[str]]:
    """Both encoder inputs for one record, tokenized: (context, review)."""
    context, review = serialize_record(record)
    return tokenize(context), tokenize(review)
