"""Synthetic review corpora with a planted personalization signal.

Each review's text tokens are drawn from the guest-type segment lexicon
with probability ``signal_strength`` and from a shared background lexicon
otherwise, so guest type is the only context field that predicts review
text.  Beyond the text signal, two realism features are planted:

* review_score is drawn around the accommodation's own score.  The
  resulting score correlation is visible ACROSS accommodations (review
  scores echo the accommodation score that also appears in the context
  string) but carries no information for ranking within one accommodation,
  where every context shares the same accommodation score.  Randomly
  sampled training batches can therefore lower their loss through this
  shortcut while in-accommodation batches cannot, which is precisely the
  contrast the two samplers are meant to expose.
* helpful votes are sparse (a configurable fraction, 8.7% by default,
  matching the published corpus) and heavy-tailed, and independent of the
  planted signal, so the votes baseline is uninformative by construction.

``bayes_optimal_mrr`` is the ceiling a trained model is measured against:
the expected MRR of the Bayes ranker, which orders each accommodation's
reviews by the posterior that they were written by the context's guest
type, over the accommodations with at least 2 reviews (those ``evaluate``
ranks).  The lexicons are pairwise disjoint, so a review either holds
segment tokens of exactly one guest type (it "names" that type, and its
posterior is 1 for it and 0 for the others) or background tokens only (its
posterior is the uniform prior).  For a context of type g in a group with
A reviews named g and U unnamed ones, the ranker puts the A first and the
U next, each set tied.  A tie counts at its expected reciprocal rank
(McSherry & Najork, ECIR 2008), so the context scores H_A / A when its own
review is named and (H_{A+U} - H_A) / U when it is not.  The ceiling is an
expectation over the corpus draw: a model can exceed it on one corpus by
noise, but not in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import (
    AccommodationContext,
    GuestContext,
    GuestType,
    Month,
    Review,
    ReviewRecord,
    group_by_accommodation,
)
from .encoder import tokenize
from .evaluation import harmonic
from .textualize import review_text

DEFAULT_SEGMENT_LEXICONS: dict[GuestType, tuple[str, ...]] = {
    GuestType.SOLO_TRAVELLER: (
        "quiet", "workspace", "wifi", "laptop", "backpack", "dorm", "locker",
        "commute", "metro", "espresso", "solo", "independence", "reading",
        "desk", "headphones", "keycard", "efficiency", "compact", "single",
        "minimalist", "router", "nomad", "journal", "earplugs",
    ),
    GuestType.COUPLE: (
        "romantic", "sunset", "terrace", "candlelight", "honeymoon",
        "champagne", "jacuzzi", "rooftop", "intimate", "anniversary", "cozy",
        "wine", "balcony", "massage", "privacy", "scenic", "stroll",
        "fireplace", "twilight", "serenade", "roses", "moonlight",
        "secluded", "duet",
    ),
    GuestType.GROUP: (
        "friends", "lounge", "billiards", "crew", "karaoke", "barbecue",
        "bunk", "gathering", "parties", "foosball", "hangout", "squad",
        "beers", "gaming", "bonfire", "dartboard", "reunion", "chants",
        "tournament", "banter", "singalong", "huddle", "matchday", "rounds",
    ),
    GuestType.FAMILY_WITH_CHILDREN: (
        "playground", "cots", "stroller", "toddler", "kids", "highchair",
        "cartoons", "babysitting", "sandbox", "slides", "swings", "diapers",
        "naptime", "snacks", "minivan", "childproof", "bunkbeds", "puzzles",
        "crayons", "storytime", "teddy", "pram", "lullaby", "wading",
    ),
}

DEFAULT_BACKGROUND_LEXICON: tuple[str, ...] = (
    "clean", "comfortable", "location", "staff", "breakfast", "room", "bed",
    "bathroom", "shower", "friendly", "helpful", "great", "good", "nice",
    "lovely", "excellent", "perfect", "amazing", "view", "pool", "parking",
    "restaurant", "bar", "coffee", "tea", "towels", "pillows", "aircon",
    "heating", "elevator", "reception", "luggage", "city", "beach", "walk",
    "close", "value", "price", "spotless", "street",
)

_GUEST_COUNTRIES = (
    "UK", "Germany", "France", "Netherlands", "Spain", "Italy", "Poland",
    "Sweden", "Ireland", "Belgium", "Austria", "Denmark",
)
_ACCOMMODATION_COUNTRIES = (
    "Spain", "Italy", "France", "Greece", "Portugal", "Croatia", "Austria",
    "Netherlands",
)
_ACCOMMODATION_TYPES = (
    "Hotel", "Apartment", "Hostel", "Guesthouse", "Villa", "Chalet",
    "Resort", "Bed and breakfast",
)
_STAR_LEVELS = (0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)


@dataclass(frozen=True)
class SynthConfig:
    n_accommodations: int = 300
    reviews_per_accommodation: tuple[int, int] = (12, 12)  # inclusive range
    signal_strength: float = 0.9
    segment_lexicons: dict[GuestType, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SEGMENT_LEXICONS)
    )
    background_lexicon: tuple[str, ...] = DEFAULT_BACKGROUND_LEXICON
    seed: int = 0
    vote_fraction: float = 0.087
    score_noise: float = 0.6

    def __post_init__(self):
        if self.n_accommodations < 1:
            raise ValueError(f"n_accommodations must be >= 1, got {self.n_accommodations}")
        lo, hi = self.reviews_per_accommodation
        if lo < 1 or hi < lo:
            raise ValueError(
                f"reviews_per_accommodation must be a valid range, got {lo}..{hi}"
            )
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError(f"signal_strength outside [0, 1]: {self.signal_strength}")
        if not 0.0 <= self.vote_fraction <= 1.0:
            raise ValueError(f"vote_fraction outside [0, 1]: {self.vote_fraction}")
        if not (math.isfinite(self.score_noise) and self.score_noise >= 0):
            raise ValueError(f"score_noise must be finite and >= 0, got {self.score_noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if set(self.segment_lexicons) != set(GuestType):
            raise ValueError("segment_lexicons must cover every guest type")
        pools = [tuple(self.background_lexicon)] + [
            tuple(self.segment_lexicons[gt]) for gt in GuestType
        ]
        seen: set[str] = set()
        for pool in pools:
            if not pool:
                raise ValueError("lexicons must be non-empty")
            for token in pool:
                if tokenize(token) != [token]:
                    raise ValueError(f"lexicon entry is not a single clean token: {token!r}")
                if token in seen:
                    raise ValueError(f"lexicons are not pairwise disjoint: {token!r}")
                seen.add(token)


def _draw_tokens(rng, n, segment, background, signal):
    tokens = []
    for _ in range(n):
        pool = segment if rng.random() < signal else background
        tokens.append(pool[int(rng.integers(0, len(pool)))])
    return tokens


def generate(config: SynthConfig) -> list[ReviewRecord]:
    """Deterministic synthetic corpus; schema-valid and strict-ingestable."""
    records: list[ReviewRecord] = []
    guest_types = list(GuestType)
    months = list(Month)
    for acc_idx in range(config.n_accommodations):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, acc_idx]))
        lo, hi = config.reviews_per_accommodation
        n_reviews = int(rng.integers(lo, hi + 1))
        accommodation = AccommodationContext(
            accommodation_id=f"synth-{acc_idx:05d}",
            accommodation_type=_ACCOMMODATION_TYPES[
                int(rng.integers(0, len(_ACCOMMODATION_TYPES)))
            ],
            accommodation_score=round(float(rng.uniform(2.4, 10.0)), 1),
            accommodation_country=_ACCOMMODATION_COUNTRIES[
                int(rng.integers(0, len(_ACCOMMODATION_COUNTRIES)))
            ],
            accommodation_star_rating=_STAR_LEVELS[int(rng.integers(0, len(_STAR_LEVELS)))],
            location_is_beach=bool(rng.random() < 0.3),
            location_is_ski=bool(rng.random() < 0.15),
            location_is_city_center=bool(rng.random() < 0.4),
        )
        for _ in range(n_reviews):
            guest_type = guest_types[int(rng.integers(0, 4))]
            segment = config.segment_lexicons[guest_type]
            background = config.background_lexicon
            title = _draw_tokens(rng, int(rng.integers(2, 4)), segment, background,
                                 config.signal_strength)
            positive = _draw_tokens(rng, int(rng.integers(8, 15)), segment, background,
                                    config.signal_strength)
            n_negative = int(rng.integers(0, 5))
            negative = _draw_tokens(rng, n_negative, segment, background,
                                    config.signal_strength)
            score = round(
                float(
                    np.clip(
                        rng.normal(accommodation.accommodation_score, config.score_noise),
                        1.0,
                        10.0,
                    )
                ),
                1,
            )
            votes = int(rng.geometric(0.25)) if rng.random() < config.vote_fraction else 0
            guest = GuestContext(
                guest_type=guest_type,
                guest_country=_GUEST_COUNTRIES[int(rng.integers(0, len(_GUEST_COUNTRIES)))],
                room_nights=1 + int(rng.poisson(3.0)),
                month=months[int(rng.integers(0, 12))],
            )
            records.append(
                ReviewRecord(
                    review=Review(
                        review_title=" ".join(title),
                        review_positive=" ".join(positive),
                        review_negative=" ".join(negative),
                        review_score=score,
                        review_helpful_votes=votes,
                    ),
                    guest=guest,
                    accommodation=accommodation,
                )
            )
    return records


def bayes_optimal_mrr(config: SynthConfig, records: Sequence[ReviewRecord] | None = None) -> float:
    """Expected MRR of the Bayes ranker on a corpus generated from ``config``.

    The closed form of the module docstring, averaged over the contexts of
    each accommodation with at least 2 reviews and then over those
    accommodations.  Pass ``records`` to reuse an already generated corpus;
    a review that ``config`` cannot have generated (a token in none of its
    lexicons, or segment tokens of another guest type than its own) raises
    ValueError.
    """
    if records is None:
        records = generate(config)
    names = dict.fromkeys(config.background_lexicon)  # token -> the guest type it names, or None
    names.update((t, gt) for gt, lexicon in config.segment_lexicons.items() for t in lexicon)
    groups = [g for g in group_by_accommodation(records) if len(g) >= 2]
    if not groups:
        raise ValueError("no accommodation with at least 2 reviews")
    group_means = []
    for group in groups:
        named = []  # the guest type each review names, or None
        for position, record in enumerate(group.records):
            guest_type = record.guest.guest_type
            # Each token's guest type, None for background, or the token if foreign.
            kinds = {names.get(t, t) for t in tokenize(review_text(record.review))}
            for stray in kinds - {None, guest_type}:
                what = stray.value if isinstance(stray, GuestType) else f"{stray!r}, in no lexicon"
                raise ValueError(f"accommodation {group.accommodation_id!r} review {position} "
                                 f"by a {guest_type.value} guest names {what}")
            named.append(guest_type if guest_type in kinds else None)
        total = 0.0
        for record, own in zip(group.records, named):
            a, u = named.count(record.guest.guest_type), named.count(None)
            total += harmonic(a) / a if own else (harmonic(a + u) - harmonic(a)) / u
        group_means.append(total / len(group))
    return sum(group_means) / len(group_means)
